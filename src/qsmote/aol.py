"""Angular outlier detection and boosting.

Outliers are records whose angular distance falls beyond 1.5 IQR of the
combined original-plus-synthetic minority distribution. Underpopulated
outlier histogram bins get extra synthetic records generated with wider
rotation angles.
"""

from dataclasses import dataclass

import numpy as np

from . import synth
from .errors import ParameterError


@dataclass(frozen=True)
class OutlierBounds:
    q1: float
    q3: float
    iqr: float
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class OutlierBinTable:
    bin_starts: np.ndarray
    bin_ends: np.ndarray
    counts: np.ndarray
    side: str          # "low" | "high"
    num_bins: int

    def __len__(self):
        return len(self.counts)

    def total(self):
        return int(self.counts.sum())


def _empty_table(side, num_bins):
    return OutlierBinTable(
        bin_starts=np.empty(0),
        bin_ends=np.empty(0),
        counts=np.empty(0, dtype=int),
        side=side,
        num_bins=num_bins,
    )


def _bin_table(values, side, num_bins):
    if values.size == 0:
        return _empty_table(side, num_bins)
    edges = np.histogram_bin_edges(values, bins=num_bins)
    counts, _ = np.histogram(values, bins=edges)
    return OutlierBinTable(
        bin_starts=edges[:-1], bin_ends=edges[1:], counts=counts, side=side, num_bins=num_bins
    )


def detect_outliers(angular_distances, num_bins):
    """IQR bounds plus equal-width bin tables of the low/high outliers.

    Quantiles use linear interpolation at 0.25*(n-1) and 0.75*(n-1) on
    the sorted sample.
    """
    d = np.asarray(angular_distances, dtype=float).ravel()
    if d.size == 0:
        raise ParameterError("need a nonempty distance vector")
    if num_bins < 1:
        raise ParameterError(f"num_bins must be >= 1, got {num_bins}")
    q1, q3 = np.percentile(d, [25, 75], method="linear")
    iqr = q3 - q1
    bounds = OutlierBounds(
        q1=float(q1),
        q3=float(q3),
        iqr=float(iqr),
        lower_bound=float(q1 - 1.5 * iqr),
        upper_bound=float(q3 + 1.5 * iqr),
    )
    low = _bin_table(d[d < bounds.lower_bound], "low", num_bins)
    high = _bin_table(d[d > bounds.upper_bound], "high", num_bins)
    return bounds, low, high


def bin_members(table, index, distances):
    """Row mask of records in one histogram bin (last bin right-closed)."""
    start, end = table.bin_starts[index], table.bin_ends[index]
    d = np.asarray(distances)
    if index == len(table) - 1:
        return (d >= start) & (d <= end)
    return (d >= start) & (d < end)


def boost_outliers(table, features, distances, row_ids, config):
    """Generate boosted records for underpopulated outlier bins.

    threshold = round(total / num_bins); bins with 0 < count <
    half_threshold each get floor(threshold / count) extra records per
    member, every pass j widening the increment by the literal formula
    (itr * 1 degree) * multiplier + j.
    """
    total = table.total()
    if total == 0:
        return []
    threshold = int(np.floor(total / table.num_bins + 0.5))
    half_threshold = int(np.floor(threshold / 2 + 0.5))
    features = np.asarray(features, dtype=float)
    distances = np.asarray(distances, dtype=float)
    row_ids = np.asarray(row_ids)

    boosted = []
    for i in range(len(table)):
        count = int(table.counts[i])
        if count == 0 or count >= half_threshold:
            continue
        itr = threshold // count
        # member-major: each member's passes j = 0 .. itr-1 in turn
        members = np.flatnonzero(bin_members(table, i, distances))
        rows = np.repeat(members, itr)
        passes = np.tile(np.arange(itr), len(members))
        ids = row_ids[rows]
        boosted += synth.create_syn_data(
            features[rows],
            distances[rows],
            (itr * synth.DEGREE) * config.boost_angle_multiplier + passes,
            config.split_factor,
            [np.random.default_rng([config.seed, int(r), int(j), 0xB005]) for r, j in zip(ids, passes)],
            ids,
            rescale=config.rescale,
            boosted=True,
        )
    return boosted
