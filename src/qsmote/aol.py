"""Angular outlier detection and boosting.

Outliers are records whose angular distance falls beyond 1.5 IQR of the
combined original-plus-synthetic minority distribution. Underpopulated
outlier histogram bins get extra synthetic records generated with wider
rotation angles: one `synth.Records` table per outlier table, made by one
`synth.create_syn_data` call.
"""

from dataclasses import dataclass

import numpy as np

from . import keyed, synth


@dataclass(frozen=True)
class OutlierBounds:
    q1: float
    q3: float
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class OutlierBinTable:
    bin_starts: np.ndarray
    bin_ends: np.ndarray
    counts: np.ndarray
    num_bins: int

    def __len__(self):
        return len(self.counts)

    def total(self):
        return int(self.counts.sum())


def _bin_table(values, num_bins):
    """Equal-width bins over the values; no bins at all when there are no values."""
    if values.size == 0:
        edges, counts = np.empty(1), np.empty(0, dtype=int)
    else:
        edges = np.histogram_bin_edges(values, bins=num_bins)
        counts, _ = np.histogram(values, bins=edges)
    return OutlierBinTable(
        bin_starts=edges[:-1], bin_ends=edges[1:], counts=counts, num_bins=num_bins
    )


def detect_outliers(angular_distances, num_bins):
    """IQR bounds plus equal-width bin tables of the low/high outliers.

    Quantiles use linear interpolation at 0.25*(n-1) and 0.75*(n-1) on
    the sorted sample. Assumes a nonempty pool, as `pipeline.augment_grid`'s
    holds at least one minority row, and num_bins >= 1, which
    `pipeline.SmoteConfig` checks.
    """
    d = np.asarray(angular_distances, dtype=float).ravel()
    q1, q3 = np.percentile(d, [25, 75], method="linear")
    iqr = q3 - q1
    bounds = OutlierBounds(
        q1=float(q1),
        q3=float(q3),
        lower_bound=float(q1 - 1.5 * iqr),
        upper_bound=float(q3 + 1.5 * iqr),
    )
    low = _bin_table(d[d < bounds.lower_bound], num_bins)
    high = _bin_table(d[d > bounds.upper_bound], num_bins)
    return bounds, low, high


def bin_members(table, index, distances):
    """Row mask of records in one histogram bin (last bin right-closed)."""
    start, end = table.bin_starts[index], table.bin_ends[index]
    d = np.asarray(distances)
    if index == len(table) - 1:
        return (d >= start) & (d <= end)
    return (d >= start) & (d < end)


def boost_outliers(table, features, distances, row_ids, config):
    """Boosted records for the underpopulated bins of one outlier table.

    threshold = round(total / num_bins); bins with 0 < count <
    half_threshold each get floor(threshold / count) extra records per
    member, every pass j widening the increment by the literal formula
    (itr * 1 degree) * multiplier + j. A boosted record draws from
    default_rng([seed, source row id, j, 0xB005]), via `keyed.uniform`.
    The rows, passes and itr of every thin bin go to one
    `synth.create_syn_data` call, in bin, then member, then pass order;
    with no thin bin it returns an empty table of the features' width early.
    """
    threshold = int(np.floor(table.total() / table.num_bins + 0.5))
    half_threshold = int(np.floor(threshold / 2 + 0.5))
    features = np.asarray(features, dtype=float)
    distances = np.asarray(distances, dtype=float)
    row_ids = np.asarray(row_ids)

    rows, passes, itrs = ([np.empty(0, dtype=int)] for _ in range(3))
    for i in range(len(table)):
        count = int(table.counts[i])
        if count == 0 or count >= half_threshold:
            continue
        itr = threshold // count
        # member-major: each member's passes j = 0 .. itr-1 in turn
        members = np.flatnonzero(bin_members(table, i, distances))
        rows.append(np.repeat(members, itr))
        passes.append(np.tile(np.arange(itr), len(members)))
        itrs.append(np.full(len(members) * itr, itr))
    if len(rows) == 1:  # no thin bin
        return synth.Records(features[:0], np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty(0, dtype=bool))
    rows, passes, itrs = map(np.concatenate, (rows, passes, itrs))
    ids = row_ids[rows]
    return synth.create_syn_data(
        features[rows],
        distances[rows],
        (itrs * synth.DEGREE) * config.boost_angle_multiplier + passes,
        config.split_factor,
        keyed.uniform(config.seed, ids, passes, np.full(len(ids), 0xB005)),
        ids,
        boosted=True,
    )
