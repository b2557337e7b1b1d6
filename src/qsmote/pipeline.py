"""Oversampling orchestration.

Computes the data centroid, the synthetic-record budget needed to hit a
target minority percentage, and runs the per-loop generation with a one
degree angle increment per pass. `augment` adds the angular-outlier
stage: it is the one augmentation path of both the CLI and the grid.
"""

from dataclasses import dataclass

import numpy as np

from . import aol, qdist, synth
from .errors import ParameterError


@dataclass
class SmoteConfig:
    target_minority_percent: float
    split_factor: float = 10.0
    shots: int = 0
    seed: int = 0
    rescale: bool = True
    estimator: str = "standard"
    num_bins: int = 5
    boost_angle_multiplier: float = 1.5

    def __post_init__(self):
        if self.shots < 0:
            raise ParameterError(f"shots must be >= 0, got {self.shots}")


@dataclass
class AugmentationReport:
    original_total: int
    minority_count: int
    target_percent: float
    synthetic_generated: int
    achieved_percent: float
    full_loops: int
    remainder: int


@dataclass
class SmoteResult:
    synthetic: list                      # SyntheticRecord, generation order
    report: AugmentationReport
    minority_row_ids: np.ndarray
    angular_distances: np.ndarray        # one per minority row, same order


def centroid(features):
    """Column-wise mean over all rows: the one data centroid."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ParameterError("centroid needs a nonempty 2-D table")
    return X.mean(axis=0)


def target_counts(total, minority, target_percent):
    """Synthetic-record budget and loop split for a target minority share.

    S solves (minority + S) / (total + S) = target, rounded half-up.
    A target at or below the current share yields S = 0.
    """
    if not 0 < minority < total:
        raise ParameterError(f"need 0 < minority < total, got {minority}/{total}")
    if not 0 < target_percent < 100:
        raise ParameterError(f"target percent must be in (0, 100), got {target_percent}")
    t = target_percent / 100.0
    raw = (t * total - minority) / (1.0 - t)
    s = int(np.floor(raw + 0.5))  # round half-up
    if s < 0:
        raise ParameterError(
            f"target {target_percent}% is below the current minority share "
            f"({100.0 * minority / total:.2f}%)"
        )
    target_minority_count = minority + s
    return target_minority_count, s, s // minority, s % minority


def run_smote(features, labels, config, minority_label=1, row_ids=None):
    """Generate synthetic minority records up to the configured share.

    Angular distances are computed once per minority row and reused
    across loops; loop k applies an angle increment of k degrees, and a
    final partial loop samples the remainder without replacement.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if X.shape[0] != y.shape[0]:
        raise ParameterError("features and labels disagree on row count")
    if row_ids is None:
        row_ids = np.arange(X.shape[0])
    row_ids = np.asarray(row_ids)

    minority_mask = y == minority_label
    m = int(minority_mask.sum())
    n_total = X.shape[0]

    _, s, full_loops, remainder = target_counts(n_total, m, config.target_minority_percent)

    minority_X = X[minority_mask]
    minority_ids = row_ids[minority_mask]
    distances = qdist.angular_distance_table(
        minority_X, centroid(X), shots=config.shots, seed=config.seed, estimator=config.estimator
    )

    pick_rng = np.random.default_rng([config.seed, 0x5E1EC7])
    picked = np.sort(pick_rng.choice(m, size=remainder, replace=False))
    rows = np.r_[np.tile(np.arange(m), full_loops), picked]
    passes = np.r_[np.repeat(np.arange(1, full_loops + 1), m), np.full(remainder, full_loops + 1)]
    ids = minority_ids[rows]
    synthetic = synth.create_syn_data(
        minority_X[rows],
        distances[rows],
        passes * synth.DEGREE,
        config.split_factor,
        [np.random.default_rng([config.seed, int(i), int(k)]) for i, k in zip(ids, passes)],
        ids,
        rescale=config.rescale,
    )

    achieved = 100.0 * (m + s) / (n_total + s)
    report = AugmentationReport(
        original_total=n_total,
        minority_count=m,
        target_percent=config.target_minority_percent,
        synthetic_generated=s,
        achieved_percent=achieved,
        full_loops=full_loops,
        remainder=remainder,
    )
    return SmoteResult(
        synthetic=synthetic,
        report=report,
        minority_row_ids=minority_ids,
        angular_distances=distances,
    )


def augment(features, labels, config, boost, minority_label=1, row_ids=None):
    """Synthesis plus the angular-outlier stage.

    Pools the minority rows' distances with those of the generated
    records, takes the IQR bounds of the pool and, when `boost` is set,
    adds boosted records for the thin bins of the low table, then of the
    high table. Returns (run_smote result, new records: generated first,
    then boosted; pooled distances; bounds).
    """
    X = np.asarray(features, dtype=float)
    result = run_smote(X, labels, config, minority_label=minority_label, row_ids=row_ids)
    records = list(result.synthetic)
    distances = np.r_[result.angular_distances, [r.angular_distance for r in records]]
    bounds, low, high = aol.detect_outliers(distances, config.num_bins)
    if boost:
        feats = list(X[np.asarray(labels) == minority_label]) + [r.features for r in records]
        ids = np.r_[result.minority_row_ids, [r.source_row_id for r in records]]
        for table in (low, high):
            records += aol.boost_outliers(table, feats, distances, ids, config)
    return result, records, distances, bounds
