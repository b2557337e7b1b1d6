"""Oversampling orchestration.

Labels are 0/1 with 1 the minority class: the CLI maps a file's rarest
label to 1 before it calls in. Computes the data centroid, the
synthetic-record budget needed to hit a target minority percentage, and
runs the per-loop generation with a one degree angle increment per
pass, then the angular-outlier stage. There are two gates and one
generator: `SmoteConfig` checks the parameters, and `augment_grid`
checks the rows and makes every target's records from one synthesis.
It is the one augmentation call: the grid passes all its targets, the
CLI one, and both read one `SmoteResult` per target. The modules below
trust what the two gates passed. Records travel as one `synth.Records`
column table: the generated rows, then the boosted rows.
"""

from dataclasses import dataclass

import numpy as np

from . import aol, keyed, qdist, synth
from .errors import DataError, ParameterError

# The most outlier bins per table: the angle histogram draws four times as
# many, and its edges are allocated before any value is binned.
MAX_BINS = 10_000


@dataclass
class SmoteConfig:
    split_factor: float = 10.0
    shots: int = 0
    seed: int = 0
    num_bins: int = 5
    boost_angle_multiplier: float = 1.5

    def __post_init__(self):
        if not self.split_factor > 0:
            raise ParameterError(f"split factor must be positive, got {self.split_factor}")
        if np.pi / 2 / float(self.split_factor) == np.inf:  # divides rotation angles of at most pi/2
            raise ParameterError(f"split factor must keep (pi/2) / sf finite, got {self.split_factor}")
        if not 0 <= self.boost_angle_multiplier < np.inf:
            raise ParameterError(f"boost multiplier must be finite and >= 0, got {self.boost_angle_multiplier}")
        if self.shots < 0:
            raise ParameterError(f"shots must be >= 0, got {self.shots}")
        if self.shots >= 2**63:
            raise ParameterError(f"shots must be < 2**63, got {self.shots}")
        if not 1 <= self.num_bins <= MAX_BINS:
            raise ParameterError(f"bins must be between 1 and {MAX_BINS}, got {self.num_bins}")
        keyed.check_seed(self.seed)


@dataclass
class SmoteResult:
    records: synth.Records               # the generated records, then the boosted ones
    generated: int                       # the count of leading generated rows
    achieved_percent: float
    full_loops: int
    remainder: int
    angular_distances: np.ndarray        # one per minority row, in row order
    pooled: np.ndarray                   # angular_distances, then the generated records'
    bounds: aol.OutlierBounds            # the IQR bounds of the pool


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
    full_loops, remainder = divmod(s, minority)
    last_pass = full_loops + (remainder > 0)
    if last_pass >= 2**32:  # `keyed` takes each pass number as one 32-bit word
        raise ParameterError(f"target {target_percent}% needs {last_pass} passes; a pass number must fit 32 bits")
    return minority + s, s, full_loops, remainder


def augment_grid(features, labels, config, targets, boost, row_ids=None):
    """Yields one `SmoteResult` for each of `targets`, in order, each equal
    bit for bit to a call with that target alone: the pipeline's one
    augmentation call and gate on rows.

    A features table that is not 2-D is a ParameterError. The labels, the
    first target's budget and the rows are checked next, the other budgets
    last. An all-zero minority row is a DataError naming the lowest such
    row id + 1. After it come, in this order: a minority row whose squared
    norm underflows to 0 or is not finite, named the same way; a centroid
    whose squared norm is 0 or not finite; and a minority row whose squared
    norm plus the centroid's is not finite, likewise.

    Angular distances are computed once per minority row, in row order.
    Loop k >= 1 adds an angle increment of k degrees, and a final partial
    loop samples the remainder without replacement. Record k * m + row
    draws the first uniform of default_rng([seed, row id, k]); the targets'
    distinct records come from one `synth.create_syn_data` call, and each
    target gathers its own before its angular-outlier stage. That stage
    pools the minority rows' distances with those of the generated records,
    takes the IQR bounds of the pool and, when `boost` is set, appends
    boosted records for the thin bins of the low table, then of the high
    table.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if X.ndim != 2:
        raise ParameterError(f"features must be a 2-D table, got {X.ndim} dimension(s)")
    if X.shape[0] != y.shape[0]:
        raise ParameterError("features and labels disagree on row count")
    if not np.isin(y, (0, 1)).all():
        raise ParameterError("labels must be 0/1 with 1 the minority class")
    row_ids = np.arange(X.shape[0]) if row_ids is None else np.asarray(row_ids)

    minority_X, minority_ids = X[y == 1], row_ids[y == 1]
    m, n_total = len(minority_X), X.shape[0]
    counts = [target_counts(n_total, m, targets[0])]

    zero = np.flatnonzero(~minority_X.any(axis=1))
    if zero.size:
        raise DataError("all-zero minority row cannot be amplitude-encoded", row=int(minority_ids[zero].min()) + 1)
    with np.errstate(all="ignore"):
        c = centroid(X)
        c_sq = (c * c).sum()
        sq = np.einsum("ij,ij->i", minority_X, minority_X)
        alone, wide = (sq == 0) | ~np.isfinite(sq), ~np.isfinite(sq + c_sq)
    # a row bad on its own is named before the centroid, a row bad only with it after
    if not alone.any() and not 0 < c_sq < np.inf:
        raise DataError("centroid cannot be amplitude-encoded: its squared norm is 0 or not finite")
    bad = alone if alone.any() else wide
    if bad.any():
        raise DataError(
            "minority row cannot be amplitude-encoded: its squared norm underflows to 0, "
            "or with the centroid's is not finite",
            row=int(minority_ids[bad].min()) + 1,
        )
    counts += [target_counts(n_total, m, t) for t in targets[1:]]

    distances = qdist.angular_distance_table(minority_X, c, shots=config.shots, seed=config.seed)

    keys = []
    for _, _, full_loops, remainder in counts:
        pick_rng = np.random.default_rng([config.seed, 0x5E1EC7])
        picked = np.sort(pick_rng.choice(m, size=remainder, replace=False))
        keys.append(np.r_[np.arange(m, (full_loops + 1) * m), (full_loops + 1) * m + picked])
    union = np.unique(np.concatenate(keys))
    passes, rows = np.divmod(union, m)
    ids = minority_ids[rows]
    synthetic = synth.create_syn_data(
        minority_X[rows],
        distances[rows],
        passes * synth.DEGREE,
        config.split_factor,
        keyed.uniform(config.seed, ids, passes),
        ids,
    )

    for (_, s, full_loops, remainder), key in zip(counts, keys):
        records = synthetic.take(np.searchsorted(union, key))
        pooled = np.r_[distances, records.angular_distance]
        bounds, low, high = aol.detect_outliers(pooled, config.num_bins)
        if boost:
            feats = np.vstack([minority_X, records.features])
            pooled_ids = np.r_[minority_ids, records.source_row_id]
            boosted = [aol.boost_outliers(table, feats, pooled, pooled_ids, config) for table in (low, high)]
            records = synth.Records.concat([records, *boosted])
        achieved = 100.0 * (m + s) / (n_total + s)
        yield SmoteResult(records, len(key), achieved, full_loops, remainder, distances, pooled, bounds)

