"""KNN scoring, binary classification metrics, and the experiment grid.

Everything is self-contained: exact nearest neighbours from a blocked Gram
screen with an exact distance repair, a trapezoidal ROC-AUC (with a
pairwise cross-check), and step-interpolated average precision.
"""

from dataclasses import dataclass

import numpy as np

from . import pipeline
from .errors import ParameterError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    confusion: ConfusionMatrix
    accuracy: float
    precision: float          # None when undefined
    recall: float
    f1: float
    roc_auc: float
    pr_auc: float
    roc_curve: np.ndarray     # (fpr, tpr) points
    pr_curve: np.ndarray      # (recall, precision) points


# Query rows per block are sized so one block's Gram matrix takes at most
# this many bytes: enough rows for the matrix product to pay off, few enough
# that the grid's peak memory stays flat.
_BLOCK_BYTES = 256 * 1024


def knn_predict(train_X, train_y, test_X, k=5, train_ids=None):
    """Fraction of the k nearest training rows that are positive.

    The distance is ``sqrt(add.reduce((x - q)**2, axis=-1))`` on the given
    rows. Distance ties break toward the lower row id (``train_ids``, by
    default the row index; equal ids keep their input order), so scores are
    deterministic under any input permutation. The scores are exactly those
    of sorting every training row by (distance, id) for each query.

    Queries run in blocks of ``_BLOCK_BYTES`` of Gram matrix, in three steps:

    1. Screen. With data centred on the training mean, the squared
       distances come from the Gram identity |q|^2 + |x|^2 - 2 q.x, one
       matrix product per block, and ``np.partition`` finds each query's
       k-th smallest value g_k. Every training row whose Gram value is
       within tol = 64 (d + 2) eps (|q|^2 + max|x|^2 + |g_k|) of g_k is a
       candidate. A length-d sum of products errs by at most d eps / 2
       times the sum of the absolute products, so the rounding that
       separates a Gram value from the squared exact distance (the Gram
       sums, the centring, the exact sum of squares and the square root
       mapping nearby sums to one value) stays below 8 (d + 2) eps times
       that scale. Two such errors lie between g_k and the Gram value of
       any row that ties with or beats the k-th neighbour in exact
       distance, so 16 would do; 64 is a fourfold margin. A query whose
       scale overflows keeps every row as a candidate.
    2. Exact recompute. The candidates' distances are computed with the
       expression above, from the original rows in the same floating-point
       order as a loop over single queries, so only these reach the scores.
    3. Select. One stable lexsort by (query, distance) over the candidates
       in column order picks each query's k nearest. The training rows are
       first put in id order by a stable argsort, so the lower column is
       the lower id.
    """
    train_X = np.asarray(train_X, dtype=float)
    train_y = np.asarray(train_y)
    test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
    if train_X.ndim != 2 or test_X.ndim != 2 or test_X.shape[1] != train_X.shape[1]:
        raise ParameterError(
            f"queries of shape {test_X.shape} do not match training rows of shape {train_X.shape}"
        )
    n, d = train_X.shape
    if n == 0:
        raise ParameterError("empty training set")
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= {n}, got {k}")
    if train_y.shape != (n,):
        raise ParameterError(f"need one label per training row, got {train_y.shape} for {n} rows")
    if not (np.isfinite(train_X).all() and np.isfinite(test_X).all()):
        raise ParameterError("features must be finite")
    positive = train_y == 1
    if train_ids is not None:
        train_ids = np.asarray(train_ids)
        if train_ids.shape != (n,):
            raise ParameterError(f"need one id per training row, got {train_ids.shape}")
        by_id = np.argsort(train_ids, kind="stable")
        train_X, positive = train_X[by_id], positive[by_id]

    mean = train_X.mean(axis=0)
    centred = train_X - mean
    sq_train = np.einsum("ij,ij->i", centred, centred)
    rel_tol = 64 * (d + 2) * np.finfo(float).eps
    block = max(1, _BLOCK_BYTES // (8 * n))
    scores = np.empty(test_X.shape[0])
    for start in range(0, test_X.shape[0], block):
        queries = test_X[start:start + block]
        q = queries - mean
        # overflow here only widens the screen: such rows keep every column
        with np.errstate(over="ignore", invalid="ignore"):
            sq_q = np.einsum("ij,ij->i", q, q)
            gram = q @ centred.T
            gram *= -2.0
            gram += sq_q[:, None]
            gram += sq_train
            kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
            scale = sq_q + sq_train.max() + np.abs(kth)
            candidate = gram <= (kth + rel_tol * scale)[:, None]
            candidate[~(4.0 * scale < np.inf)] = True
        rows, cols = np.nonzero(candidate)
        diff = train_X[cols] - queries[rows]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        # nonzero lists each row's columns in ascending order and lexsort is
        # stable, so equal distances keep the lower column, that is the lower id
        order = np.lexsort((dist, rows))
        first = np.searchsorted(rows, np.arange(len(queries)))
        nearest = order[(first[:, None] + np.arange(k)).ravel()]
        scores[start:start + block] = positive[cols[nearest]].reshape(-1, k).sum(axis=1) / k
    return scores


def _roc_points(scores, labels):
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    pos = int((labels == 1).sum())
    neg = len(labels) - pos
    tps = np.cumsum(y == 1)
    fps = np.cumsum(y == 0)
    # collapse ties: keep the last point of each distinct score
    last = np.r_[np.nonzero(np.diff(s))[0], len(s) - 1]
    pts = [(0.0, 0.0)]
    for i in last:
        pts.append((fps[i] / neg if neg else 0.0, tps[i] / pos if pos else 0.0))
    return np.array(pts), pos, neg


def roc_auc_trapezoidal(scores, labels):
    """Area under the ROC curve and its (fpr, tpr) points.

    The trapezoid rule is computed in place over the tie-collapsed ROC
    points, so a tied block of scores contributes a diagonal segment. The
    result must equal ``roc_auc_pairwise``, the Mann-Whitney oracle with
    ties counted 1/2. The AUC is None when either class is absent.
    """
    pts, pos, neg = _roc_points(np.asarray(scores, float), np.asarray(labels))
    if pos == 0 or neg == 0:
        return None, pts
    x, y = pts[:, 0], pts[:, 1]
    return float(np.add.reduce(np.diff(x) * (y[1:] + y[:-1]) / 2.0)), pts


def roc_auc_pairwise(scores, labels):
    """P(random positive outranks random negative), ties counted 1/2."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    p = scores[labels == 1]
    n = scores[labels == 0]
    if p.size == 0 or n.size == 0:
        return None
    diff = p[:, None] - n[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (p.size * n.size))


def average_precision(scores, labels):
    """Step-interpolated PR-AUC; None when there are no positives."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    pos = int((labels == 1).sum())
    if pos == 0:
        return None, np.empty((0, 2))
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tps = np.cumsum(y == 1)
    ranks = np.arange(1, len(y) + 1)
    last = np.r_[np.nonzero(np.diff(s))[0], len(s) - 1]
    ap = 0.0
    prev_tp = 0
    curve = []
    for i in last:
        precision = tps[i] / ranks[i]
        recall = tps[i] / pos
        ap += (tps[i] - prev_tp) / pos * precision
        curve.append((recall, precision))
        prev_tp = tps[i]
    return float(ap), np.array(curve)


def compute_metrics(scores, labels, threshold=0.5):
    """Confusion matrix at the threshold plus ranking metrics.

    Undefined quantities (no positive labels, empty predicted-positive
    set) are reported as None rather than zero.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ParameterError("scores and labels must align")
    pred = scores >= threshold
    pos = labels == 1
    cm = ConfusionMatrix(
        tp=int((pred & pos).sum()),
        fp=int((pred & ~pos).sum()),
        fn=int((~pred & pos).sum()),
        tn=int((~pred & ~pos).sum()),
    )
    accuracy = (cm.tp + cm.tn) / cm.total if cm.total else None
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) else None
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) else None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    elif precision is not None and recall is not None:
        f1 = 0.0
    else:
        f1 = None
    roc_auc, roc_pts = roc_auc_trapezoidal(scores, labels)
    pr_auc, pr_pts = average_precision(scores, labels)
    return MetricsReport(
        confusion=cm,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        roc_auc=roc_auc,
        pr_auc=pr_auc,
        roc_curve=roc_pts,
        pr_curve=pr_pts,
    )


def stratified_split(y, test_fraction, seed):
    """Deterministic per-class shuffle split; returns (train_idx, test_idx)."""
    if not 0 < test_fraction < 1:
        raise ParameterError(f"test fraction must be in (0, 1), got {test_fraction}")
    y = np.asarray(y)
    rng = np.random.default_rng([seed, 0x5B117])
    train, test = [], []
    for label in np.unique(y):
        idx = np.nonzero(y == label)[0]
        idx = rng.permutation(idx)
        n_test = max(1, int(round(len(idx) * test_fraction)))
        test.append(idx[:n_test])
        train.append(idx[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


@dataclass
class ExperimentRow:
    target_percent: float      # None for the baseline row
    aol: bool
    accuracy_train: float
    accuracy_test: float
    f1: float
    pr_auc: float
    roc_auc: float


def run_experiment(X, y, grid, aol_flags=(False, True), test_fraction=0.2, seed=0, k=5):
    """Augment the training split only and score each grid point.

    Labels are 0/1 with 1 the minority class; the KNN counts label 1 as
    positive. Emits one baseline row plus one row per (target percent,
    aol flag).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if not np.isin(y, (0, 1)).all():
        raise ParameterError("labels must be 0/1 with 1 the minority class")
    train_idx, test_idx = stratified_split(y, test_fraction, seed)
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_te, y_te = X[test_idx], y[test_idx]

    def score_row(target, use_aol, train_X, train_y):
        test_scores = knn_predict(train_X, train_y, X_te, k=k)
        train_scores = knn_predict(train_X, train_y, train_X, k=k)
        m_test = compute_metrics(test_scores, y_te)
        m_train = compute_metrics(train_scores, train_y)
        return ExperimentRow(
            target_percent=target,
            aol=use_aol,
            accuracy_train=m_train.accuracy,
            accuracy_test=m_test.accuracy,
            f1=m_test.f1,
            pr_auc=m_test.pr_auc,
            roc_auc=m_test.roc_auc,
        )

    rows = [score_row(None, False, X_tr, y_tr)]
    for target in grid:
        for use_aol in aol_flags:
            cfg = pipeline.SmoteConfig(target_minority_percent=target, seed=seed)
            _, records, _, _ = pipeline.augment(X_tr, y_tr, cfg, use_aol, row_ids=train_idx)
            aug_X = np.vstack([X_tr] + [r.features for r in records])
            aug_y = np.r_[y_tr, np.ones(len(records), dtype=y_tr.dtype)]
            rows.append(score_row(target, use_aol, aug_X, aug_y))
    return rows
