"""KNN scoring, binary classification metrics, and the experiment grid.

Everything is self-contained: exact nearest neighbours from a blocked
screen, one matrix product per block of queries against the centred
training rows with their squared norms appended, and an exact distance
repair (``_screen``, shared by ``k_nearest`` and the grid), a
trapezoidal ROC-AUC, and step-interpolated average precision. The tests
hold the ROC-AUC to a pairwise Mann-Whitney count, ``roc_auc_pairwise``
in ``tests/oracles.py``.

The grid, ``run_experiment``, augments once, by ``pipeline.augment_grid``
(the CLI's one augmentation call too), and counts records instead of
ranking them. Every record is labelled 1 and has a higher id than
every original, so it matters to a query only through its distance and
its copies. With o_1 <= ... <= o_k the distances of a query's k nearest
originals, original i stays among its k nearest in a grid row if and
only if i plus the row's copies of records strictly nearer than o_i is
at most k, and records, all voting 1, fill the places left. Each
bitwise-distinct record is scored once per grid, as is each distinct
grid row (equal copies, as where AOL boosts nothing), and the scores
equal those of the tests' per-query reference, ``knn_predict`` in
``tests/oracles.py``, on each row's whole training set, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import keyed, pipeline
from .errors import DataError, ParameterError


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float           # None when undefined
    f1: float
    roc_auc: float
    pr_auc: float


# A block of queries is sized so its screen (n values per query) and its
# min(k, n) candidate rows per query (d values each) take at most this
# many bytes, but holds at least 16 queries, so that the screen stays a
# matrix product on large training sets. A group of blocks holds the
# queries whose d + 4 prepared values fill a quarter of it, and a run of
# a group's blocks ends once its candidates, some 64 bytes each in the
# recompute and the consumers, fill it; a recompute slice takes a quarter.
# The grid takes its queries in chunks whose counts, one per distinct
# grid row, query and original neighbour, fit it.
_BLOCK_BYTES = 256 * 1024


def _screen(train_X, queries, k, radius=None):
    """Yields ``(lo, hi, rows, cols, dist)`` for each run ``queries[lo:hi]``:
    its candidate (run row, training column) pairs in row-major order and
    their distances ``sqrt(add.reduce((x - q)**2, axis=-1))``, the same bits
    whichever call scores a pair. Without ``radius`` a query's candidates
    hold every row that beats or ties its k-th nearest; with ``radius``, one
    distance per query, every row at most that far. The inputs must be
    finite float tables, k at least 1 and ``train_X`` nonempty. Each block
    of queries runs only step 1's product, threshold, compare and nonzero.
    Each group of blocks prepares its queries once (centring, |q|^2, the
    tolerance and the overflow mask), and step 2 runs once per run of its
    blocks, all of a group or a part; ``_BLOCK_BYTES`` sizes all three:

    1. Screen. The training rows, centred on their mean, are the columns of
       one (d + 1) x n table whose last row holds their squared norms |x|^2.
       The queries, centred the same way, are the rows (-2q, 1), so
       one matrix product gives f = |x|^2 - 2 q.x for every pair: the
       squared distance less |q|^2, which is the same for all of a query's
       rows. Without a radius, column j joins group j mod g of
       g = min(16 k, n) groups, and ``np.partition`` finds u, the k-th
       smallest of the groups' minima, over g values in place of n. These k
       minima are the values of k different rows, so u is at least f_k, the
       k-th smallest f, and it exceeds f_k only where two of the k nearest
       rows share a group, which 16 k groups make rare. Every row whose f
       is within tol = 64 (d + 3) (eps s + tiny) of u is a candidate, where
       s = |q|^2 + max|x|^2 and tiny is the smallest subnormal. Doubling is
       exact, so f is a sum of d + 1 products whose absolute values add up
       to at most |q|^2 + 2 |x|^2, below 2s. A length-m sum of products
       errs by at most m eps / 2 times the sum of its absolute products,
       plus m tiny / 2 for products that round to subnormals. So the
       rounding that separates f + |q|^2 from a row's squared exact
       distance (the product, |x|^2, the centring, the exact sum of
       squares, at most 2s, and the square root mapping nearby sums to one
       value) stays below 8 (d + 3) (eps s + tiny). Two such
       errors lie between f_k <= u and the f of any row that ties with or
       beats the k-th neighbour in exact distance, so 16 would do; 64 is a
       fourfold margin. With a radius r the threshold is r^2 - |q|^2 + tol,
       with r^2 added to s. r is itself an exact computed distance, so it
       stands where the k-th neighbour's distance stood, and squaring it,
       |q|^2 and the shift add roundings inside the same bound. A query
       whose 4 s overflows keeps every row as a candidate; below that no
       sum in the product overflows.
    2. Exact recompute. The candidates' distances are computed with the
       expression above from the original rows, in slices of
       ``_BLOCK_BYTES // (32 d)`` candidates; a row's sum does not depend on
       its slice or run. Ties, overflow or a far radius can keep all n
       rows. An overflow gives a distance of inf, which the callers rank or
       reject, so it raises no warning.
    """
    n, d = train_X.shape
    k = min(k, n)
    block = max(16, _BLOCK_BYTES // (8 * max(n, k * d)))
    group = block * max(1, _BLOCK_BYTES // (32 * (d + 4) * block))
    step = _BLOCK_BYTES // (32 * max(d, 1))
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    g = min(16 * k, n)  # the screen's column groups: column j joins group j mod g
    full, left = divmod(n, g)
    # the centred rows as columns, their squared norms as a last row, each
    # group's (-2q, 1) rows and one block's product; overflow here or below
    # only widens the screen: such queries keep every column
    table = np.empty((d + 1, n))
    lhs = np.ones((min(group, len(queries)), d + 1))
    fused = np.empty((min(block, len(queries)), n))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train_X.mean(axis=0)
        np.subtract(train_X.T, mean[:, None], out=table[:d])
        np.einsum("ij,ij->j", table[:d], table[:d], out=table[d])
        sq_max = table[d].max()
    for start in range(0, len(queries), group):
        group_q = queries[start:start + group]
        q = lhs[:len(group_q), :d]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(group_q, mean, out=q)
            sq_q = np.einsum("ij,ij->i", q, q)
            q *= -2.0
            r2 = 0.0 if radius is None else np.square(radius[start:start + group])
            scale = sq_q + sq_max + r2
            tol = 64 * (d + 3) * (eps * scale + tiny)
            limit = (r2 - sq_q) + tol  # the radius screen's threshold
            over = ~(4.0 * scale < np.inf)
        wide = over.any()
        found, size, first = [], 0, 0
        for lo in range(0, len(group_q), block):
            hi = min(lo + block, len(group_q))
            with np.errstate(over="ignore", invalid="ignore"):
                f = np.matmul(lhs[lo:hi], table, out=fused[:hi - lo])
                if radius is None:
                    mins = f[:, :g * full].reshape(hi - lo, full, g).min(axis=1)
                    np.minimum(mins[:, :left], f[:, g * full:], out=mins[:, :left])
                    bound = np.partition(mins, k - 1, axis=1)[:, k - 1] + tol[lo:hi]
                else:
                    bound = limit[lo:hi]
                candidate = f <= bound[:, None]
            if wide:
                candidate[over[lo:hi]] = True
            # a flat nonzero is several times faster than a 2-d one
            found.append(np.flatnonzero(candidate))
            found[-1] += (lo - first) * n
            size += len(found[-1])
            if size < _BLOCK_BYTES // 64 and hi < len(group_q):
                continue
            rows, cols = np.divmod(found[0] if len(found) == 1 else np.concatenate(found), n)
            found, size = [], 0
            dist = np.empty(len(rows))
            with np.errstate(over="ignore"):
                for s in range(0, len(rows), step):
                    diff = train_X[cols[s:s + step]]
                    diff -= group_q[first:hi][rows[s:s + step]]
                    diff *= diff
                    dist[s:s + step] = np.sqrt(np.add.reduce(diff, axis=-1))
            yield start + first, start + hi, rows, cols, dist
            first = hi


def k_nearest(train_X, queries, k):
    """Each query's k nearest training rows as (distances, columns).

    Both arrays have shape ``(len(queries), min(k, len(train_X)))``, and each
    row lists its neighbours by (distance, column): of equal distances the
    lower column comes first. One stable lexsort by (query, distance) of
    each ``_screen`` run's candidates picks them. The inputs are as
    ``_screen`` needs them; the callers check them (``_check_knn``).
    """
    k = min(k, len(train_X))
    out_dist = np.empty((len(queries), k))
    out_cols = np.empty((len(queries), k), dtype=np.intp)
    for lo, hi, rows, cols, dist in _screen(train_X, queries, k):
        # rows lists each query's columns in ascending order and lexsort is
        # stable, so equal distances keep the lower column; every query has
        # at least k candidates
        order = np.lexsort((dist, rows))
        first = np.searchsorted(rows, np.arange(hi - lo))
        nearest = order[first[:, None] + np.arange(k)]
        out_dist[lo:hi] = dist[nearest]
        out_cols[lo:hi] = cols[nearest]
    return out_dist, out_cols


def _check_knn(train_X, train_y, test_X, k):
    if train_X.ndim != 2 or test_X.ndim != 2 or test_X.shape[1] != train_X.shape[1]:
        raise ParameterError(
            f"queries of shape {test_X.shape} do not match training rows of shape {train_X.shape}"
        )
    n = len(train_X)
    if n == 0:
        raise ParameterError("empty training set")
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= {n}, got {k}")
    if train_y.shape != (n,):
        raise ParameterError(f"need one label per training row, got {train_y.shape} for {n} rows")
    if not (np.isfinite(train_X).all() and np.isfinite(test_X).all()):
        raise ParameterError("features must be finite")


def _ranked(scores, labels):
    """Cumulative true and false positives at the last rank of each tied block.

    Ranks run by descending score, equal scores in input order (a stable
    argsort of -score); every label other than 1 counts as a negative.
    """
    order = np.argsort(-scores, kind="stable")
    s, hit = scores[order], labels[order] == 1
    last = np.flatnonzero(np.diff(s, append=np.nan))  # the trailing nan closes the last block
    return np.cumsum(hit)[last], np.cumsum(~hit)[last]


def roc_auc_trapezoidal(scores, labels):
    """Area under the ROC curve.

    The trapezoid rule is computed in place over the tie-collapsed ROC
    points, so a tied block of scores contributes a diagonal segment. The
    result must equal the Mann-Whitney probability that a random positive
    outranks a random negative, ties counted 1/2. The AUC is None when
    either class is absent.
    """
    return _roc_auc(*_ranked(np.asarray(scores, float), np.asarray(labels)))


def _roc_auc(tps, fps):
    if len(tps) == 0 or tps[-1] == 0 or fps[-1] == 0:
        return None
    x, y = np.r_[0.0, fps / fps[-1]], np.r_[0.0, tps / tps[-1]]
    return float(np.add.reduce(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def average_precision(scores, labels):
    """Step-interpolated PR-AUC, summed left to right over the tied blocks; None without positives."""
    return _average_precision(*_ranked(np.asarray(scores, float), np.asarray(labels)))


def _average_precision(tps, fps):
    if len(tps) == 0 or tps[-1] == 0:
        return None
    terms = np.diff(tps, prepend=0) / tps[-1] * (tps / (tps + fps))
    return float(np.cumsum(terms)[-1])


def compute_metrics(scores, labels):
    """Accuracy and F1 at the score threshold 0.5 plus ROC-AUC and PR-AUC.

    Undefined quantities (no labels, no positive labels, an empty
    predicted-positive set) are reported as None rather than zero.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ParameterError("scores and labels must align")
    pred = scores >= 0.5
    pos = labels == 1
    tp = int((pred & pos).sum())
    fp = int((pred & ~pos).sum())
    fn = int((~pred & pos).sum())
    tn = int((~pred & ~pos).sum())
    accuracy = (tp + tn) / labels.size if labels.size else None
    precision = tp / (tp + fp) if (tp + fp) else None
    recall = tp / (tp + fn) if (tp + fn) else None
    if precision is None or recall is None:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    ranked = _ranked(scores, labels)  # one ranking for both areas
    return MetricsReport(accuracy=accuracy, f1=f1, roc_auc=_roc_auc(*ranked), pr_auc=_average_precision(*ranked))


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


def _votes(near, labels, records, copies, queries):
    """Each grid row r's label-1 count among each query's k nearest in the
    originals (``labels``; ``near = k_nearest(originals, queries, k)``, with
    finite k-th distances) and ``copies[r, u]`` copies of each ``records[u]``.

    By the counting rule a record at distance d falls in bin
    a = #{i : o_i <= d}, one at o_k or beyond never enters, and if j
    originals stay the vote is their label-1 count plus k - j. Each screen
    run's records go through one bincount over (grid row, query, bin) per
    slice of grid rows.
    """
    dist, cols = near
    k = dist.shape[1]
    hits = np.zeros((len(queries), k + 1), dtype=np.intp)
    np.cumsum(labels[cols] == 1, axis=1, out=hits[:, 1:])
    counts = np.zeros((len(copies), len(queries), k))
    screened = _screen(records, queries, k, radius=dist[:, -1]) if len(records) else ()
    for lo, hi, rows, u, d in screened:
        o = dist[lo:hi]
        inside = d < o[rows, -1]
        rows, u, d = rows[inside], u[inside], d[inside]
        # complex numbers order by (real, imaginary), so one searchsorted of
        # the (row, distance) pairs into the run's sorted (row, o) pairs
        # gives each record's flat (row, bin) index
        flat = np.searchsorted((np.arange(hi - lo)[:, None] + 1j * o).ravel(), rows + 1j * d, side="right")
        size = (hi - lo) * k
        # grid rows in slices whose (grid row, record) and (grid row, query,
        # bin) arrays take at most a quarter of the budget each
        step = max(1, _BLOCK_BYTES // (32 * max(len(flat), size)))
        for r in range(0, len(copies), step):
            part = copies[r:r + step]
            index = (np.arange(len(part))[:, None] * size + flat).ravel()
            binned = np.bincount(index, part[:, u].ravel(), len(part) * size)
            counts[r:r + step, lo:hi] += binned.reshape(len(part), hi - lo, k)
    # counts[r, q, i - 1] becomes row r's copies strictly nearer q than o_i
    np.cumsum(counts, axis=2, out=counts)
    stay = (counts + np.arange(1, k + 1) <= k).sum(axis=2)
    return hits[np.arange(len(queries)), stay] + k - stay


def _grid_records(X_tr, y_tr, train_idx, grid, aol_flags, seed):
    """The grid's (target, aol) rows, the bitwise-distinct records U of all
    targets, and each row's copies of each of them.

    One ``pipeline.augment_grid`` call augments the targets in grid order,
    boosting when any flag is set; it is run to its end, which frees its
    tables. A plain row holds the target's generated records G, an AOL row
    G and its boosted records B, and the baseline none. Assumes finite
    records: `pipeline.augment_grid` passes only finite sources of finite
    norm, and a rotation keeps every cell within its source's norm.
    """
    grid_rows, spans, blocks, at = [(None, False)], [slice(0, 0)], [X_tr[:0]], 0
    targets = list(grid) if aol_flags else []
    augmented = pipeline.augment_grid(
        X_tr, y_tr, pipeline.SmoteConfig(seed=seed), targets, True in aol_flags, row_ids=train_idx
    ) if targets else ()
    for result, target in zip(augmented, targets):
        for use_aol in aol_flags:
            grid_rows.append((target, use_aol))
            spans.append(slice(at, at + (len(result.records) if use_aol else result.generated)))
        blocks.append(result.records.features)
        at += len(result.records)
    stacked = np.vstack(blocks)
    rows = stacked.view(np.dtype((np.void, stacked.itemsize * stacked.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    copies = np.array([np.bincount(inverse[span], minlength=len(first)) for span in spans])
    return grid_rows, stacked[first], copies


def run_experiment(X, y, grid, aol_flags=(False, True), test_fraction=0.2, seed=0, k=5):
    """Augment the training split only and score each grid point.

    Labels are 0/1 with 1 the minority class; the KNN counts label 1 as
    positive. Emits one baseline row plus one row per (target percent,
    aol flag). Each row scores the test rows and every row of its training
    set against that training set, exactly as the tests' ``knn_predict``
    (``tests/oracles.py``) on the original training rows followed by the
    row's new records. A grid to augment whose training split lacks a
    class is a DataError.

    Those records follow the originals and are all labelled 1, so the
    counting rule gives the votes (``_votes``): original i of a query's k
    nearest stays if i plus the row's records strictly nearer than o_i is
    at most k. The queries are the test rows, the original training rows
    and the targets' bitwise-distinct records U, each scored once, and grid
    rows with equal copies share their scores; a row's training accuracy
    counts each U row's vote by its copies in the row. A query whose k-th
    nearest original is infinitely far is a DataError naming its file row,
    since its list is then not exact. Queries run in chunks whose counts
    fit ``_BLOCK_BYTES``.
    """
    keyed.check_seed(seed)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if not np.isin(y, (0, 1)).all():
        raise ParameterError("labels must be 0/1 with 1 the minority class")
    train_idx, test_idx = stratified_split(y, test_fraction, seed)
    n_te = len(test_idx)
    # the queries: test rows, then training rows
    ids = np.r_[test_idx, train_idx]
    queries = X[ids]
    X_te, X_tr = queries[:n_te], queries[n_te:]
    y_te, y_tr = y[test_idx], y[train_idx]
    _check_knn(X_tr, y_tr, X_te, k)
    m, n_tr = len(queries), len(y_tr)
    minority = int(np.count_nonzero(y_tr))
    if len(grid) and aol_flags and not 0 < minority < n_tr:
        raise DataError(
            f"the training split holds {minority} of the {np.count_nonzero(y)} minority rows among its "
            f"{n_tr} rows; augmenting it needs rows of both classes"
        )

    grid_rows, unique, copies = _grid_records(X_tr, y_tr, train_idx, grid, aol_flags, seed)
    # grid rows with equal copies share their votes and metrics
    index = {}
    distinct = [index.setdefault(row.tobytes(), len(index)) for row in copies]
    copies = copies[[distinct.index(i) for i in range(len(index))]]
    scored = np.vstack([queries, unique])
    votes = np.empty((len(copies), len(scored)), dtype=np.intp)
    chunk = max(1, _BLOCK_BYTES // (8 * k * len(copies)))
    for start in range(0, len(scored), chunk):
        part = scored[start:start + chunk]
        near = k_nearest(X_tr, part, k)
        far = start + np.flatnonzero(near[0][:, -1] == np.inf)
        if len(far):
            row = int(ids[far[0]]) + 1 if far[0] < m else None
            raise DataError("the distance to a k-th nearest training row overflows", row=row)
        votes[:, start:start + len(part)] = _votes(near, y_tr, unique, copies, part)

    def score(r):
        # the training accuracy counts the originals by label and each
        # record, labelled 1, by its copies
        hit = votes[r, n_te:] / k >= 0.5
        right = np.count_nonzero(hit[:n_tr] == (y_tr == 1)) + copies[r] @ hit[n_tr:]
        test = compute_metrics(votes[r, :n_te] / k, y_te)
        return dict(accuracy_train=int(right) / (n_tr + int(copies[r].sum())), accuracy_test=test.accuracy,
                    f1=test.f1, pr_auc=test.pr_auc, roc_auc=test.roc_auc)

    scores = [score(r) for r in range(len(copies))]
    return [ExperimentRow(target, use_aol, **scores[r]) for r, (target, use_aol) in zip(distinct, grid_rows)]
