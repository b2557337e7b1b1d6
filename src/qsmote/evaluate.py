"""KNN scoring, binary classification metrics, and the experiment grid.

Everything is self-contained: exact nearest neighbours from a blocked
screen, one matrix product per block of queries against the centred
training rows with their squared norms appended, and an exact distance
repair (``k_nearest``), a trapezoidal ROC-AUC, and step-interpolated
average precision. The tests hold the ROC-AUC to a pairwise
Mann-Whitney count, ``roc_auc_pairwise`` in ``tests/oracles.py``.

``knn_predict`` scores queries against one training set. The grid,
``run_experiment``, scores shared records once per grid instead of once
per grid row: the targets' generated records share leading rows, so each
part of a row's training set (the originals, the segments of the shared
records, the row's own generated and boosted records) gives every query
its k nearest (distance, id) pairs once, and a row's neighbours are the
first k of the merge of its parts' lists by (distance, id). Each part
added to a running list is screened against the list's k-th distance,
so only rows that can enter it are recomputed and sorted. The scores
equal those of ``knn_predict`` on each row's whole training set, bit for
bit, and queries are scored in chunks, so no list is held for every
query at once.
"""

from dataclasses import dataclass

import numpy as np

from . import keyed, pipeline
from .errors import ParameterError


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float           # None when undefined
    f1: float
    roc_auc: float
    pr_auc: float


# A block of queries is sized so its screen (n values per query) and its
# min(k, n) candidate rows per query (d values each) take at most this
# many bytes, but holds at least 16 queries, so that the screen stays a
# matrix product on large training sets. The exact recompute works through
# its candidate rows in slices of this many bytes, and the grid sizes its
# chunks of neighbour lists from it too.
_BLOCK_BYTES = 256 * 1024


def k_nearest(train_X, queries, k, radius=None):
    """Each query's k nearest training rows as (distances, columns).

    Both arrays have shape ``(len(queries), min(k, len(train_X)))``, and each
    row lists its neighbours by (distance, column): of equal distances the
    lower column comes first. The distance is
    ``sqrt(add.reduce((x - q)**2, axis=-1))``, so a pair gets the same bits
    whichever call scores it. The inputs must be finite float tables, k at
    least 1 and ``train_X`` nonempty; the callers check them (``_check_knn``)
    or skip empty parts (``_extend``).

    With ``radius``, one distance per query, each query gets only its first
    ``min(k, len(train_X))`` candidates within the screen below, padded with
    distance inf and column ``len(train_X)``. Every row whose distance is at
    most the query's radius is a candidate, so a caller whose radius is an
    exact distance from this expression, such as a running list's k-th
    distance, misses no row that beats it.

    Queries run in blocks of at least 16, and of more while a block's screen
    (n values per query) and min(k, n) candidate rows (d values each) per
    query fit in ``_BLOCK_BYTES``; with fewer, the screen's matrix product
    degrades to a matrix-vector product on large training sets. Each block
    takes three steps:

    1. Screen. The training rows, centred on their mean, are the columns of
       one (d + 1) x n table whose last row holds their squared norms |x|^2.
       The block's queries, centred the same way, are the rows (-2q, 1), so
       one matrix product gives f = |x|^2 - 2 q.x for every pair: the
       squared distance less |q|^2, which is the same for all of a query's
       rows. Column j joins group j mod g of g = min(16 k, n) groups, and
       ``np.partition`` finds u, the k-th smallest of the groups' minima,
       over g values in place of n. These k minima are the values of k
       different rows, so u is at least f_k, the k-th smallest f, and it
       exceeds f_k only where two of the k nearest rows share a group,
       which 16 k groups make rare. Every row whose f is within
       tol = 64 (d + 3) (eps s + tiny) of u is a candidate, where
       s = |q|^2 + max|x|^2 and tiny is the smallest subnormal. Doubling is
       exact, so f is a sum of d + 1 products whose absolute values add up
       to at most |q|^2 + 2 |x|^2, below 2s. A length-m sum of products errs by at most m eps / 2 times
       the sum of its absolute products, plus m tiny / 2 for products that
       round to subnormals. So the rounding that separates f + |q|^2 from a
       row's squared exact distance (the product, |x|^2, the centring, the
       exact sum of squares, at most 2s, and the square root mapping nearby
       sums to one value) stays below 8 (d + 3) (eps s + tiny). Two such
       errors lie between f_k <= u and the f of any row that ties with or
       beats the k-th neighbour in exact distance, so 16 would do; 64 is a
       fourfold margin. With a radius r the block skips the partition: the
       threshold is r^2 - |q|^2 + tol, with r^2 added to s. r is itself an
       exact computed distance, so it stands where the k-th neighbour's
       distance stood, and squaring it, |q|^2 and the shift add roundings
       inside the same bound. A query whose 4 s overflows keeps every row
       as a candidate; below that no sum in the product overflows.
    2. Exact recompute. The candidates' distances are computed with the
       expression above, from the original rows in the same floating-point
       order as a loop over single queries, so only these reach the result.
       A query keeps about min(k, n) candidates unless distances tie or
       overflow or its radius is far, which can keep all n rows. The rows
       are recomputed in slices of ``_BLOCK_BYTES // (8 d)`` candidates,
       and a row's sum does not depend on its slice, so the recompute
       holds at most ``_BLOCK_BYTES`` of rows at a time.
    3. Select. One stable lexsort by (query, distance) over the candidates
       in column order picks each query's k nearest.
    """
    n, d = train_X.shape
    k = min(k, n)
    out_dist = np.empty((len(queries), k))
    out_cols = np.empty((len(queries), k), dtype=np.intp)
    mean = train_X.mean(axis=0)
    block = max(16, _BLOCK_BYTES // (8 * max(n, k * d)))
    step = _BLOCK_BYTES // (8 * max(d, 1))
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    # the screen's column groups: column j joins group j mod g
    g = min(16 * k, n)
    full, left = divmod(n, g)
    # the centred rows as columns, their squared norms as a last row, and
    # each block's (-2q, 1) rows; overflow here or below only widens the
    # screen: such queries keep every column
    table = np.empty((d + 1, n))
    lhs = np.ones((min(block, len(queries)), d + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(train_X.T, mean[:, None], out=table[:d])
        np.einsum("ij,ij->j", table[:d], table[:d], out=table[d])
        sq_max = table[d].max()
    for start in range(0, len(queries), block):
        block_q = queries[start:start + block]
        q = lhs[:len(block_q), :d]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(block_q, mean, out=q)
            sq_q = np.einsum("ij,ij->i", q, q)
            q *= -2.0
            fused = lhs[:len(block_q)] @ table
            if radius is None:
                mins = fused[:, :g * full].reshape(len(block_q), full, g).min(axis=1)
                np.minimum(mins[:, :left], fused[:, g * full:], out=mins[:, :left])
                kth = np.partition(mins, k - 1, axis=1)[:, k - 1]
                scale = sq_q + sq_max
            else:
                r2 = np.square(radius[start:start + block])
                kth = r2 - sq_q
                scale = sq_q + sq_max + r2
            candidate = fused <= (kth + 64 * (d + 3) * (eps * scale + tiny))[:, None]
            candidate[~(4.0 * scale < np.inf)] = True
        # a flat nonzero is several times faster than a 2-d one
        rows, cols = np.divmod(np.flatnonzero(candidate), n)
        dist = np.empty(len(rows))
        for lo in range(0, len(rows), step):
            diff = train_X[cols[lo:lo + step]] - block_q[rows[lo:lo + step]]
            diff *= diff
            dist[lo:lo + step] = np.sqrt(np.add.reduce(diff, axis=-1))
        # rows lists each row's columns in ascending order and lexsort is
        # stable, so equal distances keep the lower column; a query with
        # fewer than k candidates takes the pad after the last one
        order = np.append(np.lexsort((dist, rows)), len(rows))
        first = np.searchsorted(rows, np.arange(len(block_q) + 1))
        take = first[:-1, None] + np.arange(k)
        take[take >= first[1:, None]] = len(rows)
        nearest = order[take]
        out_dist[start:start + block] = np.append(dist, np.inf)[nearest]
        out_cols[start:start + block] = np.append(cols, n)[nearest]
    return out_dist, out_cols


def knn_predict(train_X, train_y, test_X, k=5):
    """Fraction of the k nearest training rows that are positive.

    The distance is ``sqrt(add.reduce((x - q)**2, axis=-1))`` on the given
    rows, and distance ties break toward the lower row index, as in
    ``k_nearest``, so the scores are exactly those of sorting every
    training row by (distance, index) for each query.
    """
    train_X = np.asarray(train_X, dtype=float)
    train_y = np.asarray(train_y)
    test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
    _check_knn(train_X, train_y, test_X, k)
    _, cols = k_nearest(train_X, test_X, k)
    return (train_y == 1)[cols].sum(axis=1) / k


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
    last = np.r_[np.nonzero(np.diff(s))[0], len(s) - 1]
    return np.cumsum(hit)[last], np.cumsum(~hit)[last]


def roc_auc_trapezoidal(scores, labels):
    """Area under the ROC curve.

    The trapezoid rule is computed in place over the tie-collapsed ROC
    points, so a tied block of scores contributes a diagonal segment. The
    result must equal the Mann-Whitney probability that a random positive
    outranks a random negative, ties counted 1/2. The AUC is None when
    either class is absent.
    """
    tps, fps = _ranked(np.asarray(scores, float), np.asarray(labels))
    pos, neg = tps[-1], fps[-1]
    if pos == 0 or neg == 0:
        return None
    x, y = np.r_[0.0, fps / neg], np.r_[0.0, tps / pos]
    return float(np.add.reduce(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def average_precision(scores, labels):
    """Step-interpolated PR-AUC, summed left to right over the tied blocks; None without positives."""
    labels = np.asarray(labels)
    pos = int((labels == 1).sum())
    if pos == 0:
        return None
    tps, fps = _ranked(np.asarray(scores, float), labels)
    terms = np.diff(tps, prepend=0) / pos * (tps / (tps + fps))
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
    return MetricsReport(
        accuracy=accuracy,
        f1=f1,
        roc_auc=roc_auc_trapezoidal(scores, labels),
        pr_auc=average_precision(scores, labels),
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


def _merge(a, b, k):
    """The first k of two (distances, ids) neighbour lists, by (distance, id).

    Each list is ordered by (distance, id) and every id of ``b`` exceeds
    every id of ``a``, so a stable sort by distance alone keeps ties in id
    order.
    """
    dist = np.concatenate([a[0], b[0]], axis=1)
    ids = np.concatenate([a[1], b[1]], axis=1)
    # flat positions of each row's first k
    first = np.argsort(dist, axis=1, kind="stable")[:, :k]
    first += np.arange(0, dist.size, dist.shape[1])[:, None]
    return dist.ravel()[first], ids.ravel()[first]


def _extend(near, train_X, queries, first_id, k):
    """``near`` merged with the queries' k nearest rows of ``train_X``, whose
    ids run up from ``first_id``.

    Every id of ``train_X`` exceeds every id in ``near``, so a row enters
    only when it is strictly nearer than the query's k-th distance in
    ``near``: that distance is the screen's radius. ``near`` holds k
    entries per query, so the merge never reaches the radius screen's
    padding.
    """
    if len(train_X) == 0:
        return near
    dist, cols = k_nearest(train_X, queries, k, radius=near[0][:, -1])
    return _merge(near, (dist, cols + first_id), k)


def _shared_length(block, pool):
    """The number of leading rows of ``block`` bitwise equal to ``pool``'s."""
    same = (block.view(np.int64) == pool[:len(block)].view(np.int64)).all(axis=1)
    return int(np.argmin(np.r_[same, False]))


def run_experiment(X, y, grid, aol_flags=(False, True), test_fraction=0.2, seed=0, k=5):
    """Augment the training split only and score each grid point.

    Labels are 0/1 with 1 the minority class; the KNN counts label 1 as
    positive. Emits one baseline row plus one row per (target percent,
    aol flag). Each row scores the test rows and every row of its training
    set against that training set, exactly as ``knn_predict`` on the
    original training rows followed by the row's new records.

    Shared records are scored once per grid. ``pipeline.augment`` runs
    once per target, in grid order, boosting when any flag is set; a
    target's plain row adds its generated records G, and its AOL row adds
    the boosted records B after them. Originals have lower ids than G and
    G lower than B, as in the augmented table, so ties go to the lower id.
    Records are keyed on (seed, row id, pass), so the targets' G share
    leading rows: the longest G is the pool P, and a target's shared
    length l is the number of its leading rows bitwise equal to P's. A
    KNN vote depends only on a row's features, id and label, and every
    record is labelled 1, so G[:l] may be scored as P[:l].

    The shared queries (test rows, original training rows and P) get
    their k nearest originals once, and their k nearest of each segment
    of P between consecutive distinct shared lengths once. Walking the
    targets by l, each query keeps one running list, the first k of its
    originals and segments so far merged by (distance, id); a target's
    lists add only its tail G[l:] and B. The tail and B rows as queries
    get their originals, G and B lists per target. The baseline is the
    target with no records. Only the originals are ranked in full; every
    part merged into a running list (a segment, a tail, B) is screened
    against the list's k-th distance, since its rows have higher ids and
    enter only when strictly nearer. Queries run in chunks of
    ``_BLOCK_BYTES // (64 k)`` rows, so a chunk's lists and merge
    temporaries, about sixteen arrays of k values per row, take at most
    twice ``_BLOCK_BYTES``.
    """
    keyed.check_seed(seed)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if not np.isin(y, (0, 1)).all():
        raise ParameterError("labels must be 0/1 with 1 the minority class")
    train_idx, test_idx = stratified_split(y, test_fraction, seed)
    n_tr, n_te = len(train_idx), len(test_idx)
    # the queries: test rows, then training rows
    queries = X[np.r_[test_idx, train_idx]]
    X_te, X_tr = queries[:n_te], queries[n_te:]
    y_te, y_tr = y[test_idx], y[train_idx]
    _check_knn(X_tr, y_tr, X_te, k)
    m = len(queries)

    # G and B of the baseline (none), then of each target in grid order
    targets = list(grid) if aol_flags else []
    gen, boost = [X_tr[:0]], [X_tr[:0]]
    for target in targets:
        cfg = pipeline.SmoteConfig(target_minority_percent=target, seed=seed)
        result, records, _, _ = pipeline.augment(
            X_tr, y_tr, cfg, True in aol_flags, row_ids=train_idx
        )
        new = records.features
        if not np.isfinite(new).all():
            raise ParameterError("features must be finite")
        gen.append(new[:len(result.synthetic)])
        boost.append(new[len(result.synthetic):])
    pool = max(gen, key=len)
    shared = [_shared_length(g, pool) for g in gen]
    positive = np.r_[y_tr == 1, np.ones(max(map(len, gen)) + max(map(len, boost)), dtype=bool)]

    def vote(near):
        return positive[near[1]].sum(axis=1)

    plain, aol = [[] for _ in gen], [[] for _ in gen]
    walk = sorted(range(len(gen)), key=shared.__getitem__)
    chunk = max(1, _BLOCK_BYTES // (64 * k))
    shared_queries = np.vstack([queries, pool])
    for start in range(0, len(shared_queries), chunk):
        part = shared_queries[start:start + chunk]
        near, done = k_nearest(X_tr, part, k), 0
        for t in walk:
            length = shared[t]
            near = _extend(near, pool[done:length], part, n_tr + done, k)
            done = length
            # this target's shared queries are Q and P[:length]
            stop = min(len(part), m + length - start)
            if stop <= 0:
                continue
            g, b, mine = gen[t], boost[t], part[:stop]
            near_t = _extend((near[0][:stop], near[1][:stop]), g[length:], mine, n_tr + length, k)
            plain[t].append(vote(near_t))
            aol[t].append(vote(_extend(near_t, b, mine, n_tr + len(g), k)))
    for t, (g, b) in enumerate(zip(gen, boost)):
        own = np.vstack([g[shared[t]:], b])
        for start in range(0, len(own), chunk):
            part = own[start:start + chunk]
            near = _extend(k_nearest(X_tr, part, k), g, part, n_tr, k)
            plain[t].append(vote(near))
            aol[t].append(vote(_extend(near, b, part, n_tr + len(g), k)))

    def score_row(target, use_aol, t):
        g, b = gen[t], boost[t]
        n_new = len(g) + (len(b) if use_aol else 0)
        # the plain row's training set ends before B
        scores = np.concatenate((aol if use_aol else plain)[t])[:m + n_new] / k
        train_y = np.r_[y_tr, np.ones(n_new, dtype=y_tr.dtype)]
        m_test = compute_metrics(scores[:n_te], y_te)
        m_train = compute_metrics(scores[n_te:], train_y)
        return ExperimentRow(
            target_percent=target,
            aol=use_aol,
            accuracy_train=m_train.accuracy,
            accuracy_test=m_test.accuracy,
            f1=m_test.f1,
            pr_auc=m_test.pr_auc,
            roc_auc=m_test.roc_auc,
        )

    rows = [score_row(None, False, 0)]
    for t, target in enumerate(targets, start=1):
        rows.extend(score_row(target, f, t) for f in aol_flags)
    return rows
