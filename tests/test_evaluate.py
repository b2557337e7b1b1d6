"""Unit tests for KNN scoring, metrics, and the experiment harness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qsmote import demo, evaluate, keyed, pipeline, synth
from qsmote.errors import DataError, ParameterError


def test_knn_zero_distance_wins_at_k_one():
    train_X = np.array([[0.0, 0.0], [5.0, 5.0]])
    train_y = np.array([1, 0])
    assert oracles.knn_predict(train_X, train_y, [[0.0, 0.0]], k=1)[0] == 1.0
    assert oracles.knn_predict(train_X, train_y, [[5.0, 5.0]], k=1)[0] == 0.0


def test_knn_vote_fraction():
    train_X = np.array([[0.0], [0.1], [0.2], [9.0]])
    train_y = np.array([1, 1, 0, 0])
    score = oracles.knn_predict(train_X, train_y, [[0.0]], k=3)[0]
    assert score == pytest.approx(2 / 3)


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    train_X = rng.normal(size=(60, 3))
    train_y = rng.integers(0, 2, size=60)
    test_X = rng.normal(size=(100, 3))
    got = oracles.knn_predict(train_X, train_y, test_X, k=5)
    for x, score in zip(test_X, got):
        dist = np.linalg.norm(train_X - x, axis=1)
        order = np.lexsort((np.arange(60), dist))[:5]
        assert score == pytest.approx(np.mean(train_y[order] == 1))


def test_knn_distance_ties_break_to_lower_row_id():
    train_X = np.array([[1.0], [1.0], [1.0]])
    train_y = np.array([0, 1, 1])
    # rows are equidistant; k=1 must pick row 0 regardless of input order
    assert oracles.knn_predict(train_X, train_y, [[1.0]], k=1)[0] == 0.0


def test_knn_rejects_bad_k_and_empty_train():
    with pytest.raises(ParameterError):
        oracles.knn_predict(np.empty((0, 2)), np.empty(0), [[1.0, 2.0]], k=1)
    with pytest.raises(ParameterError):
        oracles.knn_predict(np.ones((3, 1)), np.ones(3), [[1.0]], k=4)


def _knn_reference(train_X, train_y, test_X, k=5):
    """The per-query loop knn_predict must reproduce bit for bit."""
    train_X = np.asarray(train_X, dtype=float)
    train_y = np.asarray(train_y)
    test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
    scores = np.empty(test_X.shape[0])
    for i, x in enumerate(test_X):
        dist = np.linalg.norm(train_X - x, axis=1)
        order = np.argsort(dist, kind="stable")[:k]
        scores[i] = float(np.mean(train_y[order] == 1))
    return scores


def _k_nearest_reference(train_X, test_X, k):
    """The per-query loop k_nearest must reproduce bit for bit: each query's
    first k rows by a stable sort of its distances."""
    dist = np.array([np.linalg.norm(train_X - x, axis=1) for x in test_X])
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(dist, order, axis=1), order


_KNN_KINDS = ["gaussian", "codes", "offset", "near-duplicate", "huge", "tiny", "equal-norm"]


def _knn_features(kind, rng, shape):
    if kind == "gaussian":
        return rng.normal(size=shape)
    if kind == "huge":  # squared norms near 1e300, so the screen's sums round widest
        return rng.normal(size=shape) * 1e150
    if kind == "tiny":  # tied codes whose squares are subnormal, where rounding is absolute
        return rng.integers(0, 3, size=shape) * 1e-160
    if kind == "equal-norm":  # unit rows: |x|^2 is the same for every row
        X = rng.normal(size=shape)
        return X / np.linalg.norm(X, axis=1, keepdims=True)
    if kind == "codes":  # small integer codes: many exact distance ties
        return rng.integers(0, 3, size=shape).astype(float)
    if kind == "offset":  # an id-like column far from the origin
        X = rng.normal(size=shape)
        X[:, 0] += 1e6 + rng.integers(0, 50, size=shape[0])
        return X
    # near-duplicates: pairs of rows a few ulps apart
    X = np.repeat(rng.normal(size=((shape[0] + 1) // 2, shape[1])), 2, axis=0)[: shape[0]]
    X[1::2] += 1e-15
    return X


@st.composite
def _knn_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 10))
    m = draw(st.integers(0, 25))
    kind = draw(st.sampled_from(_KNN_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train_X = _knn_features(kind, rng, (n, d))
    test_X = _knn_features(kind, rng, (m, d))
    # about half the queries are training rows themselves
    copied = rng.random(m) < 0.5
    test_X[copied] = train_X[rng.integers(0, n, size=copied.sum())]
    train_y = rng.integers(0, 2, size=n)
    return train_X, train_y, test_X, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(_knn_cases())
def test_knn_equals_reference_loop_exactly(case):
    train_X, train_y, test_X, k = case
    got = oracles.knn_predict(train_X, train_y, test_X, k=k)
    want = _knn_reference(train_X, train_y, test_X, k=k)
    assert got.shape == want.shape
    assert (got == want).all()


def _tied_table():
    """Tied integer codes: 700 training rows and 300 queries, half of them
    training rows, of 6 columns."""
    rng = np.random.default_rng(11)
    train_X = rng.integers(0, 3, size=(700, 6)).astype(float)
    train_y = rng.integers(0, 2, size=700)
    return train_X, train_y, np.vstack([train_X[:150], rng.integers(0, 3, size=(150, 6))])


def test_knn_many_blocks_with_ties_equals_reference_loop():
    # enough queries for several blocks, on tied integer codes
    train_X, train_y, test_X = _tied_table()
    for k in (1, 5, 699):
        got = oracles.knn_predict(train_X, train_y, test_X, k=k)
        assert (got == _knn_reference(train_X, train_y, test_X, k=k)).all()


def _screened(train_X, queries, k, radius):
    """The radius screen's candidates as {(query, column): distance}."""
    found = {}
    for lo, _, rows, cols, dist in evaluate._screen(train_X, queries, k, radius=radius):
        found.update(zip(zip((lo + rows).tolist(), cols.tolist()), dist))
    return found


def _assert_screen_keeps_every_row_within(train_X, queries, k, radius):
    """Every candidate has the reference loop's distance bits, and every row
    whose reference distance is at most its query's radius is a candidate."""
    want = np.array([np.linalg.norm(train_X - x, axis=1) for x in queries]).reshape(len(queries), -1)
    found = _screened(train_X, queries, k, radius)
    got = np.array(list(found.values()))
    assert got.tobytes() == np.array([want[pair] for pair in found]).tobytes()
    assert set(zip(*np.nonzero(want <= radius[:, None]))) <= found.keys()


@pytest.mark.parametrize("kind", ["codes", "gaussian", "huge", "equal-norm"])
def test_knn_blocks_of_sixteen_queries_equal_reference_loop(kind):
    # at 3000 rows the byte budget alone gives 10 queries per block, so the
    # floor of 16 sets it: 70 queries run in five blocks, the last one short
    n, m, older = 3000, 70, 300
    assert evaluate._BLOCK_BYTES // (8 * (n - older)) < 16
    rng = np.random.default_rng(23)
    train_X, queries = np.split(_knn_features(kind, rng, (n + m, 21)), [n])
    queries[::2] = train_X[rng.integers(0, n, size=m // 2)]
    for k in (1, 5, 40):
        want = _k_nearest_reference(train_X, queries, k)
        got = evaluate.k_nearest(train_X, queries, k)
        assert got[0].tobytes() == want[0].tobytes() and (got[1] == want[1]).all()
        # the newer rows screened at the older rows' k-th distance
        radius = evaluate.k_nearest(train_X[:older], queries, k)[0][:, -1]
        _assert_screen_keeps_every_row_within(train_X[older:], queries, k, radius)


def test_knn_recompute_of_tied_rows_keeps_to_its_slices():
    # 5000 equal rows all tie, so every row of a 16-query block is a
    # candidate; recomputed in one piece, 16 x 5000 rows of 21 values
    # peaked at 16.7 MiB
    rng = np.random.default_rng(3)
    train_X = np.repeat(rng.normal(size=(1, 21)), 5000, axis=0)
    queries = rng.normal(size=(64, 21))
    tracemalloc.start()
    try:
        _, cols = evaluate.k_nearest(train_X, queries, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert (cols == np.arange(5)).all()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_knn_overflowing_distances_equal_reference_loop():
    # squared distances overflow to inf, so every row ties at inf and the
    # lower id must still win
    train_X = np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200], [0.0, 0.0]])
    train_y = np.array([0, 1, 1, 0])
    test_X = np.array([[-1e200, -1e200], [1e200, 1e200], [0.0, 1.0]])
    for k in range(1, 5):
        got = oracles.knn_predict(train_X, train_y, test_X, k=k)
        assert (got == _knn_reference(train_X, train_y, test_X, k=k)).all()


def test_knn_against_a_small_part_keeps_to_its_block_budget():
    # the exact recompute holds min(k, n) candidate rows of d values per
    # query, so blocks are sized for those as well as for the Gram matrix;
    # sized by the Gram matrix alone this call peaked at 6.40 MiB
    rng = np.random.default_rng(5)
    part = rng.normal(size=(10, 21))
    queries = rng.normal(size=(3000, 21))
    tracemalloc.start()
    try:
        evaluate.k_nearest(part, queries, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_knn_runs_of_blocks_equal_reference_loop(monkeypatch):
    # at 16 KiB the 700-row table gives 16-query blocks and runs that end
    # at 256 candidates: at k = 5 runs span several blocks, and the call's
    # 300 queries, prepared at once, end in more than one run
    monkeypatch.setattr(evaluate, "_BLOCK_BYTES", 16 * 1024)
    train_X, train_y, test_X = _tied_table()
    runs = [(lo, hi) for lo, hi, *_ in evaluate._screen(train_X, test_X, 5)]
    assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]] and runs[-1][1] == 300
    assert any(hi - lo > 16 for lo, hi in runs)
    assert any(hi - lo > 16 and hi < 300 for lo, hi in runs)
    # row 0's squared norm stays finite, but five queries' |q|^2 overflow,
    # and so do their distances to every row, which then all tie; a screen
    # product with row 0 can read inf - inf = nan, and only the queries'
    # overflow masks, prepared with the call's queries, keep row 0
    huge_X, huge_q = train_X.copy(), test_X.copy()
    huge_X[0, :2] = 9.4e153, -9.4e153
    huge_q[[20, 37, 70, 150, 299], :2] = 1e154
    for table, queries in ((train_X, test_X), (huge_X, huge_q)):
        for k in (1, 5, 699):
            got = oracles.knn_predict(table, train_y, queries, k=k)
            assert (got == _knn_reference(table, train_y, queries, k=k)).all()
            dist, cols = evaluate.k_nearest(table, queries, k)
            want = _k_nearest_reference(table, queries, k)
            assert dist.tobytes() == want[0].tobytes() and (cols == want[1]).all()


@st.composite
def _radius_cases(draw):
    """Older rows, whose k-th distances give the queries' radii, a part of
    newer rows and the queries, drawn from the kinds of ``_knn_cases``."""
    n_older = draw(st.integers(1, 30))
    n_part = draw(st.integers(1, 12))
    d = draw(st.integers(1, 8))
    m = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(_KNN_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = _knn_features(kind, rng, (n_older + n_part + m, d))
    if draw(st.booleans()):  # rows whose squared distances overflow
        far = rng.random(len(X)) < 0.3
        X[far] = rng.choice([-1e200, 1e200], size=(far.sum(), d))
    older, part, queries = X[:n_older], X[n_older:-m], X[-m:]
    # about half the queries are older or newer rows themselves
    copied = rng.random(m) < 0.5
    queries[copied] = X[rng.integers(0, len(X) - m, size=copied.sum())]
    return older, part, queries, draw(st.integers(1, n_older))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=300, deadline=None)
@given(_radius_cases())
def test_radius_screen_keeps_every_row_within_the_radius(case):
    # each query's radius is its k-th distance among the older rows, inf
    # where their squared distances overflow
    older, part, queries, k = case
    radius = evaluate.k_nearest(older, queries, k)[0][:, -1]
    _assert_screen_keeps_every_row_within(part, queries, k, radius)


def _candidates(train_X, queries, k, radius=None):
    """The number of (query, column) candidates ``_screen`` passes on."""
    return sum(len(rows) for _, _, rows, _, _ in evaluate._screen(train_X, queries, k, radius=radius))


@pytest.mark.parametrize("kind, factor", [
    ("gaussian", 2.0**100), ("gaussian", 2.0**-100), ("codes", 2.0**100), ("codes", 2.0**-100),
    ("gaussian", 1e30),  # unscaled, the squared norms, near 1e61, would overflow float32
    ("gaussian", 1e-161),  # subnormal squared distances: the exact step rounds absolutely
])
def test_float32_screen_of_any_scale_equals_reference_loop(kind, factor):
    n, m, older = 900, 60, 300
    rng = np.random.default_rng(29)
    train_X, queries = np.split(_knn_features(kind, rng, (n + m, 12)) * factor, [n])
    queries[::2] = train_X[rng.integers(0, n, size=m // 2)]
    for k in (1, 5, 40):
        want = _k_nearest_reference(train_X, queries, k)
        got = evaluate.k_nearest(train_X, queries, k)
        assert got[0].tobytes() == want[0].tobytes() and (got[1] == want[1]).all()
        radius = evaluate.k_nearest(train_X[:older], queries, k)[0][:, -1]
        _assert_screen_keeps_every_row_within(train_X[older:], queries, k, radius)
    if kind == "gaussian" and factor > 1e-150:
        # the scale keeps the screen tight: under a tenth of the pairs pass
        assert _candidates(train_X, queries, 5) < n * m / 10
        radius = evaluate.k_nearest(train_X[:older], queries, 1)[0][:, -1]
        assert _candidates(train_X[older:], queries, 1, radius) < (n - older) * m / 10


def test_float32_screen_tells_distances_one_ulp_apart():
    # from the query at the origin, the k-th nearest row lies at a and the
    # (k+1)-th, an earlier column, at a plus one float64 ulp: far below
    # float32's resolution, so only the exact step orders them
    k, a = 4, 1.2345
    rng = np.random.default_rng(37)
    near = rng.normal(size=(k - 1, 3))
    near *= 0.5 / np.linalg.norm(near, axis=1, keepdims=True)
    far = rng.normal(size=(50, 3))
    far *= 3 / np.linalg.norm(far, axis=1, keepdims=True)
    train_X = np.vstack([far[:25], [[np.nextafter(a, 2.0), 0, 0]], near, [[0, 0, a]], far[25:]])
    queries = np.vstack([np.zeros((1, 3)), rng.normal(size=(20, 3))])
    want = _k_nearest_reference(train_X, queries, k + 1)
    assert want[0][0, -2:].tolist() == [a, np.nextafter(a, 2.0)] and want[1][0, -2:].tolist() == [29, 25]
    for kk in (k, k + 1):
        got = evaluate.k_nearest(train_X, queries, kk)
        assert got[0].tobytes() == want[0][:, :kk].tobytes() and (got[1] == want[1][:, :kk]).all()
    # screened at radius a, the row at a stays
    radius = np.full(len(queries), a)
    _assert_screen_keeps_every_row_within(train_X, queries, k, radius)
    assert (0, 29) in _screened(train_X, queries, k, radius)


def test_float32_screen_thresholds_round_up():
    x = np.array([1 + 2.0**-30, -(1 + 2.0**-30), 3.0, 1e-40, -1e-45, 0.0])
    assert (evaluate._up(x) >= x).all()


def test_float32_screen_keeps_every_column_of_a_query_past_its_range():
    # the table's cells are near 1 and one query's near 1e25: its scaled
    # squared norm does not fit float32, though its distances fit float64
    rng = np.random.default_rng(41)
    train_X = rng.normal(size=(400, 5))
    queries = rng.normal(size=(20, 5))
    queries[7] *= 1e25
    for k in (1, 5):
        want = _k_nearest_reference(train_X, queries, k)
        got = evaluate.k_nearest(train_X, queries, k)
        assert got[0].tobytes() == want[0].tobytes() and (got[1] == want[1]).all()
        kept = [(lo + rows).tolist().count(7) for lo, _, rows, _, _ in evaluate._screen(train_X, queries, k)]
        assert sum(kept) == len(train_X)
        assert _candidates(train_X, queries, k) < 2 * len(train_X)


def test_float32_screen_keeps_every_row_of_a_table_past_its_width_bound():
    # past 131,069 columns the float32 rounding bound no longer holds; past
    # 8192 a recompute slice of the byte budget held no candidate, and
    # k_nearest failed with a ValueError. Three rows at -v and three at v:
    # the far rows' f exceeds the near rows' by 2s, and tol is about s at
    # the last width the bound holds
    rng = np.random.default_rng(43)
    for d, kept in ((131_069, 6), (131_070, 12)):
        train_X = np.outer([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0], rng.normal(size=d))
        queries = train_X[[0, 3]]
        want = _k_nearest_reference(train_X, queries, 2)
        got = evaluate.k_nearest(train_X, queries, 2)
        assert got[0].tobytes() == want[0].tobytes() and (got[1] == want[1]).all()
        assert _candidates(train_X, queries, 2) == kept


def test_a_record_enters_only_strictly_inside_the_kth_original():
    # the 2nd original distance is 2: a record at exactly 2 loses the tie
    # to the original's lower id, and a record one ulp nearer enters
    originals = np.array([[1.0], [2.0], [3.0]])
    queries = np.array([[0.0]])
    near = evaluate.k_nearest(originals, queries, 2)
    assert near[0].tolist() == [[1.0, 2.0]]
    nearer = np.nextafter(2.0, 0.0)
    records = np.array([[-2.0], [-nearer], [5.0]])
    # grid rows: no record, the tied record and two copies of a far one,
    # all three records
    copies = np.array([[0, 0, 0], [1, 0, 2], [1, 1, 2]])
    votes = evaluate._votes(near, np.zeros(3, dtype=int), records, copies, queries)
    assert votes.tolist() == [[0], [0], [1]]
    # the same where the Gram value of the nearer record rounds above the
    # squared radius: the 2nd distance is 2**-30, and a record one ulp of
    # the query nearer must still enter
    q, a = 0.7, 2.0**-30
    queries = np.array([[q]])
    near = evaluate.k_nearest(np.array([[q - a / 2], [q + a]]), queries, 2)
    assert near[0].tolist() == [[a / 2, a]]
    nearer = a - np.spacing(q)
    records = np.array([[q + 10.0], [q + nearer]])
    assert _screened(records, queries, 2, near[0][:, -1]) == {(0, 1): nearer}
    votes = evaluate._votes(near, np.zeros(2, dtype=int), records, np.array([[1, 0], [1, 1]]), queries)
    assert votes.tolist() == [[0], [1]]


def test_knn_rejects_label_count_mismatch():
    with pytest.raises(ParameterError):
        oracles.knn_predict(np.zeros((3, 1)), np.array([1, 0]), [[0.0]], k=1)


def test_knn_rejects_query_width_mismatch():
    with pytest.raises(ParameterError):
        oracles.knn_predict(np.zeros((3, 2)), np.zeros(3), [[0.0, 0.0, 0.0]], k=1)


def test_knn_rejects_non_finite_features():
    with pytest.raises(ParameterError):
        oracles.knn_predict(np.array([[0.0], [np.nan]]), np.zeros(2), [[0.0]], k=1)
    with pytest.raises(ParameterError):
        oracles.knn_predict(np.zeros((2, 1)), np.zeros(2), [[np.inf]], k=1)


def _confusion_vectors():
    scores = np.r_[np.ones(50), np.zeros(20), np.ones(10), np.zeros(120)]
    labels = np.r_[np.ones(70, dtype=int), np.zeros(130, dtype=int)]
    return scores, labels


def test_confusion_matrix_worked_example():
    scores, labels = _confusion_vectors()
    report = evaluate.compute_metrics(scores, labels)
    assert report.accuracy == pytest.approx(0.85)
    assert report.f1 == pytest.approx(0.7692, abs=1e-4)


def test_accuracy_is_threshold_consistent():
    scores, labels = _confusion_vectors()
    report = evaluate.compute_metrics(scores, labels)
    assert report.accuracy == np.mean((scores >= 0.5) == (labels == 1))


def test_roc_auc_perfect_ranking():
    auc = evaluate.roc_auc_trapezoidal(
        np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 1, 0, 0])
    )
    assert auc == pytest.approx(1.0)


def test_roc_auc_interleaved_ranking():
    auc = evaluate.roc_auc_trapezoidal(
        np.array([0.9, 0.8, 0.7, 0.6]), np.array([1, 0, 1, 0])
    )
    assert auc == pytest.approx(0.75)


def test_trapezoidal_equals_pairwise_auc():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(6, 40))
        scores = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        trap = evaluate.roc_auc_trapezoidal(scores, labels)
        pair = oracles.roc_auc_pairwise(scores, labels)
        assert abs(trap - pair) <= 1e-9


def test_trapezoidal_auc_needs_no_numpy_integrator(monkeypatch):
    # numpy has renamed its trapezoid integrator before; the AUC must not
    # depend on either name being present
    monkeypatch.delattr(np, "trapz", raising=False)
    monkeypatch.delattr(np, "trapezoid", raising=False)
    scores = np.array([0.9, 0.5, 0.5, 0.5, 0.2, 0.2, 0.1])
    labels = np.array([1, 1, 0, 1, 0, 1, 0])
    trap = evaluate.roc_auc_trapezoidal(scores, labels)
    assert abs(trap - oracles.roc_auc_pairwise(scores, labels)) <= 1e-12


def test_roc_curve_spans_unit_square():
    rng = np.random.default_rng(2)
    scores = rng.uniform(size=30)
    labels = rng.integers(0, 2, size=30)
    tps, fps = evaluate._ranked(scores, labels)
    pts = np.column_stack([np.r_[0.0, fps / fps[-1]], np.r_[0.0, tps / tps[-1]]])
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[-1]) == (1.0, 1.0)


def test_undefined_metrics_are_none_not_zero():
    scores = np.array([0.1, 0.2, 0.3])
    labels = np.zeros(3, dtype=int)
    report = evaluate.compute_metrics(scores, labels)
    assert report.f1 is None
    assert report.pr_auc is None
    assert report.roc_auc is None
    # no labels at all
    empty = evaluate.compute_metrics([], [])
    assert (empty.accuracy, empty.f1, empty.roc_auc, empty.pr_auc) == (None, None, None, None)
    assert evaluate.roc_auc_trapezoidal([], []) is None
    assert evaluate.average_precision([], []) is None


def test_average_precision_step_rule():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    ap = evaluate.average_precision(scores, labels)
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2
    assert ap == pytest.approx((1.0 + 2 / 3) / 2)


def _average_precision_loop(scores, labels):
    """The step rule as a running sum over the tied blocks, one block at a time."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    pos = int((labels == 1).sum())
    if pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tps = np.cumsum(y == 1)
    ranks = np.arange(1, len(y) + 1)
    last = np.r_[np.nonzero(np.diff(s))[0], len(s) - 1]
    ap = 0.0
    prev_tp = 0
    for i in last:
        ap += (tps[i] - prev_tp) / pos * (tps[i] / ranks[i])
        prev_tp = tps[i]
    return float(ap)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1)), min_size=1, max_size=80))
def test_average_precision_equals_the_running_sum_loop(pairs):
    # 31 score levels: tied blocks, and often more blocks than a pairwise
    # sum adds in order
    levels, labels = map(np.array, zip(*pairs))
    scores = levels / 30
    assert evaluate.average_precision(scores, labels) == _average_precision_loop(scores, labels)


def test_stratified_split_is_deterministic_and_disjoint():
    y = np.r_[np.ones(30, dtype=int), np.zeros(170, dtype=int)]
    a_train, a_test = evaluate.stratified_split(y, 0.2, seed=5)
    b_train, b_test = evaluate.stratified_split(y, 0.2, seed=5)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    assert set(a_train).isdisjoint(a_test)
    assert len(a_train) + len(a_test) == 200
    assert (y[a_test] == 1).sum() == 6  # 20% of each class


def test_stratified_split_rejects_bad_fraction():
    with pytest.raises(ParameterError):
        evaluate.stratified_split(np.array([0, 1]), 0.0, seed=0)


def _toy(n=120, minority=12, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 4.0, size=(n, 3))
    y = np.r_[np.ones(minority, dtype=int), np.zeros(n - minority, dtype=int)]
    return X, y


def test_run_experiment_empty_grid_gives_single_baseline_row():
    X, y = _toy()
    rows = evaluate.run_experiment(X, y, grid=())
    assert len(rows) == 1
    assert rows[0].target_percent is None
    assert rows[0].aol is False


def test_run_experiment_grid_shape_and_determinism():
    X, y = _toy()
    a = evaluate.run_experiment(X, y, grid=(30, 36), seed=2)
    b = evaluate.run_experiment(X, y, grid=(30, 36), seed=2)
    assert len(a) == 1 + 2 * 2
    assert a == b


def test_run_experiment_rejects_labels_other_than_0_1():
    # the KNN counts label 1 as positive, so a {0, 2} labelling would be
    # scored against the wrong class
    X, y = demo.make_imbalanced_dataset(n_rows=200)
    with pytest.raises(ParameterError, match="labels must be 0/1"):
        evaluate.run_experiment(X, np.where(y == 1, 2, 0), grid=())


def _run_experiment_reference(X, y, grid, aol_flags=(False, True), test_fraction=0.2, seed=0, k=5):
    """The per-row loop run_experiment must reproduce: every grid row scores
    its test and training queries with knn_predict on its own augmented set."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    train_idx, test_idx = evaluate.stratified_split(y, test_fraction, seed)
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_te, y_te = X[test_idx], y[test_idx]

    def score_row(target, use_aol, train_X, train_y):
        test_scores = oracles.knn_predict(train_X, train_y, X_te, k=k)
        train_scores = oracles.knn_predict(train_X, train_y, train_X, k=k)
        m_test = evaluate.compute_metrics(test_scores, y_te)
        m_train = evaluate.compute_metrics(train_scores, train_y)
        return evaluate.ExperimentRow(
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
            cfg = pipeline.SmoteConfig(seed=seed)
            records = next(pipeline.augment_grid(X_tr, y_tr, cfg, [target], use_aol, row_ids=train_idx)).records
            aug_X = np.vstack([X_tr, records.features])
            aug_y = np.r_[y_tr, np.ones(len(records), dtype=y_tr.dtype)]
            rows.append(score_row(target, use_aol, aug_X, aug_y))
    return rows


def _tied_codes():
    # small integer codes: many k-th-neighbour distance ties
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(500, 6)).astype(float)
    y = np.r_[np.ones(50, dtype=int), np.zeros(450, dtype=int)]
    return X, y


def _planted_outliers():
    # thirteen near-axis minority rows of the training split sit below the
    # IQR fence, twelve of them on one point, so AOL boosts at every target
    # of _EXPERIMENT_GRID, even 10; ten majority rows around that point
    # let the boosted records change neighbour votes
    X, y = demo.make_imbalanced_dataset(n_rows=700)
    train_idx, _ = evaluate.stratified_split(y, 0.2, 0)
    for i, m in zip(train_idx[y[train_idx] == 1], [1] * 12 + [2]):
        X[i] = 0.05
        X[i, :m] = 5.0
    rng = np.random.default_rng(0)
    near = np.nonzero(y == 0)[0][:10]
    X[near] = 0.05 + np.abs(rng.normal(0, 0.05, size=(10, X.shape[1])))
    X[near, 0] = 5.0 + rng.normal(0, 0.25, size=10)
    return X, y


_EXPERIMENT_DATA = {
    "demo": lambda: demo.make_imbalanced_dataset(n_rows=500),
    "tied-codes": _tied_codes,
    "planted-outliers": _planted_outliers,
}
# every data set has a 10% minority: target 10 adds no records and 10.5
# fewer than k = 5
_EXPERIMENT_GRID = (10, 10.5, 20, 40)


def test_experiment_data_cover_boosting_and_small_targets():
    for name, make in _EXPERIMENT_DATA.items():
        X, y = make()
        train_idx, _ = evaluate.stratified_split(y, 0.2, 0)
        counts = {}
        for target in _EXPERIMENT_GRID:
            result = next(pipeline.augment_grid(X[train_idx], y[train_idx], pipeline.SmoteConfig(seed=0), [target], True))
            counts[target] = (result.generated, len(result.records) - result.generated)
        assert counts[10][0] == 0 and 0 < counts[10.5][0] < 5, name
        if name == "planted-outliers":
            assert all(counts[t][1] > 0 for t in (10.5, 20, 40)), counts


@pytest.mark.parametrize("boost", [False, True])
@pytest.mark.parametrize("data", sorted(_EXPERIMENT_DATA))
def test_augment_grid_equals_augment_of_each_target(data, boost):
    # an unsorted grid with a repeated target and one that adds no records
    grid = (40, 10.5, 20, 40, 10)
    X, y = _EXPERIMENT_DATA[data]()
    train_idx, _ = evaluate.stratified_split(y, 0.2, 0)
    X_tr, y_tr = X[train_idx], y[train_idx]
    config = pipeline.SmoteConfig(seed=0)
    got = list(pipeline.augment_grid(X_tr, y_tr, config, grid, boost, row_ids=train_idx))
    assert len(got) == len(grid)
    for target, result in zip(grid, got):
        want = next(pipeline.augment_grid(X_tr, y_tr, config, [target], boost, row_ids=train_idx))
        for field in dataclasses.fields(pipeline.SmoteResult):
            a, b = getattr(result, field.name), getattr(want, field.name)
            if isinstance(a, synth.Records):
                for column in dataclasses.fields(synth.Records):
                    x, z = getattr(a, column.name), getattr(b, column.name)
                    assert x.dtype == z.dtype and np.array_equal(x, z), (target, column.name)
            elif isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), (target, field.name)
            else:
                assert a == b, (target, field.name)


def test_run_experiment_synthesises_once(monkeypatch):
    # the criterion-09 grid on the demo data at seed 0: its ten targets
    # share 1280 distinct (row, pass) keys, and no outlier bin is thin
    calls, drawn = [], []
    create, uniform = synth.create_syn_data, keyed.uniform

    def counting_create(*args, **kwargs):
        calls.append(len(args[0]))
        return create(*args, **kwargs)

    def counting_uniform(seed, *columns):
        drawn.append(len(columns[0]))
        return uniform(seed, *columns)

    monkeypatch.setattr(synth, "create_syn_data", counting_create)
    monkeypatch.setattr(keyed, "uniform", counting_uniform)
    X, y = demo.make_imbalanced_dataset()
    evaluate.run_experiment(X, y, grid=(30, 32, 34, 36, 38, 40, 42, 45, 48, 50), seed=0)
    assert calls == [1280] and sum(drawn) == 1280


def test_grid_checks_keep_the_per_target_order():
    # the first target's budget, then the rows, then the other budgets
    X, y = _EXPERIMENT_DATA["demo"]()
    train_idx, _ = evaluate.stratified_split(y, 0.2, 0)
    zero = train_idx[y[train_idx] == 1][3]
    X[zero] = 0.0
    with pytest.raises(DataError, match="all-zero minority row") as info:
        evaluate.run_experiment(X, y, grid=(30, 5), seed=0)
    assert info.value.row == zero + 1
    with pytest.raises(ParameterError, match=r"^target 5% is below the current minority share"):
        evaluate.run_experiment(X, y, grid=(5, 30), seed=0)


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("aol_flags", [(False, True), (True,), (False,)])
@pytest.mark.parametrize("data", sorted(_EXPERIMENT_DATA))
def test_run_experiment_equals_the_per_row_reference(data, aol_flags, k):
    X, y = _EXPERIMENT_DATA[data]()
    got = evaluate.run_experiment(X, y, _EXPERIMENT_GRID, aol_flags=aol_flags, seed=0, k=k)
    want = _run_experiment_reference(X, y, _EXPERIMENT_GRID, aol_flags=aol_flags, seed=0, k=k)
    assert got == want


def _target_records(X, y, grid):
    """Each target's new records, as run_experiment stacks them, and the
    number of their bitwise-distinct rows."""
    train_idx, _ = evaluate.stratified_split(y, 0.2, 0)
    blocks = []
    for target in grid:
        cfg = pipeline.SmoteConfig(seed=0)
        result = next(pipeline.augment_grid(X[train_idx], y[train_idx], cfg, [target], True, row_ids=train_idx))
        blocks.append(result.records.features)
    return blocks, len({row.tobytes() for row in np.vstack(blocks)})


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("data", sorted(_EXPERIMENT_DATA))
def test_run_experiment_does_not_depend_on_grid_order(data, k):
    # the grid is not in order of record count, its targets share records,
    # and a repeated target has the same records bit for bit
    grid = (40, 10.5, 20, 40, 10)
    X, y = _EXPERIMENT_DATA[data]()
    blocks, distinct = _target_records(X, y, grid)
    sizes = [len(b) for b in blocks]
    assert sizes != sorted(sizes) and blocks[0].tobytes() == blocks[3].tobytes()
    assert distinct < sum(sizes) - sizes[3]
    got = evaluate.run_experiment(X, y, grid, seed=0, k=k)
    assert got == _run_experiment_reference(X, y, grid, seed=0, k=k)


def test_run_experiment_in_many_chunks_equals_the_per_row_reference(monkeypatch):
    # at k = 100 no chunk holds all 500 test and training queries, and
    # some grid row holds records but fewer than k of them
    k = 100
    X, y = _EXPERIMENT_DATA["demo"]()
    blocks, _ = _target_records(X, y, _EXPERIMENT_GRID)
    assert any(0 < len(b) < k for b in blocks)
    want = _run_experiment_reference(X, y, _EXPERIMENT_GRID, seed=0, k=k)
    sizes = []
    k_nearest = evaluate.k_nearest

    def recording(train_X, queries, *args, **kwargs):
        sizes.append(len(queries))
        return k_nearest(train_X, queries, *args, **kwargs)

    monkeypatch.setattr(evaluate, "k_nearest", recording)
    assert evaluate.run_experiment(X, y, _EXPERIMENT_GRID, seed=0, k=k) == want
    assert max(sizes) < len(X)


def test_run_experiment_scores_shared_records_once(monkeypatch):
    # pairs screened for the criterion-09 grid on the demo data at seed 0:
    # 39,510,100 when each target scores all of its records, 12,160,939
    # when only the leading records the targets share are scored once, and
    # 9,446,400 when the 2000 test and training rows and the 1280 distinct
    # records are each screened once against the 1600 originals and the
    # records
    pairs = []
    screen = evaluate._screen

    def counting(train_X, queries, *args, **kwargs):
        pairs.append(len(train_X) * len(queries))
        return screen(train_X, queries, *args, **kwargs)

    monkeypatch.setattr(evaluate, "_screen", counting)
    X, y = demo.make_imbalanced_dataset()
    evaluate.run_experiment(X, y, grid=(30, 32, 34, 36, 38, 40, 42, 45, 48, 50), seed=0)
    assert sum(pairs) <= 9_500_000


def test_run_experiment_counting_keeps_to_its_block_budget():
    # the minority rows sit in one tight cluster, inside most queries' 100th
    # original distance, so most screened (query, record) pairs are
    # candidates; a candidates x k temporary peaked at 29.4 MiB here
    rng = np.random.default_rng(0)
    sphere = rng.normal(size=(3000, 40))
    sphere *= 10 / np.linalg.norm(sphere, axis=1, keepdims=True)
    X = np.vstack([sphere, 0.5 + rng.normal(scale=0.01, size=(300, 40))])
    y = np.r_[np.zeros(3000, dtype=int), np.ones(300, dtype=int)]
    tracemalloc.start()
    try:
        evaluate.run_experiment(X, y, grid=(30, 40, 50), seed=0, k=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


_CRITERION_09_GRID = (30, 32, 34, 36, 38, 40, 42, 45, 48, 50)


def test_run_experiment_screens_in_runs_of_many_blocks(monkeypatch):
    # the criterion-09 grid on the demo data at seed 0 passes its 3280
    # queries in 6 chunks of at most 595 to 12 _screen calls (k_nearest's
    # and _votes'), each of which prepares its chunk at once; they screen
    # 299 blocks and recompute and yield 14 runs
    blocks, runs = [], []
    screen = evaluate._screen

    def counting(train_X, queries, k, radius=None):
        n, d = train_X.shape
        block = max(16, evaluate._BLOCK_BYTES // (8 * max(n, min(k, n) * d)))
        blocks.append(-(-len(queries) // block))
        for run in screen(train_X, queries, k, radius):
            runs.append(run[:2])
            yield run

    monkeypatch.setattr(evaluate, "_screen", counting)
    X, y = demo.make_imbalanced_dataset()
    evaluate.run_experiment(X, y, grid=_CRITERION_09_GRID, seed=0)
    assert sum(blocks) >= 250 and 10 * len(runs) <= sum(blocks)


@pytest.mark.parametrize("data", ["tied-codes", "planted-outliers"])
def test_run_experiment_in_runs_of_blocks_equals_the_per_row_reference(monkeypatch, data):
    # 16 KiB gives runs that span blocks and end before a call's last
    # query (see test_knn_runs_of_blocks_equal_reference_loop), in both
    # screens
    X, y = _EXPERIMENT_DATA[data]()
    want = _run_experiment_reference(X, y, _EXPERIMENT_GRID, seed=0)
    monkeypatch.setattr(evaluate, "_BLOCK_BYTES", 16 * 1024)
    assert evaluate.run_experiment(X, y, _EXPERIMENT_GRID, seed=0) == want


def _counting_metrics(monkeypatch):
    """The number of test rows of each compute_metrics call from here on."""
    calls = []
    compute = evaluate.compute_metrics

    def counting(scores, labels):
        calls.append(len(scores))
        return compute(scores, labels)

    monkeypatch.setattr(evaluate, "compute_metrics", counting)
    return calls


def test_run_experiment_scores_each_distinct_grid_row_once(monkeypatch):
    # the criterion-09 grid on the demo data at seed 0: AOL boosts nothing,
    # so its 21 rows hold 11 distinct copy vectors; scoring each row's test
    # and training scores took 42 compute_metrics calls, and the training
    # accuracy now comes from counts
    X, y = demo.make_imbalanced_dataset()
    want = _run_experiment_reference(X, y, _CRITERION_09_GRID, seed=0)
    calls = _counting_metrics(monkeypatch)
    assert evaluate.run_experiment(X, y, _CRITERION_09_GRID, seed=0) == want
    assert calls == [400] * 11


def test_run_experiment_keeps_unequal_grid_rows_apart(monkeypatch):
    # on planted-outliers every AOL row holds boosted records and differs
    # from its plain row, and targets 10 and 10.5 differ from each other:
    # 9 rows, of which only the plain target-10 row, with no records,
    # equals the baseline
    X, y = _EXPERIMENT_DATA["planted-outliers"]()
    want = _run_experiment_reference(X, y, _EXPERIMENT_GRID, seed=0)
    assert all(plain != aol for plain, aol in zip(want[1::2], want[2::2]))
    calls = _counting_metrics(monkeypatch)
    assert evaluate.run_experiment(X, y, _EXPERIMENT_GRID, seed=0) == want
    assert len(calls) == 8


def test_votes_for_many_grid_rows_keep_to_their_budget(monkeypatch):
    # the criterion-09 grid, AOL both, at k = 100: 11 distinct grid rows
    # over 29-query chunks whose radius screens keep many records; one
    # bincount over every grid row peaked at 1.42 MB per _votes call, and
    # slices of grid rows at 0.99 MB
    peaks = []
    votes = evaluate._votes

    def traced(*args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = votes(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(evaluate, "_votes", traced)
    X, y = demo.make_imbalanced_dataset()
    tracemalloc.start()
    try:
        evaluate.run_experiment(X, y, grid=_CRITERION_09_GRID, seed=0, k=100)
    finally:
        tracemalloc.stop()
    assert len(peaks) > 100 and max(peaks) <= 1.25 * 2**20


_augment_grid = pipeline.augment_grid


def _copying_augment_grid(features, labels, config, targets, boost, row_ids=None):
    """pipeline.augment_grid, as it is before any patch, with every new record
    moved onto a training row or an earlier record, so new records tie in
    distance with older rows and only the lower-id rule orders them."""
    X = np.asarray(features, dtype=float)
    for result in _augment_grid(X, labels, config, targets, False, row_ids=row_ids):
        records = result.records
        rng = np.random.default_rng(len(records))
        rows = rng.integers(0, len(X), len(records))
        records = dataclasses.replace(records, features=X[rows])
        if boost:
            older = np.vstack([X, records.features])
            picks = rng.integers(0, len(older), len(records) // 2)
            first = np.zeros(len(picks), dtype=int)
            records = synth.Records.concat([records, synth.Records(
                older[picks],
                records.source_row_id[first],
                records.rotation_angle[first],
                records.angular_distance[first],
                np.ones(len(picks), dtype=bool),
            )])
        yield dataclasses.replace(result, records=records)


@pytest.mark.parametrize("k", [1, 5])
def test_run_experiment_ties_across_parts_go_to_the_lower_id(monkeypatch, k):
    monkeypatch.setattr(pipeline, "augment_grid", _copying_augment_grid)
    X, y = _tied_codes()
    got = evaluate.run_experiment(X, y, (20, 40), seed=0, k=k)
    assert got == _run_experiment_reference(X, y, (20, 40), seed=0, k=k)


@pytest.mark.parametrize("aol_flags", [(False, True), (True,), (False,), ()])
def test_run_experiment_augments_once_per_target(monkeypatch, aol_flags):
    # one augment_grid call takes every target, in grid order
    calls = []
    augment_grid = pipeline.augment_grid

    def counting(features, labels, config, targets, boost, **kwargs):
        calls.append((list(targets), boost))
        return augment_grid(features, labels, config, targets, boost, **kwargs)

    monkeypatch.setattr(pipeline, "augment_grid", counting)
    X, y = _toy()
    rows = evaluate.run_experiment(X, y, grid=(36, 30), aol_flags=aol_flags)
    assert len(rows) == 1 + 2 * len(aol_flags)
    assert calls == ([([36, 30], True in aol_flags)] if aol_flags else [])


def test_run_experiment_keeps_the_knn_errors():
    X, y = _toy(n=20, minority=5)
    with pytest.raises(ParameterError, match=r"^need 1 <= k <= 16, got 17$"):
        evaluate.run_experiment(X, y, grid=(40,), k=17)
    X[3, 1] = np.nan
    with pytest.raises(ParameterError, match=r"^features must be finite$"):
        evaluate.run_experiment(X, y, grid=(40,))


def test_synthetic_sources_never_leak_from_test_split():
    X, y = _toy(n=200, minority=20, seed=4)
    train_idx, test_idx = evaluate.stratified_split(y, 0.2, seed=0)
    config = pipeline.SmoteConfig(seed=0)
    result = next(pipeline.augment_grid(X[train_idx], y[train_idx], config, [30.0], False, row_ids=train_idx))
    sources = set(result.records.source_row_id.tolist())
    assert sources <= set(train_idx.tolist())
    assert sources.isdisjoint(test_idx.tolist())
