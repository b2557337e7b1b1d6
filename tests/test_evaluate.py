"""Unit tests for KNN scoring, metrics, and the experiment harness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmote import demo, evaluate, pipeline
from qsmote.errors import ParameterError


def test_knn_zero_distance_wins_at_k_one():
    train_X = np.array([[0.0, 0.0], [5.0, 5.0]])
    train_y = np.array([1, 0])
    assert evaluate.knn_predict(train_X, train_y, [[0.0, 0.0]], k=1)[0] == 1.0
    assert evaluate.knn_predict(train_X, train_y, [[5.0, 5.0]], k=1)[0] == 0.0


def test_knn_vote_fraction():
    train_X = np.array([[0.0], [0.1], [0.2], [9.0]])
    train_y = np.array([1, 1, 0, 0])
    score = evaluate.knn_predict(train_X, train_y, [[0.0]], k=3)[0]
    assert score == pytest.approx(2 / 3)


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    train_X = rng.normal(size=(60, 3))
    train_y = rng.integers(0, 2, size=60)
    test_X = rng.normal(size=(100, 3))
    got = evaluate.knn_predict(train_X, train_y, test_X, k=5)
    for x, score in zip(test_X, got):
        dist = np.linalg.norm(train_X - x, axis=1)
        order = np.lexsort((np.arange(60), dist))[:5]
        assert score == pytest.approx(np.mean(train_y[order] == 1))


def test_knn_distance_ties_break_to_lower_row_id():
    train_X = np.array([[1.0], [1.0], [1.0]])
    train_y = np.array([0, 1, 1])
    # rows are equidistant; k=1 must pick row 0 regardless of input order
    assert evaluate.knn_predict(train_X, train_y, [[1.0]], k=1)[0] == 0.0


def test_knn_rejects_bad_k_and_empty_train():
    with pytest.raises(ParameterError):
        evaluate.knn_predict(np.empty((0, 2)), np.empty(0), [[1.0, 2.0]], k=1)
    with pytest.raises(ParameterError):
        evaluate.knn_predict(np.ones((3, 1)), np.ones(3), [[1.0]], k=4)


def _knn_reference(train_X, train_y, test_X, k=5, train_ids=None):
    """The per-query loop knn_predict must reproduce bit for bit."""
    train_X = np.asarray(train_X, dtype=float)
    train_y = np.asarray(train_y)
    test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
    if train_ids is None:
        train_ids = np.arange(train_X.shape[0])
    scores = np.empty(test_X.shape[0])
    for i, x in enumerate(test_X):
        dist = np.linalg.norm(train_X - x, axis=1)
        order = np.lexsort((train_ids, dist))[:k]
        scores[i] = float(np.mean(train_y[order] == 1))
    return scores


def _knn_features(kind, rng, shape):
    if kind == "gaussian":
        return rng.normal(size=shape)
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
    kind = draw(st.sampled_from(["gaussian", "codes", "offset", "near-duplicate"]))
    ids_kind = draw(st.sampled_from(["none", "permuted", "duplicate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train_X = _knn_features(kind, rng, (n, d))
    test_X = _knn_features(kind, rng, (m, d))
    # about half the queries are training rows themselves
    copied = rng.random(m) < 0.5
    test_X[copied] = train_X[rng.integers(0, n, size=copied.sum())]
    train_y = rng.integers(0, 2, size=n)
    train_ids = {
        "none": None,
        "permuted": rng.permutation(n) + 100,
        "duplicate": rng.integers(0, max(1, n // 3), size=n),
    }[ids_kind]
    return train_X, train_y, test_X, draw(st.integers(1, n)), train_ids


@settings(max_examples=300, deadline=None)
@given(_knn_cases())
def test_knn_equals_reference_loop_exactly(case):
    train_X, train_y, test_X, k, train_ids = case
    got = evaluate.knn_predict(train_X, train_y, test_X, k=k, train_ids=train_ids)
    want = _knn_reference(train_X, train_y, test_X, k=k, train_ids=train_ids)
    assert got.shape == want.shape
    assert (got == want).all()


def test_knn_many_blocks_with_ties_equals_reference_loop():
    # enough queries for several blocks, on tied integer codes
    rng = np.random.default_rng(11)
    train_X = rng.integers(0, 3, size=(700, 6)).astype(float)
    train_y = rng.integers(0, 2, size=700)
    test_X = np.vstack([train_X[:150], rng.integers(0, 3, size=(150, 6))])
    for k in (1, 5, 699):
        got = evaluate.knn_predict(train_X, train_y, test_X, k=k)
        assert (got == _knn_reference(train_X, train_y, test_X, k=k)).all()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_knn_overflowing_distances_equal_reference_loop():
    # squared distances overflow to inf, so every row ties at inf and the
    # lower id must still win
    train_X = np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200], [0.0, 0.0]])
    train_y = np.array([0, 1, 1, 0])
    test_X = np.array([[-1e200, -1e200], [1e200, 1e200], [0.0, 1.0]])
    for k in range(1, 5):
        got = evaluate.knn_predict(train_X, train_y, test_X, k=k)
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


@st.composite
def _extend_cases(draw):
    """A running list of k neighbours among older rows, a part of newer rows
    and the queries, drawn from the kinds of ``_knn_cases``."""
    n_older = draw(st.integers(1, 30))
    n_part = draw(st.integers(1, 12))
    d = draw(st.integers(1, 8))
    m = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["gaussian", "codes", "offset", "near-duplicate"]))
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
@given(_extend_cases())
def test_extend_equals_the_merge_of_the_unbounded_lists(case):
    older, part, queries, k = case
    near = evaluate.k_nearest(older, queries, k)
    got = evaluate._extend(near, part, queries, len(older), k)
    dist, cols = evaluate.k_nearest(part, queries, k)
    want = evaluate._merge(near, (dist, cols + len(older)), k)
    assert got[0].shape == want[0].shape == (len(queries), k)
    assert got[0].tobytes() == want[0].tobytes()
    assert (got[1] == want[1]).all()


def test_extend_admits_only_rows_nearer_than_the_running_kth():
    # the running 2nd distance is 2: a newer row at exactly 2 loses the tie
    # to the older, lower id, and a newer row one ulp nearer enters
    older = np.array([[1.0], [2.0], [3.0]])
    queries = np.array([[0.0]])
    near = evaluate.k_nearest(older, queries, 2)
    assert near[0].tolist() == [[1.0, 2.0]]
    nearer = np.nextafter(2.0, 0.0)
    tied = evaluate._extend(near, np.array([[-2.0]]), queries, 3, 2)
    assert tied[0].tolist() == [[1.0, 2.0]] and tied[1].tolist() == [[0, 1]]
    both = evaluate._extend(near, np.array([[-2.0], [-nearer]]), queries, 3, 2)
    assert both[0].tolist() == [[1.0, nearer]] and both[1].tolist() == [[0, 4]]
    # a part with no row within the radius gives only padding
    pad = evaluate.k_nearest(np.array([[5.0], [-6.0]]), queries, 2, radius=near[0][:, -1])
    assert pad[0].tolist() == [[np.inf, np.inf]] and pad[1].tolist() == [[2, 2]]
    # the same where the Gram value of the nearer row rounds above the
    # squared radius: the 2nd distance is 2**-30, and a newer row one ulp
    # of the query nearer must still enter
    q, a = 0.7, 2.0**-30
    queries = np.array([[q]])
    near = evaluate.k_nearest(np.array([[q - a / 2], [q + a]]), queries, 2)
    assert near[0].tolist() == [[a / 2, a]]
    nearer = a - np.spacing(q)
    got = evaluate._extend(near, np.array([[q + 10.0], [q + nearer]]), queries, 2, 2)
    assert got[0].tolist() == [[a / 2, nearer]] and got[1].tolist() == [[0, 3]]


def test_knn_rejects_label_count_mismatch():
    with pytest.raises(ParameterError):
        evaluate.knn_predict(np.zeros((3, 1)), np.array([1, 0]), [[0.0]], k=1)


def test_knn_rejects_query_width_mismatch():
    with pytest.raises(ParameterError):
        evaluate.knn_predict(np.zeros((3, 2)), np.zeros(3), [[0.0, 0.0, 0.0]], k=1)


def test_knn_rejects_non_finite_features():
    with pytest.raises(ParameterError):
        evaluate.knn_predict(np.array([[0.0], [np.nan]]), np.zeros(2), [[0.0]], k=1)
    with pytest.raises(ParameterError):
        evaluate.knn_predict(np.zeros((2, 1)), np.zeros(2), [[np.inf]], k=1)


def _confusion_vectors():
    scores = np.r_[np.ones(50), np.zeros(20), np.ones(10), np.zeros(120)]
    labels = np.r_[np.ones(70, dtype=int), np.zeros(130, dtype=int)]
    return scores, labels


def test_confusion_matrix_worked_example():
    scores, labels = _confusion_vectors()
    report = evaluate.compute_metrics(scores, labels)
    cm = report.confusion
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (50, 10, 20, 120)
    assert report.accuracy == pytest.approx(0.85)
    assert report.precision == pytest.approx(0.8333, abs=1e-4)
    assert report.recall == pytest.approx(0.7143, abs=1e-4)
    assert report.f1 == pytest.approx(0.7692, abs=1e-4)


def test_accuracy_is_threshold_consistent():
    scores, labels = _confusion_vectors()
    report = evaluate.compute_metrics(scores, labels, threshold=0.5)
    cm = report.confusion
    assert report.accuracy == (cm.tp + cm.tn) / cm.total


def test_roc_auc_perfect_ranking():
    auc, _ = evaluate.roc_auc_trapezoidal(
        np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 1, 0, 0])
    )
    assert auc == pytest.approx(1.0)


def test_roc_auc_interleaved_ranking():
    auc, _ = evaluate.roc_auc_trapezoidal(
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
        trap, _ = evaluate.roc_auc_trapezoidal(scores, labels)
        pair = evaluate.roc_auc_pairwise(scores, labels)
        assert abs(trap - pair) <= 1e-9


def test_trapezoidal_auc_needs_no_numpy_integrator(monkeypatch):
    # numpy has renamed its trapezoid integrator before; the AUC must not
    # depend on either name being present
    monkeypatch.delattr(np, "trapz", raising=False)
    monkeypatch.delattr(np, "trapezoid", raising=False)
    scores = np.array([0.9, 0.5, 0.5, 0.5, 0.2, 0.2, 0.1])
    labels = np.array([1, 1, 0, 1, 0, 1, 0])
    trap, _ = evaluate.roc_auc_trapezoidal(scores, labels)
    assert abs(trap - evaluate.roc_auc_pairwise(scores, labels)) <= 1e-12


def test_roc_curve_spans_unit_square():
    rng = np.random.default_rng(2)
    scores = rng.uniform(size=30)
    labels = rng.integers(0, 2, size=30)
    _, pts = evaluate.roc_auc_trapezoidal(scores, labels)
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[-1]) == (1.0, 1.0)


def test_undefined_metrics_are_none_not_zero():
    scores = np.array([0.1, 0.2, 0.3])
    labels = np.zeros(3, dtype=int)
    report = evaluate.compute_metrics(scores, labels)
    assert report.recall is None
    assert report.f1 is None
    assert report.pr_auc is None
    assert report.roc_auc is None
    assert report.precision is None  # nothing predicted positive either


def test_average_precision_step_rule():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    ap, _ = evaluate.average_precision(scores, labels)
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2
    assert ap == pytest.approx((1.0 + 2 / 3) / 2)


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
        test_scores = evaluate.knn_predict(train_X, train_y, X_te, k=k)
        train_scores = evaluate.knn_predict(train_X, train_y, train_X, k=k)
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
            cfg = pipeline.SmoteConfig(target_minority_percent=target, seed=seed)
            _, records, _, _ = pipeline.augment(X_tr, y_tr, cfg, use_aol, row_ids=train_idx)
            aug_X = np.vstack([X_tr] + [r.features for r in records])
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
    # of _EXPERIMENT_GRID except 10; ten majority rows around that point
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
            cfg = pipeline.SmoteConfig(target_minority_percent=target, seed=0)
            result, records, _, _ = pipeline.augment(X[train_idx], y[train_idx], cfg, True)
            counts[target] = (len(result.synthetic), len(records) - len(result.synthetic))
        assert counts[10][0] == 0 and 0 < counts[10.5][0] < 5, name
        if name == "planted-outliers":
            assert all(counts[t][1] > 0 for t in (10.5, 20, 40)), counts


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("aol_flags", [(False, True), (True,), (False,)])
@pytest.mark.parametrize("data", sorted(_EXPERIMENT_DATA))
def test_run_experiment_equals_the_per_row_reference(data, aol_flags, k):
    X, y = _EXPERIMENT_DATA[data]()
    got = evaluate.run_experiment(X, y, _EXPERIMENT_GRID, aol_flags=aol_flags, seed=0, k=k)
    want = _run_experiment_reference(X, y, _EXPERIMENT_GRID, aol_flags=aol_flags, seed=0, k=k)
    assert got == want


def _shared_lengths(X, y, grid):
    """Each target's generated records and its count of leading records
    shared with the longest target's, as run_experiment sees them."""
    train_idx, _ = evaluate.stratified_split(y, 0.2, 0)
    blocks = []
    for target in grid:
        cfg = pipeline.SmoteConfig(target_minority_percent=target, seed=0)
        result, _, _, _ = pipeline.augment(X[train_idx], y[train_idx], cfg, True, row_ids=train_idx)
        blocks.append(np.array([r.features for r in result.synthetic]).reshape(-1, X.shape[1]))
    pool = max(blocks, key=len)
    return blocks, [evaluate._shared_length(g, pool) for g in blocks]


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("data", sorted(_EXPERIMENT_DATA))
def test_run_experiment_does_not_depend_on_grid_order(data, k):
    # targets are scored in order of their shared length, not of the grid,
    # and a repeated target shares all of its records
    grid = (40, 10.5, 20, 40, 10)
    X, y = _EXPERIMENT_DATA[data]()
    _, lengths = _shared_lengths(X, y, grid)
    assert lengths != sorted(lengths) and lengths[0] == lengths[3]
    got = evaluate.run_experiment(X, y, grid, seed=0, k=k)
    assert got == _run_experiment_reference(X, y, grid, seed=0, k=k)


def test_run_experiment_in_many_chunks_equals_the_per_row_reference(monkeypatch):
    # at k = 100 no chunk holds all 500 test and training queries, and some
    # pool segment or target's tail holds fewer than k records
    k = 100
    X, y = _EXPERIMENT_DATA["demo"]()
    blocks, lengths = _shared_lengths(X, y, _EXPERIMENT_GRID)
    tails = [len(g) - n for g, n in zip(blocks, lengths)]
    segments = np.diff(np.unique([0, *lengths])).tolist()
    assert any(0 < n < k for n in tails + segments)
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
    # neighbour pairs of the criterion-09 grid on the demo data at seed 0:
    # 39,510,100 when each target scores all of its records, 12,160,939 when
    # the records the targets share are scored once
    pairs = []
    k_nearest = evaluate.k_nearest

    def counting(train_X, queries, *args, **kwargs):
        pairs.append(len(train_X) * len(queries))
        return k_nearest(train_X, queries, *args, **kwargs)

    monkeypatch.setattr(evaluate, "k_nearest", counting)
    X, y = demo.make_imbalanced_dataset()
    evaluate.run_experiment(X, y, grid=(30, 32, 34, 36, 38, 40, 42, 45, 48, 50), seed=0)
    assert sum(pairs) <= 13_000_000


_augment = pipeline.augment


def _copying_augment(features, labels, config, boost, minority_label=1, row_ids=None):
    """pipeline.augment with every new record moved onto a training row or an
    earlier record, so new records tie in distance with older rows and only
    the lower-id rule orders them."""
    X = np.asarray(features, dtype=float)
    result, records, distances, bounds = _augment(
        X, labels, config, False, minority_label=minority_label, row_ids=row_ids
    )
    rng = np.random.default_rng(len(records))
    rows = rng.integers(0, len(X), len(records))
    records = [dataclasses.replace(r, features=X[i]) for r, i in zip(records, rows)]
    if boost:
        older = list(X) + [r.features for r in records]
        records += [
            dataclasses.replace(records[0], features=older[i], boosted=True)
            for i in rng.integers(0, len(older), len(records) // 2)
        ]
    return result, records, distances, bounds


@pytest.mark.parametrize("k", [1, 5])
def test_run_experiment_ties_across_parts_go_to_the_lower_id(monkeypatch, k):
    monkeypatch.setattr(pipeline, "augment", _copying_augment)
    X, y = _tied_codes()
    got = evaluate.run_experiment(X, y, (20, 40), seed=0, k=k)
    assert got == _run_experiment_reference(X, y, (20, 40), seed=0, k=k)


@pytest.mark.parametrize("aol_flags", [(False, True), (True,), (False,), ()])
def test_run_experiment_augments_once_per_target(monkeypatch, aol_flags):
    calls = []
    augment = pipeline.augment

    def counting(features, labels, config, boost, **kwargs):
        calls.append((config.target_minority_percent, boost))
        return augment(features, labels, config, boost, **kwargs)

    monkeypatch.setattr(pipeline, "augment", counting)
    X, y = _toy()
    rows = evaluate.run_experiment(X, y, grid=(30, 36), aol_flags=aol_flags)
    assert len(rows) == 1 + 2 * len(aol_flags)
    assert calls == ([(30, True in aol_flags), (36, True in aol_flags)] if aol_flags else [])


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
    config = pipeline.SmoteConfig(target_minority_percent=30.0, seed=0)
    result = pipeline.run_smote(
        X[train_idx], y[train_idx], config, row_ids=train_idx
    )
    sources = {r.source_row_id for r in result.synthetic}
    assert sources <= set(train_idx.tolist())
    assert sources.isdisjoint(test_idx.tolist())
