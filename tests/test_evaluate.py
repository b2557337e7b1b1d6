"""Unit tests for KNN scoring, metrics, and the experiment harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmote import evaluate, pipeline
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
