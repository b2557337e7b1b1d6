"""Unit tests for centroid/budget arithmetic and the oversampling run."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsmote import aol, data, demo, evaluate, pipeline
from qsmote.errors import DataError, ParameterError
from test_cli import _PROBES, _edge_tables


def test_centroid_mean_of_rows():
    assert np.allclose(pipeline.centroid(np.array([[0.0, 0.0], [2.0, 2.0]])), [1.0, 1.0])


def test_centroid_single_row_is_identity():
    row = np.array([[3.0, 1.0, 4.0]])
    assert np.allclose(pipeline.centroid(row), row[0])


def test_centroid_rejects_empty_table():
    with pytest.raises(ParameterError):
        pipeline.centroid(np.empty((0, 3)))


def test_target_counts_worked_example():
    target_count, s, loops, remainder = pipeline.target_counts(1000, 100, 30)
    assert (target_count, s, loops, remainder) == (386, 286, 2, 86)


def test_target_counts_already_at_target():
    _, s, loops, remainder = pipeline.target_counts(1000, 500, 50)
    assert (s, loops, remainder) == (0, 0, 0)


def test_target_counts_half_split():
    _, s, _, _ = pipeline.target_counts(200, 20, 50)
    assert s == 160


def test_target_counts_rounds_half_up():
    # raw budget (0.3*1000 - 100) / 0.7 = 285.71... rounds up to 286
    _, s, _, _ = pipeline.target_counts(1000, 100, 30)
    assert s == 286


def test_target_counts_rejects_target_below_current_share():
    with pytest.raises(ParameterError):
        pipeline.target_counts(1000, 500, 40)


def test_target_counts_rejects_degenerate_counts():
    with pytest.raises(ParameterError):
        pipeline.target_counts(100, 0, 30)
    with pytest.raises(ParameterError):
        pipeline.target_counts(100, 100, 30)
    with pytest.raises(ParameterError):
        pipeline.target_counts(100, 10, 0)


def _toy_dataset(n=200, minority=20, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 5.0, size=(n, 4))
    y = np.r_[np.ones(minority, dtype=int), np.zeros(n - minority, dtype=int)]
    return X, y


def test_run_smote_hits_target_share():
    X, y = _toy_dataset()
    config = pipeline.SmoteConfig(target_minority_percent=30.0, seed=1)
    result = pipeline.run_smote(X, y, config)
    assert len(result.synthetic) in (57, 58)
    assert 29.8 <= result.report.achieved_percent <= 30.2


def test_run_smote_zero_budget_gives_empty_output():
    X, y = _toy_dataset(n=100, minority=50)
    config = pipeline.SmoteConfig(target_minority_percent=50.0, seed=1)
    result = pipeline.run_smote(X, y, config)
    assert len(result.synthetic) == 0


def test_run_smote_deterministic():
    X, y = _toy_dataset(seed=2)
    config = pipeline.SmoteConfig(target_minority_percent=32.0, seed=9)
    a = pipeline.run_smote(X, y, config)
    b = pipeline.run_smote(X, y, config)
    assert len(a.synthetic) == len(b.synthetic)
    ra, rb = a.synthetic, b.synthetic
    for i in range(len(ra)):
        assert np.array_equal(ra.features[i], rb.features[i])
        assert ra.rotation_angle[i] == rb.rotation_angle[i]
        assert ra.source_row_id[i] == rb.source_row_id[i]


def test_run_smote_does_not_mutate_originals():
    X, y = _toy_dataset(seed=3)
    before = X.copy()
    pipeline.run_smote(X, y, pipeline.SmoteConfig(target_minority_percent=30.0))
    assert np.array_equal(X, before)


def test_run_smote_sources_are_minority_rows():
    X, y = _toy_dataset(seed=4)
    result = pipeline.run_smote(X, y, pipeline.SmoteConfig(target_minority_percent=35.0))
    minority_rows = set(np.nonzero(y == 1)[0].tolist())
    assert set(result.synthetic.source_row_id.tolist()) <= minority_rows


def test_run_smote_loop_structure_covers_full_and_remainder_passes():
    X, y = _toy_dataset(n=200, minority=20, seed=5)
    # t=40 on 20/200: budget (0.4*200-20)/0.6 = 100 -> 5 full loops, 0 remainder
    result = pipeline.run_smote(X, y, pipeline.SmoteConfig(target_minority_percent=40.0))
    assert result.report.full_loops == 5
    assert result.report.remainder == 0
    assert len(result.synthetic) == 100
    # every full loop visits all minority rows exactly once
    counts = {}
    for rid in result.synthetic.source_row_id.tolist():
        counts[rid] = counts.get(rid, 0) + 1
    assert set(counts.values()) == {5}


def test_run_smote_remainder_samples_without_replacement():
    X, y = _toy_dataset(n=200, minority=20, seed=6)
    result = pipeline.run_smote(X, y, pipeline.SmoteConfig(target_minority_percent=30.0, seed=4))
    rem = result.report.remainder
    assert rem > 0
    sources = result.synthetic.source_row_id[-rem:].tolist()
    assert len(sources) == len(set(sources))


def test_run_smote_custom_row_ids_propagate():
    X, y = _toy_dataset(n=100, minority=10, seed=7)
    ids = np.arange(1000, 1100)
    result = pipeline.run_smote(
        X, y, pipeline.SmoteConfig(target_minority_percent=20.0), row_ids=ids
    )
    assert all(1000 <= rid < 1100 for rid in result.synthetic.source_row_id)


@pytest.mark.parametrize("minority, majority", [(0, 7), (2, 0)])
def test_run_smote_takes_only_0_1_labels(minority, majority):
    X, y = _toy_dataset(n=100, minority=10)
    with pytest.raises(ParameterError, match="labels must be 0/1 with 1 the minority class"):
        pipeline.run_smote(X, np.where(y == 1, minority, majority), pipeline.SmoteConfig(target_minority_percent=20.0))


def test_achieved_share_tracks_grid():
    X, y = _toy_dataset(n=400, minority=40, seed=8)
    for target in (30, 36, 42, 50):
        result = pipeline.run_smote(X, y, pipeline.SmoteConfig(target_minority_percent=target))
        assert abs(result.report.achieved_percent - target) <= 0.2


def _planted_outliers():
    # seven near-axis minority rows sit below the IQR fence of the demo data
    X, y = demo.make_imbalanced_dataset(n_rows=300)
    for i, m in zip(np.nonzero(y == 1)[0], [1, 1, 1, 1, 1, 1, 2]):
        X[i] = 0.05
        X[i, :m] = 5.0
    return X, y


@pytest.mark.parametrize("boost", [False, True])
def test_augment_is_run_smote_then_the_outlier_stage(boost):
    X, y = _planted_outliers()
    config = pipeline.SmoteConfig(target_minority_percent=20.0, seed=3, num_bins=3)
    result, records, distances, bounds = pipeline.augment(X, y, config, boost)
    plain = pipeline.run_smote(X, y, config)
    n = len(plain.synthetic)
    assert len(result.synthetic) == n
    want = plain.synthetic
    for i in range(n):
        assert np.array_equal(records.features[i], want.features[i])
        assert (records.rotation_angle[i], records.source_row_id[i]) == (
            want.rotation_angle[i], want.source_row_id[i]
        )
        assert not records.boosted[i]
    pooled = np.r_[plain.angular_distances, plain.synthetic.angular_distance]
    assert np.array_equal(distances, pooled)
    assert bounds == aol.detect_outliers(pooled, config.num_bins)[0]
    boosted = records.boosted[n:]
    assert all(boosted)
    assert bool(len(boosted)) == boost


def test_negative_seed_is_a_parameter_error():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        pipeline.SmoteConfig(target_minority_percent=30, seed=-1)
    X, y = _toy_dataset()
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        evaluate.run_experiment(X, y, [30], seed=-1)


def _parse(text):
    """Features and 0/1 labels of an encoded CSV's text, its rarest label as 1, as the CLI maps them."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    X = np.array([[float(c) for c in row[:-1]] for row in rows])
    y = np.array([int(row[-1]) for row in rows])
    return X, (y == data.minority_label(y)).astype(int)


@st.composite
def _configs(draw):
    return pipeline.SmoteConfig(
        target_minority_percent=draw(st.floats(20, 99)),
        split_factor=draw(st.floats(0.5, 20)),
        shots=draw(st.sampled_from([0, 1, 100])),
        seed=draw(st.integers(0, 2**64)),
        num_bins=draw(st.integers(1, 10)),
        boost_angle_multiplier=draw(st.floats(0, 3)),
    )


_PROBE_CONFIG = pipeline.SmoteConfig(target_minority_percent=45.0, shots=100)


@settings(max_examples=100, deadline=None)
@given(text=_edge_tables(), config=_configs(), second=st.floats(20, 99))
@example(text=_PROBES["1e308"], config=_PROBE_CONFIG, second=30.0)
@example(text=_PROBES["1e-320"], config=_PROBE_CONFIG, second=30.0)
@example(text=_PROBES["zero-row"], config=_PROBE_CONFIG, second=30.0)
# every column mean is exactly 0
@example(text="a,b,label\n1,1,1\n-1,-1,0\n2,-2,0\n-2,2,0\n3,3,0\n-3,-3,0\n", config=_PROBE_CONFIG, second=30.0)
def test_augment_grid_rejects_a_table_or_yields_only_finite_records(text, config, second):
    # the modules below the gate do not check what it passed, so it must
    # promise them this: an edge table fails with a DataError or
    # ParameterError, or every target's records are finite, and no step
    # warns on the way
    X, y = _parse(text)
    targets = [config.target_minority_percent, second]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            results = list(pipeline.augment_grid(X, y, config, targets, True))
        except (DataError, ParameterError):
            return
    assert len(results) == 2
    for _, records, distances, _ in results:
        assert np.isfinite(records.features).all()
        assert np.isfinite(distances).all() and np.isfinite(records.rotation_angle).all()
