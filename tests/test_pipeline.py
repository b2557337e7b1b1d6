"""Unit tests for centroid/budget arithmetic and the oversampling run."""

import warnings
from fractions import Fraction

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


@pytest.mark.parametrize(
    "minority, budget, last_pass",
    [(1, 2**32 - 1, 2**32 - 1), (1, 2**32, 2**32), (2, 2 * (2**32 - 1), 2**32 - 1), (2, 2 * (2**32 - 1) + 1, 2**32)],
    ids=["full-loops-fit", "full-loops-past", "remainder-none", "remainder-past"],
)
def test_target_counts_rejects_a_last_pass_past_32_bits(minority, budget, last_pass):
    # `keyed` takes each pass number as one 32-bit word; the last pass is the
    # full loops, plus one for a remainder. At 100,000 rows the float target
    # that solves for `budget` yields it exactly.
    total = 100_000
    target = float(100 * Fraction(minority + budget, total + budget))
    if last_pass < 2**32:
        _, s, full_loops, remainder = pipeline.target_counts(total, minority, target)
        assert (s, full_loops + (remainder > 0)) == (budget, last_pass)
        return
    with pytest.raises(ParameterError) as exc:
        pipeline.target_counts(total, minority, target)
    assert str(exc.value) == f"target {target}% needs {last_pass} passes; a pass number must fit 32 bits"


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


def _one_target(X, y, target, boost=False, row_ids=None, **config):
    """The one result of augment_grid for one target."""
    return next(pipeline.augment_grid(X, y, pipeline.SmoteConfig(**config), [target], boost, row_ids))


def test_run_smote_hits_target_share():
    X, y = _toy_dataset()
    result = _one_target(X, y, 30.0, seed=1)
    assert result.generated in (57, 58)
    assert 29.8 <= result.achieved_percent <= 30.2


def test_run_smote_zero_budget_gives_empty_output():
    X, y = _toy_dataset(n=100, minority=50)
    result = _one_target(X, y, 50.0, seed=1)
    assert len(result.records) == 0


def test_run_smote_deterministic():
    X, y = _toy_dataset(seed=2)
    ra = _one_target(X, y, 32.0, seed=9).records
    rb = _one_target(X, y, 32.0, seed=9).records
    assert len(ra) == len(rb)
    for i in range(len(ra)):
        assert np.array_equal(ra.features[i], rb.features[i])
        assert ra.rotation_angle[i] == rb.rotation_angle[i]
        assert ra.source_row_id[i] == rb.source_row_id[i]


def test_run_smote_does_not_mutate_originals():
    X, y = _toy_dataset(seed=3)
    before = X.copy()
    _one_target(X, y, 30.0)
    assert np.array_equal(X, before)


def test_run_smote_sources_are_minority_rows():
    X, y = _toy_dataset(seed=4)
    result = _one_target(X, y, 35.0)
    minority_rows = set(np.nonzero(y == 1)[0].tolist())
    assert set(result.records.source_row_id.tolist()) <= minority_rows


def test_run_smote_loop_structure_covers_full_and_remainder_passes():
    X, y = _toy_dataset(n=200, minority=20, seed=5)
    # t=40 on 20/200: budget (0.4*200-20)/0.6 = 100 -> 5 full loops, 0 remainder
    result = _one_target(X, y, 40.0)
    assert result.full_loops == 5
    assert result.remainder == 0
    assert len(result.records) == result.generated == 100
    # every full loop visits all minority rows exactly once
    counts = {}
    for rid in result.records.source_row_id.tolist():
        counts[rid] = counts.get(rid, 0) + 1
    assert set(counts.values()) == {5}


def test_run_smote_remainder_samples_without_replacement():
    X, y = _toy_dataset(n=200, minority=20, seed=6)
    result = _one_target(X, y, 30.0, seed=4)
    rem = result.remainder
    assert rem > 0
    sources = result.records.source_row_id[-rem:].tolist()
    assert len(sources) == len(set(sources))


def test_run_smote_custom_row_ids_propagate():
    X, y = _toy_dataset(n=100, minority=10, seed=7)
    ids = np.arange(1000, 1100)
    result = _one_target(X, y, 20.0, row_ids=ids)
    assert all(1000 <= rid < 1100 for rid in result.records.source_row_id)


@pytest.mark.parametrize("minority, majority", [(0, 7), (2, 0)])
def test_run_smote_takes_only_0_1_labels(minority, majority):
    X, y = _toy_dataset(n=100, minority=10)
    with pytest.raises(ParameterError, match="labels must be 0/1 with 1 the minority class"):
        _one_target(X, np.where(y == 1, minority, majority), 20.0)
    # a table that is not 2-D fails at the gate, before the row count is compared
    for features in (X[:5, 0], X[:, :, None]):
        with pytest.raises(ParameterError, match=f"^features must be a 2-D table, got {features.ndim} dimension"):
            _one_target(features, y, 20.0)


def test_achieved_share_tracks_grid():
    X, y = _toy_dataset(n=400, minority=40, seed=8)
    for target in (30, 36, 42, 50):
        assert abs(_one_target(X, y, target).achieved_percent - target) <= 0.2


def _planted_outliers():
    # seven near-axis minority rows sit below the IQR fence of the demo data
    X, y = demo.make_imbalanced_dataset(n_rows=300)
    for i, m in zip(np.nonzero(y == 1)[0], [1, 1, 1, 1, 1, 1, 2]):
        X[i] = 0.05
        X[i, :m] = 5.0
    return X, y


@pytest.mark.parametrize("boost", [False, True])
def test_boosting_leaves_the_generated_rows_report_and_pooled_distances_unchanged(boost):
    X, y = _planted_outliers()
    result = _one_target(X, y, 20.0, boost, seed=3, num_bins=3)
    plain = _one_target(X, y, 20.0, seed=3, num_bins=3)
    n = plain.generated
    assert result.generated == len(plain.records) == n
    want = plain.records
    for i in range(n):
        assert np.array_equal(result.records.features[i], want.features[i])
        assert (result.records.rotation_angle[i], result.records.source_row_id[i]) == (
            want.rotation_angle[i], want.source_row_id[i]
        )
        assert not result.records.boosted[i]
    report = ("achieved_percent", "full_loops", "remainder", "bounds")
    assert [getattr(result, name) for name in report] == [getattr(plain, name) for name in report]
    pooled = np.r_[plain.angular_distances, want.angular_distance]
    assert np.array_equal(result.angular_distances, plain.angular_distances)
    assert np.array_equal(result.pooled, pooled) and np.array_equal(plain.pooled, pooled)
    assert result.bounds == aol.detect_outliers(pooled, 3)[0]
    boosted = result.records.boosted[n:]
    assert all(boosted)
    assert bool(len(boosted)) == boost


def test_negative_seed_is_a_parameter_error():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        pipeline.SmoteConfig(seed=-1)
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
        split_factor=draw(st.floats(0.5, 20)),
        shots=draw(st.sampled_from([0, 1, 100])),
        seed=draw(st.integers(0, 2**64)),
        num_bins=draw(st.integers(1, 10)),
        boost_angle_multiplier=draw(st.floats(0, 3)),
    )


_PROBE_CONFIG = pipeline.SmoteConfig(shots=100)


@settings(max_examples=100, deadline=None)
@given(text=_edge_tables(), config=_configs(), first=st.floats(20, 99), second=st.floats(20, 99))
@example(text=_PROBES["1e308"], config=_PROBE_CONFIG, first=45.0, second=30.0)
@example(text=_PROBES["1e-320"], config=_PROBE_CONFIG, first=45.0, second=30.0)
@example(text=_PROBES["zero-row"], config=_PROBE_CONFIG, first=45.0, second=30.0)
# every column mean is exactly 0
@example(text="a,b,label\n1,1,1\n-1,-1,0\n2,-2,0\n-2,2,0\n3,3,0\n-3,-3,0\n", config=_PROBE_CONFIG, first=45.0, second=30.0)
def test_augment_grid_rejects_a_table_or_yields_only_finite_records(text, config, first, second):
    # the modules below the gate do not check what it passed, so it must
    # promise them this: an edge table fails with a DataError or
    # ParameterError, or every target's records are finite, and no step
    # warns on the way
    X, y = _parse(text)
    targets = [first, second]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            results = list(pipeline.augment_grid(X, y, config, targets, True))
        except (DataError, ParameterError):
            return
    assert len(results) == 2
    for result in results:
        assert np.isfinite(result.records.features).all()
        assert np.isfinite(result.pooled).all() and np.isfinite(result.records.rotation_angle).all()
