"""Unit tests for rotation-angle selection and synthetic generation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import RX
from qsmote import keyed, qdist, synth
from qsmote.errors import DegenerateInputError


def test_rotation_angle_above_right_angle_is_fixed_fraction():
    d = np.pi / 2 + 0.2
    got = synth.rotation_angle(d, 10, 0.7)
    assert got == pytest.approx(0.02, abs=1e-12)


_U = np.linspace(0.0, 1.0, 200, endpoint=False)


def test_rotation_angle_uniform_branch_stays_in_range():
    got = synth.rotation_angle(np.full(200, 1.0), 10, _U)
    assert ((0.0 <= got) & (got <= 0.1)).all()


def test_rotation_angle_zero_distance_gives_zero():
    assert synth.rotation_angle(0.0, 7, 0.3) == 0.0


def test_rotation_angle_negative_distance_branch():
    d = -0.4
    lo = (np.pi / 2 - d) * 0.5 / 10
    hi = (np.pi / 2 - d) / 10
    got = synth.rotation_angle(np.full(200, d), 10, _U)
    assert ((lo <= got) & (got <= hi)).all()


def _rotation_angle_per_key(d, sf, key):
    """The per-record form: draw from the record's own Generator in each branch."""
    rng = np.random.default_rng(key)
    if d > np.pi / 2:
        return abs(np.pi / 2 - d) / sf
    if d < 0:
        return abs((np.pi / 2 - d) * rng.uniform(0.5, 1.0)) / sf
    if d == 0.0:
        return 0.0
    return rng.uniform(0.0, d) / sf


@settings(max_examples=100, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.just(2**64 + 3)),
    distances=st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, np.pi / 2, -0.0])), min_size=1, max_size=20
    ),
    sf=st.floats(0.5, 20.0),
)
def test_rotation_angle_of_keyed_draws_equals_per_key_generators(seed, distances, sf):
    ids, passes = np.arange(len(distances)) * 7, np.arange(len(distances)) % 3 + 1
    got = synth.rotation_angle(distances, sf, keyed.uniform(seed, ids, passes))
    want = [_rotation_angle_per_key(d, sf, [seed, int(i), int(k)]) for d, i, k in zip(distances, ids, passes)]
    assert got.tolist() == want


def test_rotate_point_single_qubit_closed_form():
    raw = synth.rotate_point([1.0, 0.0], np.pi / 2, rescale=False)
    assert np.allclose(raw, [np.cos(np.pi / 4), 0.0])
    rescaled = synth.rotate_point([1.0, 0.0], np.pi / 2, rescale=True)
    assert np.allclose(rescaled, [1.0, 0.0])


def test_rotate_point_two_qubit_half_turn():
    raw = synth.rotate_point([1.0, 0.0, 0.0, 0.0], np.pi, rescale=False)
    assert np.allclose(raw, [0.0, 0.0, 0.0, -1.0], atol=1e-12)


def test_rotate_point_zero_angle_is_exact_identity():
    feats = np.array([0.3, 1.7, 2.2])
    out = synth.rotate_point(feats, 0.0)
    assert np.array_equal(out, feats)
    # in a table, only the rows with theta = 0 come back exactly
    table = np.array([feats, feats, 2 * feats])
    out = synth.rotate_point(table, [0.0, 0.3, 0.0])
    assert np.array_equal(out[[0, 2]], table[[0, 2]])
    assert not np.array_equal(out[1], feats)


def test_rotate_point_rejects_zero_vector():
    with pytest.raises(DegenerateInputError):
        synth.rotate_point([0.0, 0.0], 0.1)
    with pytest.raises(DegenerateInputError):
        synth.rotate_point([[1.0, 2.0], [0.0, 0.0]], [0.1, 0.2])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rotate_point_rejects_annihilated_real_part():
    # the second row's norm overflows, so its normalized state and real part are zero
    with pytest.raises(DegenerateInputError, match="rotation by 0.2 annihilated"):
        synth.rotate_point([[1.0, 0.0], [1e308, 1e308]], [0.1, 0.2])


def test_rotate_point_preserves_norm_when_rescaling():
    # rescaling happens on the padded vector before stripping, so the
    # norm is exact at power-of-two sizes and close otherwise (a small
    # fraction of the norm leaks into the padding components)
    rng = np.random.default_rng(4)
    for _ in range(50):
        size = int(rng.choice([2, 4, 8]))
        feats = rng.normal(size=size)
        out = synth.rotate_point(feats, rng.uniform(0, 0.3), rescale=True)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(feats), abs=1e-9)
        assert out.shape == feats.shape
    for _ in range(50):
        size = int(rng.choice([3, 5, 6, 7]))
        feats = rng.normal(size=size)
        out = synth.rotate_point(feats, rng.uniform(0, 0.05), rescale=True)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(feats), rel=0.02)
        assert out.shape == feats.shape


def test_rotation_locality_for_small_angles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        size = int(rng.integers(2, 9))
        feats = rng.uniform(0.5, 3.0, size=size)
        theta = rng.uniform(0, 0.05)
        n = int(np.ceil(np.log2(max(size, 2))))
        out = synth.rotate_point(feats, theta, rescale=True)
        rel = np.linalg.norm(out - feats) / np.linalg.norm(feats)
        assert rel <= 2 * np.sin(n * theta / 2) + 1e-6


def _records(n=12, width=3, seed=0, boosted=False):
    """Aligned create_syn_data inputs whose draws are keyed like augment_grid's."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 50, size=n)
    passes = rng.integers(1, 4, size=n)
    return dict(
        features=rng.uniform(0.5, 3.0, size=(n, width)),
        distances=rng.uniform(0.0, 2.0, size=n),
        increments=passes * synth.DEGREE,
        sf=10,
        u=keyed.uniform(seed, ids, passes),
        source_row_ids=ids,
        boosted=boosted,
    )


def test_create_syn_data_records_provenance():
    rec = synth.create_syn_data([[1.0, 2.0, 3.0]], [1.2], [0.05], 10, [0.4], [42])
    assert len(rec) == 1
    assert rec.source_row_id[0] == 42
    assert rec.boosted.tolist() == [False]
    assert rec.angular_distance[0] == pytest.approx(1.2)
    assert rec.rotation_angle[0] == pytest.approx(0.05 + 1.2 * 0.4 / 10)
    assert rec.features[0].shape == (3,)
    recs = synth.create_syn_data(**_records(boosted=True))
    assert len(recs) == 12 and all(recs.boosted)
    assert len(synth.create_syn_data(np.empty((0, 3)), [], [], 10, [], [])) == 0


def test_records_concat_keeps_rows_in_order():
    a = synth.create_syn_data(**_records(n=5, seed=1))
    b = synth.create_syn_data(**_records(n=3, seed=2, boosted=True))
    empty = synth.create_syn_data(np.empty((0, 3)), [], [], 10, [], [])
    assert empty.features.shape == (0, 3)
    assert empty.source_row_id.dtype.kind == "i" and empty.boosted.dtype == bool
    both = synth.Records.concat([a, empty, b])
    assert len(both) == 8 and both.features.shape == (8, 3)
    assert np.array_equal(both.features, np.vstack([a.features, b.features]))
    assert both.source_row_id.tolist() == a.source_row_id.tolist() + b.source_row_id.tolist()
    assert both.rotation_angle.tolist() == a.rotation_angle.tolist() + b.rotation_angle.tolist()
    assert both.angular_distance.tolist() == a.angular_distance.tolist() + b.angular_distance.tolist()
    assert both.boosted.tolist() == [False] * 5 + [True] * 3
    none = synth.Records.concat([empty, empty])
    assert len(none) == 0 and none.features.shape == (0, 3)


def test_create_syn_data_wraps_runaway_angles():
    rec = synth.create_syn_data([[1.0, 0.0]], [0.0], [2 * np.pi + 0.25], 10, [0.6], [-1])
    assert len(rec) == 1
    assert rec.rotation_angle[0] == pytest.approx(0.25)


def test_create_syn_data_deterministic_per_stream():
    a = synth.create_syn_data(**_records(seed=3))
    b = synth.create_syn_data(**_records(seed=3))
    for i in range(len(a)):
        assert np.array_equal(a.features[i], b.features[i])
        assert a.rotation_angle[i] == b.rotation_angle[i]


def test_batched_create_syn_data_equals_one_record_calls():
    # each record's draw is keyed on the record alone, and each row is
    # rotated on its own, so batch size and order change nothing, bit for bit
    inputs = _records(n=40, width=5, seed=9)
    batch = synth.create_syn_data(**inputs)
    order = np.random.default_rng(1).permutation(40)
    shuffled = synth.create_syn_data(
        **{k: v if k in ("sf", "boosted") else [v[i] for i in order] for k, v in inputs.items()}
    )
    for pos, i in enumerate(order):
        one = synth.create_syn_data(
            **{k: v if k in ("sf", "boosted") else v[i : i + 1] for k, v in inputs.items()}
        )
        for recs, j in ((one, 0), (shuffled, pos)):
            assert np.array_equal(recs.features[j], batch.features[i])
            assert recs.rotation_angle[j] == batch.rotation_angle[i]
            assert recs.angular_distance[j] == batch.angular_distance[i]
            assert recs.source_row_id[j] == batch.source_row_id[i]


def test_create_syn_data_rejects_bad_inputs():
    with pytest.raises(DegenerateInputError):
        synth.create_syn_data([[1.0, 2.0], [0.0, 0.0]], [0.5, 0.5], [0.0, 0.0], 10, [0.1, 0.2], [0, 1])


def _rotate_by_circuit(vec, theta, rescale):
    """The per-vector statevector path: RX(theta) on every qubit, then the real part."""
    padded = qdist.pad_to_power_of_two(vec)
    n = int(np.log2(padded.size))
    state = oracles.initialize(padded, n)
    for q in range(n):
        state = oracles.apply_gate(state, RX(q, theta))
    real = np.real(state.amplitudes)
    if rescale:
        real = real / np.linalg.norm(real) * np.linalg.norm(vec)
    return real[: len(vec)]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 6),
    width=st.integers(1, 70),
    scale=st.floats(1e-3, 1e6),
    seed=st.integers(0, 2**32 - 1),
    rescale=st.booleans(),
)
# the second row's angle is 1.2e-4 short of pi, so its real part is 8e-5
# of the input, and rescaling magnifies any rounding in it about 1e4-fold
@example(rows=5, width=5, scale=1.0, seed=97456, rescale=True)
def test_rotate_point_equals_the_statevector_circuit(rows, width, scale, seed, rescale):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(rows, width)) * scale
    theta = rng.uniform(0.0, 2 * np.pi, size=rows)
    got = synth.rotate_point(table, theta, rescale=rescale)
    assert got.shape == table.shape
    for vec, t, row in zip(table, theta, got):
        # with rescale off the rotated state has unit norm
        tol = 1e-12 * (np.linalg.norm(vec) if rescale else 1.0)
        assert np.abs(row - _rotate_by_circuit(vec, t, rescale)).max() <= tol


def _angle_for_real_norm(real_norm, qubits):
    """The angle whose RX on an odd number of qubits leaves |0...0> a real part of this norm.

    That norm is sqrt((1 + cos(theta)^n) / 2), so theta = pi - phi with
    cos(phi)^n = 1 - 2 real_norm^2, solved without cancellation.
    """
    half_versine = -np.expm1(np.log1p(-2 * real_norm**2) / qubits) / 2  # (1 - cos(phi)) / 2
    return np.pi - 2 * np.arcsin(np.sqrt(half_versine))


@pytest.mark.parametrize("qubits", [1, 3, 5])
@pytest.mark.parametrize("real_norm", [1e-1, 1e-2, 1e-6])
def test_rotate_point_equals_the_circuit_where_the_real_part_is_small(real_norm, qubits):
    vec = np.zeros(2**qubits)
    vec[0] = 3.0
    theta = _angle_for_real_norm(real_norm, qubits)
    raw = synth.rotate_point(vec, theta, rescale=False)
    assert np.linalg.norm(raw) == pytest.approx(real_norm, rel=1e-6)
    got = synth.rotate_point(vec, theta)
    assert np.abs(got - _rotate_by_circuit(vec, theta, True)).max() <= 1e-12 * np.linalg.norm(vec)
