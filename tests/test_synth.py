"""Unit tests for rotation-angle selection and synthetic generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmote import qdist, statevec, synth
from qsmote.errors import DegenerateInputError, ParameterError
from qsmote.statevec import RX


def test_rotation_angle_above_right_angle_is_fixed_fraction():
    d = np.pi / 2 + 0.2
    got = synth.rotation_angle(d, 10, np.random.default_rng(0))
    assert got == pytest.approx(0.02, abs=1e-12)


def test_rotation_angle_uniform_branch_stays_in_range():
    rng = np.random.default_rng(1)
    for _ in range(200):
        got = synth.rotation_angle(1.0, 10, rng)
        assert 0.0 <= got <= 0.1


def test_rotation_angle_zero_distance_gives_zero():
    assert synth.rotation_angle(0.0, 7, np.random.default_rng(2)) == 0.0


def test_rotation_angle_negative_distance_branch():
    rng = np.random.default_rng(3)
    d = -0.4
    lo = (np.pi / 2 - d) * 0.5 / 10
    hi = (np.pi / 2 - d) / 10
    for _ in range(100):
        got = synth.rotation_angle(d, 10, rng)
        assert lo <= got <= hi


def test_rotation_angle_rejects_nonpositive_split_factor():
    with pytest.raises(ParameterError):
        synth.rotation_angle(1.0, 0, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        synth.rotation_angle(1.0, -2, np.random.default_rng(0))


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
    """Aligned create_syn_data inputs whose rngs are keyed like run_smote's."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 50, size=n)
    passes = rng.integers(1, 4, size=n)
    return dict(
        features=rng.uniform(0.5, 3.0, size=(n, width)),
        distances=rng.uniform(0.0, 2.0, size=n),
        increments=passes * synth.DEGREE,
        sf=10,
        keys=[[seed, int(i), int(k)] for i, k in zip(ids, passes)],
        source_row_ids=ids,
        boosted=boosted,
    )


def _create(keys, **kwargs):
    return synth.create_syn_data(rngs=[np.random.default_rng(k) for k in keys], **kwargs)


def test_create_syn_data_records_provenance():
    (rec,) = synth.create_syn_data(
        [[1.0, 2.0, 3.0]], [1.2], [0.05], 10, [np.random.default_rng(6)], [42]
    )
    assert rec.source_row_id == 42
    assert rec.synthetic is True
    assert rec.boosted is False
    assert rec.angular_distance == pytest.approx(1.2)
    assert 0.05 <= rec.rotation_angle <= 0.05 + 1.2 / 10
    assert rec.features.shape == (3,)
    recs = _create(**_records(boosted=True))
    assert len(recs) == 12 and all(r.boosted and r.synthetic for r in recs)
    assert synth.create_syn_data(np.empty((0, 3)), [], [], 10, [], []) == []


def test_create_syn_data_wraps_runaway_angles():
    (rec,) = synth.create_syn_data(
        [[1.0, 0.0]], [0.0], [2 * np.pi + 0.25], 10, [np.random.default_rng(7)], [-1]
    )
    assert rec.rotation_angle == pytest.approx(0.25)


def test_create_syn_data_deterministic_per_stream():
    a = _create(**_records(seed=3))
    b = _create(**_records(seed=3))
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
        assert x.rotation_angle == y.rotation_angle


def test_batched_create_syn_data_equals_one_record_calls():
    # each record draws only from its own stream, and each row is rotated
    # on its own, so batch size and order change nothing, bit for bit
    inputs = _records(n=40, width=5, seed=9)
    batch = _create(**inputs)
    order = np.random.default_rng(1).permutation(40)
    shuffled = _create(
        **{k: v if k in ("sf", "boosted") else [v[i] for i in order] for k, v in inputs.items()}
    )
    for pos, i in enumerate(order):
        one = _create(
            **{k: v if k in ("sf", "boosted") else v[i : i + 1] for k, v in inputs.items()}
        )
        for rec in (one[0], shuffled[pos]):
            assert np.array_equal(rec.features, batch[i].features)
            assert rec.rotation_angle == batch[i].rotation_angle
            assert rec.angular_distance == batch[i].angular_distance
            assert rec.source_row_id == batch[i].source_row_id


def test_create_syn_data_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        synth.create_syn_data(
            [[1.0], [2.0]], [0.5, 0.5], [0.1, -0.1], 10,
            [np.random.default_rng(0), np.random.default_rng(1)], [0, 1],
        )
    with pytest.raises(ParameterError):
        synth.create_syn_data([[1.0]], [0.5], [0.0], 0, [np.random.default_rng(0)], [0])
    with pytest.raises(DegenerateInputError):
        synth.create_syn_data(
            [[1.0, 2.0], [0.0, 0.0]], [0.5, 0.5], [0.0, 0.0], 10,
            [np.random.default_rng(0), np.random.default_rng(1)], [0, 1],
        )


def _rotate_by_circuit(vec, theta, rescale):
    """The per-vector statevector path: RX(theta) on every qubit, then the real part."""
    padded = qdist.pad_to_power_of_two(vec)
    n = int(np.log2(padded.size))
    state = statevec.initialize(padded, n)
    for q in range(n):
        state = statevec.apply_gate(state, RX(q, theta))
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
