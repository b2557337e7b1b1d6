"""Unit tests for swap-test preparation, the circuit, and distances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qsmote import qdist


def test_prep_equal_unit_vectors():
    states = qdist.prep_swap_test([1, 0], [1, 0])
    assert np.allclose(states.phi, [1 / np.sqrt(2), -1 / np.sqrt(2)])
    # each source contributes components scaled by 1/(norm*sqrt(2)), so
    # the interleaved state is unit-norm
    assert np.allclose(states.psi, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])
    assert np.linalg.norm(states.psi) == pytest.approx(1.0)


def test_prep_equal_norms_force_symmetric_phi():
    states = qdist.prep_swap_test([3, 4], [3, 4])
    assert np.allclose(states.phi, [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_prep_unit_norms():
    states = qdist.prep_swap_test([1, 2, 2, 0], [0, 3, 4, 0])
    assert np.linalg.norm(states.phi) == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(states.psi) == pytest.approx(1.0, abs=1e-3)


def test_swap_test_equal_vectors_exact():
    states = qdist.prep_swap_test([1, 0], [1, 0])
    result = oracles.swap_test(states, shots=0)
    assert result.outcome.p0 == pytest.approx(0.75, abs=1e-9)
    assert result.overlap_probability == pytest.approx(0.5, abs=1e-9)
    assert result.angular_distance == pytest.approx(np.pi / 2, abs=1e-9)


def test_angular_distance_closed_form_endpoints():
    f = qdist.angular_distance_from_probability
    assert f(1.0) == pytest.approx(0.0, abs=1e-12)
    assert f(0.0) == pytest.approx(np.pi, abs=1e-12)
    assert f(0.25) == pytest.approx(2 * np.pi / 3, abs=1e-12)
    assert f(0.5) == pytest.approx(np.pi / 2, abs=1e-12)


def test_angular_distance_monotone_nonincreasing_in_probability():
    ps = np.linspace(0, 1, 101)
    ds = [qdist.angular_distance_from_probability(p) for p in ps]
    assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))


def test_swap_test_sampled_near_exact():
    states = qdist.prep_swap_test([1, 0], [1, 0])
    rng = np.random.default_rng(11)
    result = oracles.swap_test(states, shots=10000, rng=rng)
    assert abs(result.overlap_probability - 0.5) <= 0.03


def test_circuit_matches_density_matrix_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.choice([2, 4, 8, 16]))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        states = qdist.prep_swap_test(a, b)
        circuit = oracles.swap_test(states, shots=0).overlap_probability
        oracle = oracles.overlap_probability_exact(states)
        assert abs(circuit - oracle) <= 1e-9


def test_scale_invariance_of_overlap():
    rng = np.random.default_rng(6)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    base = qdist.prep_swap_test(a, b)
    scaled = qdist.prep_swap_test(3.7 * a, 3.7 * b)
    assert np.allclose(base.phi, scaled.phi, atol=1e-9)
    assert np.allclose(base.psi, scaled.psi, atol=1e-9)
    p_base = oracles.swap_test(base, shots=0).overlap_probability
    p_scaled = oracles.swap_test(scaled, shots=0).overlap_probability
    assert abs(p_base - p_scaled) <= 1e-9


def test_pad_to_power_of_two():
    assert np.allclose(qdist.pad_to_power_of_two([1, 2, 3]), [1, 2, 3, 0])
    assert np.allclose(qdist.pad_to_power_of_two([5]), [5, 0])
    assert np.allclose(qdist.pad_to_power_of_two([1, 2, 3, 4]), [1, 2, 3, 4])


def test_distance_table_row_equal_to_centroid():
    # a row equal to a basis-aligned centroid reproduces the half-turn
    # distance of the equal-unit-vector circuit example, at any scale
    table = qdist.angular_distance_table(np.array([[2.0, 0.0]]), np.array([2.0, 0.0]))
    assert table.shape == (1,)
    assert table[0] == pytest.approx(np.pi / 2, abs=1e-9)


def test_distance_table_empty_input():
    table = qdist.angular_distance_table(np.empty((0, 3)), np.array([1.0, 1.0, 1.0]))
    assert table.shape == (0,)


def test_distance_table_exact_mode_deterministic():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(3, 4))
    center = rng.normal(size=4)
    first = qdist.angular_distance_table(points, center, shots=0, seed=1)
    second = qdist.angular_distance_table(points, center, shots=0, seed=1)
    assert np.array_equal(first, second)


def test_distance_table_sampled_deterministic_per_seed():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(4, 4))
    center = rng.normal(size=4)
    first = qdist.angular_distance_table(points, center, shots=500, seed=3)
    second = qdist.angular_distance_table(points, center, shots=500, seed=3)
    assert np.array_equal(first, second)


_component = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))


@st.composite
def _tables(draw):
    """A nonzero centroid and 1-4 nonzero rows of width 1-70, at scales 1e-3-1e6."""
    width = draw(st.integers(1, 70))
    vectors = st.lists(_component, min_size=width, max_size=width).filter(any)
    scales = st.floats(1e-3, 1e6)
    centroid = np.array(draw(vectors)) * draw(scales)
    points = np.array(draw(st.lists(vectors, min_size=1, max_size=4))) * draw(scales)
    return points, centroid


def _circuit(points, centroid, **kwargs):
    pad = qdist.pad_to_power_of_two
    return [oracles.swap_test(qdist.prep_swap_test(pad(centroid), pad(row)), **kwargs) for row in points]


@settings(max_examples=150, deadline=None)
@given(case=_tables())
@example(case=(np.ones((1, 2)), np.ones(2)))
def test_distance_table_equals_the_swap_test_circuit(case):
    points, centroid = case
    table = qdist.angular_distance_table(points, centroid)
    for d, ref in zip(table, _circuit(points, centroid)):
        p = ref.overlap_probability
        assert abs(np.cos(d / 2) ** 2 - p) <= 1e-12
        # within 1e-6 of p = 0 or 1 the slope of 2*arccos(sqrt(p)) passes 500,
        # so the circuit's few-ulp rounding of p alone moves the distance by
        # more than 1e-12 (at p = 0 exactly the closed form gives pi, the
        # circuit pi - 3e-8); the overlap check above covers those rows
        if 1e-6 <= p <= 1 - 1e-6:
            assert abs(d - ref.angular_distance) <= 1e-12


# exact p1 of 0, 0.109 and 0.326: with 10 shots every n*p1 is at most 30
# (numpy's inversion sampler), with 1000 the last two exceed it (rejection)
_P1_EDGES = (np.array([[1e9, 0.0], [3.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
# exact p1 of 0.5 (overlap 0): a row equal to the centroid, and a tiny row
# parallel to it. The circuit rounds p1 to 0.5 - 1 ulp, and with an odd shot
# count numpy's binomial draws differently on either side of 0.5
_P1_HALF = [(np.ones((1, 2)), np.ones(2)), (np.array([[3.90625e-09, 0.0]]), np.array([1.0, 0.0]))]


@settings(max_examples=60, deadline=None)
@given(
    case=_tables(),
    shots=st.integers(1, 2000),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([2**32, 2**64 + 3])),
)
@example(case=_P1_EDGES, shots=10, seed=2**32)
@example(case=_P1_EDGES, shots=1000, seed=2**64 + 3)
@example(case=_P1_EDGES, shots=1000, seed=5)
@example(case=_P1_HALF[0], shots=107, seed=0)
@example(case=_P1_HALF[1], shots=107, seed=0)
def test_sampled_distance_table_equals_the_circuit_bit_for_bit(case, shots, seed):
    points, centroid = case
    table = qdist.angular_distance_table(points, centroid, shots=shots, seed=seed)
    refs = [
        oracles.swap_test(
            qdist.prep_swap_test(qdist.pad_to_power_of_two(centroid), qdist.pad_to_power_of_two(row)),
            shots=shots,
            rng=np.random.default_rng([seed, i]),
        ).angular_distance
        for i, row in enumerate(points)
    ]
    assert table.tolist() == refs


def test_distance_table_is_exact_at_zero_overlap():
    # a row equal to the centroid [1, 1] has overlap 0 exactly; the circuit
    # rounds p to a few ulp above 0, which the square root turns into 3e-8
    circuit = _circuit(np.ones((1, 2)), np.ones(2))[0].angular_distance
    assert qdist.angular_distance_table(np.ones((1, 2)), np.ones(2))[0] == np.pi
    assert circuit == pytest.approx(np.pi, abs=1e-7)


def test_exact_distance_table_rows_do_not_depend_on_their_batch():
    rng = np.random.default_rng(12)
    for width in (1, 3, 8, 21, 70):
        points = rng.normal(size=(300, width)) * rng.uniform(1e-3, 1e6, size=(300, 1))
        centroid = rng.normal(size=width)
        table = qdist.angular_distance_table(points, centroid)
        order = rng.permutation(len(points))
        assert qdist.angular_distance_table(points[order], centroid).tolist() == table[order].tolist()
        split = np.r_[
            qdist.angular_distance_table(points[:1], centroid),
            qdist.angular_distance_table(points[1:117], centroid),
            qdist.angular_distance_table(points[117:], centroid),
        ]
        assert split.tolist() == table.tolist()
