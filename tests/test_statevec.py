"""Unit tests for the statevector simulator."""

import numpy as np
import pytest

import oracles
from oracles import CSWAP, H, RX, X
from qsmote.errors import DegenerateInputError, DimensionError


def test_initialize_basis_state():
    state = oracles.initialize([1, 0], 1)
    assert np.allclose(state.amplitudes, [1, 0])
    assert state.probabilities[0] == pytest.approx(1.0)


def test_initialize_normalizes_uniform_vector():
    state = oracles.initialize([1, 1, 1, 1], 2)
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_initialize_rejects_zero_vector():
    with pytest.raises(DegenerateInputError):
        oracles.initialize([0, 0], 1)


def test_initialize_rejects_length_mismatch():
    with pytest.raises(DimensionError):
        oracles.initialize([1, 0, 0], 2)


def test_rx_zero_angle_is_identity():
    state = oracles.initialize([1, 0], 1)
    out = oracles.apply_gate(state, RX(0, 0.0))
    assert np.allclose(out.amplitudes, [1, 0])


def test_rx_quarter_turn_closed_form():
    state = oracles.initialize([1, 0], 1)
    out = oracles.apply_gate(state, RX(0, np.pi / 2))
    expected = [np.cos(np.pi / 4), -1j * np.sin(np.pi / 4)]
    assert np.allclose(out.amplitudes, expected)
    assert abs(out.amplitudes[0]) == pytest.approx(0.70711, abs=1e-5)


def test_cswap_with_control_one_swaps_targets():
    # |1> (x) |01>  ->  |1> (x) |10>
    amps = np.zeros(8)
    amps[0b101] = 1.0
    state = oracles.initialize(amps, 3)
    out = oracles.apply_gate(state, CSWAP(0, 1, 2))
    expected = np.zeros(8)
    expected[0b110] = 1.0
    assert np.allclose(out.amplitudes, expected)


def test_cswap_with_control_zero_is_identity():
    amps = np.zeros(8)
    amps[0b001] = 1.0
    state = oracles.initialize(amps, 3)
    out = oracles.apply_gate(state, CSWAP(0, 1, 2))
    assert np.allclose(out.amplitudes, amps)


def test_out_of_range_qubit_raises_index_error():
    state = oracles.initialize([1, 0], 1)
    with pytest.raises(IndexError):
        oracles.apply_gate(state, H(1))


def test_measure_plus_state_exact():
    state = oracles.apply_gate(oracles.initialize([1, 0], 1), H(0))
    outcome = oracles.measure_qubit(state, 0, shots=0)
    assert outcome.p0 == pytest.approx(0.5)
    assert outcome.p1 == pytest.approx(0.5)
    assert outcome.p0 + outcome.p1 == pytest.approx(1.0, abs=1e-12)


def test_measure_basis_state_sampled_is_deterministic():
    state = oracles.initialize([1, 0], 1)
    rng = np.random.default_rng(0)
    outcome = oracles.measure_qubit(state, 0, shots=1000, rng=rng)
    assert outcome.counts0 == 1000
    assert outcome.counts1 == 0
    assert outcome.p0 == 1.0


def test_measure_plus_state_sampled_within_binomial_bound():
    state = oracles.apply_gate(oracles.initialize([1, 0], 1), H(0))
    rng = np.random.default_rng(42)
    outcome = oracles.measure_qubit(state, 0, shots=10000, rng=rng)
    assert outcome.counts0 + outcome.counts1 == 10000
    assert abs(outcome.p0 - 0.5) <= 0.02  # 4 sigma of binomial(10000, 0.5)


def _random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return oracles.initialize(amps, n)


def test_norm_preserved_by_every_gate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        state = _random_state(rng, 3)
        for gate in (H(1), X(2), RX(0, rng.uniform(0, 2 * np.pi)), CSWAP(0, 1, 2)):
            state = oracles.apply_gate(state, gate)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-9


def test_x_twice_and_rx_inverse_restore_state():
    rng = np.random.default_rng(4)
    state = _random_state(rng, 2)
    theta = rng.uniform(0, 2 * np.pi)
    via_x = oracles.apply_gate(oracles.apply_gate(state, X(1)), X(1))
    via_rx = oracles.apply_gate(oracles.apply_gate(state, RX(0, theta)), RX(0, -theta))
    assert np.allclose(via_x.amplitudes, state.amplitudes, atol=1e-9)
    assert np.allclose(via_rx.amplitudes, state.amplitudes, atol=1e-9)


def test_exact_vs_sampled_binomial_bound_over_random_states():
    rng = np.random.default_rng(7)
    hits = 0
    for trial in range(100):
        state = _random_state(rng, 3)
        exact = oracles.measure_qubit(state, 0, shots=0)
        sampled = oracles.measure_qubit(
            state, 0, shots=10000, rng=np.random.default_rng([7, trial])
        )
        sigma = np.sqrt(max(exact.p0 * (1 - exact.p0), 1e-12) / 10000)
        if abs(sampled.p0 - exact.p0) <= 4 * sigma:
            hits += 1
    assert hits >= 95


def test_sampled_mode_requires_rng():
    state = oracles.initialize([1, 0], 1)
    with pytest.raises(Exception):
        oracles.measure_qubit(state, 0, shots=10)
