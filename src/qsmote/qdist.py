"""Compact swap test and angular distances.

Two classical vectors are folded into a 2-amplitude norm state and an
interleaved component state; a single controlled-SWAP between the norm
qubit and the leading component qubit yields an overlap probability,
from which the angular distance 2*arccos(sqrt(p)) is derived.
"""

from dataclasses import dataclass

import numpy as np

from . import statevec
from .errors import DegenerateInputError, DimensionError
from .statevec import CSWAP, H, X, MeasurementOutcome

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SwapTestStates:
    phi: np.ndarray       # [|a|/sqrt(z), -|b|/sqrt(z)]
    psi: np.ndarray       # interleaved a/b components, unit norm
    z: float              # |a|^2 + |b|^2
    dc_norm: float
    md_norm: float


@dataclass(frozen=True)
class SwapTestResult:
    overlap_probability: float
    angular_distance: float
    euclid_dissimilarity: float
    outcome: MeasurementOutcome


def prep_swap_test(point_a, point_b):
    """Build the norm state phi and interleaved state psi for two vectors.

    Inputs must already be zero-padded to a power-of-two length.
    """
    a = np.asarray(point_a, dtype=float).ravel()
    b = np.asarray(point_b, dtype=float).ravel()
    if a.size != b.size:
        raise DimensionError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0 or (a.size & (a.size - 1)) != 0:
        raise DimensionError(f"length must be a power of two, got {a.size}")
    dc_norm = float(np.linalg.norm(a))
    md_norm = float(np.linalg.norm(b))
    if dc_norm == 0.0 or md_norm == 0.0:
        raise DegenerateInputError("swap test inputs must be nonzero")
    z = dc_norm**2 + md_norm**2
    phi = np.array([dc_norm / np.sqrt(z), -md_norm / np.sqrt(z)])
    psi = np.empty(2 * a.size)
    psi[0::2] = a / (dc_norm * SQRT2)
    psi[1::2] = b / (md_norm * SQRT2)
    return SwapTestStates(phi=phi, psi=psi, z=z, dc_norm=dc_norm, md_norm=md_norm)


def _clamp01(x):
    return min(max(float(x), 0.0), 1.0)


def angular_distance_from_probability(p):
    """2 * arccos(sqrt(p)), the angle the overlap probability encodes."""
    return 2.0 * np.arccos(np.sqrt(_clamp01(p)))


def _overlap_from_counts(outcome, estimator):
    if estimator == "standard":
        return _clamp01(outcome.p0 - outcome.p1)
    if estimator == "paper-literal":
        return _clamp01(1.0 - 2.0 * outcome.p0 + outcome.p1)
    raise ValueError(f"unknown estimator {estimator!r}")


def swap_test(states, shots=0, rng=None, estimator="standard"):
    """Run the compact swap-test circuit on prepared states.

    Registers: control qubit, one qubit holding phi, log2(len(psi))
    qubits holding psi. X flips the leading psi qubit, then the control
    drives H-CSWAP-H and is measured.
    """
    psi = np.asarray(states.psi, dtype=float)
    m = int(np.log2(psi.size))
    if 2**m != psi.size or m < 1:
        raise DimensionError(f"psi length must be a power of two >= 2, got {psi.size}")
    n = 2 + m
    full = np.kron(np.array([1.0, 0.0]), np.kron(states.phi, psi))
    state = statevec.initialize(full, n)
    state = statevec.apply_gate(state, X(2))        # leading psi qubit
    state = statevec.apply_gate(state, H(0))
    state = statevec.apply_gate(state, CSWAP(0, 1, 2))
    state = statevec.apply_gate(state, H(0))
    outcome = statevec.measure_qubit(state, 0, shots=shots, rng=rng)
    p = _overlap_from_counts(outcome, estimator)
    return SwapTestResult(
        overlap_probability=p,
        angular_distance=float(angular_distance_from_probability(p)),
        euclid_dissimilarity=float(np.sqrt(2.0 * states.z * p)),
        outcome=outcome,
    )


def overlap_probability_exact(states):
    """Reduced-density-matrix oracle for the exact ancilla marginal.

    Independent of the full circuit: after X on the leading psi qubit,
    p0 = (1 + <phi| rho |phi>) / 2 with rho the reduced state of that
    qubit. Returns the standard-estimator overlap p0 - p1 = 2*p0 - 1.
    """
    psi = np.asarray(states.psi, dtype=float)
    psi = psi / np.linalg.norm(psi)
    half = psi.reshape(2, -1)[::-1]               # X on the leading qubit
    rho = half @ half.T
    p0 = 0.5 * (1.0 + float(states.phi @ rho @ states.phi) / float(states.phi @ states.phi))
    return _clamp01(2.0 * p0 - 1.0)


def pad_to_power_of_two(vec):
    """Zero-pad a vector to the next power-of-two length (minimum 2)."""
    v = np.asarray(vec, dtype=float).ravel()
    if v.size == 0:
        raise DimensionError("empty vector")
    target = max(2, 1 << (v.size - 1).bit_length())
    if v.size == target:
        return v.copy()
    return np.concatenate([v, np.zeros(target - v.size)])


def angular_distance_table(points, centroid, shots=0, seed=0, estimator="standard"):
    """Angular distance of every row to the centroid.

    Each row draws its shot noise from an rng stream keyed on
    (seed, row_index) so rows are independent and order-insensitive.
    """
    centroid = np.asarray(centroid, dtype=float).ravel()
    out = np.empty(len(points))
    for i, row in enumerate(points):
        row = np.asarray(row, dtype=float).ravel()
        if row.size != centroid.size:
            raise DimensionError(f"row {i}: length {row.size} != centroid {centroid.size}")
        try:
            states = prep_swap_test(
                pad_to_power_of_two(centroid), pad_to_power_of_two(row)
            )
            rng = np.random.default_rng([seed, i]) if shots > 0 else None
            res = swap_test(states, shots=shots, rng=rng, estimator=estimator)
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"row {i}: {exc}") from exc
        out[i] = res.angular_distance
    return out
