"""Dense complex statevector simulator.

Supports exactly the gates of the swap-test and rotation circuits: H, X,
RX and CSWAP, plus exact single-qubit marginals and seeded shot sampling.
The production paths batch whole tables; this simulator is their oracle.
Qubit ordering is big-endian: qubit 0 is the most significant bit of the
basis-state index. States are immutable; every gate returns a new state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray
    num_qubits: int

    @property
    def probabilities(self):
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class MeasurementOutcome:
    p0: float
    p1: float
    shots: int
    counts0: int
    counts1: int


@dataclass(frozen=True)
class H:
    qubit: int


@dataclass(frozen=True)
class X:
    qubit: int


@dataclass(frozen=True)
class RX:
    qubit: int
    theta: float


@dataclass(frozen=True)
class CSWAP:
    control: int
    a: int
    b: int


def initialize(amplitudes, num_qubits):
    """Normalize an amplitude array into an n-qubit state."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    if num_qubits < 1:
        raise DimensionError(f"need at least 1 qubit, got {num_qubits}")
    if amps.size != 2**num_qubits:
        raise DimensionError(
            f"expected {2**num_qubits} amplitudes for {num_qubits} qubits, got {amps.size}"
        )
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise DegenerateInputError("zero vector cannot be encoded as a state")
    amps = amps / norm
    amps.setflags(write=False)
    return StateVector(amps, num_qubits)


def _check_qubit(state, q):
    if not 0 <= q < state.num_qubits:
        raise IndexError(f"qubit {q} out of range for {state.num_qubits}-qubit state")


def _apply_single(state, q, matrix):
    n = state.num_qubits
    t = state.amplitudes.reshape((2,) * n)
    t = np.moveaxis(t, q, 0)
    t = (matrix @ t.reshape(2, -1)).reshape((2,) * n)
    t = np.moveaxis(t, 0, q)
    out = np.ascontiguousarray(t.reshape(-1))
    out.setflags(write=False)
    return StateVector(out, n)


def _apply_cswap(state, control, a, b):
    n = state.num_qubits
    idx = np.arange(2**n)
    c_bit = (idx >> (n - 1 - control)) & 1
    a_bit = (idx >> (n - 1 - a)) & 1
    b_bit = (idx >> (n - 1 - b)) & 1
    flip = (c_bit == 1) & (a_bit != b_bit)
    src = np.where(flip, idx ^ ((1 << (n - 1 - a)) | (1 << (n - 1 - b))), idx)
    out = state.amplitudes[src].copy()
    out.setflags(write=False)
    return StateVector(out, n)


def apply_gate(state, gate):
    """Apply one supported gate, returning a new state."""
    if isinstance(gate, H):
        _check_qubit(state, gate.qubit)
        return _apply_single(state, gate.qubit, _H)
    if isinstance(gate, X):
        _check_qubit(state, gate.qubit)
        return _apply_single(state, gate.qubit, _X)
    if isinstance(gate, RX):
        _check_qubit(state, gate.qubit)
        return _apply_single(state, gate.qubit, _rx(gate.theta))
    if isinstance(gate, CSWAP):
        qs = (gate.control, gate.a, gate.b)
        for q in qs:
            _check_qubit(state, q)
        if len(set(qs)) != 3:
            raise IndexError(f"CSWAP qubits must be pairwise distinct, got {qs}")
        return _apply_cswap(state, *qs)
    raise TypeError(f"unsupported gate {gate!r}")


def sampling_probability(p):
    """p rounded to a multiple of 2**-32, the probability a sampled run draws from.

    numpy's binomial sampler jumps at p = 0.5 and wherever (shots + 1) * p
    is an integer, so two computations of one marginal that differ in the
    last few bits (this simulator and a closed form) can draw different
    counts from the same generator. Rounding both to 2**-32 makes them
    draw the same count, exactly so at 0, 0.5 and 1; it moves p by at most
    2**-33, far below the sampling error of any shot count.
    """
    return np.ldexp(np.rint(np.ldexp(p, 32)), -32)


def measure_qubit(state, qubit, shots=0, rng=None):
    """Measure one qubit in the computational basis.

    shots=0 returns the exact marginal; shots>0 draws a binomial sample
    of `sampling_probability(p1)` from the caller-supplied generator
    (required so every sampled run is seeded from the pipeline config).
    """
    _check_qubit(state, qubit)
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    n = state.num_qubits
    idx = np.arange(2**n)
    mask = ((idx >> (n - 1 - qubit)) & 1) == 1
    p1 = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    p1 = min(max(p1, 0.0), 1.0)
    p0 = 1.0 - p1
    if shots == 0:
        return MeasurementOutcome(p0=p0, p1=p1, shots=0, counts0=0, counts1=0)
    if rng is None:
        raise ValueError("sampled measurement requires an explicit rng")
    counts1 = int(rng.binomial(shots, sampling_probability(p1)))
    counts0 = shots - counts1
    return MeasurementOutcome(
        p0=counts0 / shots, p1=counts1 / shots, shots=shots, counts0=counts0, counts1=counts1
    )
