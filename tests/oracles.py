"""Reference implementations the tests hold the package to.

- A dense complex statevector simulator with exactly the gates of the
  swap-test and rotation circuits (H, X, RX and CSWAP), exact
  single-qubit marginals and seeded shot sampling. Qubit ordering is
  big-endian: qubit 0 is the most significant bit of the basis-state
  index. States are immutable; every gate returns a new state.
- `swap_test`, the compact swap-test circuit run on that simulator, and
  `overlap_probability_exact`, its ancilla marginal from a reduced
  density matrix: the oracles of `qdist.angular_distance_table`.
- `knn_predict`, the k-nearest-neighbour vote of one training set, the
  per-query reference for `evaluate.k_nearest` and `run_experiment`.
- `roc_auc_pairwise`, the Mann-Whitney oracle of
  `evaluate.roc_auc_trapezoidal`.
- `read_augmented`, the round-trip reader of `data.write_augmented`.

The package batches whole tables in closed form and never runs these.
"""

from dataclasses import dataclass

import numpy as np

from qsmote import data, evaluate
from qsmote.errors import DataError, DegenerateInputError, QsmoteError
from qsmote.qdist import angular_distance_from_probability
from qsmote.statevec import sampling_probability


class DimensionError(QsmoteError, ValueError):
    """Array length does not match the declared shape; only the simulator raises it."""


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


def measure_qubit(state, qubit, shots=0, rng=None):
    """Measure one qubit in the computational basis.

    shots=0 returns the exact marginal; shots>0 draws a binomial sample
    of `sampling_probability(p1)` from the caller-supplied generator, as
    `qdist.angular_distance_table` draws its sampled marginals.
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


@dataclass(frozen=True)
class SwapTestResult:
    overlap_probability: float
    angular_distance: float
    outcome: MeasurementOutcome


def swap_test(states, shots=0, rng=None):
    """Run the compact swap-test circuit on states from `qdist.prep_swap_test`.

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
    state = initialize(full, n)
    state = apply_gate(state, X(2))        # leading psi qubit
    state = apply_gate(state, H(0))
    state = apply_gate(state, CSWAP(0, 1, 2))
    state = apply_gate(state, H(0))
    outcome = measure_qubit(state, 0, shots=shots, rng=rng)
    p = float(np.clip(outcome.p0 - outcome.p1, 0.0, 1.0))
    return SwapTestResult(
        overlap_probability=p,
        angular_distance=float(angular_distance_from_probability(p)),
        outcome=outcome,
    )


def overlap_probability_exact(states):
    """Reduced-density-matrix oracle for the exact ancilla marginal.

    Independent of the full circuit: after X on the leading psi qubit,
    p0 = (1 + <phi| rho |phi>) / 2 with rho the reduced state of that
    qubit. Returns the overlap p0 - p1 = 2*p0 - 1.
    """
    psi = np.asarray(states.psi, dtype=float)
    psi = psi / np.linalg.norm(psi)
    half = psi.reshape(2, -1)[::-1]               # X on the leading qubit
    rho = half @ half.T
    p0 = 0.5 * (1.0 + float(states.phi @ rho @ states.phi) / float(states.phi @ states.phi))
    return float(np.clip(2.0 * p0 - 1.0, 0.0, 1.0))


def knn_predict(train_X, train_y, test_X, k=5):
    """Fraction of the k nearest training rows that are positive.

    The distance is ``sqrt(add.reduce((x - q)**2, axis=-1))`` on the given
    rows, and distance ties break toward the lower row index, as in
    ``evaluate.k_nearest``, so the scores are exactly those of sorting every
    training row by (distance, index) for each query.
    """
    train_X = np.asarray(train_X, dtype=float)
    train_y = np.asarray(train_y)
    test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
    evaluate._check_knn(train_X, train_y, test_X, k)
    _, cols = evaluate.k_nearest(train_X, test_X, k)
    return (train_y == 1)[cols].sum(axis=1) / k


def roc_auc_pairwise(scores, labels):
    """P(random positive outranks random negative), ties counted 1/2."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    p = scores[labels == 1]
    n = scores[labels == 0]
    if p.size == 0 or n.size == 0:
        return None
    diff = p[:, None] - n[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (p.size * n.size))


def read_augmented(path):
    """Round-trip loader for files produced by `data.write_augmented`."""
    header, columns = data.read_table(path)
    if len(header) < 6 or header[-5:] != data.META_COLUMNS:
        raise DataError(f"{path} lacks a target column followed by the augmented metadata columns")
    names = header[: -5 - 1]
    target_name = header[-6]
    parsed = [data.parse_floats(col, name) for col, name in zip(columns, header[: len(names) + 1])]
    X = np.column_stack(parsed[:-1]) if names else np.empty((len(parsed[-1]), 0))
    y = parsed[-1].astype(int)
    meta = {name: list(col) for name, col in zip(data.META_COLUMNS, columns[-5:])}
    return names, target_name, X, y, meta
