"""Compact swap test and angular distances.

Two classical vectors are folded into a 2-amplitude norm state and an
interleaved component state; a single controlled-SWAP between the norm
qubit and the leading component qubit yields the control marginals p0
and p1. The overlap probability is p = p0 - p1, clamped to [0, 1], and
the angular distance is 2*arccos(sqrt(p)).

`angular_distance_table` prepares the states of a whole table of rows
at once with `prep_swap_test` and evaluates the exact control marginal
of that circuit in closed form. The tests hold it to the circuit run on
a statevector simulator and to a reduced-density-matrix marginal, both
in `tests/oracles.py`.
"""

from dataclasses import dataclass

import numpy as np

from . import keyed, statevec

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SwapTestStates:
    phi: np.ndarray       # [|a|/sqrt(z), -|b|/sqrt(z)], z = |a|^2 + |b|^2
    psi: np.ndarray       # interleaved a/b components, unit norm


def prep_swap_test(point_a, point_b):
    """Build the norm state phi and interleaved state psi for two vectors.

    `point_b` may also be a (rows, n) table, each row prepared against
    `point_a`: phi and psi then gain a leading row axis. Assumes nonzero
    inputs zero-padded alike to one power-of-two length: `pipeline.augment_grid`
    gates the rows and centroid, and `angular_distance_table` pads them.
    """
    a = np.asarray(point_a, dtype=float).ravel()
    b = np.asarray(point_b, dtype=float)
    b = b if b.ndim == 2 else b.ravel()
    dc_norm = np.sqrt((a * a).sum())
    md_norm = np.sqrt((b * b).sum(axis=-1))
    z = dc_norm**2 + md_norm**2
    phi = np.stack([dc_norm / np.sqrt(z), -md_norm / np.sqrt(z)], axis=-1)
    psi = np.empty(b.shape[:-1] + (2 * a.size,))
    psi[..., 0::2] = a / (dc_norm * SQRT2)
    psi[..., 1::2] = b / (md_norm * SQRT2)[..., None]
    return SwapTestStates(phi=phi, psi=psi)


def _clamp01(x):
    return np.clip(x, 0.0, 1.0)


def angular_distance_from_probability(p):
    """2 * arccos(sqrt(p)), the angle the overlap probability encodes."""
    return 2.0 * np.arccos(np.sqrt(_clamp01(p)))


def pad_to_power_of_two(vec):
    """Zero-pad a vector, or each row of a table, to the next power-of-two length (minimum 2).

    Assumes width >= 1: `pipeline.augment_grid` rejects a table without columns.
    """
    v = np.asarray(vec, dtype=float)
    v = v if v.ndim == 2 else v.ravel()
    out = np.zeros(v.shape[:-1] + (max(2, 1 << (v.shape[-1] - 1).bit_length()),))
    out[..., : v.shape[-1]] = v
    return out


def angular_distance_table(points, centroid, shots=0, seed=0):
    """Angular distance of every row of a (rows, d) table to the centroid.

    `prep_swap_test` prepares every row's states against the padded
    centroid, and the exact control marginal p1 of every row's swap test
    comes from the closed form of the reduced-density-matrix marginal
    (the tests' `overlap_probability_exact`), evaluated for the whole
    table at once with elementwise products and row sums,
    so a row's value does not depend on the rows batched with it. With
    shots > 0 row i draws binomial(shots, p1) from default_rng([seed, i])
    through `keyed.binomial`, with p1 rounded by
    `statevec.sampling_probability` as the circuit rounds it. Assumes a
    (rows, d) table and a nonzero centroid of width d, which
    `pipeline.augment_grid` checks.
    """
    centroid = np.asarray(centroid, dtype=float).ravel()
    points = np.asarray(points, dtype=float)
    states = prep_swap_test(pad_to_power_of_two(centroid), pad_to_power_of_two(points))
    phi0, phi1 = states.phi[:, 0], states.phi[:, 1]
    # psi and phi are unit vectors by construction, so the oracle's two
    # normalisations are left out. X on the leading psi qubit swaps the
    # halves of psi; rho is their 2x2 Gram matrix
    half = states.psi.shape[1] // 2
    h0, h1 = states.psi[:, half:], states.psi[:, :half]
    r00, r01, r11 = (h0 * h0).sum(axis=1), (h0 * h1).sum(axis=1), (h1 * h1).sum(axis=1)
    quad = (phi0 * r00 + phi1 * r01) * phi0 + (phi0 * r01 + phi1 * r11) * phi1
    p1 = _clamp01(0.5 * (1.0 - quad))
    if shots > 0:
        counts1 = keyed.binomial(seed, shots, statevec.sampling_probability(p1), np.arange(len(p1)))
        p1 = counts1 / shots
        p0 = (shots - counts1) / shots
    else:
        p0 = 1.0 - p1
    return angular_distance_from_probability(_clamp01(p0 - p1))
