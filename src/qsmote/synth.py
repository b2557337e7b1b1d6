"""Synthetic record generation by small RX rotations.

A minority point is amplitude-encoded, every qubit is rotated by the
same small angle derived from the point's angular distance to the
centroid, and the real part of the resulting state becomes the
synthetic point. The rotation is evaluated in closed form for a whole
table of points at once; the statevector simulator (`statevec.RX`) is
the oracle the tests hold it to.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .qdist import pad_to_power_of_two

TWO_PI = 2.0 * np.pi
DEGREE = 0.0174533  # one degree in radians, as the generation loops use it


@dataclass(frozen=True)
class SyntheticRecord:
    features: np.ndarray
    source_row_id: int
    rotation_angle: float
    angular_distance: float
    boosted: bool = False
    synthetic: bool = True


def rotation_angle(angular_distance, sf, rng):
    """Pick a rotation angle well below the angular distance.

    d > pi/2 uses the fixed fraction |pi/2 - d|/sf; d < 0 (only possible
    with defensive inputs) uses a scaled fraction; otherwise a uniform
    draw in [0, d] shrunk by the split factor.
    """
    if sf <= 0:
        raise ParameterError(f"split factor must be positive, got {sf}")
    d = float(angular_distance)
    if d > np.pi / 2:
        return abs(np.pi / 2 - d) / sf
    if d < 0:
        return abs((np.pi / 2 - d) * rng.uniform(0.5, 1.0)) / sf
    if d == 0.0:
        return 0.0
    return rng.uniform(0.0, d) / sf


def rotate_point(features, theta, rescale=True):
    """Rotate amplitude-encoded points by theta on every qubit.

    Takes one vector and one angle, or a (rows, d) table and one angle
    per row. Pads each row to N = 2^n, rotates it, takes the real part
    and (with rescale on) renormalizes it to the source norm before
    stripping the padding; theta = 0 then returns the row exactly.
    As RX = H·RZ·H, the real part is H·diag(cos(θ(n−2·popcount(j))/2))·H·a / N
    for the ±1 Sylvester–Hadamard matrix H, applied in n butterfly
    stages so that no row's result depends on the rows beside it.
    """
    table = np.atleast_2d(np.asarray(features, dtype=float))
    theta = np.asarray(theta, dtype=float).reshape(-1, 1)
    norms = np.linalg.norm(table, axis=1, keepdims=True)
    if not norms.all():
        raise DegenerateInputError("cannot rotate a zero vector")
    real = pad_to_power_of_two(table / norms)
    rows, size = real.shape
    n = size.bit_length() - 1
    popcount = np.array([bin(j).count("1") for j in range(size)])
    for scale in (np.cos(theta * (n - 2 * popcount) / 2), 1.0 / size):
        for q in range(n):
            v = real.reshape(rows, 2**q, 2, size >> (q + 1))
            real = np.stack([v[:, :, 0] + v[:, :, 1], v[:, :, 0] - v[:, :, 1]], axis=2)
        real = real.reshape(rows, size) * scale
    if rescale:
        real_norms = np.linalg.norm(real, axis=1, keepdims=True)
        if not real_norms.all():
            bad = theta[real_norms == 0][0]
            raise DegenerateInputError(f"rotation by {bad} annihilated the real part")
        real = real / real_norms * norms
        real[theta[:, 0] == 0.0, : table.shape[1]] = table[theta[:, 0] == 0.0]
    out = real[:, : table.shape[1]]
    return out[0] if np.ndim(features) < 2 else out


def create_syn_data(
    features, distances, increments, sf, rngs, source_row_ids, rescale=True, boosted=False
):
    """One synthetic record per row of the aligned inputs, in row order.

    Row i is features[i] rotated by rotation_angle(distances[i], sf,
    rngs[i]) + increments[i], mod 2*pi. Each row draws only from its own
    rng, so no record depends on the rows batched with it.
    """
    increments = np.asarray(increments, dtype=float)
    if (increments < 0).any():
        raise ParameterError(f"angle increment must be >= 0, got {increments.min()}")
    distances = np.asarray(distances, dtype=float).tolist()
    theta = [
        (rotation_angle(d, sf, rng) + inc) % TWO_PI
        for d, inc, rng in zip(distances, increments.tolist(), rngs)
    ]
    new_features = rotate_point(np.atleast_2d(features), theta, rescale=rescale)
    return [
        SyntheticRecord(f, int(rid), t, d, boosted)
        for f, rid, t, d in zip(new_features, source_row_ids, theta, distances)
    ]
