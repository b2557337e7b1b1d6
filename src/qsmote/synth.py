"""Synthetic record generation by small RX rotations.

A minority point is amplitude-encoded, every qubit is rotated by the
same small angle derived from the point's angular distance to the
centroid, and the real part of the resulting state becomes the
synthetic point. Angles come from one `np.where` over the distance
branches, given each record's own uniform draw, and the rotation is
applied gate by gate to a whole table of points at once; the statevector
simulator's RX gate in `tests/oracles.py` is the oracle the tests hold it to.
Records travel as one `Records` table of aligned columns, never as one
object per record.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateInputError
from .qdist import pad_to_power_of_two

TWO_PI = 2.0 * np.pi
DEGREE = 0.0174533  # one degree in radians, as the generation loops use it


@dataclass(frozen=True, eq=False)
class Records:
    """Synthetic records as aligned columns, one row per record in generation order."""

    features: np.ndarray          # (n, d)
    source_row_id: np.ndarray     # int
    rotation_angle: np.ndarray
    angular_distance: np.ndarray
    boosted: np.ndarray           # bool

    def __len__(self):
        return len(self.source_row_id)

    @classmethod
    def concat(cls, parts):
        """The rows of one or more tables of one width, in order."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def take(self, index):
        return type(self)(*(getattr(self, f.name)[index] for f in fields(self)))


def rotation_angle(angular_distance, sf, u):
    """Rotation angles well below the angular distances, one per row.

    `u` holds each row's uniform draw in [0, 1) and sf > 0, as
    `pipeline.SmoteConfig` checks; a branch that draws scales u as numpy's
    `uniform(low, high)` does, low + (high - low)·u:
    - d > pi/2: the fixed fraction |pi/2 - d| / sf;
    - d < 0 (the paper's rule; no swap-test distance is negative): |(pi/2 - d)(0.5 + 0.5u)| / sf;
    - otherwise: (0.0 + d·u) / sf, which is +0 at d = ±0.
    """
    d = np.asarray(angular_distance, dtype=float)
    u = np.asarray(u, dtype=float)
    angle = np.where(
        d > np.pi / 2,
        np.abs(np.pi / 2 - d),
        np.where(d < 0, np.abs((np.pi / 2 - d) * (0.5 + 0.5 * u)), 0.0 + d * u),
    )
    return angle / sf


def rotate_point(features, theta, rescale=True):
    """Rotate amplitude-encoded points by theta on every qubit.

    Takes one vector and one angle, or a (rows, d) table and one angle
    per row. Pads each row to N = 2^n, normalizes it, applies RX(theta)
    to its complex amplitudes one qubit at a time, takes the real part
    and (with rescale on) renormalizes it to the source norm before
    stripping the padding; theta = 0 then returns the row exactly. Every
    gate acts on each row alone, so no row's result depends on the rows
    beside it.
    """
    table = np.atleast_2d(np.asarray(features, dtype=float))
    theta = np.asarray(theta, dtype=float).reshape(-1, 1)
    norms = np.linalg.norm(table, axis=1, keepdims=True)
    if not norms.all():
        raise DegenerateInputError("cannot rotate a zero vector")
    state = pad_to_power_of_two(table / norms).astype(complex)
    rows, size = state.shape
    c, s = np.cos(theta[:, :, None] / 2), -1j * np.sin(theta[:, :, None] / 2)
    for q in range(size.bit_length() - 1):
        a, b = np.moveaxis(state.reshape(rows, 2**q, 2, size >> (q + 1)), 2, 0)
        state = np.stack([c * a + s * b, c * b + s * a], axis=2)
    real = state.real.reshape(rows, size)
    if rescale:
        real_norms = np.linalg.norm(real, axis=1, keepdims=True)
        if not real_norms.all():
            bad = theta[real_norms == 0][0]
            raise DegenerateInputError(f"rotation by {bad} annihilated the real part")
        real = real / real_norms * norms
        real[theta[:, 0] == 0.0, : table.shape[1]] = table[theta[:, 0] == 0.0]
    out = real[:, : table.shape[1]]
    return out[0] if np.ndim(features) < 2 else out


def create_syn_data(features, distances, increments, sf, u, source_row_ids, boosted=False):
    """A `Records` table with one record per row of the aligned inputs, in row order.

    Row i is features[i] rotated by rotation_angle(distances[i], sf, u[i])
    + increments[i], mod 2*pi. The callers key each row's uniform draw
    u[i] on the record alone (`keyed.uniform`), so no record depends on
    the rows batched with it. Assumes increments >= 0: the callers build
    them from passes >= 0 and the multiplier `pipeline.SmoteConfig` checks.
    """
    increments = np.asarray(increments, dtype=float)
    distances = np.asarray(distances, dtype=float)
    theta = (rotation_angle(distances, sf, u) + increments) % TWO_PI
    features = rotate_point(np.atleast_2d(features), theta)
    ids = np.asarray(source_row_ids, dtype=int)
    return Records(features, ids, theta, distances, np.full(len(ids), boosted))
