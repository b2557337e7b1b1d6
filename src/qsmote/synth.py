"""Synthetic record generation by small RX rotations.

A minority point is amplitude-encoded, every qubit is rotated by the
same small angle derived from the point's angular distance to the
centroid, and the real part of the resulting statevector becomes the
synthetic point.
"""

from dataclasses import dataclass

import numpy as np

from . import statevec
from .errors import DegenerateInputError, ParameterError
from .qdist import pad_to_power_of_two
from .statevec import RX

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
    """Rotate an amplitude-encoded point by theta on every qubit.

    Pads to a power of two, rotates, takes the real part, and (with
    rescale on) renormalizes back to the source norm before stripping
    the padding.
    """
    feats = np.asarray(features, dtype=float).ravel()
    norm = np.linalg.norm(feats)
    if norm == 0.0:
        raise DegenerateInputError("cannot rotate a zero vector")
    if rescale and theta == 0.0:
        # identity rotation followed by rescale is exactly the input
        return feats.copy()
    padded = pad_to_power_of_two(feats)
    n = int(np.log2(padded.size))
    state = statevec.initialize(padded, n)
    for q in range(n):
        state = statevec.apply_gate(state, RX(q, theta))
    real = np.real(state.amplitudes)
    if rescale:
        real_norm = np.linalg.norm(real)
        if real_norm == 0.0:
            raise DegenerateInputError(
                f"rotation by {theta} annihilated the real part"
            )
        real = real / real_norm * norm
    return real[: feats.size]


def create_syn_data(
    features,
    angular_distance,
    angle_increment,
    sf,
    rng,
    source_row_id=-1,
    rescale=True,
    boosted=False,
):
    """Generate one synthetic record from a source minority point."""
    if angle_increment < 0:
        raise ParameterError(f"angle increment must be >= 0, got {angle_increment}")
    theta = (rotation_angle(angular_distance, sf, rng) + angle_increment) % TWO_PI
    new_features = rotate_point(features, theta, rescale=rescale)
    return SyntheticRecord(
        features=new_features,
        source_row_id=source_row_id,
        rotation_angle=theta,
        angular_distance=float(angular_distance),
        boosted=boosted,
    )
