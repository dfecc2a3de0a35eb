"""Laguerre-Gaussian vortex beam model, lowest radial order only.

All lengths are in meters.  The intensity profile is normalized so that the
total power crossing any transverse plane is 1; transmit power enters later
as a multiplicative factor in the link budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModeOrderError, NoRingError

# Exact integer factorials keep the normalization bit-stable; beyond this
# order the model has no validated use, so reject instead of approximating.
MAX_MODE_ORDER = 20


@dataclass(frozen=True)
class BeamSpec:
    """A transmitted vortex beam: wavelength, azimuthal mode order, waist radius.

    An array of waists describes one beam per element; profiles broadcast.
    """

    wavelength: float
    mode: int
    waist: float | np.ndarray

    def __post_init__(self):
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be positive")
        if not np.all(np.asarray(self.waist) > 0.0):
            raise ValueError("waist must be positive")
        if not isinstance(self.mode, (int, np.integer)):
            raise TypeError("mode must be an integer")
        if abs(self.mode) > MAX_MODE_ORDER:
            raise ModeOrderError(
                f"mode order {self.mode} is outside the modeled range "
                f"(|mode| <= {MAX_MODE_ORDER})"
            )

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist**2 / self.wavelength

    def envelope(self, z):
        """1/e^2 Gaussian envelope radius w(z) at axial distances z >= 0, unchecked."""
        ratio = z / self.rayleigh_range
        return self.waist * np.sqrt(1.0 + ratio * ratio)


def mode_intensities(modes, r, w):
    """Intensities of several modes at radii r in beams of envelope radius w, stacked last.

    Entry [..., k] is the intensity of mode ``modes[k]``.  The modes share
    u = 2 r^2 / w^2 and exp(-u), which are computed once.  r (nonnegative)
    and w are arrays, unchecked.  Each profile is unit-normalized:
    integrating it over a transverse plane gives total power 1.
    """
    u = 2.0 * r * r / (w * w)
    decay = np.exp(-u)
    return np.stack(
        [2.0 / (math.pi * w * w * math.factorial(abs(m))) * u ** abs(m) * decay for m in modes],
        axis=-1,
    )


def optimal_ring_radius(spec: BeamSpec, z):
    """Radius of peak intensity, sqrt(|mode|/2) * w(z); mode 0 has no ring."""
    if spec.mode == 0:
        raise NoRingError("mode 0 beam has no off-axis ring")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("axial distance must be nonnegative")
    return math.sqrt(abs(spec.mode) / 2.0) * spec.envelope(z)


def feasible_ring_radius(wavelength: float, mode: int, z):
    """Smallest ring radius reachable at distance z over all waist choices.

    Shrinking the waist focuses the ring near the source but spreads it by
    diffraction at range; the geometric mean of the two effects gives a hard
    floor sqrt(z * wavelength * |mode| / pi) on the ring radius at z.
    """
    if mode == 0:
        raise NoRingError("mode 0 beam has no off-axis ring")
    if abs(mode) > MAX_MODE_ORDER:
        raise ModeOrderError(
            f"mode order {mode} is outside the modeled range (|mode| <= {MAX_MODE_ORDER})"
        )
    if not wavelength > 0.0:
        raise ValueError("wavelength must be positive")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("axial distance must be positive")
    return np.sqrt(z * wavelength * abs(mode) / math.pi)


def ring_waists(ring_radius, z, wavelength: float, mode: int) -> np.ndarray:
    """Waists that put the intensity ring at ring_radius at distances z > 0, broadcast.

    The ring condition is a quadratic in the squared waist; the smaller of
    its two roots is returned, which is the branch a source can reach by
    focusing.  NaN where the ring lies below the diffraction floor
    (feasible_ring_radius) and no waist exists.
    """
    # The floor checks mode, wavelength and z before any arithmetic uses them.
    floor = feasible_ring_radius(wavelength, mode, z)
    r = np.asarray(ring_radius, dtype=float)
    z = np.asarray(z, dtype=float)
    half_sum = r * r / abs(mode)  # half the sum of the two roots in waist^2
    product = (z * wavelength / math.pi) ** 2  # product of the two roots
    # Only roundoff makes the discriminant negative once r >= floor.
    disc = np.maximum(half_sum * half_sum - product, 0.0)
    # Quotient form of the smaller root avoids cancellation when the roots
    # are far apart (tight focus at long range).
    waist = np.sqrt(product / (half_sum + np.sqrt(disc)))
    return np.where(r < floor, np.nan, waist)
