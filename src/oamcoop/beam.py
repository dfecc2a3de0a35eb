"""Laguerre-Gaussian vortex beam model, lowest radial order only.

All lengths are in meters.  The intensity profile is normalized so that the
total power crossing any transverse plane is 1; transmit power enters later
as a multiplicative factor in the link budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModeOrderError, NoRingError, WaistInfeasibleError

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


@dataclass(frozen=True)
class RingTarget:
    """Desired intensity-ring radius at a given axial distance."""

    ring_radius: float
    axial_distance: float

    def __post_init__(self):
        if not self.ring_radius > 0.0:
            raise ValueError("ring_radius must be positive")
        if not self.axial_distance > 0.0:
            raise ValueError("axial_distance must be positive")


def beam_radius(spec: BeamSpec, z):
    """1/e^2 Gaussian envelope radius w(z) at axial distance z >= 0."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("axial distance must be nonnegative")
    ratio = z / spec.rayleigh_range
    return spec.waist * np.sqrt(1.0 + ratio * ratio)


def intensity(spec: BeamSpec, r, z):
    """Transverse intensity at radius r, distance z.

    Parameters
    ----------
    spec : BeamSpec
        Beam under evaluation.
    r : float or ndarray
        Radial offset from the beam axis, r >= 0.
    z : float or ndarray
        Axial distance from the waist plane, z >= 0.

    Returns
    -------
    float or ndarray
        Intensity in 1/m^2, unit-normalized: integrating over any
        transverse plane gives total power 1.
    """
    return mode_intensities(spec, (spec.mode,), r, z)[..., 0]


def mode_intensities(spec: BeamSpec, modes, r, z):
    """Intensities of several modes on spec's wavelength and waist, stacked last.

    Entry [..., k] is the intensity of mode ``modes[k]`` (spec.mode is not
    read).  The modes share the Gaussian envelope w(z), u = 2 r^2 / w^2 and
    exp(-u), which are computed once.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radial offset must be nonnegative")
    w = beam_radius(spec, z)
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
    return math.sqrt(abs(spec.mode) / 2.0) * beam_radius(spec, z)


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


def waist_solve(target: RingTarget, wavelength: float, mode: int) -> float:
    """Waist that places the intensity ring exactly at the target.

    The ring condition is a quadratic in the squared waist; the smaller of
    its two roots is returned, which is the branch a source can reach by
    focusing.  Raises WaistInfeasibleError (with the radius deficit) when
    the target lies below the diffraction floor and no waist exists.
    """
    r = target.ring_radius
    z = target.axial_distance
    floor = float(feasible_ring_radius(wavelength, mode, z))
    if r < floor:
        raise WaistInfeasibleError(
            f"waist does not exist: ring radius {r:.6g} m is below the "
            f"feasibility floor {floor:.6g} m at z = {z:.6g} m",
            deficit=floor - r,
        )
    return float(ring_waists(r, z, wavelength, mode))


def ring_waists(ring_radius, z, wavelength: float, mode: int) -> np.ndarray:
    """waist_solve over broadcast arrays (z > 0): NaN where the ring is below the floor."""
    r = np.asarray(ring_radius, dtype=float)
    z = np.asarray(z, dtype=float)
    half_sum = r * r / abs(mode)  # half the sum of the two roots in waist^2
    product = (z * wavelength / math.pi) ** 2  # product of the two roots
    # Only roundoff makes the discriminant negative once r >= floor.
    disc = np.maximum(half_sum * half_sum - product, 0.0)
    # Quotient form of the smaller root avoids cancellation when the roots
    # are far apart (tight focus at long range).
    waist = np.sqrt(product / (half_sum + np.sqrt(disc)))
    return np.where(r < feasible_ring_radius(wavelength, mode, z), np.nan, waist)
