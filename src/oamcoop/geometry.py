"""Ground-plane and beam-frame geometry for placing the flying base station.

Ground users live in the z = 0 plane; the station position is a 3D point
with positive height.  A "chord" is the segment between the two users of a
cooperative pair, and the station is aligned with a pair when it lies on the
vertical plane that perpendicularly bisects the chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateChordError, ParallelChordsError

# Relative tolerance for "numerically parallel" / "numerically degenerate".
PARALLEL_TOL = 1e-12


class GroundPoint(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True, eq=False)
class Placement:
    """Where a trial put its station: the position (3,) the link was given."""

    position: np.ndarray  # shape (3,)


def _dot(a, b):
    """Dot products over the last axis, rounded as numpy's ``@`` rounds a single one."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def bisector_intersection(u1, u2, u3, u4) -> GroundPoint:
    """Intersection of the perpendicular bisectors of chords (u1,u2) and (u3,u4).

    The returned point is equidistant from u1 and u2, and from u3 and u4.
    Solved as a 2x2 linear system: a point X is on the bisector of (p, q)
    iff (q - p) . X = (|q|^2 - |p|^2) / 2.  Parallel chords whose bisectors
    coincide (a rectangle or an isosceles trapezoid) have a whole line of
    such points; the one nearest the midpoint of the two chord midpoints is
    returned.  Raises ParallelChordsError when the chords are parallel and
    their bisectors are distinct, DegenerateChordError when a chord has
    coincident endpoints.  The points broadcast over leading axes; a batch
    returns a GroundPoint of arrays, NaN where a single call would raise.
    """
    p1, q1, p2, q2 = (np.asarray(u, dtype=float) for u in (u1, u2, u3, u4))
    d1, d2 = q1 - p1, q2 - p2
    len1, len2 = np.hypot(d1[..., 0], d1[..., 1]), np.hypot(d2[..., 0], d2[..., 1])
    degenerate = (len1 == 0.0) | (len2 == 0.0)
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    parallel = np.abs(det) < PARALLEL_TOL * len1 * len2
    m1 = 0.5 * (p1 + q1)
    gap = 0.5 * (p2 + q2) - m1
    # The bisectors coincide iff chord 2's midpoint lies on chord 1's bisector.
    offset = _dot(d1, gap)
    scale = np.maximum(np.maximum(len1, len2), np.hypot(gap[..., 0], gap[..., 1]))
    apart = np.abs(offset) > PARALLEL_TOL * len1 * scale
    b1 = 0.5 * (_dot(q1, q1) - _dot(p1, p1))
    b2 = 0.5 * (_dot(q2, q2) - _dot(p2, p2))
    with np.errstate(divide="ignore", invalid="ignore"):
        nearest = m1 + 0.5 * gap - d1 * (0.5 * offset / (len1 * len1))[..., None]
        x = np.where(parallel, nearest[..., 0], (b1 * d2[..., 1] - b2 * d1[..., 1]) / det)
        y = np.where(parallel, nearest[..., 1], (d1[..., 0] * b2 - d2[..., 0] * b1) / det)
    bad = degenerate | (parallel & apart)
    if np.ndim(bad) == 0:
        if degenerate:
            raise DegenerateChordError("degenerate chord: endpoints coincide")
        if bad:
            raise ParallelChordsError("no intersection: chords are parallel")
        return GroundPoint(float(x), float(y))
    return GroundPoint(np.where(bad, np.nan, x), np.where(bad, np.nan, y))


def transmission_distance(position, midpoint):
    """Slant distance from elevated positions to ground chord midpoints (broadcasting)."""
    p, m = np.asarray(position, dtype=float), np.asarray(midpoint, dtype=float)
    if not np.all(p[..., 2] > 0.0):
        raise ValueError("station height must be positive")
    return np.sqrt((p[..., 0] - m[..., 0]) ** 2 + (p[..., 1] - m[..., 1]) ** 2 + p[..., 2] ** 2)[()]


def aimed_pair_coords(position, distance, midpoint, half_chord):
    """Beam-frame radius and axial distances of a pair whose beam is aimed at its chord midpoint.

    ``position`` (..., 3) is the station p, ``distance`` (...) its aim
    distance d to the ground midpoint m = (u1 + u2) / 2 (``midpoint``,
    (..., 2)), and ``half_chord`` (..., 2) is c = (u1 - u2) / 2.  On the
    unit axis a = (m - p) / d, with s = (m - p) . c / d, the users sit at
    axial distances d + s and d - s; their transverse offsets are c - s a
    and its negative, so both lie at radius sqrt(|c|^2 - s^2) with azimuths
    pi apart.  Returns ``(radial, axial)``: radial (...) is the pair's one
    radius and axial (..., 2) the two users' axial distances.
    """
    p, m, c = (np.asarray(v, dtype=float) for v in (position, midpoint, half_chord))
    d = np.asarray(distance, dtype=float)
    cx, cy = c[..., 0], c[..., 1]
    s = ((m[..., 0] - p[..., 0]) * cx + (m[..., 1] - p[..., 1]) * cy) / d
    radial = np.sqrt(cx * cx + cy * cy - s * s)
    return radial, np.stack((d + s, d - s), axis=-1)


# Reasons a cycle of four points is not a simple quadrilateral, by defect code.
NOT_SIMPLE = ("", "repeated vertex", "collinear triple", "opposite sides cross")


def quad_angles(vertices):
    """Interior angles and simplicity defects of quadrilaterals (..., 4, 2).

    Returns ``(angles, defect)``: the interior angles (..., 4) in radians at
    each vertex in cycle order, NaN where the cycle is not simple, and an
    integer code (...) indexing NOT_SIMPLE, 0 for a simple quadrilateral.  A
    reflex vertex reports an angle above pi; the four angles sum to 2*pi.
    """
    v = np.asarray(vertices, dtype=float)
    if v.shape[-2:] != (4, 2):
        raise ValueError("expected four 2D vertices")
    x, y = ([v[..., i, k] for i in range(4)] for k in (0, 1))

    def orient(a, b, c):
        """Twice the signed area of triangle (a, b, c), by vertex number."""
        return (x[b] - x[a]) * (y[c] - y[a]) - (y[b] - y[a]) * (x[c] - x[a])

    def split(d1, d2):
        """Signed areas strictly on either side of zero."""
        return ((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))

    def crosses(a, b, c, d):
        """Segments (a, b) and (c, d) cross: each splits the other's ends."""
        return split(orient(c, d, a), orient(c, d, b)) & split(orient(a, b, c), orient(a, b, d))

    cx = (x[0] + x[1] + x[2] + x[3]) / 4.0
    cy = (y[0] + y[1] + y[2] + y[3]) / 4.0
    span = np.maximum.reduce([np.maximum(np.abs(x[i] - cx), np.abs(y[i] - cy)) for i in range(4)])
    span = np.where(span == 0.0, 1.0, span)
    eps = PARALLEL_TOL * span * span
    repeated = np.logical_or.reduce(
        [(x[i] == x[j]) & (y[i] == y[j]) for i in range(4) for j in range(i + 1, 4)]
    )
    turns = [orient(i - 1, i, (i + 1) % 4) for i in range(4)]
    collinear = np.logical_or.reduce([np.abs(t) <= eps for t in turns])
    crossing = crosses(0, 1, 2, 3) | crosses(1, 2, 3, 0)
    defect = np.where(repeated, 1, np.where(collinear, 2, np.where(crossing, 3, 0)))
    # Shoelace sign fixes the traversal orientation; interior angle at a
    # vertex is pi minus the signed turn taken there.
    sign = np.where(turns[1] + orient(0, 2, 3) > 0.0, 1.0, -1.0)
    angles = np.empty(v.shape[:-1])
    for i in range(4):
        dinx, diny = x[i] - x[i - 1], y[i] - y[i - 1]
        doutx, douty = x[(i + 1) % 4] - x[i], y[(i + 1) % 4] - y[i]
        turn = np.arctan2(dinx * douty - diny * doutx, dinx * doutx + diny * douty)
        angles[..., i] = np.where(defect == 0, math.pi - sign * turn, np.nan)
    return angles, defect


def angle_square_difference(angles):
    """Sum of squared deviations of the four angles (..., 4) from a right angle."""
    a = np.asarray(angles, dtype=float)
    if a.shape[-1:] != (4,):
        raise ValueError("expected four angles")
    d = a - 0.5 * math.pi
    return (d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2 + d[..., 3] ** 2)[()]
