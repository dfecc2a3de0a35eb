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
    """Station position plus one aim axis and aim distance per user pair.

    ``axes[i]`` is the unit vector from the position toward pair i's chord
    midpoint; ``distances[i]`` is the corresponding transmission distance.
    A Placement of N stations puts a leading axis of length N on each field.
    """

    position: np.ndarray  # shape (3,) or (N, 3)
    axes: np.ndarray  # shape (2, 3) or (N, 2, 3)
    distances: np.ndarray  # shape (2,) or (N, 2)


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


def aim_at_midpoints(position, m1, m2) -> Placement:
    """Placement of one station (3,) or N (N, 3) aimed at the two midpoints."""
    pos = np.asarray(position, dtype=float)
    targets = np.array(((m1[0], m1[1], 0.0), (m2[0], m2[1], 0.0)), dtype=float)
    delta = targets - pos[..., None, :]
    dists = np.sqrt(np.sum(delta * delta, axis=-1))
    if np.any(dists == 0.0):
        raise ValueError("aim point coincides with the station position")
    return Placement(position=pos, axes=delta / dists[..., None], distances=dists)


def pair_frame_coords(position, axis, ends):
    """Beam-frame radii and axial coordinates of pair users, and their azimuth gap.

    ``position`` and ``axis`` (..., 3) are one beam each and ``ends``
    (..., 2, 2 or 3) its pair's two users.  Returns ``(radial, axial,
    gap)``: axial (..., 2) is the signed projection of (user - position) on
    the unit axis and radial (..., 2) the length of the rest, the user's
    transverse offset.  gap (...) is user 2's azimuth minus user 1's, a
    right-handed turn about the axis counting positive, wrapped to
    [-pi, pi]: one arctan2 of the two transverse offsets' cross product
    along the axis and their dot product.  A beam aimed at its chord
    midpoint has neither user on its axis, where the gap is undefined.
    """
    axis = np.asarray(axis, dtype=float)
    p = np.asarray(position, dtype=float)[..., None, :]
    q = np.asarray(ends, dtype=float)
    ax, ay, az = axis[..., 0], axis[..., 1], axis[..., 2]
    # The axis broadcast over the pair's two users.
    ux, uy, uz = ax[..., None], ay[..., None], az[..., None]
    rx, ry = q[..., 0] - p[..., 0], q[..., 1] - p[..., 1]
    rz = (q[..., 2] if q.shape[-1] == 3 else 0.0) - p[..., 2]
    axial = rx * ux + ry * uy + rz * uz
    tx, ty, tz = rx - axial * ux, ry - axial * uy, rz - axial * uz
    radial = np.sqrt(tx * tx + ty * ty + tz * tz)
    x1, x2, y1, y2, z1, z2 = tx[..., 0], tx[..., 1], ty[..., 0], ty[..., 1], tz[..., 0], tz[..., 1]
    cross = ax * (y1 * z2 - z1 * y2) + ay * (z1 * x2 - x1 * z2) + az * (x1 * y2 - y1 * x2)
    gap = np.arctan2(cross, x1 * x2 + y1 * y2 + z1 * z2)
    return radial, axial, gap


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
