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

from .errors import (
    DegenerateChordError,
    NotSimpleQuadrilateralError,
    ParallelChordsError,
)

# Relative tolerance for "numerically parallel" / "numerically degenerate".
PARALLEL_TOL = 1e-12


class GroundPoint(NamedTuple):
    x: float
    y: float


class BeamFrameCoords(NamedTuple):
    """Cylindrical coordinates of receive points in a beam's own frame (floats or arrays)."""

    radial: float
    azimuth: float
    axial: float
    on_axis: bool


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


def chord_midpoint(p, q) -> GroundPoint:
    """Midpoint of the chord between two distinct ground points."""
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    if px == qx and py == qy:
        raise DegenerateChordError("degenerate chord: endpoints coincide")
    return GroundPoint(0.5 * (px + qx), 0.5 * (py + qy))


def bisector_intersection(u1, u2, u3, u4) -> GroundPoint:
    """Intersection of the perpendicular bisectors of chords (u1,u2) and (u3,u4).

    The returned point is equidistant from u1 and u2, and from u3 and u4.
    Solved as a 2x2 linear system: a point X is on the bisector of (p, q)
    iff (q - p) . X = (|q|^2 - |p|^2) / 2.  Parallel chords whose bisectors
    coincide (a rectangle or an isosceles trapezoid) have a whole line of
    such points; the one nearest the midpoint of the two chord midpoints is
    returned.  Raises ParallelChordsError when the chords are parallel and
    their bisectors are distinct.
    """
    p1 = np.asarray(u1, dtype=float)
    q1 = np.asarray(u2, dtype=float)
    p2 = np.asarray(u3, dtype=float)
    q2 = np.asarray(u4, dtype=float)
    d1 = q1 - p1
    d2 = q2 - p2
    len1 = math.hypot(d1[0], d1[1])
    len2 = math.hypot(d2[0], d2[1])
    if len1 == 0.0 or len2 == 0.0:
        raise DegenerateChordError("degenerate chord: endpoints coincide")
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(det) < PARALLEL_TOL * len1 * len2:
        m1 = 0.5 * (p1 + q1)
        gap = 0.5 * (p2 + q2) - m1
        # The bisectors coincide iff chord 2's midpoint lies on chord 1's bisector.
        offset = float(d1 @ gap)
        if abs(offset) > PARALLEL_TOL * len1 * max(len1, len2, math.hypot(*gap)):
            raise ParallelChordsError("no intersection: chords are parallel")
        x, y = m1 + 0.5 * gap - d1 * (0.5 * offset / (len1 * len1))
        return GroundPoint(float(x), float(y))
    b1 = 0.5 * (float(q1 @ q1) - float(p1 @ p1))
    b2 = 0.5 * (float(q2 @ q2) - float(p2 @ p2))
    x = (b1 * d2[1] - b2 * d1[1]) / det
    y = (d1[0] * b2 - d2[0] * b1) / det
    return GroundPoint(float(x), float(y))


def transmission_distance(position, midpoint) -> float:
    """Slant distance from an elevated position to a ground chord midpoint."""
    px, py, pz = (float(position[0]), float(position[1]), float(position[2]))
    if not pz > 0.0:
        raise ValueError("station height must be positive")
    mx, my = float(midpoint[0]), float(midpoint[1])
    return math.sqrt((px - mx) ** 2 + (py - my) ** 2 + pz * pz)


def aim_at_midpoints(position, m1, m2) -> Placement:
    """Placement of one station (3,) or N (N, 3) aimed at the two midpoints."""
    pos = np.asarray(position, dtype=float)
    targets = np.array(((m1[0], m1[1], 0.0), (m2[0], m2[1], 0.0)), dtype=float)
    delta = targets - pos[..., None, :]
    dists = np.sqrt(np.sum(delta * delta, axis=-1))
    if np.any(dists == 0.0):
        raise ValueError("aim point coincides with the station position")
    return Placement(position=pos, axes=delta / dists[..., None], distances=dists)


def beam_frame_coords(position, axis, point) -> BeamFrameCoords:
    """Express receive points in the cylindrical frame of beam axes.

    The axial coordinate is the signed projection of (point - position) on
    the unit axis.  Azimuth is measured in the transverse plane against the
    projection of the global +x axis (global +y when the axis is parallel
    to x), counterclockwise about the beam direction.  A point on the axis
    has undefined azimuth and is returned as (0, 0, axial, on_axis=True).
    The arguments broadcast over leading axes; points may be 2D ground points.
    """
    px, py, pz = np.moveaxis(np.asarray(position, dtype=float), -1, 0)
    ax, ay, az = np.moveaxis(np.asarray(axis, dtype=float), -1, 0)
    q = np.asarray(point, dtype=float)
    rx, ry = q[..., 0] - px, q[..., 1] - py
    rz = (q[..., 2] if q.shape[-1] == 3 else 0.0) - pz
    axial = rx * ax + ry * ay + rz * az
    tx, ty, tz = rx - axial * ax, ry - axial * ay, rz - axial * az
    rho = np.sqrt(tx * tx + ty * ty + tz * tz)
    scale = np.sqrt(rx * rx + ry * ry + rz * rz)
    on_axis = rho <= PARALLEL_TOL * np.maximum(scale, 1.0)
    # Azimuth from e1, the unit transverse part of global +x (of +y when the
    # axis is along x), toward e2 = axis x e1.  For transverse t, t . e1 is
    # t_x / |e1| and t . e2 is (axis x x_hat) . t / |e1|; atan2 drops |e1|.
    phi = np.where(
        ay * ay + az * az < 1e-18,
        np.arctan2(tz * ax - tx * az, ty),
        np.arctan2(ty * az - tz * ay, tx),
    )
    return BeamFrameCoords(
        np.where(on_axis, 0.0, rho)[()], np.where(on_axis, 0.0, phi)[()], axial, on_axis
    )


def _orient(a, b, c) -> float:
    """Twice the signed area of triangle (a, b, c)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _proper_cross(p1, p2, p3, p4, eps) -> bool:
    """True when segments (p1,p2) and (p3,p4) cross at an interior point."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True
    return False


def quad_inner_angles(vertices) -> np.ndarray:
    """Interior angles of a simple quadrilateral given in cycle order.

    Returns the four interior angles (radians) at each vertex in order.  A
    reflex vertex of a concave cycle reports an angle above pi; the four
    angles always sum to 2*pi.  Repeated vertices, collinear triples, and
    self-intersecting cycles raise NotSimpleQuadrilateralError.
    """
    v = np.asarray(vertices, dtype=float)
    if v.shape != (4, 2):
        raise ValueError("expected four 2D vertices")
    # Scalar math throughout: this sits in the selection hot loop and numpy
    # overhead on 4x2 arrays dominates otherwise.
    pts = v.tolist()
    cx = (pts[0][0] + pts[1][0] + pts[2][0] + pts[3][0]) / 4.0
    cy = (pts[0][1] + pts[1][1] + pts[2][1] + pts[3][1]) / 4.0
    span = max(max(abs(p[0] - cx), abs(p[1] - cy)) for p in pts) or 1.0
    eps = PARALLEL_TOL * span * span
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i][0] == pts[j][0] and pts[i][1] == pts[j][1]:
                raise NotSimpleQuadrilateralError(
                    "not a simple quadrilateral: repeated vertex"
                )
    for i in range(4):
        if abs(_orient(pts[i - 1], pts[i], pts[(i + 1) % 4])) <= eps:
            raise NotSimpleQuadrilateralError(
                "not a simple quadrilateral: collinear triple"
            )
    if _proper_cross(pts[0], pts[1], pts[2], pts[3], eps) or _proper_cross(
        pts[1], pts[2], pts[3], pts[0], eps
    ):
        raise NotSimpleQuadrilateralError(
            "not a simple quadrilateral: opposite sides cross"
        )
    # Shoelace sign fixes the traversal orientation; interior angle at a
    # vertex is pi minus the signed turn taken there.
    area2 = _orient(pts[0], pts[1], pts[2]) + _orient(pts[0], pts[2], pts[3])
    orient = 1.0 if area2 > 0.0 else -1.0
    angles = []
    for i in range(4):
        ax, ay = pts[i - 1]
        bx, by = pts[i]
        qx, qy = pts[(i + 1) % 4]
        dinx, diny = bx - ax, by - ay
        doutx, douty = qx - bx, qy - by
        turn = math.atan2(dinx * douty - diny * doutx, dinx * doutx + diny * douty)
        angles.append(math.pi - orient * turn)
    return np.array(angles)


def angle_square_difference(angles) -> float:
    """Sum of squared deviations of the four angles from a right angle."""
    a = np.asarray(angles, dtype=float)
    if a.shape != (4,):
        raise ValueError("expected four angles")
    t = a.tolist()
    h = 0.5 * math.pi
    return (t[0] - h) ** 2 + (t[1] - h) ** 2 + (t[2] - h) ** 2 + (t[3] - h) ** 2
