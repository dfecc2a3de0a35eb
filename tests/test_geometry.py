"""Station geometry: bisector intersection, aimed pair coordinates, quad angles."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from oamcoop.errors import DegenerateChordError, ParallelChordsError
from oamcoop.geometry import (
    NOT_SIMPLE,
    Placement,
    aimed_pair_coords,
    angle_square_difference,
    bisector_intersection,
    quad_angles,
    transmission_distance,
)


def _slope_form(u1, u2, u3, u4):
    """Alternate solve: intersect the two bisector lines written as y = m*x + b.

    Only valid when neither chord is horizontal and the bisector slopes differ;
    callers skip the degenerate draws.
    """
    out = []
    for p, q in ((u1, u2), (u3, u4)):
        mx, my = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
        slope = -(q[0] - p[0]) / (q[1] - p[1])
        out.append((slope, my - slope * mx))
    (m1, b1), (m2, b2) = out
    x = (b2 - b1) / (m1 - m2)
    return x, m1 * x + b1


def test_equidistance_property():
    rng = np.random.default_rng(3)
    for _ in range(400):
        pts = rng.uniform(-300.0, 300.0, size=(4, 2))
        try:
            f = bisector_intersection(*pts)
        except (ParallelChordsError, DegenerateChordError):
            continue
        scale = max(1.0, float(np.max(np.abs(pts))), abs(f.x), abs(f.y))
        d = [math.hypot(f.x - p[0], f.y - p[1]) for p in pts]
        assert abs(d[0] - d[1]) <= 1e-9 * scale
        assert abs(d[2] - d[3]) <= 1e-9 * scale


def test_matches_slope_form_solve():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 300:
        pts = rng.uniform(-200.0, 200.0, size=(4, 2))
        if abs(pts[1][1] - pts[0][1]) < 1.0 or abs(pts[3][1] - pts[2][1]) < 1.0:
            continue
        try:
            f = bisector_intersection(*pts)
        except (ParallelChordsError, DegenerateChordError):
            continue
        x, y = _slope_form(*pts)
        scale = max(1.0, abs(x), abs(y))
        assert abs(f.x - x) <= 1e-9 * scale
        assert abs(f.y - y) <= 1e-9 * scale
        checked += 1


def test_parallel_chords_rejected():
    with pytest.raises(ParallelChordsError):
        bisector_intersection((0, 0), (4, 0), (1, 5), (7, 5))


def _rotated_rectangle(center, half_u, half_v, angle):
    """Corners in cycle order; chords (0, 1) and (2, 3) are opposite sides."""
    u = np.array([math.cos(angle), math.sin(angle)])
    v = np.array([-u[1], u[0]])
    c = np.asarray(center, dtype=float)
    return [
        c - half_u * u - half_v * v,
        c + half_u * u - half_v * v,
        c + half_u * u + half_v * v,
        c - half_u * u + half_v * v,
    ]


def test_coincident_bisectors_give_point_nearest_midpoints():
    # isosceles trapezoid: both bisectors are the line x = 2, and the point
    # returned is the midpoint of the chord midpoints (2, 0) and (2, 3)
    f = bisector_intersection((0.0, 0.0), (4.0, 0.0), (1.0, 3.0), (3.0, 3.0))
    assert (f.x, f.y) == pytest.approx((2.0, 1.5), abs=1e-12)
    rng = np.random.default_rng(41)
    for _ in range(100):
        center = rng.uniform(-100.0, 100.0, 2)
        pts = _rotated_rectangle(
            center, rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0), rng.uniform(0.0, math.tau)
        )
        f = bisector_intersection(*pts)
        assert (f.x, f.y) == pytest.approx(tuple(center), abs=1e-9)
        d = [math.hypot(f.x - p[0], f.y - p[1]) for p in pts]
        assert abs(d[0] - d[1]) <= 1e-9 and abs(d[2] - d[3]) <= 1e-9


def test_distinct_parallel_bisectors_rejected():
    rng = np.random.default_rng(43)
    for _ in range(100):
        angle = rng.uniform(0.0, math.tau)
        pts = _rotated_rectangle(rng.uniform(-100.0, 100.0, 2), 3.0, 2.0, angle)
        # slide the second chord along itself: still parallel, bisector moved
        shift = rng.uniform(0.01, 5.0) * np.array([math.cos(angle), math.sin(angle)])
        with pytest.raises(ParallelChordsError):
            bisector_intersection(pts[0], pts[1], pts[2] + shift, pts[3] + shift)


def test_degenerate_chord_rejected():
    with pytest.raises(DegenerateChordError):
        bisector_intersection((2, 2), (2, 2), (0, 0), (1, 1))


def test_concyclic_points_give_center():
    center = np.array([12.0, -7.0])
    radius = 40.0
    ang = np.array([0.3, 1.9, 3.4, 5.1])
    pts = center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    f = bisector_intersection(*pts)
    assert f.x == pytest.approx(center[0], abs=1e-9)
    assert f.y == pytest.approx(center[1], abs=1e-9)


def test_transmission_distance_circumradius_form():
    # station over the circumcenter: slant to a chord midpoint collapses to
    # sqrt(R^2 - (d/2)^2 + H^2)
    center = np.array([5.0, 9.0])
    radius = 30.0
    height = 50.0
    ang = np.array([0.2, 1.1, 2.8, 4.4])
    pts = center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    f = bisector_intersection(*pts)
    pos = np.array([f.x, f.y, height])
    for a, b in ((0, 1), (2, 3)):
        m = 0.5 * (pts[a] + pts[b])
        d = math.dist(pts[a], pts[b])
        expect = math.sqrt(radius**2 - (d / 2.0) ** 2 + height**2)
        assert transmission_distance(pos, m) == pytest.approx(expect, rel=1e-12)


def test_placement_is_frozen():
    pl = Placement(position=np.array([0.0, 0.0, 10.0]))
    with pytest.raises(AttributeError):
        pl.position = np.zeros(3)


def test_aligned_pair_sees_opposite_azimuths():
    rng = np.random.default_rng(17)
    for _ in range(300):
        u1 = rng.uniform(-40.0, 40.0, 2)
        u2 = rng.uniform(-40.0, 40.0, 2)
        if math.dist(u1, u2) < 1e-3:
            continue
        m = 0.5 * (u1 + u2)
        # any station on the chord's bisector line is aligned for this pair
        chord = u2 - u1
        perp = np.array([-chord[1], chord[0]])
        t = float(rng.uniform(-30.0, 30.0))
        h = float(rng.uniform(20.0, 120.0))
        pos = np.array([m[0] + t * perp[0], m[1] + t * perp[1], h])
        aim = np.array((m[0], m[1], 0.0)) - pos
        radial, axial = aimed_pair_coords(pos, np.linalg.norm(aim), m, 0.5 * (u1 - u2))
        half = math.dist(u1, u2) / 2.0
        assert radial == pytest.approx(half, rel=1e-9)
        assert axial[0] == pytest.approx(axial[1], rel=1e-9)
        axis = aim / np.linalg.norm(aim)
        (_, phi1, _), (_, phi2, _) = (local_frame(pos, axis, u) for u in (u1, u2))
        assert math.remainder(phi2 - phi1 - math.pi, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_beam_frame_on_axis_point():
    # A pair collapsed onto its aim point sits on the axis at the aim distance.
    pos = np.array([0.0, 0.0, 50.0])
    radial, axial = aimed_pair_coords(pos, 50.0, (0.0, 0.0), (0.0, 0.0))
    assert radial == 0.0
    assert axial == pytest.approx([50.0, 50.0])


def local_frame(position, axis, point):
    """Radial, azimuth and axial coordinates of a point about a beam; a 2-D point is on the ground.

    The azimuth is measured from e1 = axis x (the x or y unit vector) toward
    e2 = axis x e1, a right-handed frame built by cross products.
    """
    rel = np.array((point[0], point[1], point[2] if len(point) == 3 else 0.0)) - position
    axial = float(np.dot(rel, axis))
    t = rel - axial * axis
    e1 = np.cross(axis, (1.0, 0.0, 0.0) if abs(axis[0]) < 0.9 else (0.0, 1.0, 0.0))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return float(np.linalg.norm(t)), math.atan2(np.dot(t, e2), np.dot(t, e1)), axial


def test_aimed_pair_coords_match_a_local_frame():
    # Stations anywhere above the plane, aimed at the midpoint of two ground
    # users: a frame built by cross products must find both users at the
    # kernel's radius and axial distances, with azimuths pi apart.
    rng = np.random.default_rng(39)
    n = 200
    positions = np.column_stack((rng.uniform(-20.0, 20.0, size=(n, 2)), rng.uniform(0.5, 40.0, n)))
    ends = rng.uniform(-20.0, 20.0, size=(n, 2, 2))
    midpoints = 0.5 * (ends[:, 0] + ends[:, 1])
    aims = np.column_stack((midpoints, np.zeros(n))) - positions
    distances = np.linalg.norm(aims, axis=1)
    radial, axial = aimed_pair_coords(positions, distances, midpoints, 0.5 * (ends[:, 0] - ends[:, 1]))
    assert radial.shape == (n,) and axial.shape == (n, 2)
    for k in range(n):
        (r1, phi1, z1), (r2, phi2, z2) = (
            local_frame(positions[k], aims[k] / distances[k], end) for end in ends[k]
        )
        np.testing.assert_allclose((r1, r2), radial[k], rtol=1e-9)
        np.testing.assert_allclose(axial[k], (z1, z2), rtol=1e-9, atol=1e-9)
        assert math.remainder(phi2 - phi1 - math.pi, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_square_angles():
    sq = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    np.testing.assert_allclose(quad_angles(sq)[0], math.pi / 2.0, rtol=1e-12)
    assert angle_square_difference(quad_angles(sq)[0]) == pytest.approx(0.0, abs=1e-18)


def test_rectangle_has_zero_objective():
    rect = np.array([[0.0, 0.0], [7.0, 0.0], [7.0, 2.0], [0.0, 2.0]])
    assert angle_square_difference(quad_angles(rect)[0]) == pytest.approx(0.0, abs=1e-15)


def test_known_convex_quad_angles():
    # frozen from the adjacent-edge arccos route on this vertex list
    quad = np.array([[0.0, 0.0], [4.0, -1.0], [6.0, 3.0], [1.0, 5.0]])
    expect = [1.61837943007188, 1.78946527266884, 1.48765509490646, 1.38768550953241]
    np.testing.assert_allclose(quad_angles(quad)[0], expect, rtol=1e-10)
    assert angle_square_difference(np.array(expect)) == pytest.approx(
        0.0905222954455514, rel=1e-10
    )


def test_convex_quads_match_arccos_route():
    rng = np.random.default_rng(31)
    done = 0
    while done < 200:
        pts = rng.uniform(-10.0, 10.0, size=(4, 2))
        hull = ConvexHull(pts)
        if len(hull.vertices) != 4:
            continue
        quad = pts[hull.vertices]
        got = quad_angles(quad)[0]
        for i in range(4):
            u = quad[(i - 1) % 4] - quad[i]
            v = quad[(i + 1) % 4] - quad[i]
            cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert got[i] == pytest.approx(math.acos(np.clip(cosang, -1, 1)), abs=1e-9)
        done += 1


def test_reflex_vertex_handled():
    dart = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 1.0], [0.0, 4.0]])
    angles = quad_angles(dart)[0]
    assert np.sum(angles) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert angles[2] > math.pi  # the dent
    u = dart[1] - dart[2]
    v = dart[3] - dart[2]
    cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    assert angles[2] == pytest.approx(2.0 * math.pi - math.acos(cosang), rel=1e-12)


def test_angle_sum_always_full_turn():
    rng = np.random.default_rng(37)
    done = 0
    while done < 300:
        pts = rng.uniform(-5.0, 5.0, size=(4, 2))
        angles, defect = quad_angles(pts)
        if defect:
            assert np.all(np.isnan(angles))
            continue
        assert np.sum(angles) == pytest.approx(2.0 * math.pi, rel=1e-9)
        done += 1


def _assert_not_simple(quad, reason):
    angles, defect = quad_angles(quad)
    assert NOT_SIMPLE[defect] == reason
    assert np.all(np.isnan(angles))


def test_self_intersecting_order_rejected():
    bowtie = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0]])
    _assert_not_simple(bowtie, "opposite sides cross")


def test_repeated_vertex_rejected():
    bad = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    _assert_not_simple(bad, "repeated vertex")


def test_collinear_triple_rejected():
    bad = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    _assert_not_simple(bad, "collinear triple")
