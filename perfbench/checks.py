"""Output checks against physics computed apart from the simulator.

Nothing here calls the simulator's beam, geometry, selection or link code:
the ring closed form, the bisector station, the interior angles and the
chord floors are all recomputed from user positions and configuration
values.  Each check returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

C_LIGHT = 299_792_458.0

# Relative tolerance for quantities the simulator computes by another route.
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def ring_mode(modes) -> int:
    """Lowest nonzero mode order; the positive sign wins a tie."""
    return min((m for m in modes if m != 0), key=lambda m: (abs(m), m < 0))


def wavelength(link) -> float:
    return C_LIGHT / link.carrier_frequency


def effective_aperture(link) -> float:
    if link.aperture is not None:
        return link.aperture
    lam = wavelength(link)
    return lam * lam / (4.0 * math.pi)


def aligned_pair_se(link, chord: float) -> float:
    """SE of one aligned pair whose waist puts the ring on both users.

    The ring condition c/2 = sqrt(|m_r|/2) * w fixes w^2 = c^2 / (2 |m_r|)
    at the users and u = 2 (c/2)^2 / w^2 = |m_r| there, whatever the range,
    so mode m carries I_m = 2 u^|m| e^-u / (pi w^2 |m|!).  Both users see
    equal amplitudes with opposite helical phases, so projection adds them
    coherently without crosstalk: SINR_m = 2 P A_eff I_m / sigma^2.
    """
    m_r = abs(ring_mode(link.mode_set))
    w2 = chord * chord / (2.0 * m_r)
    u = float(m_r)
    gain = 2.0 * link.transmit_power * effective_aperture(link) / link.noise_power
    se = 0.0
    for m in link.mode_set:
        order = abs(m)
        i_m = 2.0 * u**order * math.exp(-u) / (math.pi * w2 * math.factorial(order))
        se += math.log2(1.0 + gain * i_m)
    return se


def bisector_station(p1, p2, p3, p4) -> tuple[float, float]:
    """Ground point equidistant from p1, p2 and from p3, p4 (a 2x2 linear solve)."""
    a = np.array([[p2[0] - p1[0], p2[1] - p1[1]], [p4[0] - p3[0], p4[1] - p3[1]]])
    b = 0.5 * np.array(
        [
            p2[0] ** 2 + p2[1] ** 2 - p1[0] ** 2 - p1[1] ** 2,
            p4[0] ** 2 + p4[1] ** 2 - p3[0] ** 2 - p3[1] ** 2,
        ]
    )
    x, y = np.linalg.solve(a, b)
    return float(x), float(y)


def interior_angles(quad) -> list[float]:
    """Interior angles of a simple quadrilateral in cycle order.

    Each angle is swept from the next edge to the previous one in the
    polygon's own rotation sense, so a reflex vertex reads above pi.
    """
    pts = [(float(x), float(y)) for x, y in quad]
    area2 = sum(
        pts[i][0] * pts[(i + 1) % 4][1] - pts[(i + 1) % 4][0] * pts[i][1]
        for i in range(4)
    )
    sense = 1.0 if area2 > 0.0 else -1.0
    angles = []
    for i in range(4):
        bx, by = pts[i]
        nx, ny = pts[(i + 1) % 4][0] - bx, pts[(i + 1) % 4][1] - by
        px, py = pts[i - 1][0] - bx, pts[i - 1][1] - by
        sweep = math.atan2(sense * (nx * py - ny * px), nx * px + ny * py)
        angles.append(sweep % (2.0 * math.pi))
    return angles


def psi(quad) -> float:
    """Squared right-angle deviation of a quadrilateral's interior angles."""
    return sum((a - 0.5 * math.pi) ** 2 for a in interior_angles(quad))


def check_selection(cfg, positions, selection) -> list[str]:
    """Check (b): distinct users, chord and diagonal bounds, and psi."""
    idx = [int(i) for i in selection.cug1 + selection.cug2]
    if len(set(idx)) != 4 or min(idx) < 0 or max(idx) >= len(positions):
        return [f"selection users {idx} are not four distinct users of the drop"]
    p = [positions[i] for i in idx]
    fails = []

    def dist(a, b):
        return math.hypot(a[0] - b[0], a[1] - b[1])

    chords = (dist(p[0], p[1]), dist(p[2], p[3]))
    for k, (chord, told) in enumerate(zip(chords, (selection.chord1, selection.chord2))):
        if not _close(chord, told):
            fails.append(f"cug{k + 1} chord reported {told!r}, positions give {chord!r}")
    try:
        fx, fy = bisector_station(*p)
    except np.linalg.LinAlgError:
        return fails + ["the chords are parallel: no station is aligned with both"]
    h = cfg.fbs_height
    lam = wavelength(cfg.link)
    m_r = abs(ring_mode(cfg.link.mode_set))
    for k, chord in enumerate(chords):
        mx = 0.5 * (p[2 * k][0] + p[2 * k + 1][0])
        my = 0.5 * (p[2 * k][1] + p[2 * k + 1][1])
        z = math.sqrt((fx - mx) ** 2 + (fy - my) ** 2 + h * h)
        floor = 2.0 * math.sqrt(z * lam * m_r / math.pi)
        if chord < floor * (1.0 - REL_TOL):
            fails.append(f"cug{k + 1} chord {chord:.9g} m is below the ring floor {floor:.9g} m")
        if chord > cfg.selection.max_pair_distance:
            fails.append(
                f"cug{k + 1} chord {chord:.9g} m exceeds max_pair_distance "
                f"{cfg.selection.max_pair_distance:.9g} m"
            )
    diameter = 2.0 * cfg.selection.service_radius
    for k, diag in enumerate((dist(p[0], p[2]), dist(p[1], p[3]))):
        if diag > diameter:
            fails.append(f"diagonal {k + 1} {diag:.9g} m exceeds the service diameter")
    want = psi(p)
    if abs(want - selection.angle_square_diff) > REL_TOL * max(1.0, want):
        fails.append(f"psi reported {selection.angle_square_diff!r}, angles give {want!r}")
    return fails


def check_equidistant(positions, selection, station) -> list[str]:
    """Check (c): the acoc station is equidistant from both users of each pair."""
    fails = []
    sx, sy, sz = (float(c) for c in station)
    for k, pair in enumerate((selection.cug1, selection.cug2)):
        d = [
            math.sqrt((sx - positions[i][0]) ** 2 + (sy - positions[i][1]) ** 2 + sz * sz)
            for i in pair
        ]
        if not _close(d[0], d[1]):
            fails.append(f"acoc station is {d[0]!r} m and {d[1]!r} m from the users of cug{k + 1}")
    return fails


def check_acoc_se(cfg, positions, selection, report, se_total) -> list[str]:
    """Check (a): every served acoc pair meets the ring closed form."""
    fails = []
    expected_total = 0.0
    for k, cug in enumerate(report.cugs):
        if cug.flags:
            continue
        a, b = (positions[i] for i in cug.users)
        want = aligned_pair_se(cfg.link, math.hypot(a[0] - b[0], a[1] - b[1]))
        expected_total += want
        if not _close(cug.se, want):
            fails.append(f"acoc cug{k + 1} SE {cug.se!r}, closed form {want!r}")
    if not _close(se_total, expected_total):
        fails.append(f"acoc SE {se_total!r}, closed form {expected_total!r}")
    return fails


def check_trial(cfg, trial_index, positions, results, schemes) -> list[str]:
    """Checks (a) to (d) on one run_trial output."""
    got = [(r.trial_index, r.scheme) for r in results]
    if got != [(trial_index, s) for s in schemes]:
        return [f"trial {trial_index} returned {got}, expected one row per scheme"]
    if results[0].selection is None:
        fails = []
        for r in results:
            if r.se_total != 0.0 or r.flags != ("no-selection",):
                fails.append(f"{r.scheme}: no selection but SE {r.se_total!r}, flags {r.flags}")
        return fails
    by_scheme = {r.scheme: r for r in results}
    acoc = by_scheme["acoc"]
    fails = check_selection(cfg, positions, acoc.selection)
    fails += check_equidistant(positions, acoc.selection, acoc.placement.position)
    fails += check_acoc_se(cfg, positions, acoc.selection, acoc.link_report, acoc.se_total)
    for r in results:
        if r.selection != acoc.selection:
            fails.append(f"{r.scheme} was evaluated on another selection than acoc")
        if not (math.isfinite(r.se_total) and r.se_total >= 0.0):
            fails.append(f"{r.scheme} SE {r.se_total!r} is not finite and nonnegative")
        if r.se_total > acoc.se_total * (1.0 + REL_TOL):
            fails.append(f"{r.scheme} SE {r.se_total!r} beats acoc SE {acoc.se_total!r}")
    return fails


def check_heatmap(cfg, grid_size, result) -> list[str]:
    """Check (e), plus (a) to (c) at the closed-form marker.

    The grid argmax is not required to lie next to the marker: SE falls by
    10-20 bits within a metre of the aligned position, so a 1 m grid
    samples two crossing alignment ridges and its best node can sit two or
    more cells away, and the marker can lie outside the hotspot square the
    grid spans.  The marker must beat every node wherever it lies.
    """
    side = cfg.hotspot_side
    axis = np.linspace(0.0, side, grid_size)
    if result.se.shape != (grid_size, grid_size):
        return [f"grid shape {result.se.shape}, expected {(grid_size, grid_size)}"]
    if not (np.array_equal(result.xs, axis) and np.array_equal(result.ys, axis)):
        return ["grid axes are not the hotspot's evenly spaced nodes"]
    positions = result.drop.positions
    sel = result.selection
    ox, oy = result.optimum
    station = (ox, oy, cfg.fbs_height)
    fails = check_selection(cfg, positions, sel)
    fails += check_equidistant(positions, sel, station)
    want = sum(
        aligned_pair_se(cfg.link, math.hypot(*(positions[a] - positions[b])))
        for a, b in (sel.cug1, sel.cug2)
    )
    if not _close(result.se_at_optimum, want):
        fails.append(f"marker SE {result.se_at_optimum!r}, closed form {want!r}")
    se = result.se
    if not np.all(np.isfinite(se)) or np.any(se < 0.0):
        fails.append("grid holds an SE that is not finite and nonnegative")
        return fails
    top = float(se.max())
    if top > result.se_at_optimum:
        fails.append(f"grid node SE {top!r} beats the marker SE {result.se_at_optimum!r}")
    return fails
