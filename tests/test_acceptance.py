"""Acceptance suite: eight end-to-end checks, one verdict line each.

Each test prints `ACCEPTANCE <n> <name>: PASS/FAIL (<measured values>)`
before asserting, so a verbose run documents the measured numbers either
way.  Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines
for passing checks too.
"""

import math
import time
from dataclasses import replace

import numpy as np

from oamcoop.beam import (
    BeamSpec,
    feasible_ring_radius,
    mode_intensities,
    optimal_ring_radius,
    ring_waists,
)
from oamcoop.cli import main as cli_main
from oamcoop.errors import (
    DegenerateChordError,
    InfeasibleScenarioError,
    ParallelChordsError,
)
from oamcoop.geometry import aimed_pair_coords, bisector_intersection, transmission_distance
from oamcoop.link import LinkConfig, channel_condition, half_angle_weights, mode_amplitudes
from oamcoop.selection import (
    SelectionConfig,
    bound_excess,
    exhaustive_select,
    greedy_select,
)
from oamcoop.sim import ScenarioConfig, run_experiment, se_heatmap, summarize

LAM = LinkConfig().wavelength


def _verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_c1_beam_ring_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rt = 0.0
    for _ in range(1000):
        mode = int(rng.integers(1, 7))
        z = float(rng.uniform(5.0, 400.0))
        r = float(feasible_ring_radius(LAM, mode, z)) * float(rng.uniform(1.0001, 8.0))
        w0 = float(ring_waists(r, z, LAM, mode))
        back = float(optimal_ring_radius(BeamSpec(LAM, mode, w0), z))
        worst_rt = max(worst_rt, abs(back - r) / r)

    worst_norm = 0.0
    for _ in range(5):
        mode = int(rng.integers(1, 6))
        spec = BeamSpec(LAM, mode, float(rng.uniform(0.3, 2.0)))
        z = float(rng.uniform(0.0, 200.0))
        w = float(spec.envelope(z))
        grid = np.linspace(0.0, 12.0 * w, 40001)
        profile = mode_intensities((mode,), grid, w)[:, 0]
        total = float(np.trapezoid(profile * 2.0 * math.pi * grid, grid))
        worst_norm = max(worst_norm, abs(total - 1.0))

    mode, z = 3, 140.0
    floor = float(feasible_ring_radius(LAM, mode, z))
    half_sum = floor * floor / mode
    disc = abs(half_sum * half_sum - (z * LAM / math.pi) ** 2) / (half_sum * half_sum)

    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-9 and worst_norm <= 1e-6 and disc <= 1e-9 and elapsed < 10.0
    line = _verdict(
        1,
        "beam-ring-solver",
        ok,
        f"roundtrip {worst_rt:.2e}, normalization {worst_norm:.2e}, "
        f"boundary discriminant {disc:.2e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_c2_station_geometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)

    worst_eq = 0.0
    worst_slope = 0.0
    for _ in range(1000):
        pts = rng.uniform(-400.0, 400.0, size=(4, 2))
        try:
            f = bisector_intersection(*pts)
        except (ParallelChordsError, DegenerateChordError):
            continue
        scale = max(1.0, float(np.max(np.abs(pts))), abs(f.x), abs(f.y))
        d = [math.hypot(f.x - p[0], f.y - p[1]) for p in pts]
        worst_eq = max(worst_eq, abs(d[0] - d[1]) / scale, abs(d[2] - d[3]) / scale)

        if abs(pts[1][1] - pts[0][1]) > 1.0 and abs(pts[3][1] - pts[2][1]) > 1.0:
            lines = []
            for p, q in ((pts[0], pts[1]), (pts[2], pts[3])):
                mx, my = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
                slope = -(q[0] - p[0]) / (q[1] - p[1])
                lines.append((slope, my - slope * mx))
            (m1, b1), (m2, b2) = lines
            if abs(m1 - m2) > 1e-9:
                x = (b2 - b1) / (m1 - m2)
                y = m1 * x + b1
                ref = max(1.0, abs(x), abs(y))
                worst_slope = max(worst_slope, abs(f.x - x) / ref, abs(f.y - y) / ref)

    center = np.array([3.0, -11.0])
    radius, height = 35.0, 60.0
    ang = np.array([0.4, 1.7, 3.1, 5.0])
    pts = center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    f = bisector_intersection(*pts)
    station = (f.x, f.y, height)
    worst_circ = 0.0
    for a, b in ((0, 1), (2, 3)):
        m = (pts[a] + pts[b]) / 2.0
        d = math.dist(pts[a], pts[b])
        expect = math.sqrt(radius**2 - (d / 2.0) ** 2 + height**2)
        got = transmission_distance(station, m)
        worst_circ = max(worst_circ, abs(got - expect) / expect)

    elapsed = time.perf_counter() - t0
    ok = (
        worst_eq <= 1e-9
        and worst_slope <= 1e-9
        and worst_circ <= 1e-12
        and elapsed < 5.0
    )
    line = _verdict(
        2,
        "station-geometry",
        ok,
        f"equidistance {worst_eq:.2e}, slope-form {worst_slope:.2e}, "
        f"circumradius {worst_circ:.2e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_c3_heatmap_peak_at_closed_form():
    t0 = time.perf_counter()
    hits = 0
    misses = []
    worst_cell_dist = 0.0
    min_margin = float("inf")
    feasible = 0
    seed = 0
    while feasible < 20:
        seed += 1
        cfg = ScenarioConfig(master_seed=seed)
        try:
            res = se_heatmap(cfg, grid_size=101)
        except InfeasibleScenarioError:
            continue
        feasible += 1
        j, i = np.unravel_index(int(np.argmax(res.se)), res.se.shape)
        cell = float(res.xs[1] - res.xs[0])

        # Distance from the argmax node to the cell containing the marker,
        # per axis; "within one grid cell" admits the marker's cell and its
        # neighbours.  The SE valley around the optimum is nearly flat along
        # one direction, so the discrete argmax may sit a node further along
        # it than the nearest node.
        def cell_dist(node, opt):
            lo = math.floor(opt / cell) * cell
            return max(0.0, lo - node, node - (lo + cell))

        dx = cell_dist(float(res.xs[i]), res.optimum[0])
        dy = cell_dist(float(res.ys[j]), res.optimum[1])
        worst_cell_dist = max(worst_cell_dist, dx, dy)
        if dx <= cell + 1e-9 and dy <= cell + 1e-9:
            hits += 1
        else:
            misses.append((seed, dx, dy))
        # The closed form must also beat every sampled position outright.
        min_margin = min(min_margin, res.se_at_optimum - float(np.max(res.se)))
    elapsed = time.perf_counter() - t0
    ok = hits == 20 and min_margin >= -1e-9 and elapsed < 120.0
    line = _verdict(
        3,
        "heatmap-peak-at-closed-form",
        ok,
        f"{hits}/20 within one cell (worst cell distance {worst_cell_dist:.2f} m, "
        f"misses {misses}), closed form beats grid by >= {min_margin:.2e} bits, "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_c4_scheme_ordering():
    t0 = time.perf_counter()
    cfg = ScenarioConfig()  # 200 trials, 4000 users, 50 m, defaults
    summ = summarize(run_experiment(cfg))
    a, s, r = summ["acoc"], summ["suboptimal"], summ["random"]
    elapsed = time.perf_counter() - t0
    first = a.mean_se - a.ci95_half_width > s.mean_se + s.ci95_half_width
    second = s.mean_se - s.ci95_half_width > r.mean_se + r.ci95_half_width
    ok = first and second and elapsed < 300.0
    line = _verdict(
        4,
        "scheme-ordering",
        ok,
        f"acoc {a.mean_se:.3f}+-{a.ci95_half_width:.3f}, "
        f"suboptimal {s.mean_se:.3f}+-{s.ci95_half_width:.3f}, "
        f"random {r.mean_se:.3f}+-{r.ci95_half_width:.3f}, "
        f"acoc>suboptimal:{first}, suboptimal>random:{second}, {elapsed:.0f}s",
    )
    assert ok, line


def test_c5_height_and_user_trends():
    t0 = time.perf_counter()
    height_means = []
    for h in (50.0, 100.0, 150.0, 200.0, 250.0):
        cfg = replace(ScenarioConfig(), fbs_height=h)
        height_means.append(summarize(run_experiment(cfg, ("acoc",)))["acoc"].mean_se)
    strictly_down = all(
        height_means[i] > height_means[i + 1] for i in range(len(height_means) - 1)
    )

    user_means = []
    cow_ok = True
    for u in (1000, 2000, 3000, 4000):
        cfg = replace(ScenarioConfig(), user_count=u)
        summ = summarize(run_experiment(cfg, ("acoc", "cow")))
        user_means.append(summ["acoc"].mean_se)
        cow_ok = cow_ok and summ["acoc"].mean_se > summ["cow"].mean_se
    nondecreasing = all(
        user_means[i] <= user_means[i + 1] for i in range(len(user_means) - 1)
    )

    elapsed = time.perf_counter() - t0
    ok = strictly_down and nondecreasing and cow_ok and elapsed < 600.0
    line = _verdict(
        5,
        "height-and-user-trends",
        ok,
        f"height means {[f'{m:.2f}' for m in height_means]} strictly-down:{strictly_down}, "
        f"user means {[f'{m:.2f}' for m in user_means]} nondecreasing:{nondecreasing}, "
        f"acoc>cow:{cow_ok}, {elapsed:.0f}s",
    )
    assert ok, line


def test_c6_selection_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    cfg = SelectionConfig()
    gaps = []
    violations = 0
    found = 0
    for _ in range(100):
        users = rng.uniform(0.0, 30.0, size=(12, 2))
        sel = greedy_select(users, cfg, LAM, 1, center=(15.0, 15.0))
        if sel is None:
            continue
        found += 1
        u1, u2, u3, u4 = users[list(sel.indices())]
        lengths = (math.dist(u1, u2), math.dist(u3, u4), math.dist(u1, u3), math.dist(u2, u4))
        if np.any(bound_excess(*lengths, cfg, LAM, 1) > 0.0):
            violations += 1
        ex = exhaustive_select(users, cfg, LAM, 1)
        if ex is None or sel.angle_square_diff < ex.angle_square_diff - 1e-12:
            violations += 1
        else:
            gaps.append(sel.angle_square_diff - ex.angle_square_diff)
    mean_gap = float(np.mean(gaps)) if gaps else float("nan")
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and found > 0 and elapsed < 60.0
    line = _verdict(
        6,
        "selection-vs-oracle",
        ok,
        f"{found}/100 instances selectable, violations {violations}, "
        f"mean optimality gap {mean_gap:.4f}, {elapsed:.1f}s",
    )
    assert ok, line


def test_c7_mode_separability_parity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_cross = 0.0
    even_flagged = 0
    even_total = 0
    odd_total = 0
    while odd_total < 100 or even_total < 100:
        m1 = int(rng.integers(-5, 6))
        m2 = int(rng.integers(-5, 6))
        if m1 == m2 or m1 == 0 or m2 == 0:
            continue
        parity_odd = (m1 - m2) % 2 == 1
        if parity_odd and odd_total >= 100:
            continue
        if not parity_odd and even_total >= 100:
            continue
        cfg = LinkConfig(mode_set=(m1, m2))
        z = float(rng.uniform(20.0, 150.0))
        ring = abs(cfg.ring_mode)
        rho = float(feasible_ring_radius(LAM, ring, z)) * float(rng.uniform(1.05, 3.0))
        beam = BeamSpec(LAM, cfg.ring_mode, ring_waists(rho, z, LAM, ring))
        phi = float(rng.uniform(-math.pi, math.pi))
        # A station at height z aims straight down at its pair's midpoint; the
        # pair sits on the ring at azimuths phi and phi + pi.
        ends = rho * np.array([(math.cos(t), math.sin(t)) for t in (phi, phi + math.pi)])
        radial, axial = aimed_pair_coords((0.0, 0.0, z), z, (0.0, 0.0), 0.5 * (ends[0] - ends[1]))
        a = mode_amplitudes(cfg, np.full(2, radial), beam.envelope(np.abs(axial)))
        cos2, sin2 = half_angle_weights((m2 - m1) * math.pi)
        if parity_odd:
            odd_total += 1
            # |h_0^H h_1| / (||h_0|| ||h_1||) of the mode columns h_im = A_im exp(i m phi_i).
            user0, user1 = a[0, 0] * a[0, 1], a[1, 0] * a[1, 1]
            cross2 = (user0 + user1) ** 2 * cos2 + (user0 - user1) ** 2 * sin2
            norms2 = (a[0, 0] ** 2 + a[1, 0] ** 2) * (a[0, 1] ** 2 + a[1, 1] ** 2)
            worst_cross = max(worst_cross, math.sqrt(cross2 / norms2))
        else:
            even_total += 1
            _, separable = channel_condition(a, cos2, sin2)
            if not separable:
                even_flagged += 1
    elapsed = time.perf_counter() - t0
    ok = worst_cross < 1e-12 and even_flagged == 100 and elapsed < 5.0
    line = _verdict(
        7,
        "mode-separability-parity",
        ok,
        f"odd-gap cross-talk {worst_cross:.2e} over 100, "
        f"even-gap flagged {even_flagged}/100, {elapsed:.1f}s",
    )
    assert ok, line


def test_c8_cli_determinism(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("user_count = 800\ntrials = 10\nmaster_seed = 3\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        rc = cli_main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--axis",
                "height",
                "--values",
                "50,100",
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    line = _verdict(
        8,
        "cli-determinism",
        ok,
        f"{len(outs[0])} bytes, identical:{ok}",
    )
    assert ok, line
