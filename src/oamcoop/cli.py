"""Command line front end: heatmap, sweep, and validate subcommands.

Exit codes: 0 success, 1 validation check failed, 2 configuration error,
3 infeasible scenario or placement.  Any other error is a fault of the
program and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .beam import BeamSpec, optimal_ring_radius, ring_waists
from .config import config_echo, load_config
from .errors import ConfigError, InfeasiblePlacementError, InfeasibleScenarioError, OamCoopError
from .geometry import aim_at_midpoints, bisector_intersection, pair_frame_coords
from .link import channel_condition, half_angle_weights, mode_amplitudes
from .sim import SCHEMES, ScenarioConfig, run_experiment, se_heatmap, summarize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INFEASIBLE = 3


def _fmt(value: float) -> str:
    """Nine significant digits, the CSV number contract."""
    return f"{value:.9g}"


def _write_manifest(out: Path, command: str, cfg: ScenarioConfig, arguments: dict) -> Path:
    manifest = {
        "command": command,
        "version": __version__,
        "master_seed": cfg.master_seed,
        "config": config_echo(cfg),
        "arguments": arguments,
        "outputs": [out.name],
    }
    path = Path(str(out) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _override(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """cfg with command-line values applied; a value it rejects is a ConfigError."""
    try:
        return replace(cfg, **changes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_csv_list(raw: str, kind: str):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"empty {kind} list")
    return parts


def cmd_heatmap(cfg: ScenarioConfig, out: Path, grid: int) -> int:
    """Write the position-grid spectrum efficiency map for trial 0's selection."""
    result = se_heatmap(cfg, grid)
    lines = ["x_m,y_m,se_bps_hz,is_closed_form_opt"]
    for j in range(grid):
        for i in range(grid):
            lines.append(
                f"{_fmt(result.xs[i])},{_fmt(result.ys[j])},"
                f"{_fmt(result.se[j, i])},0"
            )
    ox, oy = result.optimum
    lines.append(f"{_fmt(ox)},{_fmt(oy)},{_fmt(result.se_at_optimum)},1")
    out.write_text("\n".join(lines) + "\n")
    _write_manifest(out, "heatmap", cfg, {"grid": grid})
    return EXIT_OK


def cmd_sweep(cfg: ScenarioConfig, out: Path, axis: str, values, schemes) -> int:
    """Sweep flight height or user count and write per-scheme aggregates."""
    lines = ["axis_value,scheme,mean_se_bps_hz,ci95_half_width,trials,flag_rate"]
    for value in values:
        if axis == "height":
            cfg_v = _override(cfg, fbs_height=float(value))
        else:
            cfg_v = _override(cfg, user_count=int(value))
        summaries = summarize(run_experiment(cfg_v, schemes))
        for scheme in schemes:
            s = summaries[scheme]
            lines.append(
                f"{_fmt(float(value))},{scheme},{_fmt(s.mean_se)},"
                f"{_fmt(s.ci95_half_width)},{s.trials},{_fmt(s.flag_rate)}"
            )
    out.write_text("\n".join(lines) + "\n")
    _write_manifest(
        out,
        "sweep",
        cfg,
        {"axis": axis, "values": list(values), "schemes": list(schemes)},
    )
    return EXIT_OK


def _validate_checks(cfg: ScenarioConfig):
    """Fast invariant suite; yields (name, ok, detail) triples."""
    rng = np.random.default_rng(20240817)
    lam = cfg.link.wavelength

    worst = 0.0
    for _ in range(300):
        mode = int(rng.integers(1, 6))
        z = float(rng.uniform(5.0, 400.0))
        floor = math.sqrt(z * lam * mode / math.pi)
        radius = floor * float(rng.uniform(1.0001, 8.0))
        waist = float(ring_waists(radius, z, lam, mode))
        back = float(optimal_ring_radius(BeamSpec(lam, mode, waist), z))
        worst = max(worst, abs(back - radius) / radius)
    yield "beam-ring-roundtrip", worst <= 1e-9, f"max relative error {worst:.3e}"

    mode = 2
    z = 120.0
    floor = math.sqrt(z * lam * mode / math.pi)
    half_sum = floor * floor / mode
    product = (z * lam / math.pi) ** 2
    disc = abs(half_sum * half_sum - product) / (half_sum * half_sum)
    waist = float(ring_waists(floor, z, lam, mode))
    expect = math.sqrt(half_sum)
    err = abs(waist - expect) / expect
    # The discriminant itself is the quantity that must vanish; the root value
    # inherits a sqrt(eps) wobble from it, so it gets the looser bound.
    ok = disc <= 1e-9 and err <= 1e-7
    yield "beam-boundary-double-root", ok, f"scaled discriminant {disc:.3e}, root error {err:.3e}"

    worst = 0.0
    for _ in range(300):
        pts = rng.uniform(-500.0, 500.0, size=(4, 2))
        try:
            fx, fy = bisector_intersection(*pts)
        except OamCoopError:
            continue
        scale = max(1.0, float(np.max(np.abs(pts))), abs(fx), abs(fy))
        d1 = math.hypot(fx - pts[0][0], fy - pts[0][1])
        d2 = math.hypot(fx - pts[1][0], fy - pts[1][1])
        d3 = math.hypot(fx - pts[2][0], fy - pts[2][1])
        d4 = math.hypot(fx - pts[3][0], fy - pts[3][1])
        worst = max(worst, abs(d1 - d2) / scale, abs(d3 - d4) / scale)
    yield "bisector-equidistance", worst <= 1e-9, f"max scaled error {worst:.3e}"

    modes = cfg.link.mode_set
    parity_even = (modes[0] - modes[1]) % 2 == 0
    probe_cfg = replace(cfg.link, mode_set=modes if not parity_even else (1, 2))
    m1, m2 = probe_cfg.mode_set
    worst = 0.0
    for _ in range(100):
        chord = float(rng.uniform(2.0, 12.0))
        height = float(rng.uniform(20.0, 200.0))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        mx, my = rng.uniform(-50.0, 50.0, size=2)
        ux = (mx + 0.5 * chord * math.cos(ang), my + 0.5 * chord * math.sin(ang))
        vx = (mx - 0.5 * chord * math.cos(ang), my - 0.5 * chord * math.sin(ang))
        placement = aim_at_midpoints((mx, my, height), (mx, my), (mx, my + 1.0))
        radial, axial, gap = pair_frame_coords(placement.position, placement.axes[0], (ux, vx))
        ring_mode = cfg.link.ring_mode
        rho = max(0.5 * chord, 1.001 * math.sqrt(height * lam * abs(ring_mode) / math.pi))
        beam = BeamSpec(lam, ring_mode, ring_waists(rho, height, lam, ring_mode))
        a = mode_amplitudes(probe_cfg, radial, beam.envelope(np.abs(axial)))
        cos2, sin2 = half_angle_weights((m2 - m1) * gap)
        # |h_0^H h_1|^2 / (||h_0||^2 ||h_1||^2) of the mode columns h_im = A_im exp(i m phi_i).
        user0, user1 = a[0, 0] * a[0, 1], a[1, 0] * a[1, 1]
        cross2 = (user0 + user1) ** 2 * cos2 + (user0 - user1) ** 2 * sin2
        norms2 = (a[0, 0] ** 2 + a[1, 0] ** 2) * (a[0, 1] ** 2 + a[1, 1] ** 2)
        worst = max(worst, math.sqrt(cross2 / norms2))
        _, separable = channel_condition(a, cos2, sin2)
        if not separable:
            worst = max(worst, 1.0)
    yield (
        "channel-antipodal-orthogonality",
        worst <= 1e-9,
        f"max normalized cross-talk {worst:.3e}",
    )

    if parity_even:
        yield (
            "mode-set-parity",
            True,
            f"warning: modes {modes} differ by an even order; aligned pairs "
            "are mode-inseparable",
        )


def cmd_validate(cfg: ScenarioConfig) -> int:
    """Run the invariant suite, print one line per check, exit 0 iff all pass."""
    all_ok = True
    for name, ok, detail in _validate_checks(cfg):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamcoop",
        description="Cooperative OAM downlink simulator: placement schemes, "
        "pair selection, and spectrum-efficiency experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_heat = sub.add_parser("heatmap", help="spectrum efficiency over a position grid")
    p_heat.add_argument("--config", type=Path, default=None)
    p_heat.add_argument("--out", type=Path, required=True)
    p_heat.add_argument("--grid", type=int, default=101)
    p_heat.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="mean spectrum efficiency along an axis")
    p_sweep.add_argument("--config", type=Path, default=None)
    p_sweep.add_argument("--out", type=Path, required=True)
    p_sweep.add_argument("--axis", choices=("height", "users"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument(
        "--schemes", default=",".join(SCHEMES), help="comma-separated scheme names"
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=None)

    p_val = sub.add_parser("validate", help="run the fast invariant suite")
    p_val.add_argument("--config", type=Path, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = getattr(args, "seed", None)
        if seed is not None:
            cfg = _override(cfg, master_seed=seed)
        trials = getattr(args, "trials", None)
        if trials is not None:
            cfg = _override(cfg, trials=trials)

        if args.command == "heatmap":
            if args.grid < 2:
                raise ConfigError("--grid must be at least 2")
            return cmd_heatmap(cfg, args.out, args.grid)
        if args.command == "sweep":
            schemes = _parse_csv_list(args.schemes, "scheme")
            for scheme in schemes:
                if scheme not in SCHEMES:
                    raise ConfigError(f"unknown scheme {scheme!r}")
            raw_values = _parse_csv_list(args.values, "axis value")
            try:
                values = [float(v) for v in raw_values]
            except ValueError as exc:
                raise ConfigError(f"bad axis value in {args.values!r}") from exc
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"axis values must be finite: {args.values!r}")
            if args.axis == "users":
                if any(v != int(v) or v < 1 for v in values):
                    raise ConfigError("user counts must be positive integers")
                values = [int(v) for v in values]
            elif any(v <= 0 for v in values):
                raise ConfigError("heights must be positive")
            return cmd_sweep(cfg, args.out, args.axis, values, schemes)
        return cmd_validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (InfeasibleScenarioError, InfeasiblePlacementError) as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
