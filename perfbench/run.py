"""Benchmark of the oamcoop simulator: a heatmap workload and a trial workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload heatmap --seed 1 --seconds 55 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs each unit of a fixed round untraced and then
traced, repeats the round, and reports per-layer metrics.  Every unit's output is checked against
physics computed apart from the simulator (checks.py).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the full record also goes to perfbench/results/.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One process, one thread: pin the numeric libraries before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# The paper's default scenario, read through config.load_config as the CLI does.
SCENARIO = HERE / "configs" / "paper-4k.cfg"

GRID = 101
SCHEMES = ("acoc", "suboptimal", "random", "cow")
# Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_PROBES = 7


# The heatmap workload's drop: trial 0 of this master seed, the first of check
# C3's seeds, whatever --seed says.  One heatmap costs 1.1-6.2 s depending on
# its drop, since grid positions where no waist reaches a pair skip the
# channel, and a run holds only about fourteen heatmaps, so a run of
# seed-chosen drops would measure which drops it drew.
HEATMAP_SEED = 1


@dataclass(frozen=True)
class Workload:
    kind: str  # "heatmap": one se_heatmap call per unit; "trials": one run_trial
    trace_round: int  # units in one traced round: unit indices 0 .. trace_round - 1


WORKLOADS = {
    "heatmap": Workload("heatmap", 1),
    "trials-4k": Workload("trials", 8),
}


def import_program():
    """Import the simulator from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import oamcoop
        from oamcoop import config, sim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the simulator from {SRC}: {exc}")
    if Path(oamcoop.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported {oamcoop.__file__}, not the checkout's")
    return config, sim


def load_scenario(config, seed: int):
    """Build the scenario as the command line does: config file, then --seed."""
    return replace(config.load_config(SCENARIO), master_seed=seed)


def setup_seconds(seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to a loaded scenario."""
    times = []
    cmd = [sys.executable, str(HERE / "probe.py"), str(SCENARIO), str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def unit_scenario(workload: Workload, cfg):
    """Scenario of a unit: every heatmap unit takes drop HEATMAP_SEED.

    Trial units share the run's master seed; each trial index has its own drop.
    """
    if workload.kind != "heatmap":
        return cfg
    return replace(cfg, master_seed=HEATMAP_SEED)


def run_unit(sim, workload: Workload, cfg, index: int):
    if workload.kind == "heatmap":
        return sim.se_heatmap(cfg, GRID)
    return sim.run_trial(cfg, index, SCHEMES)


def check_unit(sim, workload: Workload, cfg, index: int, out) -> list[str]:
    if workload.kind == "heatmap":
        return checks.check_heatmap(cfg, GRID, out)
    positions = sim.drop_users(cfg, index).positions
    return checks.check_trial(cfg, index, positions, out, SCHEMES)


def cpu_seconds() -> float:
    """User and system time of this process and of children it waited on."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tally:
    """Units attempted and failed; a unit fails if it raises or fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # units whose output failed a check
        self.messages: list[str] = []

    def run(self, index: int, call):
        """Run one unit; return its output, or None if it raised."""
        self.attempted += 1
        try:
            return call()
        except Exception as exc:  # a failed unit is counted, not fatal
            self.failed += 1
            self.messages.append(f"unit {index}: {type(exc).__name__}: {exc}")
            return None

    def check(self, index: int, fails: list[str]) -> bool:
        if fails:
            self.failed += 1
            self.wrong += 1
            self.messages.extend(f"unit {index}: {msg}" for msg in fails)
        return not fails


def measure(sim, workload: Workload, cfg, seconds: float, tally: Tally) -> dict:
    """Closed loop of units within ``seconds`` of wall time.

    After each unit the loop stops if another unit as long as the last
    would end past the deadline; at least one unit runs.
    """
    unit_s, unit_cpu = [], []
    deadline = time.perf_counter() + seconds
    ucfg = unit_scenario(workload, cfg)
    index = 0
    while True:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        out = tally.run(index, lambda: run_unit(sim, workload, ucfg, index))
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        if out is not None and tally.check(index, check_unit(sim, workload, ucfg, index, out)):
            unit_s.append(t1 - t0)
            unit_cpu.append(c1 - c0)
        index += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return {"unit_s": unit_s, "unit_cpu_s": unit_cpu}


def measure_traced(config, sim, workload: Workload, seed: int, seconds: float, tally: Tally):
    """Rounds of units, each unit run untraced and then traced, until time is up.

    Running each unit both ways back to back keeps the box's drift out of
    the tracing overhead.  Only whole rounds run, so per-unit counts are
    exact whatever the run length.
    """
    tracer = Tracer()
    with tracer.installed():
        cfg = load_scenario(config, seed)
    ucfg = unit_scenario(workload, cfg)
    units = [(index, ucfg) for index in range(workload.trace_round)]
    untraced_s = traced_s = sim_self_s = 0.0
    traced_units = 0
    deadline = time.perf_counter() + seconds
    while True:
        outputs = []
        for index, ucfg in units:
            t0 = time.perf_counter()
            outputs.append((index, ucfg, tally.run(index, lambda: run_unit(sim, workload, ucfg, index))))
            untraced_s += time.perf_counter() - t0
            with tracer.installed():
                covered = tracer.top_level_s
                t0 = time.perf_counter()
                outputs.append((index, ucfg, tally.run(index, lambda: run_unit(sim, workload, ucfg, index))))
                elapsed = time.perf_counter() - t0
            traced_s += elapsed
            sim_self_s += elapsed - (tracer.top_level_s - covered)
            traced_units += 1
        # Checks call the simulator too, so they run with the wrappers removed.
        for index, ucfg, out in outputs:
            if out is not None:
                tally.check(index, check_unit(sim, workload, ucfg, index, out))
        if time.perf_counter() >= deadline:
            break
    untraced_unit_s = untraced_s / traced_units
    metrics = layer_metrics(tracer, traced_units, traced_s, sim_self_s, untraced_unit_s)
    return metrics, {"traced_units": traced_units, "untraced_unit_s": untraced_unit_s}


COUNTED = (
    "selection.greedy_select",
    "geometry.quad_inner_angles",
    "geometry.bisector_intersection",
    "link.evaluate_link",
    "link.cug_channel",
    "link.channel_condition",
    "link.projection_sinr",
    "beam.waist_solve",
    "geometry.beam_frame_coords",
    "geometry.aim_at_midpoints",
)
TIMED = tuple(k for k in COUNTED if k != "geometry.bisector_intersection") + (
    "sim.drop_users",
    "sim.place",
)
LINK_KEYS = ("link.evaluate_link", "link.cug_channel", "link.channel_condition", "link.projection_sinr")


def layer_metrics(tracer, units: int, traced_s: float, sim_self_s: float, untraced_unit_s: float) -> dict:
    """Per-unit layer metrics of the traced units (totals where noted)."""
    st = tracer.stats
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for key in COUNTED:
        put(f"{key}.calls", st[key].calls / units, "calls/unit")
    for key in TIMED:
        put(f"{key}.total_s", st[key].total_s / units, "s/unit")
    quad = st["geometry.quad_inner_angles"]
    non_simple = quad.raised["NotSimpleQuadrilateralError"]
    put("geometry.quad_inner_angles.non_simple", non_simple / units, "calls/unit")
    put("selection.simple_ratio", (quad.calls - non_simple) / quad.calls if quad.calls else 0.0, "ratio")
    put("link.self_s", sum(st[k].self_s for k in LINK_KEYS) / units, "s/unit")
    flags = st["link.evaluate_link"].flags
    put("link.pairs_waist_infeasible", flags["waist-infeasible"] / units, "pairs/unit")
    put("link.pairs_inseparable", flags["mode-inseparable"] / units, "pairs/unit")
    put("beam.waist_solve.infeasible", st["beam.waist_solve"].raised["WaistInfeasibleError"] / units, "calls/unit")
    put("sim.self_s", sim_self_s / units, "s/unit")
    put("config.load_config.total_s", st["config.load_config"].total_s, "s")
    put("trace.unit_s", traced_s / units, "s/unit")
    put("trace.overhead_s", traced_s / units - untraced_unit_s, "s/unit")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    config, sim = import_program()
    tally = Tally()
    details: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        metrics, extra = measure_traced(config, sim, workload, seed, seconds, tally)
        details.update(extra)
    else:
        setup = setup_seconds(seed)
        cfg = load_scenario(config, seed)
        timing = measure(sim, workload, cfg, seconds, tally)
        unit_s = timing["unit_s"]
        if not unit_s:
            raise SystemExit(f"perfbench: no unit of {name} passed: {tally.messages[:5]}")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "units_per_s": {"value": len(unit_s) / sum(unit_s), "unit": "1/s"},
            "unit_s.p50": {"value": statistics.median(unit_s), "unit": "s"},
            "unit_cpu_s": {"value": sum(timing["unit_cpu_s"]) / len(unit_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        details.update(setup_probes_s=setup, **timing)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details["failures"] = tally.messages
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"result": result, "details": details}, indent=1) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload in its own process, so each has its own set-up and memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"workload {args.workload}: seed {args.seed}, trace {args.trace}, "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for metric, value in result["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
