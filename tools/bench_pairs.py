"""Paired benchmark runs of a base commit and the working tree, summarised in one JSON file.

Usage, from the repository root:

    python3 tools/bench_pairs.py --out BENCH_<label>.json

The base commit (``--base``, default HEAD) is exported with ``git archive``
into a temporary directory, so the run registers no worktree and touches no
branch.  Each of ten pairs runs the command of BENCHMARK.json with
``--workload all --trace 0`` and BENCHMARK.json's ``run_seconds``, as
shipped in the base tree and in the working tree, one after the other, and
alternates which side goes first; the harness keeps its own seed.  The
harness prints its result as one JSON object on its last stdout line; this
tool collects those results and writes, per ``workload/metric``: the median
and quartiles of each side, the number of pairs the working tree won (ties
count for neither side), and every run.
Which direction wins comes from BENCHMARK.json.  The file also records the
run count, the Python and numpy versions, the core count and both commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Pairs of runs per comparison; a verdict on fewer would not hold.
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_commit(rev: str, into: Path) -> None:
    """Write the committed tree of ``rev`` into the directory ``into``."""
    archive = into / "tree.tar"
    git("archive", "--format=tar", f"--output={archive}", rev)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def run_harness(tree: Path, command: list[str], seconds: float) -> dict:
    """One ``--workload all`` run of the harness shipped in ``tree``; its JSON result."""
    cmd = [*command, "--workload", "all", "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: harness in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarise(base_runs: list[dict], change_runs: list[dict], better: dict) -> dict:
    """Per-metric spreads of both sides and the working tree's wins over the pairs."""
    metrics = {}
    for name, first in base_runs[0]["metrics"].items():
        base = [run["metrics"][name]["value"] for run in base_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        direction = better.get(name.split("/", 1)[1])
        entry = {"unit": first["unit"], "better": direction}
        entry.update(base=spread(base), change=spread(change))
        if direction is not None:
            sign = 1.0 if direction == "higher" else -1.0
            entry["change_wins"] = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
            entry["ties"] = sum(c == b for b, c in zip(base, change))
        metrics[name] = entry
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    base_sha = git("rev-parse", args.base)
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        export_commit(base_sha, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_harness(trees[side], command, seconds))
                print(f"pair {pair + 1}/{PAIRS}: {side} done", file=sys.stderr)
    diff = git("diff", "HEAD", "--", "src", "perfbench")
    record = {
        "base": {"commit": base_sha},
        "change": {
            "commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", "perfbench")),
            "diff_sha256": hashlib.sha256(diff.encode()).hexdigest(),
        },
        "harness": {"command": command, "workload": "all", "seconds": seconds, "trace": 0},
        "pairs": PAIRS,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": os.cpu_count(),
            "platform": platform.platform(),
        },
        "correct": {side: all(run["correct"] for run in runs[side]) for side in runs},
        "failed_units": {side: sum(run["failed"] for run in runs[side]) for side in runs},
        "metrics": summarise(runs["base"], runs["change"], better),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
