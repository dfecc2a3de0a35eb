"""Set-up probe: start the interpreter, import the simulator, load a scenario.

Usage: python3 probe.py CONFIG SEED.  Prints "ready" once the scenario is
built, which is the point a workload's first unit could start; the caller
times the interval from spawning this process to that line.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oamcoop import config  # noqa: E402

cfg = replace(config.load_config(sys.argv[1]), master_seed=int(sys.argv[2]))
print("ready", flush=True)
