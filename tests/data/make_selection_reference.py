"""Write the frozen greedy-selection reference used by tests/test_selection_reference.py.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_selection_reference.py

For each case (hotspot side, user count, master seeds) it drops trial 0's
users exactly as ``sim.run_trial`` does, runs ``sim.select_users`` and
records the selected indices, chords, diagonals and angle deviation psi, or
null when the drop yields no selection.  JSON floats are written with
``repr`` and read back exactly, so the test can compare them bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from oamcoop import sim

OUT = Path(__file__).with_name("selection_reference.json")

# (hotspot side in metres, user count, master seeds).  Twelve users in the
# paper's 100 m square almost never hold a feasible quad, so the small case
# uses a 30 m square, where most drops yield a selection.
CASES = (
    (30.0, 12, range(1, 51)),
    (100.0, 1000, range(1, 51)),
    (100.0, 4000, range(1, 11)),
)


def selection_record(side: float, users: int, seed: int) -> dict:
    cfg = sim.ScenarioConfig(hotspot_side=side, user_count=users, master_seed=seed, trials=1)
    sel = sim.select_users(cfg, sim.drop_users(cfg, 0))
    record = {"hotspot_side": side, "user_count": users, "master_seed": seed}
    if sel is None:
        record["selection"] = None
    else:
        record["selection"] = {
            "indices": list(sel.indices()),
            "chords": [sel.chord1, sel.chord2],
            "diagonals": [sel.diag1, sel.diag2],
            "psi": sel.angle_square_diff,
        }
    return record


def main() -> None:
    records = [
        selection_record(side, users, seed)
        for side, users, seeds in CASES
        for seed in seeds
    ]
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} drops to {OUT}")


if __name__ == "__main__":
    main()
