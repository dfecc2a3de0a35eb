"""Greedy selection against a frozen reference written by tests/data/make_selection_reference.py.

The reference holds, per drop, the indices, chords, diagonals and angle
deviation psi that the greedy selection returned before its walk moved to a
cell grid with one vectorised scoring pass.  Indices and lengths must match
bit for bit; psi may move by rounding in the arctangent, so it gets 1e-12.
"""

import json
from pathlib import Path

import pytest

from oamcoop import sim

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "selection_reference.json").read_text()
)


@pytest.mark.parametrize("user_count", sorted({r["user_count"] for r in REFERENCE}))
def test_greedy_matches_frozen_reference(user_count):
    for record in (r for r in REFERENCE if r["user_count"] == user_count):
        cfg = sim.ScenarioConfig(
            hotspot_side=record["hotspot_side"],
            user_count=user_count,
            master_seed=record["master_seed"],
            trials=1,
        )
        sel = sim.select_users(cfg, sim.drop_users(cfg, 0))
        want = record["selection"]
        if want is None:
            assert sel is None, record
            continue
        assert sel is not None, record
        assert list(sel.indices()) == want["indices"], record
        assert [sel.chord1, sel.chord2] == want["chords"], record
        assert [sel.diag1, sel.diag2] == want["diagonals"], record
        assert sel.angle_square_diff == pytest.approx(want["psi"], rel=1e-12, abs=0.0), record
