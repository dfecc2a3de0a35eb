"""The output checks accept the simulator's outputs and reject planted errors.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import checks
from oamcoop import config, sim
from run import SCENARIO, SCHEMES

CFG = config.load_config(SCENARIO)
GRID = 21  # coarse grid: cell 5 m, so the heatmap test stays fast


@pytest.fixture(scope="module", params=[1, 2])
def trial(request):
    cfg = replace(CFG, master_seed=request.param)
    results = sim.run_trial(cfg, 0, SCHEMES)
    return cfg, sim.drop_users(cfg, 0).positions, results


@pytest.fixture(scope="module")
def heatmap():
    cfg = replace(CFG, master_seed=3)
    return cfg, sim.se_heatmap(cfg, GRID)


def test_trial_outputs_pass(trial):
    cfg, positions, results = trial
    assert checks.check_trial(cfg, 0, positions, results, SCHEMES) == []


def test_acoc_se_off_by_1e6_relative_is_rejected(trial):
    cfg, positions, results = trial
    planted = [replace(r, se_total=r.se_total * (1.0 + 1e-6)) if r.scheme == "acoc" else r for r in results]
    fails = checks.check_trial(cfg, 0, positions, planted, SCHEMES)
    assert any("closed form" in f for f in fails)


def test_chord_above_max_pair_distance_is_rejected(trial):
    cfg, positions, results = trial
    sel = results[0].selection
    u1 = sel.cug1[0]
    d = np.hypot(*(positions - positions[u1]).T)
    far = int(np.flatnonzero((d > cfg.selection.max_pair_distance) & (d < 2 * cfg.selection.max_pair_distance))[0])
    planted = replace(sel, cug1=(u1, far), chord1=float(d[far]))
    fails = checks.check_selection(cfg, positions, planted)
    assert any("exceeds max_pair_distance" in f for f in fails)


def test_misreported_psi_is_rejected(trial):
    cfg, positions, results = trial
    sel = results[0].selection
    fails = checks.check_selection(cfg, positions, replace(sel, angle_square_diff=sel.angle_square_diff + 1e-6))
    assert any("psi" in f for f in fails)


def test_heatmap_outputs_pass(heatmap):
    cfg, res = heatmap
    assert checks.check_heatmap(cfg, GRID, res) == []


def test_grid_node_above_marker_is_rejected(heatmap):
    cfg, res = heatmap
    se = res.se.copy()
    j, i = np.unravel_index(int(np.argmax(se)), se.shape)
    se[j, i] = res.se_at_optimum + 1e-6
    fails = checks.check_heatmap(cfg, GRID, replace(res, se=se))
    assert any("beats the marker" in f for f in fails)


def test_station_off_the_bisector_is_rejected(trial):
    _, positions, results = trial
    acoc = results[0]
    station = acoc.placement.position + np.array([0.5, 0.0, 0.0])
    assert checks.check_equidistant(positions, acoc.selection, station)


def test_angles_of_known_quadrilaterals():
    assert checks.psi([(0, 0), (4, 0), (4, 3), (0, 3)]) == pytest.approx(0.0, abs=1e-24)
    assert checks.psi([(0, 0), (0, 3), (4, 3), (4, 0)]) == pytest.approx(0.0, abs=1e-24)
    dart = checks.interior_angles([(0, 0), (2, 1), (4, 0), (2, 4)])
    assert sum(dart) == pytest.approx(2 * math.pi)
    assert dart[1] > math.pi  # the reflex vertex


def test_tracer_counts_calls_and_restores_names(monkeypatch):
    import tracing

    monkeypatch.setitem(tracing.TRACED, "link.removed_function", ("no_such_function",))
    original = sim.evaluate_link
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sim.evaluate_link is not original
        sim.run_trial(replace(CFG, user_count=400, master_seed=5), 0, SCHEMES)
    assert sim.evaluate_link is original
    st = tracer.stats
    assert st["link.evaluate_link"].calls == len(SCHEMES)
    assert st["selection.greedy_select"].calls == 1
    assert st["link.removed_function"].calls == 0
    assert st["selection.greedy_select"].self_s <= st["selection.greedy_select"].total_s
