"""Monte Carlo harness: drops, placements, paired trials, aggregation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oamcoop import sim
from oamcoop.errors import InfeasiblePlacementError, InfeasibleScenarioError
from oamcoop.geometry import bisector_intersection, transmission_distance
from oamcoop.link import LinkConfig, evaluate_link
from oamcoop.selection import CugSelection, SelectionConfig
from oamcoop.sim import (
    FLAG_NO_SELECTION,
    SCHEMES,
    ScenarioConfig,
    drop_users,
    place_acoc,
    run_experiment,
    run_trial,
    scheme_station,
    se_heatmap,
    select_users,
    stream_seed,
    summarize,
)

FAST = ScenarioConfig(user_count=600, trials=4, master_seed=7)


def test_stream_seeds_are_stable_and_distinct():
    a = stream_seed(1, 0, 0)
    assert a == stream_seed(1, 0, 0)
    seen = {stream_seed(1, t, s) for t in range(50) for s in (0, 1)}
    assert len(seen) == 100


def test_drop_stays_inside_hotspot():
    drop = drop_users(FAST, 0)
    assert drop.positions.shape == (600, 2)
    assert np.all(drop.positions >= 0.0)
    assert np.all(drop.positions <= FAST.hotspot_side)
    again = drop_users(FAST, 0)
    assert np.array_equal(drop.positions, again.positions)
    other = drop_users(FAST, 1)
    assert not np.array_equal(drop.positions, other.positions)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(hotspot_side=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(user_count=0)
    with pytest.raises(ValueError):
        ScenarioConfig(user_count=3)
    with pytest.raises(ValueError):
        ScenarioConfig(trials=0)
    with pytest.raises(ValueError):
        ScenarioConfig(master_seed=-1)


def test_selection_planning_height_follows_flight_height():
    cfg = replace(FAST, fbs_height=120.0)
    assert cfg.selection.min_height == 120.0
    # other knobs survive the pinning
    cfg2 = replace(cfg, selection=SelectionConfig(max_pair_distance=8.0))
    assert cfg2.selection.max_pair_distance == 8.0
    assert cfg2.selection.min_height == 120.0


def test_ground_bs_defaults_to_square_center():
    assert FAST.resolved_ground_bs() == (50.0, 50.0, 50.0)
    cfg = replace(FAST, ground_bs_position=(10.0, 20.0, 30.0))
    assert cfg.resolved_ground_bs() == (10.0, 20.0, 30.0)


def _known_selection():
    users = np.array([[46.0, 46.0], [52.0, 45.4], [45.6, 53.0], [52.4, 53.6]])
    sel = CugSelection(
        cug1=(0, 1),
        cug2=(2, 3),
        chord1=float(math.dist(users[0], users[1])),
        chord2=float(math.dist(users[2], users[3])),
        diag1=float(math.dist(users[0], users[2])),
        diag2=float(math.dist(users[1], users[3])),
        angle_square_diff=0.01,
    )
    return users, sel


def test_place_acoc_sits_on_equidistant_point():
    users, sel = _known_selection()
    station = place_acoc(users, sel, 50.0, 0.2998, 1)
    f = bisector_intersection(users[0], users[1], users[2], users[3])
    assert station[0] == pytest.approx(f.x, rel=1e-12)
    assert station[1] == pytest.approx(f.y, rel=1e-12)
    assert station[2] == 50.0
    m1 = (users[0] + users[1]) / 2.0
    assert transmission_distance(station, m1) == pytest.approx(
        math.dist((f.x, f.y, 50.0), (m1[0], m1[1], 0.0)), rel=1e-12
    )


def test_place_acoc_on_exact_rectangle():
    # pairs on opposite sides of a rectangle: the chord bisectors coincide,
    # and the station goes to the rectangle's center on that common line
    users = np.array([[47.0, 48.0], [53.0, 48.0], [53.0, 52.0], [47.0, 52.0]])
    diag = math.hypot(6.0, 4.0)
    sel = CugSelection((0, 1), (2, 3), 6.0, 6.0, diag, diag, 0.0)
    station = place_acoc(users, sel, 50.0, 0.2998, 1)
    np.testing.assert_allclose(station, (50.0, 50.0, 50.0), rtol=0, atol=1e-12)
    d1, d2 = transmission_distance(station, 0.5 * (users[[0, 2]] + users[[1, 3]]))
    assert d1 == pytest.approx(d2, rel=1e-12)
    report = evaluate_link(LinkConfig(), station, sel, users)
    assert report.flags == ()
    assert report.se_total > 0.0


def test_place_acoc_rechecks_ring_floor_at_true_distance():
    users = np.array([[0.0, 0.0], [4.45, 0.3], [0.2, 40.0], [4.75, 40.2]])
    sel = CugSelection(
        cug1=(0, 1),
        cug2=(2, 3),
        chord1=float(math.dist(users[0], users[1])),
        chord2=float(math.dist(users[2], users[3])),
        diag1=float(math.dist(users[0], users[2])),
        diag2=float(math.dist(users[1], users[3])),
        angle_square_diff=0.1,
    )
    with pytest.raises(InfeasiblePlacementError):
        place_acoc(users, sel, 50.0, 0.2998, 1)


def test_place_acoc_names_the_pair_below_its_floor():
    # chord 2 is comfortable, chord 1 sits just under the floor at the
    # aligned station, the centre of this near-square
    users = np.array([[0.0, 0.0], [4.3, 0.0], [0.0, 6.0], [4.3, 6.0]])
    chords = (4.3, 4.3)
    diag = math.hypot(4.3, 6.0)
    sel = CugSelection((0, 1), (2, 3), *chords, diag, diag, 0.0)
    with pytest.raises(
        InfeasiblePlacementError,
        match=r"^cug1 chord 4\.3 m is below the ring floor 4\.3\d* m at its true transmission distance$",
    ):
        place_acoc(users, sel, 50.0, 0.2998, 1)


def test_suboptimal_station_hovers_over_first_pair():
    users, sel = _known_selection()
    station = scheme_station(FAST, users, sel, 0, "suboptimal")
    m1 = (users[0] + users[1]) / 2.0
    np.testing.assert_allclose(station, [m1[0], m1[1], 50.0], rtol=1e-12)
    # first beam points straight down at its midpoint
    assert transmission_distance(station, m1) == pytest.approx(50.0, rel=1e-12)


def test_random_station_is_seeded_per_trial_and_bounded():
    users, sel = _known_selection()
    a = scheme_station(FAST, users, sel, 3, "random")
    b = scheme_station(FAST, users, sel, 3, "random")
    c = scheme_station(FAST, users, sel, 4, "random")
    d = scheme_station(replace(FAST, master_seed=8), users, sel, 3, "random")
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert 0.0 <= a[0] <= 100.0
    assert 0.0 <= a[1] <= 100.0
    assert a[2] == 50.0


def test_cow_station_is_the_configured_ground_station():
    users, sel = _known_selection()
    station = scheme_station(FAST, users, sel, 0, "cow")
    np.testing.assert_allclose(station, [50.0, 50.0, 50.0], rtol=1e-12)
    m2 = (users[2] + users[3]) / 2.0
    expect = np.linalg.norm(np.array([m2[0], m2[1], 0.0]) - station)
    assert transmission_distance(station, m2) == pytest.approx(expect, rel=1e-12)
    moved = replace(FAST, ground_bs_position=(10.0, 20.0, 30.0))
    np.testing.assert_array_equal(scheme_station(moved, users, sel, 0, "cow"), [10.0, 20.0, 30.0])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_station_is_a_float_array(scheme):
    users, sel = _known_selection()
    station = scheme_station(FAST, users, sel, 0, scheme)
    assert isinstance(station, np.ndarray) and station.dtype == float and station.shape == (3,)


@pytest.mark.parametrize("schemes", [SCHEMES, ("acoc",), ("cow", "random")], ids="+".join)
def test_run_trial_evaluates_each_station_once(monkeypatch, schemes):
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate_link(*args)

    monkeypatch.setattr(sim, "evaluate_link", counted)
    results = run_trial(FAST, 0, schemes)
    assert len(calls) == len(schemes)
    pos = drop_users(FAST, 0).positions
    for r in results:
        position = r.placement.position
        assert isinstance(position, np.ndarray) and position.dtype == float and position.shape == (3,)
        assert np.array_equal(position, scheme_station(FAST, pos, r.selection, 0, r.scheme))


def test_trials_share_one_selection_across_schemes():
    results = run_trial(FAST, 0)
    assert [r.scheme for r in results] == list(SCHEMES)
    sels = {id(r.selection) for r in results}
    assert len(sels) == 1
    for r in results:
        assert r.se_total >= 0.0


def test_infeasible_scenario_flags_every_scheme():
    cramped = replace(
        FAST, selection=SelectionConfig(max_pair_distance=1.0)
    )
    results = run_trial(cramped, 0)
    for r in results:
        assert r.selection is None
        assert r.se_total == 0.0
        assert FLAG_NO_SELECTION in r.flags


def test_experiment_is_deterministic():
    a = run_experiment(FAST, ("acoc", "random"))
    b = run_experiment(FAST, ("acoc", "random"))
    assert [r.se_total for r in a] == [r.se_total for r in b]
    assert len(a) == FAST.trials * 2


def test_summarize_matches_manual_stats():
    results = run_experiment(FAST, ("acoc",))
    summary = summarize(results)["acoc"]
    vals = np.array([r.se_total for r in results])
    assert summary.trials == FAST.trials
    assert summary.mean_se == pytest.approx(float(vals.mean()), rel=1e-12)
    hw = 1.96 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    assert summary.ci95_half_width == pytest.approx(hw, rel=1e-12)
    flagged = sum(1 for r in results if r.flags)
    assert summary.flag_rate == pytest.approx(flagged / len(results))


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        run_trial(FAST, 0, schemes=("acoc", "bogus"))


def test_heatmap_grid_and_optimum():
    cfg = replace(FAST, user_count=800)
    res = se_heatmap(cfg, 9)
    assert res.xs.shape == (9,) and res.ys.shape == (9,)
    assert res.xs[0] == 0.0 and res.xs[-1] == cfg.hotspot_side
    assert res.se.shape == (9, 9)
    assert np.all(np.isfinite(res.se))
    ox, oy = res.optimum
    assert 0.0 <= ox <= cfg.hotspot_side and 0.0 <= oy <= cfg.hotspot_side
    assert res.se_at_optimum >= np.max(res.se) - 1e-9
    again = se_heatmap(cfg, 9)
    np.testing.assert_array_equal(res.se, again.se)


def test_acoc_station_is_a_stationary_maximum_without_a_grid():
    # Rings of stations at flight height around the closed-form acoc
    # station, scored with it in one call: every ring station must lose SE,
    # and the mean loss must grow as the square of the offset (100x per
    # decade), as it does at a stationary point.  A station 30 um off the
    # bisector intersection already loses to stations of its 0.1 mm ring;
    # the mean over a whole ring cancels the linear term, so only the
    # strict maximum sees that.
    cfg = ScenarioConfig()
    radii = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    turn = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ring = np.column_stack((np.cos(turn), np.sin(turn), np.zeros(64)))
    losses = []
    for trial in range(24):
        drop = drop_users(cfg, trial)
        sel = select_users(cfg, drop)
        if sel is None:
            continue
        pos = drop.positions
        acoc = np.array(scheme_station(cfg, pos, sel, trial, "acoc"))
        stations = np.vstack([acoc] + [acoc + r * ring for r in radii])
        se = sim.evaluate_placements(cfg.link, stations, sel, pos).se_total
        loss = se[0] - se[1:].reshape(len(radii), 64)
        assert np.all(loss > 0.0), (trial, loss.min())
        losses.append(loss.mean(axis=1))
    assert len(losses) >= 20
    mean_loss = np.mean(losses, axis=0)
    assert 90.0 <= mean_loss[1] / mean_loss[0] <= 110.0, mean_loss


def test_heatmap_requires_selection():
    cramped = replace(FAST, selection=SelectionConfig(max_pair_distance=1.0))
    with pytest.raises(InfeasibleScenarioError):
        se_heatmap(cramped, 5)


def test_select_users_returns_constraint_checked_pairs():
    drop = drop_users(FAST, 0)
    sel = select_users(FAST, drop)
    if sel is None:
        pytest.skip("no feasible selection in this drop")
    assert len(set(sel.indices())) == 4
    assert sel.chord1 <= FAST.selection.max_pair_distance
    assert sel.chord2 <= FAST.selection.max_pair_distance
