"""Pair selection: constraint bounds, greedy walk, exhaustive oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oamcoop.errors import InsufficientUsersError, OracleSizeError
from oamcoop.selection import (
    BOUND_REASONS,
    MAX_ORACLE_USERS,
    SelectionConfig,
    bound_excess,
    chord_floor,
    exhaustive_select,
    greedy_select,
    planning_distance,
)
from oamcoop.sim import ScenarioConfig, drop_users, place_acoc

LAM = 0.2998
MODE = 1
CFG = SelectionConfig()


def test_planning_distance_is_hypotenuse():
    assert planning_distance(50.0, 8.0) == pytest.approx(math.hypot(50.0, 4.0), rel=1e-12)


def test_chord_floor_formula():
    got = chord_floor(60.0, LAM, 2)
    assert got == pytest.approx(2.0 * math.sqrt(60.0 * LAM * 2 / math.pi), rel=1e-12)


def _square_users(side, offset=(0.0, 0.0)):
    ox, oy = offset
    return np.array(
        [[ox, oy], [ox + side, oy], [ox, oy + side], [ox + side, oy + side]]
    )


def _cycle_lengths(users, cycle):
    """Chords (u1,u2), (u3,u4) and diagonals (u1,u3), (u2,u4) of a cycle (u1, u2, u3, u4)."""
    u1, u2, u3, u4 = (users[i] for i in cycle)
    return math.dist(u1, u2), math.dist(u3, u4), math.dist(u1, u3), math.dist(u2, u4)


class TestConstraintScreen:
    # bound_excess over a cycle's lengths: it passes when no column is
    # positive, and the first positive column names the broken bound.
    def test_comfortable_quad_passes(self):
        users = _square_users(6.0)
        assert np.all(bound_excess(*_cycle_lengths(users, (0, 1, 2, 3)), CFG, LAM, MODE) <= 0.0)

    def test_chord_at_limit_is_inclusive(self):
        users = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 3.0], [10.0, 3.0]])
        assert np.all(bound_excess(*_cycle_lengths(users, (0, 1, 2, 3)), CFG, LAM, MODE) <= 0.0)

    def test_long_chord_rejected(self):
        users = np.array([[0.0, 0.0], [10.5, 0.0], [0.0, 3.0], [10.0, 3.0]])
        excess = bound_excess(*_cycle_lengths(users, (0, 1, 2, 3)), CFG, LAM, MODE)
        k = np.flatnonzero(excess > 0.0)[0]
        assert BOUND_REASONS[k] == "cug1 chord exceeds max pair distance"
        assert excess[k] == pytest.approx(0.5, rel=1e-9)

    def test_short_chord_rejected_with_deficit(self):
        users = _square_users(4.0)
        excess = bound_excess(*_cycle_lengths(users, (0, 1, 2, 3)), CFG, LAM, MODE)
        k = np.flatnonzero(excess > 0.0)[0]
        assert BOUND_REASONS[k] == "cug1 chord below feasible ring diameter"
        floor = chord_floor(planning_distance(50.0, 4.0), LAM, MODE)
        assert excess[k] == pytest.approx(floor - 4.0, rel=1e-9)

    def test_wide_diagonal_rejected_first(self):
        cramped = replace(CFG, service_radius=4.0)
        users = _square_users(6.0)
        # cycle order (0, 1, 3, 2) walks the square perimeter, so the checked
        # cross pairs are the real diagonals
        excess = bound_excess(*_cycle_lengths(users, (0, 1, 3, 2)), cramped, LAM, MODE)
        k = np.flatnonzero(excess > 0.0)[0]
        assert BOUND_REASONS[k] == "diagonal exceeds service diameter"
        assert excess[k] == pytest.approx(6.0 * math.sqrt(2.0) - 8.0, rel=1e-9)


def test_greedy_needs_four_users():
    with pytest.raises(InsufficientUsersError):
        greedy_select(np.zeros((3, 2)), CFG, LAM, MODE, center=(0.0, 0.0))


def test_oracle_size_cap():
    rng = np.random.default_rng(1)
    users = rng.uniform(0.0, 50.0, size=(MAX_ORACLE_USERS + 1, 2))
    with pytest.raises(OracleSizeError):
        exhaustive_select(users, CFG, LAM, MODE)


def test_greedy_finds_isolated_near_square():
    quad = np.array([[80.0, 80.0], [86.0, 80.4], [80.3, 86.2], [86.4, 86.0]])
    decoys = np.array([[20.0, 30.0], [25.0, 18.0], [40.0, 44.0], [12.0, 50.0]])
    users = np.vstack([quad, decoys])
    sel = greedy_select(users, CFG, LAM, MODE, center=(50.0, 50.0))
    assert sel is not None
    assert set(sel.indices()) == {0, 1, 2, 3}
    assert sel.angle_square_diff == pytest.approx(0.03394302908298663, rel=1e-9)
    ex = exhaustive_select(users, CFG, LAM, MODE)
    assert ex.angle_square_diff == pytest.approx(sel.angle_square_diff, rel=1e-9)


def test_exact_square_is_selected_by_greedy():
    # paired opposite sides of a perfect square are parallel chords whose
    # bisectors coincide; the aligned station sits on that common line, at
    # the square's center, so the zero-deviation quad is the greedy's pick
    users = np.vstack(
        [_square_users(6.0, offset=(80.0, 80.0)), np.array([[20.0, 30.0], [25.0, 18.0], [40.0, 44.0], [12.0, 50.0]])]
    )
    sel = greedy_select(users, CFG, LAM, MODE, center=(50.0, 50.0))
    assert sel is not None
    assert set(sel.indices()) == {0, 1, 2, 3}
    assert sel.angle_square_diff == pytest.approx(0.0, abs=1e-18)
    assert (sel.chord1, sel.chord2) == (6.0, 6.0)
    ex = exhaustive_select(users, CFG, LAM, MODE)
    assert ex.angle_square_diff == pytest.approx(0.0, abs=1e-18)


def test_greedy_rejects_quad_failing_true_distance_floor():
    # passes the planning screen, but the near-parallel bisectors push the
    # aligned station ~99 m out where the ring floor exceeds both chords
    users = np.array([[0.0, 0.0], [4.45, 0.3], [0.2, 40.0], [4.75, 40.2]])
    assert np.all(bound_excess(*_cycle_lengths(users, (0, 1, 2, 3)), CFG, LAM, MODE) <= 0.0)
    assert greedy_select(users, CFG, LAM, MODE, center=(2.3, 20.0)) is None


def test_stop_threshold_keeps_first_good_candidate():
    qa = np.array([[93.0, 93.0], [87.2, 94.1], [93.8, 87.4], [87.9, 88.0]])
    qb = np.array([[20.0, 20.0], [26.1, 20.3], [19.6, 26.2], [26.4, 26.6]])
    users = np.vstack([qa, qb])
    eager = greedy_select(
        users, replace(CFG, stop_threshold=10.0), LAM, MODE, center=(50.0, 50.0)
    )
    assert set(eager.indices()) == {0, 1, 2, 3}
    assert eager.angle_square_diff == pytest.approx(0.3051197693880778, rel=1e-9)
    patient = greedy_select(users, CFG, LAM, MODE, center=(50.0, 50.0))
    assert set(patient.indices()) == {4, 5, 6, 7}
    assert patient.angle_square_diff == pytest.approx(0.020929293396230276, rel=1e-9)


def test_greedy_is_deterministic():
    rng = np.random.default_rng(41)
    users = rng.uniform(0.0, 40.0, size=(25, 2))
    a = greedy_select(users, CFG, LAM, MODE, center=(20.0, 20.0))
    b = greedy_select(users, CFG, LAM, MODE, center=(20.0, 20.0))
    assert a == b


def test_selection_reports_consistent_distances():
    rng = np.random.default_rng(43)
    found = 0
    for _ in range(40):
        users = rng.uniform(0.0, 30.0, size=(14, 2))
        sel = greedy_select(users, CFG, LAM, MODE, center=(15.0, 15.0))
        if sel is None:
            continue
        found += 1
        i1, i2 = sel.cug1
        i3, i4 = sel.cug2
        assert sel.chord1 == pytest.approx(math.dist(users[i1], users[i2]), rel=1e-12)
        assert sel.chord2 == pytest.approx(math.dist(users[i3], users[i4]), rel=1e-12)
        assert sel.diag1 == pytest.approx(math.dist(users[i1], users[i3]), rel=1e-12)
        assert sel.diag2 == pytest.approx(math.dist(users[i2], users[i4]), rel=1e-12)
        assert np.all(bound_excess(*_cycle_lengths(users, sel.indices()), CFG, LAM, MODE) <= 0.0)
    assert found >= 10


def test_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(47)
    gaps = []
    for _ in range(30):
        users = rng.uniform(0.0, 30.0, size=(12, 2))
        sel = greedy_select(users, CFG, LAM, MODE, center=(15.0, 15.0))
        if sel is None:
            continue
        ex = exhaustive_select(users, CFG, LAM, MODE)
        assert ex is not None
        assert sel.angle_square_diff >= ex.angle_square_diff - 1e-12
        gaps.append(sel.angle_square_diff - ex.angle_square_diff)
    assert len(gaps) >= 8


@pytest.mark.parametrize("seed", [14, 15, 22, 27])
def test_oracle_pick_is_placeable(seed):
    # the oracle screens the chord floors at the aligned station as the
    # greedy does, so the aligned placement accepts its pick
    users = np.random.default_rng(seed).uniform(0.0, 30.0, size=(12, 2))
    ex = exhaustive_select(users, CFG, LAM, MODE)
    assert ex is not None
    place_acoc(users, ex, CFG.min_height, LAM, MODE)


# Exact maps of the plane about the origin; the hotspot centre maps alike.
PLANE_MAPS = {
    "rotate-90": lambda x, y: (-y, x),
    "rotate-180": lambda x, y: (-x, -y),
    "mirror-x": lambda x, y: (-x, y),
    "swap-xy": lambda x, y: (y, x),
}


@pytest.mark.parametrize("plane_map", PLANE_MAPS.values(), ids=PLANE_MAPS.keys())
def test_greedy_pick_is_invariant_under_exact_plane_maps(plane_map):
    # Negation and swapping coordinates round nothing, so the mapped drop
    # must give the same pairs and the same deviation to the bit.
    cfg = ScenarioConfig(user_count=1000, master_seed=1)
    wavelength, mode = cfg.link.wavelength, cfg.link.ring_mode
    center = np.array(plane_map(*cfg.hotspot_center))
    for trial in range(5):
        pos = drop_users(cfg, trial).positions
        want = greedy_select(pos, cfg.selection, wavelength, mode, cfg.hotspot_center)
        got = greedy_select(np.column_stack(plane_map(*pos.T)), cfg.selection, wavelength, mode, center)
        assert want is not None
        assert (got.cug1, got.cug2) == (want.cug1, want.cug2)
        assert got.angle_square_diff == want.angle_square_diff
