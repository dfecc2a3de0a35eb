"""Two-phase greedy selection against loop references, and the array quad kernel.

The selection's rounds come from two parts: the anchor path
(anchor_walk), in which each round's nearest active user n1 anchors the
next round, and the candidate query (complete_rounds), which completes
the rounds whose first chord lies in an interval with the anchor's
second and third nearest active users.  Both are checked against a
brute-force walk that ranks every active user by (squared distance, user
index), with and without a first-chord interval, through ``walk``, which
lays their output out as the brute-force rounds; the walk's nearest-user
lists are checked against ranking every user.  At the paper's user
counts, where the brute-force walk is too slow, the rounds are frozen as
digests.  The vectorised scoring is checked against a round-by-round
loop that scores one quad at a time and keeps a strict running minimum,
as the selection did before it was split into two phases, and, at the
paper's user counts, against scoring every full round.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamcoop import selection, sim
from oamcoop.errors import ParallelChordsError
from oamcoop.geometry import (
    NOT_SIMPLE,
    angle_square_difference,
    bisector_intersection,
    quad_angles,
    transmission_distance,
)
from oamcoop.selection import (
    CROWDED_CELL,
    NEAREST_BATCH,
    NEAREST_USERS,
    SelectionConfig,
    _cell_grid,
    _nearest_lists,
    _score_rounds,
    anchor_walk,
    bound_excess,
    chord_floor,
    complete_rounds,
    greedy_select,
)

# Fixed examples keep the suite's verdict reproducible run to run.
PROPERTY = settings(max_examples=120, deadline=None, database=None, derandomize=True)

LAM = 0.2998
MODE = 1


def brute_walk(pos, start, first_chord=(0.0, math.inf)):
    """Every round ranks all active users; the reference for anchor_walk.

    n2 and n3 read -1 in rounds whose first chord, from np.hypot, lies
    outside the inclusive interval ``first_chord``.
    """
    xs, ys = pos[:, 0].tolist(), pos[:, 1].tolist()
    lo, hi = first_chord
    active = set(range(len(pos)))
    rounds = []
    anchor = start
    while len(active) > 3:
        active.discard(anchor)
        ax, ay = xs[anchor], ys[anchor]
        ranked = sorted(((xs[j] - ax) * (xs[j] - ax) + (ys[j] - ay) * (ys[j] - ay), j) for j in active)
        if lo <= np.hypot(xs[ranked[0][1]] - ax, ys[ranked[0][1]] - ay) <= hi:
            rounds.append((anchor, ranked[0][1], ranked[1][1], ranked[2][1]))
        else:
            rounds.append((anchor, ranked[0][1], -1, -1))
        anchor = ranked[0][1]
    return np.array(rounds, dtype=np.intp).reshape(-1, 4)


def walk(pos, start, first_chord=(0.0, math.inf)):
    """anchor_walk and complete_rounds laid out as brute_walk's rounds, (U - 3, 4).

    n2 and n3 read -1 in the rounds that complete_rounds leaves out.
    """
    path = anchor_walk(pos, start)
    rounds = np.full((len(path) - 1, 4), -1, dtype=np.intp)
    rounds[:, 0], rounds[:, 1] = path[:-1], path[1:]
    complete = complete_rounds(pos, path, first_chord)
    round_of = np.empty(len(pos), dtype=np.intp)
    round_of[path[:-1]] = np.arange(len(path) - 1)
    rounds[round_of[complete[:, 0]]] = complete
    return rounds


def first_chords(pos, rounds):
    """First chord |anchor - n1| of each round, from np.hypot as the query computes it."""
    d = pos[rounds[:, 1]] - pos[rounds[:, 0]]
    return np.hypot(d[:, 0], d[:, 1])


def cycle_lengths(pos, cycle):
    """Chords (u1,u2), (u3,u4) and diagonals (u1,u3), (u2,u4) of one cycle, from np.hypot as the screen computes them."""
    q = pos[list(cycle)]
    d = q[[1, 3, 2, 3]] - q[[0, 2, 0, 1]]
    return np.hypot(d[:, 0], d[:, 1])


def loop_select(pos, cfg, center):
    """Round-by-round scoring, one quad at a time, with a strict running minimum."""
    from_center = (pos[:, 0] - center[0]) ** 2 + (pos[:, 1] - center[1]) ** 2
    best, best_psi = None, math.inf
    for a, n1, n2, n3 in brute_walk(pos, int(np.argmax(from_center))).tolist():
        if best_psi <= cfg.stop_threshold:
            break
        for cycle in ((a, n1, n2, n3), (a, n1, n3, n2)):
            angles, defect = quad_angles(pos[list(cycle)])
            if defect:
                continue
            psi = angle_square_difference(angles)
            if psi < best_psi and np.all(bound_excess(*cycle_lengths(pos, cycle), cfg, LAM, MODE) <= 0.0):
                quad = pos[list(cycle)]
                try:
                    fx, fy = bisector_intersection(*quad)
                except ParallelChordsError:
                    break
                # the chord floors at the true distances of the aligned station
                feasible = all(
                    math.dist(p, q) >= chord_floor(
                        transmission_distance((fx, fy, cfg.min_height), 0.5 * (p + q)),
                        LAM,
                        MODE,
                    )
                    for p, q in ((quad[0], quad[1]), (quad[2], quad[3]))
                )
                if feasible:
                    best, best_psi = cycle, psi
            break
    return best, best_psi


@st.composite
def drops(draw):
    """User positions of one of five kinds, and the walk's first anchor."""
    kind = draw(st.sampled_from(("uniform", "lattice", "near-tie", "line", "tiny")))
    count = draw(st.integers(4, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        pos = rng.uniform(0.0, draw(st.sampled_from((1.0, 30.0, 100.0))), size=(count, 2))
    elif kind == "lattice":
        # many exact distance ties, and repeated positions
        pos = rng.integers(0, draw(st.integers(2, 12)), size=(count, 2)).astype(float)
    elif kind == "near-tie":
        # Lattice points moved by up to three ulps: squared distances that
        # differ only in their last bits, and exact ties where moves cancel.
        pos = rng.integers(0, draw(st.integers(2, 12)), size=(count, 2)).astype(float)
        ulps = rng.integers(-3, 4, size=(count, 2))
        for step in range(3):
            pos = np.where(ulps > step, np.nextafter(pos, math.inf), pos)
            pos = np.where(ulps < -step, np.nextafter(pos, -math.inf), pos)
    elif kind == "line":
        t = rng.uniform(-50.0, 50.0, size=count)
        direction = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))))
        pos = np.column_stack((direction[0] * t, direction[1] * t + 7.0))
    else:
        pos = 40.0 + 1e-9 * rng.uniform(0.0, 1.0, size=(count, 2))
    return pos, draw(st.integers(0, count - 1))


@PROPERTY
@given(drop=drops())
def test_anchor_walk_matches_brute_force(drop):
    pos, start = drop
    np.testing.assert_array_equal(walk(pos, start), brute_walk(pos, start))


@pytest.mark.parametrize("scan_rounds", (1, 3), ids=("one-round-steps", "short-last-step"))
@PROPERTY
@given(drop=drops())
def test_complete_rounds_in_short_steps_match_brute_force(scan_rounds, drop):
    pos, start = drop
    want = brute_walk(pos, start)
    path = anchor_walk(pos, start)
    np.testing.assert_array_equal(path[:-1], want[:, 0])
    np.testing.assert_array_equal(path[1:], want[:, 1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "SCAN_ROUNDS", scan_rounds)
        got = complete_rounds(pos, path, (0.0, math.inf))
    np.testing.assert_array_equal(got, want)


@PROPERTY
@given(drop=drops())
def test_nearest_lists_are_complete_below_their_radius(drop):
    # A list opens with every other user that lies below its radius,
    # ranked by (squared distance, user index) as the walk computes them;
    # the rest of the list lies at or beyond the radius, or repeats the
    # user itself.
    pos, _ = drop
    near, radius2 = _nearest_lists(pos, _cell_grid(pos))
    assert near.shape == (len(pos), NEAREST_USERS)
    assert_lists_complete(pos, near, radius2, np.flatnonzero(radius2 >= 0.0))


def assert_lists_complete(pos, near, radius2, listed):
    """Check the lists of the users ``listed`` against ranking every user."""
    xs, ys = pos[:, 0].tolist(), pos[:, 1].tolist()
    for i in listed.tolist():
        ranked = sorted(
            ((xs[j] - xs[i]) * (xs[j] - xs[i]) + (ys[j] - ys[i]) * (ys[j] - ys[i]), j)
            for j in range(len(pos))
            if j != i
        )
        inside = [j for d, j in ranked if d < radius2[i]]
        assert len(inside) <= NEAREST_USERS
        assert near[i, : len(inside)].tolist() == inside
        for j in near[i, len(inside) :].tolist():
            d = (xs[j] - xs[i]) * (xs[j] - xs[i]) + (ys[j] - ys[i]) * (ys[j] - ys[i])
            assert j == i or d >= radius2[i]


def test_most_users_of_a_uniform_drop_get_a_list():
    pos = np.random.default_rng(8).uniform(0.0, 100.0, size=(2000, 2))
    _, radius2 = _nearest_lists(pos, _cell_grid(pos))
    assert np.mean(radius2 > 0.0) > 0.9
    assert np.all((radius2 > 0.0) | (radius2 == -1.0))


def test_users_next_to_a_crowded_cell_get_a_list():
    # Twelve users in one 1 cm square make a crowded cell in a uniform
    # drop, which has a few of its own.  The rows of the blocks that touch
    # a crowded cell hold far fewer than 3 * CROWDED_CELL users, so every
    # user of those blocks gets a list.
    rng = np.random.default_rng(12)
    pos = rng.uniform(0.0, 100.0, size=(2000, 2))
    pos[:12] = (50.3, 50.3) + rng.uniform(0.0, 0.01, size=(12, 2))
    grid = _cell_grid(pos)
    order, starts, cell, _, _, nx = grid
    crowded = np.flatnonzero(np.diff(starts) >= CROWDED_CELL)
    assert cell[order == 0] in crowded
    (qy, qx), (cy, cx) = np.divmod(crowded, nx), np.divmod(cell[:, None], nx)
    touching = order[np.any((np.abs(cx - qx) <= 1) & (np.abs(cy - qy) <= 1), axis=1)]
    assert len(touching) > 12 * len(crowded)
    near, radius2 = _nearest_lists(pos, grid)
    assert np.all(radius2[touching] > 0.0)
    assert_lists_complete(pos, near, radius2, touching)


def test_lists_built_in_many_steps_of_mixed_block_sizes():
    # 4000 users in a 100 m square, 250 more in a 20 m patch, and a crowded
    # cell of 30 users in a 1 cm square.  The build ranks the listed users
    # in many steps, from blocks of a few users to blocks of dozens, and
    # leaves every user whose block has a crowded row without a list.
    rng = np.random.default_rng(16)
    pos = np.vstack(
        (
            rng.uniform(0.0, 100.0, size=(4000, 2)),
            rng.uniform(20.0, 40.0, size=(250, 2)),
            (75.3, 75.3) + rng.uniform(0.0, 0.01, size=(30, 2)),
        )
    )
    grid = _cell_grid(pos)
    order, starts, cell, _, _, nx = grid
    counts = np.diff(starts).reshape(-1, nx)
    cy, cx = np.divmod(cell, nx)
    rows = np.stack([counts[cy + d, cx - 1] + counts[cy + d, cx] + counts[cy + d, cx + 1] for d in (-1, 0, 1)])
    block = np.empty(len(pos), dtype=int)
    block[order] = rows.sum(axis=0)
    blocked = order[np.any(rows >= 3 * CROWDED_CELL, axis=0)]
    near, radius2 = _nearest_lists(pos, grid)
    assert len(blocked) >= 30 and np.all(radius2[blocked] == -1.0)
    listed = np.flatnonzero(radius2 >= 0.0)
    assert len(listed) > 4 * NEAREST_BATCH
    assert block[listed].min() <= NEAREST_USERS and block[listed].max() >= 40
    # A fixed sample: 100 users of the widest blocks and 200 of the rest.
    wide = block[listed] >= 30
    sample = np.concatenate(
        (rng.choice(listed[wide], 100, replace=False), rng.choice(listed[~wide], 200, replace=False))
    )
    assert_lists_complete(pos, near, radius2, np.sort(sample))


@PROPERTY
@given(
    drop=drops(),
    lo=st.sampled_from((0.0, 1e-9, 0.5, 1.0, 2.0, 5.0, 20.0)),
    hi=st.sampled_from((0.0, 1.0, 2.0, 3.0, 10.0, math.inf)),
)
def test_interval_walk_matches_brute_force(drop, lo, hi):
    # Lattice drops put first chords of exactly 0, 1 and 2 on the ends;
    # lo > hi gives an empty interval.
    pos, start = drop
    got = walk(pos, start, (lo, hi))
    np.testing.assert_array_equal(got, brute_walk(pos, start, (lo, hi)))
    full = brute_walk(pos, start)
    np.testing.assert_array_equal(got[:, :2], full[:, :2])
    chord = first_chords(pos, full)
    inside = (lo <= chord) & (chord <= hi)
    np.testing.assert_array_equal(got[inside, 2:], full[inside, 2:])
    assert np.all(got[~inside, 2:] == -1)


def test_interval_walk_keeps_chords_on_either_end():
    # Integer lattice: first chords of 0, 1, sqrt(2), 2, ... exactly.
    pos = np.random.default_rng(3).integers(0, 8, size=(80, 2)).astype(float)
    full = brute_walk(pos, 0)
    chord = first_chords(pos, full)
    assert {1.0, 2.0} <= set(chord.tolist()) and np.any(chord < 1.0) and np.any(chord > 2.0)
    got = walk(pos, 0, (1.0, 2.0))
    np.testing.assert_array_equal(got, brute_walk(pos, 0, (1.0, 2.0)))
    inside = (chord >= 1.0) & (chord <= 2.0)
    np.testing.assert_array_equal(got[inside], full[inside])
    assert np.all(got[~inside, 2:] == -1) and np.all(got[~inside, :2] == full[~inside, :2])


def test_empty_interval_leaves_no_complete_round():
    pos = np.random.default_rng(4).uniform(0.0, 30.0, size=(200, 2))
    rounds = walk(pos, 0, (2.0, 1.0))
    np.testing.assert_array_equal(rounds[:, :2], brute_walk(pos, 0)[:, :2])
    assert np.all(rounds[:, 2:] == -1)
    assert complete_rounds(pos, anchor_walk(pos, 0), (2.0, 1.0)).shape == (0, 4)
    # The ring floor at 200 m (8.74 m) lies above a 3 m pair distance ceiling.
    cfg = SelectionConfig(min_height=200.0, max_pair_distance=3.0)
    assert chord_floor(cfg.min_height, LAM, MODE) > cfg.max_pair_distance
    assert greedy_select(pos, cfg, LAM, MODE, center=(15.0, 15.0)) is None


def _small_grid_drops():
    """Drops of 4-9 users whose first cell grid is at most two cells across."""
    rng = np.random.default_rng(11)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    yield square
    yield np.vstack((square, square[[3, 0]]))  # repeated positions: index ties
    yield square * (2.0, 1.5)
    for count in (5, 6, 7):
        yield np.vstack((square, rng.uniform(0.05, 0.95, size=(count - 4, 2))))
    for count in (8, 9):
        yield np.full((count, 2), 3.0)  # one point: a single cell, every distance ties


@pytest.mark.parametrize("pos", list(_small_grid_drops()), ids=lambda p: f"{len(p)}users")
def test_anchor_walk_on_grids_two_cells_across(pos):
    # The grid is padded with one empty cell on each side.
    _, starts, _, _, _, nx = _cell_grid(pos)
    assert nx - 2 <= 2 and (len(starts) - 1) // nx - 2 <= 2
    for start in range(len(pos)):
        np.testing.assert_array_equal(walk(pos, start), brute_walk(pos, start))


def test_anchor_walk_between_far_clusters():
    # Each cluster fills one cell.  Once a cluster has fewer than three
    # active users left, the users a round needs sit in the other
    # cluster, beyond the radius of every list, so the round scans the
    # active users across the empty cells between the two.
    rng = np.random.default_rng(7)
    pos = np.vstack(
        (rng.uniform(0.0, 1.0, size=(20, 2)), rng.uniform(0.0, 1.0, size=(20, 2)) + (500.0, 300.0))
    )
    for start in (0, 25):
        rounds = walk(pos, start)
        np.testing.assert_array_equal(rounds, brute_walk(pos, start))
        assert np.any((rounds[:, 0] < 20) != (rounds[:, 1] < 20))


@pytest.mark.parametrize("far", ((1000.0, 0.0), (707.0, 707.0)), ids=("along-x", "diagonal"))
def test_anchor_walk_memory_on_two_clusters(far):
    # Each 1 m cluster fills one crowded cell, so no user gets a list and
    # every round scans the active users.  The walk peaks at 0.21 MB on
    # these drops; O(U) arrays may add 256 bytes per user.  A build that
    # ranked every pair in a crowded block would take O(U^2).
    rng = np.random.default_rng(9)
    pos = np.vstack((rng.uniform(0.0, 1.0, size=(500, 2)), rng.uniform(0.0, 1.0, size=(500, 2)) + far))
    anchor_walk(pos, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        anchor_walk(pos, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.21e6 + 256 * len(pos)


@pytest.mark.parametrize("far", ((1000.0, 0.0), (707.0, 707.0)), ids=("along-x", "diagonal"))
def test_complete_rounds_memory_on_two_clusters(far):
    # Under the default interval every round is complete.  The query
    # peaks at 0.42 MB on these drops, scanning SCAN_ROUNDS rounds at a
    # time; one scan of every round at once would take about 8 MB for
    # each (rounds x users) array.
    rng = np.random.default_rng(9)
    pos = np.vstack((rng.uniform(0.0, 1.0, size=(500, 2)), rng.uniform(0.0, 1.0, size=(500, 2)) + far))
    path = anchor_walk(pos, 0)
    complete_rounds(pos, path, (0.0, math.inf))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rounds = complete_rounds(pos, path, (0.0, math.inf))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(rounds) == len(pos) - 3
    assert peak < 1.0e6


def test_anchor_walk_on_sparse_drop():
    # 40 users in a 100 m square, from every start: about half of the
    # rounds find too few active users on their anchor's list and scan,
    # through two or three compactions of the scan.
    pos = np.random.default_rng(2).uniform(0.0, 100.0, size=(40, 2))
    for start in range(len(pos)):
        np.testing.assert_array_equal(walk(pos, start), brute_walk(pos, start))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(4, 60),
    lattice=st.booleans(),
    threshold=st.sampled_from((1e-6, 0.05, 10.0)),
    min_height=st.sampled_from((10.0, 50.0, 200.0)),
    max_pair_distance=st.sampled_from((3.0, 10.0, math.inf)),
)
def test_greedy_matches_round_by_round_loop(
    seed, count, lattice, threshold, min_height, max_pair_distance
):
    rng = np.random.default_rng(seed)
    if lattice:
        # exact rectangles, psi = 0 ties, parallel chords, and chords of
        # exactly 3 m on a 3 m ceiling
        pos = 3.0 * rng.integers(0, 8, size=(count, 2)).astype(float)
    else:
        pos = rng.uniform(0.0, 25.0, size=(count, 2))
    cfg = SelectionConfig(
        stop_threshold=threshold, min_height=min_height, max_pair_distance=max_pair_distance
    )
    center = (12.0, 12.0)
    sel = greedy_select(pos, cfg, LAM, MODE, center=center)
    want, want_psi = loop_select(pos, cfg, center)
    if want is None:
        assert sel is None
        return
    assert sel.indices() == want
    assert sel.angle_square_diff == pytest.approx(want_psi, rel=1e-12, abs=1e-15)


def test_greedy_keeps_a_first_chord_on_the_ceiling():
    # np.hypot rounds this first chord to the ceiling while its squared
    # length rounds above the ceiling's square: the query must compare the
    # np.hypot chord, as the screen does, to complete the round that the
    # screen accepts.
    x, y = 6.515929727227629, 7.887233511355132
    ceiling = math.hypot(x, y)
    assert x * x + y * y > ceiling * ceiling and np.hypot(x, y) == ceiling
    u = np.array([x, y]) / ceiling
    w = np.array([-u[1], u[0]])
    pos = np.array([[0.0, 0.0], [x, y], 6.0 * u + 14.0 * w, u + 12.0 * w])
    cfg = SelectionConfig(max_pair_distance=ceiling)
    center = tuple(pos[2])
    sel = greedy_select(pos, cfg, LAM, MODE, center=center)
    assert sel is not None and sel.cug1 == (0, 1) and sel.chord1 == ceiling
    assert loop_select(pos, cfg, center)[0] == sel.indices()


def full_walk_select(pos, cfg, wavelength, mode, center):
    """The greedy pick from every full round of the default-interval walk."""
    from_center = (pos[:, 0] - center[0]) ** 2 + (pos[:, 1] - center[1]) ** 2
    rounds = walk(pos, int(np.argmax(from_center)))
    psi = _score_rounds(pos, rounds, cfg, wavelength, mode)
    reached = np.flatnonzero(psi <= cfg.stop_threshold)
    w = int(reached[0]) if reached.size else int(np.argmin(psi))
    return (tuple(rounds[w].tolist()), psi[w]) if psi[w] < math.inf else (None, math.inf)


@pytest.mark.parametrize("user_count", (1000, 4000))
def test_greedy_matches_full_walk_at_paper_scale(user_count):
    for master_seed in (1, 2, 3):
        cfg = sim.ScenarioConfig(user_count=user_count, master_seed=master_seed, trials=3)
        for trial in range(3):
            pos = sim.drop_users(cfg, trial).positions
            sel = greedy_select(
                pos, cfg.selection, cfg.link.wavelength, cfg.link.ring_mode, cfg.hotspot_center
            )
            want, want_psi = full_walk_select(
                pos, cfg.selection, cfg.link.wavelength, cfg.link.ring_mode, cfg.hotspot_center
            )
            if want is None:
                assert sel is None
                continue
            assert sel.indices() == want, (master_seed, trial)
            assert sel.angle_square_diff == pytest.approx(want_psi, rel=1e-12, abs=0.0)


# sha256 of the walk's rounds (walk) as little-endian int64, on trial 0's
# drop from greedy_select's first anchor, under the default interval and
# under the interval greedy_select used when they were frozen.  The brute-force walk is too slow to check
# these sizes; any change to the walk must keep them.
WALK_DIGESTS = {
    (1000, 1, "default"): "d6023e0c66a959016266c53ff77eebc761a6b9fe9272248f98f368e9f9ba1ed3",
    (1000, 1, "greedy"): "0849a6ff5e1645b06221d0cb252b91cd67e79620d01b32e1ffa42d3f6979c164",
    (1000, 2, "default"): "692d519f7b2adda9ce670a7c35c5a25c4b893b62140c1046eaa156c16cc1d335",
    (1000, 2, "greedy"): "9182de46ba62b6e0a153adef14e41f8ee2b32cd024e574fe089182e558d090d0",
    (1000, 3, "default"): "0d50633c6e182e0105adce3b5139cf2dcf92b9b19ebfde10e30516edf4e259a7",
    (1000, 3, "greedy"): "f1f5ed14a1a9234f299269e13a99e04a84408f976a3aa8541721301f466de22e",
    (4000, 1, "default"): "0939fb9d3ca6d10b09b01c0205ce42c46f928a78ba3dad3fbf1bf5f94941a5b0",
    (4000, 1, "greedy"): "8e37910378757c6fb3f5f58984e765f5c62831e13cb93f83e43eb1253a8dbb12",
    (4000, 2, "default"): "000cec2a947080240df4345971b6291eb0ab2895598d50963eee5656b89315c0",
    (4000, 2, "greedy"): "a93462f058eea0121d3c262625aea8f2e1f78fdcc860546cbe06cffe693850e7",
    (4000, 3, "default"): "c4c9960792d82e1622eb149e297a1b71100cc43234202870c38b83daa2f47e94",
    (4000, 3, "greedy"): "5c95786937ae8be42f1c67947b53e858e397e898d251315f33386163fe35a748",
    (16000, 1, "default"): "02f359d043b77fd044ecac29e334d659a5271a0fdd19158b03a35dc6ffa83444",
    (16000, 1, "greedy"): "3531336078673264346eb55758da2edbc973190e694505bbac8955e21abb4997",
    (16000, 2, "default"): "c7f6458b5042ad64d4c7b9c7b4542cbfc89644fd3a2e66d2d49c9b60685603c5",
    (16000, 2, "greedy"): "87a16a54637faaaf86133ce53ef36df34c7e0f09998f51a5aca6d8cf57066510",
    (16000, 3, "default"): "cf8b684474c8136edc59d0897659d84d1374985f6da9b2b9a595722228c6c023",
    (16000, 3, "greedy"): "5acd82770f9c9a1e2c011bf601fb27e1a816be70649378c27dc6140c3789ad48",
}


def walk_digests(pos, center, cfg):
    """sha256 of the walk's rounds (walk) from greedy_select's first anchor, per interval.

    The rounds are hashed as little-endian int64, under the default
    interval and under the interval from the ring floor at
    ``cfg.selection.min_height`` to the pair distance ceiling, widened by
    1e-9 relative on each side as greedy_select's interval was when the
    digests were frozen.
    """
    start = int(np.argmax((pos[:, 0] - center[0]) ** 2 + (pos[:, 1] - center[1]) ** 2))
    floor = float(chord_floor(cfg.selection.min_height, cfg.link.wavelength, cfg.link.ring_mode))
    intervals = {
        "default": (0.0, math.inf),
        "greedy": (
            floor * (1.0 - 1e-9),
            cfg.selection.max_pair_distance * (1.0 + 1e-9),
        ),
    }
    digests = {}
    for name, first_chord in intervals.items():
        rounds = np.ascontiguousarray(walk(pos, start, first_chord), dtype="<i8")
        digests[name] = hashlib.sha256(rounds.tobytes()).hexdigest()
    return digests


@pytest.mark.parametrize("user_count", (1000, 4000, 16000))
def test_anchor_walk_rounds_at_paper_scale_are_frozen(user_count):
    for master_seed in (1, 2, 3):
        cfg = sim.ScenarioConfig(user_count=user_count, master_seed=master_seed)
        pos = sim.drop_users(cfg, 0).positions
        digests = walk_digests(pos, cfg.hotspot_center, cfg)
        for name, digest in digests.items():
            assert digest == WALK_DIGESTS[user_count, master_seed, name], (master_seed, name)


# The same digests on two clusters of 2000 users, each 1 m across, 1 km
# apart, from the user farthest from their midpoint.  Their blocks are too
# crowded for nearest-user lists, so every round is found by the fallback.
CLUSTER_DIGESTS = {
    ("along-x", "default"): "b08d4ede53d21b962925de0b005041511ab85f713fd4a3c82afa3e9137c5241d",
    ("along-x", "greedy"): "45a040ad6df3fcd318404fe235e77d51947962645d1f51b9835bcf9db3a2f5dc",
    ("diagonal", "default"): "2855b6584a7d4663a8c6795f6092f2701ed5854069266779f441b2f11c1df203",
    ("diagonal", "greedy"): "8176f06a0725b6d155f3ea381efce5906c3ded321f0d5072778d69ec14a81059",
}


@pytest.mark.parametrize("layout", ("along-x", "diagonal"))
def test_anchor_walk_rounds_on_two_clusters_are_frozen(layout):
    far = {"along-x": (1000.0, 0.0), "diagonal": (707.0, 707.0)}[layout]
    rng = np.random.default_rng(5)
    pos = np.vstack((rng.uniform(0.0, 1.0, size=(2000, 2)), rng.uniform(0.0, 1.0, size=(2000, 2)) + far))
    center = (0.5 + 0.5 * far[0], 0.5 + 0.5 * far[1])
    for name, digest in walk_digests(pos, center, sim.ScenarioConfig()).items():
        assert digest == CLUSTER_DIGESTS[layout, name], name


quad_coordinate = st.floats(-10.0, 10.0, allow_nan=False)
quads = st.lists(
    st.tuples(quad_coordinate, quad_coordinate), min_size=4, max_size=4
).map(np.array)
# Repeated vertices and collinear triples are common on a 4x4 integer lattice.
small_int_quads = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=4, max_size=4
).map(lambda v: np.array(v, dtype=float))


def law_of_cosines(quad):
    """Unsigned angle at each vertex between its two edges, in [0, pi]."""
    out = []
    for i in range(4):
        a = math.dist(quad[i], quad[i - 1])
        b = math.dist(quad[i], quad[(i + 1) % 4])
        c = math.dist(quad[i - 1], quad[(i + 1) % 4])
        out.append(math.acos(max(-1.0, min(1.0, (a * a + b * b - c * c) / (2.0 * a * b)))))
    return np.array(out)


@PROPERTY
@given(quad=st.one_of(quads, small_int_quads))
def test_quad_angles_match_law_of_cosines(quad):
    angles, defect = quad_angles(quad[None])
    if defect[0]:
        assert np.all(np.isnan(angles[0]))
        return
    angles = angles[0]
    unsigned = np.where(angles > math.pi, 2.0 * math.pi - angles, angles)
    reference = law_of_cosines(quad)
    # acos loses accuracy near 0 and pi, where its slope is unbounded
    well_posed = np.abs(np.cos(reference)) < 0.999
    np.testing.assert_allclose(unsigned[well_posed], reference[well_posed], rtol=0, atol=1e-9)
    assert np.sum(angles) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert np.sum(angles > math.pi) <= 1


def test_quad_angles_flag_each_defect():
    batch = np.array(
        [
            [[0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [0.0, 3.0]],  # repeated vertex
            [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [0.0, 3.0]],  # collinear triple
            [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0]],  # bow tie
            [[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]],  # rectangle
        ]
    )
    angles, defect = quad_angles(batch)
    assert [NOT_SIMPLE[c] for c in defect] == [
        "repeated vertex",
        "collinear triple",
        "opposite sides cross",
        "",
    ]
    assert np.all(np.isnan(angles[:3]))
    np.testing.assert_allclose(angles[3], math.pi / 2.0, rtol=1e-12)
