"""Array link layer: closed-form condition number, batched evaluation, heatmap rows."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oamcoop import sim
from oamcoop.beam import BeamSpec, RingTarget, waist_solve
from oamcoop.errors import ParallelChordsError, WaistInfeasibleError
from oamcoop.geometry import (
    GroundPoint,
    aim_at_midpoints,
    beam_frame_coords,
    bisector_intersection,
)
from oamcoop.link import (
    FLAG_MODE_INSEPARABLE,
    FLAG_WAIST_INFEASIBLE,
    ILL_CONDITION_LIMIT,
    LinkConfig,
    _abs2,
    channel_condition,
    evaluate_link,
    evaluate_placements,
    mode_field,
    projection_sinr,
)
from oamcoop.selection import CugSelection
from oamcoop.sim import ScenarioConfig, se_heatmap

# Fixed examples keep the suite's verdict reproducible run to run.
PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# Mode sets drawn by the link scenes: ordered, reversed, even gap, signed.
MODE_SETS = ((1, 2), (2, 1), (1, 3), (-1, 2), (3, -2))

coordinate = st.floats(-10.0, 10.0, allow_nan=False)
entry = st.builds(complex, coordinate, coordinate)
matrix = st.lists(entry, min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=complex).reshape(2, 2)
)


@PROPERTY
@given(h=matrix, exponent=st.integers(-150, 150))
def test_condition_matches_svd(h, exponent):
    h = h * 10.0**exponent
    reference = np.linalg.cond(h)
    # Both routes lose relative accuracy in proportion to the condition
    # number itself; below 1e4 they agree to far better than 1e-10.
    assume(reference < 1e4)
    condition, separable = channel_condition(h)
    assert float(condition) == pytest.approx(reference, rel=1e-10)
    assert separable


@PROPERTY
@given(h=matrix)
def test_condition_verdict_matches_svd_off_the_limit(h):
    reference = np.linalg.cond(h)
    assume(not 1e-2 * ILL_CONDITION_LIMIT <= reference <= 1e2 * ILL_CONDITION_LIMIT)
    _, separable = channel_condition(h)
    assert bool(separable) == (reference <= ILL_CONDITION_LIMIT)


@PROPERTY
@given(
    a=entry,
    c=entry,
    kind=st.sampled_from(("equal-columns", "doubled-column", "zero-column", "zero-row")),
)
def test_condition_is_inf_when_rank_deficient(a, c, kind):
    # singular in floating point too: both products of det H round alike
    h = {
        "equal-columns": [[a, a], [c, c]],
        "doubled-column": [[a, 2.0 * a], [c, 2.0 * c]],
        "zero-column": [[a, 0.0], [c, 0.0]],
        "zero-row": [[a, c], [0.0, 0.0]],
    }[kind]
    condition, separable = channel_condition(np.array(h, dtype=complex))
    assert float(condition) == math.inf
    assert not separable


@PROPERTY
@given(x=st.lists(entry, min_size=2, max_size=2), y=st.lists(entry, min_size=2, max_size=2))
def test_rank_one_channel_is_inseparable(x, y):
    # the outer product is singular only up to rounding, which leaves det H
    # at rounding level: the verdict, not inf, is what must hold
    assume(min(map(abs, x + y)) > 1e-3)
    _, separable = channel_condition(np.outer(x, y))
    assert not separable


def test_condition_broadcasts_over_leading_axes():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    condition, separable = channel_condition(h)
    assert condition.shape == separable.shape == (5, 3)
    np.testing.assert_allclose(condition, np.linalg.cond(h), rtol=1e-9)


def _reference_link(cfg, placement, selection, users):
    """Per-pair loop over scalar calls, with np.linalg.cond: (se, waist, sinr, flags)."""
    lam = cfg.wavelength
    gain = math.sqrt(cfg.transmit_power * cfg.effective_aperture)
    out = []
    pairs = ((selection.cug1, selection.chord1), (selection.cug2, selection.chord2))
    for k, (pair, chord) in enumerate(pairs):
        try:
            target = RingTarget(0.5 * chord, float(placement.distances[k]))
            waist = waist_solve(target, lam, cfg.ring_mode)
        except WaistInfeasibleError:
            out.append((0.0, None, (0.0, 0.0), (FLAG_WAIST_INFEASIBLE,)))
            continue
        coords = [
            beam_frame_coords(placement.position, placement.axes[k], users[i]) for i in pair
        ]
        h = np.empty((2, 2), dtype=complex)
        for i, cu in enumerate(coords):
            for m, mode in enumerate(cfg.mode_set):
                beam = BeamSpec(lam, mode, waist)
                h[i, m] = gain * mode_field(beam, cu.radial, cu.azimuth, abs(cu.axial))
        if not np.linalg.cond(h) <= ILL_CONDITION_LIMIT:
            out.append((0.0, waist, (0.0, 0.0), (FLAG_MODE_INSEPARABLE,)))
            continue
        sinr = []
        for m, mode in enumerate(cfg.mode_set):
            w = [complex(math.cos(mode * cu.azimuth), -math.sin(mode * cu.azimuth)) for cu in coords]
            own = abs(w[0] * h[0, m] + w[1] * h[1, m]) ** 2 / 2.0
            leak = abs(w[0] * h[0, 1 - m] + w[1] * h[1, 1 - m]) ** 2 / 2.0
            sinr.append(own / (leak + cfg.noise_power))
        se = sum(math.log2(1.0 + s) for s in sinr)
        out.append((se, waist, tuple(sinr), ()))
    return out


@st.composite
def link_scene(draw):
    """Four users in cycle order near (50, 50) and stations near and far.

    Far or high stations put the ring below its diffraction floor, so some
    pairs are waist-infeasible.  Stations over the bisector intersection
    align both pairs, which makes a mode set with an even gap inseparable.
    """
    corner = np.array((50.0, 50.0))
    users = np.array(
        [corner + (draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))) for _ in range(4)]
    )
    for a, b in ((0, 1), (2, 3)):
        assume(math.dist(users[a], users[b]) > 0.5)
    dist = [math.dist(users[a], users[b]) for a, b in ((0, 1), (2, 3), (0, 2), (1, 3))]
    selection = CugSelection((0, 1), (2, 3), *dist, angle_square_diff=0.0)
    try:
        aligned = bisector_intersection(*users)
    except ParallelChordsError:
        aligned = GroundPoint(50.0, 50.0)
    ground = st.one_of(st.just(aligned), st.tuples(st.floats(-50.0, 150.0), st.floats(-50.0, 150.0)))
    height = st.one_of(st.floats(5.0, 150.0), st.floats(150.0, 3000.0))
    stations = np.array(
        [(*draw(ground), draw(height)) for _ in range(draw(st.integers(1, 6)))]
    )
    modes = draw(st.sampled_from(MODE_SETS))
    return LinkConfig(mode_set=modes), users, selection, stations


@PROPERTY
@given(scene=link_scene())
def test_batch_matches_per_position_links(scene):
    cfg, users, selection, stations = scene
    m1 = 0.5 * (users[0] + users[1])
    m2 = 0.5 * (users[2] + users[3])
    batch = evaluate_placements(cfg, aim_at_midpoints(stations, m1, m2), selection, users)
    se_total = batch.se_total
    assert se_total.shape == (len(stations),)
    for n, station in enumerate(stations):
        placement = aim_at_midpoints(station, m1, m2)
        report = evaluate_link(cfg, placement, selection, users)
        assert se_total[n] == pytest.approx(report.se_total, rel=1e-12, abs=0.0)
        assert se_total[n] == report.se_total
        reference = _reference_link(cfg, placement, selection, users)
        for k, (cug, (se, waist, sinr, flags)) in enumerate(zip(report.cugs, reference)):
            assert cug.flags == flags
            assert cug.se == pytest.approx(se, rel=1e-9, abs=0.0)
            assert cug.sinr == pytest.approx(sinr, rel=1e-9, abs=0.0)
            if waist is None:
                assert cug.waist is None and math.isnan(batch.waist[n, k])
            else:
                assert cug.waist == pytest.approx(waist, rel=1e-12)
                assert batch.waist[n, k] == pytest.approx(waist, rel=1e-12)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 4), max_size=2),
    modes=st.sampled_from(MODE_SETS),
    noise=st.sampled_from((1e-12, 1e-3, 1.0)),
)
def test_projection_matches_stacked_matmul(seed, lead, modes, noise):
    # Oracle: w^H h as a stacked 2x2 complex matmul, [..., recovered, transmitted].
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(*lead, 2, 2)) + 1j * rng.normal(size=(*lead, 2, 2))
    azimuths = rng.uniform(-math.pi, math.pi, size=(*lead, 2))
    phase = np.asarray(modes, dtype=float)[:, None] * azimuths[..., None, :]
    w = np.exp(1j * phase) / math.sqrt(2.0)
    power = _abs2(w.conj() @ h)
    own = np.diagonal(power, axis1=-2, axis2=-1)
    leak = np.diagonal(power[..., ::-1], axis1=-2, axis2=-1)
    sinr = projection_sinr(h, azimuths, modes, noise)
    assert sinr.shape == (*lead, 2)
    np.testing.assert_allclose(sinr, own / (leak + noise), rtol=1e-12, atol=0.0)


# Pair 1 has an 8 m chord, pair 2 a 3 m chord, so a station at height 60 m
# reaches pair 1's ring but not pair 2's, and at 3000 m neither.
EDGE_USERS = np.array([(46.0, 46.0), (54.0, 46.0), (48.5, 54.0), (51.5, 54.0)])
EDGE_SELECTION = CugSelection(
    (0, 1),
    (2, 3),
    *(math.dist(EDGE_USERS[a], EDGE_USERS[b]) for a, b in ((0, 1), (2, 3), (0, 2), (1, 3))),
    angle_square_diff=0.0,
)


@pytest.mark.parametrize(
    "stations, infeasible",
    [
        ([(50.0, 50.0, 3000.0), (0.0, 100.0, 3000.0)], [[True, True], [True, True]]),
        ([(45.0, 50.0, 8.0), (50.0, 50.0, 10.0), (55.0, 52.0, 12.0)], [[False, False]] * 3),
        (
            [(50.0, 50.0, 10.0), (50.0, 50.0, 3000.0), (50.0, 50.0, 60.0)],
            [[False, False], [True, True], [False, True]],
        ),
    ],
    ids=["none-in-reach", "all-in-reach", "one-placement-out-of-reach"],
)
@pytest.mark.parametrize("modes", [(1, 2), (1, 3)])
def test_batch_entries_equal_links_of_one_at_the_reach_edges(stations, infeasible, modes):
    cfg = LinkConfig(mode_set=modes)
    m1 = 0.5 * (EDGE_USERS[0] + EDGE_USERS[1])
    m2 = 0.5 * (EDGE_USERS[2] + EDGE_USERS[3])
    stations = np.array(stations)
    batch = evaluate_placements(cfg, aim_at_midpoints(stations, m1, m2), EDGE_SELECTION, EDGE_USERS)
    n = len(stations)
    assert batch.waist.shape == batch.condition.shape == (n, 2)
    assert batch.sinr.shape == (n, 2, 2) and batch.se_total.shape == (n,)
    out = np.isnan(batch.waist)
    assert out.tolist() == infeasible
    assert np.all(batch.sinr[out] == 0.0) and np.all(batch.condition[out] == math.inf)
    for i, station in enumerate(stations):
        report = evaluate_link(cfg, aim_at_midpoints(station, m1, m2), EDGE_SELECTION, EDGE_USERS)
        assert report.se_total == pytest.approx(batch.se_total[i], rel=1e-12, abs=0.0)
        assert report.se_total == batch.se_total[i]
        for k, cug in enumerate(report.cugs):
            assert cug.sinr == tuple(batch.sinr[i, k]) and cug.condition == batch.condition[i, k]
            if out[i, k]:
                assert cug.waist is None and cug.flags == (FLAG_WAIST_INFEASIBLE,)
            else:
                assert cug.waist == batch.waist[i, k]
                separable = cug.condition <= ILL_CONDITION_LIMIT
                assert cug.flags == (() if separable else (FLAG_MODE_INSEPARABLE,))


def test_heatmap_rows_equal_per_node_links():
    cfg = replace(ScenarioConfig(), user_count=800, master_seed=3)
    result = se_heatmap(cfg, 11)
    sel, pos = result.selection, result.drop.positions
    m1 = 0.5 * (pos[sel.cug1[0]] + pos[sel.cug1[1]])
    m2 = 0.5 * (pos[sel.cug2[0]] + pos[sel.cug2[1]])
    for j, y in enumerate(result.ys):
        for i, x in enumerate(result.xs):
            placement = aim_at_midpoints((x, y, cfg.fbs_height), m1, m2)
            assert result.se[j, i] == evaluate_link(cfg.link, placement, sel, pos).se_total


@pytest.mark.parametrize("batch", [7, 10_000])
@pytest.mark.parametrize("grid", [13, 2])
def test_heatmap_blocks_equal_row_by_row_scoring(monkeypatch, batch, grid):
    # 7 stations per block straddle the rows of a 13-wide grid and leave a
    # last block of one; 10 000 takes either grid in a single block.
    cfg = replace(ScenarioConfig(), user_count=800, master_seed=3)
    monkeypatch.setattr(sim, "PLACEMENT_BATCH", batch)
    result = se_heatmap(cfg, grid)
    sel, pos = result.selection, result.drop.positions
    m1 = 0.5 * (pos[sel.cug1[0]] + pos[sel.cug1[1]])
    m2 = 0.5 * (pos[sel.cug2[0]] + pos[sel.cug2[1]])
    heights = np.full(grid, cfg.fbs_height)
    rows = []
    for y in result.ys:
        row = np.column_stack((result.xs, np.full(grid, y), heights))
        rows.append(evaluate_placements(cfg.link, aim_at_midpoints(row, m1, m2), sel, pos).se_total)
    assert np.array_equal(result.se, np.array(rows))
