"""Array link layer: closed-form condition number, batched evaluation, heatmap rows."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from oamcoop import sim
from oamcoop.beam import BeamSpec, ring_waists
from oamcoop.errors import ParallelChordsError
from oamcoop.geometry import GroundPoint, bisector_intersection, transmission_distance
from oamcoop.link import (
    FLAG_MODE_INSEPARABLE,
    FLAG_WAIST_INFEASIBLE,
    ILL_CONDITION_LIMIT,
    LinkConfig,
    channel_condition,
    evaluate_link,
    evaluate_placements,
    half_angle_weights,
    projection_sinr,
)
from oamcoop.selection import CugSelection
from oamcoop.sim import ScenarioConfig, se_heatmap
from test_geometry import local_frame
from test_link import lg_intensity

# Fixed examples keep the suite's verdict reproducible run to run.
PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# Mode sets drawn by the link scenes: ordered, reversed, even gap, signed.
MODE_SETS = ((1, 2), (2, 1), (1, 3), (-1, 2), (3, -2))

def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _polar(h):
    """Amplitudes |h| and the half-angle weights of the relative phase of complex 2x2 channels."""
    arg = np.angle(h)
    delta = (arg[..., 0, 0] - arg[..., 0, 1]) - (arg[..., 1, 0] - arg[..., 1, 1])
    return (np.abs(h), *half_angle_weights(delta))


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
    condition, separable = channel_condition(*_polar(h))
    assert float(condition) == pytest.approx(reference, rel=1e-10)
    assert separable


@PROPERTY
@given(h=matrix)
def test_condition_verdict_matches_svd_off_the_limit(h):
    reference = np.linalg.cond(h)
    assume(not 1e-2 * ILL_CONDITION_LIMIT <= reference <= 1e2 * ILL_CONDITION_LIMIT)
    _, separable = channel_condition(*_polar(h))
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
    condition, separable = channel_condition(*_polar(np.array(h, dtype=complex)))
    assert float(condition) == math.inf
    assert not separable


@PROPERTY
@given(x=st.lists(entry, min_size=2, max_size=2), y=st.lists(entry, min_size=2, max_size=2))
def test_rank_one_channel_is_inseparable(x, y):
    # the outer product is singular only up to rounding, which leaves det H
    # at rounding level: the verdict, not inf, is what must hold
    assume(min(map(abs, x + y)) > 1e-3)
    _, separable = channel_condition(*_polar(np.outer(x, y)))
    assert not separable


def test_condition_broadcasts_over_leading_axes():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    condition, separable = channel_condition(*_polar(h))
    assert condition.shape == separable.shape == (5, 3)
    np.testing.assert_allclose(condition, np.linalg.cond(h), rtol=1e-9)


def _reference_link(cfg, station, selection, users):
    """Per-pair loop over scalar calls, with np.linalg.cond: (se, waist, sinr, flags)."""
    lam = cfg.wavelength
    gain = math.sqrt(cfg.transmit_power * cfg.effective_aperture)
    out = []
    pairs = ((selection.cug1, selection.chord1), (selection.cug2, selection.chord2))
    for pair, chord in pairs:
        aim = np.array((*(0.5 * (users[pair[0]] + users[pair[1]])), 0.0))
        distance = math.dist(station, aim)
        waist = float(ring_waists(0.5 * chord, distance, lam, cfg.ring_mode))
        if math.isnan(waist):  # the ring is below its diffraction floor
            out.append((0.0, None, (0.0, 0.0), (FLAG_WAIST_INFEASIBLE,)))
            continue
        beam = BeamSpec(lam, cfg.ring_mode, waist)
        coords = [local_frame(station, (aim - station) / distance, users[i]) for i in pair]
        h = np.empty((2, 2), dtype=complex)
        for i, (radial, azimuth, axial) in enumerate(coords):
            for m, mode in enumerate(cfg.mode_set):
                field = math.sqrt(lg_intensity(mode, radial, beam.envelope(abs(axial))))
                h[i, m] = gain * field * complex(math.cos(mode * azimuth), math.sin(mode * azimuth))
        if not np.linalg.cond(h) <= ILL_CONDITION_LIMIT:
            out.append((0.0, waist, (0.0, 0.0), (FLAG_MODE_INSEPARABLE,)))
            continue
        sinr = []
        for m, mode in enumerate(cfg.mode_set):
            w = [complex(math.cos(mode * phi), -math.sin(mode * phi)) for _, phi, _ in coords]
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
    batch = evaluate_placements(cfg, stations, selection, users)
    se_total = batch.se_total
    assert se_total.shape == (len(stations),)
    for n, station in enumerate(stations):
        report = evaluate_link(cfg, station, selection, users)
        assert se_total[n] == pytest.approx(report.se_total, rel=1e-12, abs=0.0)
        assert se_total[n] == report.se_total
        reference = _reference_link(cfg, station, selection, users)
        for k, (cug, (se, waist, sinr, flags)) in enumerate(zip(report.cugs, reference)):
            assert cug.flags == flags
            assert cug.se == pytest.approx(se, rel=1e-9, abs=0.0)
            assert cug.sinr == pytest.approx(sinr, rel=1e-9, abs=0.0)
            if waist is None:
                assert cug.waist is None and math.isnan(batch.waist[n, k])
            else:
                assert cug.waist == pytest.approx(waist, rel=1e-12)
                assert batch.waist[n, k] == pytest.approx(waist, rel=1e-12)


def _scene_se(cfg, users, selection, stations):
    """se_total of the stations serving the selection."""
    return evaluate_placements(cfg, stations, selection, users).se_total


@PROPERTY
@given(scene=link_scene())
def test_se_is_bit_identical_under_exact_relabellings_and_the_x_mirror(scene):
    # Swapping the pairs, swapping the users inside each pair and mirroring
    # x of users and stations change no rounding step of the link: SE must
    # match to the bit, not to a tolerance.
    cfg, users, selection, stations = scene
    se = _scene_se(cfg, users, selection, stations)
    (a, b), (c, d) = selection.cug1, selection.cug2
    pairs_swapped = replace(
        selection, cug1=(c, d), cug2=(a, b), chord1=selection.chord2, chord2=selection.chord1
    )
    users_swapped = replace(selection, cug1=(b, a), cug2=(d, c))
    mirror = np.array((-1.0, 1.0, 1.0))
    assert np.array_equal(_scene_se(cfg, users, pairs_swapped, stations), se)
    assert np.array_equal(_scene_se(cfg, users, users_swapped, stations), se)
    assert np.array_equal(_scene_se(cfg, users * mirror[:2], selection, stations * mirror), se)


@PROPERTY
@given(
    scene=link_scene(),
    turn=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_se_is_invariant_under_a_rigid_motion(scene, turn, shift):
    # A rotation plus translation of the plane rounds every coordinate, so
    # SE agrees to a relative bound, not to the bit.
    cfg, users, selection, stations = scene
    rotation = np.array(((math.cos(turn), -math.sin(turn)), (math.sin(turn), math.cos(turn))))
    moved_users = users @ rotation.T + shift
    moved_stations = np.column_stack((stations[:, :2] @ rotation.T + shift, stations[:, 2]))
    se = _scene_se(cfg, users, selection, stations)
    moved = _scene_se(cfg, moved_users, selection, moved_stations)
    np.testing.assert_allclose(moved, se, rtol=1e-11, atol=0.0)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 4), max_size=2),
    modes=st.sampled_from(MODE_SETS),
    noise=st.sampled_from((1e-12, 1e-3, 1.0)),
)
def test_projection_matches_stacked_matmul(seed, lead, modes, noise):
    # Oracle: w^H h as a stacked 2x2 complex matmul, [..., recovered, transmitted],
    # on channels h_im = A_im exp(i m phi_i), the form the beam model produces.
    rng = np.random.default_rng(seed)
    amplitude = np.abs(rng.normal(size=(*lead, 2, 2)))
    azimuths = rng.uniform(-math.pi, math.pi, size=(*lead, 2))
    h = amplitude * np.exp(1j * azimuths[..., :, None] * np.asarray(modes, dtype=float))
    phase = np.asarray(modes, dtype=float)[:, None] * azimuths[..., None, :]
    w = np.exp(1j * phase) / math.sqrt(2.0)
    power = _abs2(w.conj() @ h)
    own = np.diagonal(power, axis1=-2, axis2=-1)
    leak = np.diagonal(power[..., ::-1], axis1=-2, axis2=-1)
    delta = (modes[1] - modes[0]) * (azimuths[..., 1] - azimuths[..., 0])
    sinr = projection_sinr(amplitude, *half_angle_weights(delta), noise)
    assert sinr.shape == (*lead, 2)
    np.testing.assert_allclose(sinr, own / (leak + noise), rtol=1e-12, atol=0.0)


def _reference_projection_and_condition(amplitude, delta, noise):
    """60-digit SINRs and condition number of [[A_00, A_01], [A_10, A_11 exp(i delta)]]."""
    with mp.workdps(60):
        a = [[mp.mpf(float(v)) for v in row] for row in amplitude]
        turn = mp.expjpi(mp.mpf(float(delta)) / mp.pi)
        h = mp.matrix([[a[0][0], a[0][1]], [a[1][0], a[1][1] * turn]])
        # Mode m's projection sums its own column as is and the other column
        # turned back by the mode gap's phase (see projection_sinr).
        sinr = []
        for m in range(2):
            own = (a[0][m] + a[1][m]) ** 2 / 2
            leak = abs(a[0][1 - m] + a[1][1 - m] * turn) ** 2 / 2
            sinr.append(own / (leak + mp.mpf(noise)))
        sigma = mp.svd_c(h, compute_uv=False)
        condition = max(sigma[0], sigma[1]) / min(sigma[0], sigma[1])
        return [float(v) for v in sinr], float(condition)


@PROPERTY
@given(
    user1=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    offsets=st.tuples(st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6)),
    turns=st.integers(-7, 6),
    twist=st.floats(-1e-6, 1e-6),
    noise=st.sampled_from((1e-30, 1e-24, 1e-15)),
)
def test_near_aligned_link_matches_a_60_digit_reference(user1, offsets, turns, twist, noise):
    # A near-aligned pair: user 2's amplitudes within 1e-6 of user 1's and a
    # relative phase within 1e-6 of an odd multiple of pi, where the leak is
    # the near-cancellation of the two users' samples.
    amplitude = np.array([user1, [a * (1.0 + e) for a, e in zip(user1, offsets)]])
    delta = (2 * turns + 1) * math.pi + twist
    weights = half_angle_weights(delta)
    sinr = projection_sinr(amplitude, *weights, noise)
    condition, separable = channel_condition(amplitude, *weights)
    reference_sinr, reference_condition = _reference_projection_and_condition(amplitude, delta, noise)
    np.testing.assert_allclose(sinr, reference_sinr, rtol=1e-14, atol=0.0)
    assert float(condition) == pytest.approx(reference_condition, rel=1e-14, abs=0.0)
    assert separable


def _reference_se_50_digits(cfg, station, selection, users):
    """50-digit se_total of one station aimed at the selection's chord midpoints.

    Each user is projected onto its pair's aim axis, and its azimuth is read
    in a right-handed frame about that axis; nothing assumes the two users
    antipodal or at one radius.  The channel h_im = A_im exp(i m phi_i) is
    separated by the helical-phase projection, and an ill-conditioned one
    (np.linalg.cond semantics, via the SVD) gives its pair zero rate.
    """
    with mp.workdps(50):
        lam = mp.mpf(cfg.wavelength)
        gain2 = mp.mpf(cfg.transmit_power) * mp.mpf(cfg.effective_aperture)
        ring = abs(cfg.ring_mode)
        p = [mp.mpf(float(v)) for v in station]
        se = mp.mpf(0)
        for pair, chord in ((selection.cug1, selection.chord1), (selection.cug2, selection.chord2)):
            ends = [[mp.mpf(float(users[i][0])), mp.mpf(float(users[i][1])), mp.mpf(0)] for i in pair]
            aim = [(ends[0][j] + ends[1][j]) / 2 - p[j] for j in range(3)]
            d = mp.sqrt(mp.fsum(v * v for v in aim))
            axis = [v / d for v in aim]
            half_sum = (mp.mpf(chord) / 2) ** 2 / ring
            disc = half_sum**2 - (d * lam / mp.pi) ** 2
            if disc < 0:  # the ring is out of reach at this distance
                continue
            waist2 = half_sum - mp.sqrt(disc)
            rayleigh = mp.pi * waist2 / lam
            # axis x (0, 0, 1), horizontal; no station here is straight above a midpoint.
            e1 = [axis[1], -axis[0], mp.mpf(0)]
            norm = mp.sqrt(e1[0] ** 2 + e1[1] ** 2)
            e1 = [v / norm for v in e1]
            e2 = [
                axis[1] * e1[2] - axis[2] * e1[1],
                axis[2] * e1[0] - axis[0] * e1[2],
                axis[0] * e1[1] - axis[1] * e1[0],
            ]
            amplitude, azimuth = [], []
            for end in ends:
                rel = [end[j] - p[j] for j in range(3)]
                axial = mp.fsum(r * a for r, a in zip(rel, axis))
                t = [r - axial * a for r, a in zip(rel, axis)]
                radial2 = mp.fsum(v * v for v in t)
                across, up = (mp.fsum(v * e for v, e in zip(t, unit)) for unit in (e1, e2))
                azimuth.append(mp.atan2(up, across))
                w2 = waist2 * (1 + (axial / rayleigh) ** 2)
                u = 2 * radial2 / w2
                intensity = [
                    2 / (mp.pi * w2 * mp.factorial(abs(m))) * u ** abs(m) * mp.exp(-u) for m in cfg.mode_set
                ]
                amplitude.append([mp.sqrt(gain2 * i) for i in intensity])
            h = mp.matrix(2, 2)
            for i in range(2):
                for k, m in enumerate(cfg.mode_set):
                    h[i, k] = amplitude[i][k] * mp.expj(m * azimuth[i])
            sigma = mp.svd_c(h, compute_uv=False)
            if max(sigma[0], sigma[1]) > ILL_CONDITION_LIMIT * min(sigma[0], sigma[1]):
                continue
            for k, m in enumerate(cfg.mode_set):
                # User i's sample weighted by exp(-i m phi_i) / sqrt(2).
                own = abs(sum(mp.expj(-m * azimuth[i]) * h[i, k] for i in range(2))) ** 2 / 2
                leak = abs(sum(mp.expj(-m * azimuth[i]) * h[i, 1 - k] for i in range(2))) ** 2 / 2
                se += mp.log(1 + own / (leak + mp.mpf(cfg.noise_power)), 2)
        return se


def test_se_near_the_acoc_station_matches_a_50_digit_reference():
    # Stations 1 um to 10 m off the acoc station of three paper-sized
    # drops: the leak there comes from the small difference of the two
    # users' axial distances, the quantity most exposed to cancellation.
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2208)
    worst = 0.0
    for trial in range(3):
        drop = sim.drop_users(cfg, trial)
        pos, selection = drop.positions, sim.select_users(cfg, drop)
        acoc = np.array(sim.scheme_station(cfg, pos, selection, trial, sim.SCHEME_ACOC))
        offset = 10.0 ** rng.uniform(-6.0, 1.0, size=100)
        turn = rng.uniform(-math.pi, math.pi, size=100)
        stations = acoc + np.column_stack((offset * np.cos(turn), offset * np.sin(turn), np.zeros(100)))
        se = _scene_se(cfg.link, pos, selection, stations)
        for station, value in zip(stations, se):
            reference = _reference_se_50_digits(cfg.link, station, selection, pos)
            worst = max(worst, float(abs(mp.mpf(float(value)) - reference) / reference))
    assert worst <= 5e-13, worst


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
    stations = np.array(stations)
    batch = evaluate_placements(cfg, stations, EDGE_SELECTION, EDGE_USERS)
    n = len(stations)
    assert batch.waist.shape == batch.condition.shape == (n, 2)
    assert batch.sinr.shape == (n, 2, 2) and batch.se_total.shape == (n,)
    out = np.isnan(batch.waist)
    assert out.tolist() == infeasible
    assert np.all(batch.sinr[out] == 0.0) and np.all(batch.condition[out] == math.inf)
    for i, station in enumerate(stations):
        report = evaluate_link(cfg, station, EDGE_SELECTION, EDGE_USERS)
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


@pytest.mark.parametrize("height", [0.0, -1.0])
@pytest.mark.parametrize("block", [False, True], ids=["one-station", "one-bad-in-a-block"])
def test_station_at_or_below_the_ground_is_rejected(height, block):
    bad = np.array((50.0, 50.0, height))
    stations = np.array([(45.0, 50.0, 8.0), bad, (55.0, 52.0, 60.0)]) if block else bad
    midpoints = 0.5 * (EDGE_USERS[[0, 2]] + EDGE_USERS[[1, 3]])
    with pytest.raises(ValueError, match="^station height must be positive$"):
        transmission_distance(stations[..., None, :], midpoints)
    with pytest.raises(ValueError, match="^station height must be positive$"):
        evaluate_placements(LinkConfig(), stations, EDGE_SELECTION, EDGE_USERS)


def test_heatmap_rows_equal_per_node_links():
    cfg = replace(ScenarioConfig(), user_count=800, master_seed=3)
    result = se_heatmap(cfg, 11)
    sel, pos = result.selection, result.drop.positions
    for j, y in enumerate(result.ys):
        for i, x in enumerate(result.xs):
            station = (x, y, cfg.fbs_height)
            assert result.se[j, i] == evaluate_link(cfg.link, station, sel, pos).se_total


@pytest.mark.parametrize("batch", [7, 10_000, sim.PLACEMENT_BATCH])
@pytest.mark.parametrize("grid", [13, 2, 53])
def test_heatmap_blocks_equal_row_by_row_scoring(monkeypatch, batch, grid):
    # 7 stations per block straddle the rows of a 13-wide grid and leave a
    # last block of one; 10 000 takes any of these grids in a single block.
    # The shipped block size splits the 53-wide grid (2809 stations) inside
    # a row and leaves a shorter last block.
    cfg = replace(ScenarioConfig(), user_count=800, master_seed=3)
    monkeypatch.setattr(sim, "PLACEMENT_BATCH", batch)
    result = se_heatmap(cfg, grid)
    sel, pos = result.selection, result.drop.positions
    heights = np.full(grid, cfg.fbs_height)
    rows = []
    for y in result.ys:
        row = np.column_stack((result.xs, np.full(grid, y), heights))
        rows.append(evaluate_placements(cfg.link, row, sel, pos).se_total)
    assert np.array_equal(result.se, np.array(rows))
