"""Downlink model: mode amplitudes, pair channels, mode separation, link evaluation."""

import math

import numpy as np
import pytest

from oamcoop.beam import BeamSpec, feasible_ring_radius, ring_waists
from oamcoop.geometry import aimed_pair_coords, bisector_intersection, transmission_distance
from oamcoop.link import (
    C_LIGHT,
    FLAG_MODE_INSEPARABLE,
    FLAG_WAIST_INFEASIBLE,
    LinkConfig,
    channel_condition,
    evaluate_link,
    half_angle_weights,
    mode_amplitudes,
)
from oamcoop.selection import CugSelection
from test_geometry import local_frame


def lg_intensity(mode, r, w):
    """Closed-form ring intensity 2 u^|m| e^(-u) / (pi w^2 |m|!) with u = 2 r^2 / w^2."""
    u = 2.0 * r * r / (w * w)
    return 2.0 * u ** abs(mode) * math.exp(-u) / (math.pi * w * w * math.factorial(abs(mode)))


def test_wavelength_from_carrier():
    cfg = LinkConfig(carrier_frequency=1e9)
    assert cfg.wavelength == pytest.approx(C_LIGHT / 1e9, rel=1e-15)


def test_default_aperture_is_isotropic():
    cfg = LinkConfig()
    lam = cfg.wavelength
    assert cfg.effective_aperture == pytest.approx(lam * lam / (4 * math.pi), rel=1e-15)
    assert LinkConfig(aperture=0.05).effective_aperture == 0.05


@pytest.mark.parametrize(
    "modes,expect",
    [((1, 2), 1), ((-1, 2), -1), ((2, -2), 2), ((3, -2), -2)],
)
def test_ring_mode_prefers_low_positive_order(modes, expect):
    assert LinkConfig(mode_set=modes).ring_mode == expect


def test_mode_set_must_be_two_distinct():
    with pytest.raises(ValueError):
        LinkConfig(mode_set=(1, 1))
    with pytest.raises(ValueError):
        LinkConfig(mode_set=(1,))


@pytest.mark.parametrize(
    "modes,named", [((1.5, 2), "1.5"), ((1.7, 1.2), "1.7"), ((1, float("nan")), "nan")]
)
def test_mode_set_refuses_non_integral_modes(modes, named):
    with pytest.raises(ValueError, match=f"mode order {named} is not an integer"):
        LinkConfig(mode_set=modes)
    assert LinkConfig(mode_set=(2.0, -1.0)).mode_set == (2, -1)


def test_channel_columns_follow_mode_set():
    cfg = LinkConfig(mode_set=(2, 1))
    lam = cfg.wavelength
    beam = BeamSpec(lam, cfg.ring_mode, 1.2)
    envelope = beam.envelope(np.array([50.0, 50.0]))
    amplitude = mode_amplitudes(cfg, np.array([2.0, 2.0]), envelope)
    assert amplitude.shape == (2, 2)
    gain2 = cfg.transmit_power * cfg.effective_aperture
    for col, mode in enumerate(cfg.mode_set):
        expect = math.sqrt(gain2 * lg_intensity(mode, 2.0, float(envelope[0])))
        assert amplitude[0, col] == pytest.approx(expect, rel=1e-12)


def _antipodal_pair(cfg, beam, rho, phi, z):
    """Amplitudes and half-angle weights of users at azimuths phi and phi + pi on a ring.

    The station sits at height z above the origin and aims straight down at
    the pair's midpoint, so the ground users at radius rho are at axial
    distance z and their azimuth gap is pi.
    """
    ends = rho * np.array([(math.cos(t), math.sin(t)) for t in (phi, phi + math.pi)])
    radial, axial = aimed_pair_coords((0.0, 0.0, z), z, (0.0, 0.0), 0.5 * (ends[0] - ends[1]))
    amplitude = mode_amplitudes(cfg, np.full(2, radial), beam.envelope(np.abs(axial)))
    m1, m2 = cfg.mode_set
    return amplitude, math.pi, half_angle_weights((m2 - m1) * math.pi)


def test_antipodal_columns_orthogonal_for_odd_mode_gap():
    rng = np.random.default_rng(19)
    for _ in range(200):
        m1 = int(rng.integers(-4, 5))
        m2 = int(rng.integers(-4, 5))
        if m1 == m2 or (m1 - m2) % 2 == 0 or m1 == 0 or m2 == 0:
            continue
        cfg = LinkConfig(mode_set=(m1, m2))
        lam = cfg.wavelength
        z = float(rng.uniform(20.0, 150.0))
        rho = float(feasible_ring_radius(lam, abs(cfg.ring_mode), z)) * float(
            rng.uniform(1.05, 3.0)
        )
        beam = BeamSpec(lam, cfg.ring_mode, float(ring_waists(rho, z, lam, abs(cfg.ring_mode))))
        phi = float(rng.uniform(-math.pi, math.pi))
        amplitude, gap, _ = _antipodal_pair(cfg, beam, rho, phi, z)
        # The complex columns h_im = A_im exp(i m phi_i), with phi_1 = 0, phi_2 = gap.
        h = amplitude * np.exp(1j * np.array([0.0, float(gap)])[:, None] * np.array(cfg.mode_set))
        dot = abs(np.vdot(h[:, 0], h[:, 1]))
        norms = np.linalg.norm(h[:, 0]) * np.linalg.norm(h[:, 1])
        assert dot <= 1e-12 * norms


def test_antipodal_columns_parallel_for_even_mode_gap():
    cfg = LinkConfig(mode_set=(1, 3))
    lam = cfg.wavelength
    z = 60.0
    rho = 3.0
    beam = BeamSpec(lam, 1, float(ring_waists(rho, z, lam, 1)))
    amplitude, _, weights = _antipodal_pair(cfg, beam, rho, 0.4, z)
    condition, separable = channel_condition(amplitude, *weights)
    assert not separable
    assert condition > 1e12 or not math.isfinite(condition)


def _aligned_setup():
    """Concyclic quad, station over the circumcenter, both pairs aligned."""
    center = np.array([50.0, 50.0])
    radius = 4.0
    ang = np.radians([-127.5, -52.5, 30.0, 105.0])
    users = center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    sel = CugSelection(
        cug1=(0, 1),
        cug2=(2, 3),
        chord1=float(math.dist(users[0], users[1])),
        chord2=float(math.dist(users[2], users[3])),
        diag1=float(math.dist(users[0], users[2])),
        diag2=float(math.dist(users[1], users[3])),
        angle_square_diff=0.0,
    )
    f = bisector_intersection(users[0], users[1], users[2], users[3])
    return users, sel, np.array([f.x, f.y, 50.0])


def test_aligned_link_matches_closed_form():
    # with both users on the ring at antipodal azimuths the projection SINR
    # (like the ZF SINR) collapses to the two-antenna combined SNR,
    # 2 * P * A * I_m / N per mode
    users, sel, station = _aligned_setup()
    cfg = LinkConfig()
    report = evaluate_link(cfg, station, sel, users)
    lam = cfg.wavelength
    for k, (pair, chord) in enumerate(((sel.cug1, sel.chord1), (sel.cug2, sel.chord2))):
        z = float(transmission_distance(station, 0.5 * (users[pair[0]] + users[pair[1]])))
        envelope = BeamSpec(lam, 1, float(ring_waists(0.5 * chord, z, lam, 1))).envelope(z)
        expect = 0.0
        for mode in cfg.mode_set:
            i_m = lg_intensity(mode, 0.5 * chord, envelope)
            snr = 2.0 * cfg.transmit_power * cfg.effective_aperture * i_m / cfg.noise_power
            expect += math.log2(1.0 + snr)
        assert report.cugs[k].se == pytest.approx(expect, rel=1e-9)
    assert report.se_total == pytest.approx(
        report.cugs[0].se + report.cugs[1].se, rel=1e-12
    )
    assert report.flags == ()


def test_tilted_pair_leaks_mode_amplitude_imbalance():
    # off the bisector both users still project antipodal about the aim
    # axis, but at unequal axial distances, so their mode amplitudes differ
    # and the helical-phase projection leaks each mode into the other
    users, sel, station = _aligned_setup()
    cfg = LinkConfig()
    lam = cfg.wavelength
    m1 = (users[0] + users[1]) / 2.0
    m2 = (users[2] + users[3]) / 2.0
    tilted = station + np.array([3.0, -1.5, 0.0])
    report = evaluate_link(cfg, tilted, sel, users)
    gain2 = cfg.transmit_power * cfg.effective_aperture
    pairs = ((sel.cug1, sel.chord1), (sel.cug2, sel.chord2))
    for k, (pair, chord) in enumerate(pairs):
        z = float(transmission_distance(tilted, (m1, m2)[k]))
        aim = np.array((*(m1, m2)[k], 0.0)) - tilted
        coords = [local_frame(tilted, aim / z, users[i]) for i in pair]
        (radial0, phi0, axial0), (radial1, phi1, axial1) = coords
        assert abs(math.remainder(phi1 - phi0 - math.pi, 2 * math.pi)) < 1e-9
        assert radial1 == pytest.approx(radial0, rel=1e-9)
        assert abs(axial0 - axial1) > 0.1
        beam = BeamSpec(lam, 1, float(ring_waists(0.5 * chord, z, lam, 1)))
        amp = np.empty((2, 2))  # [user, mode]
        for i, (radial, _, axial) in enumerate(coords):
            for m, mode in enumerate(cfg.mode_set):
                i_m = lg_intensity(mode, radial, beam.envelope(abs(axial)))
                amp[i, m] = math.sqrt(gain2 * i_m)
        for m in range(2):
            o = 1 - m
            expect = (amp[0, m] + amp[1, m]) ** 2 / (
                (amp[0, o] - amp[1, o]) ** 2 + 2.0 * cfg.noise_power
            )
            assert report.cugs[k].sinr[m] == pytest.approx(expect, rel=1e-9)
    assert report.flags == ()


def test_aligned_modes_have_equal_sinr_per_mode_pairing():
    users, sel, station = _aligned_setup()
    report = evaluate_link(LinkConfig(), station, sel, users)
    for cug in report.cugs:
        # mode 1 rides its tuned ring; mode 2's ring is wider so it is weaker
        assert cug.sinr[0] > cug.sinr[1] > 0.0


def test_unreachable_ring_zeroes_one_pair():
    users, sel, station = _aligned_setup()
    import dataclasses

    tight = dataclasses.replace(sel, chord1=0.5)
    report = evaluate_link(LinkConfig(), station, tight, users)
    assert report.cugs[0].se == 0.0
    assert report.cugs[0].waist is None
    assert report.cugs[0].flags == (FLAG_WAIST_INFEASIBLE,)
    assert report.cugs[1].se > 0.0
    assert report.flags == (FLAG_WAIST_INFEASIBLE,)
    assert report.se_total == pytest.approx(report.cugs[1].se, rel=1e-12)


def test_even_mode_gap_flags_inseparable_link():
    users, sel, station = _aligned_setup()
    report = evaluate_link(LinkConfig(mode_set=(1, 3)), station, sel, users)
    assert FLAG_MODE_INSEPARABLE in report.flags
    assert report.se_total == 0.0


def test_misaligned_station_never_beats_aligned():
    # hold the selection fixed and push the station off the equidistant
    # point; the evaluated rate must not increase
    users, sel, station = _aligned_setup()
    cfg = LinkConfig()
    base = evaluate_link(cfg, station, sel, users).se_total
    rng = np.random.default_rng(59)
    for delta in (0.5, 1.0, 2.0):
        worst = base
        for _ in range(40):
            step = rng.normal(size=2)
            step *= delta / np.linalg.norm(step)
            moved = station + np.array([step[0], step[1], 0.0])
            worst = min(worst, evaluate_link(cfg, moved, sel, users).se_total)
        assert worst <= base + 1e-9
