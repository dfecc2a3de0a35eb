"""Ring-beam model on arrays: radius growth, intensity normalization, waist solving."""

import math
import warnings

import numpy as np
import pytest

from oamcoop.beam import (
    MAX_MODE_ORDER,
    BeamSpec,
    feasible_ring_radius,
    mode_intensities,
    optimal_ring_radius,
    ring_waists,
)
from oamcoop.errors import ModeOrderError, NoRingError

LAM = 0.2998


def test_radius_at_focus_equals_waist():
    spec = BeamSpec(LAM, 1, 1.2)
    assert spec.envelope(0.0) == 1.2


def test_rayleigh_range_value():
    spec = BeamSpec(LAM, 1, 1.2)
    assert spec.rayleigh_range == pytest.approx(math.pi * 1.44 / LAM, rel=1e-12)


def test_radius_monotone_in_distance():
    spec = BeamSpec(LAM, 2, 0.9)
    zs = np.linspace(0.0, 400.0, 200)
    ws = spec.envelope(zs)
    assert np.all(np.diff(ws) > 0)


def test_radius_doubles_scale_far_field():
    # w(z) -> w0 * z / z_R for z >> z_R
    spec = BeamSpec(LAM, 1, 0.5)
    z = 1e6
    assert spec.envelope(z) == pytest.approx(0.5 * z / spec.rayleigh_range, rel=1e-6)


def test_intensity_normalization_quadrature():
    # 2*pi*int I(r,z) r dr == 1; values cross-checked against scipy.integrate.quad
    # which reports the same integrals as 1.0 within 1.2e-8 estimated error.
    for lam, mode, w0, z in [(LAM, 1, 1.2, 0.0), (LAM, 2, 0.8, 50.0), (0.1, 5, 0.5, 200.0)]:
        spec = BeamSpec(lam, mode, w0)
        w = float(spec.envelope(z))
        r = np.linspace(0.0, 12.0 * w, 40001)
        total = np.trapezoid(mode_intensities((mode,), r, w)[:, 0] * 2.0 * math.pi * r, r)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_intensity_zero_on_axis_for_ring_modes():
    w = BeamSpec(LAM, 3, 1.0).envelope(10.0)
    assert np.all(mode_intensities((3, -1), np.array(0.0), w) == 0.0)


def test_intensity_broadcasts():
    # radii (3, 1) against envelopes (2,): one profile per pair, modes last
    r = np.array([[0.5], [1.0], [2.0]])
    w = BeamSpec(LAM, 1, 1.0).envelope(np.array([25.0, 60.0]))
    grid = mode_intensities((1, 2), r, w)
    assert grid.shape == (3, 2, 2)
    for i in range(3):
        for j in range(2):
            assert np.array_equal(grid[i, j], mode_intensities((1, 2), r[i, 0], w[j]))


def test_ring_radius_closed_form():
    # sqrt(mode/2) * w(z); frozen value recomputed by hand for this case
    spec = BeamSpec(LAM, 3, 1.2)
    assert optimal_ring_radius(spec, 75.0) == pytest.approx(7.451166031319725, rel=1e-12)


def test_ring_radius_is_the_intensity_peak():
    rng = np.random.default_rng(7)
    for _ in range(200):
        mode = int(rng.integers(1, 7))
        spec = BeamSpec(LAM, mode, float(rng.uniform(0.2, 3.0)))
        z = float(rng.uniform(0.0, 300.0))
        peak = float(optimal_ring_radius(spec, z))
        r = peak * np.array([1.0, 1.0 + 1e-4, 1.0 - 1e-4])
        val = mode_intensities((mode,), r, spec.envelope(z))[:, 0]
        assert val[0] >= val[1] and val[0] >= val[2]


def test_no_ring_for_fundamental_mode():
    with pytest.raises(NoRingError):
        optimal_ring_radius(BeamSpec(LAM, 0, 1.0), 10.0)


def test_ring_radius_rejects_negative_distance():
    with pytest.raises(ValueError):
        optimal_ring_radius(BeamSpec(LAM, 1, 1.0), np.array([10.0, -1.0]))


def test_mode_order_cap():
    with pytest.raises(ModeOrderError):
        BeamSpec(LAM, MAX_MODE_ORDER + 1, 1.0)
    with pytest.raises(ModeOrderError):
        BeamSpec(LAM, -(MAX_MODE_ORDER + 1), 1.0)


def test_negative_mode_matches_positive_intensity():
    r = np.linspace(0.1, 8.0, 50)
    both = mode_intensities((2, -2), r, BeamSpec(LAM, 2, 1.1).envelope(40.0))
    assert np.array_equal(both[:, 0], both[:, 1])


@pytest.mark.parametrize("bad", [0.0, -0.3])
def test_invalid_wavelength_rejected(bad):
    with pytest.raises(ValueError):
        BeamSpec(bad, 1, 1.0)


def test_waist_solve_matches_polynomial_roots():
    # oracle: np.roots([1, -2 r^2/|l|, (z lam/pi)^2]), smaller root, frozen
    cases = [
        (3.0, 50.0, LAM, 1, 1.17001588484242),
        (5.0, 120.0, LAM, 2, 2.73655543050564),
        (2.5, 60.0, 0.1, 3, 1.11849819553129),
    ]
    for r, z, lam, mode, expect in cases:
        got = float(ring_waists(r, z, lam, mode))
        assert got == pytest.approx(expect, rel=1e-12)


def test_waist_solve_picks_smaller_root():
    rng = np.random.default_rng(11)
    for _ in range(300):
        mode = int(rng.integers(1, 7))
        z = float(rng.uniform(5.0, 400.0))
        floor = float(feasible_ring_radius(LAM, mode, z))
        r = floor * float(rng.uniform(1.001, 6.0))
        got = float(ring_waists(r, z, LAM, mode))
        roots = np.roots([1.0, -2.0 * r * r / mode, (z * LAM / math.pi) ** 2])
        assert got**2 == pytest.approx(float(np.min(roots)), rel=1e-9)


def test_waist_roundtrip_recovers_ring():
    rng = np.random.default_rng(23)
    for _ in range(500):
        mode = int(rng.integers(1, 7))
        z = float(rng.uniform(5.0, 400.0))
        r = float(feasible_ring_radius(LAM, mode, z)) * float(rng.uniform(1.0001, 8.0))
        w0 = float(ring_waists(r, z, LAM, mode))
        back = float(optimal_ring_radius(BeamSpec(LAM, mode, w0), z))
        assert back == pytest.approx(r, rel=1e-9)


def test_waist_solve_boundary_double_root():
    # r at the feasibility floor collapses both roots onto r^2/|l|
    mode, z = 2, 120.0
    floor = float(feasible_ring_radius(LAM, mode, z))
    half_sum = floor * floor / mode
    disc = abs(half_sum * half_sum - (z * LAM / math.pi) ** 2)
    assert disc <= 1e-9 * half_sum * half_sum
    w0 = float(ring_waists(floor, z, LAM, mode))
    assert w0**2 == pytest.approx(half_sum, rel=1e-7)


def test_ring_waists_nan_exactly_below_floor():
    rng = np.random.default_rng(31)
    for mode in (1, -2, 5):
        z = rng.uniform(5.0, 400.0, size=200)
        floor = feasible_ring_radius(LAM, mode, z)
        r = floor * rng.uniform(0.5, 1.5, size=200)
        r[:20] = floor[:20]  # on the floor the double root exists
        waist = ring_waists(r, z, LAM, mode)
        assert np.array_equal(np.isnan(waist), r < floor)
        assert np.all(waist[r >= floor] > 0.0)


def test_feasible_ring_radius_formula():
    # sqrt(z lam |l| / pi)
    got = float(feasible_ring_radius(LAM, 4, 90.0))
    assert got == pytest.approx(math.sqrt(90.0 * LAM * 4 / math.pi), rel=1e-12)


def test_waist_solve_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        ring_waists(2.0, 0.0, LAM, 1)
    with pytest.raises(ValueError):
        ring_waists(np.array([2.0, 3.0]), np.array([50.0, -1.0]), LAM, 1)


def test_ring_waists_checks_inputs_before_arithmetic():
    # A bad input raises its own error, not a floating-point warning first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoRingError):
            ring_waists(2.0, 50.0, LAM, 0)
        with pytest.raises(ModeOrderError):
            ring_waists(2.0, 50.0, LAM, MAX_MODE_ORDER + 1)
        for z in (0.0, -10.0):
            with pytest.raises(ValueError):
                ring_waists(2.0, z, LAM, 1)
