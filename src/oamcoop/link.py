"""Two-mode OAM downlink over a cooperative pair.

Each cooperative pair is served by one beam axis carrying two OAM modes;
the two users of the pair act as a distributed two-element receiver and
recover each mode by projecting their samples onto its helical phase.  The
projection is orthogonal only when the pair is aligned (both users at the
same range from the station); off the bisector the users' mode amplitudes
differ and each mode leaks into the other.  The two pairs of a selection
occupy orthogonal resources, so their rates add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import MAX_MODE_ORDER, BeamSpec, mode_intensities, ring_waists
from .geometry import aimed_pair_coords, transmission_distance

C_LIGHT = 299_792_458.0

# Channel matrices with a 2-norm condition number beyond this are treated
# as mode-inseparable rather than separated.
ILL_CONDITION_LIMIT = 1e12

FLAG_WAIST_INFEASIBLE = "waist-infeasible"
FLAG_MODE_INSEPARABLE = "mode-inseparable"


@dataclass(frozen=True)
class LinkConfig:
    """Radio parameters of the downlink.

    ``aperture`` is the effective receive area in m^2; when None it
    defaults to wavelength^2 / (4 pi), the isotropic-element value.
    """

    carrier_frequency: float = 1e9
    transmit_power: float = 1.0
    noise_power: float = 1e-12
    mode_set: tuple[int, int] = (1, 2)
    aperture: float | None = None

    def __post_init__(self):
        if not 0.0 < self.carrier_frequency < math.inf:
            raise ValueError("carrier_frequency must be positive and finite")
        if not 0.0 < self.transmit_power < math.inf:
            raise ValueError("transmit_power must be positive and finite")
        if not 0.0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be positive and finite")
        for m in self.mode_set:
            if not float(m).is_integer():
                raise ValueError(f"mode order {m!r} is not an integer")
        modes = tuple(int(m) for m in self.mode_set)
        if len(modes) != 2 or modes[0] == modes[1]:
            raise ValueError("mode_set must hold exactly two distinct modes")
        if any(abs(m) > MAX_MODE_ORDER for m in modes):
            raise ValueError(
                f"mode orders must satisfy |mode| <= {MAX_MODE_ORDER}"
            )
        object.__setattr__(self, "mode_set", modes)
        if self.aperture is not None and not 0.0 < self.aperture < math.inf:
            raise ValueError("aperture must be positive and finite")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_frequency

    @property
    def effective_aperture(self) -> float:
        if self.aperture is not None:
            return self.aperture
        lam = self.wavelength
        return lam * lam / (4.0 * math.pi)

    @property
    def ring_mode(self) -> int:
        """Mode whose intensity ring the waist is tuned for: lowest nonzero order."""
        nonzero = [m for m in self.mode_set if m != 0]
        nonzero.sort(key=lambda m: (abs(m), m < 0))
        return nonzero[0]


@dataclass(frozen=True)
class CugLinkReport:
    """Link outcome for one cooperative pair."""

    users: tuple[int, int]
    waist: float | None
    sinr: tuple[float, float]
    se_per_mode: tuple[float, float]
    se: float
    condition: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class LinkReport:
    """Link outcome for a full selection; pair rates add across resources."""

    cugs: tuple[CugLinkReport, CugLinkReport]
    se_total: float

    @property
    def flags(self) -> tuple[str, ...]:
        seen = []
        for cug in self.cugs:
            for flag in cug.flags:
                if flag not in seen:
                    seen.append(flag)
        return tuple(seen)


def mode_amplitudes(cfg: LinkConfig, radial, envelope) -> np.ndarray:
    """Mode amplitudes A_im = sqrt(P * A_eff * I_m) of pair users, (..., user, mode).

    ``radial`` (nonnegative) and ``envelope``, the beam radius w at each
    user, are arrays (..., 2).  Columns follow cfg.mode_set and share the
    envelope (mode_intensities); only the azimuthal order differs.  The
    channel is h_im = A_im exp(i m phi_i): the axial phase is dropped, since
    each user's own carrier-phase reference absorbs the propagation phase it
    sees, and with it the small mode-dependent Gouy phase difference between
    two users at different axial distances.
    """
    gain = math.sqrt(cfg.transmit_power * cfg.effective_aperture)
    return gain * np.sqrt(mode_intensities(cfg.mode_set, radial, envelope))


def half_angle_weights(delta):
    """cos^2(delta / 2) and sin^2(delta / 2) of relative channel phases delta."""
    half = 0.5 * np.asarray(delta, dtype=float)
    cos, sin = np.cos(half), np.sin(half)
    return cos * cos, sin * sin


def channel_condition(amplitude, cos2, sin2):
    """2-norm condition numbers of pair channels and whether modes separate.

    A channel is given by its amplitudes A (..., 2, 2) and the half-angle
    weights c = cos^2(delta / 2), s = sin^2(delta / 2) of its relative phase
    delta = arg h_00 - arg h_01 - arg h_10 + arg h_11: scaling h's rows and
    columns by unit phases keeps its singular values and turns it into
    [[A_00, A_01], [A_10, A_11 exp(i delta)]].  Closed form: sigma_max^2 =
    (||H||_F^2 + sqrt(||H||_F^4 - 4 |det H|^2)) / 2 and sigma_max *
    sigma_min = |det H|, with |det H|^2 = (A_00 A_11 - A_01 A_10)^2 c +
    (A_00 A_11 + A_01 A_10)^2 s.
    The discriminant is summed as (p - r)^2 + 4 |q|^2 from the Gram matrix
    [[p, q], [q*, r]], |q|^2 = (A_00 A_01 + A_10 A_11)^2 c +
    (A_00 A_01 - A_10 A_11)^2 s, so a well-conditioned channel keeps full
    precision.  A singular channel gets inf, and so does one whose |det H|
    underflows (condition beyond about 1e150); beyond ILL_CONDITION_LIMIT
    the modes count as inseparable.
    """
    a = np.asarray(amplitude, dtype=float)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    # Scaled by the largest entry, no square under- or overflows.
    scale = np.maximum(np.maximum(a00, a01), np.maximum(a10, a11))
    scale = np.where(scale > 0.0, scale, 1.0)
    a00, a01, a10, a11 = a00 / scale, a01 / scale, a10 / scale, a11 / scale
    p = a00 * a00 + a10 * a10
    r = a01 * a01 + a11 * a11
    diagonal, anti = a00 * a11, a01 * a10
    column0, column1 = a00 * a01, a10 * a11
    q2 = (column0 + column1) ** 2 * cos2 + (column0 - column1) ** 2 * sin2
    top = 0.5 * (p + r + np.sqrt((p - r) ** 2 + 4.0 * q2))
    det = np.sqrt((diagonal - anti) ** 2 * cos2 + (diagonal + anti) ** 2 * sin2)
    condition = np.divide(top, det, out=np.full_like(top, np.inf), where=det > 0.0)
    return condition, condition <= ILL_CONDITION_LIMIT


def projection_sinr(amplitude, cos2, sin2, noise_power: float) -> np.ndarray:
    """Per-mode SINR of the helical-phase projection receiver, shape (..., mode).

    The receiver recovers mode m as w_m^H y, weighting user i's sample by
    exp(-i m phi_i) / sqrt(2), the mode's helical phase at the user's
    beam-frame azimuth.  On a channel h_im = A_im exp(i m phi_i) the own
    power |w_m^H h_m|^2 is (A_1m + A_2m)^2 / 2 and the leak from the other
    mode m' is [(A_1m' + A_2m')^2 c + (A_1m' - A_2m')^2 s] / 2, with c and
    s the half-angle weights of delta = (m' - m)(phi_1 - phi_2): sums of
    nonnegative terms, free of cancellation.  For antipodal users and an
    odd mode gap c = 0, so the leak vanishes exactly when both users see
    equal amplitudes.  ``amplitude`` is (..., user, mode), the weights (...).
    """
    a = np.asarray(amplitude, dtype=float)
    total = a[..., 0, :] + a[..., 1, :]
    imbalance = a[..., 0, :] - a[..., 1, :]
    own = 0.5 * total * total
    # Mode m leaks the other mode's column.
    cos2 = np.asarray(cos2, dtype=float)[..., None]
    sin2 = np.asarray(sin2, dtype=float)[..., None]
    leak = 0.5 * (total[..., ::-1] ** 2 * cos2 + imbalance[..., ::-1] ** 2 * sin2)
    return own / (leak + noise_power)


@dataclass(frozen=True, eq=False)
class LinkBatch:
    """Link outcomes of N stations serving one selection, per station and pair."""

    waist: np.ndarray  # (N, 2); NaN where the pair's ring is out of reach
    sinr: np.ndarray  # (N, 2, 2): station, pair, mode
    condition: np.ndarray  # (N, 2); inf where the pair's ring is out of reach

    @property
    def se_per_mode(self) -> np.ndarray:
        return np.log2(1.0 + self.sinr)

    @property
    def se_total(self) -> np.ndarray:
        """Spectrum efficiency of each station, (N,): pair rates add."""
        se = self.se_per_mode
        return (se[:, 0, 0] + se[:, 0, 1]) + (se[:, 1, 0] + se[:, 1, 1])


def evaluate_placements(cfg: LinkConfig, stations, selection, users) -> LinkBatch:
    """Link outcomes of one station (3,) or N stations (N, 3) serving a selection.

    Each beam is aimed at its pair's chord midpoint, taken from the
    selection, at the station's slant distance to it, so it sees its users
    antipodal: every pair's relative phase is (m2 - m1) pi.  Per pair,
    the waist is re-tuned so the ring-mode ring radius equals half the chord
    at the aim distance, the users' mode amplitudes are taken at their
    beam-frame radius and axial distances (aimed_pair_coords), and each mode
    is recovered by projection onto its helical phase (projection_sinr).  An
    aligned pair gets the zero-forcing rate; off the station's bisector its
    users sit at unequal axial distances and lose rate to mode crosstalk.
    An unreachable ring or an inseparable channel gives the pair zero SINR.
    A station at height zero or below raises ValueError.
    """
    stations = np.asarray(stations, dtype=float).reshape(-1, 1, 3)
    ends = np.asarray(users, dtype=float)[[selection.cug1, selection.cug2]]  # [pair, user, xy]
    midpoints = 0.5 * (ends[:, 0] + ends[:, 1])
    distances = transmission_distance(stations, midpoints)  # [station, pair]
    chords = np.array((selection.chord1, selection.chord2))
    waist = ring_waists(0.5 * chords, distances, cfg.wavelength, cfg.ring_mode)
    radial, axial = aimed_pair_coords(stations, distances, midpoints, 0.5 * (ends[:, 0] - ends[:, 1]))
    # radial is [station, pair] and axial [station, pair, user].  Only the
    # (station, pair) entries whose ring is in reach go on: flat entry e is
    # station e // 2, pair e % 2.
    entry = np.flatnonzero(~np.isnan(waist))
    beam = BeamSpec(cfg.wavelength, cfg.ring_mode, waist.reshape(-1).take(entry)[:, None])
    # w(z) is even in z, so a user behind the waist plane sees the
    # mirrored profile.
    envelope = beam.envelope(np.abs(axial.reshape(-1, 2).take(entry, axis=0)))
    amplitude = mode_amplitudes(cfg, radial.reshape(-1).take(entry)[:, None], envelope)
    m1, m2 = cfg.mode_set
    cos2, sin2 = half_angle_weights((m2 - m1) * math.pi)
    condition, separable = channel_condition(amplitude, cos2, sin2)
    sinr = projection_sinr(amplitude, cos2, sin2, cfg.noise_power)
    out_sinr = np.zeros(waist.shape + (2,))
    out_sinr.reshape(-1, 2)[entry] = np.where(separable[:, None], sinr, 0.0)
    out_condition = np.full(waist.shape, math.inf)
    out_condition.reshape(-1)[entry] = condition
    return LinkBatch(waist=waist, sinr=out_sinr, condition=out_condition)


def evaluate_link(cfg: LinkConfig, station, selection, users) -> LinkReport:
    """evaluate_placements for one station (3,), reported per pair with flags."""
    batch = evaluate_placements(cfg, station, selection, users)
    se_per_mode = batch.se_per_mode[0].tolist()
    reports = []
    for k, pair in enumerate((selection.cug1, selection.cug2)):
        waist = float(batch.waist[0, k])
        condition = float(batch.condition[0, k])
        if math.isnan(waist):
            waist, flags = None, (FLAG_WAIST_INFEASIBLE,)
        else:
            flags = () if condition <= ILL_CONDITION_LIMIT else (FLAG_MODE_INSEPARABLE,)
        reports.append(
            CugLinkReport(
                users=tuple(int(i) for i in pair),
                waist=waist,
                sinr=tuple(batch.sinr[0, k].tolist()),
                se_per_mode=tuple(se_per_mode[k]),
                se=sum(se_per_mode[k]),
                condition=condition,
                flags=flags,
            )
        )
    return LinkReport(cugs=tuple(reports), se_total=sum(r.se for r in reports))
