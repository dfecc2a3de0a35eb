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

from .beam import MAX_MODE_ORDER, BeamSpec, intensity, mode_intensities, ring_waists
from .geometry import Placement, beam_frame_coords

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
class ZfResult:
    """Zero-forcing outcome: per-mode SINR, condition diagnostic, separability."""

    sinr: tuple[float, float]
    condition: float
    separable: bool


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


def mode_field(spec: BeamSpec, radial, azimuth, axial):
    """Complex mode amplitude sqrt(I) * exp(i * mode * azimuth) at a point.

    The axial phase is omitted.  It is not shared by the users of a
    misaligned pair, which sit at different axial distances; it is dropped
    because each user's own carrier-phase reference absorbs the propagation
    phase it sees.  The small mode-dependent Gouy phase difference between
    two users at different axial distances is neglected with it.
    """
    amp = np.sqrt(intensity(spec, radial, axial))
    return amp * np.exp(1j * spec.mode * np.asarray(azimuth, dtype=float))


def pair_channels(cfg: LinkConfig, beam: BeamSpec, radial, azimuth, axial) -> np.ndarray:
    """Pair channels (..., user, mode): columns follow cfg.mode_set.

    ``radial``, ``azimuth`` and ``axial`` (nonnegative) are the users'
    beam-frame coordinates (..., 2); ``beam.waist`` is one waist or one per
    pair (...).  Columns share the waist and its envelope (mode_intensities);
    only the azimuthal order differs.  Entries equal mode_field's.
    """
    gain = math.sqrt(cfg.transmit_power * cfg.effective_aperture)
    spec = BeamSpec(beam.wavelength, beam.mode, np.asarray(beam.waist, dtype=float)[..., None])
    amp = np.sqrt(mode_intensities(spec, cfg.mode_set, radial, axial))
    phase = np.asarray(azimuth, dtype=float)[..., None] * np.asarray(cfg.mode_set, dtype=float)
    return gain * (amp * np.exp(1j * phase))


def cug_channel(cfg: LinkConfig, beam: BeamSpec, coords, axial_distances) -> np.ndarray:
    """2x2 channel of one pair from its two users' BeamFrameCoords; see pair_channels."""
    radial = [cu.radial for cu in coords]
    azimuth = [cu.azimuth for cu in coords]
    return pair_channels(cfg, beam, radial, azimuth, axial_distances)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def channel_condition(channel):
    """2-norm condition numbers of pair channels (..., 2, 2) and whether modes separate.

    Closed form: sigma_max^2 = (||H||_F^2 + sqrt(||H||_F^4 - 4 |det H|^2)) / 2
    and sigma_max * sigma_min = |det H|.  The discriminant is summed as
    (p - s)^2 + 4 |q|^2 from the Gram matrix [[p, q], [q*, s]], so a
    well-conditioned channel keeps full precision.  A singular channel gets
    inf; beyond ILL_CONDITION_LIMIT the modes count as inseparable.
    """
    h = np.ascontiguousarray(channel, dtype=complex)
    # Scaled by the largest entry, no square under- or overflows; dividing
    # the real parts keeps a subnormal scale from overflowing its reciprocal.
    scale = np.abs(h).max(axis=(-2, -1), keepdims=True)
    h = (h.view(float) / np.where(scale > 0.0, scale, 1.0)).view(complex)
    a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    p = _abs2(a) + _abs2(c)
    s = _abs2(b) + _abs2(d)
    top = 0.5 * (p + s + np.sqrt((p - s) ** 2 + 4.0 * _abs2(a.conj() * b + c.conj() * d)))
    det = np.abs(a * d - b * c)
    condition = np.divide(top, det, out=np.full_like(top, np.inf), where=det > 0.0)
    return condition, condition <= ILL_CONDITION_LIMIT


def zf_sinr(channel, noise_power: float) -> ZfResult:
    """Per-mode zero-forcing SINR, 1 / (noise * [(H^H H)^-1]_mm).

    A channel that channel_condition marks inseparable is reported with
    both SINRs zero instead of being inverted.
    """
    h = np.asarray(channel, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError("expected a 2x2 channel")
    if not noise_power > 0.0:
        raise ValueError("noise_power must be positive")
    condition, separable = channel_condition(h)
    if not separable:
        return ZfResult((0.0, 0.0), float(condition), False)
    gram_inv = np.linalg.inv(h.conj().T @ h)
    sinr = tuple(
        1.0 / (noise_power * float(np.real(gram_inv[m, m]))) for m in range(2)
    )
    return ZfResult(sinr, float(condition), True)


def projection_sinr(channel, azimuths, modes, noise_power: float) -> np.ndarray:
    """Per-mode SINR of the helical-phase projection receiver, shape (..., mode).

    w_m = exp(i m phi_i) / sqrt(2) is mode m's helical phase sampled at
    the users' beam-frame azimuths phi_i; the receiver recovers mode m as
    w_m^H y, weighting user i's sample by exp(-i m phi_i) / sqrt(2).  With
    h_m the channel column of mode m,
    SINR_m = |w_m^H h_m|^2 / (|w_m^H h_other|^2 + noise).  For antipodal
    users and an odd mode gap this is (A_1m + A_2m)^2 /
    ((A_1m' - A_2m')^2 + 2 noise) with A_im = |h_im|, so the leakage
    vanishes exactly when both users see equal amplitudes.  ``channel`` is
    (..., user, mode) and ``azimuths`` (..., user).
    """
    h = np.asarray(channel, dtype=complex)
    phase = np.asarray(azimuths, dtype=float)[..., None] * np.asarray(modes, dtype=float)
    w = (np.exp(1j * phase) / math.sqrt(2.0)).conj()  # conjugate weights [..., user, mode]
    # w_m^H h_t summed over the two users: own takes t = m, leak the other mode.
    own = _abs2(w[..., 0, :] * h[..., 0, :] + w[..., 1, :] * h[..., 1, :])
    leak = _abs2(w[..., 0, :] * h[..., 0, ::-1] + w[..., 1, :] * h[..., 1, ::-1])
    return own / (leak + noise_power)


@dataclass(frozen=True, eq=False)
class LinkBatch:
    """Link outcomes of N placements serving one selection, per placement and pair."""

    waist: np.ndarray  # (N, 2); NaN where the pair's ring is out of reach
    sinr: np.ndarray  # (N, 2, 2): placement, pair, mode
    condition: np.ndarray  # (N, 2); inf where the pair's ring is out of reach

    @property
    def se_per_mode(self) -> np.ndarray:
        return np.log2(1.0 + self.sinr)

    @property
    def se_total(self) -> np.ndarray:
        """Spectrum efficiency of each placement, (N,): pair rates add."""
        se = self.se_per_mode
        return (se[:, 0, 0] + se[:, 0, 1]) + (se[:, 1, 0] + se[:, 1, 1])


def evaluate_placements(cfg: LinkConfig, placement: Placement, selection, users) -> LinkBatch:
    """Link outcomes of one placement or N (see Placement) serving a selection.

    Per pair: re-tune the waist so the ring-mode ring radius equals half the
    chord at the aim distance, build the channel from the users' beam-frame
    coordinates, and recover each mode by projection onto its helical phase
    (projection_sinr).  An aligned pair gets the zero-forcing rate; off the
    station's bisector a pair loses rate to crosstalk between its modes.  An
    unreachable ring or an inseparable channel gives the pair zero SINR.
    """
    pos = np.asarray(users, dtype=float)
    stations = np.asarray(placement.position, dtype=float).reshape(-1, 3)
    axes = np.asarray(placement.axes, dtype=float).reshape(-1, 2, 3)
    distances = np.asarray(placement.distances, dtype=float).reshape(-1, 2)
    chords = np.array((selection.chord1, selection.chord2))
    waist = ring_waists(0.5 * chords, distances, cfg.wavelength, cfg.ring_mode)
    # Only the (placement, pair) entries whose ring is in reach go on.
    n, k = np.nonzero(~np.isnan(waist))
    ends = pos[[selection.cug1, selection.cug2]]  # [pair, user, xy]
    coords = beam_frame_coords(stations[n, None], axes[n, k, None], ends[k])  # fields [entry, user]
    beam = BeamSpec(cfg.wavelength, cfg.ring_mode, waist[n, k])
    # w(z) is even in z, so a user behind the waist plane sees the
    # mirrored profile.
    channel = pair_channels(cfg, beam, coords.radial, coords.azimuth, np.abs(coords.axial))
    condition, separable = channel_condition(channel)
    sinr = projection_sinr(channel, coords.azimuth, cfg.mode_set, cfg.noise_power)
    out_sinr = np.zeros(waist.shape + (2,))
    out_sinr[n, k] = np.where(separable[:, None], sinr, 0.0)
    out_condition = np.full(waist.shape, math.inf)
    out_condition[n, k] = condition
    return LinkBatch(waist=waist, sinr=out_sinr, condition=out_condition)


def evaluate_link(cfg: LinkConfig, placement: Placement, selection, users) -> LinkReport:
    """evaluate_placements for one placement, reported per pair with flags."""
    batch = evaluate_placements(cfg, placement, selection, users)
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
