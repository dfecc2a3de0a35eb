"""Monte Carlo experiments comparing station placement schemes.

Each trial drops users uniformly over a square hotspot, runs the greedy
pair selection once, and evaluates every requested placement scheme on
that same drop and selection, so per-trial comparisons are paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasiblePlacementError, InfeasibleScenarioError
from .geometry import Placement, aim_at_midpoints
from .link import LinkConfig, LinkReport, evaluate_link, evaluate_placements
from .selection import CugSelection, SelectionConfig, aligned_floors, greedy_select

SCHEME_ACOC = "acoc"
SCHEME_SUBOPTIMAL = "suboptimal"
SCHEME_RANDOM = "random"
SCHEME_COW = "cow"
SCHEMES = (SCHEME_ACOC, SCHEME_SUBOPTIMAL, SCHEME_RANDOM, SCHEME_COW)

FLAG_NO_SELECTION = "no-selection"

# Independent substreams of a trial's randomness.
_STREAM_DROP = 0
_STREAM_RANDOM_PLACEMENT = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment setup; all distances in meters."""

    hotspot_side: float = 100.0
    user_count: int = 4000
    fbs_height: float = 50.0
    trials: int = 200
    master_seed: int = 1
    link: LinkConfig = field(default_factory=LinkConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    ground_bs_position: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.hotspot_side < math.inf:
            raise ValueError("hotspot_side must be positive and finite")
        if self.user_count < 4:
            raise ValueError("user_count must be at least 4 (two user pairs)")
        if not 0.0 < self.fbs_height < math.inf:
            raise ValueError("fbs_height must be positive and finite")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.ground_bs_position is not None:
            x, y, z = self.ground_bs_position
            if not all(map(math.isfinite, (x, y, z))):
                raise ValueError("ground BS position must be finite")
            if not z > 0.0:
                raise ValueError("ground BS height must be positive")
            object.__setattr__(
                self, "ground_bs_position", (float(x), float(y), float(z))
            )
        # Candidates are screened for the height the station will fly at.
        object.__setattr__(self, "selection", replace(self.selection, min_height=self.fbs_height))

    @property
    def hotspot_center(self) -> tuple[float, float]:
        return (0.5 * self.hotspot_side, 0.5 * self.hotspot_side)

    def resolved_ground_bs(self) -> tuple[float, float, float]:
        """Fixed-station position: hotspot center at flight height unless overridden."""
        if self.ground_bs_position is not None:
            return self.ground_bs_position
        cx, cy = self.hotspot_center
        return (cx, cy, self.fbs_height)


@dataclass(frozen=True, eq=False)
class UserDrop:
    """One realization of user positions inside the hotspot square."""

    positions: np.ndarray  # shape (U, 2)


@dataclass(frozen=True, eq=False)
class TrialResult:
    """Outcome of one scheme on one trial."""

    trial_index: int
    scheme: str
    selection: CugSelection | None
    placement: Placement | None
    link_report: LinkReport | None
    se_total: float
    flags: tuple[str, ...]


def stream_seed(master_seed: int, trial_index: int, stream: int = 0) -> int:
    """Stable 64-bit seed for one substream of one trial."""
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), int(stream)])
    return int(seq.generate_state(1, np.uint64)[0])


def drop_users(cfg: ScenarioConfig, trial_index: int) -> UserDrop:
    """Sample user_count positions i.i.d. uniformly over the hotspot square."""
    seed = stream_seed(cfg.master_seed, trial_index, _STREAM_DROP)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, cfg.hotspot_side, size=(cfg.user_count, 2))
    return UserDrop(positions=positions)


def select_users(cfg: ScenarioConfig, drop: UserDrop) -> CugSelection | None:
    """Greedy pair selection for a drop, anchored on the hotspot boundary."""
    return greedy_select(
        drop.positions,
        cfg.selection,
        cfg.link.wavelength,
        cfg.link.ring_mode,
        center=cfg.hotspot_center,
    )


def place_acoc(
    positions, selection: CugSelection, height: float, wavelength: float, mode: int
) -> np.ndarray:
    """Aligned station (x, y, height): above the intersection of both chord bisectors.

    The position is equidistant from the two users of each pair, so both
    beams are aligned.  The chord floors are re-verified at the true
    transmission distances; a violation raises InfeasiblePlacementError.
    """
    pos = np.asarray(positions, dtype=float)
    station, floors = aligned_floors(pos[list(selection.indices())], height, wavelength, mode)
    chords = (selection.chord1, selection.chord2)
    for k in range(2):
        if chords[k] < floors[k]:
            raise InfeasiblePlacementError(
                f"cug{k + 1} chord {chords[k]:.6g} m is below the ring floor "
                f"{floors[k]:.6g} m at its true transmission distance"
            )
    return station


def scheme_station(cfg: ScenarioConfig, positions, selection: CugSelection, trial_index: int, scheme: str):
    """Station position (x, y, z) of one placement scheme for a trial's selection.

    acoc: place_acoc's aligned station (it raises InfeasiblePlacementError for
    a chord below its ring floor there); suboptimal: above the first chord's
    midpoint; random: above a uniform point of the hotspot square, from the
    trial's own substream; cow: the fixed ground station (cell on wheels).
    """
    if scheme == SCHEME_ACOC:
        return place_acoc(
            positions, selection, cfg.fbs_height, cfg.link.wavelength, cfg.link.ring_mode
        )
    if scheme == SCHEME_SUBOPTIMAL:
        p, q = positions[list(selection.cug1)]
        x, y = 0.5 * (p + q)
        return (x, y, cfg.fbs_height)
    if scheme == SCHEME_RANDOM:
        seed = stream_seed(cfg.master_seed, trial_index, _STREAM_RANDOM_PLACEMENT)
        x, y = np.random.default_rng(seed).uniform(0.0, cfg.hotspot_side, size=2)
        return (x, y, cfg.fbs_height)
    return cfg.resolved_ground_bs()


def run_trial(cfg: ScenarioConfig, trial_index: int, schemes=SCHEMES) -> list[TrialResult]:
    """Drop, select once, then evaluate every scheme on the shared selection."""
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    drop = drop_users(cfg, trial_index)
    selection = select_users(cfg, drop)
    if selection is None:
        return [
            TrialResult(trial_index, scheme, None, None, None, 0.0, (FLAG_NO_SELECTION,))
            for scheme in schemes
        ]
    pos = drop.positions
    ends = pos[[selection.cug1, selection.cug2]]  # [pair, user, xy]
    m1, m2 = 0.5 * (ends[:, 0] + ends[:, 1])
    results = []
    for scheme in schemes:
        station = scheme_station(cfg, pos, selection, trial_index, scheme)
        placement = aim_at_midpoints(station, m1, m2)
        report = evaluate_link(cfg.link, placement, selection, pos)
        results.append(
            TrialResult(trial_index, scheme, selection, placement, report, report.se_total, report.flags)
        )
    return results


def run_experiment(cfg: ScenarioConfig, schemes=SCHEMES) -> list[TrialResult]:
    """All trials of a scenario, ordered by (trial, scheme)."""
    results = []
    for t in range(cfg.trials):
        results.extend(run_trial(cfg, t, schemes))
    return results


@dataclass(frozen=True)
class SchemeSummary:
    """Aggregate over the trials of one scheme."""

    scheme: str
    trials: int
    mean_se: float
    ci95_half_width: float
    flag_rate: float


def summarize(results) -> dict[str, SchemeSummary]:
    """Per-scheme mean spectrum efficiency with a normal 95% interval."""
    buckets: dict[str, list[TrialResult]] = {}
    for r in results:
        buckets.setdefault(r.scheme, []).append(r)
    summaries = {}
    for scheme, rows in buckets.items():
        se = np.array([r.se_total for r in rows], dtype=float)
        n = len(se)
        half = 1.96 * float(np.std(se, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        flagged = sum(1 for r in rows if r.flags)
        summaries[scheme] = SchemeSummary(
            scheme=scheme,
            trials=n,
            mean_se=float(np.mean(se)),
            ci95_half_width=half,
            flag_rate=flagged / n,
        )
    return summaries


# Grid stations scored per evaluate_placements call: it bounds the link
# temporaries.  One se_heatmap of a 101x101 grid peaks at 1.5 MB of Python
# allocations (tracemalloc) in blocks of 2048 and at 4.7 MB in one block.
PLACEMENT_BATCH = 2048


@dataclass(frozen=True, eq=False)
class HeatmapResult:
    """Spectrum efficiency over a grid of candidate positions at flight height."""

    xs: np.ndarray  # shape (G,)
    ys: np.ndarray  # shape (G,)
    se: np.ndarray  # shape (G, G), se[j, i] at (xs[i], ys[j])
    optimum: tuple[float, float]
    se_at_optimum: float
    selection: CugSelection
    drop: UserDrop


def se_heatmap(cfg: ScenarioConfig, grid_size: int) -> HeatmapResult:
    """Evaluate one drop's selection from every point of a position grid.

    Uses trial 0's drop and selection; raises InfeasibleScenarioError when
    the drop yields no selection.  The acoc station of scheme_station,
    reported as the closed-form optimum marker, is scored as one more
    station after the grid.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    drop = drop_users(cfg, 0)
    selection = select_users(cfg, drop)
    if selection is None:
        raise InfeasibleScenarioError(
            "scenario yields no usable selection on trial 0"
        )
    pos = drop.positions
    ends = pos[[selection.cug1, selection.cug2]]  # [pair, user, xy]
    m1, m2 = 0.5 * (ends[:, 0] + ends[:, 1])
    station = scheme_station(cfg, pos, selection, 0, SCHEME_ACOC)
    xs = np.linspace(0.0, cfg.hotspot_side, grid_size)
    ys = np.linspace(0.0, cfg.hotspot_side, grid_size)
    # Row-major, as se is laid out: station j * G + i is (xs[i], ys[j]); the
    # marker's station comes last.
    heights = np.full(grid_size * grid_size, cfg.fbs_height)
    grid = np.column_stack((np.tile(xs, grid_size), np.repeat(ys, grid_size), heights))
    stations = np.vstack((grid, station))
    se = np.empty(len(stations))
    for s in range(0, len(stations), PLACEMENT_BATCH):
        placement = aim_at_midpoints(stations[s : s + PLACEMENT_BATCH], m1, m2)
        se[s : s + PLACEMENT_BATCH] = evaluate_placements(cfg.link, placement, selection, pos).se_total
    return HeatmapResult(
        xs=xs,
        ys=ys,
        se=se[:-1].reshape(grid_size, grid_size),
        optimum=(float(station[0]), float(station[1])),
        se_at_optimum=float(se[-1]),
        selection=selection,
        drop=drop,
    )
