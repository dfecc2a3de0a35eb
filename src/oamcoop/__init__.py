"""Cooperative OAM downlink simulator.

A flying base station serves hotspot users with vortex (orbital angular
momentum) beams.  The library models the beam's intensity ring, solves the
waist that pins the ring on a user pair, places the station so both pairs
of a cooperative selection are aligned, and runs Monte Carlo experiments
comparing placement schemes by spectrum efficiency.
"""

__version__ = "0.1.0"

from .beam import (
    BeamSpec,
    feasible_ring_radius,
    mode_intensities,
    optimal_ring_radius,
    ring_waists,
)
from .geometry import (
    GroundPoint,
    Placement,
    aim_at_midpoints,
    angle_square_difference,
    bisector_intersection,
    transmission_distance,
)
from .link import (
    CugLinkReport,
    LinkBatch,
    LinkConfig,
    LinkReport,
    evaluate_link,
    evaluate_placements,
    projection_sinr,
)
from .selection import (
    CugSelection,
    SelectionConfig,
    exhaustive_select,
    greedy_select,
)
from .sim import (
    SCHEMES,
    HeatmapResult,
    ScenarioConfig,
    SchemeSummary,
    TrialResult,
    UserDrop,
    drop_users,
    place_acoc,
    run_experiment,
    run_trial,
    scheme_station,
    se_heatmap,
    select_users,
    summarize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
