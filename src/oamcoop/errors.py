"""Exception types shared across the simulator."""


class OamCoopError(Exception):
    """Base class for all simulator errors."""


class NoRingError(OamCoopError, ValueError):
    """A ring-based operation was asked for a beam with no off-axis ring (mode 0)."""


class ModeOrderError(OamCoopError, ValueError):
    """Requested OAM mode order is outside the modeled range."""


class DegenerateChordError(OamCoopError, ValueError):
    """A chord operation received two coincident endpoints."""


class ParallelChordsError(OamCoopError, ValueError):
    """Perpendicular bisectors do not meet in a unique point."""


class InsufficientUsersError(OamCoopError, ValueError):
    """Fewer than four users are available for group selection."""


class OracleSizeError(OamCoopError, ValueError):
    """Instance is too large for the exhaustive selection oracle."""


class InfeasiblePlacementError(OamCoopError, ValueError):
    """A placement violates the chord feasibility bounds at its true distances."""


class InfeasibleScenarioError(OamCoopError, RuntimeError):
    """A scenario yields no usable user selection."""


class ConfigError(OamCoopError, ValueError):
    """A configuration file or value is invalid."""
