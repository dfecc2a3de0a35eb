"""Per-layer tracing by wrapping the simulator's public functions.

Each traced function is replaced, for the duration of a traced round, in
every layer module that binds its name: the modules import the names they
use (``sim`` does ``from .link import evaluate_link``), so a call is seen
only if the wrapper sits in the namespace the caller looks it up in.  A
name that is missing from every module is simply never called, and its
metrics read 0.

Spans nest through a stack, so each function's self time is its wall time
minus the wall time of the traced calls it made.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "oamcoop"
LAYERS = ("beam", "geometry", "selection", "link", "sim", "config")

# Trace key -> function names that report under it.
TRACED = {
    "beam.waist_solve": ("waist_solve",),
    "geometry.quad_inner_angles": ("quad_inner_angles",),
    "geometry.bisector_intersection": ("bisector_intersection",),
    "geometry.beam_frame_coords": ("beam_frame_coords",),
    "geometry.aim_at_midpoints": ("aim_at_midpoints",),
    "selection.greedy_select": ("greedy_select",),
    "link.evaluate_link": ("evaluate_link",),
    "link.cug_channel": ("cug_channel",),
    "link.channel_condition": ("channel_condition",),
    "link.projection_sinr": ("projection_sinr",),
    "sim.drop_users": ("drop_users",),
    "sim.place": ("place_acoc", "place_suboptimal", "place_random", "place_cow"),
    "config.load_config": ("load_config",),
}


@dataclass
class Stat:
    """Totals of one trace key over every traced call."""

    calls: int = 0
    total_s: float = 0.0  # inclusive wall time
    self_s: float = 0.0  # wall time outside traced callees
    raised: Counter = field(default_factory=Counter)  # exception type name -> calls
    flags: Counter = field(default_factory=Counter)  # pair flags of returned reports


def _count_pair_flags(stat: Stat, report) -> None:
    for cug in getattr(report, "cugs", ()):
        stat.flags.update(cug.flags)


HOOKS = {"link.evaluate_link": _count_pair_flags}


class Tracer:
    """Collects call counts, inclusive and self time per trace key."""

    def __init__(self):
        self.stats: dict[str, Stat] = {key: Stat() for key in TRACED}
        self.top_level_s = 0.0  # wall time covered by outermost traced calls
        self._stack: list[float] = []

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        hook = HOOKS.get(key)
        stack = self._stack

        def close(t0: float) -> None:
            elapsed = perf_counter() - t0
            child = stack.pop()
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - child
            if stack:
                stack[-1] += elapsed
            else:
                self.top_level_s += elapsed

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(t0)
                stat.raised[type(exc).__name__] += 1
                raise
            close(t0)
            if hook is not None:
                hook(stat, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name in every layer module; restore on exit."""
        patched = []
        try:
            for layer in LAYERS:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{layer}")
                except ImportError:
                    continue
                for key, names in TRACED.items():
                    for name in names:
                        fn = getattr(module, name, None)
                        if callable(fn):
                            setattr(module, name, self._wrap(key, fn))
                            patched.append((module, name, fn))
            yield self
        finally:
            for module, name, fn in reversed(patched):
                setattr(module, name, fn)
