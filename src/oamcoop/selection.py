"""Cooperative user-pair selection inside a dense hotspot.

Four users form two cooperative pairs (user groups).  A usable selection
keeps both pair chords between the diffraction floor of the intensity ring
and the cooperation range limit, keeps the cross pairs inside the service
diameter, and shapes the four users into a quadrilateral as close to a
rectangle as possible so one station position can align with both chords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .beam import feasible_ring_radius
from .errors import InsufficientUsersError, OracleSizeError
from .geometry import (
    angle_square_difference,
    bisector_intersection,
    quad_angles,
    transmission_distance,
)

# Exhaustive search is an oracle for tests, not a production path.
MAX_ORACLE_USERS = 30


@dataclass(frozen=True)
class SelectionConfig:
    """Constraint bounds used while screening candidate selections.

    ``min_height`` is the lowest allowed station altitude; candidate chords
    are screened against the ring floor at a planning distance computed
    from it before any station position exists.
    """

    max_pair_distance: float = 10.0
    service_radius: float = 250.0
    stop_threshold: float = 1e-6
    min_height: float = 50.0

    def __post_init__(self):
        if not self.max_pair_distance > 0.0:
            raise ValueError("max_pair_distance must be positive")
        if not self.service_radius > 0.0:
            raise ValueError("service_radius must be positive")
        if not 0.0 < self.stop_threshold < math.inf:
            raise ValueError("stop_threshold must be positive and finite")
        if not self.min_height > 0.0:
            raise ValueError("min_height must be positive")


@dataclass(frozen=True)
class CugSelection:
    """Two cooperative pairs in cycle order u1 -> u2 -> u3 -> u4.

    ``cug1`` and ``cug2`` hold user indices; chords are the in-pair
    distances, diagonals the cross-pair distances (u1,u3) and (u2,u4).
    ``angle_square_diff`` is the squared right-angle deviation of the
    quadrilateral.
    """

    cug1: tuple[int, int]
    cug2: tuple[int, int]
    chord1: float
    chord2: float
    diag1: float
    diag2: float
    angle_square_diff: float

    def indices(self) -> tuple[int, int, int, int]:
        return self.cug1 + self.cug2


def planning_distance(min_height: float, chord):
    """Transmission-distance estimate before a station position exists.

    The station can come no closer to a chord midpoint than its minimum
    height; the chord half-length adds the in-plane reach.
    """
    return np.sqrt(min_height * min_height + 0.25 * chord * chord)


def chord_floor(distance, wavelength: float, mode: int):
    """Smallest usable chord at a transmission distance: the ring diameter floor."""
    return 2.0 * feasible_ring_radius(wavelength, mode, distance)


# The constraint screen's bounds, in the order a candidate is screened.
BOUND_REASONS = (
    "diagonal exceeds service diameter",
    "cug1 chord exceeds max pair distance",
    "cug1 chord below feasible ring diameter",
    "cug2 chord exceeds max pair distance",
    "cug2 chord below feasible ring diameter",
)


def bound_excess(chord1, chord2, diag1, diag2, cfg: SelectionConfig, wavelength: float, mode: int):
    """How far candidates overshoot each bound, (..., 5) in BOUND_REASONS order.

    Bounds are inclusive: only a positive excess breaks one.  Chord floors
    are taken at the planning distance.
    """
    floors = chord_floor(
        planning_distance(cfg.min_height, np.stack((chord1, chord2))), wavelength, mode
    )
    return np.stack(
        (
            np.maximum(diag1, diag2) - 2.0 * cfg.service_radius,
            chord1 - cfg.max_pair_distance,
            floors[0] - chord1,
            chord2 - cfg.max_pair_distance,
            floors[1] - chord2,
        ),
        axis=-1,
    )


def _cycle_lengths(quads):
    """Chords (u1,u2), (u3,u4) and diagonals (u1,u3), (u2,u4) of cycles (..., 4, 2)."""
    d = quads[..., [1, 3, 2, 3], :] - quads[..., [0, 2, 0, 1], :]
    return np.moveaxis(np.hypot(d[..., 0], d[..., 1]), -1, 0)


def _selection(pos, cycle, psi) -> CugSelection:
    """The CugSelection of one cycle, its lengths from math.hypot."""
    i1, i2, i3, i4 = (int(i) for i in cycle)

    def dist(a, b):
        return math.hypot(pos[a, 0] - pos[b, 0], pos[a, 1] - pos[b, 1])

    return CugSelection(
        (i1, i2), (i3, i4), dist(i1, i2), dist(i3, i4), dist(i1, i3), dist(i2, i4), float(psi)
    )


def aligned_floors(quads, height: float, wavelength: float, mode: int):
    """Aligned station (..., 3) of cycles (u1, u2, u3, u4) and each pair's ring floor there.

    The station is at ``height`` above the intersection of the chord
    bisectors; the floors (..., 2) are taken at its true distances to the
    chord midpoints.  One cycle (4, 2) raises as bisector_intersection does;
    a batch gets NaN where the bisectors do not meet.
    """
    q = np.asarray(quads, dtype=float)
    fx, fy = bisector_intersection(*np.moveaxis(q, -2, 0))
    station = np.stack(np.broadcast_arrays(fx, fy, height), axis=-1)
    midpoints = 0.5 * (q[..., 0::2, :] + q[..., 1::2, :])
    distances = transmission_distance(station[..., None, :], midpoints)
    return station, chord_floor(distances, wavelength, mode)


# Mean users per cell of the anchor walk's grid.
CELL_OCCUPANCY = 2.0
# Users in a crowded cell.  A user gets no nearest-user list when a row
# of its block holds 3 * CROWDED_CELL users or more.
CROWDED_CELL = 4 * CELL_OCCUPANCY
# Margin, in cell sides, on a user's distance to its cell's edges: far
# above cell-assignment rounding.
EDGE_MARGIN = 1e-6


def _cell_grid(pos):
    """(order, starts, cell, edge, h, nx): the walk's cell grid of the users ``pos``.

    The cell side h gives about CELL_OCCUPANCY users per cell of their
    bounding box; users on one line or at one point still get h > 0 and
    O(U) cells.  Rows of nx cells, padded with one empty cell on each side,
    so a 3x3 block never leaves the grid.  ``order`` holds the users
    sorted by cell, those of cell c at order[starts[c]:starts[c + 1]];
    cell[n] is the cell of user order[n], and edge[n] its distance in cell
    sides to that cell's nearest edge, less EDGE_MARGIN.  No other code
    maps a position to a cell.
    """
    lo = pos.min(axis=0)
    sx, sy = (pos.max(axis=0) - lo).tolist()
    u = len(pos)
    h = max(math.sqrt(sx * sy * CELL_OCCUPANCY / u), max(sx, sy) * CELL_OCCUPANCY / u) or 1.0
    t = (pos - lo) / h
    c = t.astype(np.intp)
    edge = np.minimum(t - c, 1.0 + c - t).min(axis=1) - EDGE_MARGIN
    nx, ny = (c.max(axis=0) + 3).tolist()
    cell = (c[:, 1] + 1) * nx + c[:, 0] + 1
    rank = np.argsort(cell, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=nx * ny))))
    return rank, starts, cell[rank], edge[rank], h, nx


def _squared_distances(px, py, x, y, out=None, dy_out=None):
    """(px - x)**2 + (py - y)**2, into ``out`` and ``dy_out`` if given: the squares every ranking uses."""
    d2 = np.subtract(px, x, out=out)
    d2 *= d2
    dy = np.subtract(py, y, out=dy_out)
    dy *= dy
    d2 += dy
    return d2


# Length of each user's nearest-user list, and users per step of its
# build; the steps take the users in order of block size.
NEAREST_USERS = 8
NEAREST_BATCH = 256


def _nearest_lists(pos, grid):
    """Each user's NEAREST_USERS nearest users, and the squared radius below which they are complete.

    ``grid`` is _cell_grid over all users.  Row i of ``near`` (U,
    NEAREST_USERS) int32 ranks the users of the 3x3 cell block around user
    i by squared distance, padded with i itself.  Users outside the block
    lie farther than (1 + edge) cell sides, and block users left off the
    list at or beyond its (NEAREST_USERS + 1)-th entry; ``radius2`` (U,) is
    the smaller of the two squares.  A user gets no list, radius2 -1, when
    a row of its block holds 3 * CROWDED_CELL users or more, which keeps
    the build O(U), or when its first NEAREST_USERS + 1 entries are not
    strictly increasing (ties, which the user index would have to break).
    Users are ranked NEAREST_BATCH at a time, smallest blocks first, each
    row padded with sentinels at infinity to its step's largest block.
    """
    order, starts, cid, edge, h, nx = grid
    u = len(pos)
    k = NEAREST_USERS
    bound2 = ((1.0 + edge) * h) ** 2
    # Cell-order coordinates, then enough sentinels to pad any row.
    pad = np.full(k + 1 + int(9 * CROWDED_CELL), np.inf)
    xs, ys = (np.concatenate((pos[order, c], pad)) for c in (0, 1))
    near = np.repeat(np.arange(u, dtype=np.int32), k).reshape(u, k)
    radius2 = np.full(u, -1.0)
    # The users i and their candidates j are positions in cell order.  The
    # three cells of a block row are consecutive in cell order, so their
    # users are one run; a fourth run, of sentinels, pads the row.
    starts = starts.astype(np.int32)
    first = starts[cid[:, None] + (-nx - 1, -1, nx - 1, 0)]
    run = starts[cid[:, None] + (-nx + 2, 2, nx + 2, 0)] - first
    live = np.flatnonzero(run.max(axis=1) < 3 * CROWDED_CELL)
    size = run.sum(axis=1, dtype=np.int32)
    live = live[np.argsort(size[live], kind="stable")]
    # A row's slot t is candidate t + shift of the run that holds it; the
    # padding, from slot size on, is the sentinels u, u + 1, ...
    first[:, 3] = u
    shift = first + run - run.cumsum(axis=1, dtype=np.int32)
    for lo in range(0, len(live), NEAREST_BATCH):
        i = live[lo : lo + NEAREST_BATCH]
        # At least k + 1 slots, as many as the step's largest block.
        n, w = len(i), max(int(size[i[-1]]), k + 1)
        # Row r's slot t is flat slot r * w + t.
        flat, count = shift[i] - np.arange(0, n * w, w, dtype=np.int32)[:, None], run[i]
        count[:, 3] = w - size[i]
        j = (np.repeat(flat.ravel(), count.ravel()) + np.arange(n * w, dtype=np.int32)).reshape(n, w)
        users = order[i]
        gx, gy = xs[j], ys[j]
        d2 = _squared_distances(gx, gy, xs[i, None], ys[i, None], out=gx, dy_out=gy)
        np.put(d2, i - flat[:, 1], np.inf)  # each user itself
        top = np.argsort(d2, axis=1)[:, : k + 1]
        s = np.take_along_axis(d2, top, axis=1)
        ranked = np.all((s[:, 1:] > s[:, :-1]) | (s[:, 1:] == np.inf), axis=1)
        listed = order.take(np.take_along_axis(j, top[:, :k], axis=1), mode="clip")
        near[users] = np.where(s[:, :k] < np.inf, listed, users[:, None])
        radius2[users] = np.where(ranked, np.minimum(bound2[i], s[:, k]), -1.0)
    return near, radius2


def anchor_walk(positions, start: int) -> np.ndarray:
    """The greedy walk's anchor path, shape (U - 2,).

    Round r retires its anchor path[r]; the anchor's nearest active user,
    ranked by (squared distance, user index), is its n1 path[r + 1] and
    anchors the next round, until three users are left.  The round takes
    n1 from the anchor's list of nearest users (_nearest_lists, built once)
    when its first active entry lies below the list's certified radius: no
    unlisted user lies nearer.  Otherwise, and for users without a list,
    the round scans the active users in index order, so the first minimum
    has the lowest index.  complete_rounds finds each round's other pair.
    """
    pos = np.asarray(positions, dtype=float)
    near_users, radius2 = _nearest_lists(pos, _cell_grid(pos))
    xs, ys = pos.T.tolist()
    lists = memoryview(near_users.ravel())
    radius2 = memoryview(radius2)
    retired = bytearray(len(pos))
    # The scan's users ids, in index order, and coordinates px, py, where a
    # retired user's px is inf; slot maps a user to its place in ids.
    ids = np.arange(len(pos))
    px, py = pos.T.copy()
    slot = np.arange(len(pos))
    scan_x, scan_y = np.empty_like(px), np.empty_like(py)
    px_at, slot_at = memoryview(px), memoryview(slot)
    path = np.empty(len(pos) - 2, dtype=np.intp)
    anchors = memoryview(path)
    anchor = start
    for r in range(len(pos) - 3):
        anchors[r] = anchor
        ax, ay = xs[anchor], ys[anchor]
        retired[anchor] = 1
        px_at[slot_at[anchor]] = math.inf
        n1 = -1
        for j in lists[anchor * NEAREST_USERS : (anchor + 1) * NEAREST_USERS]:
            if not retired[j]:
                dx = xs[j] - ax
                dy = ys[j] - ay
                if dx * dx + dy * dy < radius2[anchor]:
                    n1 = j
                break
        if n1 < 0:
            # Compact the scan once fewer than half of its slots are live:
            # len(pos) - r - 1 users are active after this round's anchor.
            if 2 * (len(pos) - r - 1) < len(ids):
                keep = px < math.inf
                ids, px, py = ids[keep], px[keep], py[keep]
                slot[ids] = np.arange(len(ids))
                px_at = memoryview(px)
            d2 = _squared_distances(px, py, ax, ay, scan_x[: len(ids)], scan_y[: len(ids)])
            n1 = int(ids[d2.argmin()])
        anchor = n1
    anchors[-1] = anchor
    return path


# Rounds per step of complete_rounds' candidate scan.
SCAN_ROUNDS = 8


def complete_rounds(positions, path, first_chord) -> np.ndarray:
    """The complete rounds (anchor, n1, n2, n3) of an anchor path, shape (R, 4).

    Round r of ``path`` (anchor_walk) is complete when its first chord
    |anchor - n1|, computed as _cycle_lengths computes it, lies in the
    inclusive interval ``first_chord``.  Its n2 and n3 are the two nearest
    users that retire after n1, ranked by (squared distance, user index):
    the anchor's second and third nearest active users.  One numpy scan
    finds them SCAN_ROUNDS rounds at a time.  Rounds keep path order.
    """
    xs, ys = np.asarray(positions, dtype=float).T.copy()
    chord = np.hypot(xs[path[1:]] - xs[path[:-1]], ys[path[1:]] - ys[path[:-1]])
    kept = np.flatnonzero((first_chord[0] <= chord) & (chord <= first_chord[1]))
    # Round r retires path[r]; the two users never on the path retire last.
    retire = np.full(len(xs), len(path))
    retire[path] = np.arange(len(path))
    rounds = np.empty((len(kept), 4), dtype=np.intp)
    rounds[:, :2] = path[kept[:, None] + (0, 1)]
    for s in range(0, len(kept), SCAN_ROUNDS):
        step = rounds[s : s + SCAN_ROUNDS]
        # Round r's n1 retires in round r + 1.
        after = kept[s : s + SCAN_ROUNDS, None] + 1
        live = np.flatnonzero(retire > after[0, 0])
        d2 = _squared_distances(xs[live], ys[live], xs[step[:, :1]], ys[step[:, :1]])
        d2[retire[live] <= after] = math.inf
        for c in (2, 3):
            k = d2.argmin(axis=1)
            step[:, c] = live[k]
            d2[np.arange(len(step)), k] = math.inf
    return rounds


def _screen(quads, psi, cfg: SelectionConfig, wavelength: float, mode: int):
    """Which candidate cycles (N, 4, 2), of deviations psi (N,), are feasible.

    A feasible candidate is simple (finite psi), passes the constraint
    bounds at the planning distance, and keeps both chords at or above
    their ring floors at the true distances of its aligned station.
    """
    chord1, chord2, diag1, diag2 = _cycle_lengths(quads)
    excess = bound_excess(chord1, chord2, diag1, diag2, cfg, wavelength, mode)
    ok = ~np.isnan(psi) & np.all(excess <= 0.0, axis=-1)
    _, floors = aligned_floors(quads[ok], cfg.min_height, wavelength, mode)
    ok[ok] = (chord1[ok] >= floors[:, 0]) & (chord2[ok] >= floors[:, 1])
    return ok


def _score_rounds(pos, rounds, cfg: SelectionConfig, wavelength: float, mode: int):
    """Squared right-angle deviation of each complete round's candidate, inf where infeasible.

    Rewrites each round (anchor, n1, n2, n3) in place as its candidate cycle:
    the second pair in nearest-rank order, reversed only if that is not simple.
    Feasibility is the candidate screen (_screen).
    """
    angles, defect = quad_angles(pos[rounds])
    flip = np.flatnonzero(defect)
    rounds[flip] = rounds[flip][:, [0, 1, 3, 2]]
    angles[flip] = quad_angles(pos[rounds[flip]])[0]
    psi = angle_square_difference(angles)
    return np.where(_screen(pos[rounds], psi, cfg, wavelength, mode), psi, np.inf)


def greedy_select(users, cfg: SelectionConfig, wavelength: float, mode: int, center):
    """Boundary-first iterative selection; returns the best CugSelection or None.

    The walk (anchor_walk) starts at the user farthest from ``center``
    (the hotspot center); each of its U - 3 rounds pairs the anchor with
    its nearest neighbor n1.  Only a round whose first chord lies between
    the ring floor at the minimum height and the pair distance ceiling is
    completed with the second/third nearest users as the other pair
    (complete_rounds).  The screen takes that chord's floor at the planning
    distance, which is at least the minimum height, and floors grow with
    distance, so no feasible round is left out.  The complete rounds are
    scored in one vectorised pass (_score_rounds).  The result is the first
    feasible round whose deviation reaches the stop threshold, else the
    first of least deviation: the incumbent of a walk that keeps strict
    improvements and stops at the threshold.
    """
    pos = np.asarray(users, dtype=float)
    if len(pos) < 4:
        raise InsufficientUsersError("insufficient users: need at least 4")
    cx, cy = float(center[0]), float(center[1])
    from_center = (pos[:, 0] - cx) ** 2 + (pos[:, 1] - cy) ** 2
    start = int(np.argmax(from_center))  # first maximum: lowest index
    first_chord = (float(chord_floor(cfg.min_height, wavelength, mode)), cfg.max_pair_distance)
    rounds = complete_rounds(pos, anchor_walk(pos, start), first_chord)
    if not len(rounds):
        return None
    psi = _score_rounds(pos, rounds, cfg, wavelength, mode)
    reached = np.flatnonzero(psi <= cfg.stop_threshold)
    w = int(reached[0]) if reached.size else int(np.argmin(psi))
    return _selection(pos, rounds[w], psi[w]) if psi[w] < math.inf else None


def _canonical_cycle(cycle):
    """Lowest-index representative among the traversals preserving the pairing."""
    a, b, c, d = cycle
    return min((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a))


def exhaustive_select(users, cfg: SelectionConfig, wavelength: float, mode: int):
    """Globally best selection by brute force; oracle for small instances.

    Enumerates every 4-subset, the three distinct vertex cycles on it, and
    both opposite-side pairings of each cycle, and screens every candidate
    as the greedy pass does (_screen: simplicity, the constraint bounds and
    the chord floors at the aligned station).  Returns the feasible
    candidate with the smallest squared right-angle deviation (ties to the
    lowest index cycle), or None.  Instances above MAX_ORACLE_USERS users
    are refused.
    """
    pos = np.asarray(users, dtype=float)
    n = len(pos)
    if n < 4:
        raise InsufficientUsersError("insufficient users: need at least 4")
    if n > MAX_ORACLE_USERS:
        raise OracleSizeError(
            f"instance too large for oracle: {n} users > {MAX_ORACLE_USERS}"
        )
    subsets = np.array(list(combinations(range(n), 4)))
    cycles = subsets[:, [[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3]]].reshape(-1, 4)
    psi = angle_square_difference(quad_angles(pos[cycles])[0])
    best = None
    for pairing in (cycles, np.roll(cycles, -1, axis=1)):
        for r in np.flatnonzero(_screen(pos[pairing], psi, cfg, wavelength, mode)):
            cycle = _canonical_cycle(tuple(int(i) for i in pairing[r]))
            if best is None or (psi[r], cycle) < (best.angle_square_diff, best.indices()):
                best = _selection(pos, cycle, psi[r])
    return best
