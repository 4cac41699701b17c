"""Seeded RRT over the inflated free space, with shortcut and resampling.

The tree grows by nearest-node extension toward uniform samples of the
workspace rectangle (goal-biased), with segment collision checks against the
inflated obstacles. The returned path is optionally shortcut and then
resampled to even spacing so the downstream spline fit sees a clean prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PlanTimeout, StartOrGoalInCollision
from .geometry import Workspace, point_free, segment_free


@dataclass(frozen=True)
class RrtParams:
    step_size: float | None = None   # default: workspace diagonal / 50
    goal_bias: float = 0.1
    max_iters: int = 20000
    goal_radius: float | None = None  # default: step_size
    seed: int = 0
    shortcut: bool = True

    def __post_init__(self):
        for name in ("step_size", "goal_radius"):  # a tree of no step, or no goal disk, never arrives
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"planner {name} must be positive, got {value}")

    def resolved(self, ws: Workspace) -> "RrtParams":
        step = self.step_size if self.step_size is not None else ws.diagonal() / 50.0
        radius = self.goal_radius if self.goal_radius is not None else step
        return replace(self, step_size=step, goal_radius=radius)


@dataclass(frozen=True)
class RrtPath:
    """Collision-free waypoint chain from start to goal, evenly spaced."""

    waypoints: np.ndarray  # (N_X, 2)

    def __post_init__(self):
        pts = np.asarray(self.waypoints, dtype=float)
        object.__setattr__(self, "waypoints", pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError(f"path must be (N>=2, 2), got {pts.shape}")

    @property
    def n_points(self) -> int:
        return len(self.waypoints)

    def leg_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)

    def total_length(self) -> float:
        return float(self.leg_lengths().sum())


def _shortcut(points: list[np.ndarray], ws: Workspace) -> list[np.ndarray]:
    """Greedy segment skipping: from each kept node jump to the farthest visible one."""
    out = [points[0]]
    i = 0
    while i < len(points) - 1:
        free = np.flatnonzero(segment_free(points[i], np.reshape(points[i + 2:], (-1, 2)), ws))
        j = i + 2 + int(free[-1]) if len(free) else i + 1
        out.append(points[j])
        i = j
    return out


# The fewest waypoints a resampled path has: trajopt's _Workspace rejects fewer than 4.
_MIN_POINTS = 4


def _resample(points: list[np.ndarray], spacing: float) -> np.ndarray:
    """Even re-spacing along the polyline; preserves the exact endpoints."""
    pts = np.asarray(points, dtype=float)
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = float(seg_len.sum())
    if total <= 0.0:
        raise ValueError("degenerate path with zero length")
    n_legs = max(_MIN_POINTS - 1, int(math.ceil(total / spacing)))
    targets = np.linspace(0.0, total, n_legs + 1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    k = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg_len) - 1)
    frac = (targets - cum[k]) / np.where(seg_len[k] > 0.0, seg_len[k], 1.0)
    out = pts[k] + frac[:, None] * (pts[k + 1] - pts[k])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


_BATCH = 16  # iterations drawn, steered and edge-checked in one numpy pass
# Rows of the node table before its first doubling (1 MB; a tree touches only its rows).
# glibc maps a block this large, and freeing it lifts the heap's trim threshold to 2 MB,
# so the separator kernel's ~1.2 MB of temporaries per call reuse pages, not fault anew.
_FIRST_NODES = 2**16


def _length(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D vector, which is sqrt(v.dot(v)). Norms along
    an axis of a stack can differ from it in the last bit."""
    return math.sqrt(v.dot(v))


def _sq_dists(points: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Squared distances of points to p, rounded as the batch's nearest-node pass rounds them."""
    diffs = points - p
    return np.einsum("ij,ij->i", diffs, diffs)


def _steer(origin: np.ndarray, sample: np.ndarray, step: float, ws: Workspace):
    """The new node one step from origin toward sample, or None when the step
    is empty or its edge collides."""
    direction = sample - origin
    dist = _length(direction)
    if dist < 1e-12:
        return None
    new = origin + direction * (min(step, dist) / dist)
    # Also rejects a new node out of bounds or in an obstacle.
    return new if segment_free(origin, new, ws) else None


def plan(ws: Workspace, start, goal, params: RrtParams | None = None) -> RrtPath:
    """Grow a seeded RRT from start to goal in the inflated free space.

    Deterministic for a fixed seed. Raises StartOrGoalInCollision when either
    endpoint is not free, PlanTimeout when the iteration budget runs out.

    Each iteration extends the nearest node one step toward a goal-biased
    uniform sample. Iterations run in speculative batches: a batch's samples
    are drawn, matched to their nearest nodes, steered and edge-checked in
    one pass against the tree as it stood, then accepted in order. A sample
    to which a node accepted earlier in its batch is strictly closer than its
    matched node reruns on its own, so the tree grows node for node as one
    iteration at a time would grow it.
    """
    params = (params or RrtParams()).resolved(ws)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not point_free(start, ws):
        raise StartOrGoalInCollision(f"start {start.tolist()} not in inflated free space")
    if not point_free(goal, ws):
        raise StartOrGoalInCollision(f"goal {goal.tolist()} not in inflated free space")

    step = params.step_size
    reach = min(params.goal_radius, step)
    rng = np.random.default_rng(params.seed)
    x0, y0, x1, y1 = (float(v) for v in ws.bounds)
    goal_xy = tuple(goal.tolist())

    nodes = np.empty((_FIRST_NODES, 2))   # doubled as the tree outgrows it, whatever the budget
    nodes[0] = start
    parents = [-1]
    n_nodes = 1
    goal_idx = None
    draws: list[float] = []  # drawn, not yet used
    iters = 0

    while goal_idx is None and iters < params.max_iters:
        k = min(_BATCH, params.max_iters - iters)
        while n_nodes + k + 1 > len(nodes):   # room for the batch's nodes and the goal
            nodes = np.concatenate((nodes, np.empty_like(nodes)))
        # In stream order, one draw for a goal sample and three otherwise;
        # x0 + (x1 - x0) * u is how rng.uniform(x0, x1) maps a draw u.
        draws += rng.random(max(0, 3 * k - len(draws))).tolist()
        samples, used = [], 0
        for _ in range(k):
            if draws[used] < params.goal_bias:
                samples.append(goal_xy)
                used += 1
            else:
                samples.append((x0 + (x1 - x0) * draws[used + 1], y0 + (y1 - y0) * draws[used + 2]))
                used += 3
        del draws[:used]

        batch = np.array(samples)
        diffs = nodes[:n_nodes, None] - batch
        sq = np.einsum("ijk,ijk->ij", diffs, diffs)                 # (nodes, k)
        nearest = sq.argmin(axis=0)
        bound = sq[nearest, np.arange(k)].tolist()
        origin = nodes[nearest]
        direction = batch - origin
        dist = [_length(v) for v in direction]
        new = origin + direction * np.array([min(step, d) / d if d >= 1e-12 else 0.0
                                             for d in dist])[:, None]
        free = segment_free(origin, new, ws).tolist()

        n_old = n_nodes
        for j in range(k):
            iters += 1
            if n_nodes > n_old and (sq_new := _sq_dists(nodes[n_old:n_nodes], batch[j])).min() < bound[j]:
                # A node accepted earlier in the batch is nearer (the first
                # of the nearest, as argmin picks): step from it instead.
                parent = n_old + int(sq_new.argmin())
                node = _steer(nodes[parent], batch[j], step, ws)
                if node is None:
                    continue
            elif dist[j] < 1e-12 or not free[j]:
                continue
            else:
                parent, node = int(nearest[j]), new[j]
            nodes[n_nodes] = node
            parents.append(parent)
            n_nodes += 1
            if _length(goal - node) <= reach and segment_free(node, goal, ws):
                nodes[n_nodes] = goal
                parents.append(n_nodes - 1)
                goal_idx = n_nodes
                n_nodes += 1
                break

    if goal_idx is None:
        raise PlanTimeout(f"no path after {params.max_iters} iterations")

    chain = []
    idx = goal_idx
    while idx != -1:
        chain.append(nodes[idx].copy())
        idx = parents[idx]
    chain.reverse()

    if params.shortcut and len(chain) > 2:
        chain = _shortcut(chain, ws)
    waypoints = _resample(chain, spacing=step)
    return RrtPath(waypoints=waypoints)
