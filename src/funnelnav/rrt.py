"""Seeded RRT over the inflated free space, with shortcut and resampling.

The tree grows by nearest-node extension toward uniform samples of the
workspace rectangle (goal-biased), with segment collision checks against the
inflated obstacles. The returned path is optionally shortcut and then
resampled to even spacing so the downstream spline fit sees a clean prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def resolved(self, ws: Workspace) -> "RrtParams":
        step = self.step_size if self.step_size is not None else ws.diagonal() / 50.0
        radius = self.goal_radius if self.goal_radius is not None else step
        return RrtParams(step_size=step, goal_bias=self.goal_bias, max_iters=self.max_iters,
                         goal_radius=radius, seed=self.seed, shortcut=self.shortcut)


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

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("x,y\n")
            for x, y in self.waypoints.tolist():
                f.write(f"{x!r},{y!r}\n")


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


def _resample(points: list[np.ndarray], spacing: float, min_points: int = 4) -> np.ndarray:
    """Even re-spacing along the polyline; preserves the exact endpoints."""
    pts = np.asarray(points, dtype=float)
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = float(seg_len.sum())
    if total <= 0.0:
        raise ValueError("degenerate path with zero length")
    n_legs = max(min_points - 1, int(math.ceil(total / spacing)))
    targets = np.linspace(0.0, total, n_legs + 1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    out = []
    for s in targets:
        k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg_len) - 1)
        k = max(k, 0)
        denom = seg_len[k] if seg_len[k] > 0.0 else 1.0
        frac = (s - cum[k]) / denom
        out.append(pts[k] + frac * (pts[k + 1] - pts[k]))
    out[0] = pts[0]
    out[-1] = pts[-1]
    return np.array(out)


def plan(ws: Workspace, start, goal, params: RrtParams | None = None) -> RrtPath:
    """Grow a seeded RRT from start to goal in the inflated free space.

    Deterministic for a fixed seed. Raises StartOrGoalInCollision when either
    endpoint is not free, PlanTimeout when the iteration budget runs out.
    """
    params = (params or RrtParams()).resolved(ws)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not point_free(start, ws):
        raise StartOrGoalInCollision(f"start {start.tolist()} not in inflated free space")
    if not point_free(goal, ws):
        raise StartOrGoalInCollision(f"goal {goal.tolist()} not in inflated free space")

    step = params.step_size
    rng = np.random.default_rng(params.seed)
    x0, y0, x1, y1 = ws.bounds

    nodes = np.empty((params.max_iters + 1, 2))
    nodes[0] = start
    parents = [-1]
    n_nodes = 1
    goal_idx = None

    for _ in range(params.max_iters):
        if rng.random() < params.goal_bias:
            sample = goal
        else:
            sample = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        diffs = nodes[:n_nodes] - sample
        nearest = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
        direction = sample - nodes[nearest]
        dist = float(np.linalg.norm(direction))
        if dist < 1e-12:
            continue
        new = nodes[nearest] + direction * (min(step, dist) / dist)
        # Also rejects a new node out of bounds or in an obstacle.
        if not segment_free(nodes[nearest], new, ws):
            continue
        nodes[n_nodes] = new
        parents.append(nearest)
        n_nodes += 1
        hop = float(np.linalg.norm(goal - new))
        if hop <= min(params.goal_radius, step) and segment_free(new, goal, ws):
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
