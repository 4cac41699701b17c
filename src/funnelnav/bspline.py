"""Uniform clamped cubic B-spline trajectories in matrix form.

A trajectory is N control points with uniform knot spacing dt and tripled
end control points, which pins position and zeroes velocity/acceleration at
both ends. Segment i (i = 0..N-4) spans t in [i*dt, (i+1)*dt) and depends on
control points q_i..q_{i+3} only, so every segment lies in the convex hull
of its four control points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain

DEGREE = 3

# Fixed basis matrix of the uniform cubic segment: p(u) = [1 u u^2 u^3] M Q.
BASIS_M = (1.0 / 6.0) * np.array([
    [1.0, 4.0, 1.0, 0.0],
    [-3.0, 0.0, 3.0, 0.0],
    [3.0, -6.0, 3.0, 0.0],
    [-1.0, 3.0, -3.0, 1.0],
])

# Third-derivative (jerk) weights: b^T Q / dt^3 per segment.
JERK_WEIGHTS = np.array([-1.0, 3.0, -3.0, 1.0])

# Quadratic basis matrix of the derivative spline over the difference
# control points (q_k - q_{k-1}) / dt.
BASIS_M2 = 0.5 * np.array([
    [1.0, 1.0, 0.0],
    [-2.0, 2.0, 0.0],
    [1.0, -2.0, 1.0],
])

# time_at_distance's grid scan and its bisection.
TIME_GRID = 4000
_SCAN_CHUNK = 256
_HALVINGS = 60
_TREE_LEVELS = 6


@dataclass(frozen=True)
class SplineTrajectory:
    """Immutable uniform clamped cubic B-spline in the plane."""

    control_points: np.ndarray  # (N, 2)
    dt_knot: float

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        object.__setattr__(self, "control_points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"control points must be (N, 2), got {pts.shape}")
        if len(pts) < 8:
            raise ValueError(f"need at least 8 control points, got {len(pts)}")
        if self.dt_knot <= 0.0:
            raise ValueError(f"knot spacing must be positive, got {self.dt_knot}")
        if not (np.array_equal(pts[0], pts[1]) and np.array_equal(pts[1], pts[2])):
            raise ValueError("first three control points must coincide (rest start)")
        if not (np.array_equal(pts[-1], pts[-2]) and np.array_equal(pts[-2], pts[-3])):
            raise ValueError("last three control points must coincide (rest end)")

    @property
    def n_points(self) -> int:
        return len(self.control_points)

    @property
    def n_segments(self) -> int:
        return self.n_points - 3

    @property
    def duration(self) -> float:
        return self.n_segments * self.dt_knot

    def _locate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The (..., 4, 2) segment control points and local parameters u in [0, 1]
        of a time or an array of times; t == duration maps to the last segment."""
        t = np.asarray(t, dtype=float)
        if not np.all((0.0 <= t) & (t <= self.duration)):
            raise OutOfDomain(f"t={t} outside [0, {self.duration}]")
        s = t / self.dt_knot
        seg = np.minimum(s.astype(np.intp), self.n_segments - 1)
        return self.control_points[seg[..., None] + np.arange(4)], s - seg

    def eval(self, t) -> np.ndarray:
        """Position at a time t (shape (2,)) or at an array of times (shape (..., 2)).

        Each point is one (1, 4) @ (4, 2) product of a stacked matmul, so an
        array of times gives bit for bit the points of the per-float calls.
        """
        Q, u = self._locate(t)
        powers = np.stack([np.ones_like(u), u, u * u, u * u * u], axis=-1)
        return ((powers[..., None, :] @ BASIS_M) @ Q)[..., 0, :]

    def eval_derivatives(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(velocity, acceleration, jerk) at a time or an array of times, shaped as eval.

        Evaluated through the derivative splines over the difference control
        points (q_k - q_{k-1}) / dt, so the tripled endpoints yield exact
        zeros at rest. The jerk is piecewise constant per segment.
        """
        Q, u = self._locate(t)
        dt = self.dt_knot
        v_ctrl = np.diff(Q, axis=-2) / dt
        powers = np.stack([np.ones_like(u), u, u * u], axis=-1)
        vel = ((powers[..., None, :] @ BASIS_M2) @ v_ctrl)[..., 0, :]
        a_ctrl = np.diff(v_ctrl, axis=-2) / dt
        u = u[..., None]
        acc = (1.0 - u) * a_ctrl[..., 0, :] + u * a_ctrl[..., 1, :]
        jerk = (JERK_WEIGHTS @ Q) / (dt * dt * dt)
        return vel, acc, jerk

    def time_at_distance(self, dist: float) -> float:
        """Earliest time where the spline is `dist` away from its start point.

        Returns the full duration when the whole spline stays closer than
        that. A scan of TIME_GRID times, _SCAN_CHUNK at a time up to the first
        chunk that holds a hit, brackets the time; _HALVINGS halvings refine it,
        each round of _TREE_LEVELS evaluating all mids the round may visit at once.
        """
        start = self.eval(0.0)

        def distance(t):
            # Each row's dot product as one stacked matmul: bit for bit the
            # np.linalg.norm of that row alone, so the scan matches a point loop.
            offset = self.eval(t) - start
            return np.sqrt(offset[..., None, :] @ offset[..., :, None])[..., 0, 0]

        times = np.linspace(0.0, self.duration, TIME_GRID)
        for i in range(0, TIME_GRID, _SCAN_CHUNK):
            reached = np.flatnonzero(distance(times[i:i + _SCAN_CHUNK]) >= dist)
            if len(reached):
                break
        else:
            return self.duration
        hit = times[i + reached[0]]
        lo = max(0.0, hit - self.duration / (TIME_GRID - 1))
        hi = hit
        for _ in range(_HALVINGS // _TREE_LEVELS):
            # The ends of the leaves of a bisection tree on [lo, hi]: level by level, each
            # new end is 0.5 * (lo + hi) of the interval it halves, as one halving computes it.
            ends = np.array([lo, hi])
            for _ in range(_TREE_LEVELS):
                split = np.empty(2 * len(ends) - 1)
                split[0::2], split[1::2] = ends, 0.5 * (ends[:-1] + ends[1:])
                ends = split
            reached = distance(ends[1:-1]) >= dist
            a, b = 0, len(ends) - 1
            while b - a > 1:  # the halvings' walk down the tree
                mid = (a + b) // 2
                if reached[mid - 1]:
                    b = mid
                else:
                    a = mid
            lo, hi = ends[a], ends[b]
        return hi

    def to_dict(self) -> dict:
        return {
            "control_points": self.control_points.tolist(),
            "dt_knot": self.dt_knot,
            "degree": DEGREE,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SplineTrajectory":
        if int(data.get("degree", DEGREE)) != DEGREE:
            raise ValueError("only cubic trajectories are supported")
        return cls(np.array(data["control_points"], dtype=float), float(data["dt_knot"]))

    def sample_rows(self, dt_sample: float) -> np.ndarray:
        """(t, x, y, vx, vy, ax, ay) rows over the whole domain, endpoint included."""
        n = max(2, int(math.floor(self.duration / dt_sample)) + 1)
        times = np.minimum(np.arange(n) * dt_sample, self.duration)
        if times[-1] < self.duration:
            times = np.append(times, self.duration)
        vel, acc, _ = self.eval_derivatives(times)
        return np.column_stack((times, self.eval(times), vel, acc))


def clamped_control_points(start, interior, goal) -> np.ndarray:
    """The control polygon [start, start, start, *interior, goal, goal, goal]: its
    tripled ends pin the position and zero the velocity and acceleration there."""
    return np.vstack([start, start, start, interior, goal, goal, goal])
