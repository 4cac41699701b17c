"""Uniform clamped cubic B-spline trajectories in matrix form.

A trajectory is N control points with uniform knot spacing dt and tripled
end control points, which pins position and zeroes velocity/acceleration at
both ends. Segment i (i = 0..N-4) spans t in [i*dt, (i+1)*dt) and depends on
control points q_i..q_{i+3} only, so every segment lies in the convex hull
of its four control points.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class SplineTrajectory:
    """Immutable uniform clamped cubic B-spline in the plane."""

    control_points: np.ndarray  # (N, 2)
    dt_knot: float
    degree: int = DEGREE

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        object.__setattr__(self, "control_points", pts)
        if self.degree != DEGREE:
            raise ValueError("only cubic trajectories are supported")
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

    def segment_hull(self, i: int) -> np.ndarray:
        """The four control points whose convex hull contains segment i."""
        if not (0 <= i <= self.n_points - 4):
            raise IndexError(f"segment index {i} outside 0..{self.n_points - 4}")
        return self.control_points[i:i + 4]

    def time_at_distance(self, dist: float, grid: int = 4000) -> float:
        """Earliest time where the spline is `dist` away from its start point.

        Returns the full duration when the whole spline stays closer than
        that (grid scan plus bisection refinement).
        """
        start = self.eval(0.0)

        def distance(t):
            # Each row's dot product as one stacked matmul: bit for bit the
            # np.linalg.norm of that row alone, so the scan matches a point loop.
            offset = self.eval(t) - start
            return np.sqrt(offset[..., None, :] @ offset[..., :, None])[..., 0, 0]

        times = np.linspace(0.0, self.duration, grid)
        reached = np.flatnonzero(distance(times) >= dist)
        if not len(reached):
            return self.duration
        hit = times[reached[0]]
        lo = max(0.0, hit - self.duration / (grid - 1))
        hi = hit
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if distance(mid) >= dist:
                hi = mid
            else:
                lo = mid
        return hi

    def to_dict(self) -> dict:
        return {
            "control_points": self.control_points.tolist(),
            "dt_knot": self.dt_knot,
            "degree": self.degree,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SplineTrajectory":
        return cls(np.array(data["control_points"], dtype=float),
                   float(data["dt_knot"]), int(data.get("degree", DEGREE)))

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)

    @classmethod
    def load_json(cls, path) -> "SplineTrajectory":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def sample_rows(self, dt_sample: float) -> np.ndarray:
        """(t, x, y, vx, vy, ax, ay) rows over the whole domain, endpoint included."""
        n = max(2, int(math.floor(self.duration / dt_sample)) + 1)
        times = np.minimum(np.arange(n) * dt_sample, self.duration)
        if times[-1] < self.duration:
            times = np.append(times, self.duration)
        vel, acc, _ = self.eval_derivatives(times)
        return np.column_stack((times, self.eval(times), vel, acc))


def clamped_from_waypoints(waypoints: np.ndarray, dt_knot: float) -> SplineTrajectory:
    """Tripled-endpoint control polygon through the given interior waypoints.

    Control points are [W0, W0, W0, W1, ..., W_{n-2}, Wg, Wg, Wg], giving
    N = n + 4 for n waypoints.
    """
    w = np.asarray(waypoints, dtype=float)
    if len(w) < 4:
        raise ValueError(f"need at least 4 waypoints, got {len(w)}")
    ctrl = np.vstack([w[0], w[0], w[0], w[1:-1], w[-1], w[-1], w[-1]])
    return SplineTrajectory(ctrl, dt_knot)
