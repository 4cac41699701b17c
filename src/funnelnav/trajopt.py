"""Spline smoothing of an RRT path under kinodynamic and separation constraints.

Decision variables are the interior control points, the knot spacing dt and
one separating line per (spline segment, obstacle) pair. The solver
alternates three exactly-solvable steps:

  A. separating lines re-fit by the closest-pair construction (max margin),
     one batched call over the (segment, obstacle) pairs whose hulls moved
     since their lines were fitted,
  B. control points by projected gradient descent on the convex quadratic
     cost under the velocity/acceleration/halfspace constraints,
  C. knot spacing in closed form: the cost w3*dt is linear, so its minimum
     over the interval where the control-point constraints remain feasible
     is that interval's lower end (its upper end when w3 = 0).

Each step is non-increasing in the total cost, so the outer loop is monotone
by construction and asserts it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bspline import BASIS_M, JERK_WEIGHTS, SplineTrajectory, clamped_control_points
from .errors import InfeasibleSeed, TrajOptInfeasible
from .geometry import ConvexPolygon, find_separators, padded_vertices, planar_dot
from .geometry import find_separator  # noqa: F401  (unused; perfbench/tracing.py wraps this binding)
from .rrt import RrtPath


@dataclass
class TrajOptSettings:
    """The solver settings a scenario's trajopt section states, and the one
    place their defaults live: TrajOptProblem adds the problem's data to them."""

    w1: float = 1.0
    w2: float = 0.1
    w3: float = 0.05
    dt_bounds: tuple[float, float] = (0.05, 60.0)
    sep_margin: float = 0.01
    max_outer: int = 200
    tol_outer: float = 1e-6
    tol_residual: float = 1e-8

    def __post_init__(self):
        if self.w1 <= 0.0 and self.w2 <= 0.0:
            raise ValueError("at least one of w1, w2 must be positive")
        if self.w1 < 0.0 or self.w2 < 0.0 or self.w3 < 0.0:
            raise ValueError("weights must be nonnegative")
        if not (0.0 < self.dt_bounds[0] <= self.dt_bounds[1]):
            raise ValueError(f"bad dt bounds {self.dt_bounds}")


@dataclass(kw_only=True)
class TrajOptProblem(TrajOptSettings):
    """One smoothing problem over a fixed RRT prior and inflated obstacles."""

    rrt_path: RrtPath
    obstacles: list[ConvexPolygon]
    v_max: float
    a_max: float
    init: str = "rrt"                    # "rrt" or "line" (no-prior cold start)

    def __post_init__(self):
        super().__post_init__()
        if self.v_max <= 0.0 or self.a_max <= 0.0:
            raise ValueError("kinodynamic bounds must be positive")
        if self.init not in ("rrt", "line"):
            raise ValueError(f"unknown init mode {self.init!r}")


@dataclass
class TrajOptSolution:
    trajectory: SplineTrajectory
    hyperplanes: dict
    cost_fit: float
    cost_jerk: float
    cost_time: float
    status: str                      # "converged" | "max_iters" | "unverified"
    residuals: dict
    cost_trace: list[float] = field(default_factory=list)
    n_outer: int = 0

    @property
    def cost_total(self) -> float:
        return self.cost_fit + self.cost_jerk + self.cost_time

    def to_dict(self) -> dict:
        return {
            "trajectory": self.trajectory.to_dict(),
            "hyperplanes": {
                f"{i},{j}": {"h": h.tolist(), "d": d}
                for (i, j), (h, d) in sorted(self.hyperplanes.items())
            },
            "cost": {"fit": self.cost_fit, "jerk": self.cost_jerk,
                     "time": self.cost_time, "total": self.cost_total},
            "status": self.status,
            "residuals": self.residuals,
            "n_outer": self.n_outer,
            "cost_trace": self.cost_trace,
        }


def _band(n_rows: int, n_cols: int, first: int, weights: np.ndarray) -> np.ndarray:
    """(n_rows, n_cols) zeros with weights along row r from column first + r."""
    band = np.zeros((n_rows, n_cols))
    rows = np.arange(n_rows)[:, None]
    band[rows, rows + first + np.arange(len(weights))] = weights
    return band


class _Workspace:
    """Precomputed matrices and bookkeeping of one solve."""

    def __init__(self, problem: TrajOptProblem):
        X = problem.rrt_path.waypoints
        n_x = len(X)
        if n_x < 4:
            raise ValueError(f"need at least 4 path points, got {n_x}")
        N = n_x + 4
        self.problem = problem
        self.N = N
        self.free = np.zeros(N, dtype=bool)
        self.free[3:N - 3] = True  # the free control points 3 .. N-4

        # Fit rows: knot j = 2 .. N-5 tracks waypoint X_{j-1} with the basis
        # weights of a segment start; jerk rows cover every segment.
        n_fit, n_seg = n_x - 2, N - 3
        self.A_fit = A_fit = _band(n_fit, N, 2, BASIS_M[0, :3])
        self.T_fit = X[1:n_x - 1].copy()
        self.A_jerk = A_jerk = _band(n_seg, N, 0, JERK_WEIGHTS)

        H = 2.0 * (problem.w1 * A_fit.T @ A_fit + problem.w2 * A_jerk.T @ A_jerk)
        H_free = H[np.ix_(self.free, self.free)]
        eigs = np.linalg.eigvalsh(H_free)
        self.lipschitz = max(float(eigs[-1]), 1e-12)
        # The gradient's scaled transposes, as `2.0 * w * A.T @ r` forms them.
        self.fit_grad = 2.0 * problem.w1 * A_fit.T
        self.jerk_grad = 2.0 * problem.w2 * A_jerk.T
        self.free_list = self.free.tolist()

        # Every (segment, obstacle) pair has a line, segment-major, and line m
        # of every refit is pair m's. Pair m's hull is C[pair_index[m]], its
        # obstacle's padded vertices pair_verts[m].
        n_obs = len(problem.obstacles)
        self.pairs = [(i, j) for i in range(n_seg) for j in range(n_obs)]
        self.pair_seg = np.repeat(np.arange(n_seg), n_obs)
        self.pair_index = self.pair_seg[:, None] + np.arange(4)
        self.pair_verts = padded_vertices([problem.obstacles[j] for _, j in self.pairs])
        self.pair_order = _Lines.order(self.pair_seg, self.free)

    def lines(self, h: np.ndarray, d: np.ndarray, hulls: np.ndarray) -> _Lines:
        """The pairs' lines with normals h and offsets d, fitted to hulls."""
        return _Lines.of(self.pair_seg, h, d, hulls, self.problem.sep_margin, self.pair_order)

    def residuals(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The fit and jerk residuals of C; cost and gradient both read them."""
        return self.A_fit @ C - self.T_fit, self.A_jerk @ C

    def quad_cost(self, res: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
        return self.problem.w1 * float((res[0] ** 2).sum()), self.problem.w2 * float((res[1] ** 2).sum())

    def total_cost(self, res: tuple[np.ndarray, np.ndarray], dt: float) -> float:
        f, j = self.quad_cost(res)
        return f + j + self.problem.w3 * dt

    def grad(self, res: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        g = self.fit_grad @ res[0] + self.jerk_grad @ res[1]
        g[~self.free] = 0.0
        return g


def _initial_dt(problem: TrajOptProblem) -> float:
    legs = problem.rrt_path.leg_lengths()
    dt0 = 2.0 * float(legs.max()) / problem.v_max
    lo, hi = problem.dt_bounds
    return min(max(dt0, lo), hi)


def _recovery_plane(hull: np.ndarray, poly: ConvexPolygon, margin: float):
    """Fallback line with the obstacle strictly on its negative side.

    Used only by the no-prior cold start, whose initial hulls may overlap an
    obstacle: the line points from the obstacle centroid toward the hull
    centroid, placed just outside the polygon, so the control-point
    projections push the hull out across iterations.
    """
    g = hull.mean(axis=0) - poly.centroid()
    norm = float(np.linalg.norm(g))
    h = g / norm if norm > 1e-12 else np.array([1.0, 0.0])
    d = float(np.max(poly.vertices @ h)) + margin + 1e-9
    return h, d


def _plane_residual(hulls: np.ndarray, verts: np.ndarray, h: np.ndarray, d: np.ndarray,
                    margin: float) -> np.ndarray:
    """Per pair, the worst slack of the two strict sides (positive = satisfied
    with room); verts are the obstacles' padded vertices."""
    hull_side = planar_dot(hulls, h[:, None]).min(axis=1) - (d + margin)
    poly_side = (d - margin) - planar_dot(verts, h[:, None]).max(axis=1)
    return np.minimum(hull_side, poly_side)


def build(ws: _Workspace):
    """Initial guess: control points, knot spacing and separating lines.

    Raises InfeasibleSeed when an initial segment hull intersects an obstacle
    in "rrt" mode; the cold-start mode falls back to recovery lines instead.
    """
    problem = ws.problem
    X = problem.rrt_path.waypoints
    if problem.init == "rrt":
        interior = X[1:-1]
    else:  # as many points evenly along the chord
        interior = X[0] + np.linspace(0.0, 1.0, len(X))[1:-1, None] * (X[-1] - X[0])
    C = clamped_control_points(X[0], interior, X[-1])
    dt = _initial_dt(problem)
    hulls = C[ws.pair_index]
    found, h, d = find_separators(hulls, ws.pair_verts)
    for m in (~found).nonzero()[0].tolist():
        i, j = ws.pairs[m]
        if problem.init == "rrt":
            raise InfeasibleSeed(i, j)
        h[m], d[m] = _recovery_plane(hulls[m], problem.obstacles[j], problem.sep_margin)
    return C, dt, ws.lines(h, d, hulls)


def _feasible_dt_floor(C: np.ndarray, problem: TrajOptProblem) -> float:
    """Smallest dt at which the control-point velocity/acceleration bounds hold."""
    d1 = np.linalg.norm(np.diff(C, axis=0), axis=1)
    dt_vel = float(d1.max()) / problem.v_max
    second = C[2:] - 2.0 * C[1:-1] + C[:-2]
    dt_acc = math.sqrt(float(np.linalg.norm(second, axis=1).max()) / problem.a_max)
    return max(dt_vel, dt_acc)


@dataclass(frozen=True)
class _Lines:
    """One refit's separating lines: line m keeps the hull of segment seg[m]
    on the side h[m] . q >= d[m] of its obstacle. hulls[m] is the hull the
    refit saw, so the next refit can tell which hulls moved since.

    They also hold _project's halfspaces regrouped by control point. A
    halfspace projection reads and writes only its own point, so each free
    point can take the lines of the (at most four) segments covering it in
    line order, independently of every other point. The entries (point
    index, normal components, target d + margin) are stored point-major, each
    point's in line order; rows repeats each as Python numbers, with the index
    one past its point's last entry: (point, end, hx, hy, target).
    """

    seg: np.ndarray
    h: np.ndarray
    d: np.ndarray
    hulls: np.ndarray
    point: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    target: np.ndarray
    rows: list

    @staticmethod
    def order(seg: np.ndarray, free: np.ndarray):
        """For lines of these segments: each entry's line m and point k,
        point-major and each point's in line order, and the rows' points and
        ends as lists."""
        m = np.repeat(np.arange(len(seg)), 4)
        k = (seg[:, None] + np.arange(4)).ravel()
        m, k = m[free[k]], k[free[k]]
        by_point = np.argsort(k, kind="stable")
        m, k = m[by_point], k[by_point]
        end = np.searchsorted(k, k, side="right")
        return m, k, k.tolist(), end.tolist()

    @classmethod
    def of(cls, seg: np.ndarray, h: np.ndarray, d: np.ndarray, hulls: np.ndarray, margin: float,
           order) -> _Lines:
        """The lines (seg, h, d) fitted to hulls; order is _Lines.order of seg."""
        m, k, points, ends = order
        hx, hy, target = h[m, 0], h[m, 1], d[m] + margin
        rows = list(zip(points, ends, hx.tolist(), hy.tolist(), target.tolist()))
        return cls(seg, h, d, hulls, k, hx, hy, target, rows)

    def project(self, X: np.ndarray, Y: np.ndarray, tol: float) -> float:
        """One pass over every line, in place on the rows X and Y; returns the
        largest shortfall it corrected (0.0 when none was over tol).

        Only points short on some line at the start of the pass move, and
        each runs its own lines on Python floats from the first short one:
        the lines before it see the point unmoved and are not short.
        """
        short = self.target - (X[self.point] * self.hx + Y[self.point] * self.hy) > tol
        worst, end = 0.0, 0
        for first in short.nonzero()[0].tolist():
            if first < end:
                continue
            k, end = self.rows[first][:2]
            x, y = X.item(k), Y.item(k)
            for _, _, hx, hy, target in self.rows[first:end]:
                gap = target - (x * hx + y * hy)
                if gap > tol:
                    worst = max(worst, gap)
                    x, y = x + hx * gap, y + hy * gap
            X[k], Y[k] = x, y
        return worst


_PROJECTION_SWEEPS = 300


def _project(C: np.ndarray, dt: float, lines: _Lines, ws: _Workspace) -> float:
    """Cyclic projections onto every constraint set, in place, at most _PROJECTION_SWEEPS times.

    Returns the worst remaining violation. Pinned control points never move;
    constraints touching only pins are identically satisfied by the tripled
    endpoints. The velocity and acceleration chains are Gauss-Seidel
    recurrences and run point by point on Python floats; the halfspace pass
    moves only the points short on a line (_Lines.project). Each
    point sees the same floating-point operations in the same order as a
    line-by-line loop (tests/oracles.py::project_oracle), and a C that
    violates nothing returns 0.0 untouched.
    """
    problem = ws.problem
    v_bound = problem.v_max * dt
    a_bound = problem.a_max * (dt * dt)
    tol = problem.tol_residual
    free = ws.free_list
    N = ws.N
    P = C.T  # rows x and y, a view: every update lands in C

    worst = math.inf
    for _ in range(_PROJECTION_SWEEPS):
        worst = 0.0
        # The chains run only where numpy finds a pair or triple over its bound
        # (with a 1e-15 relative margin for np.hypot's one-ulp rounding).
        (vx, vy), (ax, ay) = P[:, 1:] - P[:, :-1], P[:, 2:] - 2.0 * P[:, 1:-1] + P[:, :-2]
        if not (np.hypot(vx, vy).max() * (1.0 + 1e-15) <= v_bound + tol
                and np.hypot(ax, ay).max() * (1.0 + 1e-15) <= a_bound + tol):
            xs, ys = P.tolist()
            # Velocity pairs: ||q_k - q_{k-1}|| <= v_max dt.
            for k in range(1, N):
                gx = xs[k] - xs[k - 1]
                gy = ys[k] - ys[k - 1]
                norm = math.hypot(gx, gy)
                over = norm - v_bound
                if over <= tol:
                    continue
                worst = max(worst, over)
                scale = (1.0 - v_bound / norm)
                denom = float(free[k]) + float(free[k - 1])
                if denom == 0.0:
                    continue
                cx, cy = scale * gx / denom, scale * gy / denom
                if free[k]:
                    xs[k] -= cx
                    ys[k] -= cy
                if free[k - 1]:
                    xs[k - 1] += cx
                    ys[k - 1] += cy
            # Acceleration triples.
            for k in range(2, N):
                gx = xs[k] - 2.0 * xs[k - 1] + xs[k - 2]
                gy = ys[k] - 2.0 * ys[k - 1] + ys[k - 2]
                norm = math.hypot(gx, gy)
                over = norm - a_bound
                if over <= tol:
                    continue
                worst = max(worst, over)
                denom = float(free[k]) + 4.0 * float(free[k - 1]) + float(free[k - 2])
                if denom == 0.0:
                    continue
                s = (1.0 - a_bound / norm) / denom
                dx, dy = s * gx, s * gy
                if free[k]:
                    xs[k] -= dx
                    ys[k] -= dy
                if free[k - 1]:
                    xs[k - 1] += 2.0 * dx
                    ys[k - 1] += 2.0 * dy
                if free[k - 2]:
                    xs[k - 2] -= dx
                    ys[k - 2] -= dy
            P[:] = xs, ys
        # Separation halfspaces: h.q >= d + margin for the four hull points.
        if lines.rows:
            worst = max(worst, lines.project(P[0], P[1], tol))
        if worst <= tol:
            break
    return worst


_PGD_MAX_ITERS = 60


def _step_control_points(C: np.ndarray, dt: float, lines: _Lines, ws: _Workspace) -> np.ndarray:
    """Projected gradient descent with backtracking; never increases cost."""
    problem = ws.problem
    base_eta = 1.0 / ws.lipschitz
    res = ws.residuals(C)
    cost = ws.total_cost(res, dt)
    for _ in range(_PGD_MAX_ITERS):
        g = ws.grad(res)
        eta = base_eta
        accepted = False
        for _bt in range(30):
            trial = C - eta * g
            _project(trial, dt, lines, ws)
            trial_res = ws.residuals(trial)
            trial_cost = ws.total_cost(trial_res, dt)
            if trial_cost < cost - 1e-15:
                C, res = trial, trial_res
                improvement = cost - trial_cost
                cost = trial_cost
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        if improvement < problem.tol_outer * max(1.0, abs(cost)) * 0.1:
            break
    return C


def _step_planes(C: np.ndarray, lines: _Lines, ws: _Workspace) -> _Lines:
    """Re-fit the separating lines of the hulls that moved since lines were
    fitted, in one batched call, keeping the old line where no refit was
    found or the refit would not improve the current worst slack (keeps the
    iterate feasible).

    A hull moved when any of its coordinates differs in its bits, so -0.0
    against 0.0 or a changed NaN counts. An unmoved hull would get its own
    line back: the kernel's answer for a pair does not depend on the other
    pairs, and the keep-or-take rule is idempotent on one hull.
    """
    hulls = C[ws.pair_index]
    moved = (hulls.view(np.uint64) != lines.hulls.view(np.uint64)).any(axis=(1, 2)).nonzero()[0]
    if not len(moved):
        return lines
    margin = ws.problem.sep_margin
    fit, verts = hulls[moved], ws.pair_verts[moved]
    found, h, d = find_separators(fit, verts)
    take = found & (_plane_residual(fit, verts, h, d, margin)
                    >= _plane_residual(fit, verts, lines.h[moved], lines.d[moved], margin))
    new_h, new_d = lines.h.copy(), lines.d.copy()
    new_h[moved[take]], new_d[moved[take]] = h[take], d[take]
    return ws.lines(new_h, new_d, hulls)


def _step_dt(C: np.ndarray, ws: _Workspace) -> float:
    problem = ws.problem
    lo, hi = problem.dt_bounds
    floor = max(lo, _feasible_dt_floor(C, problem))
    if floor > hi * (1.0 + 1e-12):
        raise TrajOptInfeasible(
            f"no knot spacing in [{lo}, {hi}] satisfies the kinodynamic bounds "
            f"(needs >= {floor:.6g})"
        )
    if problem.w3 <= 0.0:
        # No time pressure: the cost is spacing-free, and a larger spacing
        # only loosens the velocity/acceleration sets for the next
        # control-point step, so the loosest spacing is optimal.
        return hi
    # The cost w3*dt is increasing, so the feasible floor minimizes it.
    return min(floor, hi)


# The dense check's (1000, 4) velocity and acceleration weights: sample u of
# a segment is row u of the weights times its four control points.
_us = np.linspace(0.0, 1.0, 1000)
_DENSE_VEL_W = np.column_stack([np.zeros_like(_us), np.ones_like(_us), 2.0 * _us, 3.0 * _us ** 2]) @ BASIS_M
_DENSE_ACC_W = np.column_stack([np.zeros_like(_us), np.zeros_like(_us),
                                np.full_like(_us, 2.0), 6.0 * _us]) @ BASIS_M
del _us
_DENSE_BLOCK = 8   # segments per pass: each (8, 1000, 2) temporary is 128 KB


def _dense_kinodynamic_check(traj: SplineTrajectory) -> tuple[float, float]:
    """Max sampled speed and acceleration magnitude over the whole spline,
    NaN when any sample is NaN.

    Each block of segments takes one stacked product per quantity, which
    repeats the (1000, 4) @ (4, 2) product of each segment. The squared
    norms are x*x + y*y, as np.linalg.norm sums them; sqrt is correctly
    rounded and monotone, so the sqrt of the largest is the largest norm.
    """
    dt = traj.dt_knot
    windows = sliding_window_view(traj.control_points, 4, axis=0).transpose(0, 2, 1)   # (S, 4, 2)
    peaks = []
    for k in range(0, len(windows), _DENSE_BLOCK):
        Q = windows[k:k + _DENSE_BLOCK]
        v = np.matmul(_DENSE_VEL_W, Q)
        v /= dt
        a = np.matmul(_DENSE_ACC_W, Q)
        a /= dt * dt
        peaks.append([_peak_square(v), _peak_square(a)])
    max_v, max_a = np.sqrt(np.max(peaks, axis=0)).tolist()
    return max_v, max_a


def _peak_square(p: np.ndarray) -> float:
    """The largest x*x + y*y over the rows of p (..., 2), squaring p in place."""
    p *= p
    return (p[..., 0] + p[..., 1]).max()


def solve(problem: TrajOptProblem) -> TrajOptSolution:
    """Run the alternating scheme to a monotone fixed point and verify it."""
    ws = _Workspace(problem)
    C, dt, lines = build(ws)
    dt = max(dt, _feasible_dt_floor(C, problem))
    lo, hi = problem.dt_bounds
    if dt > hi * (1.0 + 1e-12):
        raise TrajOptInfeasible(f"initial guess needs dt {dt:.6g} > dt_max {hi}")
    _project(C, dt, lines, ws)

    cost_trace = [ws.total_cost(ws.residuals(C), dt)]
    status = "max_iters"
    n_outer = 0
    for n_outer in range(1, problem.max_outer + 1):
        lines = _step_planes(C, lines, ws)
        C = _step_control_points(C, dt, lines, ws)
        dt = _step_dt(C, ws)
        cost = ws.total_cost(ws.residuals(C), dt)
        if cost > cost_trace[-1] + 1e-9 * max(1.0, abs(cost_trace[-1])):
            raise AssertionError(
                f"outer cost increased: {cost_trace[-1]:.12g} -> {cost:.12g}"
            )
        decrease = cost_trace[-1] - cost
        cost_trace.append(cost)
        if decrease < problem.tol_outer * max(1.0, abs(cost)):
            status = "converged"
            break

    residual = _project(C, dt, lines, ws)
    if not np.isfinite(C).all():  # a NaN passes _project's comparisons: it has no residual
        residual = math.nan
    traj = SplineTrajectory(C, dt)
    max_v, max_a = _dense_kinodynamic_check(traj)
    sep_ok = bool(np.all(_plane_residual(C[ws.pair_index], ws.pair_verts, lines.h, lines.d, 0.0) > 0.0))
    slack = 1.0 + 1e-6
    if not (
        residual <= problem.tol_residual * 10.0
        and max_v <= problem.v_max * slack
        and max_a <= problem.a_max * slack
        and sep_ok
    ):
        status = "unverified"

    fit, jerk = ws.quad_cost(ws.residuals(C))
    return TrajOptSolution(
        trajectory=traj,
        hyperplanes=dict(zip(ws.pairs, zip(lines.h, lines.d.tolist()))),
        cost_fit=fit,
        cost_jerk=jerk,
        cost_time=problem.w3 * dt,
        status=status,
        residuals={
            "projection": residual,
            "max_speed": max_v,
            "max_accel": max_a,
            "separation_ok": sep_ok,
        },
        cost_trace=cost_trace,
        n_outer=n_outer,
    )


@dataclass
class ValidationReport:
    endpoint_error: float
    endpoint_rest_error: float
    ctrl_velocity_excess: float      # max ||q_k - q_{k-1}|| - v_max*dt, <= 0 when satisfied
    ctrl_acceleration_excess: float
    dense_speed_excess: float
    dense_accel_excess: float
    separation_min_slack: float      # min over pairs/points of strict-side slack
    separation_all_verified: bool

    @property
    def ok(self) -> bool:
        tol = 1e-6
        return (self.endpoint_error < 1e-9
                and self.endpoint_rest_error < 1e-9
                and self.ctrl_velocity_excess <= tol
                and self.ctrl_acceleration_excess <= tol
                and self.dense_speed_excess <= tol
                and self.dense_accel_excess <= tol
                and self.separation_all_verified)

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def validate(solution: TrajOptSolution, problem: TrajOptProblem) -> ValidationReport:
    """Recompute every constraint residual from scratch, solver-independent."""
    traj = solution.trajectory
    C = traj.control_points
    dt = traj.dt_knot
    X = problem.rrt_path.waypoints

    p0 = traj.eval(0.0)
    pT = traj.eval(traj.duration)
    endpoint_error = max(float(np.linalg.norm(p0 - X[0])), float(np.linalg.norm(pT - X[-1])))
    v0, a0, _ = traj.eval_derivatives(0.0)
    vT, aT, _ = traj.eval_derivatives(traj.duration)
    rest = max(float(np.linalg.norm(v0)), float(np.linalg.norm(a0)),
               float(np.linalg.norm(vT)), float(np.linalg.norm(aT)))

    d1 = np.linalg.norm(np.diff(C, axis=0), axis=1)
    vel_excess = float(d1.max()) - problem.v_max * dt
    second = C[2:] - 2.0 * C[1:-1] + C[:-2]
    acc_excess = float(np.linalg.norm(second, axis=1).max()) - problem.a_max * dt * dt

    max_v, max_a = _dense_kinodynamic_check(traj)

    # Every line at once. The stacked products repeat each pair's h @ h,
    # hull @ h and vertices @ h (a padding vertex repeats a real one); the
    # strict verdict is h.q > d for every hull point and h.p < d for every
    # vertex, and a zero normal is an error (tests/oracles.py::strictly_separates).
    planes = solution.hyperplanes
    seg = np.array([i for i, _ in planes], dtype=int)
    hulls = C[seg[:, None] + np.arange(4)]
    verts = padded_vertices([problem.obstacles[j] for _, j in planes])
    H = np.array([h for h, _ in planes.values()], dtype=float).reshape(-1, 2)
    D = np.array([d for _, d in planes.values()], dtype=float)
    if np.any(np.matmul(H[:, None], H[:, :, None]) <= 0.0):
        raise ValueError("separator normal must be non-zero")
    min_slack = math.inf
    if planes:
        hull_slack = np.matmul(hulls, H[:, :, None]).min(axis=(1, 2)) - D
        poly_slack = D - np.matmul(verts, H[:, :, None]).max(axis=(1, 2))
        min_slack = float(np.minimum(hull_slack, poly_slack).min())
    all_ok = bool(np.all(planar_dot(hulls, H[:, None]) > D[:, None])
                  and np.all(planar_dot(verts, H[:, None]) < D[:, None]))

    return ValidationReport(
        endpoint_error=endpoint_error,
        endpoint_rest_error=rest,
        ctrl_velocity_excess=vel_excess,
        ctrl_acceleration_excess=acc_excess,
        dense_speed_excess=max_v - problem.v_max,
        dense_accel_excess=max_a - problem.a_max,
        separation_min_slack=min_slack,
        separation_all_verified=all_ok,
    )
