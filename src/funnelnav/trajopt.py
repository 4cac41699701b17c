"""Spline smoothing of an RRT path under kinodynamic and separation constraints.

Decision variables are the interior control points, the knot spacing dt and
one separating line per (spline segment, obstacle) pair. The solver
alternates three exactly-solvable steps:

  A. separating lines re-fit by the closest-pair construction (max margin),
     one batched call over every (segment, obstacle) pair,
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
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bspline import BASIS_M, SplineTrajectory
from .errors import InfeasibleSeed, TrajOptInfeasible
from .geometry import ConvexPolygon, find_separators, padded_vertices, planar_dot, verify_separation
from .geometry import find_separator  # noqa: F401  (unused; perfbench/tracing.py wraps this binding)
from .rrt import RrtPath


@dataclass
class TrajOptProblem:
    """One smoothing problem over a fixed RRT prior and inflated obstacles."""

    rrt_path: RrtPath
    obstacles: list[ConvexPolygon]
    v_max: float
    a_max: float
    w1: float = 1.0
    w2: float = 0.1
    w3: float = 0.0
    dt_bounds: tuple[float, float] = (1e-3, 60.0)
    sep_margin: float = 0.01
    max_outer: int = 200
    tol_outer: float = 1e-6
    tol_residual: float = 1e-8
    pgd_max_iters: int = 60
    projection_sweeps: int = 300
    init: str = "rrt"                    # "rrt" or "line" (no-prior cold start)

    def __post_init__(self):
        if self.w1 <= 0.0 and self.w2 <= 0.0:
            raise ValueError("at least one of w1, w2 must be positive")
        if self.w1 < 0.0 or self.w2 < 0.0 or self.w3 < 0.0:
            raise ValueError("weights must be nonnegative")
        if self.v_max <= 0.0 or self.a_max <= 0.0:
            raise ValueError("kinodynamic bounds must be positive")
        if not (0.0 < self.dt_bounds[0] <= self.dt_bounds[1]):
            raise ValueError(f"bad dt bounds {self.dt_bounds}")
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
    solve_time: float = 0.0

    @property
    def cost_total(self) -> float:
        return self.cost_fit + self.cost_jerk + self.cost_time

    def to_dict(self) -> dict:
        # solve_time stays off the artifact: serialized outputs must be
        # byte-reproducible for a fixed seed.
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


class _Workspace:
    """Precomputed matrices and bookkeeping of one solve."""

    def __init__(self, problem: TrajOptProblem):
        X = problem.rrt_path.waypoints
        n_x = len(X)
        if n_x < 4:
            raise ValueError(f"need at least 4 path points, got {n_x}")
        N = n_x + 4
        # The final fixed control point must coincide with the last waypoint.
        assert N - 5 == n_x - 1, "endpoint index bookkeeping broke"
        self.problem = problem
        self.X = X
        self.N = N
        self.free_lo, self.free_hi = 3, N - 4  # inclusive free index range
        self.free = np.zeros(N, dtype=bool)
        self.free[self.free_lo:self.free_hi + 1] = True

        # Fit rows: knot j = 2 .. N-5 tracks waypoint X_{j-1}.
        n_fit = n_x - 2
        A_fit = np.zeros((n_fit, N))
        for r in range(n_fit):
            j = 2 + r
            A_fit[r, j:j + 3] = (1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0)
        self.A_fit = A_fit
        self.T_fit = X[1:n_x - 1].copy()

        # Jerk rows over every segment.
        n_seg = N - 3
        A_jerk = np.zeros((n_seg, N))
        for i in range(n_seg):
            A_jerk[i, i:i + 4] = (-1.0, 3.0, -3.0, 1.0)
        self.A_jerk = A_jerk

        H = 2.0 * (problem.w1 * A_fit.T @ A_fit + problem.w2 * A_jerk.T @ A_jerk)
        H_free = H[np.ix_(self.free, self.free)]
        eigs = np.linalg.eigvalsh(H_free)
        self.lipschitz = max(float(eigs[-1]), 1e-12)
        self._halfspaces_of = (None, None)

    def halfspaces(self, planes: dict) -> _Halfspaces | None:
        """_Halfspaces.of the planes, rebuilt only when a new dict comes in;
        planes dicts are never edited in place (each refit makes one)."""
        if planes is not self._halfspaces_of[0]:
            self._halfspaces_of = (planes, _Halfspaces.of(planes, self))
        return self._halfspaces_of[1]

    def quad_cost(self, C: np.ndarray) -> tuple[float, float]:
        fit_res = self.A_fit @ C - self.T_fit
        jerk_res = self.A_jerk @ C
        return (self.problem.w1 * float(np.sum(fit_res ** 2)),
                self.problem.w2 * float(np.sum(jerk_res ** 2)))

    def total_cost(self, C: np.ndarray, dt: float) -> float:
        f, j = self.quad_cost(C)
        return f + j + self.problem.w3 * dt

    def grad(self, C: np.ndarray) -> np.ndarray:
        g = (2.0 * self.problem.w1 * self.A_fit.T @ (self.A_fit @ C - self.T_fit)
             + 2.0 * self.problem.w2 * self.A_jerk.T @ (self.A_jerk @ C))
        g[~self.free] = 0.0
        return g


def _initial_control_points(problem: TrajOptProblem) -> np.ndarray:
    X = problem.rrt_path.waypoints
    if problem.init == "rrt":
        interior = X[1:-1]
    else:
        fracs = np.linspace(0.0, 1.0, len(X))[1:-1, None]
        interior = X[0] + fracs * (X[-1] - X[0])
    return np.vstack([X[0], X[0], X[0], interior, X[-1], X[-1], X[-1]])


def _initial_dt(problem: TrajOptProblem) -> float:
    legs = problem.rrt_path.leg_lengths()
    dt0 = 2.0 * float(legs.max()) / problem.v_max
    lo, hi = problem.dt_bounds
    return min(max(dt0, lo), hi)


def _plane_pairs(C: np.ndarray, problem: TrajOptProblem):
    """(segment, obstacle) index pairs subject to a separating line."""
    return [(i, j) for i in range(len(C) - 3) for j in range(len(problem.obstacles))]


def _pair_sets(C: np.ndarray, pairs, problem: TrajOptProblem):
    """The pairs' (M, 4, 2) segment hulls and their M obstacles."""
    seg = np.array([i for i, _ in pairs], dtype=int)
    return C[seg[:, None] + np.arange(4)], [problem.obstacles[j] for _, j in pairs]


def _plane_arrays(planes: dict) -> tuple[np.ndarray, np.ndarray]:
    """Normals (M, 2) and offsets (M,) of the planes, in the dict's order."""
    h = np.array([h for h, _ in planes.values()], dtype=float).reshape(-1, 2)
    return h, np.array([d for _, d in planes.values()], dtype=float)


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


def build(problem: TrajOptProblem):
    """Initial guess: control points, knot spacing and separating lines.

    Raises InfeasibleSeed when an initial segment hull intersects an obstacle
    in "rrt" mode; the cold-start mode falls back to recovery lines instead.
    """
    C = _initial_control_points(problem)
    dt = _initial_dt(problem)
    pairs = _plane_pairs(C, problem)
    hulls, polys = _pair_sets(C, pairs, problem)
    found, h, d = find_separators(hulls, polys)
    planes = {}
    for m, (i, j) in enumerate(pairs):
        if found[m]:
            planes[(i, j)] = (h[m], float(d[m]))
        elif problem.init == "rrt":
            raise InfeasibleSeed(i, j)
        else:
            planes[(i, j)] = _recovery_plane(hulls[m], polys[m], problem.sep_margin)
    return C, dt, planes


def _feasible_dt_floor(C: np.ndarray, problem: TrajOptProblem) -> float:
    """Smallest dt at which the control-point velocity/acceleration bounds hold."""
    d1 = np.linalg.norm(np.diff(C, axis=0), axis=1)
    dt_vel = float(d1.max()) / problem.v_max
    second = C[2:] - 2.0 * C[1:-1] + C[:-2]
    dt_acc = math.sqrt(float(np.linalg.norm(second, axis=1).max()) / problem.a_max)
    return max(dt_vel, dt_acc)


@dataclass(frozen=True)
class _Halfspaces:
    """The separation halfspaces of _project, regrouped by control point.

    A halfspace projection reads and writes only its own point, so each free
    point can take the planes of the (at most four) segments covering it in
    the dict's order, independently of every other point. Slot s pairs every
    free point having more than s covering planes with its s-th plane. The
    entries (point index, normal components, target d + margin) are stored
    slot-major; slots holds each slot's views into them.
    """

    point: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    target: np.ndarray
    slot: np.ndarray
    slots: list

    @classmethod
    def of(cls, planes: dict, ws: _Workspace) -> _Halfspaces | None:
        """The planes regrouped, or None for an empty dict."""
        if not planes:
            return None
        h, d = _plane_arrays(planes)
        seg = np.array([i for i, _ in planes], dtype=int)
        m = np.repeat(np.arange(len(seg)), 4)
        k = (seg[:, None] + np.arange(4)).ravel()
        m, k = m[ws.free[k]], k[ws.free[k]]
        # Per point, its planes in dict order; an entry's slot is its rank there.
        by_point = np.lexsort((m, k))
        m, k = m[by_point], k[by_point]
        slot = np.arange(len(k)) - np.searchsorted(k, k)
        by_slot = np.argsort(slot, kind="stable")
        m, k, slot = m[by_slot], k[by_slot], slot[by_slot]
        hx, hy, target = h[m, 0], h[m, 1], d[m] + ws.problem.sep_margin
        bounds = np.searchsorted(slot, np.arange(slot[-1] + 2)).tolist()
        slots = [(k[a:b], hx[a:b], hy[a:b], target[a:b]) for a, b in zip(bounds, bounds[1:])]
        return cls(k, hx, hy, target, slot, slots)

    def short(self, X: np.ndarray, Y: np.ndarray, tol: float) -> np.ndarray:
        return self.target - (X[self.point] * self.hx + Y[self.point] * self.hy) > tol


def _project(C: np.ndarray, dt: float, planes: dict, ws: _Workspace) -> float:
    """Cyclic projections onto every constraint set, in place.

    Returns the worst remaining violation. Pinned control points never move;
    constraints touching only pins are identically satisfied by the tripled
    endpoints. The velocity and acceleration chains are Gauss-Seidel
    recurrences and run point by point on Python floats; the halfspace pass
    runs one array update per slot of _Halfspaces. Each point sees the
    same floating-point operations in the same order as a plane-by-plane
    loop (tests/oracles.py::project_oracle).
    A C that violates nothing returns 0.0 untouched, as the first sweep would
    (in numpy, with a 1e-15 relative margin for np.hypot's one-ulp rounding).
    """
    problem = ws.problem
    v_bound = problem.v_max * dt
    a_bound = problem.a_max * (dt * dt)
    tol = problem.tol_residual
    halfspaces = ws.halfspaces(planes)
    vel, acc = np.diff(C, axis=0), C[2:] - 2.0 * C[1:-1] + C[:-2]
    if (problem.projection_sweeps > 0
            and np.hypot(*vel.T).max() * (1.0 + 1e-15) <= v_bound + tol
            and np.hypot(*acc.T).max() * (1.0 + 1e-15) <= a_bound + tol
            and not (halfspaces is not None and halfspaces.short(C[:, 0], C[:, 1], tol).any())):
        return 0.0
    free = ws.free.tolist()
    N = ws.N
    xs, ys = C[:, 0].tolist(), C[:, 1].tolist()

    worst = math.inf
    for _ in range(problem.projection_sweeps):
        worst = 0.0
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
        # Separation halfspaces: h.q >= d + margin for the four hull points.
        if halfspaces is not None:
            X, Y = np.array(xs), np.array(ys)
            # Slots ahead of the first violated entry move no point: skip them.
            hit = halfspaces.short(X, Y, tol)
            if hit.any():
                for ks, hx, hy, target in halfspaces.slots[halfspaces.slot[hit.argmax()]:]:
                    x, y = X[ks], Y[ks]
                    short = target - (x * hx + y * hy)
                    hit = short > tol
                    if hit.any():
                        worst = max(worst, float(short[hit].max()))
                        X[ks] = np.where(hit, x + hx * short, x)
                        Y[ks] = np.where(hit, y + hy * short, y)
                xs, ys = X.tolist(), Y.tolist()
        if worst <= tol:
            break
    C[:, 0] = xs
    C[:, 1] = ys
    return worst


def _step_control_points(C: np.ndarray, dt: float, planes: dict, ws: _Workspace) -> np.ndarray:
    """Projected gradient descent with backtracking; never increases cost."""
    problem = ws.problem
    base_eta = 1.0 / ws.lipschitz
    cost = ws.total_cost(C, dt)
    for _ in range(problem.pgd_max_iters):
        g = ws.grad(C)
        eta = base_eta
        accepted = False
        for _bt in range(30):
            trial = C - eta * g
            _project(trial, dt, planes, ws)
            trial_cost = ws.total_cost(trial, dt)
            if trial_cost < cost - 1e-15:
                C = trial
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


def _step_planes(C: np.ndarray, planes: dict, ws: _Workspace) -> dict:
    """Re-fit every separating line in one batched call, keeping the old line
    where no refit was found or the refit would not improve the current
    worst slack (keeps the iterate feasible)."""
    margin = ws.problem.sep_margin
    pairs = list(planes)
    hulls, polys = _pair_sets(C, pairs, ws.problem)
    verts = padded_vertices(polys)
    old_h, old_d = _plane_arrays(planes)
    found, h, d = find_separators(hulls, polys)
    take = found & (_plane_residual(hulls, verts, h, d, margin)
                    >= _plane_residual(hulls, verts, old_h, old_d, margin))
    return {pair: (h[m], float(d[m])) if take[m] else planes[pair]
            for m, pair in enumerate(pairs)}


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


def _dense_kinodynamic_check(traj: SplineTrajectory,
                             samples_per_segment: int = 1000) -> tuple[float, float]:
    """Max sampled speed and acceleration magnitude over the whole spline."""
    us = np.linspace(0.0, 1.0, samples_per_segment)
    vel_basis = np.column_stack([np.zeros_like(us), np.ones_like(us), 2.0 * us, 3.0 * us ** 2])
    acc_basis = np.column_stack([np.zeros_like(us), np.zeros_like(us),
                                 np.full_like(us, 2.0), 6.0 * us])
    vel_w = vel_basis @ BASIS_M
    acc_w = acc_basis @ BASIS_M
    dt = traj.dt_knot
    max_v = 0.0
    max_a = 0.0
    for i in range(traj.n_segments):
        Q = traj.control_points[i:i + 4]
        v = vel_w @ Q / dt
        a = acc_w @ Q / (dt * dt)
        max_v = max(max_v, float(np.linalg.norm(v, axis=1).max()))
        max_a = max(max_a, float(np.linalg.norm(a, axis=1).max()))
    return max_v, max_a


def solve(problem: TrajOptProblem) -> TrajOptSolution:
    """Run the alternating scheme to a monotone fixed point and verify it."""
    t_start = time.perf_counter()
    ws = _Workspace(problem)
    C, dt, planes = build(problem)
    dt = max(dt, _feasible_dt_floor(C, problem))
    lo, hi = problem.dt_bounds
    if dt > hi * (1.0 + 1e-12):
        raise TrajOptInfeasible(f"initial guess needs dt {dt:.6g} > dt_max {hi}")
    _project(C, dt, planes, ws)

    cost_trace = [ws.total_cost(C, dt)]
    status = "max_iters"
    n_outer = 0
    for n_outer in range(1, problem.max_outer + 1):
        planes = _step_planes(C, planes, ws)
        C = _step_control_points(C, dt, planes, ws)
        dt = _step_dt(C, ws)
        cost = ws.total_cost(C, dt)
        if cost > cost_trace[-1] + 1e-9 * max(1.0, abs(cost_trace[-1])):
            raise AssertionError(
                f"outer cost increased: {cost_trace[-1]:.12g} -> {cost:.12g}"
            )
        decrease = cost_trace[-1] - cost
        cost_trace.append(cost)
        if decrease < problem.tol_outer * max(1.0, abs(cost)):
            status = "converged"
            break

    residual = _project(C, dt, planes, ws)
    traj = SplineTrajectory(C, dt)
    max_v, max_a = _dense_kinodynamic_check(traj)
    hulls, polys = _pair_sets(C, list(planes), problem)
    sep_ok = bool(np.all(_plane_residual(hulls, padded_vertices(polys),
                                         *_plane_arrays(planes), 0.0) > 0.0))
    slack = 1.0 + 1e-6
    if status == "converged" and not (
        residual <= problem.tol_residual * 10.0
        and max_v <= problem.v_max * slack
        and max_a <= problem.a_max * slack
        and sep_ok
    ):
        status = "unverified"

    fit, jerk = ws.quad_cost(C)
    return TrajOptSolution(
        trajectory=traj,
        hyperplanes=planes,
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
        solve_time=time.perf_counter() - t_start,
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

    min_slack = math.inf
    all_ok = True
    for (i, j), (h, d) in solution.hyperplanes.items():
        poly = problem.obstacles[j]
        hull = C[i:i + 4]
        min_slack = min(min_slack, float(np.min(hull @ h)) - d, d - float(np.max(poly.vertices @ h)))
        if not verify_separation(hull, poly, h, d, margin=0.0):
            all_ok = False

    return ValidationReport(
        endpoint_error=endpoint_error,
        endpoint_rest_error=rest,
        ctrl_velocity_excess=vel_excess,
        ctrl_acceleration_excess=acc_excess,
        dense_speed_excess=max_v - problem.v_max,
        dense_accel_excess=max_a - problem.a_max,
        separation_min_slack=min_slack if solution.hyperplanes else math.inf,
        separation_all_verified=all_ok,
    )
