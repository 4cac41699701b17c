import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav import harness, rrt, trajopt
from funnelnav.errors import InfeasibleSeed, TrajOptInfeasible
from funnelnav.geometry import ConvexPolygon, verify_separation
from funnelnav.rrt import RrtPath
from funnelnav.scenario import load_scenario
from funnelnav.trajopt import (
    TrajOptProblem,
    _Workspace,
    _feasible_dt_floor,
    _project,
    _step_dt,
    build,
    solve,
    validate,
)
from oracles import project_oracle


def straight_path(n=6, spacing=5.0):
    return RrtPath(np.column_stack([np.arange(n) * spacing, np.zeros(n)]))


def wiggly_path(rng, n=8, spacing=5.0):
    xs = np.arange(n) * spacing
    ys = rng.uniform(-2.0, 2.0, n)
    return RrtPath(np.column_stack([xs, ys]))


def free_problem(path, **overrides):
    defaults = dict(obstacles=[], v_max=10.0, a_max=4.0, w1=1.0, w2=0.0, w3=0.0,
                    dt_bounds=(0.05, 60.0))
    defaults.update(overrides)
    return TrajOptProblem(rrt_path=path, **defaults)


class TestProblemValidation:
    def test_weights_must_not_vanish(self):
        with pytest.raises(ValueError):
            free_problem(straight_path(), w1=0.0, w2=0.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            free_problem(straight_path(), v_max=-1.0)
        with pytest.raises(ValueError):
            free_problem(straight_path(), dt_bounds=(0.0, 1.0))


class TestBuild:
    def test_tripled_endpoints_and_waypoint_interior(self):
        path = straight_path(n=6)
        C, dt, planes = build(free_problem(path))
        assert len(C) == 6 + 4
        assert np.array_equal(C[0], C[2]) and np.array_equal(C[0], path.waypoints[0])
        assert np.array_equal(C[-1], C[-3]) and np.array_equal(C[-1], path.waypoints[-1])
        assert np.array_equal(C[3:-3], path.waypoints[1:-1])
        assert planes == {}

    def test_initial_dt_rule(self):
        # fastest leg at half the velocity bound
        path = straight_path(n=5, spacing=4.0)
        _, dt, _ = build(free_problem(path, v_max=2.0))
        assert dt == pytest.approx(2.0 * 4.0 / 2.0)

    def test_infeasible_seed_reported(self):
        blocker = ConvexPolygon(np.array([[8.0, -3.0], [12.0, -3.0], [12.0, 3.0], [8.0, 3.0]]))
        problem = free_problem(straight_path(n=6), obstacles=[blocker])
        with pytest.raises(InfeasibleSeed) as exc:
            build(problem)
        seg, obs = exc.value.pair
        assert obs == 0
        assert 0 <= seg

    def test_line_init_gets_recovery_planes(self):
        blocker = ConvexPolygon(np.array([[8.0, -3.0], [12.0, -3.0], [12.0, 3.0], [8.0, 3.0]]))
        problem = free_problem(straight_path(n=6), obstacles=[blocker], init="line",
                               w1=0.0, w2=1.0)
        C, _, planes = build(problem)
        assert planes  # every (segment, obstacle) pair got a line

    def test_fit_targets_cover_interior_waypoints_once(self):
        # index bookkeeping: rows pair knots 2..N-5 with waypoints 1..N_X-2
        path = wiggly_path(np.random.default_rng(0), n=9)
        ws = _Workspace(free_problem(path))
        X = path.waypoints
        assert ws.N == len(X) + 4
        assert np.array_equal(ws.T_fit, X[1:-1])
        n_fit = len(ws.T_fit)
        for r in range(n_fit):
            row = ws.A_fit[r]
            nz = np.nonzero(row)[0]
            assert list(nz) == [2 + r, 3 + r, 4 + r]
            assert np.allclose(row[nz], [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0])


class TestSolve:
    def test_pure_fit_reaches_interpolation(self):
        rng = np.random.default_rng(1)
        path = wiggly_path(rng)
        sol = solve(free_problem(path, w1=1.0, w2=0.0, w3=0.0))
        assert sol.status == "converged"
        assert sol.cost_fit < 1e-6
        traj = sol.trajectory
        assert np.max(np.abs(traj.eval(0.0) - path.waypoints[0])) < 1e-12
        assert np.max(np.abs(traj.eval(traj.duration) - path.waypoints[-1])) < 1e-12
        v0, a0, _ = traj.eval_derivatives(0.0)
        vT, aT, _ = traj.eval_derivatives(traj.duration)
        assert np.all(v0 == 0.0) and np.all(a0 == 0.0)
        assert np.all(vT == 0.0) and np.all(aT == 0.0)

    def test_monotone_cost_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            path = wiggly_path(rng, n=int(rng.integers(5, 10)))
            sol = solve(free_problem(path, w2=0.05, w3=0.1))
            trace = np.array(sol.cost_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_deterministic(self):
        path = wiggly_path(np.random.default_rng(3))
        p1 = free_problem(path, w2=0.01, w3=0.5)
        p2 = free_problem(path, w2=0.01, w3=0.5)
        s1, s2 = solve(p1), solve(p2)
        assert s1.trajectory.control_points.tobytes() == s2.trajectory.control_points.tobytes()
        assert s1.trajectory.dt_knot == s2.trajectory.dt_knot

    def test_control_point_bound_implies_dense_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            path = wiggly_path(rng, n=int(rng.integers(5, 9)))
            problem = free_problem(path, v_max=float(rng.uniform(2, 6)),
                                   a_max=float(rng.uniform(0.5, 2.0)), w2=0.02, w3=1.0)
            sol = solve(problem)
            traj = sol.trajectory
            dt = traj.dt_knot
            d1 = np.linalg.norm(np.diff(traj.control_points, axis=0), axis=1)
            assert np.all(d1 <= problem.v_max * dt + 1e-8)
            ts = np.linspace(0.0, traj.duration, 400)
            speeds = [np.linalg.norm(traj.eval_derivatives(t)[0]) for t in ts]
            accels = [np.linalg.norm(traj.eval_derivatives(t)[1]) for t in ts]
            assert max(speeds) <= problem.v_max * (1.0 + 1e-6)
            assert max(accels) <= problem.a_max * (1.0 + 1e-6)

    def test_time_weight_shrinks_duration(self):
        path = straight_path(n=8, spacing=4.0)
        slow = solve(free_problem(path, w2=0.01, w3=0.0))
        fast = solve(free_problem(path, w2=0.01, w3=5.0))
        assert fast.trajectory.duration <= slow.trajectory.duration + 1e-9

    def test_failed_verification_is_unverified(self, monkeypatch):
        path = wiggly_path(np.random.default_rng(5))
        problem = free_problem(path, w2=0.05, w3=0.1)
        assert solve(problem).status == "converged"
        monkeypatch.setattr(trajopt, "_dense_kinodynamic_check",
                            lambda traj: (2.0 * problem.v_max, 0.0))
        assert solve(problem).status == "unverified"

    def test_infeasible_dt_box(self):
        path = straight_path(n=6, spacing=50.0)
        with pytest.raises(TrajOptInfeasible):
            solve(free_problem(path, v_max=0.5, dt_bounds=(0.01, 1.0)))

    def test_separation_respected_around_obstacle(self):
        # corridor above a box the straight chord would cut through
        waypoints = np.array([
            [0.0, 0.0], [5.0, 2.5], [10.0, 5.0], [15.0, 5.5],
            [20.0, 5.0], [25.0, 2.5], [30.0, 0.0],
        ])
        box = ConvexPolygon(np.array([[10.0, -4.0], [20.0, -4.0], [20.0, 1.5], [10.0, 1.5]]))
        problem = free_problem(RrtPath(waypoints), obstacles=[box], w2=0.05, w3=0.2,
                               sep_margin=0.01)
        sol = solve(problem)
        assert sol.status == "converged"
        for (i, j), (h, d) in sol.hyperplanes.items():
            hull = sol.trajectory.control_points[i:i + 4]
            assert verify_separation(hull, box, h, d, margin=0.0)
        report = validate(sol, problem)
        assert report.ok


class TestProjection:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(5, 50),
           sweeps=st.sampled_from([1, 300]))
    def test_matches_scalar_oracle(self, seed, n_points, sweeps):
        # n_points waypoints give n_points + 4 control points, three pinned
        # at each end; every (segment, obstacle) pair gets a plane, inserted
        # in shuffled order so interior points see the planes of their four
        # segments out of lexicographic order.
        rng = np.random.default_rng(seed)
        path = RrtPath(np.cumsum(rng.uniform(-3.0, 3.0, (n_points, 2)), axis=0))
        problem = free_problem(path, v_max=float(rng.uniform(0.5, 4.0)),
                               a_max=float(rng.uniform(0.2, 2.0)), projection_sweeps=sweeps)
        ws = _Workspace(problem)
        C, _, _ = build(problem)
        pairs = [(i, j) for i in range(ws.N - 3) for j in range(int(rng.integers(1, 5)))]
        order = rng.permutation(len(pairs))
        if np.all(np.diff(order) > 0):
            order = order[::-1]
        planes = {}
        for m in order:
            i, j = pairs[m]
            angle = rng.uniform(0.0, 2.0 * np.pi)
            h = np.array([np.cos(angle), np.sin(angle)])
            planes[(i, j)] = (h, float(C[i:i + 4].mean(axis=0) @ h + rng.uniform(-2.0, 1.0)))
        dt = float(rng.uniform(0.3, 2.0))
        C_batched, C_scalar = C.copy(), C.copy()
        worst_batched = _project(C_batched, dt, planes, ws)
        worst_scalar = project_oracle(C_scalar, dt, planes, ws)
        assert C_batched.tobytes() == C_scalar.tobytes()
        assert worst_batched == worst_scalar

    def test_feasible_input_returns_at_once(self, monkeypatch):
        problem = free_problem(straight_path(), v_max=10.0, a_max=4.0)
        ws = _Workspace(problem)
        C, _, _ = build(problem)
        planes = {(i, 0): (np.array([0.0, 1.0]), -5.0) for i in range(ws.N - 3)}
        before = C.tobytes()
        monkeypatch.setattr(trajopt.math, "hypot", None)   # no scalar sweep runs
        assert _project(C, 2.0, planes, ws) == 0.0
        assert C.tobytes() == before

    @staticmethod
    def _assert_matches_oracle(C, dt, planes, ws):
        C_batched, C_scalar = C.copy(), C.copy()
        assert _project(C_batched, dt, planes, ws) == project_oracle(C_scalar, dt, planes, ws)
        assert C_batched.tobytes() == C_scalar.tobytes()

    @pytest.mark.parametrize("bound", ["velocity", "acceleration"])
    def test_norms_within_ulps_of_the_bound(self, bound):
        # The largest norm lands a few ulps either side of bound*dt + tol,
        # where np.hypot and math.hypot may disagree by one ulp, and far
        # enough inside for the early exit to take it.
        rng = np.random.default_rng(26)
        path = RrtPath(np.cumsum(rng.uniform(0.5, 3.0, (9, 2)), axis=0))
        C, _, _ = build(free_problem(path))
        if bound == "velocity":
            g = C[1:] - C[:-1]
        else:
            g = C[2:] - 2.0 * C[1:-1] + C[:-2]
        top = max(math.hypot(x, y) for x, y in g.tolist())
        dt = 1.5
        for steps in [*range(-4, 5), 8, 16, 64]:
            edge = top + steps * math.ulp(top) - 1e-8
            limit = edge / dt if bound == "velocity" else edge / (dt * dt)
            loose = dict(v_max=1e6) if bound == "acceleration" else dict(a_max=1e6)
            problem = free_problem(path, **{f"{bound[0]}_max": limit}, **loose)
            self._assert_matches_oracle(C, dt, {}, _Workspace(problem))

    def test_one_short_halfspace(self):
        problem = free_problem(wiggly_path(np.random.default_rng(27)), v_max=1e6, a_max=1e6)
        ws = _Workspace(problem)
        C, _, _ = build(problem)
        h = np.array([0.0, 1.0])
        planes = {(i, 0): (h, float(C[i:i + 4, 1].min()) - 1.0) for i in range(ws.N - 3)}
        tol = problem.tol_residual
        for short in (0.5 * tol, tol, 2.0 * tol, 0.3):
            i = ws.N // 2 - 3
            target = float(C[i:i + 4, 1].min()) + short - problem.sep_margin
            self._assert_matches_oracle(C, 1.0, {**planes, (i, 0): (h, target)}, ws)

    @pytest.mark.parametrize("cold", [False, True], ids=["seeded", "no-prior"])
    def test_solve_matches_scalar_oracle(self, monkeypatch, cold):
        scenario = load_scenario("trajectory-demo")
        path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                        scenario.goal, scenario.planner)

        def solve_demo():
            if not cold:
                return solve(harness.make_problem(scenario, path))
            problem = harness.make_problem(scenario, path, w1=0.0, init="line")
            problem.max_outer = 4
            return solve(problem)

        batched = solve_demo()
        monkeypatch.setattr(trajopt, "_project", project_oracle)
        scalar = solve_demo()
        assert batched.cost_trace == scalar.cost_trace
        assert batched.to_dict() == scalar.to_dict()


class TestValidate:
    def test_corrupted_point_flagged(self):
        waypoints = np.array([
            [0.0, 0.0], [5.0, 2.5], [10.0, 5.0], [15.0, 5.5],
            [20.0, 5.0], [25.0, 2.5], [30.0, 0.0],
        ])
        box = ConvexPolygon(np.array([[10.0, -4.0], [20.0, -4.0], [20.0, 1.5], [10.0, 1.5]]))
        problem = free_problem(RrtPath(waypoints), obstacles=[box], w2=0.05, w3=0.2)
        sol = solve(problem)
        assert validate(sol, problem).ok
        corrupted = sol.trajectory.control_points.copy()
        corrupted[len(corrupted) // 2] = box.centroid()
        sol.trajectory = sol.trajectory.__class__(corrupted, sol.trajectory.dt_knot)
        report = validate(sol, problem)
        assert not report.separation_all_verified
        assert not report.ok

    def test_dt_floor_helper(self):
        path = straight_path(n=6, spacing=3.0)
        problem = free_problem(path, v_max=1.5, a_max=1.0)
        C, _, _ = build(problem)
        floor = _feasible_dt_floor(C, problem)
        d1 = np.linalg.norm(np.diff(C, axis=0), axis=1).max()
        assert floor >= d1 / problem.v_max - 1e-12


class TestStepDt:
    def test_closed_form(self):
        path = wiggly_path(np.random.default_rng(5))
        timed = free_problem(path, w3=1.0)
        C, _, _ = build(timed)
        floor = _feasible_dt_floor(C, timed)
        assert timed.dt_bounds[0] < floor < timed.dt_bounds[1]
        # w3 > 0: the cost w3*dt is least at the feasible floor.
        assert _step_dt(C, _Workspace(timed)) == floor
        # w3 = 0: no time pressure, the loosest spacing.
        assert _step_dt(C, _Workspace(free_problem(path, w3=0.0))) == timed.dt_bounds[1]
        # A floor above the box has no feasible spacing.
        with pytest.raises(TrajOptInfeasible):
            _step_dt(C, _Workspace(free_problem(path, w3=1.0, dt_bounds=(0.01, 0.5 * floor))))
