import dataclasses
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav import harness, rrt, trajopt
from funnelnav.bspline import SplineTrajectory
from funnelnav.errors import InfeasibleSeed, TrajOptInfeasible
from funnelnav.geometry import ConvexPolygon
from funnelnav.rrt import RrtPath
from funnelnav.scenario import load_scenario
from funnelnav.trajopt import (
    TrajOptProblem,
    TrajOptSettings,
    _Lines,
    _Workspace,
    _dense_kinodynamic_check,
    _feasible_dt_floor,
    _project,
    _step_dt,
    _step_planes,
    build,
    solve,
    validate,
)
from oracles import (dense_kinodynamic_oracle, project_oracle, refit_oracle, separation_report_oracle,
                     strictly_separates)


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


def lines_of(planes: dict, ws):
    """A dict {(segment, obstacle): (h, d)} as trajopt._Lines, in the dict's order,
    fitted to NaN hulls (a refit would take every hull as moved)."""
    seg = np.array([i for i, _ in planes], dtype=int)
    h = np.array([h for h, _ in planes.values()], dtype=float).reshape(-1, 2)
    d = np.array([d for _, d in planes.values()], dtype=float)
    hulls = np.full((len(seg), 4, 2), np.nan)
    return _Lines.of(seg, h, d, hulls, ws.problem.sep_margin, _Lines.order(seg, ws.free))


class TestProblemValidation:
    def test_weights_must_not_vanish(self):
        with pytest.raises(ValueError):
            free_problem(straight_path(), w1=0.0, w2=0.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            free_problem(straight_path(), v_max=-1.0)
        with pytest.raises(ValueError):
            free_problem(straight_path(), dt_bounds=(0.0, 1.0))

    def test_defaults_are_the_settings(self):
        # The solver defaults are stated once, on TrajOptSettings.
        problem = TrajOptProblem(rrt_path=straight_path(), obstacles=[], v_max=1.0, a_max=1.0)
        settings = {f.name: getattr(problem, f.name) for f in dataclasses.fields(TrajOptSettings)}
        assert settings == dataclasses.asdict(TrajOptSettings())


class TestBuild:
    def test_tripled_endpoints_and_waypoint_interior(self):
        path = straight_path(n=6)
        C, dt, lines = build(_Workspace(free_problem(path)))
        assert len(C) == 6 + 4
        assert np.array_equal(C[0], C[2]) and np.array_equal(C[0], path.waypoints[0])
        assert np.array_equal(C[-1], C[-3]) and np.array_equal(C[-1], path.waypoints[-1])
        assert np.array_equal(C[3:-3], path.waypoints[1:-1])
        assert len(lines.d) == 0

    def test_initial_dt_rule(self):
        # fastest leg at half the velocity bound
        path = straight_path(n=5, spacing=4.0)
        _, dt, _ = build(_Workspace(free_problem(path, v_max=2.0)))
        assert dt == pytest.approx(2.0 * 4.0 / 2.0)

    def test_infeasible_seed_reported(self):
        blocker = ConvexPolygon(np.array([[8.0, -3.0], [12.0, -3.0], [12.0, 3.0], [8.0, 3.0]]))
        problem = free_problem(straight_path(n=6), obstacles=[blocker])
        with pytest.raises(InfeasibleSeed) as exc:
            build(_Workspace(problem))
        seg, obs = exc.value.pair
        assert obs == 0
        assert 0 <= seg

    def test_line_init_gets_recovery_planes(self):
        blocker = ConvexPolygon(np.array([[8.0, -3.0], [12.0, -3.0], [12.0, 3.0], [8.0, 3.0]]))
        problem = free_problem(straight_path(n=6), obstacles=[blocker], init="line",
                               w1=0.0, w2=1.0)
        ws = _Workspace(problem)
        C, _, lines = build(ws)
        # every (segment, obstacle) pair got a line with the obstacle on its negative side
        assert lines.seg.tolist() == [i for i, _ in ws.pairs] == list(range(ws.N - 3))
        assert np.all(blocker.vertices @ lines.h.T < lines.d)

    def test_fit_targets_cover_interior_waypoints_once(self):
        # index bookkeeping: rows pair knots 2..N-5 with waypoints 1..N_X-2, and
        # jerk row i covers points i..i+3; the weights are the literals, bit for bit
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
            assert row[nz].tolist() == [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0]
        assert ws.A_jerk.shape == (ws.N - 3, ws.N)
        for i, row in enumerate(ws.A_jerk):
            nz = np.nonzero(row)[0]
            assert list(nz) == [i, i + 1, i + 2, i + 3]
            assert row[nz].tolist() == [-1.0, 3.0, -3.0, 1.0]


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

    def test_failed_verification_at_the_outer_cap_is_unverified(self, monkeypatch):
        path = wiggly_path(np.random.default_rng(5))
        problem = free_problem(path, w2=0.05, w3=0.1, max_outer=1)
        assert solve(problem).status == "max_iters"
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
            assert strictly_separates(hull, box, h, d, margin=0.0)
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
                               a_max=float(rng.uniform(0.2, 2.0)))
        ws = _Workspace(problem)
        C, _, _ = build(ws)
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
        lines = lines_of(planes, ws)
        with pytest.MonkeyPatch.context() as patch:  # hypothesis runs no function fixture per example
            patch.setattr(trajopt, "_PROJECTION_SWEEPS", sweeps)
            worst_batched = _project(C_batched, dt, lines, ws)
            worst_scalar = project_oracle(C_scalar, dt, lines, ws)
        assert C_batched.tobytes() == C_scalar.tobytes()
        assert worst_batched == worst_scalar

    def test_feasible_input_returns_at_once(self, monkeypatch):
        problem = free_problem(straight_path(), v_max=10.0, a_max=4.0)
        ws = _Workspace(problem)
        C, _, _ = build(ws)
        planes = {(i, 0): (np.array([0.0, 1.0]), -5.0) for i in range(ws.N - 3)}
        before = C.tobytes()
        monkeypatch.setattr(trajopt.math, "hypot", None)   # no scalar sweep runs
        assert _project(C, 2.0, lines_of(planes, ws), ws) == 0.0
        assert C.tobytes() == before

    @staticmethod
    def _assert_matches_oracle(C, dt, planes, ws):
        C_batched, C_scalar = C.copy(), C.copy()
        lines = lines_of(planes, ws)
        assert _project(C_batched, dt, lines, ws) == project_oracle(C_scalar, dt, lines, ws)
        assert C_batched.tobytes() == C_scalar.tobytes()

    @pytest.mark.parametrize("bound", ["velocity", "acceleration"])
    def test_norms_within_ulps_of_the_bound(self, bound):
        # The largest norm lands a few ulps either side of bound*dt + tol,
        # where np.hypot and math.hypot may disagree by one ulp, and far
        # enough inside for the early exit to take it.
        rng = np.random.default_rng(26)
        path = RrtPath(np.cumsum(rng.uniform(0.5, 3.0, (9, 2)), axis=0))
        C, _, _ = build(_Workspace(free_problem(path)))
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
        C, _, _ = build(ws)
        h = np.array([0.0, 1.0])
        planes = {(i, 0): (h, float(C[i:i + 4, 1].min()) - 1.0) for i in range(ws.N - 3)}
        tol = problem.tol_residual
        for short in (0.5 * tol, tol, 2.0 * tol, 0.3):
            i = ws.N // 2 - 3
            target = float(C[i:i + 4, 1].min()) + short - problem.sep_margin
            self._assert_matches_oracle(C, 1.0, {**planes, (i, 0): (h, target)}, ws)

    def test_nan_point_runs_the_chains(self, monkeypatch):
        # No screen passes a NaN, so the scalar chains run and spread it.
        monkeypatch.setattr(trajopt, "_PROJECTION_SWEEPS", 3)
        problem = free_problem(wiggly_path(np.random.default_rng(29)))
        ws = _Workspace(problem)
        C, _, _ = build(ws)
        C[ws.N // 2, 0] = np.nan
        plane = (np.array([0.0, 1.0]), float(C[0:4, 1].min()) + 0.1)
        self._assert_matches_oracle(C, 1.0, {(0, 0): plane}, ws)

    @pytest.mark.parametrize("sweeps", [1, 300])
    def test_points_short_from_a_later_plane(self, sweeps, monkeypatch):
        # Point k's first plane is not short, its second is, and its third
        # turns short only once the second has moved it. Every segment also
        # gets a plane at its mean height, so several points are short on
        # several planes.
        monkeypatch.setattr(trajopt, "_PROJECTION_SWEEPS", sweeps)
        problem = free_problem(wiggly_path(np.random.default_rng(28), n=12), v_max=1e6, a_max=1e6)
        ws = _Workspace(problem)
        C, _, _ = build(ws)
        up, down, margin = np.array([0.0, 1.0]), np.array([0.0, -1.0]), problem.sep_margin
        i = ws.N // 2 - 3
        y = float(C[i + 3, 1])
        planes = {(i, 0): (up, float(C[i:i + 4, 1].min()) - 1.0 - margin),
                  (i + 1, 0): (up, y + 0.5 - margin),
                  (i + 2, 0): (down, -(y + 0.3) - margin)}
        planes.update({(s, 1): (up, float(C[s:s + 4, 1].mean()) - margin) for s in range(ws.N - 3)})
        self._assert_matches_oracle(C, 1.0, planes, ws)

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


class TestGoldenTrajectories:
    """sha256 of control_points.tobytes() and repr(dt_knot), recorded before
    the per-point halfspace pass, the edge-level separator screen and the
    residual hand-off: those changes keep every trajectory bit-identical.
    _ARTIFACTS holds the sha256 of the trajectory.json that `funnelnav traj`
    writes (json.dumps(solution.to_dict(), indent=2), lines included),
    recorded before the refit's lines became one array object.
    Recorded with numpy 2.4.6 on x86-64; another BLAS may round the solver's
    matrix products differently."""

    @staticmethod
    def _digest(solution):
        traj = solution.trajectory
        return hashlib.sha256(traj.control_points.tobytes()).hexdigest(), repr(traj.dt_knot)

    # The artifact pins, by builtin name and by the cold start's max_outer.
    _ARTIFACTS = {
        "benign": "9a3371811dd8729901f0ca335e9715adf29c52542509580fdb23da61d7cddb1b",
        "long-run": "a662d81d6dccd7425779967577896515225947b7bf443ff1e13db4677e38dc11",
        "trajectory-demo": "ff1d6fe0b54ff978b2041bb88cd1d3f9a1b6630d0df10264b53966967b6eb795",
        4: "13f92d2c341d01d3e26c7ddba8e213dfe39d8003bc370b83db8b45dea08de34b",
        20: "2a069a261bea21aedd8e13746b02eb51304ad0b8a4d5250a98df141750251ac7",
    }

    @staticmethod
    def _artifact(solution):
        return hashlib.sha256(json.dumps(solution.to_dict(), indent=2).encode()).hexdigest()

    @pytest.mark.parametrize("name, digest", [
        ("benign", ("c81cdec40dfafa3ea230f4103f34a1f0307e7cfdf822c14525c8297ca39084d6", "3.177473535174501")),
        ("long-run", ("a537c6bc96808be9fa9fdcd5febb8d8513e7d69730c2800e16a64f37bbb4a63b",
                      "3.2024875908151498")),
        ("trajectory-demo", ("a8a5bf7541f66500f6ac7fe1a5a21e6fc7ff64dece9a46da4ac5824e450dfbf9",
                             "2.260853745869754")),
    ])
    def test_seeded_builtins(self, name, digest):
        _, solution = harness.plan_and_solve(load_scenario(name))
        assert self._digest(solution) == digest
        assert self._artifact(solution) == self._ARTIFACTS[name]

    @pytest.mark.parametrize("max_outer, digest", [
        (4, ("531cbd6ccd74973d352d57ccc7a656f4ab29624077ef05a83111921bf13b245c", "1.6291801194561208")),
        (20, ("3a6e4a38ef70548dbb112a6fae0e6f73802be949a9eeab2541398ec3560e217b", "1.4944092146693793")),
    ])
    def test_no_prior_cold_start(self, max_outer, digest):
        scenario = load_scenario("trajectory-demo")
        path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                        scenario.goal, scenario.planner)
        problem = harness.make_problem(scenario, path, w1=0.0, init="line")
        problem.max_outer = max_outer
        solution = solve(problem)
        # Setting max_outer after make_problem caps the solve (perfbench's ColdStart does so).
        assert solution.status == "max_iters" and solution.n_outer == max_outer
        assert self._digest(solution) == digest
        assert self._artifact(solution) == self._ARTIFACTS[max_outer]


class TestMovedHullRefit:
    """_step_planes sends the kernel only the pairs whose hull bits moved since
    their lines were fitted, and returns the every-pair refit's lines
    (oracles.refit_oracle)."""

    # sha256 of json.dumps(solution.to_dict(), sort_keys=True), recorded while
    # every refit still sent every pair to the kernel: plan_and_solve on
    # long-run, and the no-prior solve of trajectory-demo capped at 8 outer
    # iterations, each with_seed(seed). Recorded with numpy 2.4.6 on x86-64.
    _LONG_RUN = {
        1: "147f8a6bc1ba6c5db7400484a00197c84fd2c4414e524c62ee261048c86b864c",
        2: "c8f446039324ec14af2349982b942b22a3931172df2199a745e7698731d70305",
        3: "434d5c67a13c62b6b1cabf92aad1390cfaf6c38eed08779d7828e145f28fc22b",
        4: "282a1b6974760b57120efde6576ecfe35b0019c1e672ab7f3b83b4b9d7952b31",
        5: "69dfbe27fed4ed190eacc19338e8b2d4152d407d88779a3c038fb4b389b8a715",
        6: "043dd3a1b365db00218214038f395be5739a6781697028668edcc2098cdde23f",
    }
    _LINE_INIT = {
        1: "b41de3f2f8b74ad63f6596046984558bfa4a9cb8a74685fdc746a3e7a7be0452",
        2: "2236629ec633bfe4b4b909b86e6802e460d9041b3519a0a7aabce66a590bba04",
        3: "72732d359064756a693fcd3afb0afc4ae2420bc59a167443d87345f89bb8fdb8",
        4: "c7dd399922f0e4f863a101f414f811165f1bf466c10215d7f1fb1e39722cde3c",
        5: "e601c5619259dd788d5a2294b7595102aa32a1c50af55f4b0f555518c799318d",
        6: "75dc094cd67eefdd62c9eeb054d3587f10617bae49091ce15a0274fea513ac90",
    }

    @staticmethod
    def _digest(solution):
        return hashlib.sha256(json.dumps(solution.to_dict(), sort_keys=True).encode()).hexdigest()

    @staticmethod
    def _line_init(seed):
        scenario = load_scenario("trajectory-demo").with_seed(seed)
        path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                        scenario.goal, scenario.planner)
        problem = harness.make_problem(scenario, path, w1=0.0, init="line")
        problem.max_outer = 8
        return problem

    @pytest.mark.parametrize("seed", sorted(_LONG_RUN))
    def test_seeded_long_run_pins(self, seed):
        _, solution = harness.plan_and_solve(load_scenario("long-run").with_seed(seed))
        assert self._digest(solution) == self._LONG_RUN[seed]

    @pytest.mark.parametrize("seed", sorted(_LINE_INIT))
    def test_line_init_pins(self, seed):
        assert self._digest(solve(self._line_init(seed))) == self._LINE_INIT[seed]

    @staticmethod
    def _spy(monkeypatch):
        """Per refit, (first after build, pairs moved, pairs), asserting that the
        kernel got exactly the moved pairs and the lines are the oracle's."""
        real_build, real_step, real_kernel = trajopt.build, trajopt._step_planes, trajopt.find_separators
        kernel_calls, refits, fitted = [], [], {}

        def kernel(hulls, verts):
            kernel_calls.append((hulls.copy(), verts.copy()))
            return real_kernel(hulls, verts)

        def spied_build(ws):
            C, dt, lines = real_build(ws)
            fitted.update(hulls=C[ws.pair_index], first=True)
            return C, dt, lines

        def spied_step(C, lines, ws):
            hulls = C[ws.pair_index]
            moved = np.array([a.tobytes() != b.tobytes() for a, b in zip(hulls, fitted["hulls"])], dtype=bool)
            want_h, want_d = refit_oracle(C, lines, ws)
            n = len(kernel_calls)
            new = real_step(C, lines, ws)
            calls = kernel_calls[n:]
            if moved.any():
                assert len(calls) == 1
                assert calls[0][0].tobytes() == hulls[moved].tobytes()
                assert calls[0][1].tobytes() == ws.pair_verts[moved].tobytes()
            else:
                assert calls == [] and new is lines
            assert new.h.tobytes() == want_h.tobytes() and new.d.tobytes() == want_d.tobytes()
            assert new.hulls.tobytes() == hulls.tobytes()
            refits.append((fitted["first"], int(moved.sum()), len(moved)))
            fitted.update(hulls=hulls, first=False)
            return new

        monkeypatch.setattr(trajopt, "find_separators", kernel)
        monkeypatch.setattr(trajopt, "build", spied_build)
        monkeypatch.setattr(trajopt, "_step_planes", spied_step)
        return refits

    def test_kernel_sees_only_moved_pairs(self, monkeypatch):
        refits = self._spy(monkeypatch)
        _, solution = harness.plan_and_solve(load_scenario("long-run").with_seed(4))
        assert self._digest(solution) == self._LONG_RUN[4]
        # build's lines are feasible, so the projection after it moves no hull.
        assert [moved for first, moved, _ in refits if first] == [0]
        assert any(0 < moved for first, moved, _ in refits if not first)

    def test_line_init_refits_part_of_the_pairs(self, monkeypatch):
        refits = self._spy(monkeypatch)
        assert self._digest(solve(self._line_init(1))) == self._LINE_INIT[1]
        assert len(refits) == 8 and any(0 < moved < pairs for _, moved, pairs in refits)

    def test_negative_zero_counts_as_moved(self, monkeypatch):
        blocker = ConvexPolygon(np.array([[8.0, 3.0], [12.0, 3.0], [12.0, 6.0], [8.0, 6.0]]))
        ws = _Workspace(free_problem(straight_path(n=6), obstacles=[blocker]))
        C, _, lines = build(ws)
        assert lines.hulls.tobytes() == C[ws.pair_index].tobytes()
        calls = []
        real = trajopt.find_separators
        monkeypatch.setattr(trajopt, "find_separators",
                            lambda hulls, verts: calls.append(hulls) or real(hulls, verts))
        assert _step_planes(C, lines, ws) is lines and calls == []
        k = 4
        assert ws.free[k] and C[k, 1] == 0.0 and not np.signbit(C[k, 1])
        C[k, 1] = -0.0
        new = _step_planes(C, lines, ws)
        touched = (ws.pair_index == k).any(axis=1)
        assert touched.sum() == 4
        assert len(calls) == 1 and calls[0].tobytes() == C[ws.pair_index][touched].tobytes()
        assert new.hulls.tobytes() == C[ws.pair_index].tobytes()
        want_h, want_d = refit_oracle(C, lines, ws)
        assert new.h.tobytes() == want_h.tobytes() and new.d.tobytes() == want_d.tobytes()


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

    @pytest.mark.parametrize("name", ["long-run", "trajectory-demo"])
    def test_separation_matches_pair_by_pair_oracle(self, name):
        # The stacked slack and verdict against the per-pair loop, on the
        # seeded solve, with one hull point pushed into each obstacle in
        # turn, and on the no-prior cold start's first iterates.
        scenario = load_scenario(name)
        path, sol = harness.plan_and_solve(scenario)
        problem = harness.make_problem(scenario, path)
        cases = [sol.trajectory.control_points]
        for poly in problem.obstacles:
            C = sol.trajectory.control_points.copy()
            C[len(C) // 2] = poly.centroid()
            cases.append(C)
        cold = harness.make_problem(scenario, path, w1=0.0, init="line")
        cold.max_outer = 1
        cold_sol = solve(cold)
        verdicts = set()
        for C, planes in [(C, sol.hyperplanes) for C in cases] + [
                (cold_sol.trajectory.control_points, cold_sol.hyperplanes)]:
            sol.trajectory = SplineTrajectory(C, sol.trajectory.dt_knot)
            sol.hyperplanes = planes
            report = validate(sol, problem)
            oracle = separation_report_oracle(C, planes, problem.obstacles)
            assert (report.separation_min_slack, report.separation_all_verified) == oracle
            verdicts.add(oracle[1])
        assert verdicts == {True, False}

    def test_zero_normal_raises(self):
        box = ConvexPolygon(np.array([[10.0, -4.0], [20.0, -4.0], [20.0, 1.5], [10.0, 1.5]]))
        waypoints = np.array([[0.0, 0.0], [5.0, 2.5], [10.0, 5.0], [15.0, 5.5],
                              [20.0, 5.0], [25.0, 2.5], [30.0, 0.0]])
        problem = free_problem(RrtPath(waypoints), obstacles=[box], w2=0.05, w3=0.2)
        sol = solve(problem)
        pair = next(iter(sol.hyperplanes))
        sol.hyperplanes = {**sol.hyperplanes, pair: (np.zeros(2), 0.0)}
        with pytest.raises(ValueError, match="non-zero"):
            validate(sol, problem)

    def test_dt_floor_helper(self):
        path = straight_path(n=6, spacing=3.0)
        problem = free_problem(path, v_max=1.5, a_max=1.0)
        C, _, _ = build(_Workspace(problem))
        floor = _feasible_dt_floor(C, problem)
        d1 = np.linalg.norm(np.diff(C, axis=0), axis=1).max()
        assert floor >= d1 / problem.v_max - 1e-12


class TestDenseCheck:
    """The one-pass dense check against the segment-by-segment loop, bit for bit."""

    @pytest.mark.parametrize("n_seg", [1, 2, 7, 8, 9, 17, 45])
    def test_random_splines_match_oracle(self, n_seg):
        # From one segment to several passes of trajopt._DENSE_BLOCK (8)
        # segments. The check reads only control_points and dt_knot, and
        # SplineTrajectory needs five segments, so shorter ones are stand-ins.
        rng = np.random.default_rng(40 + n_seg)
        for _ in range(10):
            C = np.cumsum(rng.normal(size=(n_seg + 3, 2)) * rng.uniform(0.01, 10.0), axis=0)
            traj = SimpleNamespace(control_points=C, dt_knot=float(rng.uniform(0.05, 5.0)),
                                   n_segments=n_seg)
            got = _dense_kinodynamic_check(traj)
            assert got == dense_kinodynamic_oracle(traj)
            assert all(type(x) is float for x in got)

    @pytest.mark.parametrize("name", ["benign", "long-run", "trajectory-demo"])
    def test_seeded_builtins_match_oracle(self, name):
        _, solution = harness.plan_and_solve(load_scenario(name))
        traj = solution.trajectory
        assert _dense_kinodynamic_check(traj) == dense_kinodynamic_oracle(traj)

    def test_nan_control_point(self):
        # The oracle, like the dense check, must not drop the NaN samples.
        problem = free_problem(wiggly_path(np.random.default_rng(5)), w2=0.05, w3=0.1)
        sol = solve(problem)
        assert validate(sol, problem).ok
        C = sol.trajectory.control_points.copy()
        C[len(C) // 2, 1] = np.nan
        sol.trajectory = SplineTrajectory(C, sol.trajectory.dt_knot)
        for max_v, max_a in (_dense_kinodynamic_check(sol.trajectory),
                             dense_kinodynamic_oracle(sol.trajectory)):
            assert math.isnan(max_v) and math.isnan(max_a)
        report = validate(sol, problem)
        assert math.isnan(report.dense_speed_excess) and math.isnan(report.dense_accel_excess)
        assert not report.ok

    def test_nan_iterate_is_unverified(self, monkeypatch):
        # Obstacle-free, so no plane checks the iterate; _project reports 0.0
        # for a NaN, and solve reports NaN for a non-finite iterate.
        problem = free_problem(wiggly_path(np.random.default_rng(5)), w2=0.05, w3=0.1, max_outer=3)
        real = trajopt._step_control_points

        def corrupting(C, dt, planes, ws):
            C = real(C, dt, planes, ws)
            C[ws.N // 2, 0] = np.nan
            return C

        monkeypatch.setattr(trajopt, "_step_control_points", corrupting)
        sol = solve(problem)
        assert math.isnan(sol.residuals["projection"])
        assert math.isnan(sol.residuals["max_speed"])
        assert sol.status == "unverified"


class TestStepDt:
    def test_closed_form(self):
        path = wiggly_path(np.random.default_rng(5))
        timed = free_problem(path, w3=1.0)
        C, _, _ = build(_Workspace(timed))
        floor = _feasible_dt_floor(C, timed)
        assert timed.dt_bounds[0] < floor < timed.dt_bounds[1]
        # w3 > 0: the cost w3*dt is least at the feasible floor.
        assert _step_dt(C, _Workspace(timed)) == floor
        # w3 = 0: no time pressure, the loosest spacing.
        assert _step_dt(C, _Workspace(free_problem(path, w3=0.0))) == timed.dt_bounds[1]
        # A floor above the box has no feasible spacing.
        with pytest.raises(TrajOptInfeasible):
            _step_dt(C, _Workspace(free_problem(path, w3=1.0, dt_bounds=(0.01, 0.5 * floor))))
