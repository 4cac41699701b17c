"""Acceptance suite: every promised behavior at its stated tolerance.

Each test prints one pass/fail line (also echoed in the terminal summary).
The long-run Monte-Carlo sweep is shared by the first three criteria.
"""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acceptance_report import record
from oracles import (clamped_spline, deboor_eval_batch, hulls_intersect_oracle, random_polygon,
                     strictly_separates)

from funnelnav import feasibility, harness, rrt, trajopt
from funnelnav.cli import main as cli_main
from funnelnav.geometry import find_separator, find_separators, padded_vertices
from funnelnav.rrt import RrtPath
from funnelnav.scenario import load_scenario
from funnelnav.trajopt import TrajOptProblem

N_SWEEP = 100
SWEEP_BUDGET_S = 300.0


@pytest.fixture(scope="module")
def long_run_sweep():
    scenario = load_scenario("long-run")
    report = feasibility.estimate_bounds(scenario, n_samples=1000)
    t0 = time.perf_counter()
    result = harness.sweep(scenario, N_SWEEP)
    elapsed = time.perf_counter() - t0
    return scenario, report, result, elapsed


class TestCriterion1FunnelInvariance:
    def test_zero_violations_across_sweep(self, long_run_sweep):
        scenario, report, result, elapsed = long_run_sweep
        agg = result.aggregate()
        ok = (report.verdicts["surge_authority"] and report.verdicts["torque_authority"]
              and agg["episodes"] == N_SWEEP
              and agg["total_violations"] == 0
              and agg["failed_episodes"] == 0
              and elapsed < SWEEP_BUDGET_S)
        record(1, ok, f"{N_SWEEP}-seed sweep: {agg['total_violations']} funnel violations, "
                      f"feasibility margins surge {report.margins['surge_authority']:+.0f} N, "
                      f"torque {report.margins['torque_authority']:+.0f} N*m, {elapsed:.0f}s")
        assert report.verdicts["surge_authority"] and report.verdicts["torque_authority"]
        assert agg["total_violations"] == 0
        assert agg["failed_episodes"] == 0
        assert elapsed < SWEEP_BUDGET_S


class TestCriterion2InputConstraints:
    def test_commands_within_limits_bit_exact(self, long_run_sweep):
        scenario, _, result, _ = long_run_sweep
        agg = result.aggregate()
        # actuator_violations recounts cmd.within(F_T_max, alpha_r_max) per tick
        sweep_ok = agg["actuator_violations"] == 0
        # plus a direct column-level recheck of one full episode, zero tolerance
        log = harness.run_episode(scenario)
        F = log.columns["F_T"]
        A = log.columns["alpha_r"]
        cfg = scenario.controller
        episode_ok = bool(np.all(F >= 0.0) and np.all(F <= cfg.F_T_max)
                          and np.all(np.abs(A) <= cfg.alpha_r_max))
        record(2, sweep_ok and episode_ok,
               f"every command in [0, {cfg.F_T_max:g}] N x [-{cfg.alpha_r_max:.4f}, "
               f"{cfg.alpha_r_max:.4f}] rad across {agg['episodes']} episodes")
        assert sweep_ok and episode_ok


class TestCriterion3OrientationBoundedness:
    def test_bearing_stays_acute(self, long_run_sweep):
        _, _, result, _ = long_run_sweep
        worst = max(e["max_abs_psi_e"] for e in result.episodes)
        initial = [e for e in result.episodes]
        ok = worst < math.pi / 2.0
        record(3, ok, f"max |psi_e| = {worst:.3f} rad < pi/2 across "
                      f"{len(initial)} episodes with |psi_e(0)| < pi/2")
        assert ok


class TestCriterion4SplineOracle:
    def test_matrix_form_vs_deboor(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            n_wp = int(rng.integers(4, 14))
            traj = clamped_spline(rng.uniform(-10, 10, (n_wp, 2)),
                                  float(rng.uniform(0.1, 3.0)))
            ts = rng.uniform(0.0, traj.duration * (1.0 - 1e-12), 1000)
            ours = traj.eval(ts)  # bit for bit the per-float calls (TestArrayEval)
            oracle = deboor_eval_batch(traj.control_points, traj.dt_knot, ts)
            worst = max(worst, float(np.max(np.abs(ours - oracle))))
        ok = worst < 1e-10
        record(4, ok, f"matrix eval vs de Boor worst deviation {worst:.2e} "
                      f"over 10^3 splines x 10^3 samples")
        assert ok

    def test_derivatives_vs_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        worst_v, worst_a = 0.0, 0.0
        for _ in range(100):
            traj = clamped_spline(rng.uniform(0.0, 1.0, (6, 2)), 1.0)
            for t in rng.uniform(h, traj.duration - h, 100):
                v, a, _ = traj.eval_derivatives(t)
                v_fd = (traj.eval(t + h) - traj.eval(t - h)) / (2 * h)
                a_fd = (traj.eval_derivatives(t + h)[0] - traj.eval_derivatives(t - h)[0]) / (2 * h)
                worst_v = max(worst_v, float(np.max(np.abs(v - v_fd))))
                worst_a = max(worst_a, float(np.max(np.abs(a - a_fd))))
        ok = worst_v < 1e-8 and worst_a < 1e-8
        record(4, ok, f"analytic derivatives vs central differences: "
                      f"vel {worst_v:.2e}, acc {worst_a:.2e} at h={h:g}")
        assert ok


@pytest.fixture(scope="module")
def demo_problem_and_solution():
    scenario = load_scenario("trajectory-demo")
    assert scenario.v_max == 10.0 and scenario.a_max == 2.0
    scenario.validate()
    path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                    scenario.goal, scenario.planner)
    problem = harness.make_problem(scenario, path)
    t0 = time.perf_counter()
    solution = trajopt.solve(problem)
    elapsed = time.perf_counter() - t0
    return scenario, path, problem, solution, elapsed


class TestCriterion5KinodynamicBounds:
    def test_demo_layout_bounds_and_separation(self, demo_problem_and_solution):
        scenario, _, problem, solution, elapsed = demo_problem_and_solution
        traj = solution.trajectory
        slack = 1.0 + 1e-6
        max_v, max_a = 0.0, 0.0
        for i in range(traj.n_segments):
            for u in np.linspace(0.0, 1.0, 1000):
                t = min((i + u) * traj.dt_knot, traj.duration)
                v, a, _ = traj.eval_derivatives(t)
                max_v = max(max_v, float(np.hypot(*v)))
                max_a = max(max_a, float(np.hypot(*a)))
        sep_ok = all(
            strictly_separates(traj.control_points[i:i + 4], problem.obstacles[j], h, d)
            for (i, j), (h, d) in solution.hyperplanes.items()
        )
        ok = (solution.status == "converged" and max_v <= 10.0 * slack
              and max_a <= 2.0 * slack and sep_ok and elapsed < 60.0)
        record(5, ok, f"converged in {elapsed:.1f}s; dense max speed "
                      f"{max_v:.6f} <= 10*(1+1e-6), max accel {max_a:.6f} <= 2*(1+1e-6), "
                      f"{len(solution.hyperplanes)} separations verified")
        assert ok


class TestCriterion6PriorSpeedup:
    def test_rrt_prior_at_least_3x_faster(self, demo_problem_and_solution):
        scenario, path, _, seeded_solution, seeded_time = demo_problem_and_solution
        cold_problem = harness.make_problem(scenario, path, w1=0.0, init="line")
        cold_problem.max_outer = 120
        t0 = time.perf_counter()
        cold_solution = trajopt.solve(cold_problem)
        cold_time = time.perf_counter() - t0
        cold_valid = trajopt.validate(cold_solution, cold_problem).ok
        ratio = cold_time / max(seeded_time, 1e-9)
        ok = ratio >= 3.0 and cold_valid and seeded_solution.status == "converged"
        record(6, ok, f"no-prior solve {cold_time:.1f}s vs seeded {seeded_time:.2f}s "
                      f"(ratio {ratio:.0f}x >= 3), no-prior result still valid")
        assert cold_valid
        assert ratio >= 3.0


class TestCriterion7OptimizerMonotonicity:
    def test_twenty_random_problems(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(5, 11))
            xs = np.cumsum(rng.uniform(2.0, 6.0, n))
            ys = rng.uniform(-3.0, 3.0, n)
            problem = TrajOptProblem(
                rrt_path=RrtPath(np.column_stack([xs, ys])),
                obstacles=[],
                v_max=float(rng.uniform(2.0, 8.0)),
                a_max=float(rng.uniform(0.5, 3.0)),
                w1=float(rng.uniform(0.1, 2.0)),
                w2=float(rng.uniform(0.0, 0.2)),
                w3=float(rng.uniform(0.0, 2.0)),
                dt_bounds=(0.05, 120.0),
            )
            solution = trajopt.solve(problem)  # raises AssertionError on any increase
            trace = np.array(solution.cost_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
            checked += 1
        record(7, checked == 20,
               f"outer cost nonincreasing on all {checked}/20 random problems, "
               f"zero assertion failures")
        assert checked == 20


class TestCriterion8FeasibilitySoundness:
    def test_constructed_fail_and_benign_pass(self):
        from funnelnav.dynamics import AxisDisturbance, DisturbanceProfile, DragCoeffs, VesselParams
        from funnelnav.scenario import Scenario

        # overwhelming surge disturbance: must fail the surge-authority condition
        bad = load_scenario("benign")
        authority = bad.controller.F_T_max * math.cos(bad.controller.alpha_r_max)
        bad.disturbance = DisturbanceProfile(x=AxisDisturbance(bias=1.5 * authority), seed=0)
        bad.seed = 0  # the sampler's seed
        bad_report = feasibility.estimate_bounds(bad, n_samples=500)

        # quiet, overpowered scenario: must pass all four conditions
        good = load_scenario("benign")
        good.vessel = VesselParams(drag=DragCoeffs(0, 0, 0, 0, 0, 0))
        good.disturbance = DisturbanceProfile()
        data = good.to_dict()
        data["controller"]["F_T_max"] = 1e6
        good = Scenario.from_dict(data)
        good.min_thrust_floor = 1e4
        good.seed = 0
        good_report = feasibility.estimate_bounds(good, n_samples=500)

        ok = (not bad_report.verdicts["surge_authority"]) and good_report.passed
        record(8, ok, f"oversized disturbance fails the surge-authority condition "
                      f"(margin {bad_report.margins['surge_authority']:+.0f} N); "
                      f"benign scenario passes all four conditions")
        assert not bad_report.verdicts["surge_authority"]
        assert bad_report.margins["surge_authority"] < 0.0
        assert good_report.passed


class TestCriterion9GeometryRoundTrip:
    def test_ten_thousand_random_instances(self):
        rng = np.random.default_rng(1234)
        polys, hulls = [], []
        for _ in range(10_000):
            polys.append(random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.3, 3.0)))
            hulls.append(rng.uniform(-6, 6, (4, 2)))
        # The library's separators of all instances in one batched call; the
        # oracle stays scalar, one instance at a time.
        found, h_all, d_all = find_separators(np.array(hulls), padded_vertices(polys))
        n_sep = n_hit = 0
        for k, (poly, hull) in enumerate(zip(polys, hulls)):
            sep = (h_all[k], float(d_all[k])) if found[k] else None
            intersects = hulls_intersect_oracle(hull, poly.vertices)
            if sep is None:
                assert intersects, "NoSeparator without hull intersection"
                n_hit += 1
            else:
                assert not intersects, "separator returned for intersecting hulls"
                h, d = sep
                assert strictly_separates(hull, poly, h, d, margin=0.0)
                n_sep += 1
        record(9, True, f"separator round-trip sound on 10^4 instances "
                        f"({n_sep} separable, {n_hit} intersecting), 0 oracle disagreements")
        assert n_sep + n_hit == 10_000

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), log_gap=st.floats(-9.0, -6.0))
    def test_near_tangent_lines_verify(self, seed, log_gap):
        # A hull 1e-9..1e-6 outside one obstacle edge: any line returned for
        # it must separate strictly (uniform instances never come this close).
        rng = np.random.default_rng(seed)
        poly = random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.3, 3.0))
        k = int(rng.integers(len(poly)))
        a, b = poly.vertices[k], poly.vertices[(k + 1) % len(poly)]
        along = (b - a) / np.linalg.norm(b - a)
        outward = np.array([along[1], -along[0]])
        touch = a + rng.uniform(0.05, 0.95) * (b - a) + 10.0 ** log_gap * outward
        offsets = np.vstack([[0.0, 0.0], rng.uniform([0.0, -2.0], [3.0, 2.0], (3, 2))])
        hull = touch + offsets[:, :1] * outward + offsets[:, 1:] * along
        sep = find_separator(hull, poly)
        if sep is not None:
            assert strictly_separates(hull, poly, sep[0], sep[1], margin=0.0)


class TestCriterion10Determinism:
    def test_run_and_traj_byte_identical(self, tmp_path):
        sc_file = tmp_path / "benign.json"
        harness.write_json(sc_file, load_scenario("benign").to_dict())

        run_dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in run_dirs:
            assert cli_main(["run", "--scenario", str(sc_file), "--out-dir", str(d)]) == 0
        run_same = all(
            (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()
            for name in ("episode.csv", "summary.json", "trajectory.json")
        )

        traj_dirs = [tmp_path / "traj1", tmp_path / "traj2"]
        for d in traj_dirs:
            assert cli_main(["traj", "--scenario", str(sc_file), "--out-dir", str(d)]) == 0
        traj_same = all(
            (traj_dirs[0] / name).read_bytes() == (traj_dirs[1] / name).read_bytes()
            for name in ("trajectory.json", "trajectory_samples.csv", "path.csv", "residuals.json")
        )
        record(10, run_same and traj_same,
               "repeated `run` and `traj` invocations produce byte-identical artifacts")
        assert run_same and traj_same

    def test_sweep_byte_identical(self, tmp_path):
        dirs = [tmp_path / "sweep1", tmp_path / "sweep2"]
        for d in dirs:
            assert cli_main(["sweep", "--scenario", "long-run", "--episodes", "8",
                             "--out-dir", str(d)]) == 0
        assert (dirs[0] / "sweep.json").read_bytes() == (dirs[1] / "sweep.json").read_bytes()
