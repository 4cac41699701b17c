import dataclasses
import hashlib
import json
import os
import time

import pytest

from funnelnav import rrt, trajopt
from funnelnav.bspline import SplineTrajectory
from funnelnav.cli import main
from funnelnav.errors import InfeasibleSeed, PlanTimeout, TrajOptInfeasible
from funnelnav.harness import plan_and_solve, write_json
from funnelnav.scenario import load_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "benign.json"
    write_json(path, load_scenario("benign").to_dict())
    return str(path)


class TestPlan:
    def test_writes_path_csv(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        rc = main(["plan", "--scenario", scenario_file, "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "path.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) > 4

    def test_budget_beyond_memory(self, tmp_path):
        # The node table follows the tree, not max_iters: a budget of 2**53 iterations
        # reserved 128 PiB up front and ended in a MemoryError (exit 1).
        data = load_scenario("long-run").to_dict()
        data["planner"]["max_iters"] = 2**53
        scenario = tmp_path / "huge-budget.json"
        scenario.write_text(json.dumps(data))
        for spec, out in ((str(scenario), "huge"), ("long-run", "builtin")):
            assert main(["plan", "--scenario", spec, "--out-dir", str(tmp_path / out)]) == 0
        assert (tmp_path / "huge" / "path.csv").read_bytes() == (tmp_path / "builtin" / "path.csv").read_bytes()


class TestTraj:
    def test_writes_solution_artifacts(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        rc = main(["traj", "--scenario", scenario_file, "--out-dir", str(out)])
        assert rc == 0
        data = json.loads((out / "trajectory.json").read_text())
        assert data["status"] == "converged"
        trace = data["cost_trace"]
        assert len(trace) == data["n_outer"] + 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert (out / "trajectory_samples.csv").exists()
        residuals = json.loads((out / "residuals.json").read_text())
        assert residuals["ok"]

    def test_deterministic_outputs(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["traj", "--scenario", scenario_file, "--out-dir", str(out1)]) == 0
        assert main(["traj", "--scenario", scenario_file, "--out-dir", str(out2)]) == 0
        for name in ("trajectory.json", "trajectory_samples.csv", "path.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_failed_residual_check_exits_1(self, tmp_path, scenario_file, monkeypatch):
        # The solver reports converged, but the independent check fails.
        real = trajopt.validate
        monkeypatch.setattr(trajopt, "validate", lambda solution, problem: dataclasses.replace(
            real(solution, problem), separation_all_verified=False))
        out = tmp_path / "out"
        assert main(["traj", "--scenario", scenario_file, "--out-dir", str(out)]) == 1
        assert json.loads((out / "trajectory.json").read_text())["status"] == "converged"
        assert json.loads((out / "residuals.json").read_text())["ok"] is False


class TestRun:
    def test_episode_artifacts(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", scenario_file, "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["goal_reached"]
        assert summary["total_violations"] == 0
        assert (out / "episode.csv").exists()
        assert (out / "trajectory.json").exists()
        assert {"errors_vs_funnels.csv", "inputs.csv", "forward_velocity.csv"} <= \
            set(os.listdir(out / "plotdata"))

    def test_builtin_scenario_name(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", "benign", "--out-dir", str(out)])
        assert rc == 0

    def test_dt_override(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", scenario_file, "--out-dir", str(out), "--dt", "0.1"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dt"] == 0.1


class TestSweep:
    def test_small_sweep(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", scenario_file, "--out-dir", str(out),
                   "--episodes", "2"])
        assert rc == 0
        data = json.loads((out / "sweep.json").read_text())
        assert data["aggregate"]["episodes"] == 2

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episode_count_below_one_is_a_usage_error(self, tmp_path, capsys, episodes):
        # An empty sweep would pass with nothing checked.
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--scenario", "benign", "--episodes", episodes, "--out-dir", str(tmp_path)])
        assert exit_.value.code == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()


class TestCheck:
    def test_report_written(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        rc = main(["check", "--scenario", scenario_file, "--out-dir", str(out),
                   "--samples", "200"])
        data = json.loads((out / "feasibility.json").read_text())
        assert set(data["verdicts"]) == {"thrust_floor", "surge_authority", "torque_authority", "initial_bearing"}
        assert rc == (0 if data["passed"] else 1)


class TestAudit:
    def test_audits_logged_episode(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        assert main(["run", "--scenario", scenario_file, "--out-dir", str(out)]) == 0
        rc = main(["audit", "--scenario", scenario_file, "--out-dir", str(out),
                   "--log", str(out / "episode.csv")])
        assert rc == 0
        data = json.loads((out / "audit.json").read_text())
        assert data["actuator_violations"] == 0
        assert data["violations"]["d"] == 0
        assert data["summary_matches"]

    def test_summary_discrepancy_fails(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        assert main(["run", "--scenario", scenario_file, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        summary["violations"]["d"] += 3
        (out / "summary.json").write_text(json.dumps(summary))
        rc = main(["audit", "--scenario", scenario_file, "--out-dir", str(out),
                   "--log", str(out / "episode.csv")])
        assert rc == 1
        data = json.loads((out / "audit.json").read_text())
        assert not data["summary_matches"]
        assert data["discrepancies"]
        assert data["violations"]["d"] == 0

    def test_empty_summary_fails(self, tmp_path, scenario_file):
        # A summary.json of {} is a summary without counts, not a missing summary.
        out = tmp_path / "out"
        assert main(["run", "--scenario", scenario_file, "--out-dir", str(out)]) == 0
        (out / "summary.json").write_text("{}")
        rc = main(["audit", "--scenario", scenario_file, "--out-dir", str(out),
                   "--log", str(out / "episode.csv")])
        assert rc == 1
        data = json.loads((out / "audit.json").read_text())
        assert not data["summary_matches"] and data["discrepancies"]

    def test_funnel_violation_fails(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        assert main(["run", "--scenario", scenario_file, "--out-dir", str(out)]) == 0
        lines = (out / "episode.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[len(lines) // 2].split(",")
        # Moving the vessel 1 km away puts the reference outside the distance funnel.
        ix = header.index("p_x")
        row[ix] = repr(float(row[ix]) + 1000.0)
        lines[len(lines) // 2] = ",".join(row)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines) + "\n")
        rc = main(["audit", "--scenario", scenario_file, "--out-dir", str(out),
                   "--log", str(tampered)])
        assert rc == 1
        data = json.loads((out / "audit.json").read_text())
        assert data["violations"]["d"] >= 1
        assert data["actuator_violations"] == 0


class TestArtifactFormat:
    """Every JSON artifact goes through one writer, and run and traj write one trajectory.json."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("benign")
        common = ["--scenario", "benign"]
        for command, extra in (("traj", []), ("run", []), ("sweep", ["--episodes", "2"]),
                               ("check", ["--samples", "200"]),
                               ("audit", ["--log", str(out / "run" / "episode.csv")])):
            assert main([command, *common, *extra, "--out-dir", str(out / command)]) == 0
        return out

    def test_json_artifacts_have_sorted_keys(self, out):
        written = sorted(out.rglob("*.json"))
        assert [str(p.relative_to(out)) for p in written] == [
            "audit/audit.json", "check/feasibility.json", "run/summary.json",
            "run/trajectory.json", "sweep/sweep.json", "traj/residuals.json",
            "traj/trajectory.json"]
        for path in written:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True), path

    def test_run_and_traj_write_the_same_trajectory_json(self, out):
        assert (out / "run" / "trajectory.json").read_bytes() == (
            out / "traj" / "trajectory.json").read_bytes()

    def test_spline_reads_back_bit_for_bit(self, out):
        solution = plan_and_solve(load_scenario("benign"))[1]
        data = json.loads((out / "run" / "trajectory.json").read_text())
        loaded = SplineTrajectory.from_dict(data["trajectory"])
        assert loaded.control_points.tobytes() == solution.trajectory.control_points.tobytes()
        assert loaded.dt_knot == solution.trajectory.dt_knot


class TestSeedOverride:
    def test_seed_flag_changes_paths_around_obstacles(self, tmp_path):
        # obstacle-free scenarios shortcut to the same straight chord for any
        # seed; the obstacle course actually exercises the sampling
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["plan", "--scenario", "long-run", "--out-dir", str(out1),
                     "--seed", "1"]) == 0
        assert main(["plan", "--scenario", "long-run", "--out-dir", str(out2),
                     "--seed", "2"]) == 0
        assert (out1 / "path.csv").read_bytes() != (out2 / "path.csv").read_bytes()

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, capsys, command, seed):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--scenario", "benign", "--seed", seed, "--out-dir", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "at least 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()



def _raising(exc, calls):
    def stage(*args, **kwargs):
        calls.append(args)
        raise exc
    return stage


class TestTypedErrors:
    """A typed failure ends the CLI with exit code 3 and one line on stderr."""

    @staticmethod
    def _main_fails_with(name, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"funnelnav: {name}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_unverified_trajectory(self, tmp_path, scenario_file, monkeypatch, capsys):
        real_solve = trajopt.solve
        monkeypatch.setattr(trajopt, "solve", lambda problem: dataclasses.replace(
            real_solve(problem), status="unverified"))
        self._main_fails_with("UnverifiedTrajectory",
                              ["traj", "--scenario", scenario_file, "--out-dir", str(tmp_path)],
                              capsys)

    def test_scenario_path_is_a_directory(self, tmp_path, capsys):
        # It ended in an IsADirectoryError traceback (exit 1, the code of a finding).
        self._main_fails_with("InvalidScenario",
                              ["plan", "--scenario", str(tmp_path), "--out-dir", str(tmp_path / "out")],
                              capsys)

    def test_plan_timeout(self, tmp_path, scenario_file, monkeypatch, capsys):
        monkeypatch.setattr(rrt, "plan", _raising(PlanTimeout("no path after 10 iterations"), []))
        self._main_fails_with("PlanTimeout",
                              ["plan", "--scenario", scenario_file, "--out-dir", str(tmp_path)],
                              capsys)

    def test_infeasible_seed_after_last_replan(self, tmp_path, scenario_file, monkeypatch,
                                               capsys):
        calls = []
        monkeypatch.setattr(trajopt, "solve", _raising(InfeasibleSeed(2, 0), calls))
        self._main_fails_with("InfeasibleSeed",
                              ["run", "--scenario", scenario_file, "--out-dir", str(tmp_path)],
                              capsys)
        assert len(calls) == 4  # plan_and_solve's number of attempts

    @pytest.mark.parametrize("section, key, value", [("goal", "radius", None),
                                                      ("start", "p_x", "0.0"),
                                                      ("goal", "position", [80.0, 0.0, 5.0]),
                                                      ("goal", "position", [80.0, [0.0]]),
                                                      ("trajopt", "dt_bounds", [5.0, 1.0])])
    def test_invalid_scenario(self, tmp_path, capsys, section, key, value):
        data = load_scenario("benign").to_dict()
        if value is None:
            del data[section][key]
        else:
            data[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        self._main_fails_with("InvalidScenario",
                              ["run", "--scenario", str(path), "--out-dir", str(tmp_path)], capsys)

    def test_scenario_that_fails_validate(self, tmp_path, capsys):
        # Every field loads, but rho_d(0) + footprint reaches the workspace clearance.
        data = load_scenario("long-run").to_dict()
        data["controller"]["funnels"]["d"]["rho0"] = 35.0
        path = tmp_path / "wide-funnel.json"
        path.write_text(json.dumps(data))
        for command in ("run", "check"):
            err = self._main_fails_with(
                "InvalidScenario", [command, "--scenario", str(path), "--out-dir", str(tmp_path)], capsys)
            assert "clearance" in err
        assert not (tmp_path / "feasibility.json").exists()

    @pytest.mark.parametrize("command, name, path, value", [
        pytest.param("check", "benign", ("sway_bound",), -1, id="sway_bound"),
        pytest.param("plan", "benign", ("planner_margin_frac",), -1, id="planner_margin_frac"),
        pytest.param("plan", "benign", ("goal", "position"), [0.0, 0.0],  # benign's start
                     id="goal_on_start"),
        pytest.param("plan", "long-run", ("workspace", "inflation_k_gon"), 5, id="inflation_k_gon"),
        # ints beyond float64's exact range, 2**53
        *[pytest.param(command, "long-run", path, 2**70, id=f"{path[-1]}=2**70")
          for command, path in (("check", ("vessel", "m")), ("check", ("vessel", "drag", "d1_u")),
                                ("check", ("sim", "horizon")), ("plan", ("planner", "max_iters")))],
        # squared where used: the clearance in the inflation's cross products (ValueError,
        # cross=-inf), the linear surge and yaw drag in the terminal rate (OverflowError)
        *[pytest.param(command, "long-run", path, value, id=f"{command}-{path[-1]}={value:g}")
          for command, path, value in (("check", ("workspace", "clearance"), 1e300),
                                       ("plan", ("workspace", "clearance"), 1e300),
                                       ("check", ("vessel", "drag", "d1_u"), 1e300),
                                       ("check", ("vessel", "drag", "d1_u"), 1e160),
                                       ("check", ("vessel", "drag", "d1_r"), 1e160))],
        # a planner step or goal radius that is not positive: these searched until max_iters ran out
        *[pytest.param(command, "long-run", ("planner", key), value, id=f"{command}-{key}={value}")
          for command in ("plan", "traj", "run")
          for key, value in (("step_size", 0), ("step_size", -12.0),
                             ("goal_radius", 0.0), ("goal_radius", -1))]])
    def test_range_checked_at_use(self, tmp_path, capsys, command, name, path, value):
        # Each of these ended where the value was used: in an untyped traceback (exit 1, the
        # code of a finding) or a search still running after 5 s. Each is InvalidScenario at load.
        data = load_scenario(name).to_dict()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scenario = tmp_path / "out-of-range.json"
        scenario.write_text(json.dumps(data))
        t0 = time.perf_counter()
        err = self._main_fails_with("InvalidScenario", [command, "--scenario", str(scenario),
                                                        "--out-dir", str(tmp_path / "out")], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert path[-1] in err or "start" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "check", "plan"])
    @pytest.mark.parametrize("path", [("seed",), ("planner", "seed")])
    def test_negative_seed_in_the_file(self, tmp_path, capsys, command, path):
        data = load_scenario("benign").to_dict()
        (data[path[0]] if len(path) == 2 else data)[path[-1]] = -2
        scenario = tmp_path / "negative-seed.json"
        scenario.write_text(json.dumps(data))
        err = self._main_fails_with("InvalidScenario", [command, "--scenario", str(scenario),
                                                        "--out-dir", str(tmp_path / "out")], capsys)
        assert "seed" in err

    def test_audit_of_a_missing_log(self, tmp_path, capsys):
        err = self._main_fails_with("InvalidLog", ["audit", "--scenario", "benign", "--log",
                                                   str(tmp_path / "nope" / "episode.csv"),
                                                   "--out-dir", str(tmp_path)], capsys)
        assert "episode.csv" in err
        assert not (tmp_path / "audit.json").exists()

    @pytest.mark.parametrize("damage", ["header only", "summary not JSON"])
    def test_audit_of_a_log_with_nothing_to_audit(self, tmp_path, capsys, damage):
        run_dir = tmp_path / "run"
        assert main(["run", "--scenario", "benign", "--out-dir", str(run_dir)]) == 0
        log = run_dir / "episode.csv"
        if damage == "header only":
            log.write_text(log.read_text().splitlines()[0] + "\n")
        else:
            (run_dir / "summary.json").write_text("{bad")
        err = self._main_fails_with("InvalidLog", ["audit", "--scenario", "benign", "--log", str(log),
                                                   "--out-dir", str(tmp_path / "audit")], capsys)
        assert ("no ticks" if damage == "header only" else "summary.json") in err

    @pytest.mark.parametrize("summary", ["[1]", '"x"', '{"violations": 3}'])
    def test_audit_of_a_summary_that_is_not_one(self, tmp_path, capsys, summary):
        # Each of these ended in an AttributeError traceback (exit 1, the code of a finding).
        run_dir = tmp_path / "run"
        assert main(["run", "--scenario", "benign", "--out-dir", str(run_dir)]) == 0
        (run_dir / "summary.json").write_text(summary)
        err = self._main_fails_with("InvalidLog", ["audit", "--scenario", "benign", "--log",
                                                   str(run_dir / "episode.csv"),
                                                   "--out-dir", str(tmp_path / "audit")], capsys)
        assert "summary.json" in err
        assert not (tmp_path / "audit" / "audit.json").exists()

    @pytest.mark.parametrize("damage", ["no ref_x", "short row"])
    def test_audit_of_a_damaged_log(self, tmp_path, capsys, damage):
        run_dir = tmp_path / "run"
        assert main(["run", "--scenario", "benign", "--out-dir", str(run_dir)]) == 0
        rows = [line.split(",") for line in (run_dir / "episode.csv").read_text().splitlines()]
        if damage == "no ref_x":
            ix = rows[0].index("ref_x")
            rows = [row[:ix] + row[ix + 1:] for row in rows]
        else:
            rows[5] = rows[5][:-1]
        log = tmp_path / "damaged.csv"
        log.write_text("\n".join(map(",".join, rows)) + "\n")
        err = self._main_fails_with("InvalidLog", ["audit", "--scenario", "benign", "--log", str(log),
                                                   "--out-dir", str(tmp_path / "audit")], capsys)
        assert "ref_x" in err if damage == "no ref_x" else "damaged.csv" in err
        assert not (tmp_path / "audit" / "audit.json").exists()

    @pytest.mark.parametrize("command, dt", [("run", "-0.05"), ("run", "0"), ("run", "nan"),
                                             ("run", "1000"), ("sweep", "-0.05")])
    def test_dt_goes_through_the_schema(self, tmp_path, capsys, command, dt):
        # 1000 s leaves benign's 90-s horizon no tick.
        self._main_fails_with("InvalidScenario", [command, "--scenario", "benign", "--dt", dt,
                                                  "--out-dir", str(tmp_path / "out")], capsys)
        assert not (tmp_path / "out").exists()

    def test_truncated_scenario_file(self, tmp_path, scenario_file, capsys):
        path = tmp_path / "truncated.json"
        text = open(scenario_file, encoding="utf-8").read()
        path.write_text(text[:len(text) // 2])
        self._main_fails_with("InvalidScenario",
                              ["run", "--scenario", str(path), "--out-dir", str(tmp_path)], capsys)

    def test_missing_scenario_file(self, tmp_path, capsys):
        err = self._main_fails_with("InvalidScenario",
                                    ["run", "--scenario", str(tmp_path / "absent.json"),
                                     "--out-dir", str(tmp_path)], capsys)
        assert "benign" in err and "long-run" in err

    def test_trajopt_infeasible(self, tmp_path, scenario_file, monkeypatch, capsys):
        monkeypatch.setattr(trajopt, "solve",
                            _raising(TrajOptInfeasible("no knot spacing fits"), []))
        self._main_fails_with("TrajOptInfeasible",
                              ["traj", "--scenario", scenario_file, "--out-dir", str(tmp_path)],
                              capsys)


class TestReportPins:
    """sha256 digests of the reports of `check --samples 2000` and of `audit` on a `run` log,
    pinned before a quiet disturbance skipped its sines and the lead search ran in batches;
    feasibility.json's again when every JSON artifact took sorted keys (each parses to the
    object it was). The digests hold for this numpy and libm; another platform may round a sine differently."""

    CHECK = {
        "benign": "1eaa56ccdbefd10870002092804d7f28b903a7d7baf4e0b26f1b2dba41eaea21",
        "long-run": "43449d2d0c46a652a587cf9f5ce3ce9f9827eb4619ea98f6de67c079271cc0b5",
    }

    @staticmethod
    def _digest(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("scenario", sorted(CHECK))
    def test_check_report(self, scenario, tmp_path):
        assert main(["check", "--scenario", scenario, "--samples", "2000",
                     "--out-dir", str(tmp_path)]) == 0
        assert self._digest(tmp_path / "feasibility.json") == self.CHECK[scenario]

    def test_audit_report(self, tmp_path):
        log = tmp_path / "run" / "episode.csv"
        assert main(["run", "--scenario", "benign", "--out-dir", str(log.parent)]) == 0
        assert main(["audit", "--scenario", "benign", "--log", str(log),
                     "--out-dir", str(tmp_path / "audit")]) == 0
        assert self._digest(tmp_path / "audit" / "audit.json") == (
            "048172786dbb5ef556bee162025aabbbcd9cd0d61ad4eb4f97dadf1ff7d3ef20")
