import dataclasses
import json
import os

import pytest

from funnelnav import rrt, trajopt
from funnelnav.cli import main
from funnelnav.errors import InfeasibleSeed, PlanTimeout, TrajOptInfeasible
from funnelnav.scenario import load_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "benign.json"
    load_scenario("benign").save_json(path)
    return str(path)


class TestPlan:
    def test_writes_path_csv(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        rc = main(["plan", "--scenario", scenario_file, "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "path.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) > 4


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
        assert len(calls) == 4  # plan_and_solve's default number of attempts

    @pytest.mark.parametrize("section, key, value", [("goal", "radius", None),
                                                      ("start", "p_x", "0.0")])
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
