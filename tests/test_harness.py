import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from funnelnav import trajopt
from funnelnav.dynamics import AxisDisturbance, DisturbanceProfile, VesselParams
from funnelnav.errors import InitialComplianceError, UnverifiedTrajectory
from funnelnav.funnels import FunnelSpec
from funnelnav.harness import (
    _TABLE_TICKS,
    EpisodeLog,
    LOG_COLUMNS,
    _with_inflation,
    audit,
    episode_seed,
    plan_and_solve,
    reference_lead,
    run_episode,
    run_ticks,
    sweep,
    write_plotdata,
)
from funnelnav.scenario import load_scenario


@pytest.fixture(scope="module")
def benign_log():
    return run_episode(load_scenario("benign"))


@pytest.fixture(scope="module")
def long_run_log():
    return run_episode(load_scenario("long-run"))


class TestRunEpisode:
    def test_benign_reaches_goal_cleanly(self, benign_log):
        s = benign_log.summary
        assert s["goal_reached"]
        assert s["total_violations"] == 0
        assert not s["failed"]
        assert s["actuator_violations"] == 0
        assert s["trajopt_status"] == "converged"

    def test_timestamps_strictly_increasing(self, benign_log):
        t = benign_log.columns["t"]
        dt = benign_log.summary["dt"]
        assert np.all(np.diff(t) > 0)
        assert np.allclose(np.diff(t), dt, atol=1e-12)

    def test_summary_counts_match_columns(self, benign_log):
        c = benign_log.columns
        for ch in "dour":
            assert benign_log.summary["violations"][ch] == int(c[f"viol_{ch}"].sum())

    def test_unverified_trajectory_is_not_tracked(self, monkeypatch):
        monkeypatch.setattr(trajopt, "_dense_kinodynamic_check", lambda traj: (math.inf, 0.0))
        with pytest.raises(UnverifiedTrajectory) as exc:
            plan_and_solve(load_scenario("benign"))
        assert exc.value.residuals["max_speed"] == math.inf

    def test_log_columns_complete(self, benign_log):
        assert set(benign_log.columns) == set(LOG_COLUMNS)
        n = benign_log.n_ticks
        assert all(len(v) == n for v in benign_log.columns.values())

    def test_obstacle_scenario_clearance_positive(self):
        log = run_episode(load_scenario("long-run"))
        s = log.summary
        assert s["total_violations"] == 0
        assert s["min_obstacle_clearance"] > 0.0

    def test_normalized_errors_inside_funnels_on_clean_ticks(self, benign_log):
        assert benign_log.summary["total_violations"] == 0
        for ch in "dour":
            xi = benign_log.columns[f"xi_{ch}"]
            assert np.all(np.abs(xi) < 1.0)

    def test_coriolis_truth_model_still_tracked(self):
        # the coupling folds into the unknown dynamics the funnels absorb
        from funnelnav.dynamics import VesselParams
        sc = load_scenario("benign")
        sc.vessel = VesselParams(coriolis_on=True)
        log = run_episode(sc)
        assert log.summary["total_violations"] == 0
        assert log.summary["goal_reached"]

    def test_csv_round_trip(self, benign_log, tmp_path):
        path = tmp_path / "episode.csv"
        benign_log.save_csv(path)
        loaded = EpisodeLog.load_csv(path)
        assert loaded.n_ticks == benign_log.n_ticks
        for name in LOG_COLUMNS:
            assert np.allclose(loaded.columns[name], benign_log.columns[name],
                               atol=0.0, rtol=0.0, equal_nan=True)

    def test_csv_round_trip_real_one_row_and_header_only(self, long_run_log, tmp_path):
        for n in (long_run_log.n_ticks, 1, 0):
            log = EpisodeLog(scenario_name="long-run", seed=7, summary={},
                             columns={c: v[:n] for c, v in long_run_log.columns.items()})
            path = tmp_path / f"episode_{n}.csv"
            log.save_csv(path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = EpisodeLog.load_csv(path)
            assert list(loaded.columns) == LOG_COLUMNS
            for name in LOG_COLUMNS:
                assert loaded.columns[name].dtype == np.float64
                assert loaded.columns[name].shape == (n,)
                assert np.array_equal(loaded.columns[name], log.columns[name])

    def test_logged_disturbance_at_log_times(self, long_run_log):
        sc = load_scenario("long-run")
        n = long_run_log.n_ticks
        assert long_run_log.summary["goal_reached"] and n > 2000
        tau = np.array([sc.disturbance.value(i * sc.sim_dt) for i in range(n)]).T
        for k, name in enumerate(("tau_x", "tau_y", "tau_psi")):
            assert np.array_equal(long_run_log.columns[name], tau[k])

    def test_deterministic_byte_identical(self, tmp_path):
        sc = load_scenario("benign")
        a = run_episode(sc)
        b = run_episode(load_scenario("benign"))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.save_csv(pa)
        b.save_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        sa, sb = tmp_path / "a.json", tmp_path / "b.json"
        a.save_summary(sa)
        b.save_summary(sb)
        assert sa.read_bytes() == sb.read_bytes()


class TestInitialCompliance:
    def _noncompliant(self):
        sc = load_scenario("benign")
        sc.reference_lead = sc.horizon  # reference clock starts at the goal
        return sc

    def test_raises_without_optin(self):
        with pytest.raises(InitialComplianceError):
            run_episode(self._noncompliant())

    def test_auto_inflate_recovers(self):
        # inflating the distance funnel surfaces the surge channel next
        # (the error lands at the new funnel edge), so both get widened
        log = run_episode(self._noncompliant(), auto_inflate=True)
        assert log.summary["auto_inflated"][0] == "d"
        assert log.summary["total_violations"] == 0
        assert not log.summary["failed"]
        # the widened funnel parks the vessel at its midpoint, well short of
        # the goal ball: no arrival is claimed
        assert not log.summary["goal_reached"]


class TestSweep:
    def test_seed_derivation_stable(self):
        assert episode_seed(7, 0) == episode_seed(7, 0)
        assert episode_seed(7, 0) != episode_seed(7, 1)
        assert episode_seed(8, 0) != episode_seed(7, 0)

    def test_small_sweep_aggregates(self):
        res = sweep(load_scenario("benign"), 3)
        agg = res.aggregate()
        assert agg["episodes"] == 3
        assert agg["total_violations"] == 0
        assert agg["goal_reached"] == 3
        seeds = [e["episode_seed"] for e in res.episodes]
        assert len(set(seeds)) == 3

    def test_sweep_serializes(self, tmp_path):
        res = sweep(load_scenario("benign"), 2)
        out = tmp_path / "sweep.json"
        res.save_json(out)
        data = json.loads(out.read_text())
        assert data["aggregate"]["episodes"] == 2
        assert len(data["episodes"]) == 2


SUMMARY_FLOATS = ("goal_time", "min_obstacle_clearance", "max_abs_psi_e", "max_abs_sway",
                  "max_speed", "final_e_d")


def _assert_lockstep_matches_scalar(scenario, n_episodes, auto_inflate=False):
    """Each lockstep sweep episode equals run_ticks on its reseeded disturbance."""
    batch = sweep(scenario, n_episodes, auto_inflate=auto_inflate).episodes
    _path, solution = plan_and_solve(scenario)
    traj = solution.trajectory
    lead = reference_lead(scenario, traj)
    for k, got in enumerate(batch):
        dist = scenario.disturbance.reseeded(episode_seed(scenario.seed, k))
        want, inflated = _with_inflation(
            lambda cfg: run_ticks(scenario, cfg, traj, lead, dist).summary,
            scenario.controller, auto_inflate)
        if inflated:
            want["auto_inflated"] = inflated
        want.update(episode_index=k, episode_seed=episode_seed(scenario.seed, k))
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key in SUMMARY_FLOATS and value is not None:
                assert got[key] == pytest.approx(value, rel=0.0, abs=1e-9), (k, key)
            else:
                assert got[key] == value, (k, key)
    return batch


class TestLockstepSweep:
    def test_long_run_matches_scalar(self):
        batch = _assert_lockstep_matches_scalar(load_scenario("long-run"), 16)
        assert all(e["goal_reached"] for e in batch)
        assert len({e["ticks"] for e in batch}) > 1  # arrivals at different ticks

    def test_clamped_and_clean_episodes_match_scalar(self):
        # a 1 m/s surge funnel under a strong disturbance: some realizations
        # leave it (clamp path) and some do not
        sc = load_scenario("benign")
        sc.disturbance = DisturbanceProfile(
            x=AxisDisturbance(sin_amp=300.0, sin_freq_hz=0.05, noise_amp=200.0),
            y=AxisDisturbance(sin_amp=200.0, sin_freq_hz=0.08, noise_amp=100.0),
            psi=AxisDisturbance(sin_amp=300.0, sin_freq_hz=0.03, noise_amp=200.0),
            seed=5,
        )
        sc.controller = dataclasses.replace(sc.controller, funnel_u=FunnelSpec.static(1.0))
        batch = _assert_lockstep_matches_scalar(sc, 8)
        failed = [e["failed"] for e in batch]
        assert any(failed) and not all(failed)
        assert len({e["ticks"] for e in batch}) > 1

    @staticmethod
    def _disturbed_benign():
        sc = load_scenario("benign")
        sc.disturbance = DisturbanceProfile(
            x=AxisDisturbance(bias=30.0, sin_amp=60.0, sin_freq_hz=0.05, noise_amp=30.0),
            y=AxisDisturbance(bias=-20.0, sin_amp=50.0, sin_freq_hz=0.08),
            psi=AxisDisturbance(bias=5.0, noise_amp=10.0),
            seed=4,
        )
        return sc

    def test_coriolis_truth_model_matches_scalar(self):
        sc = self._disturbed_benign()
        sc.vessel = VesselParams(coriolis_on=True)
        batch = _assert_lockstep_matches_scalar(sc, 6)
        assert all(e["goal_reached"] for e in batch)
        assert len({e["ticks"] for e in batch}) > 1

    def test_arrival_in_last_partial_table(self):
        # 900 ticks: the last disturbance table covers ticks 896-899 only,
        # and one episode arrives inside it
        sc = self._disturbed_benign()
        sc.horizon = 45.0
        n_max = int(round(sc.horizon / sc.sim_dt))
        last_table = n_max - n_max % _TABLE_TICKS
        assert n_max % _TABLE_TICKS != 0
        batch = _assert_lockstep_matches_scalar(sc, 6)
        assert any(e["goal_reached"] and e["ticks"] > last_table for e in batch)
        assert any(e["goal_reached"] and e["ticks"] <= last_table for e in batch)

    def test_degenerate_distance_at_first_tick(self):
        sc = load_scenario("benign")
        sc.reference_lead = 0.0  # the reference starts on the vessel
        batch = _assert_lockstep_matches_scalar(sc, 3)
        assert all(e["ticks"] == 0 and e["fault"] == "degenerate_distance" for e in batch)

    def test_auto_inflated_sweep_matches_scalar(self):
        batch = _assert_lockstep_matches_scalar(
            TestInitialCompliance()._noncompliant(), 2, auto_inflate=True)
        assert all(e["auto_inflated"][0] == "d" for e in batch)

    def test_noncompliant_sweep_raises_without_optin(self):
        sc = TestInitialCompliance()._noncompliant()
        with pytest.raises(InitialComplianceError):
            sweep(sc, 2)
        assert sweep(sc, 0).episodes == []  # no episode, nothing to check


class TestAudit:
    def test_clean_log_no_discrepancies(self, benign_log):
        report = audit(benign_log, load_scenario("benign"))
        assert report.summary_matches
        assert report.discrepancies == []
        assert report.actuator_violations == 0
        assert report.violations == benign_log.summary["violations"]
        assert report.min_margins["o"] > 0.0
        assert report.min_margins["psi_e"] > 0.0

    def test_injected_violation_flagged_once(self, benign_log):
        sc = load_scenario("benign")
        tampered = EpisodeLog(
            scenario_name=benign_log.scenario_name,
            seed=benign_log.seed,
            columns={k: v.copy() for k, v in benign_log.columns.items()},
            summary=copy.deepcopy(benign_log.summary),
        )
        i = tampered.n_ticks // 2
        rho_d = tampered.columns["rho_d"][i]
        # push the logged position so the recomputed e_d sits exactly on the funnel
        tampered.columns["p_x"][i] = tampered.columns["ref_x"][i] - rho_d
        tampered.columns["p_y"][i] = tampered.columns["ref_y"][i]
        report = audit(tampered, sc)
        assert report.violations["d"] == benign_log.summary["violations"]["d"] + 1
        assert not report.summary_matches
        assert any("channel d" in d for d in report.discrepancies)

    def test_audit_recomputes_independently(self, benign_log):
        # corrupting a controller-written column must not change the audit
        sc = load_scenario("benign")
        tampered = EpisodeLog(
            scenario_name=benign_log.scenario_name,
            seed=benign_log.seed,
            columns={k: v.copy() for k, v in benign_log.columns.items()},
            summary=copy.deepcopy(benign_log.summary),
        )
        tampered.columns["xi_d"][:] = 99.0
        tampered.columns["eps_d"][:] = 99.0
        report = audit(tampered, sc)
        assert report.violations == benign_log.summary["violations"]


class TestPlotdata:
    def test_files_written(self, benign_log, tmp_path):
        files = write_plotdata(benign_log, load_scenario("benign"), tmp_path / "plotdata")
        assert len(files) == 3
        for f in files:
            lines = open(f).read().strip().splitlines()
            assert len(lines) == benign_log.n_ticks + 1
        headers = {f.split("/")[-1]: open(f).readline().strip() for f in files}
        assert headers["inputs.csv"] == "t,F_T,alpha_r,sat_F,sat_alpha"
        assert headers["forward_velocity.csv"] == "t,u,u_des"


class TestCollisionGuaranteeChain:
    def test_passing_episode_has_positive_clearance(self):
        sc = load_scenario("long-run")
        log = run_episode(sc)
        s = log.summary
        if s["violations"]["d"] == 0:
            rho_d0 = sc.controller.funnel_d.value(0.0)
            assert rho_d0 < sc.workspace.clearance
            assert s["min_obstacle_clearance"] > 0.0
