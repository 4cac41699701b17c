import copy
import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav import harness, trajopt
from funnelnav.cli import main
from funnelnav.dynamics import AxisDisturbance, DisturbanceProfile, VesselParams
from funnelnav.errors import InitialComplianceError, UnverifiedTrajectory
from funnelnav.funnels import FunnelSpec
from funnelnav.geometry import distances_to_obstacles
from funnelnav.harness import (
    _CSV_BLOCK,
    _TABLE_TICKS,
    EpisodeLog,
    LOG_COLUMNS,
    _min_clearances,
    _with_inflation,
    audit,
    episode_seed,
    plan_and_solve,
    reference_lead,
    run_episode,
    run_ticks,
    sweep,
    write_csv,
    write_plotdata,
)
from funnelnav.scenario import load_scenario
from oracles import write_csv_oracle


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

    def test_unverified_solve_at_the_outer_cap_is_not_tracked(self, monkeypatch):
        scenario = load_scenario("benign")
        scenario = dataclasses.replace(scenario, trajopt=dataclasses.replace(scenario.trajopt, max_outer=1))
        _, solution = plan_and_solve(scenario)
        assert solution.status == "max_iters"
        monkeypatch.setattr(trajopt, "_dense_kinodynamic_check", lambda traj: (math.inf, 0.0))
        with pytest.raises(UnverifiedTrajectory):
            run_episode(scenario)

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
            log = EpisodeLog(columns={c: v[:n] for c, v in long_run_log.columns.items()}, summary={})
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
        sc.controller = dataclasses.replace(sc.controller, funnel_u=FunnelSpec(1.0, 1.0))
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

    def test_arrivals_at_both_ends_of_a_table(self):
        # the summaries are reduced by table and before each arrival: one episode's last
        # step is a table's last tick, another's the next table's first, and two run on
        sc = self._disturbed_benign()
        sc.seed = 608
        batch = _assert_lockstep_matches_scalar(sc, 6)
        last_steps = [e["ticks"] - 1 for e in batch]
        assert all(e["goal_reached"] for e in batch)
        ends = [s for s in last_steps if s % _TABLE_TICKS in (_TABLE_TICKS - 1, 0)]
        assert sorted(s % _TABLE_TICKS for s in ends) == [0, _TABLE_TICKS - 1]
        assert sum(s > max(ends) for s in last_steps) == 2

    @staticmethod
    def _decaying_benign():
        # no builtin decays its funnels: these do, so each tick's radii differ
        sc = TestLockstepSweep._disturbed_benign()
        sc.controller = dataclasses.replace(
            sc.controller, funnel_d=FunnelSpec(28.0, 18.0, 0.1), funnel_o=FunnelSpec(0.9999, 0.9, 0.1),
            funnel_u=FunnelSpec(25.0, 10.0, 0.2), funnel_r=FunnelSpec(15.0, 6.0, 0.2))
        return sc

    def test_decaying_funnels_match_scalar(self):
        batch = _assert_lockstep_matches_scalar(self._decaying_benign(), 6)
        failed = [e["failed"] for e in batch]
        assert all(e["goal_reached"] for e in batch) and any(failed) and not all(failed)

    def test_degenerate_distance_at_first_tick(self):
        sc = load_scenario("benign")
        sc.reference_lead = 0.0  # the reference starts on the vessel
        batch = _assert_lockstep_matches_scalar(sc, 3)
        assert all(e["ticks"] == 0 and e["fault"] == "degenerate_distance" for e in batch)

    def test_auto_inflated_sweep_matches_scalar(self):
        batch = _assert_lockstep_matches_scalar(
            TestInitialCompliance()._noncompliant(), 2, auto_inflate=True)
        assert all(e["auto_inflated"][0] == "d" for e in batch)

    def test_sweep_clearances_equal_per_episode_passes(self, monkeypatch):
        # Episodes share distance passes by blocks of points; each clearance
        # equals the pass over that episode's logged positions alone, bit for bit.
        sc = load_scenario("long-run")
        _path, solution = plan_and_solve(sc)
        lead = reference_lead(sc, solution.trajectory)
        logs = [run_ticks(sc, sc.controller, solution.trajectory, lead,
                          sc.disturbance.reseeded(episode_seed(sc.seed, k))) for k in range(3)]
        want = [float(distances_to_obstacles(np.column_stack((log.columns["p_x"], log.columns["p_y"])),
                                             sc.workspace.obstacles).min() - sc.footprint_radius)
                for log in logs]
        calls = []
        monkeypatch.setattr(harness, "distances_to_obstacles",
                            lambda points, obstacles: calls.append(len(points))
                            or distances_to_obstacles(points, obstacles))
        monkeypatch.setattr(harness, "_CLEARANCE_BLOCK", logs[0].n_ticks + 1)
        batch = sweep(sc, 3).episodes
        assert [e["min_obstacle_clearance"] for e in batch] == want
        # The first two episodes start in the first block, the third in the next.
        assert calls == [batch[0]["ticks"] + batch[1]["ticks"], batch[2]["ticks"]]

    @pytest.mark.parametrize("block", [8192, 4, 1])
    def test_min_clearances_skip_empty_episodes(self, block, monkeypatch):
        monkeypatch.setattr(harness, "_CLEARANCE_BLOCK", block)
        sc = load_scenario("long-run")
        rng = np.random.default_rng(2)
        positions = [rng.uniform((-60.0, -160.0), (560.0, 200.0), (n, 2)) for n in (0, 5, 0, 1, 3, 300, 0)]
        want = [float(distances_to_obstacles(p, sc.workspace.obstacles).min() - sc.footprint_radius)
                if len(p) else None for p in positions]
        assert _min_clearances(sc, positions) == want
        assert _min_clearances(sc, positions[:1]) == [None]
        assert _min_clearances(load_scenario("benign"), positions) == [None] * len(positions)

    def test_batching_does_not_change_a_sweep(self):
        # Episodes leave at different ticks and take their columns of the disturbance
        # batch's rotations with them: one batch of 12 and batches of 5 and 7 agree exactly.
        sc = load_scenario("long-run")
        _path, solution = plan_and_solve(sc)
        traj = solution.trajectory
        lead = reference_lead(sc, traj)
        dists = [sc.disturbance.reseeded(episode_seed(sc.seed, k)) for k in range(12)]
        whole = harness._sweep_ticks(sc, sc.controller, traj, lead, dists)
        split = [*harness._sweep_ticks(sc, sc.controller, traj, lead, dists[:5]),
                 *harness._sweep_ticks(sc, sc.controller, traj, lead, dists[5:])]
        assert len({e["ticks"] for e in whole[:5]}) > 1 and len({e["ticks"] for e in whole[5:]}) > 1
        assert len(split) == len(whole)
        for k, (got, want) in enumerate(zip(split, whole)):
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == value, (k, key)

    def test_noncompliant_sweep_raises_without_optin(self):
        sc = TestInitialCompliance()._noncompliant()
        with pytest.raises(InitialComplianceError):
            sweep(sc, 2)
        assert sweep(sc, 0).episodes == []  # no episode, nothing to check


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else
                          json.dumps(data, sort_keys=True).encode()).hexdigest()


class TestGoldenPins:
    """sha256 digests of sweep episodes and of a run log, taken before the tick loops
    sampled their funnel radii by table, stacked the channel pairs and reordered the
    batched RK4: each of those changes keeps every float. The disturbed digests were
    taken anew when the tick loops' wrenches came from DisturbanceBatch.grid. The digests
    hold for this numpy and libm; another platform may round a sine differently."""

    def test_long_run_sweep(self):
        assert _digest(sweep(load_scenario("long-run"), 8).episodes) == (
            "20c67a703b55a56b64225c97978bf933c2f83581749f10165a699e04d9fad909")

    def test_coriolis_sweep(self):
        sc = TestLockstepSweep._disturbed_benign()
        sc.vessel = VesselParams(coriolis_on=True)
        assert _digest(sweep(sc, 6).episodes) == (
            "4aaace882af7d778961f4630eee4fe561673271b7aaf3b37715ef82bb432ca77")

    def test_decaying_funnels_sweep_and_run(self, tmp_path):
        sc = TestLockstepSweep._decaying_benign()
        assert _digest(sweep(sc, 6).episodes) == (
            "800f606eea8a885395c37ab2ab36f3df7e6937b7774e014c824a258024b52fff")
        run_episode(sc).save_csv(tmp_path / "episode.csv")
        assert _digest((tmp_path / "episode.csv").read_bytes()) == (
            "57ae129a1645aea10dc2f65d9420ddd5574f6379edde6013420892ddb57b3a60")

    # Every file `run` writes, pinned before the CSV writer formatted by column, the float
    # RK4 step lost its stage closures and the tick rows were built from Python floats;
    # long-run's again for the grid wrenches (its trajectory.json kept its digest).
    RUN_FILES = {
        "benign": {
            "episode.csv": "e81b905888b57733269fe40c128157ffaab2399b8054d651eec7fef7e93b4e0a",
            "summary.json": "4714dda5a66ccaa9cc2f6cc3500f0c2c6fa406dbd91dc6ffaf83653996a63d50",
            "trajectory.json": "e537e0450441d30e146f725fa8caf6bb3ae461c428652159283072cd9278ff09",
            "plotdata/errors_vs_funnels.csv":
                "f0f40c884949786870033feb89388aba50fcef98bcf5adc5767c360302037106",
            "plotdata/forward_velocity.csv":
                "e70c2eaffe766c758f170381d9229ec829d3610f49e1d915b2dfee7e9b54cb07",
            "plotdata/inputs.csv": "5beb9f22a38a5606186dcab108d742b78af7d188fbe02b869dff9d8d1b838e5d",
        },
        "long-run": {
            "episode.csv": "ebafacf4e54520aca2517afe23c33ee36a9180e8478ba746b82ec87546e953fd",
            "summary.json": "78bbad72f09a7375efe278081cc739b8ac83494a6e55c90d36aa6020f489beda",
            "trajectory.json": "d96f10953cbae077d7c341c9b69f1c7e96017c1a3e7ed22047a1ff58807daf37",
            "plotdata/errors_vs_funnels.csv":
                "bd59cc01b1c7df417099f576a2f2c17e07b48b1e490f1849dd2976bb393d15ad",
            "plotdata/forward_velocity.csv":
                "f5aa90a070cfdf50211ca40417bc32bfd71c10d605d90cabf1e1e770bb2a6200",
            "plotdata/inputs.csv": "b33808a09559f47723dcf3d77e8d7740697f29bf7a841c08406bfc39442d5a15",
        },
    }

    @pytest.mark.parametrize("scenario", sorted(RUN_FILES))
    def test_run_artifacts(self, scenario, tmp_path):
        assert main(["run", "--scenario", scenario, "--out-dir", str(tmp_path)]) == 0
        written = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*") if f.is_file())
        assert written == sorted(self.RUN_FILES[scenario])
        assert {name: _digest((tmp_path / name).read_bytes()) for name in written} == (
            self.RUN_FILES[scenario])

    def test_traj_samples(self, tmp_path):
        assert main(["traj", "--scenario", "trajectory-demo", "--out-dir", str(tmp_path)]) == 0
        assert _digest((tmp_path / "trajectory_samples.csv").read_bytes()) == (
            "eaa0c32b0696494978c1922389bea346ec6ccb762686ddfa79e85a0683cdaddc")


# Cells the writer must format as repr does: signed zeros, NaN, infinities, subnormals,
# the exponent form from 1e16 on, and plain values.
_CSV_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5e-310, 2.2250738585072014e-308,
               1e16, -1e16, 9999999999999998.0, 1.2345678901234567e17, 1e300, 0.1, -1.0, 123.456]


class TestWriteCsv:
    """write_csv gives the bytes of the cell-by-cell writer it replaced."""

    @staticmethod
    def _both(tmp_dir, header, arrays) -> tuple[bytes, bytes]:
        write_csv(tmp_dir / "new.csv", header, arrays)
        write_csv_oracle(tmp_dir / "oracle.csv", header, arrays)
        return (tmp_dir / "new.csv").read_bytes(), (tmp_dir / "oracle.csv").read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.sampled_from(_CSV_VALUES) | st.floats(), min_size=1, max_size=6),
           kinds=st.lists(st.sampled_from(["mixed", "constant", "constant_but_last",
                                           "constant_but_negated_last"]), max_size=6),
           n=st.sampled_from([0, 1, 2, 9, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 3]),
           strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_cell_by_cell_oracle(self, tmp_path_factory, values, kinds, n, strided, seed):
        rng = np.random.default_rng(seed)
        table = np.empty((n, len(kinds)))
        for k, kind in enumerate(kinds):
            table[:, k] = rng.choice(values, n) if kind == "mixed" else rng.choice(values)
            if kind == "constant_but_last" and n:
                table[-1, k] = rng.choice(_CSV_VALUES)
            elif kind == "constant_but_negated_last" and n:  # 0.0 then -0.0, say
                table[-1, k] = -table[-1, k]
        # strided views of one table, as traj writes its samples, or contiguous copies
        arrays = list(table.T) if strided else [c.copy() for c in table.T]
        header = [f"c{k}" for k in range(len(kinds))]
        new, oracle = self._both(tmp_path_factory.mktemp("csv"), header, arrays)
        assert new == oracle
        assert new.count(b"\n") == 1 + (n if kinds else 0)

    def test_signed_zeros_and_nans_are_not_constant(self, tmp_path):
        # -0.0 == 0.0 and NaN != NaN: only the bits tell a constant block
        n = _CSV_BLOCK + 5
        columns = {"zero_then_minus": [0.0] * (n - 1) + [-0.0], "minus_then_zero": [-0.0] * (n - 1) + [0.0],
                   "nan": [math.nan] * n, "nan_then_inf": [math.nan] * (n - 1) + [math.inf],
                   "tiny": [5e-324] * n, "big": [1e16] * (n - 1) + [9999999999999998.0]}
        arrays = [np.array(v) for v in columns.values()]
        new, oracle = self._both(tmp_path, list(columns), arrays)
        assert new == oracle
        last = new.decode().splitlines()[-1].split(",")
        assert last == ["-0.0", "0.0", "nan", "inf", "5e-324", "9999999999999998.0"]
        for rows in (1, 0):  # one row, and a header-only log
            new, oracle = self._both(tmp_path, list(columns), [a[:rows] for a in arrays])
            assert new == oracle and new.count(b"\n") == 1 + rows


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
