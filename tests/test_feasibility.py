import math

import pytest

from funnelnav import feasibility, harness
from funnelnav.dynamics import AxisDisturbance, DisturbanceProfile, DragCoeffs, VesselParams
from funnelnav.errors import DegenerateDistance, InsufficientSamples
from funnelnav.feasibility import (
    estimate_bounds,
    terminal_surge_speed,
    terminal_yaw_rate,
)
from funnelnav.scenario import Scenario, load_scenario, reference_lead
from oracles import feasibility_oracle


def powerful_quiet_scenario():
    """Zero disturbance, zero drag, huge actuator authority."""
    sc = load_scenario("benign")
    sc.vessel = VesselParams(drag=DragCoeffs(0, 0, 0, 0, 0, 0))
    sc.disturbance = DisturbanceProfile.zero()
    data = sc.to_dict()
    data["controller"]["F_T_max"] = 1e6
    from funnelnav.scenario import Scenario
    out = Scenario.from_dict(data)
    out.min_thrust_floor = 1e4
    return out


def overwhelming_bias_scenario():
    """A constant surge disturbance twice the surge authority."""
    sc = load_scenario("benign")
    authority = sc.controller.F_T_max * math.cos(sc.controller.alpha_r_max)
    sc.disturbance = DisturbanceProfile(x=AxisDisturbance(bias=2.0 * authority), seed=1)
    return sc


def coriolis_scenario():
    sc = load_scenario("long-run")
    sc.vessel = VesselParams(coriolis_on=True)
    return sc


def decaying_funnels_scenario():
    data = load_scenario("benign").to_dict()
    data["controller"]["funnels"] = {
        "d": {"rho0": 28.0, "rho_inf": 10.0, "l": 0.1},
        "u": {"rho0": 25.0, "rho_inf": 5.0, "l": 0.2},
        "o": {"rho0": 0.9999, "rho_inf": 0.6, "l": 0.05},
        "r": {"rho0": 15.0, "rho_inf": 3.0, "l": 0.3},
    }
    return Scenario.from_dict(data)


class TestEstimateBounds:
    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            estimate_bounds(load_scenario("benign"), n_samples=99)

    def test_quiet_powerful_scenario_passes_everything(self):
        rep = estimate_bounds(powerful_quiet_scenario(), n_samples=400, seed=0)
        assert rep.passed
        assert all(rep.verdicts[c] for c in ("thrust_floor", "surge_authority", "torque_authority", "initial_bearing"))
        assert rep.margins["surge_authority"] > 0.0
        assert rep.margins["torque_authority"] > 0.0

    def test_overwhelming_disturbance_fails_surge_condition(self):
        rep = estimate_bounds(overwhelming_bias_scenario(), n_samples=400, seed=0)
        assert not rep.verdicts["surge_authority"]
        assert rep.margins["surge_authority"] < 0.0
        assert not rep.passed

    def test_surge_authority_is_cos_scaled_thrust(self):
        sc = load_scenario("benign")
        rep = estimate_bounds(sc, n_samples=200, seed=0)
        authority = rep.margins["surge_authority"] + rep.F_bar_u
        assert authority == pytest.approx(
            sc.controller.F_T_max * math.cos(math.pi / 6.0), rel=1e-12)
        assert authority == pytest.approx(0.8660254037844387 * sc.controller.F_T_max, rel=1e-12)

    def test_monotone_in_thrust_limit(self):
        # raising F_T_max can only widen the surge margin here (the sampled
        # velocity envelope is pinned by 1.5 v_max, not the terminal speed)
        sc1 = load_scenario("benign")
        assert terminal_surge_speed(sc1) > 1.5 * sc1.v_max
        rep1 = estimate_bounds(sc1, n_samples=300, seed=5)
        data = sc1.to_dict()
        data["controller"]["F_T_max"] *= 2.0
        from funnelnav.scenario import Scenario
        sc2 = Scenario.from_dict(data)
        rep2 = estimate_bounds(sc2, n_samples=300, seed=5)
        assert rep2.margins["surge_authority"] > rep1.margins["surge_authority"]
        assert rep1.verdicts["surge_authority"] <= rep2.verdicts["surge_authority"]

    def test_running_max_nondecreasing_in_samples(self):
        sc = load_scenario("long-run")
        small = estimate_bounds(sc, n_samples=200, seed=3)
        big = estimate_bounds(sc, n_samples=600, seed=3)
        assert big.F_bar_u >= small.F_bar_u
        assert big.F_bar_r >= small.F_bar_r

    def test_achieving_sample_recorded(self):
        rep = estimate_bounds(load_scenario("long-run"), n_samples=300, seed=2)
        for best in (rep.achieving_sample_u, rep.achieving_sample_r):
            assert {"t", "u", "v", "r", "psi"} <= set(best)

    def test_long_run_scenario_is_feasible(self):
        rep = estimate_bounds(load_scenario("long-run"), n_samples=800)
        assert rep.passed

    def test_initial_bearing_at_fixed_lead(self):
        # The bearing judged is the one the episode starts with, at the
        # scenario's fixed lead rather than the automatic one.
        sc = load_scenario("long-run")
        traj = harness.plan_and_solve(sc)[1].trajectory
        auto = estimate_bounds(sc, n_samples=100, seed=0, trajectory=traj).psi_e0
        sc.reference_lead = 0.8 * reference_lead(sc, traj)
        rep = estimate_bounds(sc, n_samples=100, seed=0, trajectory=traj)
        assert rep.psi_e0 == harness.run_episode(sc).columns["psi_e"][0]
        assert rep.psi_e0 != auto

    def test_report_serializes(self, tmp_path):
        rep = estimate_bounds(load_scenario("benign"), n_samples=150, seed=0)
        out = tmp_path / "feas.json"
        rep.save_json(out)
        import json
        data = json.loads(out.read_text())
        assert set(data["verdicts"]) == {"thrust_floor", "surge_authority", "torque_authority", "initial_bearing"}
        assert data["passed"] == rep.passed


def _assert_reports_agree(batch: dict, oracle: dict) -> None:
    for key in ("verdicts", "passed", "n_samples", "seed", "thrust_cut_events"):
        assert batch[key] == oracle[key], key
    for key in ("margins", "achieving_sample_u", "achieving_sample_r"):
        assert batch[key].keys() == oracle[key].keys(), key
        for name in batch[key]:
            assert math.isclose(batch[key][name], oracle[key][name], rel_tol=1e-12), (key, name)
    for key in ("F_bar_u", "F_bar_r", "F_T_lower_declared", "F_T_lower_observed",
                "v_bar_declared", "v_bar_observed", "psi_e0"):
        assert math.isclose(batch[key], oracle[key], rel_tol=1e-12), key


PASS = feasibility._PASS
SCENARIOS = {
    "benign": lambda: load_scenario("benign"),
    "long-run": lambda: load_scenario("long-run"),
    "powerful-quiet": powerful_quiet_scenario,
    "overwhelming-bias": overwhelming_bias_scenario,
    "coriolis": coriolis_scenario,
    "decaying-funnels": decaying_funnels_scenario,
}


class TestBatchedBounds:
    """The pass-by-pass batch against the sample-by-sample oracle."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("n_samples,seed", [
        (PASS - 1, 0), (PASS, 7), (PASS + 1, 11), (2 * PASS + 37, 23)])
    def test_matches_oracle(self, name, n_samples, seed):
        sc = SCENARIOS[name]()
        batch = estimate_bounds(sc, n_samples=n_samples, seed=seed).to_dict()
        _assert_reports_agree(batch, feasibility_oracle(sc, n_samples=n_samples, seed=seed).to_dict())

    def test_achieving_samples_are_plain_floats(self):
        rep = estimate_bounds(load_scenario("long-run"), n_samples=PASS + 1, seed=4)
        values = [rep.F_bar_u, rep.F_bar_r, rep.F_T_lower_observed, rep.v_bar_observed,
                  *rep.achieving_sample_u.values(), *rep.achieving_sample_r.values()]
        assert all(type(v) is float for v in values)
        assert type(rep.thrust_cut_events) is int

    def test_degenerate_distance_raises(self):
        # A distance funnel far below the degeneracy guard puts every sampled
        # reference point on top of the vessel.
        data = load_scenario("benign").to_dict()
        data["controller"]["rho_d_min"] = 1e-12
        data["controller"]["funnels"]["d"] = {"rho0": 2e-12, "rho_inf": 2e-12, "l": 0.0}
        sc = Scenario.from_dict(data)
        with pytest.raises(DegenerateDistance, match="feasibility rollout"):
            estimate_bounds(sc, n_samples=100, seed=0)
        with pytest.raises(DegenerateDistance):
            feasibility_oracle(sc, n_samples=100, seed=0)


class TestTerminalRates:
    def test_surge_terminal_balances_drag(self):
        sc = load_scenario("benign")
        u = terminal_surge_speed(sc)
        d = sc.vessel.drag
        assert d.d1_u * u + d.d2_u * u * u == pytest.approx(sc.controller.F_T_max, rel=1e-9)

    def test_yaw_terminal_balances_drag(self):
        sc = load_scenario("benign")
        r = terminal_yaw_rate(sc)
        d = sc.vessel.drag
        torque = sc.vessel.Delta_x * sc.controller.F_T_max * math.sin(sc.controller.alpha_r_max)
        assert d.d1_r * r + d.d2_r * r * r == pytest.approx(torque, rel=1e-9)
