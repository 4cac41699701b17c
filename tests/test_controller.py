import math

import numpy as np
import pytest

from funnelnav.controller import (
    ControllerConfig,
    ControllerDebug,
    check_initial_compliance,
    control_batch,
    control_tick,
    saturate_and_allocate,
    velocity_references,
    wrench_references,
)
from funnelnav.dynamics import VesselState
from funnelnav.errors import DegenerateDistance, FunnelViolation, InitialComplianceError
from funnelnav.funnels import FunnelSpec, TrackingErrors, compute_errors


def make_config(**overrides):
    base = dict(
        k_d=2.0, k_u=50.0, k_o=1.0, k_r=10.0,
        funnel_d=FunnelSpec.static(28.0),
        funnel_u=FunnelSpec.static(25.0),
        funnel_o=FunnelSpec.static(0.9999),
        funnel_r=FunnelSpec.static(15.0),
        rho_d_min=0.5,
        F_T_max=1000.0,
        alpha_r_max=math.pi / 6.0,
    )
    base.update(overrides)
    return ControllerConfig(**base)


def errors_at(e_d, e_o=0.0):
    return TrackingErrors(e_x=e_d, e_y=0.0, e_d=e_d, e_o=e_o, psi_e=math.asin(e_o))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(k_d=0.0)
        with pytest.raises(ValueError):
            make_config(funnel_o=FunnelSpec.static(1.0))
        with pytest.raises(ValueError):
            make_config(alpha_r_max=math.pi / 4.0)
        with pytest.raises(ValueError):
            make_config(rho_d_min=30.0)  # funnel floor above the funnel

    def test_k_alpha(self):
        cfg = make_config(k_u=10.0, k_r=10.0, delta_x_nominal=1.0)
        assert cfg.k_alpha == 1.0
        cfg = make_config(k_u=10.0, k_r=30.0, delta_x_nominal=1.5)
        assert cfg.k_alpha == pytest.approx(2.0)


class TestVelocityReferences:
    def test_zero_errors_zero_references(self):
        cfg = make_config()
        mid = (28.0 + 0.5) / 2.0
        u_des, r_des, dbg = velocity_references(errors_at(mid), 0.0, cfg)
        assert u_des == 0.0
        assert r_des == 0.0
        assert dbg.xi_d == pytest.approx(0.0)

    def test_distance_reference_value(self):
        # e_d=20 in the loose funnel: xi = 11.5/27.5, u_des = 2 atanh(xi)
        cfg = make_config(k_d=2.0)
        u_des, _, dbg = velocity_references(errors_at(20.0), 0.0, cfg)
        assert dbg.xi_d == pytest.approx(11.5 / 27.5, abs=1e-15)
        assert u_des == pytest.approx(2.0 * math.atanh(11.5 / 27.5), abs=1e-12)
        assert u_des == pytest.approx(0.891, abs=1e-3)

    def test_orientation_reference_value(self):
        cfg = make_config(k_o=1.0)
        _, r_des, _ = velocity_references(errors_at(20.0, e_o=0.5), 0.0, cfg)
        assert r_des == pytest.approx(-math.atanh(0.5 / 0.9999), abs=1e-12)
        assert r_des == pytest.approx(-0.54937, abs=1e-4)

    def test_funnel_violation_tagged(self):
        cfg = make_config()
        with pytest.raises(FunnelViolation) as exc:
            velocity_references(errors_at(30.0), 1.5, cfg)
        assert exc.value.channel == "d"

    def test_monotone_in_distance_error(self):
        cfg = make_config()
        eds = np.linspace(1.0, 27.5, 100)
        vals = [velocity_references(errors_at(e), 0.0, cfg)[0] for e in eds]
        assert np.all(np.diff(vals) > 0.0)

    def test_orientation_reference_decreasing(self):
        cfg = make_config()
        eos = np.linspace(-0.95, 0.95, 50)
        vals = [velocity_references(errors_at(10.0, e_o=e), 0.0, cfg)[1] for e in eos]
        assert np.all(np.diff(vals) < 0.0)


class TestWrenchReferences:
    def test_zero_velocity_errors(self):
        cfg = make_config()
        state = VesselState(0, 0, 0, 1.2, 0, -0.3)
        X, N, _ = wrench_references(state, 1.2, -0.3, 0.0, cfg)
        assert X == 0.0 and N == 0.0

    def test_surge_demand_value(self):
        cfg = make_config(k_u=50.0)
        state = VesselState(0, 0, 0, -12.5, 0, 0.0)
        X, _, dbg = wrench_references(state, 0.0, 0.0, 0.0, cfg)
        assert dbg.xi_u == pytest.approx(-0.5)
        assert X == pytest.approx(50.0 * math.atanh(0.5), abs=1e-12)
        assert X == pytest.approx(27.465, abs=1e-3)

    def test_torque_demand_value(self):
        cfg = make_config(k_r=10.0)
        state = VesselState(0, 0, 0, 0.0, 0, 7.5)
        _, N, dbg = wrench_references(state, 0.0, 0.0, 0.0, cfg)
        assert dbg.xi_r == pytest.approx(0.5)
        assert N == pytest.approx(-10.0 * math.atanh(0.5), abs=1e-12)
        assert N == pytest.approx(-5.4931, abs=1e-4)

    def test_scale_consistency(self):
        # doubling rho_u while halving e_u leaves the demand unchanged
        cfg1 = make_config(funnel_u=FunnelSpec.static(25.0))
        cfg2 = make_config(funnel_u=FunnelSpec.static(50.0))
        s1 = VesselState(0, 0, 0, -10.0, 0, 0)
        s2 = VesselState(0, 0, 0, -20.0, 0, 0)
        X1, _, _ = wrench_references(s1, 0.0, 0.0, 0.0, cfg1)
        X2, _, _ = wrench_references(s2, 0.0, 0.0, 0.0, cfg2)
        assert X1 == pytest.approx(X2, abs=1e-12)


class TestAllocation:
    def test_pure_surge_demand(self):
        cfg = make_config(k_u=50.0, F_T_max=1000.0)
        cmd, dbg = saturate_and_allocate(-1.0, 0.0, cfg)
        assert dbg.u_alpha == 0.0
        assert cmd.alpha_r == 0.0
        assert cmd.F_T == pytest.approx(min(50.0, 1000.0))

    def test_overspeed_cuts_thrust(self):
        cfg = make_config()
        cmd, _ = saturate_and_allocate(0.3, 0.0, cfg)
        assert cmd.F_T == 0.0
        cmd, _ = saturate_and_allocate(0.0, 0.5, cfg)
        assert cmd.F_T == 0.0

    def test_rudder_clamp_sign(self):
        # strong torque demand with weak surge demand saturates the rudder
        # toward -alpha_max * sign(eps_r)
        cfg = make_config(k_u=10.0, k_r=10.0)  # k_alpha = 1
        cmd, dbg = saturate_and_allocate(-1.0, 10.0, cfg)
        assert dbg.u_alpha == pytest.approx(math.atan(-10.0), abs=1e-12)
        assert cmd.alpha_r == -cfg.alpha_r_max
        cmd, _ = saturate_and_allocate(-1.0, -10.0, cfg)
        assert cmd.alpha_r == cfg.alpha_r_max

    def test_overspeed_rudder_follows_proof_sign(self):
        cfg = make_config()
        cmd, _ = saturate_and_allocate(0.5, 2.0, cfg)
        assert cmd.alpha_r == -cfg.alpha_r_max
        cmd, _ = saturate_and_allocate(0.5, -2.0, cfg)
        assert cmd.alpha_r == cfg.alpha_r_max

    def test_bounds_bit_exact(self):
        cfg = make_config()
        rng = np.random.default_rng(0)
        for _ in range(2000):
            eps_u = float(rng.uniform(-50, 50))
            eps_r = float(rng.uniform(-50, 50))
            cmd, _ = saturate_and_allocate(eps_u, eps_r, cfg)
            assert 0.0 <= cmd.F_T <= cfg.F_T_max
            assert abs(cmd.alpha_r) <= cfg.alpha_r_max

    def test_unsaturated_wrench_reconstruction(self):
        # Inside the saturation limits the allocated actuators reproduce the
        # demanded force/torque exactly (with the nominal arm).
        cfg = make_config(k_u=400.0, k_r=120.0, delta_x_nominal=1.5, F_T_max=1e6)
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(3000):
            eps_u = float(rng.uniform(-2.0, -1e-3))
            eps_r = float(rng.uniform(-1.0, 1.0))
            cmd, dbg = saturate_and_allocate(eps_u, eps_r, cfg)
            if abs(dbg.u_alpha) > cfg.alpha_r_max or not (0.0 <= dbg.u_F <= cfg.F_T_max):
                continue
            checked += 1
            X = cmd.F_T * math.cos(cmd.alpha_r)
            N = cfg.delta_x_nominal * cmd.F_T * math.sin(cmd.alpha_r)
            assert X == pytest.approx(-cfg.k_u * eps_u, rel=1e-9)
            assert N == pytest.approx(-cfg.k_r * eps_r, rel=1e-9, abs=1e-12)
        assert checked > 500


class TestControlTick:
    def test_bounds_always_hold(self):
        cfg = make_config()
        rng = np.random.default_rng(2)
        for _ in range(500):
            state = VesselState(rng.uniform(-5, 5), rng.uniform(-5, 5),
                                rng.uniform(0, 2 * math.pi), rng.uniform(-3, 8),
                                rng.uniform(-2, 2), rng.uniform(-2, 2))
            p_des = state.p_x + rng.uniform(1, 27), state.p_y + rng.uniform(-2, 2)
            try:
                cmd, _ = control_tick(state, p_des, 1.0, cfg)
            except FunnelViolation:
                cmd, _ = control_tick(state, p_des, 1.0, cfg, clamp=True)
            assert 0.0 <= cmd.F_T <= cfg.F_T_max
            assert abs(cmd.alpha_r) <= cfg.alpha_r_max

    def test_equilibrium_near_zero_actuation(self):
        cfg = make_config()
        mid = (28.0 + 0.5) / 2.0
        state = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        cmd, dbg = control_tick(state, (mid, 0.0), 1.0, cfg)
        assert dbg.u_alpha == 0.0
        assert cmd.alpha_r == 0.0
        assert cmd.F_T == pytest.approx(0.0, abs=1e-9)

    def test_time_invariant_with_static_funnels(self):
        cfg = make_config()
        state = VesselState(0.0, 0.0, 0.1, 1.0, 0.1, 0.05)
        p_des = (15.0, 3.0)
        cmd_a, dbg_a = control_tick(state, p_des, 1e-9, cfg)
        cmd_b, dbg_b = control_tick(state, p_des, 100.0, cfg)
        assert cmd_a == cmd_b
        assert dbg_a.xi_d == dbg_b.xi_d

    def test_loose_funnel_config_accepts_compliant_states(self):
        # The static loose funnels never reject a state that satisfies them.
        cfg = make_config()
        rng = np.random.default_rng(3)
        for _ in range(300):
            e_d = rng.uniform(0.6, 27.9)
            bearing = rng.uniform(-math.pi / 3, math.pi / 3)
            psi = rng.uniform(0, 2 * math.pi)
            state = VesselState(0.0, 0.0, psi, rng.uniform(0, 5), 0.0, rng.uniform(-1, 1))
            direction = psi - bearing
            p_des = (e_d * math.cos(direction), e_d * math.sin(direction))
            cmd, dbg = control_tick(state, p_des, 5.0, cfg)
            assert not dbg.violations

    def test_degenerate_distance_propagates(self):
        cfg = make_config()
        state = VesselState(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateDistance):
            control_tick(state, (1.0, 2.0), 1.0, cfg)


def _assert_batch_matches_scalar(u, r, e_d, e_o, t, cfg):
    """control_batch against control_tick's clamped cascade, column by column."""
    F_T, alpha_r, violated, u_des_b, r_des_b = control_batch(u, r, e_d, e_o, t, cfg)
    for k in range(len(u)):
        dbg = ControllerDebug()
        t_k = t[k] if np.ndim(t) else t
        state = VesselState(0.0, 0.0, 0.0, u[k], 0.0, r[k])
        errors = TrackingErrors(e_x=e_d[k], e_y=0.0, e_d=e_d[k], e_o=e_o[k], psi_e=0.0)
        u_des, r_des, dbg = velocity_references(errors, t_k, cfg, debug=dbg, clamp=True)
        wrench_references(state, u_des, r_des, t_k, cfg, debug=dbg, clamp=True)
        cmd, dbg = saturate_and_allocate(dbg.eps_u, dbg.eps_r, cfg, debug=dbg)
        assert F_T[k] == pytest.approx(cmd.F_T, rel=1e-12, abs=1e-9)
        assert alpha_r[k] == pytest.approx(cmd.alpha_r, rel=1e-12, abs=1e-15)
        assert [ch for ch, v in zip("dour", violated[:, k]) if v] == dbg.violations
        assert u_des_b[k] == pytest.approx(dbg.u_des, rel=1e-12, abs=1e-12)
        assert r_des_b[k] == pytest.approx(dbg.r_des, rel=1e-12, abs=1e-12)
    assert violated.any(axis=1).all() and not violated.all(axis=0).all()
    return F_T


class TestControlBatch:
    def test_matches_scalar_clamp_path(self):
        # distance errors on both sides of the funnel, every orientation,
        # overspeed surge (eps_u >= 0, the guarded rudder division) and
        # velocity errors outside their funnels
        cfg = make_config(funnel_u=FunnelSpec.static(2.0), funnel_r=FunnelSpec.static(0.5))
        rng = np.random.default_rng(3)
        n = 2000
        e_d = rng.uniform(0.0, 35.0, n)
        e_o = rng.uniform(-1.0, 1.0, n)
        u = rng.uniform(-2.0, 60.0, n)
        r = rng.uniform(-2.0, 2.0, n)
        F_T = _assert_batch_matches_scalar(u, r, e_d, e_o, 4.0, cfg)
        assert (u > 10.0).any() and (F_T == 0.0).any()

    def test_time_per_column(self):
        # decaying funnels sampled at a different time in every column
        cfg = make_config(funnel_d=FunnelSpec(40.0, 28.0, 0.3), funnel_o=FunnelSpec(0.9999, 0.8, 0.2),
                          funnel_u=FunnelSpec(6.0, 2.0, 0.5), funnel_r=FunnelSpec(1.5, 0.5, 0.4))
        rng = np.random.default_rng(8)
        n = 500
        t = rng.uniform(0.0, 20.0, n)
        _assert_batch_matches_scalar(rng.uniform(-2.0, 60.0, n), rng.uniform(-2.0, 2.0, n),
                                     rng.uniform(0.0, 45.0, n), rng.uniform(-1.0, 1.0, n), t, cfg)

    def test_nonfinite_command_rejected(self):
        with pytest.raises(ValueError):
            control_batch(np.array([np.nan]), np.zeros(1), np.array([10.0]), np.zeros(1),
                          0.0, make_config())


class TestInitialCompliance:
    def test_compliant_start_passes(self):
        cfg = make_config()
        state = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        errors = compute_errors(0.0, 0.0, 0.0, 14.0, 0.0)
        check_initial_compliance(errors, state, cfg)  # should not raise

    def test_distance_violation_with_suggestion(self):
        cfg = make_config()
        state = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        errors = compute_errors(0.0, 0.0, 0.0, 40.0, 0.0)
        with pytest.raises(InitialComplianceError) as exc:
            check_initial_compliance(errors, state, cfg)
        diag = exc.value.diagnostics
        assert "d" in diag
        assert diag["d"]["suggested_rho0"] == pytest.approx(40.0, rel=1e-5)

    def test_bearing_violation_has_no_inflation(self):
        cfg = make_config()
        state = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        errors = compute_errors(0.0, 0.0, math.pi, 14.0, 0.0)  # target dead astern
        with pytest.raises(InitialComplianceError) as exc:
            check_initial_compliance(errors, state, cfg)
        assert exc.value.diagnostics["psi_e"]["suggested_rho0"] is None

    def test_velocity_channel_checked(self):
        cfg = make_config(funnel_u=FunnelSpec.static(0.5))
        state = VesselState(0.0, 0.0, 0.0, 5.0, 0.0, 0.0)
        errors = compute_errors(0.0, 0.0, 0.0, 14.25, 0.0)  # u_des = 0 here
        with pytest.raises(InitialComplianceError) as exc:
            check_initial_compliance(errors, state, cfg)
        diag = exc.value.diagnostics
        assert "u" in diag
        assert diag["u"]["suggested_rho0"] == pytest.approx(5.0, rel=1e-5)

    def test_triggered_through_control_tick_at_t0(self):
        cfg = make_config()
        state = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(InitialComplianceError):
            control_tick(state, (40.0, 0.0), 0.0, cfg)
        # the same geometry is fine at t > 0 if the funnel still admits it
        cmd, _ = control_tick(state, (20.0, 0.0), 0.5, cfg)
        assert cmd.F_T >= 0.0
