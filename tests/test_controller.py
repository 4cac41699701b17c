import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav.controller import (CHANNELS, ControllerConfig, check_initial_compliance, control_tick,
                                  funnel_radii, stages, violated)
from funnelnav.dynamics import VesselState
from funnelnav.errors import DegenerateDistance, InitialComplianceError
from funnelnav.funnels import XI_CLAMP, FunnelSpec, compute_errors
from oracles import cascade_oracle


def make_config(**overrides):
    base = dict(
        k_d=2.0, k_u=50.0, k_o=1.0, k_r=10.0,
        funnel_d=FunnelSpec(28.0, 28.0),
        funnel_u=FunnelSpec(25.0, 25.0),
        funnel_o=FunnelSpec(0.9999, 0.9999),
        funnel_r=FunnelSpec(15.0, 15.0),
        rho_d_min=0.5,
        F_T_max=1000.0,
        alpha_r_max=math.pi / 6.0,
    )
    base.update(overrides)
    return ControllerConfig(**base)


# Mid-funnel distance error of make_config's distance funnel: xi_d = 0, so u_des = 0.
MID = (28.0 + 0.5) / 2.0


def named(out):
    """The (F_T, alpha_r, signals) of stages or control_tick by name. violated holds the
    flags of violated(xi) per channel, violations the violated channels of a float tick."""
    F_T, alpha_r, (xi, eps, u_des, r_des, X_des, N_des, u_alpha, u_F) = out
    flags = violated(np.array(xi))
    return SimpleNamespace(
        F_T=F_T, alpha_r=alpha_r, **dict(zip(("xi_d", "xi_o", "xi_u", "xi_r"), xi)),
        **dict(zip(("eps_d", "eps_o", "eps_u", "eps_r"), eps)), u_des=u_des, r_des=r_des,
        X_des=X_des, N_des=N_des, u_alpha=u_alpha, u_F=u_F, violated=flags,
        violations=[ch for ch, v in zip(CHANNELS, flags) if v] if flags.ndim == 1 else None)


def run_stages(u, r, e_d, e_o, t, cfg):
    """stages at the funnel radii of time t, a float or one per column, by name."""
    return named(stages(u, r, e_d, e_o, funnel_radii(cfg, t), cfg))


def references(e_d, e_o=0.0, t=0.0, cfg=None):
    """Stages 1+2 alone: the cascade at zero surge and yaw rate."""
    return run_stages(0.0, 0.0, e_d, e_o, t, cfg or make_config())


def allocate(eps_u, eps_r, cfg):
    """The allocation alone: zero references (e_d mid-funnel, e_o = 0) and the
    velocity errors whose transformed values are eps_u and eps_r, where the
    funnel edge does not clamp them."""
    return run_stages(cfg.funnel_u.rho0 * math.tanh(eps_u), cfg.funnel_r.rho0 * math.tanh(eps_r),
                      MID, 0.0, 0.0, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(k_d=0.0)
        with pytest.raises(ValueError):
            make_config(funnel_o=FunnelSpec(1.0, 1.0))
        with pytest.raises(ValueError):
            make_config(alpha_r_max=math.pi / 4.0)
        with pytest.raises(ValueError):
            make_config(rho_d_min=30.0)  # funnel floor above the funnel
        with pytest.raises(ValueError):
            make_config(F_T_max=math.inf)  # the clipped thrust must be finite

    def test_k_alpha(self):
        cfg = make_config(k_u=10.0, k_r=10.0, delta_x_nominal=1.0)
        assert cfg.k_alpha == 1.0
        cfg = make_config(k_u=10.0, k_r=30.0, delta_x_nominal=1.5)
        assert cfg.k_alpha == pytest.approx(2.0)


class TestVelocityReferences:
    def test_zero_errors_zero_references(self):
        out = references(MID)
        assert out.u_des == 0.0
        assert out.r_des == 0.0
        assert out.xi_d == pytest.approx(0.0)

    def test_distance_reference_value(self):
        # e_d=20 in the loose funnel: xi = 11.5/27.5, u_des = 2 atanh(xi)
        out = references(20.0, cfg=make_config(k_d=2.0))
        assert out.xi_d == pytest.approx(11.5 / 27.5, abs=1e-15)
        assert out.u_des == pytest.approx(2.0 * math.atanh(11.5 / 27.5), abs=1e-12)
        assert out.u_des == pytest.approx(0.891, abs=1e-3)

    def test_orientation_reference_value(self):
        r_des = references(20.0, e_o=0.5, cfg=make_config(k_o=1.0)).r_des
        assert r_des == pytest.approx(-math.atanh(0.5 / 0.9999), abs=1e-12)
        assert r_des == pytest.approx(-0.54937, abs=1e-4)

    def test_funnel_violation_tagged(self):
        # e_d = 30 lies beyond the distance funnel: clamped to its edge and flagged
        out = references(30.0, t=1.5)
        assert out.violations == ["d"]
        assert out.eps_d == math.atanh(XI_CLAMP)
        assert out.u_des == 2.0 * math.atanh(XI_CLAMP)

    def test_monotone_in_distance_error(self):
        eds = np.linspace(1.0, 27.5, 100)
        vals = [references(e).u_des for e in eds]
        assert np.all(np.diff(vals) > 0.0)

    def test_orientation_reference_decreasing(self):
        eos = np.linspace(-0.95, 0.95, 50)
        vals = [references(10.0, e_o=e).r_des for e in eos]
        assert np.all(np.diff(vals) < 0.0)


class TestWrenchReferences:
    def test_zero_velocity_errors(self):
        # surge and yaw rate equal to their nonzero references
        cfg = make_config()
        refs = references(20.0, e_o=0.5, cfg=cfg)
        out = run_stages(refs.u_des, refs.r_des, 20.0, 0.5, 0.0, cfg)
        assert refs.u_des != 0.0 and refs.r_des != 0.0
        assert out.X_des == 0.0 and out.N_des == 0.0

    def test_surge_demand_value(self):
        out = run_stages(-12.5, 0.0, MID, 0.0, 0.0, make_config(k_u=50.0))
        assert out.xi_u == pytest.approx(-0.5)
        assert out.X_des == pytest.approx(50.0 * math.atanh(0.5), abs=1e-12)
        assert out.X_des == pytest.approx(27.465, abs=1e-3)

    def test_torque_demand_value(self):
        out = run_stages(0.0, 7.5, MID, 0.0, 0.0, make_config(k_r=10.0))
        assert out.xi_r == pytest.approx(0.5)
        assert out.N_des == pytest.approx(-10.0 * math.atanh(0.5), abs=1e-12)
        assert out.N_des == pytest.approx(-5.4931, abs=1e-4)

    def test_scale_consistency(self):
        # doubling rho_u while halving e_u leaves the demand unchanged
        cfg1 = make_config(funnel_u=FunnelSpec(25.0, 25.0))
        cfg2 = make_config(funnel_u=FunnelSpec(50.0, 50.0))
        out1 = run_stages(-10.0, 0.0, MID, 0.0, 0.0, cfg1)
        out2 = run_stages(-20.0, 0.0, MID, 0.0, 0.0, cfg2)
        assert out1.X_des == pytest.approx(out2.X_des, abs=1e-12)


class TestAllocation:
    def test_pure_surge_demand(self):
        cfg = make_config(k_u=50.0, F_T_max=1000.0)
        cmd = allocate(-1.0, 0.0, cfg)
        assert cmd.u_alpha == 0.0
        assert cmd.alpha_r == 0.0
        assert cmd.F_T == pytest.approx(min(50.0, 1000.0))

    def test_overspeed_cuts_thrust(self):
        cfg = make_config()
        cmd = allocate(0.3, 0.0, cfg)
        assert cmd.F_T == 0.0
        cmd = allocate(0.0, 0.5, cfg)
        assert cmd.F_T == 0.0

    def test_rudder_clamp_sign(self):
        # strong torque demand with weak surge demand saturates the rudder
        # toward -alpha_max * sign(eps_r)
        cfg = make_config(k_u=10.0, k_r=10.0)  # k_alpha = 1
        cmd = allocate(-1.0, 10.0, cfg)
        # eps_r = atanh(tanh(10)) is 10 up to the map's conditioning near the edge
        assert cmd.eps_r == pytest.approx(10.0, rel=1e-6)
        assert cmd.u_alpha == pytest.approx(math.atan(cmd.eps_r / cmd.eps_u), abs=1e-12)
        assert cmd.u_alpha == pytest.approx(math.atan(-10.0), abs=1e-8)
        assert cmd.alpha_r == -cfg.alpha_r_max
        cmd = allocate(-1.0, -10.0, cfg)
        assert cmd.alpha_r == cfg.alpha_r_max

    def test_overspeed_rudder_follows_proof_sign(self):
        cfg = make_config()
        cmd = allocate(0.5, 2.0, cfg)
        assert cmd.alpha_r == -cfg.alpha_r_max
        cmd = allocate(0.5, -2.0, cfg)
        assert cmd.alpha_r == cfg.alpha_r_max

    def test_bounds_bit_exact(self):
        # k_u = 200: the funnel edge caps |eps_u| at atanh(1 - 1e-9) ~ 10.7,
        # so the thrust demand still reaches past F_T_max
        cfg = make_config(k_u=200.0)
        rng = np.random.default_rng(0)
        saturated = 0
        for _ in range(2000):
            eps_u = float(rng.uniform(-50, 50))
            eps_r = float(rng.uniform(-50, 50))
            cmd = allocate(eps_u, eps_r, cfg)
            assert 0.0 <= cmd.F_T <= cfg.F_T_max
            assert abs(cmd.alpha_r) <= cfg.alpha_r_max
            saturated += cmd.F_T == cfg.F_T_max
        assert saturated > 0

    def test_unsaturated_wrench_reconstruction(self):
        # Inside the saturation limits the allocated actuators reproduce the
        # demanded force/torque exactly (with the nominal arm).
        cfg = make_config(k_u=400.0, k_r=120.0, delta_x_nominal=1.5, F_T_max=1e6)
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(3000):
            cmd = allocate(float(rng.uniform(-2.0, -1e-3)), float(rng.uniform(-1.0, 1.0)), cfg)
            if abs(cmd.u_alpha) > cfg.alpha_r_max or not (0.0 <= cmd.u_F <= cfg.F_T_max):
                continue
            checked += 1
            X = cmd.F_T * math.cos(cmd.alpha_r)
            N = cfg.delta_x_nominal * cmd.F_T * math.sin(cmd.alpha_r)
            assert X == pytest.approx(-cfg.k_u * cmd.eps_u, rel=1e-9)
            assert N == pytest.approx(-cfg.k_r * cmd.eps_r, rel=1e-9, abs=1e-12)
        assert checked > 500


class TestControlTick:
    def test_bounds_always_hold(self):
        cfg = make_config()
        rng = np.random.default_rng(2)
        clamped = 0
        for _ in range(500):
            state = VesselState(rng.uniform(-5, 5), rng.uniform(-5, 5),
                                rng.uniform(0, 2 * math.pi), rng.uniform(-3, 8),
                                rng.uniform(-2, 2), rng.uniform(-2, 2))
            p_des = state.p_x + rng.uniform(1, 27), state.p_y + rng.uniform(-2, 2)
            cmd = named(control_tick(state, p_des, 1.0, cfg))
            assert 0.0 <= cmd.F_T <= cfg.F_T_max
            assert abs(cmd.alpha_r) <= cfg.alpha_r_max
            clamped += bool(cmd.violations)
        assert clamped > 0  # the clamped ticks are among them

    def test_equilibrium_near_zero_actuation(self):
        cfg = make_config()
        state = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        cmd = named(control_tick(state, (MID, 0.0), 1.0, cfg))
        assert cmd.u_alpha == 0.0
        assert cmd.alpha_r == 0.0
        assert cmd.F_T == pytest.approx(0.0, abs=1e-9)

    def test_time_invariant_with_static_funnels(self):
        cfg = make_config()
        state = VesselState(0.0, 0.0, 0.1, 1.0, 0.1, 0.05)
        p_des = (15.0, 3.0)
        cmd_a = named(control_tick(state, p_des, 1e-9, cfg))
        cmd_b = named(control_tick(state, p_des, 100.0, cfg))
        assert (cmd_a.F_T, cmd_a.alpha_r) == (cmd_b.F_T, cmd_b.alpha_r)
        assert cmd_a.xi_d == cmd_b.xi_d

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
            assert not named(control_tick(state, p_des, 5.0, cfg)).violations

    def test_degenerate_distance_propagates(self):
        cfg = make_config()
        state = VesselState(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateDistance):
            control_tick(state, (1.0, 2.0), 1.0, cfg)


def _assert_batch_matches_scalar(u, r, e_d, e_o, t, cfg):
    """The array cascade against the float cascade and the oracle, column by column."""
    batch = run_stages(u, r, e_d, e_o, t, cfg)
    F_T, alpha_r, flags = batch.F_T, batch.alpha_r, batch.violated
    for k in range(len(u)):
        t_k = t[k] if np.ndim(t) else t
        scalar = run_stages(float(u[k]), float(r[k]), float(e_d[k]), float(e_o[k]), t_k, cfg)
        oracle = cascade_oracle(u[k], r[k], e_d[k], e_o[k], t_k, cfg)
        for ref in (scalar, oracle):
            assert F_T[k] == pytest.approx(ref.F_T, rel=1e-12, abs=1e-9)
            assert alpha_r[k] == pytest.approx(ref.alpha_r, rel=1e-12, abs=1e-15)
            assert [ch for ch, v in zip("dour", flags[:, k]) if v] == ref.violations
            assert batch.u_des[k] == pytest.approx(ref.u_des, rel=1e-12, abs=1e-12)
            assert batch.r_des[k] == pytest.approx(ref.r_des, rel=1e-12, abs=1e-12)
    assert flags.any(axis=1).all() and not flags.all(axis=0).all()
    return F_T


class TestControlBatch:
    def test_matches_scalar_clamp_path(self):
        # distance errors on both sides of the funnel, every orientation,
        # overspeed surge (eps_u >= 0, the guarded rudder division) and
        # velocity errors outside their funnels
        cfg = make_config(funnel_u=FunnelSpec(2.0, 2.0), funnel_r=FunnelSpec(0.5, 0.5))
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
            run_stages(np.array([np.nan]), np.zeros(1), np.array([10.0]), np.zeros(1),
                       0.0, make_config())


class TestCascadeBounds:
    """Extreme states: control_tick, the array cascade and the oracle agree, saturated."""

    CFG = make_config(funnel_d=FunnelSpec(40.0, 28.0, 0.3), funnel_o=FunnelSpec(0.9999, 0.8, 0.2),
                      funnel_u=FunnelSpec(6.0, 2.0, 0.5), funnel_r=FunnelSpec(1.5, 0.5, 0.4))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(columns=st.lists(st.tuples(
        st.floats(-1e3, 1e3),      # u
        st.floats(-1e3, 1e3),      # r
        st.floats(1e-6, 1e4),      # e_d, inside and on both sides of the distance funnel
        st.floats(-1.0, 1.0),      # e_o
        st.floats(0.0, 200.0),     # t
    ), min_size=1, max_size=8))
    def test_tick_and_batch_agree_within_bounds(self, columns):
        cfg = self.CFG
        states, errors = [], []
        for u, r, e_d, e_o, _t in columns:
            # Vessel at the origin heading along x: e_o = -e_y / e_d.
            p_des = (e_d * math.sqrt(1.0 - e_o * e_o), -e_d * e_o)
            states.append((VesselState(0.0, 0.0, 0.0, u, 0.0, r), p_des))
            errors.append(compute_errors(0.0, 0.0, 0.0, *p_des))
        u, r, _, _, t = (np.array(c) for c in zip(*columns))
        _e_x, _e_y, e_d, e_o, _psi_e = (np.array(c) for c in zip(*errors))
        batch = run_stages(u, r, e_d, e_o, t, cfg)
        F_T, alpha_r, flags, u_des, r_des = (
            batch.F_T, batch.alpha_r, batch.violated, batch.u_des, batch.r_des)
        assert np.all((0.0 <= F_T) & (F_T <= cfg.F_T_max))
        assert np.all(np.abs(alpha_r) <= cfg.alpha_r_max)
        for k, (state, p_des) in enumerate(states):
            refs = [cascade_oracle(u[k], r[k], e_d[k], e_o[k], t[k], cfg)]
            try:
                refs.append(named(control_tick(state, p_des, t[k], cfg)))
            except InitialComplianceError:
                assert t[k] == 0.0  # the t = 0 precondition, not the cascade
            for ref in refs:
                assert 0.0 <= ref.F_T <= cfg.F_T_max
                assert abs(ref.alpha_r) <= cfg.alpha_r_max
                assert F_T[k] == pytest.approx(ref.F_T, rel=1e-12, abs=1e-9)
                assert alpha_r[k] == pytest.approx(ref.alpha_r, rel=1e-12, abs=1e-15)
                assert [ch for ch, v in zip("dour", flags[:, k]) if v] == ref.violations
                assert u_des[k] == pytest.approx(ref.u_des, rel=1e-12, abs=1e-12)
                assert r_des[k] == pytest.approx(ref.r_des, rel=1e-12, abs=1e-12)


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
        cfg = make_config(funnel_u=FunnelSpec(0.5, 0.5))
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
        F_T, _alpha_r, _signals = control_tick(state, (20.0, 0.0), 0.5, cfg)
        assert F_T >= 0.0
