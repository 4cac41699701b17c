import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav.dynamics import (
    ActuatorCommand,
    AxisDisturbance,
    DisturbanceBatch,
    DisturbanceProfile,
    DragCoeffs,
    VesselParams,
    VesselState,
    actuator_to_wrench,
    lumped_forces,
    step,
    wrap_angle,
)
from funnelnav.errors import NonFiniteState
from oracles import disturbance_oracle, step_state

NO_DRAG = VesselParams(drag=DragCoeffs(0, 0, 0, 0, 0, 0))
ZERO_DIST = DisturbanceProfile.zero()
IDLE = ActuatorCommand(0.0, 0.0)


class TestActuatorMap:
    def test_zero_thrust_zero_wrench(self):
        assert actuator_to_wrench(ActuatorCommand(0.0, 0.3), VesselParams()) == (0.0, 0.0, 0.0)

    def test_straight_thrust(self):
        X, Y, N = actuator_to_wrench(ActuatorCommand(100.0, 0.0), VesselParams())
        assert (X, Y, N) == (100.0, 0.0, 0.0)

    def test_deflected_thrust_trigonometry(self):
        X, Y, N = actuator_to_wrench(ActuatorCommand(100.0, math.pi / 6.0),
                                     VesselParams(Delta_x=1.5))
        assert X == pytest.approx(100.0 * math.sqrt(3.0) / 2.0, abs=1e-9)
        assert Y == pytest.approx(50.0, abs=1e-9)
        assert N == pytest.approx(75.0, abs=1e-9)

    def test_lateral_force_torque_coupling_exact(self):
        # Y * Delta_x == N bit-exactly: the underactuation constraint.
        rng = np.random.default_rng(3)
        for _ in range(200):
            params = VesselParams(Delta_x=float(rng.uniform(0.3, 4.0)))
            cmd = ActuatorCommand(float(rng.uniform(0, 5000)), float(rng.uniform(-0.5, 0.5)))
            _, Y, N = actuator_to_wrench(cmd, params)
            assert Y * params.Delta_x == N

    def test_command_invariants(self):
        with pytest.raises(ValueError):
            ActuatorCommand(-1.0, 0.0)
        with pytest.raises(ValueError):
            ActuatorCommand(math.nan, 0.0)
        cmd = ActuatorCommand.clamped(1e9, -2.0, 4000.0, 0.5)
        assert cmd.F_T == 4000.0
        assert cmd.alpha_r == -0.5
        assert ActuatorCommand.clamped(-5.0, 0.1, 4000.0, 0.5).F_T == 0.0


class TestRotation:
    def test_wrap_angle(self):
        assert wrap_angle(2 * math.pi) == 0.0
        assert wrap_angle(-0.1) == pytest.approx(2 * math.pi - 0.1)
        assert 0.0 <= wrap_angle(123.456) < 2 * math.pi


class TestStep:
    def test_equilibrium(self):
        s0 = VesselState(1.0, 2.0, 0.3, 0.0, 0.0, 0.0, t=5.0)
        s1 = step_state(s0, IDLE, NO_DRAG, ZERO_DIST, 0.1)
        assert (s1.p_x, s1.p_y, s1.psi, s1.u, s1.v, s1.r) == (1.0, 2.0, 0.3, 0.0, 0.0, 0.0)
        assert s1.t == pytest.approx(5.1)

    def test_kinematic_translation(self):
        s0 = VesselState(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        s1 = step_state(s0, IDLE, NO_DRAG, ZERO_DIST, 0.1)
        assert s1.p_x == pytest.approx(0.1, abs=1e-12)
        assert s1.p_y == pytest.approx(0.0, abs=1e-12)

    def test_pure_yaw_matches_closed_form(self):
        s0 = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.5)
        s1 = step_state(s0, IDLE, NO_DRAG, ZERO_DIST, 0.01)
        assert s1.psi == pytest.approx(0.005, abs=1e-9)
        assert s1.p_x == 0.0 and s1.p_y == 0.0

    def test_momentum_conserved_without_forces(self):
        s = VesselState(0.0, 0.0, 1.0, 2.0, -0.5, 0.3)
        for _ in range(100):
            s = step_state(s, IDLE, NO_DRAG, ZERO_DIST, 0.05)
        assert s.u == pytest.approx(2.0, abs=1e-12)
        assert s.v == pytest.approx(-0.5, abs=1e-12)
        assert s.r == pytest.approx(0.3, abs=1e-12)

    def test_rk4_order_under_dt_halving(self):
        # Smooth forced trajectory over 10 s; halving dt should shrink the
        # endpoint error by about 2^4.
        params = VesselParams()
        dist = DisturbanceProfile(
            x=AxisDisturbance(sin_amp=200.0, sin_freq_hz=0.2),
            psi=AxisDisturbance(sin_amp=50.0, sin_freq_hz=0.15),
            seed=0,
        )
        cmd = ActuatorCommand(500.0, 0.2)

        def endpoint(dt):
            s = VesselState(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
            for _ in range(int(round(10.0 / dt))):
                s = step_state(s, cmd, params, dist, dt)
            return np.array([s.p_x, s.p_y, s.psi, s.u, s.v, s.r])

        ref = endpoint(0.003125)
        e1 = np.linalg.norm(endpoint(0.1) - ref)
        e2 = np.linalg.norm(endpoint(0.05) - ref)
        e3 = np.linalg.norm(endpoint(0.025) - ref)
        assert e1 / e2 == pytest.approx(16.0, rel=0.35)
        assert e2 / e3 == pytest.approx(16.0, rel=0.35)

    def test_heading_wrapped_every_step(self):
        s = VesselState(0.0, 0.0, 6.2, 0.0, 0.0, 2.0)
        for _ in range(50):
            s = step_state(s, IDLE, NO_DRAG, ZERO_DIST, 0.1)
            assert 0.0 <= s.psi < 2 * math.pi

    def test_nonfinite_detected(self):
        s = VesselState(0.0, 0.0, 0.0, 10.0, 0.0, 0.0)
        params = VesselParams(drag=DragCoeffs(d2_u=1e6))
        with pytest.raises(NonFiniteState):
            # Quadratic drag with an absurd step size diverges within a
            # couple of steps; the integrator must flag it, not emit NaNs.
            for _ in range(5):
                s = step_state(s, IDLE, params, ZERO_DIST, 10.0)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            step_state(VesselState(0, 0, 0, 0, 0, 0), IDLE, NO_DRAG, ZERO_DIST, 0.0)


class TestBatch:
    DIST = DisturbanceProfile(
        x=AxisDisturbance(bias=30.0, sin_amp=60.0, sin_freq_hz=0.05, noise_amp=30.0),
        y=AxisDisturbance(bias=-20.0, sin_amp=50.0, sin_freq_hz=0.08),
        psi=AxisDisturbance(bias=5.0, noise_amp=10.0),
        seed=4,
    )

    def test_disturbance_batch_matches_profiles(self):
        profiles = [self.DIST.reseeded(k) for k in range(5)] + [ZERO_DIST]
        batch = DisturbanceBatch(profiles)
        for t in (0.0, 0.025, 13.7, 179.95):
            tau = batch.value(t)
            for b, p in enumerate(profiles):
                assert tau[:, b] == pytest.approx(p.value(t), rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("coriolis_on", [False, True])
    def test_step_batch_matches_step(self, coriolis_on):
        params = VesselParams(coriolis_on=coriolis_on)
        profiles = [self.DIST.reseeded(k) for k in range(8)]
        batch = DisturbanceBatch(profiles)
        rng = np.random.default_rng(0)
        x = rng.uniform(-3.0, 3.0, (6, 8))
        x[2] = rng.uniform(0.0, 2.0 * math.pi, 8)
        x[2, 0] = 6.28  # wraps past 2 pi
        F_T = rng.uniform(0.0, 5000.0, 8)
        alpha_r = rng.uniform(-0.5, 0.5, 8)
        t0, dt = 12.3, 0.05
        out = step(x, F_T, alpha_r, params, batch.value(t0),
                   batch.value(t0 + 0.5 * dt), batch.value(t0 + dt), dt)
        for b in range(8):
            s = step_state(VesselState(*x[:, b], t=t0), ActuatorCommand(F_T[b], alpha_r[b]),
                           params, profiles[b], dt)
            assert out[:, b] == pytest.approx([s.p_x, s.p_y, s.psi, s.u, s.v, s.r],
                                              rel=1e-12, abs=1e-12)
        assert np.all((0.0 <= out[2]) & (out[2] < 2 * math.pi))

    def test_step_batch_nonfinite_detected(self):
        params = VesselParams(drag=DragCoeffs(d2_u=1e6))
        x = np.zeros((6, 2))
        x[3] = 10.0
        zero = np.zeros((3, 2))
        with pytest.raises(NonFiniteState), np.errstate(over="ignore", invalid="ignore"):
            for _ in range(5):
                x = step(x, np.zeros(2), np.zeros(2), params, zero, zero, zero, 10.0)


class TestDisturbance:
    def test_bounds_hold_densely(self):
        dist = DisturbanceProfile(
            x=AxisDisturbance(bias=30.0, sin_amp=60.0, sin_freq_hz=0.05, noise_amp=30.0),
            y=AxisDisturbance(bias=-20.0, sin_amp=50.0, sin_freq_hz=0.08, noise_amp=25.0),
            psi=AxisDisturbance(bias=5.0, sin_amp=20.0, sin_freq_hz=0.03, noise_amp=10.0),
            seed=123,
        )
        bounds = dist.bounds
        ts = np.linspace(0.0, 600.0, 60_001)
        for t in ts:
            vals = dist.value(t)
            for v, b in zip(vals, bounds):
                assert abs(v) <= b + 1e-12

    def test_deterministic_given_seed(self):
        a = DisturbanceProfile(x=AxisDisturbance(noise_amp=10.0), seed=9)
        b = DisturbanceProfile(x=AxisDisturbance(noise_amp=10.0), seed=9)
        assert all(a.value(t) == b.value(t) for t in (0.0, 1.7, 99.3))

    def test_reseeded_changes_realization_not_bounds(self):
        a = DisturbanceProfile(x=AxisDisturbance(sin_amp=5.0, sin_freq_hz=0.1, noise_amp=10.0), seed=1)
        b = a.reseeded(2)
        assert a.bounds == b.bounds
        diffs = [abs(a.value(t)[0] - b.value(t)[0]) for t in np.linspace(0, 50, 200)]
        assert max(diffs) > 1e-3


def random_profile(rng) -> DisturbanceProfile:
    """Random axes and noise seed; each amplitude is zero one time in three."""
    def amplitude(scale):
        return float(rng.uniform(-scale, scale)) if rng.random() > 1.0 / 3.0 else 0.0

    return DisturbanceProfile(*(
        AxisDisturbance(bias=amplitude(50.0), sin_amp=amplitude(60.0),
                        sin_freq_hz=float(rng.uniform(0.0, 0.5)),
                        sin_phase=float(rng.uniform(0.0, 2 * math.pi)), noise_amp=amplitude(30.0))
        for _ in range(3)), seed=int(rng.integers(2**32)))


class TestOneFormula:
    """Every evaluation of the disturbance goes through one formula, bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_times_array_matches_float_calls(self, seed):
        # t = 0, random times and state times accumulated as the RK4 steps them.
        rng = np.random.default_rng(seed)
        dist = random_profile(rng)
        dt = float(rng.uniform(0.01, 0.1))
        t_state = itertools.accumulate(itertools.repeat(dt, 40), initial=0.0)
        ts = np.array([0.0, *rng.uniform(0.0, 600.0, 20), *t_state])
        table = dist.value(ts)
        assert table.shape == (3, len(ts))
        for k, t in enumerate(ts.tolist()):
            single = dist.value(t)
            assert all(type(v) is float for v in single) and len(single) == 3
            assert np.array_equal(table[:, k], single)
            assert np.array_equal(single, disturbance_oracle(dist, t))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_batch_columns_match_profiles(self, seed, n):
        rng = np.random.default_rng(seed)
        profiles = [random_profile(rng) for _ in range(n)] + [ZERO_DIST]
        batch = DisturbanceBatch(profiles)
        t = float(rng.uniform(0.0, 600.0))
        per_column = rng.uniform(0.0, 600.0, len(profiles))
        at_t, at_columns = batch.value(t), batch.value(per_column)
        for b, p in enumerate(profiles):
            assert np.array_equal(at_t[:, b], p.value(t))
            assert np.array_equal(at_columns[:, b], p.value(float(per_column[b])))


class TestLumpedForces:
    def test_drag_only(self):
        params = VesselParams(drag=DragCoeffs(50.0, 25.0, 0, 0, 0, 0))
        s = VesselState(0, 0, 0, 2.0, 0.0, 0.0)
        f_u, f_v, f_r = lumped_forces(s, params, ZERO_DIST)
        assert f_u == pytest.approx(-(50.0 * 2.0 + 25.0 * 4.0))
        assert f_v == 0.0 and f_r == 0.0

    def test_coriolis_flag(self):
        params = VesselParams(drag=DragCoeffs(0, 0, 0, 0, 0, 0), coriolis_on=True)
        s = VesselState(0, 0, 0, 2.0, 1.0, 0.5)
        f_u, f_v, f_r = lumped_forces(s, params, ZERO_DIST)
        assert f_u == pytest.approx(params.m * 1.0 * 0.5)
        assert f_v == pytest.approx(-params.m * 2.0 * 0.5)
        assert f_r == 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            VesselParams(m=-1.0)
        with pytest.raises(ValueError):
            DragCoeffs(d1_u=-0.1)
