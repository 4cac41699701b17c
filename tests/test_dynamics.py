import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav.dynamics import (
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
from funnelnav.harness import _TABLE_TICKS
from funnelnav.scenario import load_scenario
from oracles import (disturbance_bounds, disturbance_oracle, step_floats_oracle, step_rows_oracle,
                     step_state, table_oracle, wrench_oracle)

NO_DRAG = VesselParams(drag=DragCoeffs(0, 0, 0, 0, 0, 0))
ZERO_DIST = DisturbanceProfile()
IDLE = (0.0, 0.0)  # (F_T, alpha_r)


class TestActuatorMap:
    def test_zero_thrust_zero_wrench(self):
        assert actuator_to_wrench(0.0, 0.3, VesselParams()) == (0.0, 0.0, 0.0)

    def test_straight_thrust(self):
        X, Y, N = actuator_to_wrench(100.0, 0.0, VesselParams())
        assert (X, Y, N) == (100.0, 0.0, 0.0)

    def test_deflected_thrust_trigonometry(self):
        X, Y, N = actuator_to_wrench(100.0, math.pi / 6.0, VesselParams(Delta_x=1.5))
        assert X == pytest.approx(100.0 * math.sqrt(3.0) / 2.0, abs=1e-9)
        assert Y == pytest.approx(50.0, abs=1e-9)
        assert N == pytest.approx(75.0, abs=1e-9)

    def test_lateral_force_torque_coupling_exact(self):
        # Y * Delta_x == N bit-exactly: the underactuation constraint.
        rng = np.random.default_rng(3)
        for _ in range(200):
            params = VesselParams(Delta_x=float(rng.uniform(0.3, 4.0)))
            _, Y, N = actuator_to_wrench(float(rng.uniform(0, 5000)), float(rng.uniform(-0.5, 0.5)),
                                         params)
            assert Y * params.Delta_x == N

    @pytest.mark.parametrize("F_T, alpha_r, valid", [
        (0.0, 0.0, True), (-0.0, -0.0, True), (5000.0, -0.5, True), (-1.0, 0.0, False),
        (-1e-300, 0.0, False), (math.nan, 0.0, False), (math.inf, 0.0, False),
        (-math.inf, 0.0, False), (1.0, math.nan, False), (1.0, math.inf, False),
        (1.0, -math.inf, False)])
    def test_floats_and_arrays_accepted_alike(self, F_T, alpha_r, valid):
        # The pair as floats, and as the middle entries of arrays whose other entries are
        # valid, maps to one wrench. With the rudder forward of abeam, a valid command
        # (finite, thrust >= 0) is exactly one whose wrench is finite with X >= 0.
        params = VesselParams()
        with np.errstate(invalid="ignore"):  # inf * 0 and cos(inf) are NaN
            columns = actuator_to_wrench(np.array([5.0, F_T, 0.0]), np.array([0.1, alpha_r, 0.0]),
                                         params)
        wrench = [c[1] for c in columns]
        try:
            floats = actuator_to_wrench(F_T, alpha_r, params)
        except ValueError:  # math.cos of an infinite angle
            floats = [math.nan] * 3
        assert np.array_equal(floats, wrench, equal_nan=True)
        assert bool(np.isfinite(wrench).all() and wrench[0] >= 0.0) == valid
        assert np.isfinite(np.array(columns)[:, [0, 2]]).all()
        # no episode, no wrench
        assert all(c.shape == (0,) for c in actuator_to_wrench(np.empty(0), np.empty(0), params))


class TestRotation:
    def test_wrap_angle(self):
        assert wrap_angle(2 * math.pi) == 0.0
        assert wrap_angle(-0.1) == pytest.approx(2 * math.pi - 0.1)
        assert 0.0 <= wrap_angle(123.456) < 2 * math.pi

    @pytest.mark.parametrize("psi, want", [
        (-1e-17, 0.0), (-5e-324, 0.0), (-4.4e-16, 0.0), (-5e-16, math.nextafter(2 * math.pi, 0.0)),
        (2 * math.pi, 0.0), (4 * math.pi, 0.0), (-2 * math.pi, 0.0), (-0.0, 0.0),
        (3 * (2 * math.pi), math.fmod(3 * (2 * math.pi), 2 * math.pi)),
        (-3 * (2 * math.pi), 0.0), (-7 * (2 * math.pi), 0.0)])
    def test_wrap_angle_below_two_pi(self, psi, want):
        # psi + 2 pi rounds up to 2 pi just below 0; that is 0 in [0, 2 pi)
        for got in (wrap_angle(psi), wrap_angle(np.array([psi, 1.0]))[0]):
            assert 0.0 <= got < 2 * math.pi
            assert got == want
        if math.fmod(psi, 2 * math.pi) == 0.0:  # -0.0 stays -0.0, as fmod leaves it
            assert math.copysign(1.0, wrap_angle(psi)) == math.copysign(1.0, math.fmod(psi, 2 * math.pi))

    def test_wrap_angle_keeps_every_other_value(self):
        rng = np.random.default_rng(5)
        psi = np.concatenate((rng.uniform(-60.0, 60.0, 4000), -rng.uniform(0.0, 2e-15, 200),
                              rng.uniform(-1e6, 1e6, 200)))
        old = np.fmod(psi, 2 * math.pi)
        old = np.where(old < 0.0, old + 2 * math.pi, old)
        moved = old == 2 * math.pi
        got = wrap_angle(psi)
        assert moved.any() and np.array_equal(got[~moved], old[~moved]) and not got[moved].any()
        assert [wrap_angle(float(p)) for p in psi] == got.tolist()


class TestStep:
    def test_equilibrium(self):
        s0 = VesselState(1.0, 2.0, 0.3, 0.0, 0.0, 0.0, t=5.0)
        s1 = step_state(s0, *IDLE, NO_DRAG, ZERO_DIST, 0.1)
        assert (s1.p_x, s1.p_y, s1.psi, s1.u, s1.v, s1.r) == (1.0, 2.0, 0.3, 0.0, 0.0, 0.0)
        assert s1.t == pytest.approx(5.1)

    def test_kinematic_translation(self):
        s0 = VesselState(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        s1 = step_state(s0, *IDLE, NO_DRAG, ZERO_DIST, 0.1)
        assert s1.p_x == pytest.approx(0.1, abs=1e-12)
        assert s1.p_y == pytest.approx(0.0, abs=1e-12)

    def test_pure_yaw_matches_closed_form(self):
        s0 = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 0.5)
        s1 = step_state(s0, *IDLE, NO_DRAG, ZERO_DIST, 0.01)
        assert s1.psi == pytest.approx(0.005, abs=1e-9)
        assert s1.p_x == 0.0 and s1.p_y == 0.0

    def test_momentum_conserved_without_forces(self):
        s = VesselState(0.0, 0.0, 1.0, 2.0, -0.5, 0.3)
        for _ in range(100):
            s = step_state(s, *IDLE, NO_DRAG, ZERO_DIST, 0.05)
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
        cmd = (500.0, 0.2)

        def endpoint(dt):
            s = VesselState(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
            for _ in range(int(round(10.0 / dt))):
                s = step_state(s, *cmd, params, dist, dt)
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
            s = step_state(s, *IDLE, NO_DRAG, ZERO_DIST, 0.1)
            assert 0.0 <= s.psi < 2 * math.pi

    def test_nonfinite_detected(self):
        s = VesselState(0.0, 0.0, 0.0, 10.0, 0.0, 0.0)
        params = VesselParams(drag=DragCoeffs(d2_u=1e6))
        with pytest.raises(NonFiniteState):
            # Quadratic drag with an absurd step size diverges within a
            # couple of steps; the integrator must flag it, not emit NaNs.
            for _ in range(5):
                s = step_state(s, *IDLE, params, ZERO_DIST, 10.0)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            step_state(VesselState(0, 0, 0, 0, 0, 0), *IDLE, NO_DRAG, ZERO_DIST, 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), coriolis_on=st.booleans(),
           signed_zero=st.sampled_from([None, 0.0, -0.0]))
    def test_floats_match_closure_oracle(self, seed, coriolis_on, signed_zero):
        # the one stage loop runs the nested closures' operations, bit for bit (-0.0 too)
        rng = np.random.default_rng(seed)
        params = VesselParams(m=float(rng.uniform(50.0, 500.0)), Iz=float(rng.uniform(50.0, 500.0)),
                              Delta_x=float(rng.uniform(0.3, 3.0)), coriolis_on=coriolis_on,
                              drag=DragCoeffs(*rng.uniform(0.0, 400.0, 6).tolist()))
        bound = np.array([100.0, 100.0, 10.0, 5.0, 2.0, 1.0])
        x = rng.uniform(-bound, bound).tolist()
        if signed_zero is not None:
            x[int(rng.integers(6))] = signed_zero
        taus = [tuple(rng.uniform(-300.0, 300.0, 3).tolist()) for _ in range(3)]
        args = (x, float(rng.uniform(0.0, 5000.0)), float(rng.uniform(-0.6, 0.6)), params, *taus,
                float(rng.choice([0.01, 0.05, 0.1, rng.uniform(0.001, 0.5)])))
        assert list(map(float.hex, step(*args))) == list(map(float.hex, step_floats_oracle(*args)))

    @pytest.mark.parametrize("alpha_r, psi", [
        (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3), (0.1, math.nan), (0.1, math.inf)])
    def test_nonfinite_angle_raises_typed_on_both_paths(self, alpha_r, psi):
        # math.cos raises ValueError on an infinite angle where numpy gives NaN: both paths
        # report a non-finite angle of the rudder or the heading as NonFiniteState
        x, tau = [0.0, 0.0, psi, 1.0, 0.0, 0.0], (0.0, 0.0, 0.0)
        with pytest.raises(NonFiniteState):
            step(x, 100.0, alpha_r, VesselParams(), tau, tau, tau, 0.05)
        xb = np.array([[0.0, 0.0, 0.3, 1.0, 0.0, 0.0], x, [0.0] * 6]).T
        zero = np.zeros((3, 3))
        with pytest.raises(NonFiniteState), np.errstate(invalid="ignore"):  # cos(inf) is NaN
            step(xb, np.full(3, 100.0), np.array([0.1, alpha_r, 0.0]), VesselParams(), zero, zero,
                 zero, 0.05)


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
            tau = table_oracle(batch, np.array([t]))[0]
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
        taus = table_oracle(batch, np.array([t0, t0 + 0.5 * dt, t0 + dt]))
        out = step(x, F_T, alpha_r, params, *taus, dt)
        for b in range(8):
            s = step_state(VesselState(*x[:, b], t=t0), F_T[b], alpha_r[b], params, profiles[b], dt)
            assert out[:, b] == pytest.approx([s.p_x, s.p_y, s.psi, s.u, s.v, s.r],
                                              rel=1e-12, abs=1e-12)
        assert np.all((0.0 <= out[2]) & (out[2] < 2 * math.pi))

    @pytest.mark.parametrize("coriolis_on", [False, True])
    def test_step_batch_matches_row_oracle(self, coriolis_on):
        # the one-block kinetic derivative runs the row-by-row operations, bit for bit
        params = VesselParams(coriolis_on=coriolis_on)
        rng = np.random.default_rng(1)
        for b in (1, 7, 512):
            x = rng.uniform(-3.0, 3.0, (6, b))
            x[2] = rng.uniform(-1.0, 7.0, b)  # headings on both sides of [0, 2 pi)
            F_T, alpha_r = rng.uniform(0.0, 5000.0, b), rng.uniform(-0.5, 0.5, b)
            taus = rng.uniform(-300.0, 300.0, (3, 3, b))
            args = (x, F_T, alpha_r, params, *taus, 0.05)
            assert np.array_equal(step(*args), step_rows_oracle(*args))

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
        bounds = disturbance_bounds(dist)
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
        assert disturbance_bounds(a) == disturbance_bounds(b)
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
        # t = 0, random times and the running sums of a step dt.
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
        # Row b of the table at per_column holds every column at per_column[b].
        at_t, at_columns = table_oracle(batch, np.array([t]))[0], table_oracle(batch, per_column)
        for b, p in enumerate(profiles):
            assert np.array_equal(at_t[:, b], p.value(t))
            assert np.array_equal(at_columns[b, :, b], p.value(float(per_column[b])))


class TestQuietDisturbance:
    """Zero sinusoid and noise amplitudes: the wrench is the bias, with no sine evaluated and
    every bit of the full formula kept. Bits are compared as integers, so -0.0 != 0.0."""

    QUIET = DisturbanceProfile(
        x=AxisDisturbance(bias=30.0, sin_freq_hz=0.05, sin_phase=1.0),
        y=AxisDisturbance(bias=-20.0, sin_amp=-0.0, sin_freq_hz=0.08),  # -0.0 is quiet too
        psi=AxisDisturbance(noise_amp=-0.0),
        seed=4,
    )
    NEGATIVE_ZERO_BIAS = DisturbanceProfile(x=AxisDisturbance(bias=-0.0), seed=4)
    TIMES = np.array([0.0, 0.025, 13.7, 179.95, 1234.5])

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    def _assert_formula(self, profile):
        terms = profile._terms
        for t in self.TIMES.tolist():
            assert np.array_equal(self._bits(profile.value(t)), self._bits(wrench_oracle(terms, t)[:, 0]))
        assert np.array_equal(self._bits(profile.value(self.TIMES)),
                              self._bits(wrench_oracle(terms, self.TIMES)))
        # Reseeded copies side by side in a batch: each column is its copy's, bit for bit.
        copies = [profile.reseeded(k) for k in range(3)]
        table = table_oracle(DisturbanceBatch(copies), self.TIMES)
        for b, p in enumerate(copies):
            assert np.array_equal(self._bits(table[..., b].T), self._bits(p.value(self.TIMES)))

    @staticmethod
    def _sines(monkeypatch, profile) -> int:
        """np.sin calls of a float value, a times value and a grid of the profile (one at
        row 0 and one for the rotations, unless quiet)."""
        calls, real_sin = [], np.sin
        monkeypatch.setattr(np, "sin", lambda x: calls.append(1) or real_sin(x))
        profile.value(1.0)
        profile.value(TestQuietDisturbance.TIMES)
        DisturbanceBatch([profile, profile]).grid(0.0, 0.025, 129)
        monkeypatch.setattr(np, "sin", real_sin)
        return len(calls)

    def test_quiet_profile_is_its_bias(self, monkeypatch):
        self._assert_formula(self.QUIET)
        self._assert_formula(ZERO_DIST)
        assert self._sines(monkeypatch, self.QUIET) == 0
        assert self.QUIET.value(7.0) == (30.0, -20.0, 0.0)
        tau = self.QUIET.value(self.TIMES)
        tau[0] = 1.0  # a fresh array: the profile's bias is untouched
        assert self.QUIET.value(7.0) == (30.0, -20.0, 0.0)

    def test_negative_zero_bias_takes_the_formula(self, monkeypatch):
        # -0.0 + 0.0 is 0.0: the bias alone would keep the wrong sign bit.
        self._assert_formula(self.NEGATIVE_ZERO_BIAS)
        assert self._sines(monkeypatch, self.NEGATIVE_ZERO_BIAS) == 4
        assert not np.signbit(self.NEGATIVE_ZERO_BIAS.value(7.0)[0])


class TestGridTable:
    """DisturbanceBatch.grid: the wrenches at t0 + k * h by rotation from one true sine and
    cosine per term, within rounding of the formula, each column its profile's alone."""

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 64, 65, 100, 129]))
    def test_columns_are_their_own_grids(self, seed, n):
        rng = np.random.default_rng(seed)
        profiles = [random_profile(rng) for _ in range(6)] + [ZERO_DIST, TestBatch.DIST]
        batch = DisturbanceBatch(profiles)
        t0, h = float(rng.uniform(0.0, 600.0)), float(rng.uniform(0.001, 0.1))
        grid = batch.grid(t0, h, n)
        assert grid.shape == (n, 3, len(profiles)) and grid.flags.c_contiguous
        for b, p in enumerate(profiles):
            assert np.array_equal(self._bits(grid[..., b]),
                                  self._bits(DisturbanceBatch([p]).grid(t0, h, n)[..., 0]))
        # Row 0 is the formula's at t0; the rotations survive a slice of the batch.
        assert np.array_equal(self._bits(grid[0]), self._bits(table_oracle(batch, np.array([t0]))[0]))
        keep = rng.random(len(profiles)) < 0.5
        assert np.array_equal(self._bits(batch[keep].grid(t0, h, n)), self._bits(grid[..., keep]))

    def test_deviation_from_formula_over_long_run(self):
        # Every table of a long-run sweep episode, anchored at its first tick's time i * dt:
        # the first and the last point of each and all between, against the formula at the
        # same times i * dt + k * h.
        sc = load_scenario("long-run")
        profiles = [sc.disturbance.reseeded(k) for k in range(8)]
        scale = np.array([[abs(ax.bias) + abs(ax.sin_amp) + abs(ax.noise_amp)]
                          for ax in sc.disturbance.axes])
        batch = DisturbanceBatch(profiles)
        dt, n_max = sc.sim_dt, sc.n_ticks
        h, worst = 0.5 * dt, 0.0
        for i in range(0, n_max, _TABLE_TICKS):
            n = 2 * min(_TABLE_TICKS, n_max - i) + 1
            grid = batch.grid(i * dt, h, n)
            formula = table_oracle(batch, i * dt + h * np.arange(n))
            assert np.array_equal(grid[0], formula[0])
            worst = max(worst, float((np.abs(grid - formula) / scale).max()))
        assert n_max * dt == pytest.approx(sc.horizon) and 0.0 < worst <= 1e-11

    def test_quiet_grid_is_its_bias_without_trig(self, monkeypatch):
        quiet = TestQuietDisturbance.QUIET
        for profiles in ([quiet], [quiet.reseeded(k) for k in range(3)], [ZERO_DIST]):
            batch = DisturbanceBatch(profiles)
            formula = table_oracle(batch, 12.3 + 0.025 * np.arange(129))
            calls, real_sin, real_cos = [], np.sin, np.cos
            monkeypatch.setattr(np, "sin", lambda x: calls.append("sin") or real_sin(x))
            monkeypatch.setattr(np, "cos", lambda x: calls.append("cos") or real_cos(x))
            grid = batch.grid(12.3, 0.025, 129)
            monkeypatch.undo()
            assert calls == []
            assert np.array_equal(self._bits(grid), self._bits(formula))
            grid[0] = 1.0  # a fresh array: the batch's bias is untouched
            assert np.array_equal(self._bits(batch.grid(12.3, 0.025, 129)), self._bits(formula))


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
