import dataclasses
import math

import numpy as np
import pytest

from funnelnav.controller import funnel_radii
from funnelnav.errors import DegenerateDistance
from funnelnav.funnels import (
    FunnelSpec,
    compute_errors,
    normalize_asymmetric,
    normalize_symmetric,
    transform,
)
from funnelnav.scenario import load_scenario
from oracles import atanh_to_edge


class TestFunnelSpec:
    def test_static_is_constant(self):
        f = FunnelSpec(28.0, 28.0)
        assert f.value(0.0) == 28.0
        assert f.value(1000.0) == 28.0
        assert f.rate(3.0) == 0.0

    def test_decaying_shape(self):
        f = FunnelSpec(rho0=10.0, rho_inf=1.0, l=0.5)
        assert f.value(0.0) == pytest.approx(10.0)
        ts = np.linspace(0.0, 20.0, 200)
        vals = np.array([f.value(t) for t in ts])
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals >= f.rho_inf)
        # analytic rate vs finite difference
        h = 1e-6
        for t in (0.0, 1.3, 7.0):
            fd = (f.value(t + h) - f.value(t - h)) / (2.0 * h)
            assert f.rate(t) == pytest.approx(fd, abs=1e-6)

    def test_array_times_match_scalar(self):
        f = FunnelSpec(rho0=10.0, rho_inf=1.0, l=0.5)
        ts = np.linspace(0.0, 20.0, 57)
        assert np.array_equal(f.value(ts), [f.value(t) for t in ts])
        assert np.array_equal(f.rate(ts), [f.rate(t) for t in ts])

    def test_table_rows_equal_tick_values(self):
        # The tick loops sample the radii of a table of ticks at once: row i is the
        # value at tick i's time i * dt, bit for bit, for any decaying funnels.
        rng = np.random.default_rng(12)
        cfg = load_scenario("benign").controller
        for _ in range(20):
            rho_inf = rng.uniform(0.6, 30.0, 4)
            rho_inf[1] = rng.uniform(0.05, 0.9)
            rho0 = rho_inf + rng.uniform(0.0, 20.0, 4)
            rho0[1] = rng.uniform(rho_inf[1], 0.9999)
            funnels = [FunnelSpec(float(a), float(b), float(l))
                       for a, b, l in zip(rho0, rho_inf, rng.uniform(0.0, 2.0, 4))]
            cfg = dataclasses.replace(cfg, **dict(zip(("funnel_d", "funnel_o", "funnel_u", "funnel_r"),
                                                      funnels)))
            dt, n = float(rng.uniform(0.001, 0.2)), int(rng.integers(1, 400))
            table = funnel_radii(cfg, np.arange(n) * dt).T.tolist()
            for i, row in enumerate(table):
                assert row == [f.value(i * dt) for f in funnels]
                assert row == funnel_radii(cfg, i * dt).tolist()

    @pytest.mark.parametrize("rho0,rho_inf,l", [(1.0, 2.0, 0.1), (1.0, 0.0, 0.1), (1.0, 0.5, -1.0)])
    def test_invalid_params_rejected(self, rho0, rho_inf, l):
        with pytest.raises(ValueError):
            FunnelSpec(rho0=rho0, rho_inf=rho_inf, l=l)


class TestComputeErrors:
    def test_target_dead_ahead(self):
        _e_x, _e_y, e_d, e_o, psi_e = compute_errors(0.0, 0.0, 0.0, 10.0, 0.0)
        assert e_d == 10.0
        assert e_o == 0.0
        assert psi_e == 0.0

    def test_target_abeam_to_port(self):
        # NED frame, heading along x, target on +y: bearing is -pi/2.
        _e_x, _e_y, e_d, e_o, psi_e = compute_errors(0.0, 0.0, 0.0, 0.0, 5.0)
        assert e_d == pytest.approx(5.0)
        assert e_o == pytest.approx(-1.0)
        assert psi_e == pytest.approx(-math.pi / 2.0)

    def test_zero_distance_degenerates(self):
        with pytest.raises(DegenerateDistance):
            compute_errors(3.0, 4.0, 1.0, 3.0, 4.0)

    def test_e_o_is_sin_psi_e_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            px, py, dx, dy = rng.uniform(-50, 50, 4)
            psi = rng.uniform(0, 2 * math.pi)
            if math.hypot(dx - px, dy - py) < 1e-6:
                continue
            _e_x, _e_y, e_d, e_o, psi_e = compute_errors(px, py, psi, dx, dy)
            assert abs(e_o) <= 1.0 + 1e-12
            assert e_o == pytest.approx(math.sin(psi_e), abs=1e-12)
            # sin^2 + cos^2 of the bearing from the raw components
            cos_part = ((dx - px) * math.cos(psi) + (dy - py) * math.sin(psi)) / e_d
            assert e_o ** 2 + cos_part ** 2 == pytest.approx(1.0, abs=1e-12)


class TestNormalization:
    def test_asymmetric_midpoint_and_edges(self):
        assert normalize_asymmetric((28.0 + 0.5) / 2.0, 28.0, 0.5) == pytest.approx(0.0)
        assert normalize_asymmetric(28.0, 28.0, 0.5) == pytest.approx(1.0)
        assert normalize_asymmetric(0.5, 28.0, 0.5) == pytest.approx(-1.0)

    def test_asymmetric_loose_funnel_value(self):
        # rho_d=28, rho_min=0.5, e_d=14: (28 - 28.5) / 27.5
        assert normalize_asymmetric(14.0, 28.0, 0.5) == pytest.approx(-0.5 / 27.5, abs=1e-15)

    def test_asymmetric_is_affine(self):
        rho, rho_min = 17.0, 0.25
        e1, e2 = 2.0, 11.0
        x1 = normalize_asymmetric(e1, rho, rho_min)
        x2 = normalize_asymmetric(e2, rho, rho_min)
        for lam in (0.2, 0.5, 0.9):
            e = (1 - lam) * e1 + lam * e2
            expected = (1 - lam) * x1 + lam * x2
            assert normalize_asymmetric(e, rho, rho_min) == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        assert normalize_symmetric(0.0, 3.0) == 0.0
        assert normalize_symmetric(3.0, 3.0) == 1.0
        assert normalize_symmetric(12.5, 25.0) == 0.5

    def test_bad_funnel_values_rejected(self):
        # The normalizations' domain is checked where the radii are sampled, once per
        # table of times: a config cannot hold a bad funnel, so only a NaN time fails.
        cfg = load_scenario("benign").controller
        for t in (math.nan, np.array([0.0, math.nan, 2.0])):
            with pytest.raises(ValueError, match="rho_d > rho_d_min"):
                funnel_radii(cfg, t)

    def test_array_radii(self):
        e = np.array([14.25, 3.0, 0.0])
        rho = np.array([28.0, 6.0, 2.0])
        assert np.array_equal(normalize_asymmetric(e, rho, 0.5),
                              [normalize_asymmetric(a, b, 0.5) for a, b in zip(e, rho)])
        assert np.array_equal(normalize_symmetric(e, rho), e / rho)


def bits(values) -> np.ndarray:
    """The float64 bit patterns as integers: -0.0 differs from 0.0, one NaN from another."""
    return np.array(values, dtype=float).view(np.int64)


class TestTransform:
    def test_known_values(self):
        assert transform(0.0) == 0.0
        assert transform(0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
        assert transform(0.999) == pytest.approx(math.atanh(0.999), abs=1e-15)
        assert transform(0.999) == pytest.approx(3.80020116725, abs=1e-10)

    def test_edge_is_clamped(self):
        # the funnel edge itself is a violation: taken at 1 - 1e-9
        assert transform(1.0) == math.atanh(1.0 - 1e-9)
        assert transform(-1.0) == -transform(1.0)
        # numpy's atanh may differ from math's in the last bit
        assert transform(np.array([1.0, 0.5, -1.0])) == pytest.approx(
            [transform(1.0), transform(0.5), transform(-1.0)], rel=1e-15)

    def test_list_path_matches_array_path(self):
        edges = [1.0, -1.0, float(np.nextafter(1.0, 0.0)), -float(np.nextafter(1.0, 0.0)),
                 0.0, -0.0, math.inf, -math.inf, math.nan]
        interior = np.random.default_rng(5).uniform(-1.0, 1.0, 2000).tolist()
        assert np.array_equal(bits(transform(edges)), bits(transform(np.array(edges))))
        # The list path is math.atanh of the clamped value, a NaN kept, bit for bit.
        got = transform(edges + interior)
        assert all(type(v) is float for v in got)
        assert np.array_equal(bits(got), bits([atanh_to_edge(v) for v in edges + interior]))
        assert np.array_equal(bits([transform(v) for v in edges]), bits(transform(edges)))
        # numpy's vectorized atanh rounds some interior values differently from libm's: on
        # an AVX-512 host it moves about 1 in 5 by one or two units in the last place.
        assert np.abs(bits(transform(np.array(interior))) - bits(transform(interior))).max() <= 4

    def test_clamp_mode_continues(self):
        val = transform(1.7)
        assert val == pytest.approx(math.atanh(1.0 - 1e-9))
        assert transform(-1.7) == -val

    def test_odd_and_strictly_increasing(self):
        xs = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 10_000)
        ys = np.array([transform(x) for x in xs])
        assert np.all(np.diff(ys) > 0.0)
        neg = np.array([transform(-x) for x in xs])
        assert np.max(np.abs(neg + ys)) < 1e-12

    def test_tanh_round_trip(self):
        xs = np.linspace(-0.999999, 0.999999, 2001)
        for x in xs[::7]:
            assert math.tanh(transform(x)) == pytest.approx(x, abs=1e-12)
