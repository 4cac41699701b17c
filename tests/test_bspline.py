import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav import bspline
from funnelnav.bspline import SplineTrajectory
from funnelnav.errors import OutOfDomain
from funnelnav.harness import plan_and_solve, write_json
from funnelnav.scenario import load_scenario, mid_funnel_distance
from oracles import (
    clamped_spline,
    deboor_eval,
    deboor_eval_batch,
    matrix_form_eval,
    point_in_hull,
    time_at_distance_oracle,
)


def random_trajectory(rng, n_wp=None, scale=5.0):
    n_wp = n_wp or int(rng.integers(4, 12))
    return clamped_spline(rng.uniform(-scale, scale, (n_wp, 2)),
                          float(rng.uniform(0.2, 2.0)))


class TestConstruction:
    def test_validation(self):
        pts = np.zeros((7, 2))
        with pytest.raises(ValueError):
            SplineTrajectory(pts, 1.0)  # too few
        good = clamped_spline(np.arange(8, dtype=float).reshape(4, 2), 1.0)
        assert good.n_points == 8
        with pytest.raises(ValueError):
            SplineTrajectory(good.control_points, 0.0)
        loose = good.control_points.copy()
        loose[0] += 1.0
        with pytest.raises(ValueError):
            SplineTrajectory(loose, 1.0)

    def test_duration_and_segments(self):
        traj = clamped_spline(np.random.default_rng(0).uniform(0, 1, (6, 2)), 0.5)
        assert traj.n_points == 10
        assert traj.n_segments == 7
        assert traj.duration == pytest.approx(3.5)


class TestEval:
    def test_knot_value_weights(self):
        rng = np.random.default_rng(1)
        traj = random_trajectory(rng)
        for j in range(traj.n_segments):
            Q = traj.control_points[j:j + 3]
            expected = (Q[0] + 4.0 * Q[1] + Q[2]) / 6.0
            assert np.allclose(traj.eval(j * traj.dt_knot), expected, atol=1e-12)

    def test_constant_spline_partition_of_unity(self):
        c = np.tile([[2.5, -1.0]], (9, 1))
        traj = SplineTrajectory(c, 0.5)
        for t in np.linspace(0.0, traj.duration, 101):
            assert np.allclose(traj.eval(t), [2.5, -1.0], atol=1e-12)

    def test_matches_deboor_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(60):
            traj = random_trajectory(rng)
            ts = rng.uniform(0.0, traj.duration, 50)
            for t in ts:
                diff = np.abs(traj.eval(t) - deboor_eval(traj.control_points, traj.dt_knot, t))
                worst = max(worst, float(diff.max()))
        assert worst < 1e-10

    def test_batched_oracle_is_consistent(self):
        rng = np.random.default_rng(5)
        traj = random_trajectory(rng)
        ts = rng.uniform(0.0, traj.duration * 0.999, 200)
        batch = deboor_eval_batch(traj.control_points, traj.dt_knot, ts)
        for t, row in zip(ts, batch):
            assert np.allclose(row, deboor_eval(traj.control_points, traj.dt_knot, t), atol=1e-12)

    def test_out_of_domain(self):
        traj = random_trajectory(np.random.default_rng(2))
        with pytest.raises(OutOfDomain):
            traj.eval(-0.001)
        with pytest.raises(OutOfDomain):
            traj.eval(traj.duration + 0.001)
        # endpoint itself maps onto the final segment
        assert np.all(np.isfinite(traj.eval(traj.duration)))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng)
        offset = np.array([3.7, -1.2])
        shifted = SplineTrajectory(traj.control_points + offset, traj.dt_knot)
        for t in np.linspace(0, traj.duration, 37):
            assert np.allclose(shifted.eval(t), traj.eval(t) + offset, atol=1e-12)


class TestArrayEval:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n_random=st.integers(0, 30))
    def test_matches_float_calls_bitwise(self, seed, n_random):
        # Random times plus every knot and the duration, shuffled. Each entry
        # equals the per-float call and the per-float matrix-form product.
        rng = np.random.default_rng(seed)
        traj = random_trajectory(rng)
        knots = np.arange(traj.n_segments + 1) * traj.dt_knot
        ts = rng.permutation(np.concatenate(
            [rng.uniform(0.0, traj.duration, n_random), knots, [traj.duration]]))
        points = traj.eval(ts)
        derivatives = traj.eval_derivatives(ts)
        assert points.shape == (len(ts), 2)
        assert all(d.shape == (len(ts), 2) for d in derivatives)
        for k, t in enumerate(ts.tolist()):
            assert np.array_equal(points[k], traj.eval(t))
            for column, single in zip(derivatives, traj.eval_derivatives(t)):
                assert np.array_equal(column[k], single)
            for got, want in zip((points[k], derivatives[0][k], derivatives[1][k]),
                                 matrix_form_eval(traj, t)):
                assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           bad=st.sampled_from(["negative", "past_end", "nan", "inf"]))
    def test_out_of_domain_entry(self, seed, bad):
        rng = np.random.default_rng(seed)
        traj = random_trajectory(rng)
        ts = rng.uniform(0.0, traj.duration, int(rng.integers(1, 20)))
        ts[rng.integers(len(ts))] = {
            "negative": -float(rng.uniform(1e-12, 1.0)),
            "past_end": np.nextafter(traj.duration, math.inf) + float(rng.uniform(0.0, 1.0)),
            "nan": math.nan,
            "inf": math.inf,
        }[bad]
        with pytest.raises(OutOfDomain):
            traj.eval(ts)
        with pytest.raises(OutOfDomain):
            traj.eval_derivatives(ts)

    def test_time_at_distance_matches_point_scan(self, monkeypatch):
        monkeypatch.setattr(bspline, "TIME_GRID", 500)
        rng = np.random.default_rng(21)
        for _ in range(20):
            traj = random_trajectory(rng)
            for dist in rng.uniform(0.0, 12.0, 4):
                assert traj.time_at_distance(dist) == time_at_distance_oracle(traj, dist, 500)

    @pytest.mark.parametrize("name", ["benign", "long-run"])
    def test_time_at_distance_on_planned_trajectories(self, name):
        # The default grid, on the trajectory `run` tracks: at the lead it needs, where the
        # hit lies past the first scan chunk, and beyond the spline's reach.
        scenario = load_scenario(name)
        traj = plan_and_solve(scenario)[1].trajectory
        far = float(np.linalg.norm(traj.control_points - traj.control_points[0], axis=1).max())
        late = float(np.linalg.norm(traj.eval(0.5 * traj.duration) - traj.eval(0.0)))
        for dist in (mid_funnel_distance(scenario), late, 2.0 * far):
            assert traj.time_at_distance(dist) == time_at_distance_oracle(traj, dist, bspline.TIME_GRID)


class TestDerivatives:
    def test_rest_endpoints_exact(self):
        traj = random_trajectory(np.random.default_rng(4))
        for t in (0.0, traj.duration):
            v, a, _ = traj.eval_derivatives(t)
            assert np.all(v == 0.0)
            assert np.all(a == 0.0)

    def test_collinear_progression(self):
        wps = np.column_stack([np.arange(8, dtype=float) * 2.0, np.zeros(8)])
        traj = clamped_spline(wps, 0.5)
        v, a, j = traj.eval_derivatives(traj.duration / 2.0)
        assert np.allclose(v, [2.0 / 0.5, 0.0], atol=1e-12)
        assert np.allclose(a, [0.0, 0.0], atol=1e-12)
        assert np.allclose(j, [0.0, 0.0], atol=1e-12)

    def test_velocity_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(10):
            traj = random_trajectory(rng, scale=1.0)  # unit scale
            for t in rng.uniform(h, traj.duration - h, 30):
                v, _, _ = traj.eval_derivatives(t)
                fd = (traj.eval(t + h) - traj.eval(t - h)) / (2.0 * h)
                assert np.max(np.abs(v - fd)) < 1e-8

    def test_acceleration_matches_velocity_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        traj = random_trajectory(rng, scale=1.0)
        for t in rng.uniform(h, traj.duration - h, 50):
            _, a, _ = traj.eval_derivatives(t)
            fd = (traj.eval_derivatives(t + h)[0] - traj.eval_derivatives(t - h)[0]) / (2.0 * h)
            assert np.max(np.abs(a - fd)) < 1e-8

    def test_jerk_piecewise_constant(self):
        traj = random_trajectory(np.random.default_rng(8))
        seg = traj.n_segments // 2
        ts = np.linspace(seg * traj.dt_knot + 1e-9, (seg + 1) * traj.dt_knot - 1e-9, 9)
        jerks = [traj.eval_derivatives(t)[2] for t in ts]
        for j in jerks[1:]:
            assert np.allclose(j, jerks[0], atol=1e-12)

    def test_integration_reproduces_displacement(self):
        traj = random_trajectory(np.random.default_rng(9))
        n = 4000
        h = traj.duration / n
        p = traj.eval(0.0).copy()
        for i in range(n):
            t = i * h
            k1 = traj.eval_derivatives(t)[0]
            k2 = traj.eval_derivatives(min(t + h / 2, traj.duration))[0]
            k4 = traj.eval_derivatives(min(t + h, traj.duration))[0]
            p = p + h / 6.0 * (k1 + 4.0 * k2 + k4)
        assert np.max(np.abs(p - traj.eval(traj.duration))) < 1e-6


class TestHulls:
    def test_hull_indexing_and_bounds(self):
        traj = random_trajectory(np.random.default_rng(10))
        n = traj.n_points
        assert traj.n_segments == n - 3
        last = traj.n_segments - 1
        assert traj.control_points[last:last + 4].shape == (4, 2)  # the last hull is whole

    def test_first_hull_degenerates_to_start(self):
        traj = random_trajectory(np.random.default_rng(11))
        hull = traj.control_points[0:4]
        assert np.array_equal(hull[0], hull[1])
        assert np.array_equal(hull[1], hull[2])

    def test_segment_inside_its_hull(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            traj = random_trajectory(rng)
            for i in range(traj.n_segments):
                hull = traj.control_points[i:i + 4]
                for t in np.linspace(i * traj.dt_knot, (i + 1) * traj.dt_knot, 40):
                    t = min(t, traj.duration)
                    assert point_in_hull(traj.eval(t), hull, tol=1e-9)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        traj = random_trajectory(np.random.default_rng(13))
        path = tmp_path / "traj.json"
        write_json(path, traj.to_dict())
        loaded = SplineTrajectory.from_dict(json.loads(path.read_text()))
        assert np.array_equal(loaded.control_points, traj.control_points)
        assert loaded.dt_knot == traj.dt_knot
        # identical serialization both ways
        assert json.dumps(loaded.to_dict()) == json.dumps(traj.to_dict())
        # only cubic splines exist: written as degree 3, and no other degree loads
        assert traj.to_dict()["degree"] == 3
        with pytest.raises(ValueError, match="only cubic"):
            SplineTrajectory.from_dict({**traj.to_dict(), "degree": 4})

    def test_sample_rows_cover_domain(self):
        traj = random_trajectory(np.random.default_rng(14))
        rows = traj.sample_rows(dt_sample=traj.duration / 50.0)
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(traj.duration)
        assert all(len(r) == 7 for r in rows)
        for t, *rest in rows.tolist():
            vel, acc, _ = traj.eval_derivatives(t)
            assert rest == [*traj.eval(t), *vel, *acc]
