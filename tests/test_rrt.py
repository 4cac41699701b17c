import numpy as np
import pytest

from funnelnav.errors import PlanTimeout, StartOrGoalInCollision
from funnelnav.geometry import ConvexPolygon, Workspace
from funnelnav.rrt import RrtParams, RrtPath, _shortcut, plan
from oracles import point_free_oracle, segment_free_oracle, shortcut_oracle

EMPTY_WS = Workspace(bounds=(-5.0, -5.0, 15.0, 5.0), obstacles=[], clearance=1.0)


def blocked_workspace():
    wall = ConvexPolygon(np.array([[6.0, -20.0], [8.0, -20.0], [8.0, 20.0], [6.0, 20.0]]))
    return Workspace(bounds=(-5.0, -25.0, 20.0, 25.0), obstacles=[wall], clearance=2.0)


class TestPlan:
    def test_straight_corridor(self):
        path = plan(EMPTY_WS, (0.0, 0.0), (10.0, 0.0), RrtParams(step_size=1.0, seed=0))
        w = path.waypoints
        assert np.array_equal(w[0], [0.0, 0.0])
        assert np.array_equal(w[-1], [10.0, 0.0])
        assert path.n_points >= 4
        # shortcut + resample leaves a near-straight chain
        assert path.total_length() < 10.5

    def test_endpoint_validation(self):
        ws = blocked_workspace()
        with pytest.raises(StartOrGoalInCollision):
            plan(ws, (7.0, 0.0), (15.0, 0.0), RrtParams(seed=0))
        with pytest.raises(StartOrGoalInCollision):
            plan(ws, (0.0, 0.0), (7.0, 0.0), RrtParams(seed=0))

    def test_timeout_on_tiny_budget(self):
        with pytest.raises(PlanTimeout):
            plan(EMPTY_WS, (0.0, 0.0), (10.0, 0.0), RrtParams(step_size=0.2, max_iters=3, seed=0))

    def test_deterministic_for_seed(self):
        a = plan(EMPTY_WS, (0.0, 0.0), (10.0, 0.0), RrtParams(step_size=1.0, seed=5))
        b = plan(EMPTY_WS, (0.0, 0.0), (10.0, 0.0), RrtParams(step_size=1.0, seed=5))
        assert a.waypoints.tobytes() == b.waypoints.tobytes()

    def test_different_seeds_both_valid(self):
        ws = Workspace(
            bounds=(-5.0, -30.0, 45.0, 30.0),
            obstacles=[ConvexPolygon(np.array([[15.0, -8.0], [25.0, -8.0], [25.0, 8.0], [15.0, 8.0]]))],
            clearance=3.0,
        )
        paths = [plan(ws, (0.0, 0.0), (40.0, 0.0), RrtParams(step_size=3.0, seed=s))
                 for s in (1, 2)]
        assert paths[0].waypoints.shape != paths[1].waypoints.shape or \
            not np.array_equal(paths[0].waypoints, paths[1].waypoints)
        for p in paths:
            for a, b in zip(p.waypoints[:-1], p.waypoints[1:]):
                assert segment_free_oracle(a, b, ws)

    def test_spacing_invariant(self):
        params = RrtParams(step_size=2.0, seed=3)
        path = plan(EMPTY_WS, (0.0, 0.0), (10.0, 2.0), params)
        assert np.all(path.leg_lengths() <= 2.0 + 1e-9)

    def test_finer_collision_recheck(self):
        # Sampled audit at 10x the planning granularity: the exact segment
        # checks must leave nothing for a fine sweep to find.
        ws = blocked_workspace()
        path = plan(ws, (0.0, 0.0), (15.0, 0.0), RrtParams(step_size=2.0, seed=7))
        fine = 2.0 / 100.0
        for a, b in zip(path.waypoints[:-1], path.waypoints[1:]):
            length = float(np.linalg.norm(b - a))
            n = max(2, int(np.ceil(length / fine)) + 1)
            for s in np.linspace(0.0, 1.0, n):
                assert point_free_oracle(a + s * (b - a), ws)


class TestRrtPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            RrtPath(np.array([[0.0, 0.0]]))

    def test_csv_dump(self, tmp_path):
        path = plan(EMPTY_WS, (0.0, 0.0), (10.0, 0.0), RrtParams(step_size=1.0, seed=0))
        out = tmp_path / "path.csv"
        path.save_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == path.n_points + 1
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert np.array(rows).tobytes() == path.waypoints.tobytes()


class TestShortcut:
    def test_matches_scalar_greedy_loop(self):
        # Raw resampled RRT chains and random zigzags, around a wall that
        # blocks most long jumps.
        ws = blocked_workspace()
        rng = np.random.default_rng(3)
        chains = [list(plan(ws, (0.0, 0.0), (15.0, 0.0), RrtParams(step_size=2.0, seed=s,
                                                                   shortcut=False)).waypoints)
                  for s in range(4)]
        chains += [list(rng.uniform((-5.0, -25.0), (20.0, 25.0), (int(rng.integers(2, 30)), 2)))
                   for _ in range(20)]
        for chain in chains:
            got = _shortcut(chain, ws)
            want = shortcut_oracle(chain, ws)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
