import hashlib
from dataclasses import replace

import numpy as np
import pytest

from funnelnav import rrt
from funnelnav.errors import PlanTimeout, StartOrGoalInCollision
from funnelnav.geometry import ConvexPolygon, Workspace
from funnelnav.harness import write_csv
from funnelnav.rrt import RrtParams, RrtPath, _shortcut, plan
from funnelnav.scenario import BUILTIN_NAMES, load_scenario
from oracles import point_free_oracle, rrt_oracle, segment_free_oracle, shortcut_oracle

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
        write_csv(out, ["x", "y"], list(path.waypoints.T))
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


# sha256 of RrtPath.waypoints.tobytes() for each builtin scenario's planner
# settings, recorded from the one-iteration-at-a-time loop.
GOLDEN_PATHS = {
    "benign": "cb11d1db4d7b2f2694386155621fcade77c860b64d045fdcb2df27d564356c08",
    "long-run": "5475f817d65918417260b589f110db4f6f835ee20094b6db89fd418575c8db75",
    "trajectory-demo": "afa7f85fc96b9f0a420f59052ac2860112e2eca1b20767b76dfbe3353eb2da1e",
}


def outcome(planner, ws, start, goal, params):
    """The waypoints' bytes, or the PlanTimeout message."""
    try:
        return planner(ws, start, goal, params).waypoints.tobytes()
    except PlanTimeout as exc:
        return str(exc)


def oracle_cases():
    """(id, workspace, start, goal, params, batch size) plan inputs."""
    cases = []
    for name in BUILTIN_NAMES:
        s = load_scenario(name)
        args = (s.planner_workspace(), s.start.position, s.goal)
        cases += [(f"{name}-seed{seed}", *args, replace(s.planner, seed=seed), rrt._BATCH)
                  for seed in range(12)]
        cases += [(f"{name}-bias0-seed{seed}", *args,
                   replace(s.planner, seed=seed, goal_bias=0.0, max_iters=3000), rrt._BATCH)
                  for seed in range(2)]
        cases += [(f"{name}-bias1", *args, replace(s.planner, goal_bias=1.0, max_iters=400), rrt._BATCH)]
        # Batches of 7 and 5 do not divide these budgets.
        cases += [(f"{name}-batch{k}", *args, replace(s.planner, seed=3), k) for k in (1, 5, 7)]
    for seed in range(6):
        cases.append((f"empty-seed{seed}", EMPTY_WS, (0.0, 0.0), (10.0, 2.0),
                      RrtParams(step_size=1.0, seed=seed), rrt._BATCH))
        cases.append((f"wall-seed{seed}", blocked_workspace(), (0.0, 0.0), (15.0, 0.0),
                      RrtParams(step_size=2.0, seed=seed, max_iters=1000), 7))
    cases.append(("empty-bias1", EMPTY_WS, (0.0, 0.0), (10.0, 2.0),
                  RrtParams(step_size=1.0, goal_bias=1.0), rrt._BATCH))
    cases.append(("wall-bias1", blocked_workspace(), (0.0, 0.0), (15.0, 0.0),
                  RrtParams(step_size=2.0, goal_bias=1.0, max_iters=100), rrt._BATCH))
    return cases


class TestBatchedPlan:
    """The speculative batches grow the one-iteration-at-a-time loop's tree."""

    @pytest.mark.parametrize("case", oracle_cases(), ids=lambda case: case[0])
    def test_matches_oracle(self, case, monkeypatch):
        _, ws, start, goal, params, batch = case
        monkeypatch.setattr(rrt, "_BATCH", batch)
        assert outcome(plan, ws, start, goal, params) == outcome(rrt_oracle, ws, start, goal, params)

    def test_cases_cover_timeouts_and_paths(self):
        results = [outcome(rrt_oracle, *case[1:5]) for case in oracle_cases()
                   if "bias1" in case[0]]
        assert any(isinstance(r, str) for r in results)
        assert any(isinstance(r, bytes) for r in results)

    @pytest.mark.parametrize("batch", [16, 7, 1])
    def test_timeout_at_the_oracles_iteration(self, batch, monkeypatch):
        # The smallest budget that reaches the goal is the oracle's; one
        # iteration less times out, in any batch size.
        monkeypatch.setattr(rrt, "_BATCH", batch)
        for ws, goal, step in ((EMPTY_WS, (10.0, 2.0), 1.0), (blocked_workspace(), (15.0, 0.0), 2.0)):
            def run(planner, budget):
                return outcome(planner, ws, (0.0, 0.0), goal,
                               RrtParams(step_size=step, seed=1, max_iters=budget))
            # A budget runs a prefix of the same iterations: success is monotone in it.
            lo, least = 0, 4096
            while least - lo > 1:
                mid = (lo + least) // 2
                lo, least = (lo, mid) if isinstance(run(rrt_oracle, mid), bytes) else (mid, least)
            assert least > batch
            assert run(plan, least - 1) == f"no path after {least - 1} iterations"
            assert run(plan, least) == run(rrt_oracle, least)

    def test_goal_reached_on_the_last_iteration(self):
        # One iteration, accepted, that also connects the goal: the node
        # table holds the start, the new node and the goal.
        ws = EMPTY_WS
        params = RrtParams(step_size=1.0, max_iters=1, seed=1)
        assert outcome(plan, ws, (0.0, 0.0), (0.5, 0.0), params) == \
            outcome(rrt_oracle, ws, (0.0, 0.0), (0.5, 0.0), params)
        assert plan(ws, (0.0, 0.0), (0.5, 0.0), params).n_points == 4

    def test_tie_keeps_the_older_node(self, monkeypatch):
        # The second sample, (0.5, 2), is as far from the start as from the
        # first node, (1, 0), accepted earlier in the same batch: argmin keeps
        # the start. Goal samples follow.
        class Draws:
            def __init__(self, _seed):
                self.u = iter([0.9, 0.25, 0.0, 0.9, 0.125, 0.5])

            def random(self, n=None):
                if n is None:
                    return next(self.u, 0.1)
                return np.array([next(self.u, 0.1) for _ in range(n)])

            def uniform(self, lo, hi):
                return lo + (hi - lo) * self.random()

        monkeypatch.setattr(np.random, "default_rng", Draws)
        ws = Workspace(bounds=(0.0, 0.0, 4.0, 4.0), obstacles=[], clearance=1.0)
        params = RrtParams(step_size=1.0, goal_bias=0.5, max_iters=50, shortcut=False)
        path = plan(ws, (0.0, 0.0), (3.9, 3.9), params)
        assert path.waypoints.tobytes() == rrt_oracle(ws, (0.0, 0.0), (3.9, 3.9), params).waypoints.tobytes()
        # The chain leaves the start toward (0.5, 2), not through (1, 0).
        assert path.waypoints[1][1] > path.waypoints[1][0]

    def test_builtin_paths_pinned(self):
        for name, digest in GOLDEN_PATHS.items():
            s = load_scenario(name)
            path = plan(s.planner_workspace(), s.start.position, s.goal, s.planner)
            assert hashlib.sha256(path.waypoints.tobytes()).hexdigest() == digest


class TestBatchArithmetic:
    """The float identities the batches rest on."""

    def test_uniform_is_the_affine_map_of_random(self):
        # Interleaved scalar draws, as the loop takes them, against one
        # rng.random(n) mapped by x0 + (x1 - x0) * u.
        for x0, x1 in ((-60.0, 560.0), (-160.0, 200.0), (-5.0, 15.0), (0.1, 0.7), (-1e-3, 1e6)):
            scalar = np.random.default_rng(11)
            want = [(scalar.random(), scalar.uniform(x0, x1)) for _ in range(5000)]
            u = np.random.default_rng(11).random(10_000).tolist()
            assert [(u[2 * i], x0 + (x1 - x0) * u[2 * i + 1]) for i in range(5000)] == want

    def test_row_length_is_the_1d_norm(self):
        rows = np.random.default_rng(5).uniform(-600.0, 600.0, (20_000, 2))
        rows[:100] *= 1e-9
        assert [rrt._length(v) for v in rows] == [float(np.linalg.norm(np.array(v))) for v in rows.tolist()]
