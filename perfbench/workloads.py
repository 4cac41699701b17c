"""The four benchmark workloads.

Each workload turns a workload seed into per-op inputs, runs one op (the
timed call into funnelnav), then checks the op's outputs and digests them.
Input construction, checks and digests stay outside the timed region.

A run cycles through the workload's first `inputs` inputs, so two commits
are timed on the same inputs however many ops each fits into a run.

Why these four (see DESIGN.md for the metric map):

* ``plan``       -- plan-and-solve on long-run: separator refits dominate,
                    no tick loop, so tracking changes leave it flat.
* ``cold-start`` -- the no-prior solve of acceptance 6 at a fixed outer
                    cap: recovery planes, projections, many iterations.
* ``sweep``      -- the user's Monte-Carlo entry point: one plan, then the
                    tick loop of every episode dominates.
* ``run-audit``  -- the operator's CLI flow on benign: feasibility
                    sampling, one scalar episode, artifact writes and reads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import numpy as np

from funnelnav import cli, harness, rrt, trajopt
from funnelnav.scenario import long_run_scenario, trajectory_demo_scenario


def scenario_seed(workload_seed: int, index: int) -> int:
    """Scenario seed of op `index`, derived from the workload seed alone.

    SeedSequence takes only non-negative entropy, so a negative workload
    seed is taken modulo 2**64; a non-negative one below that is unchanged.
    """
    entropy = [workload_seed % 2**64, index]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _report(workload: str, ok: bool, detail) -> None:
    """On a failed check, say on stderr what failed."""
    if not ok:
        print(f"perfbench: {workload} check failed: {detail}", file=sys.stderr)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _solution_digest(solution) -> str:
    traj = solution.trajectory
    return _sha(np.ascontiguousarray(traj.control_points, dtype=float).tobytes(),
                repr(float(traj.dt_knot)).encode())


class Plan:
    """One op is one `harness.plan_and_solve` on long-run."""

    name = "plan"
    inputs = 12

    def __init__(self, seed: int):
        self.seed = seed
        self.base = long_run_scenario()

    def make_input(self, index: int):
        return self.base.with_seed(scenario_seed(self.seed, index))

    def run(self, scenario):
        return harness.plan_and_solve(scenario)

    def check(self, scenario, output) -> tuple[bool, str, int]:
        path, solution = output
        report = trajopt.validate(solution, harness.make_problem(scenario, path))
        ok = solution.status == "converged" and report.ok
        _report(self.name, ok, f"seed {scenario.seed}: status {solution.status}, {report}")
        return ok, _solution_digest(solution), 0


class ColdStart:
    """One op is one no-prior `trajopt.solve` (init="line", w1=0) on trajectory-demo."""

    name = "cold-start"
    inputs = 6

    def __init__(self, seed: int, max_outer: int = 4):
        self.seed = seed
        self.max_outer = max_outer
        self.base = trajectory_demo_scenario()

    def make_input(self, index: int):
        scenario = self.base.with_seed(scenario_seed(self.seed, index))
        path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                        scenario.goal, scenario.planner)
        problem = harness.make_problem(scenario, path, w1=0.0, init="line")
        problem.max_outer = self.max_outer
        return problem

    def run(self, problem):
        return trajopt.solve(problem)

    def check(self, problem, solution) -> tuple[bool, str, int]:
        report = trajopt.validate(solution, problem)
        _report(self.name, report.ok, f"status {solution.status}, {report}")
        return report.ok, _solution_digest(solution), 0


class Sweep:
    """One op is one `harness.sweep` on long-run over a fixed episode count.

    Users run 100 episodes. An op that long (about 40 s on a 2-core Xeon,
    60 s when the host is busy) would not leave time for a traced run's
    untraced and traced op within the benchmark's limits. Forty episodes
    is about one 25-s run on a busy host; DESIGN.md gives the planning
    share at both sizes.
    """

    name = "sweep"
    inputs = 1

    def __init__(self, seed: int, episodes: int = 40):
        self.seed = seed
        self.episodes = episodes
        self.base = long_run_scenario()

    def make_input(self, index: int):
        return self.base.with_seed(scenario_seed(self.seed, index))

    def run(self, scenario):
        return harness.sweep(scenario, self.episodes)

    def check(self, scenario, result) -> tuple[bool, str, int]:
        agg = result.aggregate()
        ok = (agg["episodes"] == self.episodes
              and agg["failed_episodes"] == 0
              and agg["total_violations"] == 0
              and agg["actuator_violations"] == 0
              and agg["goal_reached"] == self.episodes)
        _report(self.name, ok, agg)
        ticks = sum(int(e["ticks"]) for e in result.episodes)
        return ok, _sha(json.dumps(agg, sort_keys=True).encode()), ticks


class RunAudit:
    """One op is `check`, `run`, then `audit` through in-process `cli.main` on benign."""

    name = "run-audit"
    inputs = 16

    def __init__(self, seed: int, work_dir: str, samples: int = 2000):
        self.seed = seed
        self.samples = samples
        self.work_dir = work_dir

    def make_input(self, index: int):
        seed = scenario_seed(self.seed, index)
        out = os.path.join(self.work_dir, f"run-audit-{self.seed}-{index}")
        shutil.rmtree(out, ignore_errors=True)
        return seed, out

    def run(self, inp) -> list[int]:
        seed, out = inp
        common = ["--scenario", "benign", "--seed", str(seed), "--out-dir", out]
        argvs = [
            ["check", *common, "--samples", str(self.samples)],
            ["run", *common],
            ["audit", *common, "--log", os.path.join(out, "episode.csv")],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in argvs]

    def check(self, inp, codes) -> tuple[bool, str, int]:
        seed, out = inp
        try:
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as f:
                summary = json.load(f)
            with open(os.path.join(out, "audit.json"), encoding="utf-8") as f:
                report = json.load(f)
            chunks = []
            for dirpath, dirnames, filenames in os.walk(out):
                dirnames.sort()
                for fname in sorted(filenames):
                    full = os.path.join(dirpath, fname)
                    with open(full, "rb") as f:
                        chunks += [os.path.relpath(full, out).encode(), f.read()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        # The CLI audit reloads the CSV without the summary, so its own
        # summary_matches flag cannot see a mismatch; compare the recount
        # with summary.json here.
        ok = (codes == [0, 0, 0]
              and report["summary_matches"]
              and sum(report["violations"].values()) == 0
              and report["actuator_violations"] == 0
              and report["violations"] == summary["violations"]
              and report["thrust_cut_ticks"] == summary["thrust_cut_ticks"])
        _report(self.name, ok, f"seed {seed}: exit codes {codes}, audit {report}")
        return ok, _sha(*chunks), int(summary["ticks"])


def make(name: str, seed: int, work_dir: str):
    """The workload `name` at its benchmark size."""
    if name == "plan":
        return Plan(seed)
    if name == "cold-start":
        return ColdStart(seed)
    if name == "sweep":
        return Sweep(seed)
    if name == "run-audit":
        return RunAudit(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")

