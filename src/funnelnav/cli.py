"""Batch command-line interface.

Subcommands mirror the pipeline stages: `plan` (RRT only), `traj` (RRT +
spline smoothing), `run` (full closed-loop episode), `sweep` (Monte-Carlo
disturbance sweep), `check` (feasibility report) and `audit` (re-verify a
logged episode). Scenarios are JSON files or builtin names; all outputs are
plain CSV/JSON artifacts under --out-dir.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import feasibility, harness, rrt, trajopt
from .errors import FunnelNavError, InvalidLog
from .scenario import BUILTIN_NAMES, Scenario, load_scenario


def _at_least(low: int):
    """An argparse type: an integer of at least low, written in decimal digits."""
    def parse(text: str) -> int:
        if not (text.isdecimal() and int(text) >= low):
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
        return int(text)
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help=f"scenario JSON path or builtin name ({', '.join(BUILTIN_NAMES)})")
    p.add_argument("--seed", type=_at_least(0), default=None,
                   help="override the scenario seed, the planner seed and the disturbance realization")
    p.add_argument("--out-dir", default=".", help="output directory (created if missing)")
    p.add_argument("--dt", type=float, default=None, help="override the simulation step [s]")


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.dt is not None:
        # Through the schema, so its checks see the step.
        data = scenario.to_dict()
        data["sim"]["dt"] = args.dt
        scenario = Scenario.from_dict(data)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    return scenario


def cmd_plan(args) -> int:
    scenario = _load(args)
    scenario.validate()
    path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                    scenario.goal, scenario.planner)
    out = os.path.join(args.out_dir, "path.csv")
    harness.write_csv(out, ["x", "y"], list(path.waypoints.T))
    print(f"planned {path.n_points} waypoints, length {path.total_length():.1f} m -> {out}")
    return 0


def cmd_traj(args) -> int:
    scenario = _load(args)
    path, solution = harness.plan_and_solve(scenario)
    harness.write_csv(os.path.join(args.out_dir, "path.csv"), ["x", "y"], list(path.waypoints.T))
    traj_path = os.path.join(args.out_dir, "trajectory.json")
    harness.write_json(traj_path, solution.to_dict())
    rows = solution.trajectory.sample_rows(dt_sample=scenario.sim_dt)
    harness.write_csv(os.path.join(args.out_dir, "trajectory_samples.csv"),
                      ["t", "x", "y", "vx", "vy", "ax", "ay"], list(rows.T))
    report = trajopt.validate(solution, harness.make_problem(scenario, path))
    harness.write_json(os.path.join(args.out_dir, "residuals.json"), report.to_dict())
    print(f"trajopt {solution.status}, residual check {'ok' if report.ok else 'FAILED'}: "
          f"duration {solution.trajectory.duration:.1f} s, cost {solution.cost_total:.4g} -> {traj_path}")
    return 0 if solution.status == "converged" and report.ok else 1


def cmd_run(args) -> int:
    scenario = _load(args)
    log = harness.run_episode(scenario, auto_inflate=args.auto_inflate_funnels)
    log.save_csv(os.path.join(args.out_dir, "episode.csv"))
    harness.write_json(os.path.join(args.out_dir, "summary.json"), log.summary)
    harness.write_json(os.path.join(args.out_dir, "trajectory.json"), log.solution.to_dict())
    harness.write_plotdata(log, scenario, os.path.join(args.out_dir, "plotdata"))
    s = log.summary
    print(f"episode: {s['ticks']} ticks, violations {s['total_violations']}, "
          f"goal_reached={s['goal_reached']} -> {args.out_dir}")
    return 0 if (not s["failed"]) else 1


def cmd_sweep(args) -> int:
    scenario = _load(args)
    result = harness.sweep(scenario, args.episodes, auto_inflate=args.auto_inflate_funnels)
    out = os.path.join(args.out_dir, "sweep.json")
    harness.write_json(out, result.to_dict())
    agg = result.aggregate()
    print(f"sweep: {agg['episodes']} episodes, total violations {agg['total_violations']}, "
          f"goal reached {agg['goal_reached']} -> {out}")
    return 0 if agg["failed_episodes"] == 0 else 1


def cmd_check(args) -> int:
    scenario = _load(args)
    scenario.validate()
    trajectory = None
    if args.with_trajectory:
        _, solution = harness.plan_and_solve(scenario)
        trajectory = solution.trajectory
    report = feasibility.estimate_bounds(scenario, n_samples=args.samples,
                                         trajectory=trajectory)
    out = os.path.join(args.out_dir, "feasibility.json")
    harness.write_json(out, report.to_dict())
    for cond in feasibility.CONDITIONS:
        state = "pass" if report.verdicts[cond] else "FAIL"
        print(f"  {cond}: {state} (margin {report.margins[cond]:+.4g})")
    print(f"feasibility {'passed' if report.passed else 'FAILED'} -> {out}")
    return 0 if report.passed else 1


def cmd_audit(args) -> int:
    scenario = _load(args)
    log = harness.EpisodeLog.load_csv(args.log)
    summary_path = os.path.join(os.path.dirname(args.log), "summary.json")
    if os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8") as f:
            try:
                summary = json.load(f)
            except ValueError as exc:
                raise InvalidLog(f"{summary_path}: not valid JSON: {exc}") from exc
        if not isinstance(summary, dict):
            raise InvalidLog(f"{summary_path}: not a JSON object")
        if not isinstance(summary.get("violations", {}), dict):
            raise InvalidLog(f"{summary_path}: its violations is not a JSON object")
        log.summary = summary
    report = harness.audit(log, scenario)
    out = os.path.join(args.out_dir, "audit.json")
    harness.write_json(out, report.to_dict())
    print(f"audit: violations {report.violations}, actuator violations "
          f"{report.actuator_violations} -> {out}")
    clean = (report.actuator_violations == 0 and report.summary_matches
             and not any(report.violations.values()))
    return 0 if clean else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="funnelnav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="RRT waypoint path only")
    _add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("traj", help="RRT + kinodynamic spline smoothing")
    _add_common(p)
    p.set_defaults(func=cmd_traj)

    p = sub.add_parser("run", help="full closed-loop episode")
    _add_common(p)
    p.add_argument("--auto-inflate-funnels", action="store_true",
                   help="opt-in: inflate funnels minimally on initial non-compliance")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="Monte-Carlo disturbance sweep")
    _add_common(p)
    p.add_argument("--episodes", type=_at_least(1), default=100)
    p.add_argument("--auto-inflate-funnels", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="feasibility report of the stability conditions")
    _add_common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--with-trajectory", action="store_true",
                   help="solve the trajectory first and check the initial bearing against it")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("audit", help="re-verify a logged episode")
    _add_common(p)
    p.add_argument("--log", required=True, help="episode.csv to audit")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit 3 with a one-line message on a typed failure."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FunnelNavError as exc:
        print(f"funnelnav: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
