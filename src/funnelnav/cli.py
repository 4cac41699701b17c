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
from .errors import FunnelNavError
from .scenario import BUILTIN_NAMES, load_scenario


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help=f"scenario JSON path or builtin name ({', '.join(BUILTIN_NAMES)})")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out-dir", default=".", help="output directory (created if missing)")
    p.add_argument("--dt", type=float, default=None, help="override the simulation step [s]")


def _load(args) -> "Scenario":
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    if getattr(args, "dt", None) is not None:
        scenario.sim_dt = args.dt
    os.makedirs(args.out_dir, exist_ok=True)
    return scenario


def cmd_plan(args) -> int:
    scenario = _load(args)
    scenario.validate()
    path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                    scenario.goal, scenario.planner)
    out = os.path.join(args.out_dir, "path.csv")
    path.save_csv(out)
    print(f"planned {path.n_points} waypoints, length {path.total_length():.1f} m -> {out}")
    return 0


def cmd_traj(args) -> int:
    scenario = _load(args)
    path, solution = harness.plan_and_solve(scenario)
    path.save_csv(os.path.join(args.out_dir, "path.csv"))
    traj_path = os.path.join(args.out_dir, "trajectory.json")
    with open(traj_path, "w", encoding="utf-8") as f:
        json.dump(solution.to_dict(), f, indent=2)
    rows = solution.trajectory.sample_rows(dt_sample=scenario.sim_dt)
    harness.write_csv(os.path.join(args.out_dir, "trajectory_samples.csv"),
                      ["t", "x", "y", "vx", "vy", "ax", "ay"], list(rows.T))
    report = trajopt.validate(solution, harness.make_problem(scenario, path))
    with open(os.path.join(args.out_dir, "residuals.json"), "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, indent=2)
    print(f"trajopt {solution.status}: duration {solution.trajectory.duration:.1f} s, "
          f"cost {solution.cost_total:.4g} -> {traj_path}")
    return 0 if solution.status == "converged" else 1


def cmd_run(args) -> int:
    scenario = _load(args)
    log = harness.run_episode(scenario, auto_inflate=args.auto_inflate_funnels)
    log.save_csv(os.path.join(args.out_dir, "episode.csv"))
    log.save_summary(os.path.join(args.out_dir, "summary.json"))
    if log.trajectory is not None:
        log.trajectory.save_json(os.path.join(args.out_dir, "trajectory.json"))
    harness.write_plotdata(log, scenario, os.path.join(args.out_dir, "plotdata"))
    s = log.summary
    print(f"episode: {s['ticks']} ticks, violations {s['total_violations']}, "
          f"goal_reached={s['goal_reached']} -> {args.out_dir}")
    return 0 if (not s["failed"]) else 1


def cmd_sweep(args) -> int:
    scenario = _load(args)
    result = harness.sweep(scenario, args.episodes, auto_inflate=args.auto_inflate_funnels)
    out = os.path.join(args.out_dir, "sweep.json")
    result.save_json(out)
    agg = result.aggregate()
    print(f"sweep: {agg['episodes']} episodes, total violations {agg['total_violations']}, "
          f"goal reached {agg['goal_reached']} -> {out}")
    return 0 if agg["failed_episodes"] == 0 else 1


def cmd_check(args) -> int:
    scenario = _load(args)
    trajectory = None
    if args.with_trajectory:
        _, solution = harness.plan_and_solve(scenario)
        trajectory = solution.trajectory
    report = feasibility.estimate_bounds(scenario, n_samples=args.samples,
                                         trajectory=trajectory)
    out = os.path.join(args.out_dir, "feasibility.json")
    report.save_json(out)
    for cond in feasibility.CONDITIONS:
        state = "pass" if report.verdicts[cond] else "FAIL"
        print(f"  {cond}: {state} (margin {report.margins[cond]:+.4g})")
    print(f"feasibility {'passed' if report.passed else 'FAILED'} -> {out}")
    return 0 if report.passed else 1


def cmd_audit(args) -> int:
    scenario = _load(args)
    log = harness.EpisodeLog.load_csv(args.log, scenario_name=scenario.name)
    summary_path = os.path.join(os.path.dirname(args.log), "summary.json")
    if os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8") as f:
            log.summary = json.load(f)
    report = harness.audit(log, scenario)
    out = os.path.join(args.out_dir, "audit.json")
    report.save_json(out)
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
    p.add_argument("--episodes", type=int, default=100)
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
