"""Closed-loop episode execution, structured logging, auditing and sweeps.

One episode runs the full pipeline: RRT over the inflated workspace, spline
smoothing, then per-tick funnel control against the sampled reference and an
RK4 step of the truth model. Everything lands in a flat column log, from which
the audit re-derives every funnel inequality. The audit is not independent of
the controller: it reads the controller's u_des, r_des and psi_e columns.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import rrt, trajopt
from .bspline import SplineTrajectory
# control_tick is unused here: perfbench/tracing.py wraps it by name in this module.
from .controller import (CHANNELS, ControllerConfig, check_initial_compliance,  # noqa: F401
                         control_tick, funnel_radii, stages, violated)
from .dynamics import DisturbanceBatch, step
from .errors import (DegenerateDistance, InfeasibleSeed, InitialComplianceError, InvalidLog,
                     UnverifiedTrajectory)
from .funnels import EPS_DEGENERATE, FunnelSpec, compute_errors
from .geometry import distances_to_obstacles
from .scenario import Scenario, reference_lead

# The episode log columns, in the order run_ticks writes them.
_STATE_COLUMNS = ("p_x", "p_y", "psi", "u", "v", "r")
_ERROR_COLUMNS = ("e_x", "e_y", "e_d", "e_o", "psi_e")
_CASCADE_COLUMNS = ("rho_d", "rho_o", "rho_u", "rho_r", "xi_d", "xi_o", "xi_u", "xi_r",
                    "eps_d", "eps_o", "eps_u", "eps_r",
                    "u_des", "r_des", "X_des", "N_des", "u_alpha", "u_F")

# Fixed CSV column order of the episode log.
LOG_COLUMNS = [
    "t", *_STATE_COLUMNS, "ref_x", "ref_y", "ref_vx", "ref_vy", *_ERROR_COLUMNS,
    *_CASCADE_COLUMNS, "F_T", "alpha_r", "sat_F", "sat_alpha", "tau_x", "tau_y", "tau_psi",
    "viol_d", "viol_o", "viol_u", "viol_r",
]

# The plot-source CSVs and their columns; e_u, e_r and rho_d_min are derived from the log.
_PLOT_FILES = {"errors_vs_funnels.csv": "t e_d rho_d rho_d_min e_o rho_o e_u rho_u e_r rho_r".split(),
               "inputs.csv": "t F_T alpha_r sat_F sat_alpha".split(), "forward_velocity.csv": "t u u_des".split()}
_PLOT_SHARED = sorted(set(itertools.chain(*_PLOT_FILES.values())).intersection(LOG_COLUMNS))

_TABLE_TICKS = 64  # per table of state-independent inputs: each temporary < 1 MB at B = 100
_CSV_BLOCK = 512  # rows formatted at once: about 1 MB of floats and text at 45 columns

# The rows of the (ticks, rows, episodes) tick record both loops reduce.
_RECORD_ROWS = ("p_x", "p_y", "psi", "u", "v", "psi_e", "e_d", "F_T", "alpha_r",
                "xi_d", "xi_o", "xi_u", "xi_r")


def csv_cells(values) -> Iterator[Iterable[str]]:
    """The CSV text of a float column, a block of rows at a time: each value's repr, or one repr
    for a block whose bits are all equal (-0.0 is not 0.0, NaN is NaN)."""
    col = np.asarray(values, dtype=float)
    for i in range(0, len(col), _CSV_BLOCK):
        b = col[i:i + _CSV_BLOCK]
        bits = b.view(np.uint64)
        yield (itertools.repeat(repr(b[0].item()), len(b)) if (bits == bits[0]).all()
               else map(repr, b.tolist()))


def write_rows(path, header: list[str], columns: Iterable[Iterable[Iterable[str]]]) -> None:
    """A row per tuple of the columns' cells (csv_cells' blocks), as many as the shortest has."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for blocks in zip(*columns):
            f.write("\n".join(map(",".join, zip(*blocks))) + "\n")


def write_csv(path, header: list[str], arrays: list[np.ndarray]) -> None:
    """One row per entry of the equal-length float arrays: write_rows of their csv_cells."""
    write_rows(path, header, map(csv_cells, arrays))


def write_json(path, data) -> None:
    """The one JSON artifact format: indented by 2, keys sorted."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)


@dataclass
class EpisodeLog:
    columns: dict[str, np.ndarray]
    summary: dict | None             # None: no summary to cross-check (a loaded log)
    solution: trajopt.TrajOptSolution | None = None
    # save_csv's cells of the columns plotdata shares, each with the bits it formatted
    _text: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_ticks(self) -> int:
        return len(self.columns["t"])

    def save_csv(self, path) -> None:
        self._text = {c: (np.array(self.columns[c], dtype=float).view(np.uint64),
                          list(map(list, csv_cells(self.columns[c])))) for c in _PLOT_SHARED}
        write_rows(path, LOG_COLUMNS, map(self.cells, LOG_COLUMNS))

    def cells(self, name: str) -> Iterable[Iterable[str]]:
        """A column's csv_cells: those save_csv wrote, while the column holds their bits."""
        col = np.asarray(self.columns[name], dtype=float)
        bits, text = self._text.get(name, (None, None))
        return text if bits is not None and np.array_equal(bits, col.view(np.uint64)) else csv_cells(col)

    @classmethod
    def load_csv(cls, path) -> "EpisodeLog":
        """The log of an episode.csv; InvalidLog if it cannot be read or lacks a LOG_COLUMNS column."""
        try:
            with open(path, encoding="utf-8") as f:
                names = f.readline().rstrip("\n").split(",")
                lines = f.readlines()
            # loadtxt warns on no rows; a header-only log has zero-length columns.
            data = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, len(names)))
        except OSError as exc:  # its message names the path
            raise InvalidLog(str(exc)) from exc
        except ValueError as exc:  # a row of other than one number per column
            raise InvalidLog(f"{path}: {exc}") from exc
        columns = dict(zip(names, data.T))
        missing = [c for c in LOG_COLUMNS if c not in columns]
        if missing:
            raise InvalidLog(f"{path} lacks the log columns {', '.join(missing)}")
        return cls(columns=columns, summary=None)


def make_problem(scenario: Scenario, path: rrt.RrtPath, w1: float | None = None,
                 init: str = "rrt") -> trajopt.TrajOptProblem:
    # TrajOptProblem extends TrajOptSettings: the scenario's settings fill the inherited fields.
    settings = dataclasses.asdict(scenario.trajopt)
    if w1 is not None:
        settings["w1"] = w1
    return trajopt.TrajOptProblem(rrt_path=path, obstacles=scenario.workspace.inflated_obstacles(),
                                  v_max=scenario.v_max, a_max=scenario.a_max, init=init, **settings)


_PLAN_ATTEMPTS = 4  # plans per plan_and_solve: the scenario's seed, then derived seeds
_INFLATION_ROUNDS = 4  # runs per _with_inflation, the first without inflation


def plan_and_solve(scenario: Scenario) -> tuple[rrt.RrtPath, trajopt.TrajOptSolution]:
    """Planner and optimizer stage shared by run, sweep and the CLI.

    A freshly planned path can occasionally wrap an inflated obstacle corner
    so tightly that a four-point hull clips it; those seeds are rejected by
    the optimizer and replanned with a derived seed (deterministically). A
    trajectory that fails its final verification, converged or not, is not
    tracked: it raises UnverifiedTrajectory.
    """
    scenario.validate()
    planner_ws = scenario.planner_workspace()
    last_exc = None
    for attempt in range(_PLAN_ATTEMPTS):
        params = scenario.planner
        if attempt > 0:
            params = replace(params, seed=episode_seed(params.seed, attempt))
        path = rrt.plan(planner_ws, scenario.start.position, scenario.goal, params)
        try:
            solution = trajopt.solve(make_problem(scenario, path))
        except InfeasibleSeed as exc:
            last_exc = exc
            continue
        if solution.status == "unverified":
            raise UnverifiedTrajectory(solution.residuals)
        return path, solution
    raise last_exc


def _inflated_config(cfg: ControllerConfig, diagnostics: dict) -> ControllerConfig:
    """Apply the minimal funnel inflations suggested by a compliance failure."""
    updates = {}
    for channel, info in diagnostics.items():
        suggested = info.get("suggested_rho0")
        if suggested is None:
            raise InitialComplianceError(diagnostics)
        name = f"funnel_{channel}"
        old: FunnelSpec = getattr(cfg, name)
        rho0 = max(old.rho0, suggested)
        rho_inf = rho0 if old.rho0 == old.rho_inf else min(old.rho_inf, rho0)
        updates[name] = FunnelSpec(rho0=rho0, rho_inf=rho_inf, l=old.l)
    return replace(cfg, **updates)


_CLEARANCE_BLOCK = 8192  # points per distance pass: about 64 KB per temporary


def _min_clearances(scenario: Scenario, positions: list[np.ndarray]) -> list[float | None]:
    """Per episode, the least footprint clearance from the raw obstacles over its (ticks, 2)
    pre-step positions; None without ticks or obstacles. Consecutive episodes share a pass of
    about _CLEARANCE_BLOCK points: cache-sized blocks beat one 10-MB pass."""
    obstacles = scenario.workspace.obstacles
    out: list[float | None] = [None] * len(positions)
    counts = np.array([len(p) for p in positions], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    groups = starts // _CLEARANCE_BLOCK
    for g in np.unique(groups[counts > 0]) if obstacles else ():
        members = np.flatnonzero((groups == g) & (counts > 0))
        dists = distances_to_obstacles(np.concatenate([positions[k] for k in members]), obstacles)
        minima = np.minimum.reduceat(dists, starts[members] - starts[members[0]]) - scenario.footprint_radius
        for k, m in zip(members, minima.tolist()):
            out[k] = m
    return out


def _table_inputs(cfg: ControllerConfig, traj: SplineTrajectory, lead: float,
                  dist: DisturbanceBatch, dt: float, i: int, n_max: int):
    """What does not depend on the state in ticks i, i + 1, ... < n_max of a table, all on
    the episode clock k * dt: times, spline times, reference points, radii (floats), and the
    wrenches of dist's (ticks + 1, 3, B) state rows at k * dt and (ticks, 3, B) half-step
    rows between them, the even and odd rows of one grid anchored at i * dt."""
    t = np.arange(i, min(i + _TABLE_TICKS, n_max)) * dt
    s_ref = np.minimum(t + lead, traj.duration)
    grid = dist.grid(i * dt, 0.5 * dt, 2 * len(t) + 1)
    return t, s_ref, traj.eval(s_ref), funnel_radii(cfg, t).T.tolist(), grid[::2], grid[1::2]


def _reduce_ticks(rec: np.ndarray, scenario: Scenario, cfg: ControllerConfig):
    """Per episode of a (ticks, _RECORD_ROWS, B) record: (6, B) counts of the violations by
    channel, thrust cuts and actuator violations; (3, B) maxima (0 or more) of |psi_e|, |v|, speed."""
    _p_x, _p_y, _psi, u, v, psi_e, _e_d, F_T, alpha_r = rec[:, :9].transpose(1, 0, 2)
    counts = np.concatenate((np.count_nonzero(violated(rec[:, 9:]), axis=0), [
        np.count_nonzero(F_T < scenario.min_thrust_floor, axis=0),
        np.count_nonzero(~((0.0 <= F_T) & (F_T <= cfg.F_T_max)
                           & (np.abs(alpha_r) <= cfg.alpha_r_max)), axis=0)]))
    maxima = np.array((np.abs(psi_e), np.abs(v), np.hypot(u, v))).max(axis=1, initial=0.0)
    return counts, maxima


def _episode_summary(scenario: Scenario, lead: float, n_ticks: int, min_clear: float | None,
                     counts: np.ndarray, maxima: np.ndarray, final_e_d: float, *,
                     fault: str | None, goal_time: float | None) -> dict:
    """summary.json of one episode from _min_clearances and its _reduce_ticks column. It
    fails on any violation or fault; the extremes and final_e_d are None without ticks."""
    violations = {ch: int(n) for ch, n in zip(CHANNELS, counts)}
    failed = fault is not None or any(violations.values())
    max_abs_psi_e, max_abs_sway, max_speed = (float(m) if n_ticks else None for m in maxima)
    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "ticks": n_ticks,
        "dt": scenario.sim_dt,
        "violations": violations,
        "total_violations": int(sum(violations.values())),
        "failed": bool(failed),
        "fault": fault,
        "goal_reached": goal_time is not None,
        "goal_time": goal_time,
        "min_obstacle_clearance": min_clear,
        "max_abs_psi_e": max_abs_psi_e,
        "max_abs_sway": max_abs_sway,
        "max_speed": max_speed,
        "thrust_cut_ticks": int(counts[4]),
        "actuator_violations": int(counts[5]),
        "reference_lead": lead,
        "final_e_d": float(final_e_d) if n_ticks else None,
    }
    # Collision-guarantee chain: a clean distance channel inside a trajectory
    # planned with clearance > funnel radius must keep the vessel off the
    # obstacles.
    if scenario.workspace.obstacles and summary["total_violations"] == 0 and not failed:
        assert summary["min_obstacle_clearance"] > 0.0, "collision guarantee chain broke"
    return summary


def run_ticks(scenario: Scenario, cfg: ControllerConfig, traj: SplineTrajectory,
              lead: float, disturbance) -> EpisodeLog:
    """The tick loop proper: control against the sampled reference, integrate, log. The
    cascade clamps: a normalized error that left its funnel is pulled back and logged.

    One clock from 0: tick k reads every input at k * dt, its logged t, and its RK4 step
    the disturbance also at (k + 1/2) * dt and (k + 1) * dt; tau_* is the wrench the step
    read at t, and an arrival after tick k is at (k + 1) * dt."""
    dt, n_max = scenario.sim_dt, scenario.n_ticks
    goal_x, goal_y = scenario.goal
    x = operator.attrgetter(*_STATE_COLUMNS)(scenario.start)
    dist = DisturbanceBatch([disturbance])
    rows, fault, goal_time = [], None, None

    for i in range(n_max):
        j = i % _TABLE_TICKS
        if j == 0:
            t_log, s_ref, ref_p, radii, tau_state, tau_half = _table_inputs(
                cfg, traj, lead, dist, dt, i, n_max)
            tau_state, tau_half = tau_state[..., 0].tolist(), tau_half[..., 0].tolist()
            t_log, ref_p, ref_v = t_log.tolist(), ref_p.tolist(), traj.eval_derivatives(s_ref)[0].tolist()
        p_des, rho = ref_p[j], radii[j]
        try:  # the _ERROR_COLUMNS
            errors = compute_errors(x[0], x[1], x[2], p_des[0], p_des[1])
        except DegenerateDistance:
            fault = "degenerate_distance"
            break
        if i == 0:
            check_initial_compliance(errors, scenario.start, cfg)
        F_T, alpha_r, (xi, eps, *signals) = stages(x[3], x[5], errors[2], errors[3], rho, cfg)
        u_alpha, u_F = signals[-2:]
        rows.append((t_log[j], *x, *p_des, *ref_v[j], *errors, *rho, *xi, *eps, *signals,
                     F_T, alpha_r, 1.0 if (u_F < 0.0 or u_F > cfg.F_T_max) else 0.0,
                     1.0 if abs(u_alpha) > cfg.alpha_r_max else 0.0, *tau_state[j]))
        x = step(x, F_T, alpha_r, scenario.vessel, tau_state[j], tau_half[j], tau_state[j + 1], dt)
        if (math.hypot(x[0] - goal_x, x[1] - goal_y) <= scenario.goal_radius
                and math.hypot(x[3], x[4]) <= scenario.goal_speed_threshold):
            goal_time = (i + 1) * dt
            break

    # A row holds every column but the violation flags, which come last.
    row_columns = LOG_COLUMNS[:-len(CHANNELS)]
    table = np.array(rows, dtype=float).reshape(-1, len(row_columns))
    columns = dict(zip(row_columns, table.T.copy()))
    flags = violated(np.array([columns[f"xi_{ch}"] for ch in CHANNELS]))
    columns.update((f"viol_{ch}", flag.astype(float)) for ch, flag in zip(CHANNELS, flags))
    # The logged columns are the tick record of one episode.
    counts, maxima = _reduce_ticks(np.array([columns[name] for name in _RECORD_ROWS]).T[:, :, None],
                                   scenario, cfg)
    n = len(table)
    summary = _episode_summary(
        scenario, lead, n, _min_clearances(scenario, [table[:, 1:3]])[0], counts[:, 0],
        maxima[:, 0], columns["e_d"][-1] if n else math.nan, fault=fault, goal_time=goal_time)
    return EpisodeLog(columns=columns, summary=summary)


def _sweep_ticks(scenario: Scenario, cfg: ControllerConfig, traj: SplineTrajectory,
                 lead: float, disturbances: list) -> list[dict]:
    """run_ticks for many disturbance realizations in lockstep; their summaries.

    The episodes share the start state, the reference, the funnel radii and the
    initial-compliance check; states, commands and disturbances are (B,) columns.
    An episode leaves the batch on a degenerate distance (before its tick counts)
    or on reaching the goal (after its step). No log is kept: the tick record is
    reduced by table, before an episode leaves and at the end.
    """
    dt, n_max = scenario.sim_dt, scenario.n_ticks
    # 0-d arrays: numpy is faster on arrays than on floats.
    goal_x, goal_y, goal_radius, speed_bound, eps_degenerate = map(np.array, (
        *scenario.goal, scenario.goal_radius, scenario.goal_speed_threshold, EPS_DEGENERATE))
    start = scenario.start
    n = len(disturbances)

    # Working columns (of x, dist, the tables, the record): the running episodes, idx their numbers.
    idx = np.arange(n)
    x = np.tile(np.array(operator.attrgetter(*_STATE_COLUMNS)(start))[:, None], (1, n))
    dist = DisturbanceBatch(disturbances)

    # Per episode, indexed by episode number: the _reduce_ticks counts and maxima.
    positions = np.empty((n_max, 2, n))
    counts = np.zeros((len(CHANNELS) + 2, n), dtype=np.int64)
    maxima = np.zeros((3, n))
    final_e_d = np.zeros(n)
    ticks = np.full(n, n_max)
    fault: list[str | None] = [None] * n
    goal_time: list[float | None] = [None] * n

    # Ticks first, first + 1, ...: the _RECORD_ROWS, state rows pre-step.
    record, first = np.empty((_TABLE_TICKS, len(_RECORD_ROWS), n)), 0

    def flush(end: int) -> None:
        nonlocal first
        rec, first = record[:end - first, :, :len(idx)], end
        if rec.size:
            sel = idx if len(idx) < n else slice(None)  # a basic slice is cheaper
            table_counts, table_maxima = _reduce_ticks(rec, scenario, cfg)
            counts[:, sel] += table_counts
            maxima[:, sel] = np.maximum(maxima[:, sel], table_maxima)
            final_e_d[sel] = rec[-1, 6]
            positions[end - len(rec):end, :, sel] = rec[:, :2]

    def leave(done: np.ndarray, end: int, outcome: list, value) -> None:
        """The done episodes leave after tick end - 1, each with outcome[k] = value."""
        nonlocal idx, x, dist, tau_state, tau_half
        flush(end)
        ticks[idx[done]] = end
        for k in idx[done]:
            outcome[k] = value
        idx, x, dist = idx[~done], x[:, ~done], dist[~done]
        tau_state, tau_half = tau_state[..., ~done], tau_half[..., ~done]

    for i in range(n_max):
        if not len(idx):
            break
        j = i % _TABLE_TICKS
        if j == 0:
            flush(i)
            _t, _s_ref, ref_p, radii, tau_state, tau_half = _table_inputs(
                cfg, traj, lead, dist, dt, i, n_max)  # dist: the running episodes
        p_des = ref_p[j]
        _e_x, _e_y, e_d, e_o, psi_e = compute_errors(x[0], x[1], x[2], p_des[0], p_des[1])
        degenerate = e_d < eps_degenerate
        if np.count_nonzero(degenerate):
            e_d, e_o, psi_e = e_d[~degenerate], e_o[~degenerate], psi_e[~degenerate]
            leave(degenerate, i, fault, "degenerate_distance")
            if not len(idx):
                break
        if i == 0:  # the same start state and reference for every episode: one check
            check_initial_compliance(compute_errors(start.p_x, start.p_y, start.psi, *p_des), start, cfg)

        row = record[i - first, :, :len(idx)]
        F_T, alpha_r, _signals = stages(x[3], x[5], e_d, e_o, radii[j], cfg, row[9:])
        row[:5] = x[:5]
        row[5], row[6], row[7], row[8] = psi_e, e_d, F_T, alpha_r
        x = step(x, F_T, alpha_r, scenario.vessel, tau_state[j], tau_half[j],
                 tau_state[j + 1], dt)
        # The speed only once some episode is inside the goal ball.
        arrived = np.hypot(x[0] - goal_x, x[1] - goal_y) <= goal_radius
        if np.count_nonzero(arrived) and np.count_nonzero(
                arrived := arrived & (np.hypot(x[3], x[4]) <= speed_bound)):
            leave(arrived, i + 1, goal_time, (i + 1) * dt)
    flush(n_max)  # the episodes that ran to the horizon, if any

    min_clear = _min_clearances(scenario, [positions[:ticks[k], :, k] for k in range(n)])
    return [_episode_summary(scenario, lead, int(ticks[k]), min_clear[k], counts[:, k],
                             maxima[:, k], final_e_d[k], fault=fault[k], goal_time=goal_time[k])
            for k in range(n)]


def _with_inflation(run, cfg: ControllerConfig, auto_inflate: bool):
    """run(cfg) with the opt-in compliance recovery; (result, inflated channels).

    Each round applies the minimal per-channel funnel inflation the failure
    suggests; inflating one channel can surface the next (a distance error at
    the new funnel edge drives an extreme velocity reference), so recovery
    iterates channel by channel instead of guessing a joint inflation.
    """
    inflated: list[str] = []
    for _ in range(_INFLATION_ROUNDS):
        try:
            return run(cfg), inflated
        except InitialComplianceError as err:
            if not auto_inflate:
                raise
            cfg = _inflated_config(cfg, err.diagnostics)
            inflated.extend(sorted(err.diagnostics.keys()))
    raise InitialComplianceError({ch: {"value": math.nan, "bound": math.nan,
                                       "suggested_rho0": None} for ch in inflated})


def run_episode(scenario: Scenario, auto_inflate: bool = False) -> EpisodeLog:
    """Full pipeline: plan, smooth, then closed-loop tracking until goal/horizon."""
    _path, solution = plan_and_solve(scenario)
    traj = solution.trajectory
    lead = reference_lead(scenario, traj)
    log, inflated = _with_inflation(
        lambda cfg: run_ticks(scenario, cfg, traj, lead, scenario.disturbance),
        scenario.controller, auto_inflate)
    if inflated:
        log.summary["auto_inflated"] = inflated
    log.solution = solution
    log.summary["trajopt_status"] = solution.status
    return log


@dataclass
class SweepResult:
    scenario_name: str
    master_seed: int
    episodes: list[dict] = field(default_factory=list)

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    def aggregate(self) -> dict:
        eps = self.episodes
        total = {ch: sum(s["violations"][ch] for s in eps) for ch in CHANNELS}
        return {
            "scenario": self.scenario_name,
            "master_seed": self.master_seed,
            "episodes": self.n_episodes,
            "failed_episodes": sum(int(s["failed"]) for s in eps),
            "violations_per_channel": total,
            "total_violations": sum(total.values()),
            "actuator_violations": sum(s["actuator_violations"] for s in eps),
            "max_abs_psi_e": max([0.0, *(s["max_abs_psi_e"] for s in eps
                                        if s["max_abs_psi_e"] is not None)]),
            "goal_reached": sum(int(s["goal_reached"]) for s in eps),
        }

    def to_dict(self) -> dict:
        return {"aggregate": self.aggregate(), "episodes": self.episodes}


def episode_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def sweep(scenario: Scenario, n_episodes: int, auto_inflate: bool = False) -> SweepResult:
    """Monte-Carlo disturbance sweep: one plan/solve, n independent realizations.

    The episodes run in lockstep through one array-valued tick loop; each
    summary is the one run_ticks gives for that episode's disturbance.
    """
    _path, solution = plan_and_solve(scenario)
    traj = solution.trajectory
    lead = reference_lead(scenario, traj)
    seeds = [episode_seed(scenario.seed, k) for k in range(n_episodes)]
    disturbances = [scenario.disturbance.reseeded(seed_k) for seed_k in seeds]
    summaries, inflated = _with_inflation(
        lambda cfg: _sweep_ticks(scenario, cfg, traj, lead, disturbances),
        scenario.controller, auto_inflate)
    for k, (entry, seed_k) in enumerate(zip(summaries, seeds)):
        entry.update({"auto_inflated": list(inflated)} if inflated else {},
                     episode_index=k, episode_seed=seed_k)
    return SweepResult(scenario_name=scenario.name, master_seed=scenario.seed, episodes=summaries)


@dataclass
class AuditReport:
    violations: dict
    summary_matches: bool
    discrepancies: list[str]
    actuator_violations: int
    min_margins: dict
    min_obstacle_clearance: float | None
    thrust_cut_ticks: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def audit(log: EpisodeLog, scenario: Scenario) -> AuditReport:
    """Re-derive every funnel inequality per tick from the logged raw signals.

    Uses the state/reference columns and the scenario configuration, plus
    three columns the controller wrote: the velocity references u_des and
    r_des, which the u and r channels are measured against, and psi_e for
    the bearing margin. Its xi/eps columns are not read; they are
    cross-checked implicitly through the violation recount. The recount is
    compared with log.summary unless that is None; a summary that lacks a
    count, {} included, disagrees. InvalidLog on a log without ticks.
    """
    if not log.n_ticks:
        raise InvalidLog("the episode log has no ticks to audit")
    cfg = scenario.controller
    cols = log.columns
    t = cols["t"]
    e_x = cols["ref_x"] - cols["p_x"]
    e_y = cols["ref_y"] - cols["p_y"]
    e_d = np.hypot(e_x, e_y)
    e_o = (e_x * np.sin(cols["psi"]) - e_y * np.cos(cols["psi"])) / np.where(e_d > 0, e_d, 1.0)

    rho_d = cfg.funnel_d.value(t)
    rho_o = cfg.funnel_o.value(t)
    rho_u = cfg.funnel_u.value(t)
    rho_r = cfg.funnel_r.value(t)

    e_u = cols["u"] - cols["u_des"]
    e_r = cols["r"] - cols["r_des"]

    viol = {
        "d": (e_d >= rho_d) | (e_d <= cfg.rho_d_min),
        "o": np.abs(e_o) >= rho_o,
        "u": np.abs(e_u) >= rho_u,
        "r": np.abs(e_r) >= rho_r,
    }
    counts = {ch: int(v.sum()) for ch, v in viol.items()}
    margins = {
        "d_upper": float(np.min(rho_d - e_d)),
        "d_lower": float(np.min(e_d - cfg.rho_d_min)),
        "o": float(np.min(rho_o - np.abs(e_o))),
        "u": float(np.min(rho_u - np.abs(e_u))),
        "r": float(np.min(rho_r - np.abs(e_r))),
        "psi_e": float(np.pi / 2.0 - np.max(np.abs(cols["psi_e"]))),
    }

    bad_actuator = int(np.sum((cols["F_T"] < 0.0) | (cols["F_T"] > cfg.F_T_max)
                              | (np.abs(cols["alpha_r"]) > cfg.alpha_r_max)))
    thrust_cut = int(np.sum(cols["F_T"] < scenario.min_thrust_floor))

    clearance = None
    if scenario.workspace.obstacles:
        positions = np.column_stack((cols["p_x"], cols["p_y"]))
        dists = distances_to_obstacles(positions, scenario.workspace.obstacles)
        clearance = float(dists.min() - scenario.footprint_radius)

    discrepancies = []
    if log.summary is not None:
        logged = log.summary.get("violations", {})
        for ch in CHANNELS:
            if logged.get(ch) != counts[ch]:
                discrepancies.append(
                    f"channel {ch}: audit recount {counts[ch]} != summary {logged.get(ch)}"
                )
        if log.summary.get("thrust_cut_ticks") != thrust_cut:
            discrepancies.append(
                f"thrust-cut ticks: audit {thrust_cut} != summary {log.summary.get('thrust_cut_ticks')}"
            )
    return AuditReport(
        violations=counts,
        summary_matches=not discrepancies,
        discrepancies=discrepancies,
        actuator_violations=bad_actuator,
        min_margins=margins,
        min_obstacle_clearance=clearance,
        thrust_cut_ticks=thrust_cut,
    )


def write_plotdata(log: EpisodeLog, scenario: Scenario, out_dir) -> list[str]:
    """Batch plot-source CSVs: funnel traces, inputs and the surge channel. A log column's cells
    are those save_csv wrote to episode.csv, verbatim; only rho_d_min, e_u and e_r, and a
    column changed since save_csv, are formatted here."""
    os.makedirs(out_dir, exist_ok=True)
    cols = log.columns
    derived = {"rho_d_min": np.full_like(cols["t"], scenario.controller.rho_d_min),
               "e_u": cols["u"] - cols["u_des"], "e_r": cols["r"] - cols["r_des"]}
    written = [os.path.join(out_dir, name) for name in _PLOT_FILES]
    for path, names in zip(written, _PLOT_FILES.values()):
        write_rows(path, names, [csv_cells(derived[c]) if c in derived else log.cells(c) for c in names])
    return written
