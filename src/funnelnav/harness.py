"""Closed-loop episode execution, structured logging, auditing and sweeps.

One episode runs the full pipeline: RRT over the inflated workspace, spline
smoothing, then per-tick funnel control against the sampled reference and an
RK4 step of the truth model. Everything lands in a flat column log so the
audit can re-derive every funnel inequality without trusting the controller.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import rrt, trajopt
from .bspline import SplineTrajectory
from .controller import (
    CHANNELS,
    ControllerConfig,
    ControllerDebug,
    check_initial_compliance,
    control_batch,
    control_tick,
)
from .dynamics import DisturbanceBatch, VesselState, step
from .errors import DegenerateDistance, InfeasibleSeed, InitialComplianceError, UnverifiedTrajectory
from .funnels import EPS_DEGENERATE, FunnelSpec, compute_errors
from .geometry import distances_to_obstacles
from .scenario import Scenario, reference_lead

# The episode log columns read from each tick's records, by attribute name.
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


def write_csv(path, header: list[str], arrays: list[np.ndarray]) -> None:
    """One row per entry of the equal-length float arrays, each value as its repr."""
    cols = [np.asarray(a, dtype=float).tolist() for a in arrays]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))


@dataclass
class EpisodeLog:
    scenario_name: str
    seed: int
    columns: dict[str, np.ndarray]
    summary: dict
    trajectory: SplineTrajectory | None = None

    @property
    def n_ticks(self) -> int:
        return len(self.columns["t"])

    def save_csv(self, path) -> None:
        write_csv(path, LOG_COLUMNS, [self.columns[c] for c in LOG_COLUMNS])

    @classmethod
    def load_csv(cls, path, scenario_name: str = "loaded", seed: int = 0) -> "EpisodeLog":
        with open(path, encoding="utf-8") as f:
            names = f.readline().rstrip("\n").split(",")
            lines = f.readlines()
        # loadtxt warns on no rows; a header-only log has zero-length columns.
        data = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, len(names)))
        columns = dict(zip(names, data.T))
        return cls(scenario_name=scenario_name, seed=seed, columns=columns, summary={})

    def save_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.summary, f, indent=2, sort_keys=True)


def make_problem(scenario: Scenario, path: rrt.RrtPath, w1: float | None = None,
                 init: str = "rrt") -> trajopt.TrajOptProblem:
    # The scenario's solver settings are TrajOptProblem fields of the same names.
    settings = dataclasses.asdict(scenario.trajopt)
    if w1 is not None:
        settings["w1"] = w1
    return trajopt.TrajOptProblem(rrt_path=path, obstacles=scenario.workspace.inflated_obstacles(),
                                  v_max=scenario.v_max, a_max=scenario.a_max, init=init, **settings)


def plan_and_solve(scenario: Scenario,
                   max_attempts: int = 4) -> tuple[rrt.RrtPath, trajopt.TrajOptSolution]:
    """Planner and optimizer stage shared by run, sweep and the CLI.

    A freshly planned path can occasionally wrap an inflated obstacle corner
    so tightly that a four-point hull clips it; those seeds are rejected by
    the optimizer and replanned with a derived seed (deterministically). A
    converged trajectory that fails its final verification is not tracked:
    it raises UnverifiedTrajectory.
    """
    scenario.validate()
    planner_ws = scenario.planner_workspace()
    last_exc = None
    for attempt in range(max_attempts):
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


def _episode_summary(scenario: Scenario, lead: float, positions: np.ndarray, *,
                     violations, fault: str | None, goal_time: float | None,
                     max_abs_psi_e: float, max_abs_sway: float, max_speed: float,
                     final_e_d: float, thrust_cut_ticks: int,
                     actuator_violations: int) -> dict:
    """summary.json of one episode from the reductions over its counted ticks.

    positions is the (ticks, 2) array of pre-step vessel positions, one row
    per counted tick; violations holds the tick counts in CHANNELS order.
    An episode fails on any violation or fault. The extremes and final_e_d
    are reported as None when no tick counted.
    """
    n_ticks = len(positions)
    violations = {ch: int(n) for ch, n in zip(CHANNELS, violations)}
    failed = fault is not None or any(violations.values())
    raw_obstacles = scenario.workspace.obstacles
    min_clear = None
    if raw_obstacles and n_ticks:
        min_clear = float(distances_to_obstacles(positions, raw_obstacles).min()
                          - scenario.footprint_radius)
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
        "max_abs_psi_e": float(max_abs_psi_e) if n_ticks else None,
        "max_abs_sway": float(max_abs_sway) if n_ticks else None,
        "max_speed": float(max_speed) if n_ticks else None,
        "thrust_cut_ticks": int(thrust_cut_ticks),
        "actuator_violations": int(actuator_violations),
        "reference_lead": lead,
        "final_e_d": float(final_e_d) if n_ticks else None,
    }
    # Collision-guarantee chain: a clean distance channel inside a trajectory
    # planned with clearance > funnel radius must keep the vessel off the
    # obstacles.
    if raw_obstacles and summary["total_violations"] == 0 and not failed:
        assert summary["min_obstacle_clearance"] > 0.0, "collision guarantee chain broke"
    return summary


def run_ticks(scenario: Scenario, cfg: ControllerConfig, traj: SplineTrajectory,
              lead: float, disturbance) -> EpisodeLog:
    """The tick loop proper: control against the sampled reference, integrate, log.

    The cascade always clamps: a channel whose normalized error left its
    funnel is pulled back to the edge and logged as violated.
    """
    dt = scenario.sim_dt
    n_max = int(round(scenario.horizon / dt))
    # Neither the reference nor the disturbance depends on the state: sample
    # the whole episode's at once.
    t_log = np.arange(n_max) * dt
    s_ref = np.minimum(t_log + lead, traj.duration)
    ref_p = traj.eval(s_ref)
    ref_v, _, _ = traj.eval_derivatives(s_ref)
    # The state times accumulate as the RK4 steps them, t_{i+1} = t_i + dt.
    t_state = list(itertools.accumulate(itertools.repeat(dt, n_max), initial=scenario.start.t))
    tau_log, tau_state, tau_half = (
        disturbance.value(ts).T.tolist()
        for ts in (t_log, np.array(t_state), np.array(t_state[:-1]) + 0.5 * dt))
    goal = np.asarray(scenario.goal, dtype=float)

    state_row = operator.attrgetter(*_STATE_COLUMNS)
    error_row = operator.attrgetter(*_ERROR_COLUMNS)
    cascade_row = operator.attrgetter(*_CASCADE_COLUMNS)
    rows = []
    state = scenario.start
    fault = None
    goal_time = None

    for i, t in enumerate(t_log.tolist()):
        p_des = ref_p[i]
        try:
            cmd, dbg = control_tick(state, p_des, t, cfg, clamp=True)
        except DegenerateDistance:
            fault = "degenerate_distance"
            break

        rows.append((t, *state_row(state), *p_des, *ref_v[i], *error_row(dbg.errors),
                     *cascade_row(dbg), cmd.F_T, cmd.alpha_r,
                     1.0 if (dbg.u_F < 0.0 or dbg.u_F > cfg.F_T_max) else 0.0,
                     1.0 if abs(dbg.u_alpha) > cfg.alpha_r_max else 0.0,
                     *tau_log[i]))

        x = step(state_row(state), cmd.F_T, cmd.alpha_r, scenario.vessel,
                 tau_state[i], tau_half[i], tau_state[i + 1], dt)
        state = VesselState(*x, t=t_state[i + 1])
        if (math.hypot(state.p_x - goal[0], state.p_y - goal[1]) <= scenario.goal_radius
                and state.speed() <= scenario.goal_speed_threshold):
            goal_time = state.t
            break

    # A row holds every column but the violation flags, which come last.
    row_columns = LOG_COLUMNS[:-len(CHANNELS)]
    table = np.array(rows, dtype=float).reshape(-1, len(row_columns))
    columns = dict(zip(row_columns, table.T.copy()))
    # The logged columns are the cascade record of the whole episode.
    flags = ControllerDebug(**{f"xi_{ch}": columns[f"xi_{ch}"] for ch in CHANNELS}).violated()
    columns.update((f"viol_{ch}", flag.astype(float)) for ch, flag in zip(CHANNELS, flags))
    F_T, alpha_r = columns["F_T"], columns["alpha_r"]
    summary = _episode_summary(
        scenario, lead, np.column_stack((columns["p_x"], columns["p_y"])),
        violations=flags.sum(axis=1), fault=fault, goal_time=goal_time,
        max_abs_psi_e=np.max(np.abs(columns["psi_e"]), initial=0.0),
        max_abs_sway=np.max(np.abs(columns["v"]), initial=0.0),
        max_speed=np.max(np.hypot(columns["u"], columns["v"]), initial=0.0),
        final_e_d=columns["e_d"][-1] if len(columns["e_d"]) else math.nan,
        thrust_cut_ticks=np.count_nonzero(F_T < scenario.min_thrust_floor),
        actuator_violations=np.count_nonzero(~((0.0 <= F_T) & (F_T <= cfg.F_T_max)
                                               & (np.abs(alpha_r) <= cfg.alpha_r_max))))
    return EpisodeLog(scenario_name=scenario.name, seed=scenario.seed,
                      columns=columns, summary=summary)


def _sweep_ticks(scenario: Scenario, cfg: ControllerConfig, traj: SplineTrajectory,
                 lead: float, disturbances: list) -> list[dict]:
    """run_ticks for many disturbance realizations in lockstep; their summaries.

    Every episode starts from the same state and follows the same reference,
    so the reference point, the funnel radii and the initial-compliance
    check are shared per tick, while states, commands and disturbances are
    (B,) columns. The cascade clamps and masks the violated channels, as in
    run_ticks. An episode leaves the batch, its counters frozen, on a
    degenerate distance (before its tick counts) or on reaching the goal
    (after its step). No log is kept: only the summary's running reductions
    and the positions for the clearance.
    """
    dt = scenario.sim_dt
    n_max = int(round(scenario.horizon / dt))
    ref_p = traj.eval(np.minimum(np.arange(n_max) * dt + lead, traj.duration))
    goal_x, goal_y = (float(g) for g in scenario.goal)
    start = scenario.start
    n = len(disturbances)

    # Working columns: the episodes still running, idx their episode numbers.
    idx = np.arange(n)
    x = np.tile(np.array([[start.p_x], [start.p_y], [start.psi],
                          [start.u], [start.v], [start.r]]), (1, n))
    dist = DisturbanceBatch(disturbances)
    t_state = start.t
    tau0 = dist.value(t_state)

    # Per episode, indexed by episode number.
    positions = np.empty((n_max, 2, n))
    violations = np.zeros((len(CHANNELS), n), dtype=np.int64)
    thrust_cut = np.zeros(n, dtype=np.int64)
    actuator = np.zeros(n, dtype=np.int64)
    max_abs_psi_e = np.zeros(n)
    max_abs_sway = np.zeros(n)
    max_speed = np.zeros(n)
    final_e_d = np.zeros(n)
    ticks = np.full(n, n_max)
    fault: list[str | None] = [None] * n
    goal_time: list[float | None] = [None] * n

    def leave(done: np.ndarray) -> None:
        nonlocal idx, x, dist, tau0
        keep = ~done
        idx, x, tau0 = idx[keep], x[:, keep], tau0[:, keep]
        dist = DisturbanceBatch([disturbances[k] for k in idx])

    for i in range(n_max):
        if not len(idx):
            break
        t = i * dt
        p_des = ref_p[i]
        err = compute_errors(x[0], x[1], x[2], p_des[0], p_des[1])
        e_d, e_o, psi_e = err.e_d, err.e_o, err.psi_e
        degenerate = e_d < EPS_DEGENERATE
        if degenerate.any():
            ticks[idx[degenerate]] = i
            for k in idx[degenerate]:
                fault[k] = "degenerate_distance"
            e_d, e_o, psi_e = e_d[~degenerate], e_o[~degenerate], psi_e[~degenerate]
            leave(degenerate)
            if not len(idx):
                break
        if i == 0:
            # Same start state and reference for every episode: one check.
            check_initial_compliance(
                compute_errors(start.p_x, start.p_y, start.psi, p_des[0], p_des[1]), start, cfg)

        F_T, alpha_r, violated, _, _ = control_batch(x[3], x[5], e_d, e_o, t, cfg)
        # A basic slice while every episode still runs: cheaper than fancy indexing.
        sel = idx if len(idx) < n else slice(None)
        violations[:, sel] += violated
        thrust_cut[sel] += F_T < scenario.min_thrust_floor
        actuator[sel] += ~((0.0 <= F_T) & (F_T <= cfg.F_T_max)
                           & (np.abs(alpha_r) <= cfg.alpha_r_max))
        max_abs_psi_e[sel] = np.maximum(max_abs_psi_e[sel], np.abs(psi_e))
        max_abs_sway[sel] = np.maximum(max_abs_sway[sel], np.abs(x[4]))
        max_speed[sel] = np.maximum(max_speed[sel], np.hypot(x[3], x[4]))
        final_e_d[sel] = e_d
        positions[i][:, sel] = x[:2]

        tau_half = dist.value(t_state + 0.5 * dt)
        tau1 = dist.value(t_state + dt)
        x = step(x, F_T, alpha_r, scenario.vessel, tau0, tau_half, tau1, dt)
        t_state = t_state + dt
        tau0 = tau1
        arrived = ((np.hypot(x[0] - goal_x, x[1] - goal_y) <= scenario.goal_radius)
                   & (np.hypot(x[3], x[4]) <= scenario.goal_speed_threshold))
        if arrived.any():
            ticks[idx[arrived]] = i + 1
            for k in idx[arrived]:
                goal_time[k] = t_state
            leave(arrived)

    return [
        _episode_summary(
            scenario, lead, positions[:ticks[k], :, k], violations=violations[:, k],
            fault=fault[k], goal_time=goal_time[k],
            max_abs_psi_e=max_abs_psi_e[k], max_abs_sway=max_abs_sway[k],
            max_speed=max_speed[k], final_e_d=final_e_d[k],
            thrust_cut_ticks=thrust_cut[k], actuator_violations=actuator[k])
        for k in range(n)
    ]


def _with_inflation(run, cfg: ControllerConfig, auto_inflate: bool,
                    max_rounds: int = 4):
    """run(cfg) with the opt-in compliance recovery; (result, inflated channels).

    Each round applies the minimal per-channel funnel inflation the failure
    suggests; inflating one channel can surface the next (a distance error at
    the new funnel edge drives an extreme velocity reference), so recovery
    iterates channel by channel instead of guessing a joint inflation.
    """
    inflated: list[str] = []
    for _ in range(max_rounds):
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
    log.trajectory = traj
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
        total = {ch: 0 for ch in CHANNELS}
        failures = 0
        actuator = 0
        max_psi_e = 0.0
        for s in self.episodes:
            for ch in CHANNELS:
                total[ch] += s["violations"][ch]
            failures += int(s["failed"])
            actuator += s["actuator_violations"]
            if s["max_abs_psi_e"] is not None:
                max_psi_e = max(max_psi_e, s["max_abs_psi_e"])
        return {
            "scenario": self.scenario_name,
            "master_seed": self.master_seed,
            "episodes": self.n_episodes,
            "failed_episodes": failures,
            "violations_per_channel": total,
            "total_violations": sum(total.values()),
            "actuator_violations": actuator,
            "max_abs_psi_e": max_psi_e,
            "goal_reached": sum(int(s["goal_reached"]) for s in self.episodes),
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"aggregate": self.aggregate(), "episodes": self.episodes},
                      f, indent=2, sort_keys=True)


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
    result = SweepResult(scenario_name=scenario.name, master_seed=scenario.seed)
    for k, (entry, seed_k) in enumerate(zip(summaries, seeds)):
        if inflated:
            entry["auto_inflated"] = list(inflated)
        entry["episode_index"] = k
        entry["episode_seed"] = seed_k
        result.episodes.append(entry)
    return result


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

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)


def audit(log: EpisodeLog, scenario: Scenario) -> AuditReport:
    """Re-derive every funnel inequality per tick from the logged raw signals.

    Uses only the state/reference columns plus the scenario configuration --
    nothing the controller wrote (its xi/eps columns are cross-checked
    implicitly through the violation recount).
    """
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
    if log.summary:
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
    """Batch plot-source CSVs: funnel traces, inputs and the surge channel."""
    os.makedirs(out_dir, exist_ok=True)
    cols = log.columns
    errors = {"t": cols["t"], "e_d": cols["e_d"], "rho_d": cols["rho_d"],
              "rho_d_min": np.full_like(cols["t"], scenario.controller.rho_d_min),
              "e_o": cols["e_o"], "rho_o": cols["rho_o"], "e_u": cols["u"] - cols["u_des"],
              "rho_u": cols["rho_u"], "e_r": cols["r"] - cols["r_des"], "rho_r": cols["rho_r"]}
    files = {"errors_vs_funnels.csv": errors,
             "inputs.csv": {c: cols[c] for c in ("t", "F_T", "alpha_r", "sat_F", "sat_alpha")},
             "forward_velocity.csv": {c: cols[c] for c in ("t", "u", "u_des")}}
    written = [os.path.join(out_dir, name) for name in files]
    for path, table in zip(written, files.values()):
        write_csv(path, list(table), list(table.values()))
    return written
