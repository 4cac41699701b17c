"""Numerical audit of the tracking-stability sufficient conditions.

The audit has full model access (it judges the scenario, not the
controller): it estimates, by seeded Monte-Carlo maximization over the
operating envelope, the bounds

    F_bar_u >= | f_u(x,t) - m  (du_des/dt + drho_u/dt * xi_u) |
    F_bar_r >= | f_r(x,t) - Iz (dr_des/dt + drho_r/dt * xi_r) |

and checks them against the actuator authority: F_bar_u <= F_T_max cos(a_max)
and F_bar_r <= Delta_x * F_T_floor * sin(a_max), plus the declared thrust
floor and the initial-bearing condition |psi_e(0)| < pi/2.

The reference-rate terms are measured by finite-differencing the cascade
references along short closed-loop rollouts of the true dynamics; the
samples of a pass roll out together through the batched cascade
(controller.control_batch) and RK4 (dynamics.step). Sampling
covers the compact operating subset |xi| <= xi_max of the funnel interior,
intersected with the physically sustainable velocity envelope (terminal
speeds under full actuation); the supremum over the full open funnel box is
unbounded and would audit states the closed loop cannot reach.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bspline import SplineTrajectory
from .controller import control_batch
# lumped_forces is unused here: perfbench/tracing.py wraps it by name in
# this module, so it stays bound.
from .dynamics import lumped, lumped_forces, step  # noqa: F401
from .errors import DegenerateDistance, InsufficientSamples
from .funnels import EPS_DEGENERATE, compute_errors
from .scenario import Scenario, reference_lead

CONDITIONS = ("thrust_floor", "surge_authority", "torque_authority", "initial_bearing")

# Samples rolled out together: bounds the rollout's arrays for any n_samples.
_PASS = 512


@dataclass
class FeasibilityReport:
    F_bar_u: float
    F_bar_r: float
    F_T_lower_declared: float
    F_T_lower_observed: float
    v_bar_declared: float
    v_bar_observed: float
    margins: dict
    verdicts: dict
    thrust_cut_events: int
    achieving_sample_u: dict
    achieving_sample_r: dict
    n_samples: int
    seed: int
    psi_e0: float

    @property
    def passed(self) -> bool:
        return all(self.verdicts[c] for c in CONDITIONS)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)


def _terminal_rate(d1: float, d2: float, force: float) -> float:
    """The rate w >= 0 where the drag d1 w + d2 w^2 balances a force."""
    if d2 > 0.0:
        return (-d1 + math.sqrt(d1 ** 2 + 4.0 * d2 * force)) / (2.0 * d2)
    if d1 > 0.0:
        return force / d1
    return math.inf


def terminal_surge_speed(scenario: Scenario) -> float:
    """Speed where straight-ahead drag balances full thrust."""
    d = scenario.vessel.drag
    return _terminal_rate(d.d1_u, d.d2_u, scenario.controller.F_T_max)


def terminal_yaw_rate(scenario: Scenario) -> float:
    """Yaw rate where yaw drag balances the full rudder torque."""
    d = scenario.vessel.drag
    N = scenario.vessel.Delta_x * scenario.controller.F_T_max * math.sin(scenario.controller.alpha_r_max)
    return _terminal_rate(d.d1_r, d.d2_r, N)


def _initial_reference_point(scenario: Scenario, trajectory: SplineTrajectory | None) -> np.ndarray:
    """Reference position at episode start, at the lead that run and sweep use.

    Without a trajectory the reference lies on the straight line to the
    goal, mid-funnel ahead; only its bearing is judged.
    """
    if trajectory is not None:
        return trajectory.eval(min(reference_lead(scenario, trajectory), trajectory.duration))
    cfg = scenario.controller
    target = 0.5 * (cfg.rho_d_min + cfg.funnel_d.value(0.0))
    start = np.asarray(scenario.start.position, dtype=float)
    goal = np.asarray(scenario.goal, dtype=float)
    direction = goal - start
    norm = float(np.linalg.norm(direction))
    if norm < 1e-9:
        return start + np.array([target, 0.0])
    return start + direction * (target / norm)


def _rollout_pass(scenario: Scenario, draws: np.ndarray, u_cap: float, r_cap: float,
                  dt_fd: float):
    """Central differences of (u_des, r_des) along 2-step closed-loop rollouts, all at once.

    One draws row per sample. The cascade runs at t0 + k dt_fd, the RK4
    disturbance at each sample's accumulated state time. Returns both bound
    values per sample with the columns of their achieving-sample records,
    and the (3, B) thrusts and sway speeds seen along the rollouts.
    """
    cfg = scenario.controller
    vessel = scenario.vessel
    t0, xi_d, xi_o, xi_u, xi_r, v, psi, px, py, ref_dir, ref_speed = draws.T

    rho_d, rho_o, rho_u, rho_r = (
        f.value(t0) for f in (cfg.funnel_d, cfg.funnel_o, cfg.funnel_u, cfg.funnel_r))
    e_d = 0.5 * (xi_d * (rho_d - cfg.rho_d_min) + rho_d + cfg.rho_d_min)
    psi_e = np.arcsin(xi_o * rho_o)
    u_des = cfg.k_d * np.arctanh(xi_d)
    u = np.minimum(np.maximum(u_des + xi_u * rho_u, 0.0), u_cap)
    r_des = -cfg.k_o * np.arctanh(xi_o)
    r = np.minimum(np.maximum(r_des + xi_r * rho_r, -r_cap), r_cap)
    # Re-derive the normalized velocity errors actually realized after clamping.
    xi_u_real = (u - u_des) / rho_u
    xi_r_real = (r - r_des) / rho_r

    # psi is drawn in [0, 2*pi), already wrapped.
    x = np.array((px, py, psi, u, v, r))
    p = np.array((px + e_d * np.cos(psi - psi_e), py + e_d * np.sin(psi - psi_e)))
    v_ref = ref_speed * np.array((np.cos(ref_dir), np.sin(ref_dir)))
    # The disturbance at the accumulated state times and the half steps between them.
    t_state = (t0, t0 + dt_fd, t0 + dt_fd + dt_fd)
    tau = [scenario.disturbance.value(t) for t in t_state]
    tau_half = [scenario.disturbance.value(t + 0.5 * dt_fd) for t in t_state[:2]]
    f_u, _f_v, f_r = lumped(u, v, r, tau[0], vessel)

    refs = []
    thrusts, sways = np.empty((2, 3, len(t0)))
    for k in range(3):
        err = compute_errors(x[0], x[1], x[2], p[0], p[1])
        if (err.e_d < EPS_DEGENERATE).any():
            raise DegenerateDistance(f"feasibility rollout: distance error {err.e_d.min():.3e} "
                                     f"below guard {EPS_DEGENERATE:.0e}")
        F_T, alpha_r, _viol, u_ref, r_ref = control_batch(
            x[3], x[5], err.e_d, err.e_o, t0 + k * dt_fd, cfg)
        refs.append((u_ref, r_ref))
        thrusts[k] = F_T
        sways[k] = np.abs(x[4])
        if k < 2:
            x = step(x, F_T, alpha_r, vessel, tau[k], tau_half[k], tau[k + 1], dt_fd)
            p = p + v_ref * dt_fd
    du_des = (refs[2][0] - refs[0][0]) / (2.0 * dt_fd)
    dr_des = (refs[2][1] - refs[0][1]) / (2.0 * dt_fd)

    val_u = np.abs(f_u - vessel.m * (du_des + cfg.funnel_u.rate(t0) * xi_u_real))
    val_r = np.abs(f_r - vessel.Iz * (dr_des + cfg.funnel_r.rate(t0) * xi_r_real))
    state = {"t": t0, "u": u, "v": v, "r": r, "psi": psi}
    cols_u = {**state, "xi_d": xi_d, "xi_u": xi_u_real, "f_u": f_u, "du_des": du_des}
    cols_r = {**state, "xi_o": xi_o, "xi_r": xi_r_real, "f_r": f_r, "dr_des": dr_des}
    return (val_u, cols_u), (val_r, cols_r), thrusts, sways


def _first_max(val: np.ndarray, cols: dict, best_val: float, best: dict) -> tuple[float, dict]:
    """Keep the running maximum and its sample; ties keep the earliest sample."""
    k = int(np.argmax(val))
    if val[k] > best_val:
        return float(val[k]), {name: float(col[k]) for name, col in cols.items()}
    return best_val, best


def estimate_bounds(scenario: Scenario, n_samples: int = 2000, seed: int | None = None,
                    trajectory: SplineTrajectory | None = None, xi_max: float = 0.8,
                    horizon: float | None = None, dt_fd: float = 0.02) -> FeasibilityReport:
    """Seeded Monte-Carlo maximization of the disturbance-and-reference bounds.

    The running maxima are nondecreasing in n_samples for a fixed seed, and
    the achieving samples are recorded for reproducibility. The samples are
    drawn and rolled out _PASS at a time, one continuous random stream.
    """
    if n_samples < 100:
        raise InsufficientSamples(f"need at least 100 samples, got {n_samples}")
    cfg = scenario.controller
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    horizon = scenario.horizon if horizon is None else horizon

    # Velocity envelope: speeds the actuators can sustain against drag,
    # intersected with what the cascade references can demand. The surge
    # bound applies in the forward-demand regime the stability analysis
    # covers (xi_d > 0, xi_u < 0; overspeed ticks cut thrust instead).
    u_cap = min(terminal_surge_speed(scenario), 1.5 * scenario.v_max)
    r_cap = min(terminal_yaw_rate(scenario), 1.5 * cfg.k_o * math.atanh(xi_max))
    v_bar = scenario.sway_bound
    x0, y0, x1, y1 = scenario.workspace.bounds
    # Draw ranges of t0, xi_d, xi_o, xi_u, xi_r, v, psi, px, py, ref_dir, ref_speed.
    lo, hi = np.array([(dt_fd, max(horizon, 2.0 * dt_fd)), (1e-3, xi_max), (-xi_max, xi_max),
                       (-xi_max, -1e-3), (-xi_max, xi_max), (-v_bar, v_bar), (0.0, 2.0 * math.pi),
                       (x0, x1), (y0, y1), (0.0, 2.0 * math.pi), (0.0, scenario.v_max)]).T

    F_bar_u, best_u, F_bar_r, best_r = 0.0, {}, 0.0, {}
    min_thrust, max_sway, thrust_cut = math.inf, 0.0, 0
    for done in range(0, n_samples, _PASS):
        draws = rng.uniform(lo, hi, size=(min(_PASS, n_samples - done), len(lo)))
        (val_u, cols_u), (val_r, cols_r), thrusts, sways = _rollout_pass(
            scenario, draws, u_cap, r_cap, dt_fd)
        F_bar_u, best_u = _first_max(val_u, cols_u, F_bar_u, best_u)
        F_bar_r, best_r = _first_max(val_r, cols_r, F_bar_r, best_r)
        min_thrust = min(min_thrust, float(thrusts.min()))
        max_sway = max(max_sway, float(sways.max()))
        thrust_cut += int(np.count_nonzero(thrusts < scenario.min_thrust_floor))

    # Initial-bearing condition on the scenario start state.
    ref0 = _initial_reference_point(scenario, trajectory)
    psi_e0 = compute_errors(scenario.start.p_x, scenario.start.p_y, scenario.start.psi,
                            ref0[0], ref0[1]).psi_e

    authority_u = cfg.F_T_max * math.cos(cfg.alpha_r_max)
    authority_r = scenario.vessel.Delta_x * scenario.min_thrust_floor * math.sin(cfg.alpha_r_max)
    margins = {
        "thrust_floor": min_thrust - scenario.min_thrust_floor,
        "surge_authority": authority_u - F_bar_u,
        "torque_authority": authority_r - F_bar_r,
        "initial_bearing": math.pi / 2.0 - abs(psi_e0),
    }
    verdicts = {
        # The floor is a declared operating assumption; observed thrust cuts
        # below it are tallied as events, not failures.
        "thrust_floor": scenario.min_thrust_floor > 0.0,
        "surge_authority": F_bar_u <= authority_u,
        "torque_authority": F_bar_r <= authority_r,
        "initial_bearing": abs(psi_e0) < math.pi / 2.0,
    }
    return FeasibilityReport(
        F_bar_u=F_bar_u,
        F_bar_r=F_bar_r,
        F_T_lower_declared=scenario.min_thrust_floor,
        F_T_lower_observed=min_thrust,
        v_bar_declared=v_bar,
        v_bar_observed=max_sway,
        margins=margins,
        verdicts=verdicts,
        thrust_cut_events=thrust_cut,
        achieving_sample_u=best_u,
        achieving_sample_r=best_r,
        n_samples=n_samples,
        seed=int(scenario.seed if seed is None else seed),
        psi_e0=psi_e0,
    )
