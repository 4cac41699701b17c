"""Four-stage funnel-tracking cascade with thrust/rudder allocation.

The controller is parameter-ignorant: it consumes only the measured
VesselState and the reference position. Stage 1 turns the distance error
into a surge-velocity reference, stage 2 the orientation error into a
yaw-rate reference, stages 3/4 turn the velocity errors into force/torque
demands, and the allocation maps those onto the saturated thrust and rudder
of the single rear thruster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ActuatorCommand, VesselState
from .errors import InitialComplianceError
from .funnels import (
    FunnelSpec,
    TrackingErrors,
    compute_errors,
    normalize_asymmetric,
    normalize_symmetric,
    transform,
    transform_clamped,
)


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, funnels and actuator limits of the cascade.

    delta_x_nominal is the user's guess of the thruster arm used only inside
    the allocation gain k_alpha; mismatch against the true arm folds into the
    unknown dynamics the funnels absorb.
    """

    k_d: float
    k_u: float
    k_o: float
    k_r: float
    funnel_d: FunnelSpec
    funnel_u: FunnelSpec
    funnel_o: FunnelSpec
    funnel_r: FunnelSpec
    rho_d_min: float
    F_T_max: float
    alpha_r_max: float
    eps_u_guard: float = 1e-6
    delta_x_nominal: float = 1.0

    def __post_init__(self):
        for name in ("k_d", "k_u", "k_o", "k_r"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"gain {name} must be positive")
        if self.rho_d_min <= 0.0:
            raise ValueError("rho_d_min must be positive")
        if self.funnel_d.rho_inf <= self.rho_d_min:
            raise ValueError("distance funnel must stay above rho_d_min")
        if self.funnel_o.rho0 >= 1.0:
            raise ValueError("orientation funnel radius must start below 1")
        if not (0.0 < self.alpha_r_max <= math.pi / 6.0):
            raise ValueError("rudder limit must lie in (0, pi/6]")
        if self.F_T_max <= 0.0:
            raise ValueError("thrust limit must be positive")
        if self.eps_u_guard <= 0.0:
            raise ValueError("eps_u_guard must be positive")
        if self.delta_x_nominal <= 0.0:
            raise ValueError("delta_x_nominal must be positive")

    @property
    def k_alpha(self) -> float:
        return self.k_r / (self.delta_x_nominal * self.k_u)


@dataclass
class ControllerDebug:
    """Every intermediate cascade signal of one tick."""

    errors: TrackingErrors | None = None
    xi_d: float = math.nan
    xi_o: float = math.nan
    xi_u: float = math.nan
    xi_r: float = math.nan
    eps_d: float = math.nan
    eps_o: float = math.nan
    eps_u: float = math.nan
    eps_r: float = math.nan
    u_des: float = math.nan
    r_des: float = math.nan
    X_des: float = math.nan
    N_des: float = math.nan
    u_alpha: float = math.nan
    u_F: float = math.nan
    rho_d: float = math.nan
    rho_o: float = math.nan
    rho_u: float = math.nan
    rho_r: float = math.nan
    violations: list = field(default_factory=list)


def velocity_references(errors: TrackingErrors, t: float, cfg: ControllerConfig,
                        debug: ControllerDebug | None = None,
                        clamp: bool = False) -> tuple[float, float, ControllerDebug]:
    """Stage 1+2: surge and yaw-rate references from the position errors."""
    dbg = debug if debug is not None else ControllerDebug()
    dbg.rho_d = cfg.funnel_d.value(t)
    dbg.rho_o = cfg.funnel_o.value(t)

    dbg.xi_d = normalize_asymmetric(errors.e_d, dbg.rho_d, cfg.rho_d_min)
    dbg.eps_d = _transform_tracked(dbg, "d", dbg.xi_d, t, clamp)
    u_des = cfg.k_d * dbg.eps_d

    dbg.xi_o = normalize_symmetric(errors.e_o, dbg.rho_o)
    dbg.eps_o = _transform_tracked(dbg, "o", dbg.xi_o, t, clamp)
    r_des = -cfg.k_o * dbg.eps_o

    dbg.u_des = u_des
    dbg.r_des = r_des
    return u_des, r_des, dbg


def wrench_references(state: VesselState, u_des: float, r_des: float, t: float,
                      cfg: ControllerConfig, debug: ControllerDebug | None = None,
                      clamp: bool = False) -> tuple[float, float, ControllerDebug]:
    """Stage 3+4: force/torque demands from the velocity errors."""
    dbg = debug if debug is not None else ControllerDebug()
    dbg.rho_u = cfg.funnel_u.value(t)
    dbg.rho_r = cfg.funnel_r.value(t)

    dbg.xi_u = normalize_symmetric(state.u - u_des, dbg.rho_u)
    dbg.eps_u = _transform_tracked(dbg, "u", dbg.xi_u, t, clamp)
    dbg.X_des = -cfg.k_u * dbg.eps_u

    dbg.xi_r = normalize_symmetric(state.r - r_des, dbg.rho_r)
    dbg.eps_r = _transform_tracked(dbg, "r", dbg.xi_r, t, clamp)
    dbg.N_des = -cfg.k_r * dbg.eps_r
    return dbg.X_des, dbg.N_des, dbg


def _transform_tracked(dbg: ControllerDebug, channel: str, xi: float, t: float,
                       clamp: bool) -> float:
    if clamp and abs(xi) >= 1.0:
        dbg.violations.append(channel)
    return transform(xi, channel=channel, t=t, clamp=clamp)


def saturate_and_allocate(eps_u: float, eps_r: float, cfg: ControllerConfig,
                          debug: ControllerDebug | None = None) -> tuple[ActuatorCommand, ControllerDebug]:
    """Map transformed velocity errors onto saturated thrust and rudder.

    The rudder demand divides by eps_u, which the running controller only
    ever sees negative (thrust demand positive); the guard clamps it away
    from zero so an overspeed tick (eps_u >= 0) steers the rudder toward
    -alpha_max * sign(eps_r) while the thrust demand itself goes nonpositive
    and saturates to a clean thrust cut.
    """
    dbg = debug if debug is not None else ControllerDebug()
    eps_u_guarded = min(eps_u, -cfg.eps_u_guard)
    dbg.u_alpha = math.atan(cfg.k_alpha * eps_r / eps_u_guarded)
    alpha_r = min(max(dbg.u_alpha, -cfg.alpha_r_max), cfg.alpha_r_max)
    dbg.u_F = -cfg.k_u * eps_u / math.cos(alpha_r)
    cmd = ActuatorCommand.clamped(dbg.u_F, dbg.u_alpha, cfg.F_T_max, cfg.alpha_r_max)
    return cmd, dbg


def check_initial_compliance(errors: TrackingErrors, state: VesselState,
                             cfg: ControllerConfig) -> None:
    """Validate the t=0 funnel preconditions; raise with per-channel diagnostics.

    For each violated channel the diagnostics carry the minimal funnel radius
    rho0 that would restore compliance (None when no inflation can, e.g. a
    distance error at or below rho_d_min).
    """
    bad: dict[str, dict] = {}
    rho_d0 = cfg.funnel_d.value(0.0)
    if not (cfg.rho_d_min < errors.e_d < rho_d0):
        suggestion = errors.e_d * (1.0 + 1e-6) if errors.e_d > cfg.rho_d_min else None
        bound = rho_d0 if errors.e_d >= rho_d0 else cfg.rho_d_min
        bad["d"] = {"value": errors.e_d, "bound": bound, "suggested_rho0": suggestion}

    rho_o0 = cfg.funnel_o.value(0.0)
    if abs(errors.e_o) >= rho_o0:
        needed = abs(errors.e_o) * (1.0 + 1e-6)
        bad["o"] = {"value": errors.e_o, "bound": rho_o0,
                    "suggested_rho0": needed if needed < 1.0 else None}

    if abs(errors.psi_e) >= math.pi / 2.0:
        bad["psi_e"] = {"value": errors.psi_e, "bound": math.pi / 2.0, "suggested_rho0": None}

    if "d" not in bad and "o" not in bad:
        # Velocity-channel checks need the stage-1 references, well-defined
        # only when the position channels comply.
        xi_d = normalize_asymmetric(errors.e_d, rho_d0, cfg.rho_d_min)
        u_des = cfg.k_d * transform(xi_d, channel="d", t=0.0)
        xi_o = normalize_symmetric(errors.e_o, rho_o0)
        r_des = -cfg.k_o * transform(xi_o, channel="o", t=0.0)
        e_u = state.u - u_des
        rho_u0 = cfg.funnel_u.value(0.0)
        if abs(e_u) >= rho_u0:
            bad["u"] = {"value": e_u, "bound": rho_u0, "suggested_rho0": abs(e_u) * (1.0 + 1e-6)}
        e_r = state.r - r_des
        rho_r0 = cfg.funnel_r.value(0.0)
        if abs(e_r) >= rho_r0:
            bad["r"] = {"value": e_r, "bound": rho_r0, "suggested_rho0": abs(e_r) * (1.0 + 1e-6)}

    if bad:
        raise InitialComplianceError(bad)


def control_tick(state: VesselState, p_des, t: float, cfg: ControllerConfig,
                 clamp: bool = False) -> tuple[ActuatorCommand, ControllerDebug]:
    """One full cascade evaluation: errors -> references -> demands -> command.

    At t == 0 the initial funnel compliance is validated first
    (InitialComplianceError). Funnel violations at later times raise
    FunnelViolation tagged with the channel, unless clamp=True, in which case
    the offending normalized errors are pulled back to the funnel edge and
    the channels recorded in the returned debug record.
    """
    errors = compute_errors(state.p_x, state.p_y, state.psi, float(p_des[0]), float(p_des[1]))
    if t == 0.0:
        check_initial_compliance(errors, state, cfg)
    dbg = ControllerDebug(errors=errors)
    u_des, r_des, dbg = velocity_references(errors, t, cfg, debug=dbg, clamp=clamp)
    _, _, dbg = wrench_references(state, u_des, r_des, t, cfg, debug=dbg, clamp=clamp)
    cmd, dbg = saturate_and_allocate(dbg.eps_u, dbg.eps_r, cfg, debug=dbg)
    return cmd, dbg


def control_batch(u: np.ndarray, r: np.ndarray, e_d: np.ndarray, e_o: np.ndarray, t,
                  cfg: ControllerConfig):
    """control_tick's cascade after the errors, for (B,) arrays of episodes.

    t is one time for all columns or a (B,) array of times. Always takes
    the clamp path: a channel whose normalized error left its funnel is
    pulled back to the edge and flagged, which is what control_tick's caller
    gets by retrying with clamp=True after a FunnelViolation. Returns the
    saturated thrust and rudder (B,), the (4, B) violation mask in CHANNELS
    order d, o, u, r, and the surge and yaw-rate references u_des, r_des
    (B,). The initial compliance check is the caller's.
    """
    xi_d = normalize_asymmetric(e_d, cfg.funnel_d.value(t), cfg.rho_d_min)
    eps_d, viol_d = transform_clamped(xi_d)
    u_des = cfg.k_d * eps_d
    eps_o, viol_o = transform_clamped(normalize_symmetric(e_o, cfg.funnel_o.value(t)))
    r_des = -cfg.k_o * eps_o

    eps_u, viol_u = transform_clamped(normalize_symmetric(u - u_des, cfg.funnel_u.value(t)))
    eps_r, viol_r = transform_clamped(normalize_symmetric(r - r_des, cfg.funnel_r.value(t)))

    u_alpha = np.arctan(cfg.k_alpha * eps_r / np.minimum(eps_u, -cfg.eps_u_guard))
    alpha_r = np.minimum(np.maximum(u_alpha, -cfg.alpha_r_max), cfg.alpha_r_max)
    u_F = -cfg.k_u * eps_u / np.cos(alpha_r)
    F_T = np.minimum(np.maximum(u_F, 0.0), cfg.F_T_max)
    if not (np.isfinite(F_T).all() and np.isfinite(alpha_r).all()):
        raise ValueError("actuator command must be finite")
    return F_T, alpha_r, np.array((viol_d, viol_o, viol_u, viol_r)), u_des, r_des
