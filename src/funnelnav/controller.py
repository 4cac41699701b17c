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
from dataclasses import dataclass

import numpy as np

from .dynamics import ActuatorCommand, VesselState, namespace
from .errors import InitialComplianceError
from .funnels import (
    FunnelSpec,
    TrackingErrors,
    compute_errors,
    normalize_asymmetric,
    normalize_symmetric,
    transform,
)

CHANNELS = ("d", "o", "u", "r")


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
    """Every intermediate cascade signal of one tick (floats, or (B,) arrays)."""

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

    def violated(self) -> np.ndarray:
        """Whether |xi| >= 1, per channel in CHANNELS order: (4,), or (4, B) for arrays."""
        return np.abs(np.array((self.xi_d, self.xi_o, self.xi_u, self.xi_r))) >= 1.0

    @property
    def violations(self) -> list[str]:
        """The channels of a float record whose normalized error left its funnel."""
        return [ch for ch, v in zip(CHANNELS, self.violated()) if v]


def cascade(u, r, e_d, e_o, t, cfg: ControllerConfig) -> tuple[ActuatorCommand, ControllerDebug]:
    """Stages 1-4 and the allocation: the saturated command and every cascade signal.

    u, r (surge, yaw rate) and e_d, e_o (distance, orientation errors) are
    floats or (B,) arrays; t is a float or one time per column. A normalized
    error that left its funnel (|xi| >= 1) is pulled back to the edge and
    reported by ControllerDebug.violated(). The rudder demand divides by
    eps_u, which the running controller only ever sees negative (thrust
    demand positive); the guard clamps it away from zero so an overspeed tick
    (eps_u >= 0) steers the rudder toward -alpha_max * sign(eps_r) while the
    thrust demand itself goes nonpositive and saturates to a clean thrust cut.
    """
    xp = namespace(e_d)
    rho_d = cfg.funnel_d.value(t)
    rho_o = cfg.funnel_o.value(t)
    xi_d = normalize_asymmetric(e_d, rho_d, cfg.rho_d_min)
    eps_d = transform(xi_d)
    u_des = cfg.k_d * eps_d
    xi_o = normalize_symmetric(e_o, rho_o)
    eps_o = transform(xi_o)
    r_des = -cfg.k_o * eps_o

    rho_u = cfg.funnel_u.value(t)
    rho_r = cfg.funnel_r.value(t)
    xi_u = normalize_symmetric(u - u_des, rho_u)
    eps_u = transform(xi_u)
    xi_r = normalize_symmetric(r - r_des, rho_r)
    eps_r = transform(xi_r)

    u_alpha = xp.atan(cfg.k_alpha * eps_r / xp.minimum(eps_u, -cfg.eps_u_guard))
    alpha_r = xp.minimum(xp.maximum(u_alpha, -cfg.alpha_r_max), cfg.alpha_r_max)
    u_F = -cfg.k_u * eps_u / xp.cos(alpha_r)
    cmd = ActuatorCommand(F_T=xp.minimum(xp.maximum(u_F, 0.0), cfg.F_T_max), alpha_r=alpha_r)
    return cmd, ControllerDebug(
        xi_d=xi_d, xi_o=xi_o, xi_u=xi_u, xi_r=xi_r, eps_d=eps_d, eps_o=eps_o, eps_u=eps_u,
        eps_r=eps_r, u_des=u_des, r_des=r_des, X_des=-cfg.k_u * eps_u, N_des=-cfg.k_r * eps_r,
        u_alpha=u_alpha, u_F=u_F, rho_d=rho_d, rho_o=rho_o, rho_u=rho_u, rho_r=rho_r)


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
        _, dbg = cascade(state.u, state.r, errors.e_d, errors.e_o, 0.0, cfg)
        for ch, e, funnel in (("u", state.u - dbg.u_des, cfg.funnel_u),
                              ("r", state.r - dbg.r_des, cfg.funnel_r)):
            rho0 = funnel.value(0.0)
            if abs(e) >= rho0:
                bad[ch] = {"value": e, "bound": rho0, "suggested_rho0": abs(e) * (1.0 + 1e-6)}

    if bad:
        raise InitialComplianceError(bad)


def control_tick(state: VesselState, p_des, t: float,
                 cfg: ControllerConfig) -> tuple[ActuatorCommand, ControllerDebug]:
    """One full cascade evaluation: errors -> references -> demands -> command.

    At t == 0 the initial funnel compliance is validated first
    (InitialComplianceError). A later funnel violation is clamped and named
    by the debug record (ControllerDebug.violations), which also holds the
    tick's tracking errors.
    """
    errors = compute_errors(state.p_x, state.p_y, state.psi, float(p_des[0]), float(p_des[1]))
    if t == 0.0:
        check_initial_compliance(errors, state, cfg)
    cmd, dbg = cascade(state.u, state.r, errors.e_d, errors.e_o, t, cfg)
    dbg.errors = errors
    return cmd, dbg
