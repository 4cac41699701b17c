"""Four-stage funnel-tracking cascade with thrust/rudder allocation.

The controller is parameter-ignorant: it consumes only the measured
VesselState and the reference position. Stage 1 turns the distance error
into a surge-velocity reference, stage 2 the orientation error into a
yaw-rate reference, stages 3/4 turn the velocity errors into force/torque
demands, and the allocation maps those onto the saturated thrust and rudder
of the single rear thruster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import VesselState, namespace
from .errors import InitialComplianceError
from .funnels import FunnelSpec, compute_errors, normalize_asymmetric, normalize_symmetric, transform

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
        if not 0.0 < self.F_T_max < math.inf:
            raise ValueError("thrust limit must be positive and finite")
        if self.eps_u_guard <= 0.0:
            raise ValueError("eps_u_guard must be positive")
        if self.delta_x_nominal <= 0.0:
            raise ValueError("delta_x_nominal must be positive")

    @property
    def k_alpha(self) -> float:
        return self.k_r / (self.delta_x_nominal * self.k_u)

    @functools.cached_property
    def _constants(self) -> tuple[SimpleNamespace, SimpleNamespace]:
        """stages' constants as floats, then as 0-d arrays: numpy is faster on those."""
        c = dict(k_d=self.k_d, k_alpha=self.k_alpha, neg_k_o=-self.k_o, neg_k_u=-self.k_u,
                 neg_k_r=-self.k_r, neg_guard=-self.eps_u_guard, alpha_max=self.alpha_r_max,
                 neg_alpha_max=-self.alpha_r_max, F_T_max=self.F_T_max, zero=0.0)
        return SimpleNamespace(**c), SimpleNamespace(**{k: np.array(v) for k, v in c.items()})


def violated(xi):
    """Whether a normalized error left its funnel, |xi| >= 1, elementwise."""
    return np.abs(xi) >= 1.0


def funnel_radii(cfg: ControllerConfig, t) -> np.ndarray:
    """The funnel radii in CHANNELS order at a time, (4,), or at (n,) times, (4, n), checked
    once for all the times against the normalizations' domain rho_d > rho_d_min, rho > 0."""
    rho = np.array([f.value(t) for f in (cfg.funnel_d, cfg.funnel_o, cfg.funnel_u, cfg.funnel_r)])
    if not (np.all(rho[0] > cfg.rho_d_min) and np.all(rho > 0.0)):
        raise ValueError(f"need rho_d > rho_d_min and positive funnel radii, got {rho.tolist()}")
    return rho


def stages(u, r, e_d, e_o, rho, cfg: ControllerConfig, xi=None):
    """Stages 1-4 and the allocation at one tick's funnel radii: (F_T, alpha_r, signals).

    u, r, e_d, e_o and the funnel_radii rho are floats or (B,) arrays. The normalized errors
    go to xi (for arrays (4, B), by default new): one transform per channel pair pulls an
    |xi| >= 1 back to the funnel edge. The rudder demand divides by eps_u clamped below zero:
    an overspeed tick steers toward -alpha_max * sign(eps_r) and cuts the thrust cleanly.
    signals are (xi, eps, u_des, r_des, X_des, N_des, u_alpha, u_F), xi and eps by channel.
    """
    xp = namespace(e_d)
    c = cfg._constants[xp is np]
    rho_d, rho_o, rho_u, rho_r = rho
    if xi is None:
        xi = np.empty((4, len(e_d))) if xp is np else [0.0] * 4
    xi[0] = normalize_asymmetric(e_d, rho_d, cfg.rho_d_min)
    xi[1] = normalize_symmetric(e_o, rho_o)
    eps_d, eps_o = transform(xi[0:2])
    u_des = c.k_d * eps_d
    r_des = c.neg_k_o * eps_o
    xi[2] = normalize_symmetric(u - u_des, rho_u)
    xi[3] = normalize_symmetric(r - r_des, rho_r)
    eps_u, eps_r = transform(xi[2:4])

    X_des, N_des = c.neg_k_u * eps_u, c.neg_k_r * eps_r
    u_alpha = xp.atan(c.k_alpha * eps_r / xp.minimum(eps_u, c.neg_guard))
    alpha_r = xp.minimum(xp.maximum(u_alpha, c.neg_alpha_max), c.alpha_max)
    u_F = X_des / xp.cos(alpha_r)
    F_T = xp.minimum(xp.maximum(u_F, c.zero), c.F_T_max)
    # Past the clips only NaN is invalid, and a NaN rudder angle makes F_T NaN too.
    if xp.count_nonzero(xp.isnan(F_T)):
        raise ValueError(f"the cascade produced a NaN thrust: F_T={F_T}, alpha_r={alpha_r}")
    return F_T, alpha_r, (xi, (eps_d, eps_o, eps_u, eps_r), u_des, r_des, X_des, N_des, u_alpha, u_F)


def check_initial_compliance(errors: tuple, state: VesselState, cfg: ControllerConfig) -> None:
    """Validate the t=0 funnel preconditions of compute_errors' errors; raise with
    per-channel diagnostics.

    For each violated channel the diagnostics carry the minimal funnel radius
    rho0 that would restore compliance (None when no inflation can, e.g. a
    distance error at or below rho_d_min).
    """
    _e_x, _e_y, e_d, e_o, psi_e = errors
    bad: dict[str, dict] = {}
    rho = funnel_radii(cfg, 0.0)
    rho_d0, rho_o0, rho_u0, rho_r0 = rho
    if not (cfg.rho_d_min < e_d < rho_d0):
        suggestion = e_d * (1.0 + 1e-6) if e_d > cfg.rho_d_min else None
        bound = rho_d0 if e_d >= rho_d0 else cfg.rho_d_min
        bad["d"] = {"value": e_d, "bound": bound, "suggested_rho0": suggestion}

    if abs(e_o) >= rho_o0:
        needed = abs(e_o) * (1.0 + 1e-6)
        bad["o"] = {"value": e_o, "bound": rho_o0,
                    "suggested_rho0": needed if needed < 1.0 else None}

    if abs(psi_e) >= math.pi / 2.0:
        bad["psi_e"] = {"value": psi_e, "bound": math.pi / 2.0, "suggested_rho0": None}

    if "d" not in bad and "o" not in bad:
        # Velocity-channel checks need the stage-1 references, well-defined
        # only when the position channels comply.
        _F_T, _alpha_r, (_xi, _eps, u_des, r_des, *_) = stages(state.u, state.r, e_d, e_o, rho, cfg)
        for ch, e, rho0 in (("u", state.u - u_des, rho_u0), ("r", state.r - r_des, rho_r0)):
            if abs(e) >= rho0:
                bad[ch] = {"value": e, "bound": rho0, "suggested_rho0": abs(e) * (1.0 + 1e-6)}

    if bad:
        raise InitialComplianceError(bad)


def control_tick(state: VesselState, p_des, t: float, cfg: ControllerConfig) -> tuple:
    """One full cascade evaluation, the one-tick entry point: errors -> references ->
    demands -> command, stages' (F_T, alpha_r, signals) at the funnel radii of time t. At
    t == 0 the initial funnel compliance is validated first (InitialComplianceError)."""
    errors = compute_errors(state.p_x, state.p_y, state.psi, float(p_des[0]), float(p_des[1]))
    if t == 0.0:
        check_initial_compliance(errors, state, cfg)
    return stages(state.u, state.r, errors[2], errors[3], funnel_radii(cfg, t), cfg)
