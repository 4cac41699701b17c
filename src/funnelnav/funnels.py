"""Tracking-error coordinates and funnel normalization/transformation machinery.

The four cascade channels (distance, orientation, surge, yaw-rate) all share
the same pattern: an exponentially decaying performance envelope, a
normalization of the raw error into (-1, 1), and the atanh map that blows up
at the funnel boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistance, FunnelViolation

# Below this distance the orientation error is undefined.
EPS_DEGENERATE = 1e-9

# Clamp target when a violation is tolerated instead of raised.
XI_CLAMP = 1.0 - 1e-9


@dataclass(frozen=True)
class FunnelSpec:
    """One performance envelope rho(t) = (rho0 - rho_inf) * exp(-l t) + rho_inf.

    rho0 and rho_inf share the unit of the error they bound; l is 1/s.
    Static funnels use rho0 == rho_inf (l irrelevant) or l == 0.
    """

    rho0: float
    rho_inf: float
    l: float = 0.0

    def __post_init__(self):
        if not (self.rho0 >= self.rho_inf > 0.0):
            raise ValueError(f"need rho0 >= rho_inf > 0, got rho0={self.rho0}, rho_inf={self.rho_inf}")
        if self.l < 0.0:
            raise ValueError(f"decay rate must be >= 0, got {self.l}")

    def value(self, t):
        """rho at a time t, a float or an array of times."""
        return (self.rho0 - self.rho_inf) * np.exp(-self.l * t) + self.rho_inf

    def rate(self, t):
        """d rho / dt at a time t (float or array), nonpositive."""
        return -self.l * (self.rho0 - self.rho_inf) * np.exp(-self.l * t)

    @classmethod
    def static(cls, rho: float) -> "FunnelSpec":
        return cls(rho0=rho, rho_inf=rho, l=0.0)


@dataclass(frozen=True)
class TrackingErrors:
    """Position-error coordinates of one tick.

    e_d >= 0 is the planar distance error, e_o = sin(psi_e) in [-1, 1] the
    orientation error, psi_e in (-pi, pi] the bearing of the reference in the
    body frame.
    """

    e_x: float
    e_y: float
    e_d: float
    e_o: float
    psi_e: float


def compute_errors(p_x: float, p_y: float, psi: float, p_des_x: float, p_des_y: float) -> TrackingErrors:
    """Compute distance/orientation errors of the vessel w.r.t. a reference point.

    Raises DegenerateDistance when the reference coincides with the vessel
    position (orientation error undefined there).
    """
    e_x = p_des_x - p_x
    e_y = p_des_y - p_y
    e_d = math.hypot(e_x, e_y)
    if e_d < EPS_DEGENERATE:
        raise DegenerateDistance(f"distance error {e_d:.3e} below guard {EPS_DEGENERATE:.0e}")
    # Body-frame components of the error vector: forward b_x, port-negative b_y.
    b_x = e_x * math.cos(psi) + e_y * math.sin(psi)
    b_y = -e_x * math.sin(psi) + e_y * math.cos(psi)
    psi_e = math.atan2(-b_y, b_x)
    e_o = (e_x * math.sin(psi) - e_y * math.cos(psi)) / e_d
    return TrackingErrors(e_x=e_x, e_y=e_y, e_d=e_d, e_o=e_o, psi_e=psi_e)


def compute_errors_batch(p_x: np.ndarray, p_y: np.ndarray, psi: np.ndarray,
                         p_des_x, p_des_y):
    """compute_errors for (B,) arrays of vessel poses against one reference point.

    The reference point may be shared (floats) or one per pose ((B,) arrays).

    Returns (e_d, e_o, psi_e, degenerate). Instead of raising
    DegenerateDistance it flags the episodes whose distance error is below
    the guard; their e_o is meaningless.
    """
    e_x = p_des_x - p_x
    e_y = p_des_y - p_y
    e_d = np.hypot(e_x, e_y)
    degenerate = e_d < EPS_DEGENERATE
    c, s = np.cos(psi), np.sin(psi)
    b_x = e_x * c + e_y * s
    b_y = -e_x * s + e_y * c
    psi_e = np.arctan2(-b_y, b_x)
    e_o = (e_x * s - e_y * c) / np.where(degenerate, 1.0, e_d)
    return e_d, e_o, psi_e, degenerate


def _everywhere(cond) -> bool:
    """A comparison holds for a scalar radius, or for every entry of an array of radii."""
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


def normalize_asymmetric(e_d: float, rho_d: float, rho_d_min: float) -> float:
    """Map the always-positive distance error onto (-1, 1).

    xi_d = (2 e_d - rho_d - rho_d_min) / (rho_d - rho_d_min); lands in (-1, 1)
    exactly when rho_d_min < e_d < rho_d. May return |xi| >= 1 -- the caller
    decides whether that is a violation. Arguments may be floats or arrays.
    """
    if not (rho_d_min > 0.0 and _everywhere(rho_d > rho_d_min)):
        raise ValueError(f"need rho_d > rho_d_min > 0, got rho_d={rho_d}, rho_d_min={rho_d_min}")
    return (2.0 * e_d - rho_d - rho_d_min) / (rho_d - rho_d_min)


def normalize_symmetric(e: float, rho: float) -> float:
    """xi = e / rho for a symmetric funnel of radius rho > 0 (floats or arrays)."""
    if not _everywhere(rho > 0.0):
        raise ValueError(f"funnel value must be positive, got {rho}")
    return e / rho


def transform(
    xi: float,
    channel: str = "?",
    t: float | None = None,
    clamp: bool = False,
) -> float:
    """Strictly increasing bijection (-1, 1) -> R: atanh(xi) = 0.5 ln((1+xi)/(1-xi)).

    Raises FunnelViolation (tagged with channel and time) when |xi| >= 1.
    With clamp=True the input is pulled back to +/-(1 - 1e-9) instead, so a
    simulation can continue past a violation the caller logs separately.
    """
    if abs(xi) >= 1.0:
        if not clamp:
            raise FunnelViolation(channel, xi, t)
        xi = math.copysign(XI_CLAMP, xi)
    return math.atanh(xi)


def transform_clamped(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """transform(xi, clamp=True) over an array, plus the |xi| >= 1 violation mask."""
    violated = np.abs(xi) >= 1.0
    return np.arctanh(np.where(violated, np.copysign(XI_CLAMP, xi), xi)), violated
