"""Tracking-error coordinates and funnel normalization/transformation machinery.

The four cascade channels (distance, orientation, surge, yaw-rate) all share
the same pattern: an exponentially decaying performance envelope, a
normalization of the raw error into (-1, 1), and the atanh map that blows up
at the funnel boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atanh, copysign

import numpy as np

from .dynamics import namespace
from .errors import DegenerateDistance

# Below this distance the orientation error is undefined.
EPS_DEGENERATE = 1e-9

# Where transform pulls a normalized error that left its funnel.
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


def compute_errors(p_x, p_y, psi, p_des_x, p_des_y) -> tuple:
    """The errors (e_x, e_y, e_d, e_o, psi_e) of floats, or (B,) arrays of poses, against a
    reference point: e_d >= 0 is the planar distance error, e_o = sin(psi_e) in [-1, 1] the
    orientation error, psi_e in (-pi, pi] the bearing of the reference in the body frame.
    A float pose on the reference raises DegenerateDistance (orientation undefined); for
    arrays the caller masks e_d < EPS_DEGENERATE (e_o meaningless)."""
    e_x = p_des_x - p_x
    e_y = p_des_y - p_y
    xp = namespace(e_x)
    e_d = xp.hypot(e_x, e_y)
    if xp is not np and e_d < EPS_DEGENERATE:
        raise DegenerateDistance(f"distance error {e_d:.3e} below guard {EPS_DEGENERATE:.0e}")
    # Body-frame components of the error vector: forward b_x, port-negative b_y.
    c, s = xp.cos(psi), xp.sin(psi)
    e_x_s, e_y_c = e_x * s, e_y * c
    b_x = e_x * c + e_y * s
    b_y = e_y_c - e_x_s
    psi_e = xp.atan2(-b_y, b_x)
    e_o = (e_x_s - e_y_c) / xp.maximum(e_d, EPS_DEGENERATE)
    return e_x, e_y, e_d, e_o, psi_e


def normalize_asymmetric(e_d: float, rho_d: float, rho_d_min: float) -> float:
    """Map the always-positive distance error onto (-1, 1).

    xi_d = (2 e_d - rho_d - rho_d_min) / (rho_d - rho_d_min); lands in (-1, 1)
    exactly when rho_d_min < e_d < rho_d. May return |xi| >= 1 -- the caller
    decides whether that is a violation. Floats or arrays (funnel_radii checks the radii).
    """
    return (e_d + e_d - rho_d - rho_d_min) / (rho_d - rho_d_min)


def normalize_symmetric(e: float, rho: float) -> float:
    """xi = e / rho for a symmetric funnel of radius rho > 0 (floats or arrays)."""
    return e / rho


_ONE = np.array(1.0)  # numpy compares an array faster with a 0-d array than with a float


def transform(xi):
    """Strictly increasing bijection (-1, 1) -> R: atanh(xi) = 0.5 ln((1+xi)/(1-xi)).

    xi is a float, an array or a list of floats. An |xi| >= 1, a funnel violation the caller
    flags, is pulled back to +/-(1 - 1e-9), so a simulation can continue; a NaN stays NaN."""
    if isinstance(xi, list):
        return [atanh(copysign(XI_CLAMP, v) if abs(v) >= 1.0 else v) for v in xi]
    if not isinstance(xi, np.ndarray):
        return transform([xi])[0]
    if not np.count_nonzero(abs(xi) >= _ONE):  # none to pull back: skip the where
        return np.atanh(xi)
    return np.atanh(np.where(abs(xi) >= 1.0, np.copysign(XI_CLAMP, xi), xi))
