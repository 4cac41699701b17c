"""Ground-truth simulator of the 3-DoF underactuated vessel.

State is eta = [p_x, p_y, psi] in the NED inertial frame plus body-frame
velocities nu = [u, v, r] (surge, sway, yaw rate). The kinetics are

    m u_dot   = X + f_u(x, t)
    m v_dot   = Y + f_v(x, t)
    I_z r_dot = N + f_r(x, t)

where f_* lump drag, optional Coriolis coupling and the exogenous
disturbance. The tracking controller never reads anything defined here
except the measured VesselState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .errors import NonFiniteState

TWO_PI = 2.0 * math.pi

# The functions the closed-loop kernels take from their namespace, under the
# names of the Python array API standard: numpy serves (B,) arrays as it is,
# math and the builtins serve floats at float speed.
_FLOAT_MATH = SimpleNamespace(
    sin=math.sin, cos=math.cos, atan=math.atan, atan2=math.atan2, atanh=math.atanh,
    hypot=math.hypot, copysign=math.copysign, fmod=math.fmod, isfinite=math.isfinite,
    minimum=min, maximum=max, where=lambda cond, a, b: a if cond else b, all=bool, any=bool)


def namespace(x):
    """numpy for an array x, math and the builtins for a float."""
    return np if isinstance(x, np.ndarray) else _FLOAT_MATH


def wrap_angle(psi):
    """Wrap a float or an array of angles to [0, 2*pi)."""
    xp = namespace(psi)
    psi = xp.fmod(psi, TWO_PI)
    return xp.where(psi < 0.0, psi + TWO_PI, psi)


@dataclass(frozen=True)
class VesselState:
    """Full vessel state at simulation time t."""

    p_x: float
    p_y: float
    psi: float
    u: float = 0.0
    v: float = 0.0
    r: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        vals = (self.p_x, self.p_y, self.psi, self.u, self.v, self.r, self.t)
        if not all(math.isfinite(x) for x in vals):
            raise NonFiniteState(f"non-finite vessel state: {vals}")

    @property
    def position(self) -> tuple[float, float]:
        return (self.p_x, self.p_y)

    def speed(self) -> float:
        return math.hypot(self.u, self.v)


@dataclass(frozen=True)
class DragCoeffs:
    """Linear + quadratic drag per axis; force = -(d1*w + d2*w*|w|)."""

    d1_u: float = 50.0
    d2_u: float = 25.0
    d1_v: float = 200.0
    d2_v: float = 250.0
    d1_r: float = 400.0
    d2_r: float = 300.0

    def __post_init__(self):
        for name in ("d1_u", "d2_u", "d1_v", "d2_v", "d1_r", "d2_r"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"drag coefficient {name} must be >= 0")


@dataclass(frozen=True)
class VesselParams:
    """Simulation-truth mass/inertia/actuator geometry.

    Defaults are sized for a ~4 m boat; they are declared simulation fiction,
    freely overridable per scenario, and invisible to the controller.
    """

    m: float = 300.0           # kg
    Iz: float = 400.0          # kg m^2
    Delta_x: float = 1.5       # m, thruster arm aft of CG
    drag: DragCoeffs = field(default_factory=DragCoeffs)
    coriolis_on: bool = False

    def __post_init__(self):
        if self.m <= 0.0 or self.Iz <= 0.0 or self.Delta_x <= 0.0:
            raise ValueError("m, Iz and Delta_x must be positive")


@dataclass(frozen=True)
class AxisDisturbance:
    """One axis of the exogenous disturbance: bias + sinusoid + bounded noise."""

    bias: float = 0.0
    sin_amp: float = 0.0
    sin_freq_hz: float = 0.0
    sin_phase: float = 0.0
    noise_amp: float = 0.0

    @property
    def bound(self) -> float:
        return abs(self.bias) + abs(self.sin_amp) + abs(self.noise_amp)


# Band of the seeded noise sinusoids [Hz].
_NOISE_FREQ_LO = 0.05
_NOISE_FREQ_HI = 0.5
_NOISE_TERMS = 4


def _wrench(terms, t):
    """The disturbance formula: (3, B) wrenches of B profiles' term arrays bias,
    sin_amp, noise_amp (3, B) and omega, phase (1 + _NOISE_TERMS, 3, B), term 0 the
    sinusoid. t is a float, (B,) per-column times, (n,) times when B = 1, or (n, 1, 1)
    times for (n, 3, B) wrenches with omega and phase given a time axis at 1."""
    bias, sin_amp, noise_amp, omega, phase = terms
    s = np.sin(omega * t + phase)
    noise = s[1]
    for k in range(2, 1 + _NOISE_TERMS):
        noise = noise + s[k]
    return bias + sin_amp * s[0] + noise_amp * noise / _NOISE_TERMS


# Zero-width term arrays, the terms of no profile: a batch starts from them.
_NO_TERMS = (*[np.empty((3, 0))] * 3, *[np.empty((1 + _NOISE_TERMS, 3, 0))] * 2)


class DisturbanceProfile:
    """Deterministic bounded disturbance wrench tau_d(t) = [tau_x, tau_y, tau_psi].

    The "noise" component is a seeded mean of sinusoids so the signal stays
    smooth (RK4-friendly), uniformly bounded by noise_amp, and byte-for-byte
    reproducible given the seed.
    """

    def __init__(self, x: AxisDisturbance | None = None, y: AxisDisturbance | None = None,
                 psi: AxisDisturbance | None = None, seed: int = 0):
        self.x = x or AxisDisturbance()
        self.y = y or AxisDisturbance()
        self.psi = psi or AxisDisturbance()
        self.seed = int(seed)
        axes = self.axes
        rng = np.random.default_rng(self.seed)
        # (1 + _NOISE_TERMS, 3) frequencies and phases: per axis its sinusoid's,
        # then its noise sinusoids' (drawn axis by axis, frequencies before phases).
        freqs, phases = np.array([
            [[ax.sin_freq_hz, *rng.uniform(_NOISE_FREQ_LO, _NOISE_FREQ_HI, _NOISE_TERMS)],
             [ax.sin_phase, *rng.uniform(0.0, TWO_PI, _NOISE_TERMS)]] for ax in axes]).transpose(1, 2, 0)
        amplitudes = np.array([[ax.bias, ax.sin_amp, ax.noise_amp] for ax in axes]).T
        # _wrench's term arrays with one column, this profile's.
        self._terms = (*amplitudes[..., None], TWO_PI * freqs[..., None], phases[..., None])

    @property
    def axes(self) -> tuple[AxisDisturbance, AxisDisturbance, AxisDisturbance]:
        return (self.x, self.y, self.psi)

    @property
    def bounds(self) -> tuple[float, float, float]:
        """Declared per-axis bounds |tau_d,i(t)| never exceeds."""
        return (self.x.bound, self.y.bound, self.psi.bound)

    def value(self, t):
        """The wrench at a float time as three floats, or at (n,) times as a (3, n) array."""
        tau = _wrench(self._terms, t)
        return tau if isinstance(t, np.ndarray) else tuple(tau[:, 0].tolist())

    def reseeded(self, seed: int) -> "DisturbanceProfile":
        """Same amplitudes/frequencies, fresh noise and sinusoid phases."""
        rng = np.random.default_rng(int(seed))
        shifted = [
            replace(ax, sin_phase=ax.sin_phase + rng.uniform(0.0, TWO_PI))
            for ax in self.axes
        ]
        return DisturbanceProfile(x=shifted[0], y=shifted[1], psi=shifted[2], seed=int(seed))

    @classmethod
    def zero(cls) -> "DisturbanceProfile":
        return cls()


@dataclass(frozen=True)
class ActuatorCommand:
    """Thrust [N] and rudder angle [rad], floats or (B,) arrays; thrust is never negative."""

    F_T: float
    alpha_r: float

    def __post_init__(self):
        xp = namespace(self.F_T)
        if not xp.all((0.0 <= self.F_T) & (self.F_T < math.inf) & xp.isfinite(self.alpha_r)):
            raise ValueError("actuator command needs a finite thrust >= 0 and a finite rudder "
                             f"angle, got F_T={self.F_T}, alpha_r={self.alpha_r}")


def actuator_to_wrench(cmd: ActuatorCommand, params: VesselParams) -> tuple[float, float, float]:
    """Map (thrust, rudder) of the single rear thruster to (X, Y, N).

    The lateral force and yaw torque are rigidly coupled: Y = N / Delta_x.
    """
    xp = namespace(cmd.F_T)
    X = cmd.F_T * xp.cos(cmd.alpha_r)
    Y = cmd.F_T * xp.sin(cmd.alpha_r)
    N = params.Delta_x * Y
    return (X, Y, N)


def _drag(d1, d2, w):
    """The drag d1*w + d2*w*|w| of one axis, or of a (3, B) block with coefficient rows."""
    return d1 * w + d2 * w * abs(w)


def lumped(u, v, r, tau, params: VesselParams):
    """Drag, optional Coriolis coupling and disturbance wrench tau as (f_u, f_v, f_r).

    u, v, r and the rows of tau may be floats or (B,) arrays alike.
    """
    d = params.drag
    f_u = tau[0] - _drag(d.d1_u, d.d2_u, u)
    f_v = tau[1] - _drag(d.d1_v, d.d2_v, v)
    f_r = tau[2] - _drag(d.d1_r, d.d2_r, r)
    if params.coriolis_on:
        f_u += params.m * v * r
        f_v -= params.m * u * r
    return (f_u, f_v, f_r)


def lumped_forces(state: VesselState, params: VesselParams, dist: DisturbanceProfile,
                  t: float | None = None) -> tuple[float, float, float]:
    """The unknown-to-the-controller forces (f_u, f_v, f_r) at (state, t)."""
    tau = dist.value(state.t if t is None else t)
    return lumped(state.u, state.v, state.r, tau, params)


def step(x, F_T, alpha_r, params: VesselParams, tau0, tau_half, tau1, dt: float):
    """One fixed-step RK4 integration of x = [p_x, p_y, psi, u, v, r], command held.

    x is six floats (one episode; returned as a list) or a (6, B) array of B
    episodes; F_T and alpha_r are the saturated commands, floats or (B,).
    tau0, tau_half and tau1 are the disturbance wrenches at t0, t0 + dt/2 and
    t0 + dt: three floats each, or (3, B). The heading is wrapped to [0, 2*pi).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    X, Y, N = actuator_to_wrench(SimpleNamespace(F_T=F_T, alpha_r=alpha_r), params)
    xp = namespace(x[2])
    stacked = xp is np
    if stacked:
        # The kinetic rows as one (3, B) block: lumped's operations, row by row.
        d, W = params.drag, np.array((X, Y, N))
        coeffs = np.array([[d.d1_u, d.d1_v, d.d1_r], [d.d2_u, d.d2_v, d.d2_r],
                           [params.m, params.m, params.Iz]])
        # Tiled to (3, B): numpy is faster on equal shapes than on broadcast (3, 1) columns.
        d1, d2, M = np.repeat(coeffs[:, :, None], x.shape[1], axis=2)

    def derivative(y, tau):
        _p_x, _p_y, psi, u, v, r = y
        c, s = xp.cos(psi), xp.sin(psi)
        if not stacked:
            f_u, f_v, f_r = lumped(u, v, r, tau, params)
            return (u * c - v * s, u * s + v * c, r,
                    (X + f_u) / params.m, (Y + f_v) / params.m, (N + f_r) / params.Iz)
        k = np.empty(y.shape)
        np.subtract(u * c, v * s, out=k[0])
        np.add(u * s, v * c, out=k[1])
        k[2] = r
        f = tau - _drag(d1, d2, y[3:])
        if params.coriolis_on:
            f[0] += params.m * v * r
            f[1] -= params.m * u * r
        np.divide(W + f, M, out=k[3:])
        return k

    def shift(y, c, k):
        """y + c k: one numpy operation per term for a batch, float by float for one episode."""
        return y + c * k if stacked else [a + c * b for a, b in zip(y, k)]

    k1 = derivative(x, tau0)
    k2 = derivative(shift(x, 0.5 * dt, k1), tau_half)
    k3 = derivative(shift(x, 0.5 * dt, k2), tau_half)
    k4 = derivative(shift(x, dt, k3), tau1)
    # x + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right.
    out = shift(x, dt / 6.0, shift(shift(shift(k1, 2.0, k2), 2.0, k3), 1.0, k4))
    if stacked:
        if not np.isfinite(out).all():
            finite = np.isfinite(out).all(axis=0)
            raise NonFiniteState(f"RK4 produced non-finite states: {out[:, ~finite].T.tolist()}")
    elif not all(map(math.isfinite, out)):
        raise NonFiniteState(f"RK4 produced a non-finite state: {out}")
    out[2] = wrap_angle(out[2])
    return out


class DisturbanceBatch:
    """The (3, B) wrenches of B profiles: their term arrays side by side, so column b
    is profiles[b].value through the one formula, bit for bit."""

    def __init__(self, profiles: list[DisturbanceProfile]):
        self._terms = tuple(np.concatenate(arrays, axis=-1)
                            for arrays in zip(_NO_TERMS, *(p._terms for p in profiles)))

    def value(self, t) -> np.ndarray:
        """The (3, B) wrenches at a float time or at (B,) per-column times."""
        return _wrench(self._terms, t)

    def table(self, ts: np.ndarray) -> np.ndarray:
        """The contiguous (n, 3, B) wrenches at (n,) times: row i is value(ts[i])."""
        bias, sin_amp, noise_amp, omega, phase = self._terms
        return _wrench((bias, sin_amp, noise_amp, omega[:, None], phase[:, None]), ts[:, None, None])
