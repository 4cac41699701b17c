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
    u: float
    v: float
    r: float
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
        rng = np.random.default_rng(self.seed)
        self._noise = []
        for _ in range(3):
            freqs = rng.uniform(_NOISE_FREQ_LO, _NOISE_FREQ_HI, _NOISE_TERMS)
            phases = rng.uniform(0.0, TWO_PI, _NOISE_TERMS)
            self._noise.append((freqs, phases))

    @property
    def axes(self) -> tuple[AxisDisturbance, AxisDisturbance, AxisDisturbance]:
        return (self.x, self.y, self.psi)

    @property
    def bounds(self) -> tuple[float, float, float]:
        """Declared per-axis bounds |tau_d,i(t)| never exceeds."""
        return (self.x.bound, self.y.bound, self.psi.bound)

    def _axis_value(self, idx: int, axis: AxisDisturbance, t: float) -> float:
        val = axis.bias
        if axis.sin_amp != 0.0:
            val += axis.sin_amp * math.sin(TWO_PI * axis.sin_freq_hz * t + axis.sin_phase)
        if axis.noise_amp != 0.0:
            freqs, phases = self._noise[idx]
            s = 0.0
            for k in range(_NOISE_TERMS):
                s += math.sin(TWO_PI * freqs[k] * t + phases[k])
            val += axis.noise_amp * s / _NOISE_TERMS
        return val

    def value(self, t: float) -> tuple[float, float, float]:
        return (
            self._axis_value(0, self.x, t),
            self._axis_value(1, self.y, t),
            self._axis_value(2, self.psi, t),
        )

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

    @classmethod
    def clamped(cls, u_F: float, u_alpha: float, F_T_max: float, alpha_r_max: float) -> "ActuatorCommand":
        """Construct with bit-exact saturation to [0, F_T_max] x [-alpha_r_max, alpha_r_max]."""
        xp = namespace(u_F)
        alpha = xp.minimum(xp.maximum(u_alpha, -alpha_r_max), alpha_r_max)
        thrust = xp.minimum(xp.maximum(u_F, 0.0), F_T_max)
        return cls(F_T=thrust, alpha_r=alpha)


def actuator_to_wrench(cmd: ActuatorCommand, params: VesselParams) -> tuple[float, float, float]:
    """Map (thrust, rudder) of the single rear thruster to (X, Y, N).

    The lateral force and yaw torque are rigidly coupled: Y = N / Delta_x.
    """
    xp = namespace(cmd.F_T)
    X = cmd.F_T * xp.cos(cmd.alpha_r)
    Y = cmd.F_T * xp.sin(cmd.alpha_r)
    N = params.Delta_x * Y
    return (X, Y, N)


def rotation_matrix(psi: float) -> np.ndarray:
    """R(psi) in SO(3) rotating body-frame [u, v, r] rates into eta_dot."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def lumped(u, v, r, tau, params: VesselParams):
    """Drag, optional Coriolis coupling and disturbance wrench tau as (f_u, f_v, f_r).

    Plain arithmetic, so u, v, r and the rows of tau may be floats or (B,)
    arrays alike, as the one RK4 for both needs.
    """
    d = params.drag
    f_u = tau[0] - (d.d1_u * u + d.d2_u * u * abs(u))
    f_v = tau[1] - (d.d1_v * v + d.d2_v * v * abs(v))
    f_r = tau[2] - (d.d1_r * r + d.d2_r * r * abs(r))
    if params.coriolis_on:
        f_u += params.m * v * r
        f_v -= params.m * u * r
    return (f_u, f_v, f_r)


def lumped_forces(state: VesselState, params: VesselParams, dist: DisturbanceProfile,
                  t: float | None = None) -> tuple[float, float, float]:
    """The unknown-to-the-controller forces (f_u, f_v, f_r) at (state, t)."""
    tau = dist.value(state.t if t is None else t)
    return lumped(state.u, state.v, state.r, tau, params)


def _rk4(x, wrench, params: VesselParams, tau0, tau_half, tau1, h: float):
    """RK4 step of x = [p_x, p_y, psi, u, v, r] (six floats or a (6, B) array), wrench held.

    tau0, tau_half and tau1 are the disturbance wrenches at t0, t0 + h/2 and t0 + h."""
    X, Y, N = wrench
    xp = namespace(x[2])
    stacked = xp is np

    def derivative(y, tau):
        _p_x, _p_y, psi, u, v, r = y
        c, s = xp.cos(psi), xp.sin(psi)
        f_u, f_v, f_r = lumped(u, v, r, tau, params)
        k = (u * c - v * s, u * s + v * c, r,
             (X + f_u) / params.m, (Y + f_v) / params.m, (N + f_r) / params.Iz)
        return np.array(k) if stacked else k

    def shift(y, c, k):
        """y + c k: one numpy operation per term for a batch, float by float for one episode."""
        return y + c * k if stacked else [a + c * b for a, b in zip(y, k)]

    k1 = derivative(x, tau0)
    k2 = derivative(shift(x, 0.5 * h, k1), tau_half)
    k3 = derivative(shift(x, 0.5 * h, k2), tau_half)
    k4 = derivative(shift(x, h, k3), tau1)
    # x + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right.
    return shift(x, h / 6.0, shift(shift(shift(k1, 2.0, k2), 2.0, k3), 1.0, k4))


def step(state: VesselState, cmd: ActuatorCommand, params: VesselParams,
         dist: DisturbanceProfile, dt: float) -> VesselState:
    """One fixed-step RK4 integration with the command held over the step."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    t0 = state.t
    out = _rk4((state.p_x, state.p_y, state.psi, state.u, state.v, state.r),
               actuator_to_wrench(cmd, params), params,
               dist.value(t0), dist.value(t0 + 0.5 * dt), dist.value(t0 + dt), dt)
    if not all(math.isfinite(x) for x in out):
        raise NonFiniteState(f"RK4 produced non-finite state at t={t0}: {out}")
    return VesselState(
        p_x=out[0], p_y=out[1], psi=wrap_angle(out[2]),
        u=out[3], v=out[4], r=out[5], t=t0 + dt,
    )


class DisturbanceBatch:
    """The wrenches of B disturbance profiles at one time, as a (3, B) array.

    Column b repeats DisturbanceProfile.value of profiles[b] term by term, in
    the same order, so the two agree up to the last bit of a sine.
    """

    def __init__(self, profiles: list[DisturbanceProfile]):
        axes = [p.axes for p in profiles]
        self.bias = np.array([[ax[a].bias for ax in axes] for a in range(3)])
        self.sin_amp = np.array([[ax[a].sin_amp for ax in axes] for a in range(3)])
        self.noise_amp = np.array([[ax[a].noise_amp for ax in axes] for a in range(3)])
        # Term 0 is the sinusoid, terms 1.. the seeded noise sinusoids; each
        # term's (3, B) block is contiguous.
        self._omega = np.empty((1 + _NOISE_TERMS, 3, len(profiles)))
        self._phase = np.empty_like(self._omega)
        for b, p in enumerate(profiles):
            for a, axis in enumerate(p.axes):
                freqs, phases = p._noise[a]
                self._omega[0, a, b] = TWO_PI * axis.sin_freq_hz
                self._omega[1:, a, b] = TWO_PI * freqs
                self._phase[0, a, b] = axis.sin_phase
                self._phase[1:, a, b] = phases

    def value(self, t: float) -> np.ndarray:
        s = np.sin(self._omega * t + self._phase)
        noise = s[1]
        for k in range(2, 1 + _NOISE_TERMS):
            noise = noise + s[k]
        return self.bias + self.sin_amp * s[0] + self.noise_amp * noise / _NOISE_TERMS


def step_batch(x: np.ndarray, F_T: np.ndarray, alpha_r: np.ndarray, params: VesselParams,
               tau0: np.ndarray, tau_half: np.ndarray, tau1: np.ndarray, dt: float) -> np.ndarray:
    """step for B episodes at once: x is the (6, B) state [p_x, p_y, psi, u, v, r].

    tau0, tau_half and tau1 are the (3, B) disturbance wrenches at the RK4
    stage times t0, t0 + dt/2 and t0 + dt; the commands are held over the
    step and the heading is wrapped to [0, 2*pi) as in step.
    """
    # The commands come saturated and checked from control_batch.
    wrench = actuator_to_wrench(SimpleNamespace(F_T=F_T, alpha_r=alpha_r), params)
    out = _rk4(x, wrench, params, tau0, tau_half, tau1, dt)
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        raise NonFiniteState(f"RK4 produced non-finite states: {out[:, ~finite].T.tolist()}")
    out[2] = wrap_angle(out[2])
    return out
