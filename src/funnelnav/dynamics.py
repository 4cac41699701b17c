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

import functools
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
    sin=math.sin, cos=math.cos, atan=math.atan, atan2=math.atan2,
    hypot=math.hypot, fmod=math.fmod, isnan=math.isnan,
    minimum=min, maximum=max, where=lambda cond, a, b: a if cond else b, count_nonzero=int)


def namespace(x):
    """numpy for an array x, math and the builtins for a float."""
    return np if isinstance(x, np.ndarray) else _FLOAT_MATH


def wrap_angle(psi):
    """Wrap a float or an array of angles to [0, 2*pi)."""
    xp = namespace(psi)
    psi = xp.fmod(psi, TWO_PI)
    negative = psi < 0.0
    # psi + 2 pi rounds up to 2 pi just below 0: the outer fmod makes that 0.
    return xp.where(negative, xp.fmod(psi + TWO_PI, TWO_PI), psi) if xp.count_nonzero(negative) else psi


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


# Band of the seeded noise sinusoids [Hz].
_NOISE_FREQ_LO = 0.05
_NOISE_FREQ_HI = 0.5
_NOISE_TERMS = 4


def _quiet(bias, sin_amp, noise_amp, shape):
    """The wrench of a quiet disturbance, its bias broadcast to shape in a new array, or None
    if it is not quiet. Quiet is every sin_amp and noise_amp zero and no bias -0.0: at finite
    phases each term of the formula is then a signed zero and bias + +-0.0 == bias, so the
    bias is the formula's wrench, bit for bit, and costs no sine."""
    if (np.count_nonzero(sin_amp) or np.count_nonzero(noise_amp)
            or np.count_nonzero(np.signbit(bias[bias == 0.0]))):
        return None
    wrench = np.empty(shape)
    wrench[...] = bias
    return wrench


def _combine(bias, sin_amp, noise_amp, s):
    """The formula bias + sin_amp * s[0] + noise_amp * (s[1] + ... + s[4]) / 4 over the
    sines s[k] of its terms, in place in two new arrays, each sum in that order."""
    noise = s[1] + s[2]
    for k in range(3, 1 + _NOISE_TERMS):
        noise += s[k]
    noise *= noise_amp
    noise /= _NOISE_TERMS
    wrench = sin_amp * s[0]
    wrench += bias  # a + b == b + a in IEEE arithmetic
    wrench += noise
    return wrench


# Zero-width term arrays, the terms of no profile: a batch starts from them.
_NO_TERMS = (*[np.empty((3, 0))] * 3, *[np.empty((1 + _NOISE_TERMS, 3, 0))] * 2)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Deterministic bounded disturbance wrench tau_d(t) = [tau_x, tau_y, tau_psi].

    The "noise" component is a seeded mean of sinusoids so the signal stays
    smooth (RK4-friendly), uniformly bounded by noise_amp, and byte-for-byte
    reproducible given the seed. Frozen, so that scenario copies can share it:
    a changed field takes dataclasses.replace, whose copy draws its terms anew.
    """

    x: AxisDisturbance = AxisDisturbance()
    y: AxisDisturbance = AxisDisturbance()
    psi: AxisDisturbance = AxisDisturbance()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))  # a Python int: to_dict writes it

    @functools.cached_property
    def _terms(self) -> tuple[np.ndarray, ...]:
        """The formula's term arrays with one column, this profile's: bias, sin_amp and
        noise_amp (3, 1), and omega and phase (1 + _NOISE_TERMS, 3, 1), term 0 the sinusoid."""
        axes, rng = self.axes, np.random.default_rng(self.seed)
        # (1 + _NOISE_TERMS, 3) frequencies and phases: per axis its sinusoid's,
        # then its noise sinusoids' (drawn axis by axis, frequencies before phases).
        freqs, phases = np.array([
            [[ax.sin_freq_hz, *rng.uniform(_NOISE_FREQ_LO, _NOISE_FREQ_HI, _NOISE_TERMS)],
             [ax.sin_phase, *rng.uniform(0.0, TWO_PI, _NOISE_TERMS)]] for ax in axes]).transpose(1, 2, 0)
        amplitudes = np.array([[ax.bias, ax.sin_amp, ax.noise_amp] for ax in axes]).T
        return (*amplitudes[..., None], TWO_PI * freqs[..., None], phases[..., None])

    @property
    def axes(self) -> tuple[AxisDisturbance, AxisDisturbance, AxisDisturbance]:
        return (self.x, self.y, self.psi)

    def value(self, t):
        """The wrench at a float time as three floats, or at (n,) times as a (3, n) array."""
        times = isinstance(t, np.ndarray)
        bias, sin_amp, noise_amp, omega, phase = self._terms
        tau = _quiet(bias, sin_amp, noise_amp, (3, t.size if times else 1))
        if tau is None:
            tau = _combine(bias, sin_amp, noise_amp, np.sin(omega * t + phase))
        return tau if times else tuple(tau[:, 0].tolist())

    def reseeded(self, seed: int) -> "DisturbanceProfile":
        """Same amplitudes/frequencies, fresh noise and sinusoid phases."""
        rng = np.random.default_rng(int(seed))
        return DisturbanceProfile(*(replace(ax, sin_phase=ax.sin_phase + rng.uniform(0.0, TWO_PI))
                                    for ax in self.axes), seed)


def actuator_to_wrench(F_T, alpha_r, params: VesselParams) -> tuple[float, float, float]:
    """Map thrust [N] and rudder angle [rad] of the single rear thruster, floats or (B,)
    arrays, to (X, Y, N). The lateral force and yaw torque are rigidly coupled: Y = N / Delta_x.
    """
    xp = namespace(F_T)
    X = F_T * xp.cos(alpha_r)
    Y = F_T * xp.sin(alpha_r)
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


def _batch_constants(params: VesselParams, width: int, dt: float) -> tuple[np.ndarray, ...]:
    """A batch's (3, width) d1, d2 and mass tiles and step sizes as arrays (numpy is faster
    on those), kept on params for the last width and dt: a frozen dataclass hashes slowly."""
    cached = params.__dict__.get("_batch_constants")
    if cached is None or cached[0] != (width, dt):
        d = params.drag
        tiles = np.repeat(np.array([[d.d1_u, d.d1_v, d.d1_r], [d.d2_u, d.d2_v, d.d2_r],
                                    [params.m, params.m, params.Iz]])[:, :, None], width, axis=2)
        tiles.flags.writeable = False
        shifts = [0.5 * dt, 0.5 * dt, dt]  # of stages 2, 3 and 4 from x
        sizes = (*shifts, np.array(shifts)[:, None], 2.0, dt / 6.0)
        cached = (width, dt), (*tiles, *map(np.array, sizes))
        object.__setattr__(params, "_batch_constants", cached)
    return cached[1]


def step(x, F_T, alpha_r, params: VesselParams, tau0, tau_half, tau1, dt: float):
    """One fixed-step RK4 integration of x = [p_x, p_y, psi, u, v, r], command held.

    x is six floats (one episode; returned as a list) or a (6, B) array of B
    episodes; F_T and alpha_r are the saturated commands, floats or (B,).
    tau0, tau_half and tau1 are the disturbance wrenches at t0, t0 + dt/2 and
    t0 + dt: three floats each, or (3, B). The heading is wrapped to [0, 2*pi).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if isinstance(x[2], np.ndarray):
        W = np.array(actuator_to_wrench(F_T, alpha_r, params))
        out = _batched_rk4(x, W, params, tau0, tau_half, tau1, dt)
        if np.count_nonzero(np.isfinite(out)) < out.size:
            finite = np.isfinite(out).all(axis=0)
            raise NonFiniteState(f"RK4 produced non-finite states: {out[:, ~finite].T.tolist()}")
    else:
        (p_x, p_y, psi0, u0, v0, r0), m, Iz = x, params.m, params.Iz
        psi, u, v, r = psi0, u0, v0, r0  # of the stage: the pose's derivative reads no position
        # x + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right from -0.0, which adds exactly.
        k_x = k_y = k_psi = k_u = k_v = k_r = -0.0
        try:  # math raises on an infinite angle where numpy gives NaN
            X, Y, N = actuator_to_wrench(F_T, alpha_r, params)
            for tau, w, h in ((tau0, 1.0, 0.5 * dt), (tau_half, 2.0, 0.5 * dt),
                              (tau_half, 2.0, dt), (tau1, 1.0, dt)):
                c, s = math.cos(psi), math.sin(psi)
                f_u, f_v, f_r = lumped(u, v, r, tau, params)
                du, dv, dr = (X + f_u) / m, (Y + f_v) / m, (N + f_r) / Iz
                k_x, k_y, k_psi = k_x + w * (u * c - v * s), k_y + w * (u * s + v * c), k_psi + w * r
                k_u, k_v, k_r = k_u + w * du, k_v + w * dv, k_r + w * dr
                psi, u, v, r = psi0 + h * r, u0 + h * du, v0 + h * dv, r0 + h * dr
        except ValueError:
            raise NonFiniteState(f"RK4 met a non-finite angle: rudder {alpha_r}, heading {psi}") from None
        dt6 = dt / 6.0
        out = [p_x + dt6 * k_x, p_y + dt6 * k_y, psi0 + dt6 * k_psi,
               u0 + dt6 * k_u, v0 + dt6 * k_v, r0 + dt6 * k_r]
        if not all(map(math.isfinite, out)):
            raise NonFiniteState(f"RK4 produced a non-finite state: {out}")
    out[2] = wrap_angle(out[2])
    return out


def _batched_rk4(x, W, params: VesselParams, tau0, tau_half, tau1, dt: float) -> np.ndarray:
    """step's RK4 of a (6, B) batch under the wrench W, heading unwrapped, element by element
    as for floats: the velocities, free of the pose, step first; then the pose of all stages."""
    d1, d2, M, *shifts, stage_shifts, two, dt6 = _batch_constants(params, x.shape[1], dt)
    k, w = np.empty((4, *x.shape)), np.empty((4, 3, x.shape[1]))  # stage derivatives, velocities
    w[0] = x[3:]
    for stage, tau in enumerate((tau0, tau_half, tau_half, tau1)):
        f = tau - _drag(d1, d2, w[stage])  # lumped's rows as one (3, B) block
        if params.coriolis_on:
            u, v, r = w[stage]
            f[0] += params.m * v * r
            f[1] -= params.m * u * r
        np.divide(W + f, M, out=k[stage, 3:])
        if stage < 3:
            np.add(x[3:], shifts[stage] * k[stage, 3:], out=w[stage + 1])
    psi = np.empty((4, x.shape[1]))  # x's heading, then x's shifted by the previous stage's yaw rate
    psi[0] = x[2]
    np.add(x[2], stage_shifts * w[:3, 2], out=psi[1:])
    c, s = np.cos(psi), np.sin(psi)
    u, v = w[:, 0], w[:, 1]
    np.subtract(u * c, v * s, out=k[:, 0])
    np.add(u * s, v * c, out=k[:, 1])
    k[:, 2] = w[:, 2]
    return x + dt6 * (k[0] + two * k[1] + two * k[2] + k[3])  # summed left to right


class DisturbanceBatch:
    """The wrenches of B profiles: their term arrays side by side, so column b of a
    grid is profiles[b]'s wrench alone."""

    def __init__(self, profiles: list[DisturbanceProfile]):
        self._terms = tuple(np.concatenate(arrays, axis=-1)
                            for arrays in zip(_NO_TERMS, *(p._terms for p in profiles)))
        # Per grid step h: the rotations by omega * h * 2**j of _rotations_of.
        self._rotations: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def __getitem__(self, columns) -> "DisturbanceBatch":
        """The batch of the columns a mask or an index array selects, with its rotations."""
        batch = DisturbanceBatch([])
        batch._terms = tuple(a[..., columns] for a in self._terms)
        batch._rotations = {h: (a[..., columns], b[..., columns]) for h, (a, b) in self._rotations.items()}
        return batch

    def grid(self, t0: float, h: float, n: int) -> np.ndarray:
        """The contiguous (n, 3, B) wrenches at the times t0 + k * h, k < n, by rotation.

        Each sinusoid is anchored by a true cos and sin of omega * t0 + phase at row 0,
        so row 0 is the formula's (DisturbanceProfile.value) at t0 bit for bit and no
        error carries from one grid to the next. The rows after it follow by doubling:
        rows m to 2m - 1 are rows 0 to m - 1 turned by omega * h * m (Press et al.,
        Numerical Recipes, 3rd ed., sec. 5.4), so n = 129 takes 8 rotations. The
        rotations are computed once per step h and kept by __getitem__. Row k differs
        from the formula at t0 + k * h by rounding alone: over long-run's 180-s horizon
        by at most 2.2e-14 of an axis' |bias| + |sin_amp| + |noise_amp| (the tests bound
        it at 1e-11). A column depends on its profile alone, bit for bit. A quiet batch
        (_quiet) is its bias broadcast, with no sine or cosine.
        """
        bias, sin_amp, noise_amp, omega, phase = self._terms
        wrench = _quiet(bias, sin_amp, noise_amp, (n, *bias.shape))
        if wrench is not None:
            return wrench
        turn_a, turn_b = self._rotations_of(h, (n - 1).bit_length())
        z = np.empty((2, n, *omega.shape))  # z[:, k]: cos and sin of omega * (t0 + k * h) + phase
        angle = omega * t0 + phase
        z[0, 0], z[1, 0] = np.cos(angle), np.sin(angle)
        for j in range(len(turn_a)):
            m = 1 << j
            src, dst = z[:, :min(m, n - m)], z[:, m:2 * m]
            if n > 3 * m:  # a later rotation reads rows of dst: (c, s) -> (c pc - s ps, s pc + c ps)
                np.multiply(src, turn_a[j], out=dst)
                dst += src[::-1] * turn_b[j]
            else:  # only the sines
                np.multiply(src[0], turn_b[j, 1], out=dst[1])
                dst[1] += src[1] * turn_a[j, 1]
        return _combine(bias, sin_amp, noise_amp, z[1].swapaxes(0, 1))

    def _rotations_of(self, h: float, count: int) -> tuple[np.ndarray, np.ndarray]:
        """For j < count, with the angle omega * h * 2**j: (cos, cos) and (-sin, sin),
        each (count, 2, 1, 1 + _NOISE_TERMS, 3, B)."""
        kept = self._rotations.get(h)
        if kept is None or len(kept[0]) < count:
            angles = self._terms[3] * (h * 2.0 ** np.arange(count))[:, None, None, None]
            c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
            kept = self._rotations[h] = (np.stack((c, c), axis=1), np.stack((-s, s), axis=1))
        return kept[0][:count], kept[1][:count]
