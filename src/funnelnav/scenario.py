"""Scenario definition, JSON (de)serialization and built-in scenario factories.

A scenario bundles everything one closed-loop episode needs: the workspace
with obstacles, the vessel truth model and disturbance, the controller
configuration, the planner/optimizer settings and the simulation horizon.
The JSON schema mirrors the dataclasses field-for-field; units are SI
(meters, seconds, newtons, radians) throughout.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bspline import SplineTrajectory
from .controller import ControllerConfig
from .dynamics import AxisDisturbance, DisturbanceProfile, DragCoeffs, VesselParams, VesselState
from .errors import FunnelNavError, InvalidScenario
from .funnels import FunnelSpec
from .geometry import ConvexPolygon, Workspace, point_free
from .rrt import RrtParams


@dataclass
class TrajOptSettings:
    """Solver knobs carried by the scenario; see trajopt.TrajOptProblem."""

    w1: float = 1.0
    w2: float = 0.1
    w3: float = 0.05
    dt_bounds: tuple[float, float] = (0.05, 60.0)
    sep_margin: float = 0.01
    max_outer: int = 200
    tol_outer: float = 1e-6
    tol_residual: float = 1e-8


def _is_number(value) -> bool:
    """A finite int or float. Python's json reads NaN and Infinity, which would slip
    through the fields' range checks (nan <= 0.0 is false)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


# The leaves of a scenario dict that need not be numbers, by key.
_LEAF_CHECKS = {
    "name": lambda v: isinstance(v, str),
    **dict.fromkeys(("coriolis_on", "shortcut"), lambda v: isinstance(v, bool)),
    **dict.fromkeys(("step_size", "goal_radius"), lambda v: v is None or _is_number(v)),
    "reference_lead": lambda v: v == "auto" or _is_number(v),
}


def _check_leaves(node, key=None) -> None:
    """TypeError unless every leaf under node passes its key's check in
    _LEAF_CHECKS, or else is a number; a list's entries fall under its key."""
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else ((key, v) for v in node):
            _check_leaves(v, k)
    elif not _LEAF_CHECKS.get(key, _is_number)(node):
        raise TypeError(f"{key!r} cannot be {node!r}")


@dataclass
class Scenario:
    workspace: Workspace
    start: VesselState
    goal: tuple[float, float]
    goal_radius: float
    vessel: VesselParams
    disturbance: DisturbanceProfile
    controller: ControllerConfig
    v_max: float
    a_max: float
    planner: RrtParams
    trajopt: TrajOptSettings
    sim_dt: float = 0.01
    horizon: float = 120.0
    seed: int = 0
    footprint_radius: float = 0.0
    min_thrust_floor: float = 1.0        # declared operational floor F_T for the audit
    sway_bound: float = 2.0              # declared |v| box for feasibility sampling
    reference_lead: float | str = "auto"  # clock offset of the reference, or "auto"
    goal_speed_threshold: float = 0.2
    planner_margin_frac: float = 0.2     # extra inflation the planner keeps vs. the spline
    name: str = "scenario"

    def __post_init__(self):
        if self.sim_dt <= 0.0 or self.horizon <= 0.0:
            raise ValueError("sim_dt and horizon must be positive")
        if self.goal_radius <= 0.0:
            raise ValueError("goal radius must be positive")
        if self.v_max <= 0.0 or self.a_max <= 0.0:
            raise ValueError("kinodynamic bounds must be positive")
        if self.footprint_radius < 0.0:
            raise ValueError("footprint radius must be >= 0")

    def validate(self) -> None:
        """Scenario-level invariants beyond per-field checks."""
        if not point_free(self.start.position, self.workspace):
            raise ValueError("start position not in the inflated free space")
        if not point_free(self.goal, self.workspace):
            raise ValueError("goal position not in the inflated free space")
        rho_d0 = self.controller.funnel_d.value(0.0)
        if rho_d0 + self.footprint_radius >= self.workspace.clearance:
            raise ValueError(
                f"distance funnel radius {rho_d0} + footprint {self.footprint_radius} "
                f"must stay below the workspace clearance {self.workspace.clearance}"
            )

    def planner_workspace(self) -> Workspace:
        """Workspace with extra inflation so taut paths leave hull slack downstream."""
        extra = 1.0 + self.planner_margin_frac
        return Workspace(
            bounds=self.workspace.bounds,
            obstacles=self.workspace.obstacles,
            clearance=self.workspace.clearance * extra,
            inflation_k_gon=self.workspace.inflation_k_gon,
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        ws = self.workspace
        ctl = self.controller
        return {
            "name": self.name,
            "seed": self.seed,
            "workspace": {
                "bounds": list(ws.bounds),
                "clearance": ws.clearance,
                "inflation_k_gon": ws.inflation_k_gon,
                "obstacles": [o.vertices.tolist() for o in ws.obstacles],
            },
            "start": {
                "p_x": self.start.p_x, "p_y": self.start.p_y, "psi": self.start.psi,
                "u": self.start.u, "v": self.start.v, "r": self.start.r,
            },
            "goal": {"position": list(self.goal), "radius": self.goal_radius,
                     "speed_threshold": self.goal_speed_threshold},
            "vessel": {
                "m": self.vessel.m, "Iz": self.vessel.Iz, "Delta_x": self.vessel.Delta_x,
                "coriolis_on": self.vessel.coriolis_on,
                "drag": {
                    "d1_u": self.vessel.drag.d1_u, "d2_u": self.vessel.drag.d2_u,
                    "d1_v": self.vessel.drag.d1_v, "d2_v": self.vessel.drag.d2_v,
                    "d1_r": self.vessel.drag.d1_r, "d2_r": self.vessel.drag.d2_r,
                },
            },
            "disturbance": {
                "seed": self.disturbance.seed,
                "axes": {
                    name: {
                        "bias": ax.bias, "sin_amp": ax.sin_amp,
                        "sin_freq_hz": ax.sin_freq_hz, "sin_phase": ax.sin_phase,
                        "noise_amp": ax.noise_amp,
                    }
                    for name, ax in zip(("x", "y", "psi"), self.disturbance.axes)
                },
            },
            "controller": {
                "k_d": ctl.k_d, "k_u": ctl.k_u, "k_o": ctl.k_o, "k_r": ctl.k_r,
                "rho_d_min": ctl.rho_d_min,
                "F_T_max": ctl.F_T_max, "alpha_r_max": ctl.alpha_r_max,
                "eps_u_guard": ctl.eps_u_guard, "delta_x_nominal": ctl.delta_x_nominal,
                "funnels": {
                    name: {"rho0": f.rho0, "rho_inf": f.rho_inf, "l": f.l}
                    for name, f in (("d", ctl.funnel_d), ("u", ctl.funnel_u),
                                    ("o", ctl.funnel_o), ("r", ctl.funnel_r))
                },
            },
            "kinodynamic": {"v_max": self.v_max, "a_max": self.a_max},
            "planner": {
                "step_size": self.planner.step_size, "goal_bias": self.planner.goal_bias,
                "max_iters": self.planner.max_iters, "goal_radius": self.planner.goal_radius,
                "seed": self.planner.seed, "shortcut": self.planner.shortcut,
            },
            "trajopt": {
                "w1": self.trajopt.w1, "w2": self.trajopt.w2, "w3": self.trajopt.w3,
                "dt_bounds": list(self.trajopt.dt_bounds),
                "sep_margin": self.trajopt.sep_margin,
                "max_outer": self.trajopt.max_outer,
                "tol_outer": self.trajopt.tol_outer,
                "tol_residual": self.trajopt.tol_residual,
            },
            "sim": {"dt": self.sim_dt, "horizon": self.horizon},
            "footprint_radius": self.footprint_radius,
            "min_thrust_floor": self.min_thrust_floor,
            "sway_bound": self.sway_bound,
            "reference_lead": self.reference_lead,
            "planner_margin_frac": self.planner_margin_frac,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario of a JSON dict; InvalidScenario on a missing key, a value
        of the wrong type (see _check_leaves) or a value a field rejects."""
        try:
            _check_leaves(data)
            return cls._from_checked_dict(data)
        except (AttributeError, KeyError, TypeError, ValueError, FunnelNavError) as exc:
            raise InvalidScenario(f"{type(exc).__name__}: {exc}") from exc

    @classmethod
    def _from_checked_dict(cls, data: dict) -> "Scenario":
        ws_d = data["workspace"]
        workspace = Workspace(
            bounds=tuple(ws_d["bounds"]),
            obstacles=[ConvexPolygon(np.array(v)) for v in ws_d.get("obstacles", [])],
            clearance=float(ws_d["clearance"]),
            inflation_k_gon=int(ws_d.get("inflation_k_gon", 16)),
        )
        s = data["start"]
        start = VesselState(p_x=s["p_x"], p_y=s["p_y"], psi=s["psi"],
                            u=s.get("u", 0.0), v=s.get("v", 0.0), r=s.get("r", 0.0), t=0.0)
        v_d = data["vessel"]
        vessel = VesselParams(
            m=v_d["m"], Iz=v_d["Iz"], Delta_x=v_d["Delta_x"],
            coriolis_on=bool(v_d.get("coriolis_on", False)),
            drag=DragCoeffs(**v_d.get("drag", {})),
        )
        d_d = data.get("disturbance", {"seed": 0, "axes": {}})
        axes = {name: AxisDisturbance(**spec) for name, spec in d_d.get("axes", {}).items()}
        disturbance = DisturbanceProfile(
            x=axes.get("x"), y=axes.get("y"), psi=axes.get("psi"),
            seed=int(d_d.get("seed", 0)),
        )
        c_d = data["controller"]
        funnels = {name: FunnelSpec(**spec) for name, spec in c_d["funnels"].items()}
        controller = ControllerConfig(
            k_d=c_d["k_d"], k_u=c_d["k_u"], k_o=c_d["k_o"], k_r=c_d["k_r"],
            funnel_d=funnels["d"], funnel_u=funnels["u"],
            funnel_o=funnels["o"], funnel_r=funnels["r"],
            rho_d_min=c_d["rho_d_min"], F_T_max=c_d["F_T_max"],
            alpha_r_max=c_d["alpha_r_max"],
            eps_u_guard=c_d.get("eps_u_guard", 1e-6),
            delta_x_nominal=c_d.get("delta_x_nominal", 1.0),
        )
        p_d = data.get("planner", {})
        planner = RrtParams(
            step_size=p_d.get("step_size"), goal_bias=p_d.get("goal_bias", 0.1),
            max_iters=p_d.get("max_iters", 20000), goal_radius=p_d.get("goal_radius"),
            seed=p_d.get("seed", data.get("seed", 0)), shortcut=p_d.get("shortcut", True),
        )
        t_d = data.get("trajopt", {})
        trajopt = TrajOptSettings(
            w1=t_d.get("w1", 1.0), w2=t_d.get("w2", 0.1), w3=t_d.get("w3", 0.05),
            dt_bounds=tuple(t_d.get("dt_bounds", (0.05, 60.0))),
            sep_margin=t_d.get("sep_margin", 0.01),
            max_outer=int(t_d.get("max_outer", 200)),
            tol_outer=t_d.get("tol_outer", 1e-6),
            tol_residual=t_d.get("tol_residual", 1e-8),
        )
        goal_d = data["goal"]
        sim = data.get("sim", {})
        return cls(
            workspace=workspace, start=start,
            goal=tuple(goal_d["position"]), goal_radius=float(goal_d["radius"]),
            vessel=vessel, disturbance=disturbance, controller=controller,
            v_max=data["kinodynamic"]["v_max"], a_max=data["kinodynamic"]["a_max"],
            planner=planner, trajopt=trajopt,
            sim_dt=float(sim.get("dt", 0.01)), horizon=float(sim.get("horizon", 120.0)),
            seed=int(data.get("seed", 0)),
            footprint_radius=float(data.get("footprint_radius", 0.0)),
            min_thrust_floor=float(data.get("min_thrust_floor", 1.0)),
            sway_bound=float(data.get("sway_bound", 2.0)),
            reference_lead=data.get("reference_lead", "auto"),
            goal_speed_threshold=float(goal_d.get("speed_threshold", 0.2)),
            planner_margin_frac=float(data.get("planner_margin_frac", 0.2)),
            name=data.get("name", "scenario"),
        )

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)

    @classmethod
    def load_json(cls, path) -> "Scenario":
        """The scenario of a JSON file; InvalidScenario if the file is not valid JSON."""
        with open(path, encoding="utf-8") as f:
            try:
                data = json.load(f)
            except ValueError as exc:
                raise InvalidScenario(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def with_seed(self, seed: int) -> "Scenario":
        """Copy with re-derived planner seed and disturbance realization."""
        data = self.to_dict()
        data["seed"] = int(seed)
        data["planner"]["seed"] = int(seed)
        out = Scenario.from_dict(data)
        out.disturbance = self.disturbance.reseeded(int(seed))
        return out


def reference_lead(scenario: Scenario, traj: SplineTrajectory) -> float:
    """Clock offset of the reference so the initial distance error sits mid-funnel."""
    if scenario.reference_lead != "auto":
        return float(scenario.reference_lead)
    cfg = scenario.controller
    target = 0.5 * (cfg.rho_d_min + cfg.funnel_d.value(0.0))
    return traj.time_at_distance(target)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

def _rect(cx: float, cy: float, hw: float, hh: float) -> ConvexPolygon:
    return ConvexPolygon(np.array([
        [cx - hw, cy - hh], [cx + hw, cy - hh], [cx + hw, cy + hh], [cx - hw, cy + hh],
    ]))


def _diamond(cx: float, cy: float, rx: float, ry: float) -> ConvexPolygon:
    return ConvexPolygon(np.array([
        [cx + rx, cy], [cx, cy + ry], [cx - rx, cy], [cx, cy - ry],
    ]))


def open_water_obstacles() -> list[ConvexPolygon]:
    """The obstacle course used by the long-run and trajectory-generation demos."""
    return [
        _rect(120.0, -45.0, 25.0, 18.0),
        _diamond(205.0, 72.0, 28.0, 22.0),
        _rect(305.0, -30.0, 22.0, 20.0),
        _diamond(385.0, 70.0, 20.0, 24.0),
    ]


def _long_run_controller() -> ControllerConfig:
    # Static funnels sized for the loose open-water tracking regime; the
    # gains are artifact tuning (validated by the feasibility audit and the
    # violation-free Monte-Carlo sweep).
    return ControllerConfig(
        k_d=9.0, k_u=9000.0, k_o=1.2, k_r=18000.0,
        funnel_d=FunnelSpec.static(28.0),
        funnel_u=FunnelSpec.static(25.0),
        funnel_o=FunnelSpec.static(0.9999),
        funnel_r=FunnelSpec.static(15.0),
        rho_d_min=0.5,
        F_T_max=12000.0,
        alpha_r_max=math.pi / 6.0,
        delta_x_nominal=1.0,
    )


def long_run_scenario(seed: int = 7) -> Scenario:
    """~450 m goal with obstacles, static loose funnels, 3-minute horizon."""
    workspace = Workspace(
        bounds=(-60.0, -160.0, 560.0, 200.0),
        obstacles=open_water_obstacles(),
        clearance=30.0,
    )
    start = VesselState(p_x=0.0, p_y=0.0, psi=0.15, u=0.0, v=0.0, r=0.0, t=0.0)
    disturbance = DisturbanceProfile(
        x=AxisDisturbance(bias=30.0, sin_amp=60.0, sin_freq_hz=0.05, noise_amp=30.0),
        y=AxisDisturbance(bias=-20.0, sin_amp=50.0, sin_freq_hz=0.08, noise_amp=25.0),
        psi=AxisDisturbance(bias=5.0, sin_amp=20.0, sin_freq_hz=0.03, noise_amp=10.0),
        seed=seed,
    )
    return Scenario(
        workspace=workspace,
        start=start,
        goal=(450.0, 20.0),
        goal_radius=20.0,
        vessel=VesselParams(),
        disturbance=disturbance,
        controller=_long_run_controller(),
        v_max=6.0,
        a_max=1.0,
        planner=RrtParams(step_size=12.0, goal_bias=0.15, max_iters=60000, seed=seed),
        trajopt=TrajOptSettings(w1=1.0, w2=0.05, w3=2.0, dt_bounds=(0.5, 30.0)),
        sim_dt=0.05,
        horizon=180.0,
        seed=seed,
        footprint_radius=1.0,
        min_thrust_floor=3000.0,
        sway_bound=3.0,
        # Arrival is "in the goal ball, drifting below 0.75 m/s": the rudder
        # has no authority once the deceleration demand cuts thrust, so the
        # bearing to the stopped reference degenerates if the episode idles
        # in the coast phase instead of terminating.
        goal_speed_threshold=0.75,
        name="long-run",
    )


def trajectory_demo_scenario(seed: int = 3) -> Scenario:
    """Obstacle layout for the trajectory-generation demo (v_max 10, a_max 2)."""
    sc = long_run_scenario(seed=seed)
    sc.v_max = 10.0
    sc.a_max = 2.0
    sc.trajopt = TrajOptSettings(w1=1.0, w2=0.05, w3=2.0, dt_bounds=(0.2, 30.0))
    sc.name = "trajectory-demo"
    return sc


def benign_scenario(seed: int = 1) -> Scenario:
    """Short obstacle-free, disturbance-free run: start ~80 m from the goal."""
    workspace = Workspace(bounds=(-50.0, -60.0, 200.0, 60.0), obstacles=[], clearance=30.0)
    start = VesselState(p_x=0.0, p_y=0.0, psi=0.0, u=0.0, v=0.0, r=0.0, t=0.0)
    return Scenario(
        workspace=workspace,
        start=start,
        goal=(80.0, 0.0),
        goal_radius=16.0,
        vessel=VesselParams(),
        disturbance=DisturbanceProfile.zero(),
        controller=_long_run_controller(),
        v_max=4.0,
        a_max=0.8,
        planner=RrtParams(step_size=10.0, seed=seed),
        trajopt=TrajOptSettings(w1=1.0, w2=0.1, w3=1.0, dt_bounds=(0.5, 30.0)),
        sim_dt=0.05,
        horizon=90.0,
        seed=seed,
        footprint_radius=1.0,
        min_thrust_floor=3000.0,
        name="benign",
    )


BUILTIN_SCENARIOS = {
    "long-run": long_run_scenario,
    "trajectory-demo": trajectory_demo_scenario,
    "benign": benign_scenario,
}


def load_scenario(spec: str) -> Scenario:
    """Resolve a CLI scenario argument: a builtin name or a JSON file path."""
    if spec in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[spec]()
    try:
        return Scenario.load_json(spec)
    except FileNotFoundError as exc:
        raise InvalidScenario(f"{spec!r} is neither a file nor a builtin scenario "
                              f"({', '.join(BUILTIN_SCENARIOS)})") from exc
