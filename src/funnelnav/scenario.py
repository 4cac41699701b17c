"""Scenario definition and its JSON schema; the builtin scenarios are the JSON
files packaged under funnelnav/scenarios.

A scenario bundles everything one closed-loop episode needs: the workspace
with obstacles, the vessel truth model and disturbance, the controller
configuration, the planner/optimizer settings and the simulation horizon.
The JSON schema mirrors the dataclasses field-for-field, and each default is
the one its dataclass states; units are SI (meters, seconds, newtons,
radians) throughout.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from importlib import resources

from .bspline import SplineTrajectory
from .controller import ControllerConfig
from .dynamics import AxisDisturbance, DisturbanceProfile, DragCoeffs, VesselParams, VesselState
from .errors import FunnelNavError, InvalidScenario
from .funnels import FunnelSpec
from .geometry import ConvexPolygon, Workspace, point_free
from .rrt import RrtParams
from .trajopt import TrajOptSettings


def _is_number(value) -> bool:
    """A finite int or float. Python's json reads NaN and Infinity, which would slip
    through the fields' range checks (nan <= 0.0 is false)."""
    if type(value) is float:  # json's own types skip the slower ABC checks
        return math.isfinite(value)
    return type(value) is int or (isinstance(value, numbers.Real) and not isinstance(value, bool)
                                  and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def _is_integer(value) -> bool:
    return _is_number(value) and isinstance(value, numbers.Integral)


# The leaves of a scenario dict that need not be any number, by key. A seed is
# numpy's: a non-negative integer.
_LEAF_CHECKS = {
    "name": lambda v: isinstance(v, str),
    **dict.fromkeys(("coriolis_on", "shortcut"), lambda v: isinstance(v, bool)),
    **dict.fromkeys(("step_size", "goal_radius"), lambda v: v is None or _is_number(v)),
    "reference_lead": lambda v: v == "auto" or _is_number(v),
    **dict.fromkeys(("inflation_k_gon", "max_iters", "max_outer"), _is_integer),
    "seed": lambda v: _is_integer(v) and v >= 0,
}


def _check_leaves(node, key=None) -> None:
    """TypeError unless every leaf under node passes its key's check in
    _LEAF_CHECKS, or else is a number; a list's entries fall under its key."""
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else ((key, v) for v in node):
            _check_leaves(v, k)
    elif not _LEAF_CHECKS.get(key, _is_number)(node):
        raise TypeError(f"{key!r} cannot be {node!r}")


def _check_written(data: dict, written: dict, path: str = "") -> None:
    """ValueError on a key of data that to_dict did not write at the same path.
    TypeError on a dict or list that to_dict gave back as it came: to_dict builds
    each section and list anew, so a field took that value where a number belongs."""
    for key, value in data.items():
        where = path + key
        if key not in written:
            raise ValueError(f"unknown key {where!r}")
        if isinstance(value, (dict, list)) and (
                written[key] is value or isinstance(value, dict) != isinstance(written[key], dict)):
            raise TypeError(f"{where!r} cannot be {value!r}")
        if isinstance(value, dict):
            _check_written(value, written[key], where + ".")


def _converted(section: dict, **convert) -> dict:
    """section with convert[key] applied to the value of each key it has."""
    return {key: convert[key](value) if key in convert else value for key, value in section.items()}


def _fields(obj) -> dict:
    """The fields of a dataclass by name, uncopied (unlike dataclasses.asdict) so
    that _check_written sees a list or dict that a field took as it came."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


# The Scenario field of each key of the goal, kinodynamic and sim sections, where the two differ.
_FIELD_OF = {"position": "goal", "radius": "goal_radius",
             "speed_threshold": "goal_speed_threshold", "dt": "sim_dt"}
# Keys a scenario must state although their dataclass gives a default.
_REQUIRED = {"workspace": ("clearance",), "vessel": ("m", "Iz", "Delta_x")}
# The lists of a fixed count of numbers, by section and key.
_COUNTS = {("workspace", "bounds"): 4, ("goal", "position"): 2, ("trajopt", "dt_bounds"): 2}


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
        if round(self.horizon / self.sim_dt) == 0:
            raise ValueError(f"sim_dt {self.sim_dt} leaves the horizon {self.horizon} no tick")
        if self.goal_radius <= 0.0:
            raise ValueError("goal radius must be positive")
        if self.v_max <= 0.0 or self.a_max <= 0.0:
            raise ValueError("kinodynamic bounds must be positive")
        if self.footprint_radius < 0.0:
            raise ValueError("footprint radius must be >= 0")
        for name in ("sway_bound", "planner_margin_frac"):  # a value of another type: _check_written
            value = getattr(self, name)
            if _is_number(value) and value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def validate(self) -> None:
        """Scenario-level invariants beyond per-field checks; InvalidScenario if one fails."""
        if not point_free(self.start.position, self.workspace):
            raise InvalidScenario("start position not in the inflated free space")
        if not point_free(self.goal, self.workspace):
            raise InvalidScenario("goal position not in the inflated free space")
        if tuple(self.goal) == self.start.position:
            raise InvalidScenario(f"goal position {self.goal} is the start position")
        rho_d0 = self.controller.funnel_d.value(0.0)
        if rho_d0 + self.footprint_radius >= self.workspace.clearance:
            raise InvalidScenario(
                f"distance funnel radius {rho_d0} + footprint {self.footprint_radius} "
                f"must stay below the workspace clearance {self.workspace.clearance}"
            )

    def planner_workspace(self) -> Workspace:
        """Workspace with extra inflation so taut paths leave hull slack downstream."""
        return replace(self.workspace, clearance=self.workspace.clearance * (1.0 + self.planner_margin_frac))

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
                "drag": _fields(self.vessel.drag),
            },
            "disturbance": {
                "seed": self.disturbance.seed,
                "axes": {name: _fields(ax) for name, ax in zip(("x", "y", "psi"), self.disturbance.axes)},
            },
            "controller": {
                "k_d": ctl.k_d, "k_u": ctl.k_u, "k_o": ctl.k_o, "k_r": ctl.k_r,
                "rho_d_min": ctl.rho_d_min,
                "F_T_max": ctl.F_T_max, "alpha_r_max": ctl.alpha_r_max,
                "eps_u_guard": ctl.eps_u_guard, "delta_x_nominal": ctl.delta_x_nominal,
                "funnels": {name: _fields(getattr(ctl, f"funnel_{name}")) for name in "duor"},
            },
            "kinodynamic": {"v_max": self.v_max, "a_max": self.a_max},
            "planner": _fields(self.planner),
            "trajopt": _converted(_fields(self.trajopt), dt_bounds=list),
            "sim": {"dt": self.sim_dt, "horizon": self.horizon},
            "footprint_radius": self.footprint_radius,
            "min_thrust_floor": self.min_thrust_floor,
            "sway_bound": self.sway_bound,
            "reference_lead": self.reference_lead,
            "planner_margin_frac": self.planner_margin_frac,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario of a JSON dict; InvalidScenario on a missing required key, an
        unknown key, a value of the wrong type (see _check_leaves and _check_written)
        or a value a field rejects."""
        try:
            _check_leaves(data)
            scenario = cls._from_checked_dict(data)
            _check_written(data, scenario.to_dict())
            return scenario
        except (AttributeError, KeyError, TypeError, ValueError, FunnelNavError) as exc:
            raise InvalidScenario(f"{type(exc).__name__}: {exc}") from exc

    @classmethod
    def _from_checked_dict(cls, data: dict) -> "Scenario":
        """Each section's keys are the field names of its dataclass (of Scenario for
        goal, kinodynamic, sim and the top level, through _FIELD_OF), so an absent
        key takes the default its dataclass states."""
        for section, keys in _REQUIRED.items():
            for key in keys:
                if key not in data[section]:
                    raise KeyError(f"{section}.{key}")
        for (section, key), count in _COUNTS.items():
            got = data.get(section, {}).get(key, [0.0] * count)  # absent: its default
            if not (isinstance(got, list) and len(got) == count and all(map(_is_number, got))):
                raise TypeError(f"{section}.{key} must be {count} numbers, got {got!r}")
        disturbance = dict(data.get("disturbance", {}))
        axes = {name: AxisDisturbance(**spec) for name, spec in disturbance.pop("axes", {}).items()}
        controller = dict(data["controller"])
        funnels = {f"funnel_{name}": FunnelSpec(**spec)
                   for name, spec in controller.pop("funnels").items()}
        # The goal, kinodynamic and sim sections hold Scenario fields.
        flattened = {**_converted(data["goal"], position=tuple), **data["kinodynamic"],
                     **data.get("sim", {})}
        # The planner's seed defaults to the scenario's.
        inherited = {"seed": data["seed"]} if "seed" in data else {}
        return cls(
            **{key: value for key, value in data.items() if not isinstance(value, dict)},
            **{_FIELD_OF.get(key, key): value for key, value in flattened.items()},
            workspace=Workspace(**_converted(
                data["workspace"], bounds=tuple,
                obstacles=lambda polygons: tuple(ConvexPolygon(v) for v in polygons))),
            start=VesselState(**data["start"]),
            vessel=VesselParams(**_converted(data["vessel"], drag=lambda d: DragCoeffs(**d))),
            disturbance=DisturbanceProfile(**disturbance, **axes),
            controller=ControllerConfig(**controller, **funnels),
            planner=RrtParams(**{**inherited, **data.get("planner", {})}),
            trajopt=TrajOptSettings(**_converted(data.get("trajopt", {}), dt_bounds=tuple)),
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
        """Copy with this seed as its, the planner's and the disturbance realization's; every
        other section is shared, checked already. InvalidScenario on a negative seed."""
        seed = int(seed)
        if seed < 0:
            raise InvalidScenario(f"seed must be a non-negative integer, got {seed}")
        return replace(self, seed=seed, planner=replace(self.planner, seed=seed),
                       disturbance=self.disturbance.reseeded(seed))


def mid_funnel_distance(scenario: Scenario) -> float:
    """The distance error halfway between the distance funnel's floor and its radius at t = 0."""
    cfg = scenario.controller
    return 0.5 * (cfg.rho_d_min + cfg.funnel_d.value(0.0))


def reference_lead(scenario: Scenario, traj: SplineTrajectory) -> float:
    """Clock offset of the reference so the initial distance error sits mid-funnel."""
    if scenario.reference_lead != "auto":
        return float(scenario.reference_lead)
    return traj.time_at_distance(mid_funnel_distance(scenario))


# The builtin scenarios: one JSON file each, packaged under funnelnav/scenarios.
BUILTIN_NAMES = ("benign", "long-run", "trajectory-demo")


def load_scenario(spec: str) -> Scenario:
    """Resolve a CLI scenario argument: a builtin name or a JSON file path."""
    if spec in BUILTIN_NAMES:
        with resources.as_file(resources.files(__package__) / "scenarios" / f"{spec}.json") as path:
            return Scenario.load_json(path)
    try:
        return Scenario.load_json(spec)
    except FileNotFoundError as exc:
        raise InvalidScenario(f"{spec!r} is neither a file nor a builtin scenario "
                              f"({', '.join(BUILTIN_NAMES)})") from exc


# Only the benchmark (perfbench/workloads.py) imports these two; drop them when it next changes.
def long_run_scenario() -> Scenario:
    return load_scenario("long-run")


def trajectory_demo_scenario() -> Scenario:
    return load_scenario("trajectory-demo")
