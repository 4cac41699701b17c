"""Kinodynamic trajectory generation and funnel tracking for an underactuated vessel."""

from .bspline import SplineTrajectory, clamped_from_waypoints
from .controller import ControllerConfig, ControllerDebug, control_tick
from .dynamics import (
    ActuatorCommand,
    AxisDisturbance,
    DisturbanceProfile,
    DragCoeffs,
    VesselParams,
    VesselState,
    actuator_to_wrench,
    step,
)
from .errors import (
    DegenerateDistance,
    FunnelNavError,
    FunnelViolation,
    InfeasibleSeed,
    InitialComplianceError,
    InsufficientSamples,
    InvalidScenario,
    NonFiniteState,
    OutOfDomain,
    PlanTimeout,
    StartOrGoalInCollision,
    TrajOptInfeasible,
    UnverifiedTrajectory,
)
from .feasibility import FeasibilityReport, estimate_bounds
from .funnels import FunnelSpec, TrackingErrors, compute_errors, transform
from .geometry import ConvexPolygon, Workspace, find_separator, inflate, point_free, verify_separation
from .harness import EpisodeLog, audit, run_episode, sweep
from .rrt import RrtParams, RrtPath, plan
from .scenario import Scenario, TrajOptSettings, load_scenario
from .trajopt import TrajOptProblem, TrajOptSolution, solve, validate

__version__ = "0.1.0"
