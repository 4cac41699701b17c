"""Kinodynamic trajectory generation and funnel tracking for an underactuated vessel."""

from .bspline import SplineTrajectory
from .controller import ControllerConfig, control_tick
from .dynamics import (
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
    InfeasibleSeed,
    InitialComplianceError,
    InsufficientSamples,
    InvalidLog,
    InvalidScenario,
    NonFiniteState,
    OutOfDomain,
    PlanTimeout,
    StartOrGoalInCollision,
    TrajOptInfeasible,
    UnverifiedTrajectory,
)
from .feasibility import FeasibilityReport, estimate_bounds
from .funnels import FunnelSpec, compute_errors, transform
from .geometry import ConvexPolygon, Workspace, find_separator, inflate, point_free
from .harness import EpisodeLog, audit, run_episode, sweep
from .rrt import RrtParams, RrtPath, plan
from .scenario import Scenario, load_scenario
from .trajopt import TrajOptProblem, TrajOptSettings, TrajOptSolution, solve, validate

__version__ = "0.1.0"
