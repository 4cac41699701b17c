"""Exception types shared across the toolkit."""


class FunnelNavError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidScenario(FunnelNavError, ValueError):
    """Scenario data with a missing key, a value of the wrong type or a rejected value."""


class NonFiniteState(FunnelNavError):
    """Integration produced NaN/Inf; dynamics blew up or dt is too large."""


class DegenerateDistance(FunnelNavError):
    """Distance error below the numerical guard; orientation error undefined."""


class FunnelViolation(FunnelNavError):
    """A normalized error left its funnel (|xi| >= 1) on some channel.

    Attributes:
        channel: one of "d", "o", "u", "r".
        xi: the offending normalized error.
        t: simulation time of the violation (may be None when unknown).
    """

    def __init__(self, channel: str, xi: float, t: float | None = None):
        self.channel = channel
        self.xi = xi
        self.t = t
        super().__init__(f"funnel violation on channel {channel!r}: xi={xi:.6g} at t={t}")


class InitialComplianceError(FunnelNavError):
    """Initial state violates the funnel-compliance preconditions.

    ``diagnostics`` maps channel name to a dict with the offending value, the
    bound it violated, and (when one exists) the minimal funnel radius rho0
    that would restore compliance.
    """

    def __init__(self, diagnostics: dict):
        self.diagnostics = diagnostics
        parts = ", ".join(
            f"{ch}: value={d['value']:.4g} bound={d['bound']:.4g}" for ch, d in diagnostics.items()
        )
        super().__init__(f"initial funnel compliance failed ({parts})")


class PlanTimeout(FunnelNavError):
    """RRT exhausted its iteration budget without reaching the goal."""


class StartOrGoalInCollision(FunnelNavError):
    """Planner query endpoints are not in the inflated free space."""


class InfeasibleSeed(FunnelNavError):
    """An initial spline segment hull intersects an obstacle.

    Attributes:
        pair: offending (segment_index, obstacle_index).
    """

    def __init__(self, segment: int, obstacle: int):
        self.pair = (segment, obstacle)
        super().__init__(f"initial hull of segment {segment} intersects obstacle {obstacle}")


class TrajOptInfeasible(FunnelNavError):
    """No knot spacing within bounds satisfies the kinodynamic constraints."""


class UnverifiedTrajectory(FunnelNavError):
    """The optimizer converged, but its result failed the final verification.

    Attributes:
        residuals: the solution's residuals (projection, dense max speed and
            acceleration, separation_ok) that the verification rejected.
    """

    def __init__(self, residuals: dict):
        self.residuals = residuals
        super().__init__(f"converged trajectory failed verification: {residuals}")


class OutOfDomain(FunnelNavError):
    """Spline evaluated outside [0, duration]."""


class InsufficientSamples(FunnelNavError):
    """Feasibility bound estimation called with too few samples."""
