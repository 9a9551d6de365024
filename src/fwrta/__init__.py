"""Run-time assurance filters and a scenario simulator for a kinematic
fixed-wing aircraft: moving-obstacle collision avoidance and planar
geofencing through closed-form barrier-based safety filters, plus the
velocity-tracking flight controller they supervise."""

from .errors import (
    CoincidentPosition,
    FwrtaError,
    InvalidGainOrdering,
    NonFiniteValue,
    ScenarioError,
    SingularPitch,
    SingularSpeed,
    ZeroDesiredVelocity,
)
from .model import AircraftState, ControlInput, GravityParam

__all__ = [
    "AircraftState",
    "ControlInput",
    "GravityParam",
    "FwrtaError",
    "SingularSpeed",
    "SingularPitch",
    "CoincidentPosition",
    "ZeroDesiredVelocity",
    "InvalidGainOrdering",
    "NonFiniteValue",
    "ScenarioError",
]

__version__ = "0.1.0"
