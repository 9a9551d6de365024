"""Exception types shared across the package."""


class FwrtaError(Exception):
    """Base class for all package-specific errors."""


class SingularSpeed(FwrtaError):
    """Speed at or below the validity floor; turn rate and M_a are singular."""


class SingularPitch(FwrtaError):
    """Pitch too close to +-pi/2; the Euler kinematics degenerate."""


class CoincidentPosition(FwrtaError):
    """Aircraft position coincides with an obstacle center; gradient undefined."""


class ZeroDesiredVelocity(FwrtaError):
    """Velocity-weight projector undefined for a (near-)zero desired velocity."""


class InvalidGainOrdering(FwrtaError):
    """Monitor requires the tracking decay rate to exceed the barrier gain."""


class NonFiniteValue(FwrtaError, ValueError):
    """A state or input component is NaN or infinite."""


class ScenarioError(FwrtaError):
    """Scenario input (file, field or sweep path) is malformed; the message names it."""
