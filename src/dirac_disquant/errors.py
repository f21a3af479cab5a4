"""Exception types shared across the package, and the positivity guard.

Every one is a DomainError, the one class the CLI turns into exit code 2;
the integrator and consistency errors also keep their builtin bases.
"""

import math


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class LightlikeFluxError(DomainError):
    """Flux 4-vector is lightlike or spacelike where a timelike one is required."""


class SingularDenominatorError(DomainError):
    """A formula's denominator is too close to zero; the message names the factor."""


class SubThresholdError(DomainError):
    """Rotator energy below the two-particle rest mass threshold."""


class NumericConsistencyError(DomainError, ArithmeticError):
    """A quantity that must be real (or a multiple of the projector) is not."""


class StepSizeError(DomainError, RuntimeError):
    """Integrator constraint drift before projection exceeded its bound."""


class StabilityError(DomainError, RuntimeError):
    """Integrator step size too large for the motion's angular frequency."""


def require_positive(**values):
    """DomainError unless every value is a finite positive number."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {value!r}")
