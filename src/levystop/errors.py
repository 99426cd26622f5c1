"""Exception hierarchy.

Two branches: ``InvalidModel`` for inputs that violate the model contract,
a state outside the family's domain included (the CLI maps these to exit
code 2), and ``SolverError`` for numerical failures on inputs that passed
validation (exit code 3).
"""
from __future__ import annotations

__all__ = [
    "LevyStopError",
    "InvalidModel",
    "NonPositiveVolatility",
    "BadJumpSupport",
    "BadPayoff",
    "BadSupport",
    "ZeroDiscountForThreshold",
    "DomainError",
    "SolverError",
    "DivergentTransform",
    "BracketFailure",
    "NoPositiveRoot",
    "NoFiniteThreshold",
]


class LevyStopError(Exception):
    """Base class for all package errors."""


class InvalidModel(LevyStopError, ValueError):
    """A model, payoff, or config violates the input contract."""


class NonPositiveVolatility(InvalidModel):
    """Diffusion coefficient must be strictly positive."""


class BadJumpSupport(InvalidModel):
    """Jump distribution support is incompatible with the family.

    Geometric dynamics need relative jump sizes inside [0, 1) so the
    state stays positive; arithmetic dynamics need nonnegative marks.
    """


class BadPayoff(InvalidModel):
    """Payoff parameters or payoff/family pairing are invalid."""


class BadSupport(InvalidModel):
    """Transform requested outside the distribution's support contract."""


class ZeroDiscountForThreshold(InvalidModel):
    """Threshold problems need r > 0; r = 0 only prices hitting events."""


class DomainError(InvalidModel):
    """State outside the family's domain (geometric needs x > 0)."""


class SolverError(LevyStopError, ArithmeticError):
    """A numerical routine failed on validated inputs."""


class DivergentTransform(SolverError):
    """The requested transform integral does not converge."""


class BracketFailure(SolverError):
    """Root bracket endpoints do not straddle a sign change."""


class NoPositiveRoot(SolverError):
    """No strictly positive root of the characteristic equation."""


class NoFiniteThreshold(SolverError):
    """sup g/psi is not attained at any finite point."""

