"""Jump-mark transforms: E[e^{-sZ}], E[(1-Z)^k], E[ln(1-Z)].

Each jump law computes these in closed form, with no numerical
integration, as its laplace(s), power(k) and log_mean() methods (see
levystop.model). The power and log transforms need marks inside [0, 1):
wider support is a contract violation, BadSupport, not a numerical failure.
"""
from __future__ import annotations

from .errors import BadSupport
from .model import JumpDist

__all__ = ["laplace_transform", "power_transform", "log_one_minus_mean"]


def _unit_support(dist: JumpDist, what: str) -> None:
    if dist.support[0] < 0 or not dist.unit_marks():
        raise BadSupport(f"{what} needs jump support inside [0, 1)")


def laplace_transform(dist: JumpDist, s: float) -> float:
    """E[e^{-sZ}]. Finite for all s >= 0; divergent past the analytic strip."""
    return dist.laplace(s)


def power_transform(dist: JumpDist, k: float) -> float:
    """E[(1-Z)^k] for marks in [0, 1)."""
    _unit_support(dist, "power transform")
    return dist.power(k)


def log_one_minus_mean(dist: JumpDist) -> float:
    """E[ln(1-Z)] for marks in [0, 1)."""
    _unit_support(dist, "log transform")
    return dist.log_mean()
