"""Jump-mark transforms: E[e^{-sZ}] and E[(1-Z)^k].

Each jump law computes these in closed form, with no numerical
integration, as its laplace(s) and power(k) methods (see levystop.model).
The power transform needs marks inside [0, 1): wider support is a
contract violation, BadSupport, not a numerical failure.
"""
from __future__ import annotations

from .errors import BadSupport
from .model import JumpDist

__all__ = ["laplace_transform", "power_transform"]


def laplace_transform(dist: JumpDist, s: float) -> float:
    """E[e^{-sZ}]. Finite for all s >= 0; divergent past the analytic strip."""
    return dist.laplace(s)


def power_transform(dist: JumpDist, k: float) -> float:
    """E[(1-Z)^k] for marks in [0, 1)."""
    if dist.support[0] < 0 or not dist.unit_marks():
        raise BadSupport("power transform needs jump support inside [0, 1)")
    return dist.power(k)
