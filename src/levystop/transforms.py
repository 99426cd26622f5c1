"""Jump-mark transforms: E[e^{-sZ}], E[(1-Z)^k], E[Z], E[ln(1-Z)].

Every law has a closed form; nothing is integrated numerically:

  Laplace   Gamma(a, b): (b/(b+s))^a      Exponential(rho): rho/(rho+s)
            Beta(c, d):  1F1(c; c+d; -s)  (Kummer's function, DLMF 13.4.1)
            PointMass(z): e^{-sz}         Tabulated: sum w_i e^{-s z_i}
  Power     Beta(c, d):  B(c, d+k)/B(c, d), evaluated in log-gamma
            PointMass(z): (1-z)^k         Tabulated: sum w_i (1-z_i)^k
  Log       Beta(c, d):  digamma(d) - digamma(c+d)
            PointMass(z): ln(1-z)         Tabulated: sum w_i ln(1-z_i)

The power and log transforms are defined only for marks inside [0, 1)
(geometric-family laws); asking for them on wider support is a contract
violation, not a numerical failure.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import BadSupport, DivergentTransform
from .model import (
    BetaJumps,
    ExponentialJumps,
    GammaJumps,
    JumpDist,
    PointMassJumps,
    TabulatedJumps,
)

__all__ = ["laplace_transform", "power_transform", "mean_jump", "log_one_minus_mean"]


def _unit_support(dist: JumpDist, what: str) -> None:
    if dist.support[0] < 0 or not dist.unit_marks():
        raise BadSupport(f"{what} needs jump support inside [0, 1)")


def laplace_transform(dist: JumpDist, s: float) -> float:
    """E[e^{-sZ}]. Finite for all s >= 0; divergent past the analytic strip."""
    if isinstance(dist, GammaJumps):
        if s <= -dist.rate:
            raise DivergentTransform(f"gamma Laplace transform diverges at s = {s}")
        return (dist.rate / (dist.rate + s)) ** dist.shape
    if isinstance(dist, ExponentialJumps):
        if s <= -dist.rate:
            raise DivergentTransform(f"exponential Laplace transform diverges at s = {s}")
        return dist.rate / (dist.rate + s)
    if isinstance(dist, PointMassJumps):
        return math.exp(-s * dist.z)
    if isinstance(dist, TabulatedJumps):
        return float(np.dot(dist.weights, np.exp(-s * np.asarray(dist.nodes))))
    # Beta: Kummer's integral form of 1F1, finite for every real s. scipy's
    # hyp1f1 returns inf or nan for |s| below about 1e-195; there, and up to
    # |s| = 1e-8, the series through s^2 is exact in double precision
    c, d = dist.c, dist.d
    if abs(s) < 1e-8:
        return 1.0 - s * c / (c + d) * (1.0 - 0.5 * s * (c + 1.0) / (c + d + 1.0))
    value = float(special.hyp1f1(c, c + d, -s))
    if not math.isfinite(value):
        raise DivergentTransform(f"beta Laplace transform overflowed at s = {s}")
    return value


def power_transform(dist: JumpDist, k: float) -> float:
    """E[(1-Z)^k] for marks in [0, 1)."""
    _unit_support(dist, "power transform")
    if isinstance(dist, BetaJumps):
        if dist.d + k <= 0:
            raise DivergentTransform(f"beta power transform diverges at k = {k}")
        return math.exp(special.betaln(dist.c, dist.d + k) - special.betaln(dist.c, dist.d))
    if isinstance(dist, PointMassJumps):
        return (1.0 - dist.z) ** k
    if isinstance(dist, TabulatedJumps):
        return float(np.dot(dist.weights, (1.0 - np.asarray(dist.nodes)) ** k))
    raise TypeError(f"unregistered jump distribution {type(dist).__name__}")


def mean_jump(dist: JumpDist) -> float:
    """mbar = E[Z]."""
    return dist.mean()


def log_one_minus_mean(dist: JumpDist) -> float:
    """E[ln(1-Z)] for marks in [0, 1); Beta(c, d) gives digamma(d) - digamma(c+d)."""
    _unit_support(dist, "log transform")
    if isinstance(dist, BetaJumps):
        return float(special.digamma(dist.d) - special.digamma(dist.c + dist.d))
    if isinstance(dist, PointMassJumps):
        return math.log1p(-dist.z)
    if isinstance(dist, TabulatedJumps):
        return float(np.dot(dist.weights, np.log1p(-np.asarray(dist.nodes))))
    raise TypeError(f"unregistered jump distribution {type(dist).__name__}")
