"""Characteristic equations and their positive roots.

A candidate value function psi pins the exponent k1 > 0:

  arithmetic  psi(x) = e^{k x}:
      sigma^2 k^2 / 2 + (mu + gamma*lambda*mbar) k
          + lambda E[e^{-gamma k Z}] - (r + lambda) = 0
  geometric   psi(x) = x^k:
      sigma^2 k(k-1) / 2 + (alpha + lambda*mbar) k
          + lambda E[(1-Z)^k] - (r + lambda) = 0

Dropping the jump terms leaves a quadratic whose positive root has a
closed form; the jump equation's root is sandwiched between the
quadratic roots at discounts r and r + lambda. At the lower endpoint
the jump terms contribute lambda(E[.] - 1) <= 0, at the upper endpoint
lambda E[.] >= 0, so the endpoints straddle a sign change and the
bracket never needs widening. Within the bracket the equation is
convex in k, so the root is unique.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sqrt

from scipy.optimize import brentq

from .errors import BracketFailure, DomainError, NoPositiveRoot, SolverError
from .model import Family, Model
from .transforms import laplace_transform, log_one_minus_mean, power_transform

__all__ = ["RootResult", "continuous_root", "char_eq", "solve_k1",
           "psi", "psi_prime", "psi_second"]


@dataclass(frozen=True)
class RootResult:
    """Positive root k1 with its diffusion-only bracket and solve diagnostics."""

    k1: float
    bracket_low: float
    bracket_high: float
    residual: float
    iterations: int


def continuous_root(model: Model, theta: float, drift: float | None = None) -> float:
    """Positive root of the no-jump quadratic at discount theta.

    drift overrides the model's compensated drift; that is how the
    jump-risk-adjusted drift is verified to reproduce k1 at theta = r + lambda.
    Evaluated in the cancellation-free form: when the linear coefficient is
    positive the usual -b + sqrt(...) loses digits for small sigma, so the
    conjugate expression 2*theta / (b + sqrt(...)) is used instead.
    """
    if theta < 0:
        raise SolverError("discount for the quadratic root must be nonnegative")
    c = model.compensated_drift if drift is None else drift
    s2 = model.volatility ** 2
    if model.family is Family.ARITHMETIC:
        b = c
    else:
        b = c - 0.5 * s2
    disc = sqrt(b * b + 2.0 * theta * s2)
    if b > 0:
        return 2.0 * theta / (b + disc)
    return (disc - b) / s2


def char_eq(model: Model, k: float) -> float:
    """Value of the characteristic equation's left side at exponent k."""
    lam = model.jump_intensity
    s2 = model.volatility ** 2
    c = model.compensated_drift
    if model.family is Family.ARITHMETIC:
        quad = 0.5 * s2 * k * k + c * k
        jump = lam * laplace_transform(model.jump_dist, model.jump_scale * k) if lam > 0 else 0.0
    else:
        quad = 0.5 * s2 * k * (k - 1.0) + c * k
        jump = lam * power_transform(model.jump_dist, k) if lam > 0 else 0.0
    return quad + jump - (model.discount + lam)


def _eq_scale(model: Model, k: float) -> float:
    s2 = model.volatility ** 2
    return max(1.0, 0.5 * s2 * k * k, abs(model.compensated_drift) * abs(k),
               model.discount + model.jump_intensity)


def _zero_discount_slope(model: Model) -> float:
    # d/dk of the characteristic equation at k = 0 with r = 0; its sign
    # decides whether the r -> 0 root limit is 0 (upward passage certain)
    # or a strictly positive root.
    lam = model.jump_intensity
    if model.family is Family.ARITHMETIC:
        return model.drift
    slope = model.compensated_drift - 0.5 * model.volatility ** 2
    if lam > 0:
        slope += lam * log_one_minus_mean(model.jump_dist)
    return slope


def solve_k1(model: Model) -> RootResult:
    """Positive root of the characteristic equation with bracket diagnostics.

    lambda = 0 returns the quadratic root directly. r = 0 is the
    hitting-probability limit: the root is 0 when the zero-discount drift
    slope is nonnegative (passage certain), otherwise the strictly
    positive root is solved on a scanned bracket.
    """
    r, lam = model.discount, model.jump_intensity
    if r == 0.0:
        return _solve_zero_discount(model)
    lo = continuous_root(model, r)
    hi = continuous_root(model, r + lam)
    if lam == 0.0:
        return RootResult(lo, lo, lo, char_eq(model, lo), 0)
    f = lambda k: char_eq(model, k)
    flo, fhi = f(lo), f(hi)
    slack = 1e-9 * _eq_scale(model, hi)
    # endpoint signs are a theorem; a violation beyond roundoff is a bug
    if flo > slack or fhi < -slack:
        raise BracketFailure(
            f"characteristic equation endpoints do not straddle zero: "
            f"f({lo:.6g}) = {flo:.3g}, f({hi:.6g}) = {fhi:.3g}"
        )
    if flo >= 0.0:
        return RootResult(lo, lo, hi, flo, 0)
    if fhi <= 0.0:
        return RootResult(hi, lo, hi, fhi, 0)
    k1, info = _brentq(f, lo, hi)
    resid = f(k1)
    if abs(resid) > 1e-12 * _eq_scale(model, k1):
        raise SolverError(f"root residual {resid:.3g} above tolerance")
    return RootResult(k1, lo, hi, resid, int(info.iterations))


def _solve_zero_discount(model: Model) -> RootResult:
    lam = model.jump_intensity
    if _zero_discount_slope(model) >= 0.0:
        return RootResult(0.0, 0.0, 0.0, 0.0, 0)
    hi = continuous_root(model, lam)
    f = lambda k: char_eq(model, k)
    lo = hi
    for _ in range(80):
        lo *= 0.5
        if f(lo) < 0.0:
            break
    else:
        raise NoPositiveRoot("no strictly positive root found at r = 0")
    k1, info = _brentq(f, lo, hi)
    return RootResult(k1, 0.0, hi, f(k1), int(info.iterations))


def _brentq(f, lo: float, hi: float):
    try:
        return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16, full_output=True)
    except (ValueError, RuntimeError) as exc:  # a NaN equation value, or no convergence
        raise SolverError(f"root search failed: {exc}") from exc


# ---------------------------------------------------------------------------
# psi and derivatives
# ---------------------------------------------------------------------------

def psi(model: Model, k: float, x: float) -> float:
    """Increasing solution e^{kx} (arithmetic) or x^k (geometric)."""
    if model.family is Family.ARITHMETIC:
        return exp(k * x)
    if x <= 0:
        raise DomainError("geometric psi needs x > 0")
    return x ** k


def psi_prime(model: Model, k: float, x: float) -> float:
    if model.family is Family.ARITHMETIC:
        return k * exp(k * x)
    if x <= 0:
        raise DomainError("geometric psi needs x > 0")
    return k * x ** (k - 1.0)


def psi_second(model: Model, k: float, x: float) -> float:
    if model.family is Family.ARITHMETIC:
        return k * k * exp(k * x)
    if x <= 0:
        raise DomainError("geometric psi needs x > 0")
    return k * (k - 1.0) * x ** (k - 2.0)
