"""Optimal stopping of the perpetual claim sup E[e^{-r tau} g(X_tau)].

Because upward passage is continuous (jumps only go down), the value of
stopping at the first passage over y, started below, factors through
psi: it is g(y) psi(x) / psi(y). The optimal threshold maximizes g/psi
and the value function is

    V(x) = g(x)                      x >= x*
    V(x) = g(x*) psi(x) / psi(x*)    x <  x*

Interior optima satisfy g'(x*) psi(x*) = g(x*) psi'(x*); corner optima
sit at payoff kinks and break smooth fit by exactly
g(x*) psi'(x*)/psi(x*) - g'(x*+).

Closed forms (each payoff's threshold method): CappedCall(K, I) on
arithmetic dynamics stops at I + 1/k1 when k1 >= 1/(K - I) and at the
cap otherwise; on geometric dynamics at k1 I/(k1 - 1) when
k1 >= K/(K - I). PowerCall(a, b, K) needs k1 > b and stops at
(k1 K / ((k1 - b) a))^{1/b}, i.e. the break-even point scaled by the
multiplier (k1/(k1 - b))^{1/b}. Tabulated payoffs are maximized
numerically.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DomainError, NoFiniteThreshold, SolverError
from .model import Family, Model, Payoff, TabulatedPayoff, validate
from .roots import RootResult, psi_ratio, solve_k1

__all__ = ["ThresholdSolution", "solve_threshold", "value_fn"]


@dataclass(frozen=True)
class ThresholdSolution:
    """Threshold, exponent, and diagnostics for one stopping problem."""

    model: Model
    payoff: Payoff
    k1: float
    x_star: float
    value_at_star: float
    multiplier: float | None
    smooth_fit_gap: float
    ratio_unimodal: bool = True

    @property
    def smooth_fit(self) -> str:
        tol = 1e-10 * max(1.0, abs(self.k1 * self.value_at_star))
        return "smooth" if abs(self.smooth_fit_gap) <= tol else "broken"


def solve_threshold(model: Model, payoff: Payoff,
                    k1: float | RootResult | None = None) -> ThresholdSolution:
    """Solve sup_{y >= x0} g(y)/psi(y) for the optimal threshold.

    k1 may be passed in (a float or a RootResult) to reuse a solved root,
    or to price the continuous comparison problems with their own
    exponents; None solves the model's characteristic equation.
    """
    model.require_positive_discount()
    validate(model, payoff)
    if isinstance(k1, RootResult):
        k1 = k1.k1
    if k1 is None:
        k1 = solve_k1(model).k1
    if not (k1 > 0 and isfinite(k1)):
        raise SolverError(f"threshold needs a positive finite exponent, got {k1}")

    multiplier: float | None = None
    unimodal = True
    if isinstance(payoff, TabulatedPayoff):
        x_star, unimodal = _solve_tabulated(model, payoff, k1)
    else:
        x_star, multiplier = payoff.threshold(k1, model.family)
    if not isfinite(x_star):  # e.g. a power payoff whose break-even overflows
        raise NoFiniteThreshold(f"threshold is not finite: x* = {x_star}")

    return ThresholdSolution(
        model=model,
        payoff=payoff,
        k1=k1,
        x_star=x_star,
        value_at_star=payoff.eval(x_star),
        multiplier=multiplier,
        # 0.0 - slope, not -slope: an exact tie gives +0.0
        smooth_fit_gap=0.0 - _slope_sign(model, payoff, k1, x_star),
        ratio_unimodal=unimodal,
    )


def _slope_sign(model: Model, payoff: Payoff, k1: float, x: float) -> float:
    # sign-equivalent to d/dx [g/psi]: g'(x+) - g(x) psi'/psi, where psi'/psi
    # is k1 for exponentials and k1/x for powers; psi times it is the
    # first-order condition g'(x+) psi(x) - g(x) psi'(x)
    if model.family is Family.GEOMETRIC:
        if x <= 0:
            raise DomainError("geometric state must be positive")
        k1 = k1 / x
    return payoff.deriv(x) - payoff.eval(x) * k1


def _solve_tabulated(model: Model, payoff: TabulatedPayoff, k1: float) -> tuple[float, bool]:
    x0 = payoff.break_even()
    right = payoff.breakpoints[-1]
    geometric = model.family is Family.GEOMETRIC

    # push the search end out until g/psi is decreasing there
    R = right
    for _ in range(200):
        if _slope_sign(model, payoff, k1, R) < 0.0:
            break
        R = R * 2.0 if geometric else R + max(1.0, right - x0)
        if not isfinite(R) or R > 1e12 * max(1.0, right):
            raise NoFiniteThreshold("g/psi keeps increasing; sup not attained")
    else:
        raise NoFiniteThreshold("g/psi keeps increasing; sup not attained")

    # rescaled ratio, monotone-equivalent to g/psi but overflow-free; the
    # grid scan evaluates it in one array pass (grid >= x0 > 0 when geometric)
    grid = np.linspace(x0, R, 1025)
    if geometric:
        ratio = lambda x: payoff.eval(x) * (x / x0) ** (-k1) if x > 0 else 0.0
        vals = payoff.eval(grid) * np.power(grid / x0, -k1)
    else:
        ratio = lambda x: payoff.eval(x) * exp(-k1 * (x - x0))
        vals = payoff.eval(grid) * np.exp(-k1 * (grid - x0))
    best = len(vals) - 1 - int(np.argmax(vals[::-1]))  # ties -> largest maximizer
    changes = np.flatnonzero(np.diff(np.sign(np.diff(vals))) != 0)
    unimodal = len(changes) <= 1

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    if best in (0, len(grid) - 1):
        x_star = grid[best]
    else:
        try:
            res = minimize_scalar(lambda x: -ratio(x), bracket=(lo, grid[best], hi),
                                  method="golden", options={"xtol": 1e-10})
            x_star = float(res.x)
        except ValueError:
            # flat bracket; keep the grid point, FOC polish below refines
            x_star = grid[best]
    # FOC polish: bisect the ratio slope when it changes sign locally
    span = grid[1] - grid[0]
    a, b = max(x_star - span, x0), min(x_star + span, R)
    sa, sb = _slope_sign(model, payoff, k1, a), _slope_sign(model, payoff, k1, b)
    if sa > 0.0 > sb:
        for _ in range(200):
            mid = 0.5 * (a + b)
            if _slope_sign(model, payoff, k1, mid) > 0.0:
                a = mid
            else:
                b = mid
            if b - a <= 1e-12 * max(1.0, abs(b)):
                break
        x_star = 0.5 * (a + b)
    if payoff.eval(x_star) <= 0.0:
        raise SolverError("tabulated threshold search ended at a nonpositive payoff")
    return x_star, unimodal


def value_fn(solution: ThresholdSolution, x):
    """V(x); vectorized over x; g(x) in the stopping region, scaled psi below."""
    model, k1, x_star = solution.model, solution.k1, solution.x_star
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if model.family is Family.GEOMETRIC and np.any(arr < 0):
        raise DomainError("geometric state must be nonnegative")
    out = np.array(solution.payoff.eval(arr), dtype=float)
    below = arr < x_star
    if np.any(below):
        out[below] = solution.value_at_star * psi_ratio(model, k1, arr[below], x_star)
    return float(out[0]) if scalar else out

