"""Optimal stopping of the perpetual claim sup E[e^{-r tau} g(X_tau)].

Because upward passage is continuous (jumps only go down), the value of
stopping at the first passage over y, started below, factors through
psi: it is g(y) psi(x) / psi(y). The optimal threshold maximizes g/psi
and the value function is

    V(x) = g(x)                      x >= x*
    V(x) = g(x*) psi(x) / psi(x*)    x <  x*

Interior optima satisfy g'(x*) psi(x*) = g(x*) psi'(x*); corner optima
sit at payoff kinks and break smooth fit by exactly
g(x*) psi'(x*)/psi(x*) - g'(x*+). The verdict is exact, not a tolerance
on that gap: each payoff's threshold method reports whether g has a kink
at x*, which above the break-even point only a capped call has, at K.

Closed forms (each payoff's threshold method, with psi = e^{k1 u} in the
model's map u and 1/u'(x) = A + B x): CappedCall(K, I) stops where
(x - I) k1 u'(x) = 1, at (k1 I + A)/(k1 - B), I + 1/k1 (arithmetic) or
k1 I/(k1 - 1) (geometric), when k1 u'(K) (K - I) >= 1, else at the cap.
PowerCall(a, b, K) needs k1 > b and stops at
(k1 K / ((k1 - b) a))^{1/b}, i.e. the break-even point scaled by the
multiplier (k1/(k1 - b))^{1/b}. Tabulated thresholds are exact too:
PCHIP makes g a cubic on each piece and linear past the last breakpoint,
so the first-order condition is a cubic or a line, and the maximizer is
the best of its roots and the breakpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from ._numpy import np
from .errors import DomainError, NoFiniteThreshold, SolverError
from .model import Model, Payoff, validate
from .roots import psi_ratio, solve_k1

__all__ = ["ThresholdSolution", "solve_threshold", "stop_value", "value_fn"]


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
    smooth_fit: str  # "broken" exactly where g has a kink at x*, else "smooth"
    ratio_unimodal: bool


def solve_threshold(model: Model, payoff: Payoff,
                    k1: float | None = None) -> ThresholdSolution:
    """Solve sup_{y >= x0} g(y)/psi(y) for the optimal threshold.

    k1 may be passed in to reuse a solved root, or to price the continuous
    comparison problems with their own exponents; None solves the model's
    characteristic equation.
    """
    model.require_positive_discount()
    validate(model, payoff)
    if k1 is None:
        k1 = solve_k1(model).k1
    if not (k1 > 0 and isfinite(k1)):
        raise SolverError(f"threshold needs a positive finite exponent, got {k1}")

    x_star, multiplier, unimodal, smooth = payoff.threshold(k1, model)
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
        smooth_fit="smooth" if smooth else "broken",
        ratio_unimodal=unimodal,
    )


def _slope_sign(model: Model, payoff: Payoff, k1: float, x: float) -> float:
    # sign-equivalent to d/dx [g/psi]: g'(x+) - g(x) psi'/psi with psi'/psi = k1 u'(x)
    # = k1/(A + B x); psi times it is the first-order condition g' psi - g psi'
    A, B = model.inv_du
    return payoff.deriv(x) - payoff.eval(x) * (k1 / (A + B * x))


def stop_value(model: Model, payoff: Payoff, k1: float, x, y: float):
    """g(max(x, y)) psi(x)/psi(y): the value of stopping at the first passage
    over y, started at x; g(x) at or above y. Vectorized over x."""
    return payoff.eval(np.maximum(x, y)) * psi_ratio(model, k1, x, y)


def value_fn(solution: ThresholdSolution, x):
    """V(x), the stop-at-x* value: g(x) in the stopping region, g(x*)
    psi(x)/psi(x*) below. A float for scalar x, an array otherwise."""
    model = solution.model
    if (np.asarray(x) < model.state_floor).any():  # psi's limit 0 there is a value
        raise DomainError(f"{model.family.value} states must be at least {model.state_floor}")
    return stop_value(model, solution.payoff, solution.k1, x, solution.x_star)
