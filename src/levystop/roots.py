"""The characteristic equation and its positive root.

A candidate value function psi = e^{k u}, in the engine coordinate u
of levystop.model.Model, pins the exponent k1 > 0:

    sigma^2 k (k - B)/2 + c k + lambda E[e^{-kW}] - (r + lambda) = 0,

one equation for both families (B = 0: psi = e^{kx}; B = 1: psi = x^k),
with c the compensated drift and E[e^{-kW}] = E[e^{-gamma k Z}] or
E[(1-Z)^k].

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
from math import copysign, exp, inf, isnan, sqrt

from ._numpy import np
from .errors import BracketFailure, NoPositiveRoot, SolverError
from .model import Model

__all__ = ["RootResult", "continuous_root", "char_eq", "solve_k1", "psi", "psi_ratio"]


@dataclass(frozen=True)
class RootResult:
    """Positive root k1 with its diffusion-only bracket and solve diagnostics."""

    k1: float
    bracket_low: float
    bracket_high: float
    residual: float
    iterations: int


def continuous_root(model: Model, theta: float) -> float:
    """Positive root of the no-jump quadratic at discount theta, with the
    model's compensated drift.

    Evaluated in the cancellation-free form: when the linear coefficient is
    positive the usual -b + sqrt(...) loses digits for small sigma, so the
    conjugate expression 2*theta / (b + sqrt(...)) is used instead.
    """
    if theta < 0:
        raise SolverError("discount for the quadratic root must be nonnegative")
    s2 = model.volatility ** 2
    b = model.compensated_drift - model.ito
    disc = sqrt(b * b + 2.0 * theta * s2)
    if b > 0:
        return 2.0 * theta / (b + disc)
    return (disc - b) / s2


def char_eq(model: Model, k: float) -> float:
    """Value of the characteristic equation's left side at exponent k."""
    lam = model.jump_intensity
    quad = 0.5 * model.volatility ** 2 * k * (k - model.inv_du[1]) + model.compensated_drift * k
    return quad + lam * model.mark_transform(k) - (model.discount + lam)


def _eq_scale(model: Model, k: float) -> float:
    s2 = model.volatility ** 2
    return max(1.0, 0.5 * s2 * k * k, abs(model.compensated_drift) * abs(k),
               model.discount + model.jump_intensity)


def _zero_discount_slope(model: Model) -> float:
    # d/dk of the characteristic equation at k = 0 with r = 0: its sign decides
    # whether the r -> 0 root limit is 0 (upward passage certain) or positive.
    # Netting gamma mbar against E[W] first keeps an arithmetic slope its drift.
    return model.drift - model.ito + model.jump_intensity * (
        model.jump_scale * model.mean_jump - model.mark_mean())


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
    k1, resid, iterations = _brentq(f, lo, hi, flo, fhi)
    if abs(resid) > 1e-12 * _eq_scale(model, k1):
        raise SolverError(f"root residual {resid:.3g} above tolerance")
    return RootResult(k1, lo, hi, resid, iterations)


def _solve_zero_discount(model: Model) -> RootResult:
    lam = model.jump_intensity
    if _zero_discount_slope(model) >= 0.0:
        return RootResult(0.0, 0.0, 0.0, 0.0, 0)
    hi = continuous_root(model, lam)
    f = lambda k: char_eq(model, k)
    lo = hi
    for _ in range(80):
        lo *= 0.5
        flo = f(lo)
        if flo < 0.0:
            break
    else:
        raise NoPositiveRoot("no strictly positive root found at r = 0")
    k1, resid, iterations = _brentq(f, lo, hi, flo, f(hi))
    return RootResult(k1, 0.0, hi, resid, iterations)


# Brent's stopping rule: |x - root| <= _XTOL + _RTOL |x|; _RTOL is 4 eps, rounded up
_XTOL, _RTOL = 1e-15, 8.9e-16


def _brentq(f, xa: float, xb: float, fa: float, fb: float,
            maxiter: int = 100) -> tuple[float, float, int]:
    """Root of f in [xa, xb], f there and the iteration count, by Brent's
    method (Brent 1973, ch. 4), given the endpoint values fa = f(xa) and
    fb = f(xb): one evaluation per iteration. A line-for-line port of
    scipy's brentq.c, so root and count equal scipy.optimize.brentq's at
    _XTOL and _RTOL bit for bit; an endpoint root counts 0 iterations. A
    NaN value, a bracket without a sign change and running out of
    iterations raise SolverError."""
    def value(x: float, fx: float) -> float:
        fx = float(fx)
        if isnan(fx):
            raise SolverError(f"root search failed: The function value at x={x} is NaN; "
                              "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    if fpre == 0.0:
        return xpre, fpre, 0
    if fcur == 0.0:
        return xcur, fcur, 0
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise SolverError("root search failed: f(a) and f(b) must have different signs")
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, iterations
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to inf or nan: never a short step
                stry = inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur, f(xcur))
    raise SolverError(f"root search failed: Failed to converge after {maxiter} iterations.")


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

def psi(model: Model, k: float, x: float) -> float:
    """Increasing solution e^{k u(x)}: e^{kx} (arithmetic) or x^k (geometric)."""
    return exp(k * model.u(x))


def psi_ratio(model: Model, k: float, x, y: float):
    """psi(x)/psi(y) clipped at y, e^{k (u(min(x, y)) - u(y))}: exactly 1 at and
    above y. One numpy expression, so a float, a 0-d array and each element
    of an array give the same bits; a float for scalar x."""
    out = np.exp(k * model.du(np.asarray(np.minimum(x, y)), y))
    return out if out.ndim else float(out)
