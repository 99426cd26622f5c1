"""Diffusion sandwich bounds and jump-risk-adjusted quantities.

Replacing the jumps by their compensator leaves a continuous diffusion
with the same compensated drift; discounting it at r overprices the
claim and discounting at r + lambda underprices it:

    V~_{r+lambda}(x) <= V_lambda(x) <= V~_r(x)

with thresholds ordered the same way. Three scalar adjustments each
collapse the jump model onto a continuous one that shares k1:

  theta* = r + lambda (1 - E[transform at k1])   adjusted discount
  mu~    = drift + (lambda/k1) E[transform at k1]  adjusted drift
           (continuous root at r + lambda reproduces k1)
  mu^    = r/k1, per unit state for geometric dynamics: the growth
           rate of the deterministic flow whose optimally timed payoff
           reproduces V exactly, stopped after t* = (1/r) ln(psi(x*)/psi(x)).
"""
from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .errors import SolverError
from .model import Model, Payoff
from .roots import solve_k1
from .stopping import ThresholdSolution, solve_threshold, value_fn

__all__ = [
    "SandwichReport",
    "sandwich",
    "adjusted_discount",
    "adjusted_drift",
    "certainty_growth",
    "certainty_time",
]


@dataclass(frozen=True)
class SandwichReport:
    """Jump solution plus its two continuous-diffusion envelopes."""

    k_low: float            # quadratic root at theta = r (smallest exponent)
    k_high: float           # quadratic root at theta = r + lambda
    x_star_low: float       # threshold of the r + lambda comparison problem
    x_star_high: float      # threshold of the r comparison problem
    theta_star: float
    mu_tilde: float
    grid: np.ndarray
    v_low: np.ndarray
    v: np.ndarray
    v_high: np.ndarray

    solution: ThresholdSolution


def adjusted_discount(model: Model, k1: float) -> float:
    """theta* in (r, r + lambda]: the discount a continuous diffusion with the
    compensated drift must carry to share the exponent k1."""
    lam = model.jump_intensity
    return model.discount + lam * (1.0 - model.mark_transform(k1))


def adjusted_drift(model: Model, k1: float) -> float:
    """Compensated drift enlarged so the root at r + lambda is k1:
    c + (lambda/k1) E[e^{-k1 W}]."""
    return model.compensated_drift + (model.jump_intensity / k1) * model.mark_transform(k1)


def certainty_growth(model: Model, k1: float) -> float:
    """mu^ = r/k1: the sure drift du = mu^ dt of the engine coordinate u."""
    model.require_positive_discount()
    if k1 <= 0:
        raise SolverError("certainty growth needs k1 > 0")
    return model.discount / k1


def certainty_time(model: Model, k1: float, x: float, x_star: float) -> float:
    """t* = (1/r) ln(psi(x*)/psi(x))^+ = k1 (u(x*) - u(x))^+ / r: deterministic
    ride time to the threshold."""
    model.require_positive_discount()
    if x >= x_star:
        return 0.0
    model.require_states(x)
    return k1 * model.du(x_star, x) / model.discount


def _default_grid(model: Model, payoff: Payoff, x_star_high: float) -> np.ndarray:
    # from 5 below x0 (u = x), or from x0/2 (u = ln x), with 1/u'(x) = A + B x
    x0 = payoff.break_even()
    A, B = model.inv_du
    return np.linspace(x0 - 5.0 * A - 0.5 * B * x0, 1.5 * x_star_high, 200)


def sandwich(model: Model, payoff: Payoff, grid: np.ndarray | None = None) -> SandwichReport:
    """Solve the jump problem and its two continuous envelopes on a grid
    (by default 200 points from below the break-even point to 1.5 times
    the upper envelope's threshold).

    The ordering v_low <= v <= v_high and the threshold ordering are
    asserted pointwise to 1e-10; a violation means a solver bug, not a
    statistical excursion, so it raises.
    """
    root = solve_k1(model)
    sol = solve_threshold(model, payoff, root.k1)
    k_low, k_high = root.bracket_low, root.bracket_high
    sol_high = solve_threshold(model, payoff, k_low)    # discount r: upper value
    sol_low = solve_threshold(model, payoff, k_high)    # discount r + lambda: lower value

    if not (sol_low.x_star <= sol.x_star + 1e-9 and sol.x_star <= sol_high.x_star + 1e-9):
        raise SolverError("sandwich threshold ordering violated")

    if grid is None:
        grid = _default_grid(model, payoff, sol_high.x_star)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    grid = grid[grid >= model.state_floor]

    v, v_low, v_high = (value_fn(s, grid) for s in (sol, sol_low, sol_high))
    worst = float(np.max(np.maximum(v_low - v, v - v_high), initial=-np.inf))
    if worst > 1e-10:
        raise SolverError(f"sandwich ordering violated by {worst:.3g}")

    return SandwichReport(
        k_low=k_low,
        k_high=k_high,
        x_star_low=sol_low.x_star,
        x_star_high=sol_high.x_star,
        theta_star=adjusted_discount(model, root.k1),
        mu_tilde=adjusted_drift(model, root.k1),
        grid=grid,
        v_low=v_low,
        v=v,
        v_high=v_high,
        solution=sol,
    )
