"""A jump law or payoff defined outside the package works everywhere the
built-in ones do.

Each is one class with the jump-law or payoff methods; nothing in the
package is told about it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
import pytest

from levystop import (
    CappedCall,
    Family,
    Model,
    adjusted_drift,
    continuous_root,
    estimate_laplace,
    policy_value,
    psi,
    sandwich,
    solve_k1,
    solve_threshold,
    value_fn,
)


@dataclass(frozen=True)
class UniformJumps:
    """Uniform(0, b) marks."""

    b: float

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.b)

    def unit_marks(self) -> bool:
        return self.b <= 1.0

    def mean(self) -> float:
        return 0.5 * self.b

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.uniform(0.0, self.b, size)

    def laplace(self, s: float) -> float:
        sb = s * self.b
        return 1.0 if sb == 0.0 else -math.expm1(-sb) / sb


@dataclass(frozen=True)
class UncappedCall:
    """g(x) = (x - I)^+."""

    I: float

    def eval(self, x):
        out = np.maximum(np.asarray(x, dtype=float) - self.I, 0.0)
        return out if out.ndim else float(out)

    def deriv(self, x: float) -> float:
        return 1.0 if x >= self.I else 0.0

    def break_even(self) -> float:
        return self.I

    def threshold(self, k1: float, model: Model) -> tuple[float, float | None, bool]:
        # the root of (x - I) k1 u'(x) = 1 with 1/u'(x) = A + B x; g is C1 above I
        A, B = model.inv_du
        return (k1 * self.I + A) / (k1 - B), (k1 / (k1 - B) if B else None), True


MODEL = Model(Family.ARITHMETIC, drift=0.03, volatility=0.15, jump_intensity=0.3,
              jump_dist=UniformJumps(1.5), discount=0.05, jump_scale=0.8)


def test_root_matches_mpmath():
    m = MODEL
    gamma, lam, b = m.jump_scale, m.jump_intensity, m.jump_dist.b
    c = m.drift + gamma * lam * 0.5 * b

    def f(k):
        s = gamma * k * b
        return (m.volatility ** 2 * k * k / 2 + c * k + lam * (1 - mpmath.exp(-s)) / s
                - (m.discount + lam))

    res = solve_k1(m)
    with mpmath.workdps(30):
        want = float(mpmath.findroot(f, (res.bracket_low, res.bracket_high), solver="anderson"))
    assert res.iterations > 0
    assert res.k1 == pytest.approx(want, rel=1e-12, abs=0.0)
    # the adjusted drift reproduces k1 through the same transform
    no_jumps = replace(m, drift=adjusted_drift(m, res.k1), jump_intensity=0.0, jump_dist=None)
    assert continuous_root(no_jumps, m.discount + lam) == pytest.approx(res.k1, rel=1e-12)


def test_monte_carlo_matches_first_passage_value():
    x, y = 0.5, 1.5
    k1 = solve_k1(MODEL).k1
    est = estimate_laplace(MODEL, x, y, 20_000, seed=11)
    want = psi(MODEL, k1, x) / psi(MODEL, k1, y)
    assert abs(est.mean - want) < 4.0 * est.stderr + est.truncation_bound


def test_payoff_solves_sandwiches_and_matches_monte_carlo():
    payoff = UncappedCall(1.0)
    sol = solve_threshold(MODEL, payoff)
    assert sol.x_star == pytest.approx(1.0 + 1.0 / sol.k1, rel=1e-15)
    assert sol.multiplier is None
    assert sol.smooth_fit == "smooth"
    assert abs(sol.smooth_fit_gap) < 1e-12
    # a cap far above x* leaves the capped call's threshold and value alone
    capped = solve_threshold(MODEL, CappedCall(K=100.0, I=1.0))
    assert (sol.x_star, sol.value_at_star) == (capped.x_star, capped.value_at_star)

    report = sandwich(MODEL, payoff)  # raises if the envelopes' ordering fails
    assert report.solution.x_star == sol.x_star
    assert report.x_star_low <= sol.x_star <= report.x_star_high

    x = 0.5
    value = value_fn(sol, x)
    assert value == pytest.approx((sol.x_star - 1.0) * psi(MODEL, sol.k1, x)
                                  / psi(MODEL, sol.k1, sol.x_star), rel=1e-12)
    est = policy_value(MODEL, payoff, x, sol.x_star, 20_000, seed=5)
    assert abs(est.mean - value) <= 4.0 * est.stderr
