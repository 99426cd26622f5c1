"""A jump law defined outside the package works everywhere the built-in laws do.

The law is one class with the jump-law methods; nothing in the package
is told about it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
import pytest

from levystop import (
    Family,
    Model,
    adjusted_drift,
    continuous_root,
    estimate_laplace,
    psi,
    solve_k1,
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
