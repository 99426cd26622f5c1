from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levystop import (
    BetaJumps,
    DomainError,
    Family,
    GammaJumps,
    Model,
    PointMassJumps,
    char_eq,
    continuous_root,
    psi,
    solve_k1,
)

from conftest import FIG2_K1, TABLE1_K1, fig2_model, fig3_model, table1_model, table2_model


def bisect_oracle(model, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Plain bisection on the characteristic equation, independent of brentq."""
    flo, fhi = char_eq(model, lo), char_eq(model, hi)
    assert flo <= 0.0 <= fhi, "oracle bracket must straddle the root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if char_eq(model, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestContinuousRoot:
    def test_arithmetic_closed_form(self):
        # 0.5 sigma^2 k^2 + mu k - theta = 0 with sigma = 0.05, mu = 0.04,
        # theta = 0.05: k = -16 + sqrt(296)
        m = Model(Family.ARITHMETIC, 0.04, 0.05, 0.0, None, 0.05)
        want = -16.0 + math.sqrt(296.0)
        assert continuous_root(m, 0.05) == pytest.approx(want, abs=1e-12)

    def test_geometric_closed_form(self):
        m = fig2_model()
        # drift override c = 0.029 makes these the bracket exponents
        assert continuous_root(m, 0.07) == pytest.approx(2.045222154178574, abs=1e-12)
        assert continuous_root(m, 0.05) == pytest.approx(1.5698866482558416, abs=1e-12)

    def test_quadratic_residual_is_tiny(self):
        for m in (table1_model(0.25, 0.2), table2_model(0.15, 0.1), fig3_model()):
            for theta in (0.01, 0.05, 0.2):
                k = continuous_root(m, theta)
                s2 = m.volatility ** 2
                c = m.compensated_drift
                if m.family is Family.ARITHMETIC:
                    res = 0.5 * s2 * k * k + c * k - theta
                else:
                    res = 0.5 * s2 * k * (k - 1.0) + c * k - theta
                assert abs(res) < 1e-12 * max(1.0, theta)

    def test_small_volatility_stable(self):
        # conjugate form keeps full precision where -b + sqrt(b^2 + eps)
        # would cancel; the limit is theta / b
        m = Model(Family.ARITHMETIC, 0.1, 1e-6, 0.0, None, 0.05)
        k = continuous_root(m, 0.05)
        assert k == pytest.approx(0.5, rel=1e-10)
        res = 0.5 * 1e-12 * k * k + 0.1 * k - 0.05
        assert abs(res) < 1e-15

    def test_drift_override(self):
        m = table1_model()
        shifted = replace(m, drift=0.2, jump_intensity=0.0, jump_dist=None)
        assert continuous_root(shifted, 0.05) != continuous_root(m, 0.05)
        k = continuous_root(shifted, 0.05)
        assert 0.5 * m.volatility ** 2 * k * k + 0.2 * k - 0.05 == pytest.approx(0.0, abs=1e-14)

    def test_zero_theta(self):
        m = Model(Family.ARITHMETIC, 0.04, 0.1, 0.0, None, 0.0)
        assert continuous_root(m, 0.0) == 0.0


class TestCharEq:
    def test_reference_value_near_root(self):
        m = table1_model(sigma=0.05, lam=0.1)
        assert abs(char_eq(m, 0.6297)) < 1e-4

    def test_no_jump_reduces_to_quadratic(self):
        m = Model(Family.ARITHMETIC, 0.04, 0.05, 0.0, None, 0.05)
        k = -16.0 + math.sqrt(296.0)
        assert char_eq(m, k) == pytest.approx(0.0, abs=1e-14)

    def test_sign_change_across_root(self):
        m = fig2_model()
        assert char_eq(m, FIG2_K1 - 0.01) < 0
        assert char_eq(m, FIG2_K1 + 0.01) > 0


class TestSolveK1:
    def test_reference_roots(self):
        res = solve_k1(table1_model(sigma=0.05, lam=0.1))
        assert res.k1 == pytest.approx(TABLE1_K1, abs=1e-10)
        res2 = solve_k1(fig2_model())
        assert res2.k1 == pytest.approx(FIG2_K1, abs=1e-10)

    def test_matches_bisection_oracle(self):
        for m in (table1_model(0.05, 0.1), table1_model(0.25, 0.2),
                  table2_model(0.1, 0.2), fig2_model(), fig3_model()):
            res = solve_k1(m)
            want = bisect_oracle(m, res.bracket_low, res.bracket_high)
            assert res.k1 == pytest.approx(want, abs=5e-12)

    def test_bracket_contains_root(self):
        for m in (table1_model(0.15, 0.2), table2_model(0.2, 0.1), fig2_model()):
            res = solve_k1(m)
            assert res.bracket_low <= res.k1 <= res.bracket_high
            assert res.bracket_low == pytest.approx(continuous_root(m, m.discount))
            assert res.bracket_high == pytest.approx(
                continuous_root(m, m.discount + m.jump_intensity))

    def test_residual_reported(self):
        res = solve_k1(fig2_model())
        assert abs(res.residual) < 1e-12
        assert res.iterations > 0

    def test_no_jumps_returns_quadratic_root(self):
        m = Model(Family.ARITHMETIC, 0.04, 0.05, 0.0, None, 0.05)
        res = solve_k1(m)
        # conjugate form avoids the cancellation in -16 + sqrt(296)
        assert res.k1 == pytest.approx(-16.0 + math.sqrt(296.0), abs=1e-14)
        assert res.bracket_low == res.k1 == res.bracket_high
        assert res.iterations == 0

    def test_small_intensity_continuous_in_lambda(self):
        for base in (table1_model(0.1, 0.0), table2_model(0.1, 0.0)):
            tiny = Model(base.family, base.drift, base.volatility, 1e-10,
                         BetaJumps(1.25, 5.0) if base.family is Family.GEOMETRIC
                         else GammaJumps(1.0, 1.0), base.discount)
            assert solve_k1(tiny).k1 == pytest.approx(solve_k1(base).k1, abs=1e-6)

    def test_zero_discount_certain_passage(self):
        # mu > 0: the state drifts up, passage is certain, root collapses to 0
        m = Model(Family.ARITHMETIC, 0.04, 0.1, 0.1, GammaJumps(1.0, 1.0), 0.0)
        res = solve_k1(m)
        assert res.k1 == 0.0

    def test_zero_discount_uncertain_passage(self):
        # mu < 0: passage fails with positive probability, root is positive
        m = Model(Family.ARITHMETIC, -0.02, 0.1, 0.1, GammaJumps(1.0, 1.0), 0.0)
        res = solve_k1(m)
        assert res.k1 > 0.0
        assert abs(char_eq(m, res.k1)) < 1e-10
        # psi(k1, x) = e^{k1 x} prices the hitting indicator; the hit
        # probability from below must be strictly less than one
        assert math.exp(res.k1 * (0.0 - 1.0)) < 1.0

    def test_zero_discount_geometric(self):
        # alpha - sigma^2/2 + lambda E[ln(1-Z)] < 0 forces a positive root
        m = Model(Family.GEOMETRIC, 0.001, 0.3, 0.2, BetaJumps(1.25, 5.0), 0.0)
        res = solve_k1(m)
        assert res.k1 > 0.0
        assert abs(char_eq(m, res.k1)) < 1e-10

    def test_monotone_in_sigma(self):
        ks = [solve_k1(table1_model(sigma=s, lam=0.1)).k1 for s in (0.05, 0.1, 0.2)]
        assert ks[0] > ks[1] > ks[2]

    def test_monotone_in_lambda_convex_regime(self):
        ks = [solve_k1(table2_model(sigma=0.1, lam=l)).k1 for l in (0.0, 0.1, 0.2)]
        assert ks[0] > ks[1] > ks[2]

    def test_monotone_in_lambda_concave_regime(self):
        # r < alpha: jumps raise the root instead
        ks = [solve_k1(fig3_model(sigma=0.25))]
        base = Model(Family.GEOMETRIC, 0.04, 0.25, 0.0, None, 0.02)
        k0 = solve_k1(base).k1
        assert ks[0].k1 > k0


class TestSpeed:
    def test_arithmetic_beta_root_under_a_millisecond(self):
        # Beta marks on the arithmetic family have a closed-form Laplace
        # transform; a root costs a handful of char_eq calls, no quadrature
        model = Model(Family.ARITHMETIC, drift=0.04, volatility=0.1, jump_intensity=0.2,
                      jump_dist=BetaJumps(1.25, 5.0), discount=0.05)
        times = []
        for _ in range(50):
            t0 = time.perf_counter()
            solve_k1(model)
            times.append(time.perf_counter() - t0)
        assert statistics.median(times) < 1e-3


class TestPsi:
    def test_arithmetic(self):
        m = table1_model()
        assert psi(m, 1.2, 0.0) == 1.0
        assert psi(m, 1.2, 2.0) == pytest.approx(math.exp(2.4))
        # negative states are fine for arithmetic dynamics
        assert psi(m, 1.2, -1.0) == pytest.approx(math.exp(-1.2))

    def test_geometric(self):
        m = fig2_model()
        assert psi(m, 2.0, 3.0) == pytest.approx(9.0)

    def test_geometric_domain(self):
        m = fig2_model()
        with pytest.raises(DomainError):
            psi(m, 2.0, 0.0)
        with pytest.raises(DomainError):
            psi(m, 2.0, -1.0)


class TestBracketProperty:
    @given(sigma=st.floats(0.02, 0.5), mu=st.floats(-0.05, 0.1),
           lam=st.floats(0.0, 0.4), r=st.floats(0.005, 0.12),
           shape=st.floats(0.5, 3.0), rate=st.floats(0.5, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_bracket(self, sigma, mu, lam, r, shape, rate):
        m = Model(Family.ARITHMETIC, mu, sigma, lam,
                  GammaJumps(shape, rate) if lam > 0 else None, r)
        res = solve_k1(m)
        assert res.bracket_low - 1e-12 <= res.k1 <= res.bracket_high + 1e-12
        assert res.k1 > 0.0

    @given(sigma=st.floats(0.02, 0.5), alpha=st.floats(0.003, 0.09),
           lam=st.floats(0.0, 0.4), r=st.floats(0.005, 0.12),
           c=st.floats(0.5, 5.0), d=st.floats(0.5, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_geometric_bracket(self, sigma, alpha, lam, r, c, d):
        m = Model(Family.GEOMETRIC, alpha, sigma, lam,
                  BetaJumps(c, d) if lam > 0 else None, r)
        res = solve_k1(m)
        assert res.bracket_low - 1e-12 <= res.k1 <= res.bracket_high + 1e-12
        assert res.k1 > 0.0

    @given(z=st.floats(0.05, 0.9), lam=st.floats(0.01, 0.4))
    @settings(max_examples=40, deadline=None)
    def test_point_mass_bracket(self, z, lam):
        m = Model(Family.GEOMETRIC, 0.03, 0.15, lam, PointMassJumps(z), 0.05)
        res = solve_k1(m)
        assert res.bracket_low <= res.k1 <= res.bracket_high
