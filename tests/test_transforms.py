from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levystop import (
    BadSupport,
    BetaJumps,
    DivergentTransform,
    ExponentialJumps,
    GammaJumps,
    PointMassJumps,
    TabulatedJumps,
    laplace_transform,
    power_transform,
)

ALL_DISTS = [
    GammaJumps(1.0, 1.0),
    GammaJumps(2.5, 4.0),
    ExponentialJumps(3.0),
    BetaJumps(1.25, 5.0),
    PointMassJumps(0.3),
    TabulatedJumps((0.1, 0.5, 0.9), (0.2, 0.5, 0.3)),
]

UNIT_DISTS = [
    BetaJumps(1.25, 5.0),
    BetaJumps(1.25, 2.0),
    PointMassJumps(0.3),
    TabulatedJumps((0.1, 0.5, 0.9), (0.2, 0.5, 0.3)),
]


class TestLaplace:
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_value_at_zero_is_one(self, dist):
        assert laplace_transform(dist, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_closed_form(self):
        assert laplace_transform(GammaJumps(1.0, 1.0), 1.0) == pytest.approx(0.5)
        assert laplace_transform(GammaJumps(2.0, 3.0), 1.5) == pytest.approx((3.0 / 4.5) ** 2)
        # value pinned by independent quadrature of e^{-sz} e^{-z}
        assert laplace_transform(GammaJumps(1.0, 1.0), 0.6297) == pytest.approx(
            0.613609866846659, abs=1e-12)

    def test_exponential_matches_gamma_shape_one(self):
        for s in (0.0, 0.4, 2.7):
            assert laplace_transform(ExponentialJumps(2.0), s) == pytest.approx(
                laplace_transform(GammaJumps(1.0, 2.0), s), abs=1e-14)

    def test_point_mass(self):
        assert laplace_transform(PointMassJumps(0.5), 2.0) == pytest.approx(math.exp(-1.0))

    def test_tabulated(self):
        dist = TabulatedJumps((0.2, 0.8), (0.25, 0.75))
        want = 0.25 * math.exp(-0.2) + 0.75 * math.exp(-0.8)
        assert laplace_transform(dist, 1.0) == pytest.approx(want, abs=1e-14)

    def test_beta_laplace_matches_mpmath_integral(self):
        # the Beta density integrated by mpmath at 30 digits, independent of
        # the Kummer-function identity the package evaluates
        dist = BetaJumps(1.25, 5.0)
        with mpmath.workdps(30):
            norm = mpmath.beta(dist.c, dist.d)
            for s in (0.3, 1.0, 2.5):
                want = mpmath.quad(lambda z: mpmath.exp(-s * z) * z ** (dist.c - 1)
                                   * (1 - z) ** (dist.d - 1), [0, 1]) / norm
                assert laplace_transform(dist, s) == pytest.approx(float(want), rel=1e-13, abs=0.0)

    def test_beta_deep_tail_pinned(self):
        # mpmath at 30 digits: 3.07918313008451613795e-29; the adaptive
        # quadrature this replaced returned 3.0599e-29 here
        assert laplace_transform(BetaJumps(50.0, 80.0), 300.0) == pytest.approx(
            3.0791831300845e-29, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [3.3e-271, -1e-300, 5e-324, 1e-100, 1e-20, 9.99e-9, 1.01e-8])
    def test_beta_tiny_argument(self, s):
        # scipy's hyp1f1 gives inf or nan for |s| below about 1e-195
        c, d = 0.109375, 1.0
        with mpmath.workdps(30):
            want = float(mpmath.hyp1f1(c, c + d, -s))
        assert laplace_transform(BetaJumps(c, d), s) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_negative_s_allowed_inside_strip(self):
        # marks are subtracted from the state, so negative s shows up for
        # negative exponents; finite strictly above -rate
        assert laplace_transform(GammaJumps(1.0, 2.0), -1.0) == pytest.approx(2.0)

    def test_divergence_guard(self):
        with pytest.raises(DivergentTransform):
            laplace_transform(GammaJumps(1.0, 1.0), -1.0)
        with pytest.raises(DivergentTransform):
            laplace_transform(ExponentialJumps(0.5), -0.5)
        with pytest.raises(DivergentTransform):
            laplace_transform(BetaJumps(1.0, 1.0), -1000.0)  # (e^1000 - 1)/1000 overflows

    def test_monte_carlo_cross_check(self):
        gen = np.random.default_rng(314)
        for dist in (GammaJumps(2.0, 3.0), BetaJumps(1.25, 5.0)):
            z = dist.sample(gen, 400_000)
            draws = np.exp(-0.7 * z)
            se = float(np.std(draws)) / math.sqrt(len(draws))
            assert laplace_transform(dist, 0.7) == pytest.approx(
                float(np.mean(draws)), abs=5 * se)


class TestPower:
    def test_beta_closed_form(self):
        # pinned by two independent evaluations: the beta-function identity
        # and direct quadrature agree to 1e-10
        assert power_transform(BetaJumps(1.25, 5.0), 1.719) == pytest.approx(
            0.6962541067491265, abs=1e-12)
        assert power_transform(BetaJumps(1.25, 5.0), 0.0) == pytest.approx(1.0, abs=1e-14)
        assert power_transform(BetaJumps(1.25, 5.0), 1.0) == pytest.approx(
            5.0 / 6.25, abs=1e-12)  # E[1-Z] = d/(c+d)

    def test_beta_quadrature_agreement(self):
        from scipy import integrate, stats
        dist = BetaJumps(1.25, 5.0)
        pdf = stats.beta(dist.c, dist.d).pdf
        for k in (0.5, 1.719, 3.0):
            want, _ = integrate.quad(lambda z: (1.0 - z) ** k * pdf(z), 0.0, 1.0,
                                     epsabs=1e-13, epsrel=1e-12)
            assert power_transform(dist, k) == pytest.approx(want, abs=1e-10)

    def test_point_mass(self):
        assert power_transform(PointMassJumps(0.5), 2.0) == pytest.approx(0.25)

    def test_tabulated(self):
        dist = TabulatedJumps((0.2, 0.8), (0.25, 0.75))
        want = 0.25 * 0.8 ** 1.5 + 0.75 * 0.2 ** 1.5
        assert power_transform(dist, 1.5) == pytest.approx(want, abs=1e-14)

    def test_negative_exponent_guard(self):
        with pytest.raises(DivergentTransform):
            power_transform(BetaJumps(1.25, 5.0), -5.0)
        # finite just inside the strip
        assert power_transform(BetaJumps(1.25, 5.0), -4.9) > 1.0

    def test_requires_unit_interval_support(self):
        with pytest.raises(BadSupport):
            power_transform(GammaJumps(1.0, 1.0), 1.0)
        with pytest.raises(BadSupport):
            power_transform(PointMassJumps(1.5), 1.0)


class TestLogOneMinus:
    """E[ln(1-Z)], each unit-mark law's log_mean()."""

    def test_beta_digamma_formula(self):
        # digamma(5) - digamma(6.25)
        assert BetaJumps(1.25, 5.0).log_mean() == pytest.approx(-0.24433585845193573, abs=1e-14)
        assert BetaJumps(1.0, 1.0).log_mean() == pytest.approx(-1.0, abs=1e-12)

    def test_point_mass(self):
        assert PointMassJumps(0.5).log_mean() == pytest.approx(math.log(0.5))

    def test_tabulated(self):
        dist = TabulatedJumps((0.2, 0.5), (0.5, 0.5))
        want = 0.5 * math.log(0.8) + 0.5 * math.log(0.5)
        assert dist.log_mean() == pytest.approx(want, abs=1e-14)

    def test_is_power_transform_derivative_at_zero(self):
        dist = BetaJumps(1.25, 5.0)
        h = 1e-6
        fd = (power_transform(dist, h) - power_transform(dist, -h)) / (2 * h)
        assert dist.log_mean() == pytest.approx(fd, abs=1e-8)


class TestBetaMpmathOracle:
    """Beta transforms against mpmath at 30 digits over drawn laws and arguments."""

    @given(c=st.floats(0.1, 100.0), d=st.floats(0.1, 100.0), s=st.floats(-50.0, 1000.0))
    @settings(max_examples=200, deadline=None)
    def test_laplace(self, c, d, s):
        with mpmath.workdps(30):
            want = float(mpmath.hyp1f1(c, c + d, -s))
        assert laplace_transform(BetaJumps(c, d), s) == pytest.approx(want, rel=1e-11, abs=0.0)

    @given(c=st.floats(0.1, 100.0), d=st.floats(0.1, 100.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_power(self, c, d, frac):
        k = -0.9 * d + frac * (20.0 + 0.9 * d)  # k in [-0.9 d, 20]
        with mpmath.workdps(30):
            want = float(mpmath.beta(c, d + k) / mpmath.beta(c, d))
        assert power_transform(BetaJumps(c, d), k) == pytest.approx(want, rel=1e-11, abs=0.0)

    @given(c=st.floats(0.1, 100.0), d=st.floats(0.1, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_log_one_minus(self, c, d):
        with mpmath.workdps(30):
            want = float(mpmath.digamma(d) - mpmath.digamma(c + d))
        assert BetaJumps(c, d).log_mean() == pytest.approx(want, rel=1e-11, abs=0.0)


class TestShapeProperties:
    @given(c=st.floats(0.5, 5.0), d=st.floats(0.5, 5.0),
           s1=st.floats(0.0, 4.0), s2=st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_beta_power_decreasing_in_exponent(self, c, d, s1, s2):
        lo, hi = sorted((s1, s2))
        dist = BetaJumps(c, d)
        assert power_transform(dist, hi) <= power_transform(dist, lo) + 1e-12

    @given(shape=st.floats(0.5, 4.0), rate=st.floats(0.5, 4.0),
           s=st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma_laplace_convex(self, shape, rate, s):
        dist = GammaJumps(shape, rate)
        h = 0.1
        mid = laplace_transform(dist, s + h)
        chord = 0.5 * (laplace_transform(dist, s) + laplace_transform(dist, s + 2 * h))
        assert mid <= chord + 1e-12

    @pytest.mark.parametrize("dist", UNIT_DISTS, ids=str)
    def test_jensen_bounds(self, dist):
        # e^{k E[ln(1-Z)]} <= E[(1-Z)^k] <= (1-E[Z])^k ordering flips at k=1
        k = 2.0
        lower = math.exp(k * dist.log_mean())
        assert power_transform(dist, k) >= lower - 1e-12
