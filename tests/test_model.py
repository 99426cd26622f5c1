from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from levystop import (
    BadJumpSupport,
    BadPayoff,
    BetaJumps,
    CappedCall,
    ExponentialJumps,
    Family,
    GammaJumps,
    InvalidModel,
    Model,
    NonPositiveVolatility,
    PointMassJumps,
    PowerCall,
    TabulatedJumps,
    TabulatedPayoff,
    model_from_config,
    model_to_config,
    payoff_eval,
    validate,
)
from levystop.model import _pchip_slopes, break_even

from conftest import fig2_model, table1_model


class TestJumpDists:
    def test_means(self):
        assert GammaJumps(1.0, 1.0).mean() == 1.0
        assert GammaJumps(2.0, 4.0).mean() == 0.5
        assert ExponentialJumps(5.0).mean() == 0.2
        assert BetaJumps(1.25, 5.0).mean() == pytest.approx(0.2)
        assert PointMassJumps(0.3).mean() == 0.3
        assert TabulatedJumps((0.1, 0.5), (0.25, 0.75)).mean() == pytest.approx(0.4)

    def test_parameter_validation(self):
        with pytest.raises(InvalidModel):
            GammaJumps(0.0, 1.0)
        with pytest.raises(InvalidModel):
            GammaJumps(1.0, -2.0)
        with pytest.raises(InvalidModel):
            ExponentialJumps(0.0)
        with pytest.raises(InvalidModel):
            BetaJumps(1.0, 0.0)
        with pytest.raises(InvalidModel):
            PointMassJumps(-0.1)
        with pytest.raises(InvalidModel):
            TabulatedJumps((0.1, 0.2), (0.5, 0.6))  # weights exceed 1
        with pytest.raises(InvalidModel):
            TabulatedJumps((-0.1, 0.2), (0.5, 0.5))
        with pytest.raises(InvalidModel):
            TabulatedJumps((0.1,), (0.5, 0.5))

    @pytest.mark.parametrize("make", [
        lambda bad: GammaJumps(bad, 1.0),
        lambda bad: GammaJumps(1.0, bad),
        lambda bad: ExponentialJumps(bad),
        lambda bad: BetaJumps(bad, 5.0),
        lambda bad: BetaJumps(1.25, bad),
        lambda bad: PointMassJumps(bad),
        lambda bad: TabulatedJumps((0.1, bad), (0.5, 0.5)),
        lambda bad: TabulatedJumps((0.1, 0.2), (0.5, bad)),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_parameters_must_be_finite(self, make, bad):
        with pytest.raises(InvalidModel, match="finite"):
            make(bad)

    def test_beta_sum_must_be_finite(self):
        # finite c and d whose sum overflows: the mean would read 1e308/inf = 0
        with pytest.raises(InvalidModel, match="c \\+ d must be finite"):
            BetaJumps(1e308, 1e308)
        assert BetaJumps(1e307, 1e307).mean() == 0.5

    def test_support(self):
        assert GammaJumps(1.0, 1.0).support == (0.0, np.inf)
        assert BetaJumps(2.0, 2.0).support == (0.0, 1.0)
        assert PointMassJumps(0.4).support == (0.4, 0.4)
        assert TabulatedJumps((0.2, 0.7), (0.5, 0.5)).support == (0.2, 0.7)

    def test_unit_marks(self):
        assert not GammaJumps(1.0, 1.0).unit_marks()
        assert not ExponentialJumps(1.0).unit_marks()
        assert BetaJumps(1.25, 5.0).unit_marks()
        assert PointMassJumps(0.99).unit_marks()
        assert not PointMassJumps(1.0).unit_marks()
        assert TabulatedJumps((0.1, 0.9), (0.5, 0.5)).unit_marks()
        assert not TabulatedJumps((0.1, 1.0), (0.5, 0.5)).unit_marks()

    def test_sampling_matches_law(self):
        gen = np.random.default_rng(42)
        for dist in (GammaJumps(2.0, 3.0), ExponentialJumps(4.0),
                     BetaJumps(1.25, 5.0), PointMassJumps(0.3),
                     TabulatedJumps((0.1, 0.5, 0.8), (0.2, 0.5, 0.3))):
            draws = dist.sample(gen, 200_000)
            assert draws.shape == (200_000,)
            assert float(np.mean(draws)) == pytest.approx(dist.mean(), abs=5e-3)
            lo, hi = dist.support
            assert draws.min() >= lo
            assert draws.max() <= hi

    def test_exponential_samples_are_gamma_shape_one(self):
        # the exponential law is the gamma law with shape 1: equal streams, equal draws
        stream = lambda: np.random.Generator(np.random.Philox(7))
        a = ExponentialJumps(2.5).sample(stream(), 10_000)
        b = GammaJumps(1.0, 2.5).sample(stream(), 10_000)
        assert np.array_equal(a, b)
        assert ExponentialJumps(2.5).mean() == GammaJumps(1.0, 2.5).mean()

    def test_sampling_deterministic(self):
        dist = TabulatedJumps((0.1, 0.5), (0.4, 0.6))
        a = dist.sample(np.random.default_rng(7), 100)
        b = dist.sample(np.random.default_rng(7), 100)
        assert np.array_equal(a, b)


class TestCappedCall:
    def test_eval(self):
        g = CappedCall(K=2.0, I=1.0)
        assert payoff_eval(g, 0.5) == 0.0
        assert payoff_eval(g, 1.0) == 0.0
        assert payoff_eval(g, 1.5) == 0.5
        assert payoff_eval(g, 2.0) == 1.0
        assert payoff_eval(g, 10.0) == 1.0
        np.testing.assert_allclose(payoff_eval(g, [0.0, 1.25, 3.0]), [0.0, 0.25, 1.0])

    def test_deriv_sides(self):
        g = CappedCall(K=2.0, I=1.0)
        assert g.deriv(0.5) == 0.0
        assert g.deriv(1.5) == 1.0
        assert g.deriv(5.0) == 0.0

    def test_kinks_and_break_even(self):
        # at its kinks the right-hand slope is taken: the strike starts it,
        # the cap ends it
        g = CappedCall(K=2.0, I=1.0)
        assert g.deriv(1.0) == 1.0
        assert g.deriv(2.0) == 0.0
        assert break_even(g) == g.break_even() == 1.0

    def test_requires_cap_above_strike(self):
        with pytest.raises(BadPayoff):
            CappedCall(K=1.0, I=1.0)


class TestPowerCall:
    def test_eval(self):
        g = PowerCall(a=2.0, b=2.0, K=8.0)
        assert payoff_eval(g, 1.0) == 0.0
        assert payoff_eval(g, 2.0) == 0.0
        assert payoff_eval(g, 3.0) == 10.0
        assert break_even(g) == 2.0

    def test_identity_payoff(self):
        g = PowerCall(a=1.0, b=1.0, K=1.0)
        assert payoff_eval(g, 2.5) == 1.5
        assert break_even(g) == 1.0

    def test_concave_root_payoff(self):
        g = PowerCall(a=1.0, b=0.2, K=1.0)
        assert break_even(g) == 1.0
        assert payoff_eval(g, 32.0) == pytest.approx(1.0)
        assert g.deriv(32.0) == pytest.approx(0.2 * 32.0 ** -0.8)

    def test_deriv_at_break_even(self):
        g = PowerCall(a=1.0, b=2.0, K=4.0)
        assert g.deriv(2.0 - 1e-12) == 0.0
        assert g.deriv(2.0) == 4.0

    def test_parameter_validation(self):
        with pytest.raises(BadPayoff):
            PowerCall(a=0.0, b=1.0, K=1.0)
        with pytest.raises(BadPayoff):
            PowerCall(a=1.0, b=-1.0, K=1.0)
        with pytest.raises(BadPayoff):
            PowerCall(a=1.0, b=1.0, K=0.0)


class TestTabulatedPayoff:
    def test_interpolates_nodes(self):
        g = TabulatedPayoff((0.0, 1.0, 2.0, 3.0), (-1.0, 0.0, 0.8, 1.0))
        np.testing.assert_allclose(payoff_eval(g, [0.0, 1.0, 2.0, 3.0]),
                                   [-1.0, 0.0, 0.8, 1.0], atol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_values_build_without_warnings(self):
        # subnormal secants overflow inside PCHIP's slope formula
        g = TabulatedPayoff((0, 1, 2, 3), (-1, 5e-324, 1e-323, 1))
        assert 0.0 < g.break_even() <= 1.0
        assert g.eval(2.0) == 1e-323
        assert g.eval(3.0) == 1.0

    def test_monotone_between_nodes(self):
        g = TabulatedPayoff((0.0, 1.0, 2.0, 3.0), (-1.0, 0.0, 0.8, 1.0))
        x = np.linspace(0.0, 3.0, 500)
        vals = payoff_eval(g, x)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_extensions(self):
        g = TabulatedPayoff((1.0, 2.0, 2.5, 3.0), (0.0, 1.0, 1.0, 1.0))
        # constant below the first breakpoint, terminal slope above the last
        assert payoff_eval(g, 0.2) == 0.0
        assert payoff_eval(g, 100.0) == pytest.approx(1.0)  # flat tail
        assert g.deriv(50.0) == 0.0

    def test_linear_tail(self):
        g = TabulatedPayoff((0.0, 1.0), (-1.0, 1.0))
        # two nodes make a straight line; extension keeps slope 2
        assert payoff_eval(g, 3.0) == pytest.approx(5.0)
        assert g.deriv(3.0) == pytest.approx(2.0)

    def test_deriv_matches_finite_difference(self):
        g = TabulatedPayoff((0.0, 1.0, 2.0, 3.0), (-1.0, -0.2, 0.9, 1.4))
        for x in (0.4, 1.3, 2.6):
            h = 1e-6
            fd = (payoff_eval(g, x + h) - payoff_eval(g, x - h)) / (2 * h)
            assert g.deriv(x) == pytest.approx(fd, abs=1e-5)

    def test_break_even_bisection(self):
        # straight line x - 1 on [0, 2] crosses at 1
        g = TabulatedPayoff((0.0, 2.0), (-1.0, 1.0))
        assert break_even(g) == pytest.approx(1.0, abs=1e-9)

    def test_break_even_at_node(self):
        g = TabulatedPayoff((0.5, 1.5, 2.5), (-1.0, 0.0, 2.0))
        assert break_even(g) == pytest.approx(1.5, abs=1e-9)

    def test_validation(self):
        with pytest.raises(BadPayoff):
            TabulatedPayoff((0.0, 1.0), (1.0, 2.0))  # positive everywhere
        with pytest.raises(BadPayoff):
            TabulatedPayoff((0.0, 1.0), (-2.0, -1.0))  # never positive
        with pytest.raises(BadPayoff):
            TabulatedPayoff((0.0, 1.0, 0.5), (-1.0, 0.0, 1.0))  # not increasing
        with pytest.raises(BadPayoff):
            TabulatedPayoff((0.0, 1.0, 2.0), (-1.0, 1.0, 0.5))  # values dip
        with pytest.raises(BadPayoff):
            TabulatedPayoff((0.0,), (-1.0,))
        bp = tuple(float(i) for i in range(65))
        vals = tuple(float(i - 1) for i in range(65))
        with pytest.raises(BadPayoff):
            TabulatedPayoff(bp, vals)  # 65 breakpoints: one too many


@st.composite
def tabulated_payoffs(draw):
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n - 1, max_size=n - 1))
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                          min_size=n - 1, max_size=n - 1))
    bp = [draw(st.floats(-5.0, 5.0))]
    vals = [-draw(st.floats(0.0, 3.0))]
    for gap, step in zip(gaps, steps):
        bp.append(bp[-1] + gap)
        vals.append(vals[-1] + step)
    if vals[-1] <= 0.0:
        vals[-1] = draw(st.floats(1e-3, 2.0))
    return TabulatedPayoff(tuple(bp), tuple(vals))


def reference_spline(g: TabulatedPayoff) -> PchipInterpolator:
    """scipy's PCHIP through the same nodes: the reference TabulatedPayoff
    reproduces, bit for bit."""
    with np.errstate(over="ignore"):  # a subnormal secant overflows the harmonic mean
        return PchipInterpolator(np.asarray(g.breakpoints), np.asarray(g.values),
                                 extrapolate=False)


class TestTabulatedScalarPath:
    """A float argument skips numpy; the result must be the spline's, bit for bit."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(g=tabulated_payoffs(), u=st.floats(0.0, 1.0, exclude_max=True),
           d=st.floats(1e-9, 10.0))
    # 3 + u * 0.5 rounds to bp[-1] = 3.5
    @example(g=TabulatedPayoff((0.0, 1.0, 2.0, 3.0, 3.5), (-0.0, 0.0, 0.0, 0.0, 1.0)),
             u=0.9999999999999999, d=1.0)
    def test_bitwise_equal_to_spline(self, g, u, d):
        bp = g.breakpoints
        spline = reference_spline(g)
        inside = [a + u * (b - a) for a, b in zip(bp, bp[1:])]
        deriv = spline.derivative()
        for x in inside + list(bp):
            assert payoff_eval(g, x) == float(spline(x))
        for x in inside + list(bp) + [bp[0] - d, bp[-1] + d]:
            value = payoff_eval(g, x)
            assert type(value) is float
            assert value == payoff_eval(g, np.array([x]))[0]
        # deriv is the right-hand g', so at bp[-1] it is the tail slope, not
        # the last cubic's: an inside point that rounds up to bp[-1] is skipped
        for x in [x for x in inside + list(bp[:-1]) if x < bp[-1]]:
            assert g.deriv(x) == float(deriv(x))
            assert g.deriv(x) == deriv(np.array([x]))[0]
        assert payoff_eval(g, bp[0] - d) == float(spline(bp[0]))
        assert g.deriv(bp[0] - d) == 0.0
        end_slope = _pchip_slopes(bp, g.values)[-1]  # the node slope, not the cubic's
        assert g.deriv(bp[-1] + d) == g.deriv(bp[-1]) == g._end_slope == end_slope

    @settings(max_examples=100, deadline=None, database=None)
    @given(g=tabulated_payoffs())
    def test_cached_break_even_matches_bisection(self, g):
        # the array-path bisection break_even ran on every call before it was cached
        spline = reference_spline(g)
        bp, vals = g.breakpoints, g.values
        idx = max(i for i, v in enumerate(vals) if v <= 0.0)
        lo, hi = bp[idx], bp[idx + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if spline(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, abs(hi)):
                break
        assert break_even(g) == 0.5 * (lo + hi)


@st.composite
def pchip_tables(draw):
    """Nondecreasing tables that cross zero, over nine decades of scale:
    2 breakpoints up to 64, flat pieces, and steps so small that the
    secant is subnormal."""
    n = draw(st.one_of(st.just(2), st.integers(3, 8), st.integers(9, 64)))
    scale = 10.0 ** draw(st.integers(-4, 4))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    step = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(5e-324, 1e-300))
    steps = draw(st.lists(step, min_size=n - 1, max_size=n - 1))
    bp = [draw(st.floats(-10.0, 10.0)) * scale]
    vals = [0.0]
    for gap, rise in zip(gaps, steps):
        bp.append(bp[-1] + gap * scale)
        vals.append(vals[-1] + rise)
    crossing = vals[draw(st.integers(0, n - 2))]
    vals = [(v - crossing) * scale for v in vals]
    assume(all(b2 > b1 for b1, b2 in zip(bp, bp[1:])) and vals[-1] > 0.0)
    return tuple(bp), tuple(vals)


class TestPchipAgainstScipy:
    """TabulatedPayoff builds its pieces itself; scipy's PchipInterpolator
    through the same nodes is the reference, compared with ==."""

    @settings(max_examples=500, deadline=None, database=None)
    @given(table=pchip_tables(), u=st.floats(0.0, 1.0, exclude_max=True),
           d=st.floats(1e-9, 10.0))
    def test_coefficients_and_values_equal(self, table, u, d):
        g = TabulatedPayoff(*table)
        spline = reference_spline(g)
        deriv = spline.derivative()
        bp = g.breakpoints
        assert np.array_equal(np.array([p[1] for p in g._pieces]).T[::-1], spline.c)
        assert np.array_equal(np.array([p[2] for p in g._pieces]).T[::-1], deriv.c)
        assert np.array_equal(g._coefs[::-1], spline.c)
        inside = [a + u * (b - a) for a, b in zip(bp, bp[1:])]
        xs = np.array(inside + list(bp))
        assert np.array_equal(payoff_eval(g, xs), spline(xs))
        assert [payoff_eval(g, x) for x in xs.tolist()] == spline(xs).tolist()
        outside = np.array([bp[0] - d, bp[-1] + d])
        assert np.array_equal(payoff_eval(g, outside),
                              [float(spline(bp[0])),
                               g.values[-1] + g._end_slope * (outside[1] - bp[-1])])
        assert g._end_slope == _pchip_slopes(bp, g.values)[-1]
        left = xs[xs < bp[-1]]
        assert [g.deriv(x) for x in left.tolist()] == deriv(left).tolist()

    @pytest.mark.parametrize("bp,vals", [
        ((0.0, 1.0), (-1e308, 1e308)),
        ((0.0, 1.0, 2.0), (-1e308, 0.0, 1e308)),
        ((-1e308, 0.0, 1e308), (-1.0, 0.0, 1.0)),
        ((0.0, 5e-324, 1e-323, 3.0), (-1.0, 0.0, 1.0, 2.0)),
        ((-1e308, 1e308), (-1e308, 1e308)),
        ((-1e308, 1e308, 1.7e308), (-1e308, 1e308, 1.7e308)),
        ((-1e308, 1e308, 1.7e308), (-1.0, 0.0, 1.0)),
    ])
    def test_overflowing_tables_match_scipy(self, bp, vals):
        # secants or spans overflow: the slopes are not finite, and both
        # raise, or a NaN secant sets them to 0, where scipy builds NaN or
        # zero pieces and TabulatedPayoff refuses the infinite span
        try:
            with np.errstate(all="ignore"):
                PchipInterpolator(np.asarray(bp), np.asarray(vals))
        except ValueError as ref:
            with pytest.raises(BadPayoff) as exc:
                TabulatedPayoff(bp, vals)
            assert str(exc.value) == f"tabulated payoff cannot be interpolated: {ref}"
        else:
            assert not np.isfinite(bp[-1] - bp[0])
            with pytest.raises(BadPayoff, match="span a finite interval"):
                TabulatedPayoff(bp, vals)

    def test_overflowing_pieces_are_bad_payoff(self):
        # finite slopes, but a steep rise over a subnormal interval overflows
        # the cubic coefficients, so g would be NaN on that piece
        with pytest.raises(BadPayoff, match="cubic pieces overflow"):
            TabulatedPayoff((-1.0, 0.0, 1e-300, 1.0), (-1.0, 0.0, 1.0, 2.0))


class TestPayoffFiniteness:
    @pytest.mark.parametrize("make", [
        lambda bad: CappedCall(K=bad, I=1.0),
        lambda bad: CappedCall(K=2.0, I=bad),
        lambda bad: PowerCall(bad, 1.0, 1.0),
        lambda bad: PowerCall(1.0, bad, 1.0),
        lambda bad: PowerCall(1.0, 1.0, bad),
        lambda bad: TabulatedPayoff((0.0, bad), (-1.0, 1.0)),
        lambda bad: TabulatedPayoff((0.0, 1.0), (-1.0, bad)),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_parameters_must_be_finite(self, make, bad):
        with pytest.raises(BadPayoff, match="finite"):
            make(bad)


@pytest.mark.parametrize("make, error", [
    (lambda big: Model(Family.ARITHMETIC, big, 0.2, 0.0, None, 0.05), InvalidModel),
    (lambda big: GammaJumps(big, 1.0), InvalidModel),
    (lambda big: ExponentialJumps(big), InvalidModel),
    (lambda big: BetaJumps(1.25, big), InvalidModel),
    (lambda big: PointMassJumps(big), InvalidModel),
    (lambda big: TabulatedJumps((big,), (1.0,)), InvalidModel),
    (lambda big: CappedCall(K=big, I=1.0), BadPayoff),
    (lambda big: PowerCall(1.0, 1.0, big), BadPayoff),
    (lambda big: TabulatedPayoff((0.0, big), (-1.0, 1.0)), BadPayoff),
], ids=["model", "gamma", "exponential", "beta", "point_mass", "tabulated_jumps",
        "capped_call", "power_call", "tabulated_payoff"])
def test_int_too_large_for_a_float_is_not_finite(make, error):
    # float(10**400) overflows: the documented error, not a raw TypeError or OverflowError
    with pytest.raises(error, match="must be finite"):
        make(10 ** 400)


class TestModel:
    @pytest.mark.parametrize("field", ["drift", "volatility", "jump_intensity",
                                       "discount", "jump_scale"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_parameters_must_be_finite(self, field, bad):
        params = dict(family=Family.ARITHMETIC, drift=0.04, volatility=0.1,
                      jump_intensity=0.1, jump_dist=GammaJumps(1.0, 1.0), discount=0.05)
        params[field] = bad
        with pytest.raises(InvalidModel, match=field):
            Model(**params)

    def test_volatility_must_be_positive(self):
        with pytest.raises(NonPositiveVolatility):
            Model(Family.ARITHMETIC, 0.04, 0.0, 0.0, None, 0.05)
        with pytest.raises(NonPositiveVolatility):
            Model(Family.GEOMETRIC, 0.03, -0.1, 0.0, None, 0.05)

    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidModel):
            Model(Family.ARITHMETIC, 0.04, 0.1, -0.5, None, 0.05)
        with pytest.raises(InvalidModel):
            Model(Family.ARITHMETIC, 0.04, 0.1, 0.0, None, -0.01)

    def test_intensity_needs_distribution(self):
        with pytest.raises(InvalidModel):
            Model(Family.ARITHMETIC, 0.04, 0.1, 0.5, None, 0.05)

    def test_geometric_needs_unit_interval_marks(self):
        with pytest.raises(BadJumpSupport):
            Model(Family.GEOMETRIC, 0.03, 0.1, 0.1, GammaJumps(1.0, 1.0), 0.05)
        with pytest.raises(BadJumpSupport):
            Model(Family.GEOMETRIC, 0.03, 0.1, 0.1, PointMassJumps(1.0), 0.05)
        # strictly inside [0, 1) is fine
        Model(Family.GEOMETRIC, 0.03, 0.1, 0.1, PointMassJumps(0.5), 0.05)
        Model(Family.GEOMETRIC, 0.03, 0.1, 0.1, BetaJumps(1.25, 5.0), 0.05)

    def test_geometric_pins_jump_scale(self):
        m = Model(Family.GEOMETRIC, 0.03, 0.1, 0.1, BetaJumps(1.25, 5.0), 0.05,
                  jump_scale=3.0)
        assert m.jump_scale == 1.0

    def test_family_accepts_string(self):
        m = Model("arithmetic", 0.04, 0.1, 0.0, None, 0.05)
        assert m.family is Family.ARITHMETIC

    def test_compensated_drift(self):
        m = table1_model(sigma=0.05, lam=0.1)
        # mu + gamma * lambda * mbar = 0.04 + 1 * 0.1 * 1
        assert m.compensated_drift == pytest.approx(0.14)
        g = fig2_model()
        # alpha + lambda * mbar = 0.025 + 0.02 * 0.2
        assert g.compensated_drift == pytest.approx(0.029)
        assert g.mean_jump == pytest.approx(0.2)

    def test_jump_scale_scales_compensator(self):
        m = Model(Family.ARITHMETIC, 0.04, 0.05, 0.1, GammaJumps(1.0, 1.0), 0.05,
                  jump_scale=2.0)
        assert m.compensated_drift == pytest.approx(0.24)

    def test_power_call_needs_geometric(self):
        m = table1_model()
        with pytest.raises(BadPayoff):
            validate(m, PowerCall(1.0, 1.0, 1.0))
        validate(fig2_model(), PowerCall(1.0, 1.0, 1.0))

    def test_geometric_break_even_must_be_positive(self):
        g = TabulatedPayoff((-2.0, 1.0), (-0.5, 2.0))  # crosses at -1.4
        with pytest.raises(BadPayoff):
            validate(fig2_model(), g)
        validate(table1_model(), g)


class TestConfig:
    CFG = {
        "family": "geometric",
        "drift": 0.025,
        "volatility": 0.1,
        "lambda": 0.02,
        "jump_dist": {"kind": "beta", "params": {"c": 1.25, "d": 5.0}},
        "r": 0.05,
        "payoff": {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": 1.0}},
    }

    # every jump and payoff kind, params in the order the echo writes them
    # (the JSON bytes depend on it); the beta-power_call case is CFG itself
    KINDS = [
        ("arithmetic", {"kind": "gamma", "params": {"shape": 1.5, "rate": 2.0}},
         {"kind": "capped_call", "params": {"K": 2.0, "I": 1.0}},
         GammaJumps(1.5, 2.0), CappedCall(2.0, 1.0)),
        ("arithmetic", {"kind": "exponential", "params": {"rate": 3.0}},
         {"kind": "tabulated", "params": {"breakpoints": [-0.5, 0.2, 0.9],
                                          "values": [-0.4, 0.1, 0.5]}},
         ExponentialJumps(3.0), TabulatedPayoff((-0.5, 0.2, 0.9), (-0.4, 0.1, 0.5))),
        ("geometric", {"kind": "beta", "params": {"c": 1.25, "d": 5.0}},
         {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": 1.0}},
         BetaJumps(1.25, 5.0), PowerCall(1.0, 1.0, 1.0)),
        ("geometric", {"kind": "point_mass", "params": {"z": 0.3}},
         {"kind": "capped_call", "params": {"K": 3.0, "I": 1.5}},
         PointMassJumps(0.3), CappedCall(3.0, 1.5)),
        ("geometric", {"kind": "tabulated", "params": {"nodes": [0.1, 0.3],
                                                       "weights": [0.5, 0.5]}},
         {"kind": "tabulated", "params": {"breakpoints": [0.5, 1.5, 2.5],
                                          "values": [-1.0, 0.0, 2.0]}},
         TabulatedJumps((0.1, 0.3), (0.5, 0.5)), TabulatedPayoff((0.5, 1.5, 2.5), (-1.0, 0.0, 2.0))),
    ]

    @pytest.mark.parametrize("family,jump,pay,dist,want", KINDS,
                             ids=[f"{j['kind']}-{p['kind']}" for _, j, p, _, _ in KINDS])
    def test_round_trip(self, family, jump, pay, dist, want):
        model, payoff = model_from_config(dict(self.CFG, family=family, jump_dist=jump, payoff=pay))
        assert model == Model(Family(family), 0.025, 0.1, 0.02, dist, 0.05)
        assert payoff == want
        echo = model_to_config(model, payoff)
        model2, payoff2 = model_from_config(echo)
        assert model2 == model
        assert payoff2 == payoff
        assert echo["jump_scale"] == 1.0  # defaults made explicit
        assert list(echo) == ["family", "drift", "volatility", "jump_scale", "lambda",
                              "jump_dist", "r", "payoff"]
        assert json.dumps(echo["jump_dist"]) == json.dumps(jump)
        assert json.dumps(echo["payoff"]) == json.dumps(pay)

    def test_payoff_optional(self):
        cfg = dict(self.CFG)
        del cfg["payoff"]
        model, payoff = model_from_config(cfg)
        assert payoff is None
        assert model_to_config(model)["payoff"] is None

    def test_lambda_defaults_to_zero(self):
        cfg = {"family": "arithmetic", "drift": 0.04, "volatility": 0.1, "r": 0.05}
        model, _ = model_from_config(cfg)
        assert model.jump_intensity == 0.0
        assert model.jump_dist is None

    def test_missing_key(self):
        cfg = dict(self.CFG)
        del cfg["volatility"]
        with pytest.raises(InvalidModel):
            model_from_config(cfg)

    def test_unknown_key(self):
        cfg = dict(self.CFG)
        cfg["sigma"] = 0.1
        with pytest.raises(InvalidModel):
            model_from_config(cfg)

    def test_unknown_family(self):
        cfg = dict(self.CFG)
        cfg["family"] = "multiplicative"
        with pytest.raises(InvalidModel):
            model_from_config(cfg)

    def test_unknown_jump_kind(self):
        cfg = dict(self.CFG)
        cfg["jump_dist"] = {"kind": "lognormal", "params": {}}
        with pytest.raises(InvalidModel):
            model_from_config(cfg)

    def test_bad_params_listed(self):
        cfg = dict(self.CFG)
        cfg["jump_dist"] = {"kind": "beta", "params": {"c": 1.25}}
        with pytest.raises(InvalidModel, match="missing"):
            model_from_config(cfg)
        cfg["jump_dist"] = {"kind": "beta", "params": {"c": 1.25, "d": 5.0, "e": 1.0}}
        with pytest.raises(InvalidModel, match="unexpected"):
            model_from_config(cfg)

    @pytest.mark.parametrize("path,value", [
        (("drift",), float("nan")),
        (("drift",), "0.025"),
        (("r",), None),
        (("lambda",), False),
        (("jump_scale",), 10 ** 400),
        (("jump_dist",), "beta"),
        (("jump_dist", "kind"), None),
        (("jump_dist", "extra"), 1),
        (("jump_dist", "params"), None),
        (("jump_dist", "params", "c"), {"v": 1.25}),
        (("payoff", "params", "K"), float("inf")),
    ])
    def test_values_type_checked(self, path, value):
        cfg = dict(self.CFG)
        target = cfg
        for key in path[:-1]:  # copy each nested dict before changing it
            target[key] = dict(target[key])
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InvalidModel, match=path[0]):
            model_from_config(cfg)

    def test_tabulated_lists_checked_elementwise(self):
        cfg = {"family": "arithmetic", "drift": 0.04, "volatility": 0.1, "r": 0.05,
               "lambda": 0.1,
               "jump_dist": {"kind": "tabulated",
                             "params": {"nodes": [0.1, "x"], "weights": [0.5, 0.5]}}}
        with pytest.raises(InvalidModel, match=r"jump_dist\.params\.nodes\[1\]"):
            model_from_config(cfg)
        cfg["jump_dist"]["params"]["nodes"] = 0.1
        with pytest.raises(InvalidModel, match="list of numbers"):
            model_from_config(cfg)
        cfg["jump_dist"]["params"]["nodes"] = [0.1, 2]  # ints are numbers
        model, _ = model_from_config(cfg)
        assert model.jump_dist.nodes == (0.1, 2.0)

    def test_invalid_pairing_caught(self):
        cfg = dict(self.CFG)
        cfg["family"] = "arithmetic"
        cfg["jump_dist"] = {"kind": "gamma", "params": {"shape": 1.0, "rate": 1.0}}
        with pytest.raises(BadPayoff):
            model_from_config(cfg)  # power payoff with arithmetic dynamics
