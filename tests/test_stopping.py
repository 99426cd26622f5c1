from __future__ import annotations

import math
from bisect import bisect_right

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levystop import (
    CappedCall,
    DomainError,
    NoFiniteThreshold,
    PowerCall,
    TabulatedPayoff,
    ZeroDiscountForThreshold,
    payoff_eval,
    policy_value,
    psi,
    solve_k1,
    solve_threshold,
    value_fn,
)
from levystop.model import BetaJumps, Family, GammaJumps, Model
from levystop.stopping import _slope_sign

from conftest import FIG2_K1, fig2_model, fig3_model, table1_model


def foc(model, payoff, k1, x):
    """First-order condition g'(x+) psi(x) - g(x) psi'(x): psi times the
    sign of the slope of g/psi that the solver uses."""
    return psi(model, k1, x) * _slope_sign(model, payoff, k1, x)


class TestCappedArithmetic:
    def test_corner(self, capped):
        m = table1_model(sigma=0.05, lam=0.1)  # k1 < 1/(K-I)
        sol = solve_threshold(m, capped)
        assert sol.x_star == 2.0
        assert sol.value_at_star == 1.0
        # corner gap is exactly k1 (K - I): g(K) k1 - 0 with g(K) = 1
        assert sol.smooth_fit_gap == sol.k1 * (capped.K - capped.I)
        assert sol.smooth_fit == "broken"
        assert sol.multiplier is None

    def test_interior(self):
        m = table1_model(sigma=0.05, lam=0.1)
        sol = solve_threshold(m, CappedCall(K=3.0, I=1.0))  # k1 > 1/(K-I)
        assert sol.x_star == pytest.approx(1.0 + 1.0 / sol.k1, abs=1e-14)
        assert sol.x_star < 3.0
        assert sol.value_at_star == pytest.approx(1.0 / sol.k1)
        assert abs(sol.smooth_fit_gap) < 1e-12
        assert sol.smooth_fit == "smooth"

    def test_boundary_exponent(self):
        # k1 exactly 1/(K-I): interior formula lands exactly on the cap
        m = table1_model(sigma=0.05, lam=0.1)
        k1 = solve_k1(m).k1
        K = 1.0 + 1.0 / k1
        sol = solve_threshold(m, CappedCall(K=K, I=1.0))
        assert sol.x_star == pytest.approx(K, abs=1e-12)

    def test_foc_signs_interior(self):
        m = table1_model(sigma=0.05, lam=0.1)
        payoff = CappedCall(K=3.0, I=1.0)
        sol = solve_threshold(m, payoff)
        assert foc(m, payoff, sol.k1, sol.x_star - 0.2) > 0
        assert foc(m, payoff, sol.k1, sol.x_star + 0.2) < 0
        assert foc(m, payoff, sol.k1, sol.x_star) == pytest.approx(0.0, abs=1e-12)


class TestCappedGeometric:
    def test_corner(self, fig2, capped):
        # k1 = 1.72 < K/(K-I) = 2: ratio still rising at the cap
        sol = solve_threshold(fig2, capped)
        assert sol.x_star == 2.0
        assert sol.smooth_fit == "broken"
        assert sol.smooth_fit_gap == pytest.approx(sol.k1 / 2.0, abs=1e-14)

    def test_interior(self, fig2):
        sol = solve_threshold(fig2, CappedCall(K=4.0, I=1.0))  # K/(K-I) = 4/3 < k1
        assert sol.x_star == pytest.approx(sol.k1 / (sol.k1 - 1.0), abs=1e-12)
        assert sol.multiplier == pytest.approx(sol.k1 / (sol.k1 - 1.0))
        assert sol.x_star < 4.0
        assert abs(sol.smooth_fit_gap) < 1e-12

    def test_interior_threshold_scales_with_strike(self, fig2):
        a = solve_threshold(fig2, CappedCall(K=40.0, I=1.0))
        b = solve_threshold(fig2, CappedCall(K=80.0, I=2.0))
        assert b.x_star == pytest.approx(2.0 * a.x_star, rel=1e-12)


class TestPowerGeometric:
    def test_reference_solution(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        assert sol.k1 == pytest.approx(FIG2_K1, abs=1e-12)
        assert sol.x_star == pytest.approx(2.3886163117354204, abs=1e-10)
        assert sol.multiplier == pytest.approx(2.3886163117354204, abs=1e-10)
        assert sol.value_at_star == pytest.approx(sol.x_star - 1.0)
        assert sol.smooth_fit == "smooth"

    def test_value_below_threshold(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        assert value_fn(sol, 1.0) == pytest.approx(0.310539622809711, abs=1e-12)

    def test_concave_power(self):
        m = fig3_model(sigma=0.25)
        sol = solve_threshold(m, PowerCall(a=1.0, b=0.2, K=1.0))
        assert sol.k1 < 1.0  # r < alpha regime
        assert sol.k1 > 0.2
        want = (sol.k1 / (sol.k1 - 0.2)) ** 5.0
        assert sol.x_star == pytest.approx(want, rel=1e-12)
        assert abs(sol.smooth_fit_gap) < 1e-12

    def test_undominated_growth(self):
        m = fig3_model(sigma=0.25)  # k1 < 1
        with pytest.raises(NoFiniteThreshold):
            solve_threshold(m, PowerCall(a=1.0, b=1.0, K=1.0))

    def test_strike_scaling(self, fig2):
        # b must stay below k1 = 1.72 for a finite threshold
        base = solve_threshold(fig2, PowerCall(a=1.0, b=1.5, K=1.0))
        scaled = solve_threshold(fig2, PowerCall(a=1.0, b=1.5, K=4.0))
        assert scaled.x_star == pytest.approx(4.0 ** (1 / 1.5) * base.x_star, rel=1e-12)
        both = solve_threshold(fig2, PowerCall(a=4.0, b=1.5, K=4.0))
        assert both.x_star == pytest.approx(base.x_star, rel=1e-12)

    def test_explicit_exponent_reuse(self, fig2, fig2_payoff):
        res = solve_k1(fig2)
        via_float = solve_threshold(fig2, fig2_payoff, k1=res.k1)
        auto = solve_threshold(fig2, fig2_payoff)
        assert via_float.x_star == auto.x_star

    def test_comparison_exponents_order_thresholds(self, fig2, fig2_payoff):
        res = solve_k1(fig2)
        low_exp = solve_threshold(fig2, fig2_payoff, k1=res.bracket_low)
        high_exp = solve_threshold(fig2, fig2_payoff, k1=res.bracket_high)
        mid = solve_threshold(fig2, fig2_payoff, k1=res.k1)
        # smaller exponent -> larger multiplier -> larger threshold
        assert low_exp.x_star > mid.x_star > high_exp.x_star


def mp_log_ratio(payoff, k1, geometric, x):
    """log g(x) - k1 x (or - k1 ln x) in 30 digits, from the float pieces."""
    with mpmath.workdps(30):
        bp, x = payoff.breakpoints, mpmath.mpf(x)
        if x > bp[-1]:
            g = mpmath.mpf(payoff.values[-1]) + mpmath.mpf(payoff.deriv(bp[-1])) * (x - bp[-1])
        else:
            b, coefs, _ = payoff._pieces[min(bisect_right(bp, x), len(bp) - 1) - 1]
            g = mpmath.polyval([mpmath.mpf(c) for c in coefs[::-1]], x - b)
        if g <= 0:
            return -mpmath.inf
        return mpmath.log(g) - k1 * (mpmath.log(x) if geometric else x)


def mp_maximum(payoff, k1, geometric):
    """sup of mp_log_ratio over (x0, inf): 65 float samples on each piece and
    on a tail segment past the tail's maximizer, then a 30-digit golden
    section around every sample no lower than its neighbours."""
    bp, x0 = payoff.breakpoints, payoff.break_even()
    end = bp[-1] + (2.0 * bp[-1] / (k1 - 1.0) if geometric else 2.0 / k1)
    knots = [x0] + [b for b in bp if b > x0] + [end]
    xs = np.unique(np.concatenate([np.linspace(a, b, 65) for a, b in zip(knots, knots[1:])]))
    g = payoff.eval(xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(g > 0, np.log(g) - k1 * (np.log(xs) if geometric else xs), -np.inf)
    padded = np.concatenate(([-np.inf], f, [-np.inf]))
    peaks = np.flatnonzero((f > -np.inf) & (f >= padded[:-2]) & (f >= padded[2:]))
    best = -mpmath.inf
    with mpmath.workdps(30):
        ratio = lambda x: mp_log_ratio(payoff, k1, geometric, x)
        shrink = (mpmath.sqrt(5) - 1) / 2
        for i in peaks:
            a, b = mpmath.mpf(xs[max(i - 1, 0)]), mpmath.mpf(xs[min(i + 1, len(xs) - 1)])
            for _ in range(60):  # the bracket shrinks 1e12-fold
                c, d = b - shrink * (b - a), a + shrink * (b - a)
                if ratio(c) >= ratio(d):
                    b = d
                else:
                    a = c
            best = max(best, ratio(xs[i]), ratio((a + b) / 2))
    return best


@st.composite
def tabulated_problems(draw):
    """(family, k1, payoff): random monotone tables with wide and narrow
    pieces, and two-peak tables whose narrow and broad peaks of g/psi
    differ by at most 1%."""
    family = draw(st.sampled_from(Family))
    geometric = family is Family.GEOMETRIC
    k1 = draw(st.floats(1.05, 6.0) if geometric else st.floats(0.01, 5.0))
    if draw(st.booleans()):
        left = 1.0 + 10.0 ** draw(st.floats(-4.0, -1.0))  # top of the narrow rise
        far = draw(st.floats(3.0, 40.0))  # where the broad peak starts
        rise = (far / left) ** k1 if geometric else math.exp(k1 * (far - left))
        top = rise * (1.0 + draw(st.floats(-0.01, 0.01)))
        assume(top > 1.0)
        bp = (0.5, 1.0, left, far, far * (1.0 + 1e-6), far + 5.0)
        vals = (-1.0, 0.0, 1.0, 1.0, top, top * (1.0 + 1e-9))
        return family, k1, TabulatedPayoff(bp, vals)
    n = draw(st.integers(3, 9))
    gap = st.one_of(st.floats(1e-2, 3.0), st.floats(-5.0, -2.0).map(lambda e: 10.0 ** e))
    step = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
    bp = [draw(st.floats(0.1, 2.0) if geometric else st.floats(-5.0, 5.0))]
    vals = [0.0]
    for _ in range(n - 1):
        bp.append(bp[-1] + draw(gap))
        vals.append(vals[-1] + draw(step))
    crossing = vals[draw(st.integers(0, n - 2))]
    vals = [v - crossing for v in vals]
    assume(all(b2 > b1 for b1, b2 in zip(bp, bp[1:])) and vals[-1] > 0.0)
    return family, k1, TabulatedPayoff(tuple(bp), tuple(vals))


class TestTabulated:
    def scan_oracle(self, model, payoff, k1, lo, hi):
        """Dense scan plus golden refinement, independent of the solver."""
        from scipy.optimize import minimize_scalar
        if model.family is Family.GEOMETRIC:
            neg = lambda x: -float(payoff_eval(payoff, x)) * x ** (-k1)
        else:
            neg = lambda x: -float(payoff_eval(payoff, x)) * math.exp(-k1 * x)
        xs = np.linspace(lo, hi, 20001)
        vals = [neg(x) for x in xs]
        i = int(np.argmin(vals))
        res = minimize_scalar(neg, bounds=(xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]),
                              method="bounded", options={"xatol": 1e-12})
        return float(res.x)

    def test_geometric_smooth_payoff(self, fig2):
        xs = np.linspace(0.0, 9.0, 30)
        payoff = TabulatedPayoff(tuple(xs), tuple(np.sqrt(xs) - 1.0))
        sol = solve_threshold(fig2, payoff)
        want = self.scan_oracle(fig2, payoff, sol.k1, 1.0, 9.0)
        assert sol.x_star == pytest.approx(want, abs=1e-6)
        assert abs(sol.smooth_fit_gap) < 1e-6

    def test_arithmetic_capped_shape(self):
        m = table1_model(sigma=0.05, lam=0.1)
        payoff = TabulatedPayoff((1.0, 2.0, 2.5, 3.0), (0.0, 1.0, 1.0, 1.0))
        sol = solve_threshold(m, payoff)
        want = self.scan_oracle(m, payoff, sol.k1, 1.0, 3.0)
        assert sol.x_star == pytest.approx(want, abs=1e-6)
        assert 1.0 < sol.x_star < 2.0

    def test_search_extends_past_last_breakpoint(self, fig2):
        # linear tail keeps rising past the table; optimum sits beyond it
        payoff = TabulatedPayoff((0.5, 1.0, 1.5), (-0.5, 0.0, 0.5))
        sol = solve_threshold(fig2, payoff)
        assert sol.x_star > 1.5
        want = self.scan_oracle(fig2, payoff, sol.k1, 1.0, 20.0)
        assert sol.x_star == pytest.approx(want, abs=1e-6)

    def test_narrow_peak_beats_broad_one(self):
        # g/psi peaks at 1.001 and, 0.1% lower, at 40.0001: a scan whose step
        # exceeds the narrow rise misses the better peak
        m = Model(Family.ARITHMETIC, drift=0.04, volatility=0.3, jump_intensity=0.0,
                  jump_dist=None, discount=0.002)
        payoff = TabulatedPayoff((0.0, 1.0, 1.001, 40.0, 40.0001, 45.0),
                                 (-1.0, 0.0, 1.0, 1.0, 6.36, 6.3600001))
        sol = solve_threshold(m, payoff)
        assert sol.x_star == pytest.approx(1.001, abs=1e-6)
        # x* is interior to the steep rise, where g is C1: its rounding gap
        # of about 5e-10 once read as a broken fit under a tolerance
        assert 1.0 < sol.x_star < 1.001
        assert 1e-10 < abs(sol.smooth_fit_gap) < 1e-8
        assert sol.smooth_fit == "smooth"
        value = value_fn(sol, 0.5)
        assert value == pytest.approx(0.976500, abs=5e-7)
        est = policy_value(m, payoff, 0.5, sol.x_star, 200_000, seed=2)
        assert abs(est.mean - value) <= 4.0 * est.stderr

    def test_table_ending_flat_has_a_threshold(self):
        # the three-point end slope is negative, so PCHIP clips it to 0: the
        # tail is flat and g/psi falls past the table even though k1 < 1
        m = Model(Family.GEOMETRIC, drift=0.04, volatility=0.1, jump_intensity=0.01,
                  jump_dist=BetaJumps(1.25, 2.0), discount=0.02)
        payoff = TabulatedPayoff((0.5, 1.0, 1.01, 1.5), (-0.5, 0.0, 5.0, 5.1))
        assert payoff._end_slope == 0.0 == payoff.deriv(2.0)
        assert payoff.eval(10.0) == 5.1
        sol = solve_threshold(m, payoff)
        assert sol.k1 < 1.0
        assert sol.x_star == pytest.approx(1.00999304500033, rel=1e-12)
        xs = np.linspace(1.0, 20.0, 100_001)[1:]  # g > 0 above x0 = 1
        scan = np.log(payoff.eval(xs)) - sol.k1 * np.log(xs)
        assert math.log(sol.value_at_star) - sol.k1 * math.log(sol.x_star) >= scan.max() - 1e-12

    @settings(max_examples=150, deadline=None, database=None)
    @given(problem=tabulated_problems())
    def test_no_worse_than_mpmath_maximum(self, problem):
        family, k1, payoff = problem
        geometric = family is Family.GEOMETRIC
        x_star, multiplier, _ = payoff.threshold(k1, Model(family, 0.03, 0.1, 0.0, None, 0.05))
        assert multiplier is None
        assert x_star > payoff.break_even()
        best = mp_maximum(payoff, k1, geometric)
        assert mp_log_ratio(payoff, k1, geometric, x_star) >= best - 1e-12

    def test_undominated_tail_raises(self):
        # a rising linear tail outgrows x^k1 when k1 < 1, so g/psi has no maximum
        m = fig3_model(sigma=0.25)  # k1 < 1
        payoff = TabulatedPayoff((0.5, 1.0, 1.5), (-0.5, 0.0, 0.5))
        with pytest.raises(NoFiniteThreshold):
            solve_threshold(m, payoff)
        # g/psi falls at the last breakpoint and peaks near 1.01 before it
        late = TabulatedPayoff((0.5, 1.0, 1.01, 1.5, 3.0), (-0.5, 0.0, 5.0, 5.2, 5.8))
        with pytest.raises(NoFiniteThreshold):
            solve_threshold(m, late)


class TestValueFunction:
    def test_value_dominates_payoff(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        x = np.linspace(0.0, 6.0, 400)
        v = value_fn(sol, x)
        g = payoff_eval(fig2_payoff, x)
        assert np.all(v >= g - 1e-12)

    def test_equals_payoff_in_stopping_region(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        for x in (sol.x_star, sol.x_star + 0.5, 5.0):
            assert value_fn(sol, x) == payoff_eval(fig2_payoff, x)

    def test_continuous_at_threshold(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        eps = 1e-9
        below = value_fn(sol, sol.x_star - eps)
        above = value_fn(sol, sol.x_star + eps)
        assert below == pytest.approx(above, abs=1e-7)

    def test_zero_at_origin_geometric(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        assert value_fn(sol, 0.0) == 0.0

    def test_negative_state_rejected_geometric(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        with pytest.raises(DomainError):
            value_fn(sol, -0.5)

    def test_arithmetic_far_below(self, capped):
        m = table1_model(sigma=0.05, lam=0.1)
        sol = solve_threshold(m, capped)
        assert value_fn(sol, -50.0) == pytest.approx(math.exp(sol.k1 * -52.0), rel=1e-12)

    def test_scalar_matches_vector(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        xs = [0.3, 1.0, 2.0, 3.0]
        vec = value_fn(sol, xs)
        for x, v in zip(xs, vec):
            out = value_fn(sol, x)
            assert isinstance(out, float)
            assert out == v

    def test_monotone(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        v = value_fn(sol, np.linspace(0.0, 5.0, 300))
        assert np.all(np.diff(v) >= -1e-12)


class TestGuards:
    def test_zero_discount_rejected(self, capped):
        m = Model(Family.ARITHMETIC, -0.02, 0.1, 0.1, GammaJumps(1.0, 1.0), 0.0)
        with pytest.raises(ZeroDiscountForThreshold):
            solve_threshold(m, capped)

    def test_bad_exponent_rejected(self, fig2, fig2_payoff):
        from levystop import SolverError
        with pytest.raises(SolverError):
            solve_threshold(fig2, fig2_payoff, k1=-1.0)
        with pytest.raises(SolverError):
            solve_threshold(fig2, fig2_payoff, k1=float("nan"))


class TestInteriorProperty:
    @given(sigma=st.floats(0.05, 0.4), lam=st.floats(0.0, 0.3),
           strike=st.floats(0.5, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_capped_interior_formula(self, sigma, lam, strike):
        m = Model(Family.ARITHMETIC, 0.04, sigma, lam,
                  GammaJumps(1.0, 1.0) if lam > 0 else None, 0.05)
        k1 = solve_k1(m).k1
        cap = strike + 2.0 / k1  # guarantees the interior branch
        sol = solve_threshold(m, CappedCall(K=cap, I=strike))
        assert sol.x_star == pytest.approx(strike + 1.0 / k1, abs=1e-12)
        h = min(0.5 / k1, sol.x_star - strike) * 0.5
        payoff = CappedCall(K=cap, I=strike)
        assert foc(m, payoff, k1, sol.x_star - h) > 0
        assert foc(m, payoff, k1, sol.x_star + h) < 0
