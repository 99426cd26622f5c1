from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from levystop import (
    BetaJumps,
    DomainError,
    ExponentialJumps,
    Family,
    GammaJumps,
    InvalidModel,
    LevyStopError,
    Model,
    PointMassJumps,
    SolverError,
    TabulatedJumps,
    char_eq,
    continuous_root,
    psi,
    solve_k1,
)

from levystop import roots
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

    @pytest.mark.parametrize("model", [
        table1_model(0.05, 0.1), fig2_model(), fig3_model(),
        Model(Family.ARITHMETIC, 0.04, 0.1, 0.3, TabulatedJumps((0.2, 0.9), (0.4, 0.6)), 0.05),
        Model(Family.ARITHMETIC, -0.02, 0.1, 0.1, GammaJumps(1.0, 1.0), 0.0),
    ], ids=["table1", "fig2", "fig3", "tabulated", "zero_discount"])
    def test_one_char_eq_call_per_iteration_and_one_more(self, model, monkeypatch):
        # the bracket's endpoint values go into Brent, and Brent's last value
        # is the residual: nothing is evaluated twice
        calls = []
        real = roots.char_eq
        monkeypatch.setattr(roots, "char_eq", lambda m, k: calls.append(k) or real(m, k))
        res = solve_k1(model)
        assert res.iterations > 0
        assert res.residual == real(model, res.k1)
        if model.discount > 0:
            assert len(calls) == res.iterations + 1
        assert len(set(calls)) == len(calls)

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


class TestPsiRatio:
    @settings(max_examples=200, deadline=None, database=None)
    @given(geometric=st.booleans(), k=st.floats(1e-3, 20.0), y=st.floats(0.01, 50.0),
           us=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20))
    def test_one_expression_for_float_0d_and_array(self, geometric, k, y, us):
        m = fig2_model() if geometric else table1_model()
        xs = [u * y for u in us] if geometric else [y + 10.0 * (u - 1.5) for u in us]
        vec = roots.psi_ratio(m, k, np.array(xs), y)
        assert vec.shape == (len(xs),)
        for x, v in zip(xs, vec.tolist()):
            out = roots.psi_ratio(m, k, x, y)
            assert type(out) is float
            assert out == v == roots.psi_ratio(m, k, np.array(x), y)
            if x >= y:
                assert out == 1.0
            else:
                ref = (x / y) ** k if geometric else math.exp(k * (x - y))
                assert out == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("model", [table1_model(), fig2_model()],
                             ids=["arithmetic", "geometric"])
    def test_exactly_one_at_and_above_y(self, model):
        xs = np.array([2.0, 2.0 + 1e-15, 3.0, 1e300])
        assert roots.psi_ratio(model, 1.7, 2.0, 2.0) == 1.0
        assert roots.psi_ratio(model, 1.7, xs, 2.0).tolist() == [1.0] * 4


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


def scipy_brentq(f, lo: float, hi: float, flo: float, fhi: float) -> tuple[float, float, int]:
    """scipy's brentq at the tolerances roots._brentq uses, its errors
    mapped as roots._brentq maps them, and f at its root: the reference.
    scipy evaluates the endpoints itself, so flo and fhi go unused."""
    try:
        k1, info = brentq(f, lo, hi, xtol=roots._XTOL, rtol=roots._RTOL, full_output=True)
    except (ValueError, RuntimeError) as exc:
        raise SolverError(f"root search failed: {exc}") from exc
    return k1, f(k1), info.iterations


def tabulated_jumps(max_node: float):
    def build(nodes, weights):
        total = sum(weights)
        return TabulatedJumps(tuple(nodes), tuple(w / total for w in weights))

    return st.integers(1, 4).flatmap(lambda n: st.builds(
        build, st.lists(st.floats(0.0, max_node), min_size=n, max_size=n),
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))


JUMP_LAWS = {
    Family.ARITHMETIC: st.one_of(
        st.builds(GammaJumps, st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        st.builds(ExponentialJumps, st.floats(0.2, 5.0)),
        st.builds(BetaJumps, st.floats(0.3, 5.0), st.floats(0.3, 8.0)),
        st.builds(PointMassJumps, st.floats(0.01, 2.0)),
        tabulated_jumps(2.0),
    ),
    Family.GEOMETRIC: st.one_of(
        st.builds(BetaJumps, st.floats(0.3, 5.0), st.floats(0.3, 8.0)),
        st.builds(PointMassJumps, st.floats(0.01, 0.95)),
        tabulated_jumps(0.95),
    ),
}


@st.composite
def jump_models(draw):
    """Both families, every jump law of each, and r = 0 about a quarter of the time."""
    family = draw(st.sampled_from(list(Family)))
    try:
        return Model(family, drift=draw(st.floats(-0.05, 0.1)),
                     volatility=draw(st.floats(0.02, 0.5)),
                     jump_intensity=draw(st.floats(0.01, 0.5)),
                     jump_dist=draw(JUMP_LAWS[family]),
                     discount=draw(st.one_of(st.just(0.0), st.floats(0.005, 0.2),
                                             st.floats(0.005, 0.2), st.floats(0.005, 0.2))),
                     jump_scale=draw(st.floats(0.2, 2.0)) if family is Family.ARITHMETIC else 1.0)
    except InvalidModel:
        assume(False)


def log_marks(dist):
    """The arithmetic law of W = -ln(1 - Z) for a point-mass or tabulated law of Z."""
    if isinstance(dist, PointMassJumps):
        return PointMassJumps(-math.log1p(-dist.z))
    return TabulatedJumps(tuple(-math.log1p(-z) for z in dist.nodes), dist.weights)


class TestOneEngineSpace:
    """A geometric model is the arithmetic one in u = ln x: marks W = -ln(1 - Z),
    jump_scale 1, and the drift with the same u-drift between jumps."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(alpha=st.floats(0.003, 0.09), sigma=st.floats(0.05, 0.5), lam=st.floats(0.0, 0.4),
           r=st.floats(0.01, 0.12),
           dist=st.one_of(st.builds(PointMassJumps, st.floats(0.01, 0.95)), tabulated_jumps(0.95)),
           k=st.floats(0.05, 5.0), x=st.floats(0.1, 10.0), y=st.floats(0.1, 10.0))
    def test_geometric_is_arithmetic_in_log_state(self, alpha, sigma, lam, r, dist, k, x, y):
        geo = Model(Family.GEOMETRIC, alpha, sigma, lam, dist, r)
        marks = log_marks(dist)
        # mu + lambda E[W] = alpha - sigma^2/2 + lambda E[Z]
        mu = alpha - 0.5 * sigma ** 2 + lam * (dist.mean() - marks.mean())
        arith = Model(Family.ARITHMETIC, mu, sigma, lam, marks, r, jump_scale=1.0)
        assert solve_k1(arith).k1 == pytest.approx(solve_k1(geo).k1, rel=1e-12)
        assert roots.psi_ratio(geo, k, x, y) == pytest.approx(
            roots.psi_ratio(arith, k, math.log(x), math.log(y)), rel=1e-14)


class TestBrentAgainstScipy:
    """roots._brentq ports scipy's brentq; scipy itself is the reference."""

    @staticmethod
    def outcome(model, brent):
        """solve_k1's result with the given Brent solver, or the error it raises."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "_brentq", brent)
            try:
                return solve_k1(model)
            except LevyStopError as exc:
                return type(exc), str(exc)

    @given(model=jump_models())
    @settings(max_examples=300, deadline=None, database=None)
    def test_root_and_iterations_equal(self, model):
        ours = self.outcome(model, roots._brentq)
        ref = self.outcome(model, scipy_brentq)
        if isinstance(ref, roots.RootResult):
            assert ours.k1 == ref.k1
            assert ours.iterations == ref.iterations
        assert ours == ref

    def test_reference_runs_on_most_models(self):
        # the comparison above is vacuous where solve_k1 never calls Brent;
        # a fixed example set, so the count is the same on every run
        calls = []

        def counting(f, lo, hi, flo, fhi):
            calls.append(1)
            return scipy_brentq(f, lo, hi, flo, fhi)

        @given(model=jump_models())
        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        def run(model):
            self.outcome(model, counting)

        run()
        assert len(calls) >= 50

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0),
        (lambda x: x - 3.0, 0.0, 1.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
    ], ids=["nan", "no-sign-change", "slow"])
    def test_failures_raise_solver_error_with_scipy_text(self, f, lo, hi):
        maxiter = 3
        with pytest.raises((ValueError, RuntimeError)) as ref:
            brentq(f, lo, hi, xtol=roots._XTOL, rtol=roots._RTOL, maxiter=maxiter)
        with pytest.raises(SolverError) as exc:
            roots._brentq(f, lo, hi, f(lo), f(hi), maxiter=maxiter)
        assert str(exc.value) == f"root search failed: {ref.value}"
