from __future__ import annotations

import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import stats

from levystop import (
    CappedCall,
    DomainError,
    ExponentialJumps,
    Family,
    GammaJumps,
    InvalidModel,
    MCEstimate,
    Model,
    PowerCall,
    default_horizon,
    estimate_laplace,
    first_passage_times,
    payoff_eval,
    policy_value,
    psi,
    solve_k1,
    solve_threshold,
    threshold_grid_search,
)
from levystop.mc import (CHUNK, MAX_JUMP_GAPS, _chunk_stream, _engine_inputs, _fitted_argmax,
                         _gap_end, _horizon, _jump_shift, _passage, _request, _stop_at,
                         simulate_to_threshold)

from conftest import fig2_model, table1_model


class TestDeterminism:
    def test_same_seed_same_estimate(self, fig2):
        a = estimate_laplace(fig2, 1.0, 2.0, 4000, seed=5)
        b = estimate_laplace(fig2, 1.0, 2.0, 4000, seed=5)
        assert a == b

    def test_different_seed_differs(self, fig2):
        a = estimate_laplace(fig2, 1.0, 2.0, 4000, seed=5)
        b = estimate_laplace(fig2, 1.0, 2.0, 4000, seed=6)
        assert a.mean != b.mean

    def test_chunk_splitting_is_stable(self, fig2):
        # estimates are chunked internally; the same seed must give the
        # same numbers whether or not n crosses a chunk boundary
        a = first_passage_times(fig2, 1.0, [2.0], 1000, seed=3)
        b = first_passage_times(fig2, 1.0, [2.0], 1000, seed=3)
        np.testing.assert_array_equal(a, b)


class TestLaplaceEstimate:
    def test_geometric_matches_analytic(self, fig2):
        k1 = solve_k1(fig2).k1
        est = estimate_laplace(fig2, 1.0, 2.39, 30_000, seed=11)
        target = (1.0 / 2.39) ** k1
        assert abs(est.mean - target) <= 4.0 * est.stderr + est.truncation_bound
        assert est.stderr < 0.01
        assert est.n_paths == 30_000

    def test_arithmetic_matches_analytic(self):
        m = table1_model(sigma=0.25, lam=0.2)
        k1 = solve_k1(m).k1
        est = estimate_laplace(m, 0.0, 1.5, 30_000, seed=23)
        target = math.exp(-k1 * 1.5)
        assert abs(est.mean - target) <= 4.0 * est.stderr + est.truncation_bound

    def test_degenerate_start_at_barrier(self, fig2):
        est = estimate_laplace(fig2, 2.0, 2.0, 100, seed=1)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        est2 = estimate_laplace(fig2, 3.0, 2.0, 100, seed=1)
        assert est2.mean == 1.0

    def test_drift_dominated_passage(self):
        # near-deterministic: sigma tiny, no jumps, unit drift from 0 to 1
        m = Model(Family.ARITHMETIC, 1.0, 0.01, 0.0, None, 0.05)
        est = estimate_laplace(m, 0.0, 1.0, 2000, seed=2)
        assert est.mean == pytest.approx(math.exp(-0.05), abs=3e-4)

    def test_truncation_bound(self, fig2):
        est = estimate_laplace(fig2, 1.0, 2.39, 5000, seed=4)
        assert 0.0 <= est.truncation_bound <= math.exp(
            -fig2.discount * est.horizon)
        assert est.horizon == pytest.approx(default_horizon(fig2))

    @pytest.mark.parametrize("model, x, y, drift_sign", [
        # engine drift -0.3 + 1.0 * 0.1 < 0: defective inverse-Gaussian passage,
        # and frequent jumps make many gap ends never-reached ones
        (Model(Family.ARITHMETIC, -0.3, 0.4, 1.0, ExponentialJumps(10.0), 0.05), 0.0, 0.3, -1.0),
        # engine drift -0.1 + 0.1 * 1 = 0 exactly: Levy passage
        (Model(Family.ARITHMETIC, -0.1, 0.2, 0.1, ExponentialJumps(1.0), 0.05), 0.0, 0.5, 0.0),
        # engine drift 0.005 - 0.1^2/2 rounds to about -9e-19, where a
        # difference-form inverse-Gaussian draw cancels to zero: the passage
        # time must come out Levy
        (Model(Family.GEOMETRIC, 0.005, 0.1, 0.0, None, 0.05), 1.0, 1.5, -1.0),
    ], ids=["negative_engine_drift", "zero_engine_drift", "rounding_engine_drift"])
    def test_nonpositive_engine_drift_matches_analytic(self, model, x, y, drift_sign):
        assert np.sign(model.engine_drift) == drift_sign
        k1 = solve_k1(model).k1
        est = estimate_laplace(model, x, y, 20_000, seed=19)
        target = psi(model, k1, x) / psi(model, k1, y)
        assert abs(est.mean - target) <= 4.0 * est.stderr + est.truncation_bound

    def test_horizon_override(self, fig2):
        est = estimate_laplace(fig2, 1.0, 2.39, 2000, seed=4, horizon=5.0)
        assert est.horizon == 5.0
        # short horizon misses more paths: looser truncation bound
        long = estimate_laplace(fig2, 1.0, 2.39, 2000, seed=4)
        assert est.truncation_bound > long.truncation_bound


class TestFirstPassage:
    def test_rows_nondecreasing(self, fig2):
        tau = first_passage_times(fig2, 1.0, [1.2, 1.5, 2.0, 2.6], 3000, seed=9)
        assert tau.shape == (3000, 4)
        finite = np.isfinite(tau)
        # once a barrier is missed, every higher barrier is missed too
        assert np.all(finite[:, 1:] <= finite[:, :-1])
        both = finite[:, 1:] & finite[:, :-1]
        assert np.all(tau[:, 1:][both] - tau[:, :-1][both] >= 0.0)

    def test_instant_hits_below_start(self, fig2):
        tau = first_passage_times(fig2, 1.0, [0.5, 0.8, 1.0, 1.5], 100, seed=9)
        assert np.all(tau[:, 0] == 0.0)
        assert np.all(tau[:, 1] == 0.0)
        assert np.all(tau[:, 2] == 0.0)  # side="right": starting on the barrier counts
        assert np.all(tau[:, 3] > 0.0)

    def test_barriers_must_increase(self, fig2):
        with pytest.raises(ValueError):
            first_passage_times(fig2, 1.0, [2.0, 1.5], 100, seed=0)
        with pytest.raises(ValueError):
            first_passage_times(fig2, 1.0, [2.0], 1, seed=0)

    @pytest.mark.parametrize("levels, n, horizon", [
        ([2.0, 1.5], 100, None),
        ([2.0], 1, None),
        ([2.0], 0, None),
        ([2.0], 100, -1.0),
        ([2.0], 100, 0.0),
        ([2.0], 100, math.nan),
        ([2.0], 100, math.inf),
        ([math.nan], 100, None),
    ])
    def test_bad_inputs_are_invalid_model(self, fig2, levels, n, horizon):
        # a horizon the path clock never reaches would simulate forever
        with pytest.raises(InvalidModel):
            first_passage_times(fig2, 1.0, levels, n, seed=0, horizon=horizon)

    def test_nan_start_is_invalid_model(self, fig2):
        # NaN sorts above every barrier and would count as an instant hit
        with pytest.raises(InvalidModel):
            first_passage_times(fig2, math.nan, [2.0], 100, seed=0)
        with pytest.raises(InvalidModel):
            simulate_to_threshold(fig2, math.nan, 2.0, 10.0,
                                  np.random.Generator(np.random.Philox(0)))

    @pytest.mark.parametrize("call", [
        lambda m, g: estimate_laplace(m, 10 ** 400, 1.0, 100, 1),
        lambda m, g: estimate_laplace(m, 0.0, 10 ** 400, 100, 1),
        lambda m, g: policy_value(m, g, 10 ** 400, 2.0, 100, 1),
        lambda m, g: threshold_grid_search(m, g, 0.0, [1.0, 10 ** 400], 100, 1),
        lambda m, g: simulate_to_threshold(m, 1.0, 10 ** 400, 10.0,
                                           np.random.Generator(np.random.Philox(0))),
    ], ids=["laplace-start", "laplace-level", "policy-start", "grid-level", "single-path-level"])
    def test_int_beyond_float_range_is_invalid_model(self, call, capped):
        # float(10**400) overflows: the documented error, not a raw OverflowError
        with pytest.raises(InvalidModel, match="start and barriers must be finite"):
            call(table1_model(), capped)

    def test_negative_seed_is_invalid_model(self, fig2, fig2_payoff):
        # numpy's SeedSequence would raise a bare ValueError; every estimator
        # reaches first_passage_times, which names the bad seed
        with pytest.raises(InvalidModel, match="seed must be nonnegative"):
            estimate_laplace(fig2, 1.0, 2.0, 100, seed=-1)
        with pytest.raises(InvalidModel, match="seed must be nonnegative"):
            policy_value(fig2, fig2_payoff, 1.0, 2.0, 100, seed=-1)
        with pytest.raises(InvalidModel, match="seed must be nonnegative"):
            threshold_grid_search(fig2, fig2_payoff, 1.0, [2.0, 2.5], 100, seed=-1)

    def test_geometric_positivity_guard(self, fig2):
        with pytest.raises(DomainError):
            first_passage_times(fig2, -1.0, [2.0], 100, seed=0)
        with pytest.raises(DomainError):
            first_passage_times(fig2, 1.0, [-2.0, 2.0], 100, seed=0)

    def test_zero_discount_needs_horizon(self):
        m = Model(Family.ARITHMETIC, -0.02, 0.1, 0.0, None, 0.0)
        with pytest.raises(InvalidModel):
            first_passage_times(m, 0.0, [1.0], 100, seed=0)
        tau = first_passage_times(m, 0.0, [1.0], 500, seed=0, horizon=50.0)
        assert np.isfinite(tau).any()
        assert (~np.isfinite(tau)).any()  # negative drift strands some paths

    def test_tiny_discount_needs_horizon(self):
        # ln(1e4) / r overflows for r below about 5e-308: an infinite default
        # horizon would never retire a path that cannot get there
        m = Model(Family.ARITHMETIC, -0.3, 0.4, 1.0, ExponentialJumps(10.0), 1e-310)
        with pytest.raises(InvalidModel, match="no finite default horizon; pass --horizon"):
            default_horizon(m)
        with pytest.raises(InvalidModel, match="pass --horizon"):
            estimate_laplace(m, 0.0, 0.3, 100, seed=1)
        assert estimate_laplace(m, 0.0, 0.3, 100, seed=1, horizon=50.0).horizon == 50.0

    def test_huge_horizon_is_refused(self):
        # a path that never hits walks through about lambda T jump gaps, one
        # engine pass each: a finite but huge T ran until killed
        m = Model(Family.ARITHMETIC, -0.3, 0.4, 1.0, ExponentialJumps(10.0), 1e-300)
        with pytest.raises(InvalidModel, match="pass a shorter --horizon"):
            estimate_laplace(m, 0.0, 0.3, 100, seed=1)  # default T = 9.2e300
        with pytest.raises(InvalidModel, match="pass a shorter --horizon"):
            first_passage_times(m, 0.0, [0.3], 100, seed=1, horizon=MAX_JUMP_GAPS * 1.000001)
        assert _horizon(m, MAX_JUMP_GAPS) == MAX_JUMP_GAPS  # lambda = 1: at the bound
        assert _horizon(replace(m, jump_intensity=0.0), 1e300) == 1e300  # no jumps, no passes

    def test_integer_start_and_barriers(self):
        # each pass writes the next distance into the position array: an int
        # start must still give a float one, and the same paths as its float
        m = table1_model(sigma=0.25, lam=0.2)
        assert np.array_equal(first_passage_times(m, 0, [1, 2], 500, seed=3),
                              first_passage_times(m, 0.0, [1.0, 2.0], 500, seed=3))

    def test_jumps_change_passage_like_k1(self):
        # compensation raises the drift between jumps, so a nearby barrier
        # is reached sooner in discounted terms: exactly what the smaller
        # characteristic root k1 predicts
        calm = Model(Family.ARITHMETIC, 0.04, 0.1, 0.0, None, 0.05)
        stormy = Model(Family.ARITHMETIC, 0.04, 0.1, 0.5, GammaJumps(1.0, 1.0), 0.05)
        assert solve_k1(stormy).k1 < solve_k1(calm).k1
        out = {}
        for name, m in (("calm", calm), ("storm", stormy)):
            est = estimate_laplace(m, 0.0, 1.0, 20_000, seed=13)
            target = math.exp(-solve_k1(m).k1)
            assert abs(est.mean - target) <= 4.0 * est.stderr + est.truncation_bound
            out[name] = est.mean
        assert out["storm"] > out["calm"]


_ENTRIES = {  # each entry point, called with a request's start, barriers, n, seed and horizon
    "first_passage_times": lambda m, g, x, lv, n, s, h: first_passage_times(m, x, lv, n, s, h),
    "estimate_laplace": lambda m, g, x, lv, n, s, h: estimate_laplace(m, x, lv[-1], n, s, h),
    "policy_value": lambda m, g, x, lv, n, s, h: policy_value(m, g, x, lv[-1], n, s, h),
    "threshold_grid_search":
        lambda m, g, x, lv, n, s, h: threshold_grid_search(m, g, x, lv, n, s, h),
    "simulate_to_threshold": lambda m, g, x, lv, n, s, h: simulate_to_threshold(
        m, x, lv[-1], h, np.random.Generator(np.random.Philox(0))),
}
_SEEDED = list(_ENTRIES)[:4]  # simulate_to_threshold takes no path count or seed


class TestOneRequestPath:
    """A request with one fault fails alike from every entry that takes the
    faulty input: one class, one message."""

    @pytest.mark.parametrize("fault, error, message, entries", [
        ({"x": math.nan}, InvalidModel, "start and barriers must be finite", _ENTRIES),
        ({"levels": [2.0, 10 ** 400]}, InvalidModel, "start and barriers must be finite",
         _ENTRIES),
        ({"levels": [2.5, 2.0]}, InvalidModel, "barriers must be strictly increasing",
         ["first_passage_times", "threshold_grid_search"]),
        ({"n": 1}, InvalidModel, "need at least 2 paths", _SEEDED),
        ({"seed": -1}, InvalidModel, "seed must be nonnegative, got -1", _SEEDED),
        ({"horizon": 0.0}, InvalidModel,
         "simulation horizon must be finite and positive, got 0.0", _ENTRIES),
        ({"horizon": 1e6}, InvalidModel,  # lambda = 0.02: 2e4 jump gaps
         "lambda * horizon = 20000 jump gaps per path is above 10000; "
         "pass a shorter --horizon", _ENTRIES),
        ({"x": 0.0}, DomainError, "geometric states must be above 0.0", _ENTRIES),
    ], ids=["nan_start", "int_barrier_beyond_float", "barriers_not_increasing", "one_path",
            "negative_seed", "zero_horizon", "too_many_jump_gaps", "geometric_start_at_zero"])
    def test_same_error_from_every_entry(self, fig2, fig2_payoff, fault, error, message,
                                         entries):
        request = dict({"x": 1.0, "levels": [2.0, 2.5], "n": 100, "seed": 0, "horizon": None},
                       **fault)
        for name in entries:
            with pytest.raises(error) as exc:
                _ENTRIES[name](fig2, fig2_payoff, *request.values())
            assert (type(exc.value), str(exc.value)) == (error, message), name


class TestSinglePath:
    def test_hit_lands_exactly_on_barrier(self, fig2):
        rng = np.random.Generator(np.random.Philox(1234))
        tau = simulate_to_threshold(fig2, 1.0, 1.3, horizon=300.0, rng=rng)
        assert 0.0 < tau < 300.0

    def test_miss_reports_terminal_state(self, fig2):
        rng = np.random.Generator(np.random.Philox(99))
        tau = simulate_to_threshold(fig2, 1.0, 50.0, horizon=1.0, rng=rng)
        assert tau == float("inf")

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_horizon_is_invalid_model(self, fig2, horizon):
        with pytest.raises(InvalidModel):
            simulate_to_threshold(fig2, 1.0, 2.0, horizon,
                                  np.random.Generator(np.random.Philox(0)))

    def test_few_draws_per_path(self, fig2):
        # jump to jump, a path draws a handful of values per gap; a
        # time-stepped skeleton draws hundreds on the same paths
        class Counting:
            def __init__(self, gen):
                self.gen, self.draws = gen, 0

            def __getattr__(self, name):
                method = getattr(self.gen, name)

                def counted(*args, **kwargs):
                    out = method(*args, **kwargs)
                    self.draws += np.size(out)
                    return out
                return counted

        horizon = default_horizon(fig2)
        draws = 0
        for i in range(200):
            stream = Counting(np.random.Generator(np.random.Philox(i)))
            simulate_to_threshold(fig2, 1.0, 2.39, horizon, stream)
            draws += stream.draws
        assert draws / 200 <= 15

    def test_deterministic_given_stream(self, fig2):
        a = simulate_to_threshold(fig2, 1.0, 1.5, 100.0,
                                  np.random.Generator(np.random.Philox(7)))
        b = simulate_to_threshold(fig2, 1.0, 1.5, 100.0,
                                  np.random.Generator(np.random.Philox(7)))
        assert a == b


class TestGapEnd:
    """Gap-end draws against brute force: Gaussian endpoints kept when the
    Brownian bridge to them stays below the barrier and, for paths whose
    passage time is inf, when the path never comes back up either."""

    @pytest.mark.parametrize("c", [0.5, 0.0, -0.5])
    def test_matches_rejection_sampling(self, c):
        d, h, sigma, n = 0.8, 2.0, 0.5, 200_000
        s = sigma * math.sqrt(h)
        gen = np.random.Generator(np.random.Philox(5))
        tau = _passage(gen, np.full(n, d), c, sigma * sigma)
        tau = tau[tau > h]
        w = _gap_end(gen, np.full(tau.size, d), np.full(tau.size, h), tau, c, sigma)
        ref = d - (c * h + s * gen.standard_normal(n))
        keep = gen.random(n) < -np.expm1(-2.0 * d * ref / s ** 2)
        assert stats.ks_2samp(w, ref[keep]).pvalue > 1e-3
        if c < 0:
            never = np.isinf(tau)
            back = gen.random(n) < np.exp(2.0 * c * ref / sigma ** 2)
            assert stats.ks_2samp(w[never], ref[keep & ~back]).pvalue > 1e-3


class TestPolicyValue:
    def test_factorizes_through_laplace(self, fig2):
        payoff = PowerCall(1.0, 1.0, 1.0)
        pol = policy_value(fig2, payoff, 1.0, 2.4, 5000, seed=21)
        lap = estimate_laplace(fig2, 1.0, 2.4, 5000, seed=21)
        g = float(payoff_eval(payoff, 2.4))
        assert pol.mean == g * lap.mean
        assert pol.stderr == g * lap.stderr

    def test_immediate_exercise(self, fig2):
        payoff = PowerCall(1.0, 1.0, 1.0)
        pol = policy_value(fig2, payoff, 3.0, 2.4, 5000, seed=21)
        assert pol.mean == float(payoff_eval(payoff, 3.0))
        assert pol.stderr == 0.0

    def test_start_on_geometric_barrier_is_exact(self, fig2, fig2_payoff):
        # numpy's vectorized log and math.log can differ in the last bit at
        # this start; the barrier is still passed at time 0
        x = 2.10853864638184
        pol = policy_value(fig2, fig2_payoff, x, x, 20_000, seed=3)
        assert pol.mean == fig2_payoff.eval(x)
        assert pol.stderr == 0.0

    @pytest.mark.parametrize("n", [0, 1])
    def test_path_count_checked_above_barrier(self, fig2, n):
        with pytest.raises(InvalidModel, match="paths"):
            policy_value(fig2, PowerCall(1.0, 1.0, 1.0), 3.0, 2.4, n, seed=21)
        with pytest.raises(InvalidModel, match="paths"):
            estimate_laplace(fig2, 3.0, 2.4, n, seed=21)

    def test_suboptimal_thresholds_worth_less(self, fig2):
        # the analytic optimum beats stopping too early or too late
        payoff = PowerCall(1.0, 1.0, 1.0)
        sol = solve_threshold(fig2, payoff)
        v_opt = policy_value(fig2, payoff, 1.0, sol.x_star, 40_000, seed=3)
        v_lo = policy_value(fig2, payoff, 1.0, 1.4, 40_000, seed=3)
        v_hi = policy_value(fig2, payoff, 1.0, 4.5, 40_000, seed=3)
        assert v_opt.mean > v_lo.mean
        assert v_opt.mean > v_hi.mean


class TestGridSearch:
    def test_singleton_matches_laplace_bitwise(self, fig2):
        # identical barrier set, identical seed: the same paths are drawn,
        # so the estimate factorizes exactly (each passage time is drawn to
        # the path's next barrier, so this only holds set-for-set)
        payoff = PowerCall(1.0, 1.0, 1.0)
        res = threshold_grid_search(fig2, payoff, 1.0, [1.8], 4000, seed=17)
        single = estimate_laplace(fig2, 1.0, 1.8, 4000, seed=17)
        g = float(payoff_eval(payoff, 1.8))
        assert res.estimates[0].mean == g * single.mean

    def test_shared_paths_are_strongly_coupled(self, fig2):
        # common random numbers: neighboring estimates move together, so the
        # paired difference spreads far less than independent runs would,
        # sqrt(a.stderr^2 + b.stderr^2) >= 0.71 (a.stderr + b.stderr)
        payoff = PowerCall(1.0, 1.0, 1.0)
        res = threshold_grid_search(fig2, payoff, 1.0, [2.3, 2.4], 4000, seed=17)
        a, b = res.estimates
        tau = first_passage_times(fig2, 1.0, [2.3, 2.4], 4000, seed=17)  # the same paths
        paired = 1.4 * np.exp(-fig2.discount * tau[:, 1]) - 1.3 * np.exp(-fig2.discount * tau[:, 0])
        assert paired.mean() == pytest.approx(b.mean - a.mean, rel=1e-9)
        paired_se = paired.std(ddof=1) / math.sqrt(paired.size)
        assert paired_se < 0.25 * (a.stderr + b.stderr)
        k1 = solve_k1(fig2).k1
        analytic_gap = 1.4 * (1.0 / 2.4) ** k1 - 1.3 * (1.0 / 2.3) ** k1
        assert abs((b.mean - a.mean) - analytic_gap) <= \
            4.0 * paired_se + a.truncation_bound + b.truncation_bound

    def test_singleton_grid(self, fig2):
        payoff = PowerCall(1.0, 1.0, 1.0)
        res = threshold_grid_search(fig2, payoff, 1.0, [2.4], 2000, seed=17)
        assert res.best_y == 2.4
        assert res.thresholds == (2.4,)

    def test_finds_neighborhood_of_optimum(self, fig2):
        payoff = PowerCall(1.0, 1.0, 1.0)
        sol = solve_threshold(fig2, payoff)
        grid = np.arange(1.6, 3.2001, 0.2)
        res = threshold_grid_search(fig2, payoff, 1.0, grid, 30_000, seed=7)
        assert abs(res.best_y - sol.x_star) <= 0.4  # within two steps at this n

    def test_levels_at_or_below_start_are_worth_g_of_start(self, fig2, fig2_payoff):
        # from x = 2.5 above x* = 2.389, stopping at once, worth g(2.5) = 1.5,
        # beats waiting for 2.6 or 2.8; every level at or below x pays g(x) at
        # time 0, exactly as policy_value does
        levels = [2.0, 2.2, 2.4, 2.6, 2.8]
        res = threshold_grid_search(fig2, fig2_payoff, 2.5, levels, 20_000, seed=3)
        for y, est in zip(levels[:3], res.estimates):
            single = policy_value(fig2, fig2_payoff, 2.5, y, 20_000, seed=3)
            assert est.mean == single.mean == fig2_payoff.eval(2.5) == 1.5
            assert est.stderr == single.stderr == 0.0
        assert res.best_y == 2.4

    @staticmethod
    def paired(se):
        """_fitted_argmax's paths: two per level, whose differences from the
        window's middle level have standard errors up to se."""
        return lambda rows: np.outer(np.arange(5), [se, -se]) / 2.0

    def test_fit_reads_the_vertex_past_a_noisy_argmax(self):
        # a concave curve peaking at 0.52 whose level 0.6 drew +0.007 of noise:
        # the raw argmax is 0.6, the quadratic through 0.4..0.8 peaks near 0.527
        y = np.round(np.arange(0.0, 1.01, 0.1), 10)
        means = -(y - 0.52) ** 2
        means[6] += 0.007
        assert np.argmax(means) == 6
        best, y_fit = _fitted_argmax(y, means, -1.0, self.paired(0.005))
        assert best == 5
        assert y_fit == pytest.approx(0.5272727272727272, rel=1e-12)
        # noise-free, the fit is exact
        exact = _fitted_argmax(y, -(y - 0.52) ** 2, -1.0, self.paired(1e-9))
        assert exact[1] == pytest.approx(0.52, rel=1e-12)

    def test_misfit_beyond_the_paired_noise_falls_back(self):
        # a peak steep on the left and flat on the right, as a coarse grid sees
        # it near a payoff's break-even: the skew, not noise, pulls the vertex
        # half a step to the flat side, off the best level 0.4
        y = np.round(np.arange(0.0, 1.01, 0.1), 10)
        means = np.full(11, -0.01)
        means[2:7] = [-2.1e-3, -0.2e-3, 0.0, -0.13e-3, -0.4e-3]
        best, y_fit = _fitted_argmax(y, means, -1.0, self.paired(1e-3))
        assert (best, y_fit) == (5, pytest.approx(0.4520, abs=1e-4))
        # residuals up to 3.8e-4 are far beyond paired standard errors of 1e-5
        assert _fitted_argmax(y, means, -1.0, self.paired(1e-5)) == (4, None)

    @pytest.mark.parametrize("means, x, best", [
        (-(np.arange(11) / 10 - 0.93) ** 2, -1.0, 9),  # one level above the argmax
        (-(np.arange(11) / 10 - 0.12) ** 2, -1.0, 1),  # one level below it
        (np.zeros(11), -1.0, 10),  # flat: ties to the largest level, at the edge
        (np.array([0, 0, 0, 1, 0, 1.5, 0, 1, 0, 0, 0.0]), -1.0, 5),  # convex fit
        (-(np.arange(11) / 10 - 0.52) ** 2, 0.5, 5),  # at or below x: stopping now is exact
        (-(np.arange(11) / 10 - 0.52) ** 2, 0.3, 5),  # a fitted level at x is worth g(x)
    ], ids=["top_edge", "bottom_edge", "flat", "convex", "at_or_below_start",
            "window_reaches_start"])
    def test_fit_falls_back_to_the_raw_argmax(self, means, x, best):
        y = np.round(np.arange(0.0, 1.01, 0.1), 10)
        assert _fitted_argmax(y, means, x, self.paired(1.0)) == (best, None)

    def test_best_y_is_the_level_nearest_the_fitted_vertex(self, fig2, fig2_payoff):
        # 0.2 steps around x* = 2.389: the raw argmax has 2 levels on each side
        grid = np.linspace(1.6, 3.2, 9)
        res = threshold_grid_search(fig2, fig2_payoff, 1.0, grid, 20_000, seed=5)
        assert res.y_fit is not None
        assert res.best_y == grid[np.argmin(np.abs(grid - res.y_fit))]

    def test_ties_break_to_largest(self, fig2):
        # barriers at or below the start all pay g(x) at time zero; the
        # documented tie-break picks the largest maximizer
        payoff = CappedCall(K=1.2, I=0.2)
        res = threshold_grid_search(fig2, payoff, 2.0, [1.5, 1.8, 2.0], 1000, seed=1)
        means = [e.mean for e in res.estimates]
        assert means[0] == means[1] == means[2] == 1.0
        assert res.best_y == 2.0


# ---------------------------------------------------------------------------
# Reference engine: the index-mask pass loop the engine was first written
# as, drawing its passage times with the Michael-Schucany-Haas sampler on
# the SFC64 chunk streams. Performance work on mc.py must keep every draw
# of every stream, so the shipped engine must reproduce this one bit for bit.
# ---------------------------------------------------------------------------

def _ref_passage(gen, d, c, s2):
    nu = s2 * gen.standard_normal(d.size) ** 2
    u = gen.random(d.size)
    a2d = 2.0 * abs(c) * d
    rho = np.exp(-a2d / s2) if c < 0 else 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        den = a2d + nu + np.sqrt(nu * (2.0 * a2d + nu))
        t_lo = 2.0 * d * d / den
        t_hi = den / (2.0 * c * c)
    return np.where(u * (den + a2d) <= rho * den, t_lo, np.where(u < rho, t_hi, np.inf))


def _ref_simulate_chunk(model, gen, n, start, levels, drift, horizon):
    m = len(levels)
    sigma = model.volatility
    lam = model.jump_intensity
    tau = np.full((n, m), np.inf)
    end = np.full(n, start)
    gap = np.full(n, horizon)
    if lam > 0:
        gap = np.minimum(gen.exponential(1.0 / lam, n), horizon)
    hit0 = int(np.searchsorted(levels, start, side="right"))
    tau[:, :hit0] = 0.0
    rows = np.arange(n if hit0 < m else 0)
    pos, t, k, gap = end[rows], np.zeros(rows.size), np.full(rows.size, hit0), gap[rows]
    with np.errstate(divide="ignore", over="ignore"):
        while rows.size:
            lev = levels[k]
            d = np.maximum(lev - pos, 1e-12)
            h = gap - t
            dt = _ref_passage(gen, d, drift, sigma * sigma)
            hit = dt < h
            t = np.where(hit, t + dt, gap)
            tau[rows[hit], k[hit]] = t[hit]
            k = k + hit
            miss = np.flatnonzero(~hit)
            pos = lev
            pos[miss] -= _gap_end(gen, d[miss], h[miss], dt[miss], drift, sigma)
            if lam > 0:
                miss = miss[gap[miss] < horizon]
                pos[miss] += _jump_shift(model, gen, miss.size)
                gap[miss] = np.minimum(t[miss] + gen.exponential(1.0 / lam, miss.size), horizon)
            live = (k < m) & (t < horizon)
            end[rows[~live]] = pos[~live]
            rows, pos, t, k, gap = rows[live], pos[live], t[live], k[live], gap[live]
    return tau, end


def _ref_first_passage_times(model, x0, levels, n, seed):
    levels = np.asarray(levels, dtype=float)
    _, _, start, elevels = _engine_inputs(model, x0, levels)
    return np.concatenate([
        _ref_simulate_chunk(model, _chunk_stream(seed, index), min(CHUNK, n - lo), start,
                            elevels, model.engine_drift, default_horizon(model))[0]
        for index, lo in enumerate(range(0, n, CHUNK))])


class TestReferenceStream:
    """Same seeds, same draws, same bits as the reference engine above."""

    @pytest.mark.parametrize("model, x, levels, n", [
        (fig2_model(), 1.0, np.linspace(2.0, 2.8, 17), 3000),
        (table1_model(sigma=0.25, lam=0.2), 0.0, [0.5, 1.0, 1.5, 2.0], 3000),
        # engine drift -0.3 + 1.0 * 0.1 < 0: defective passage, some rows never get there
        (Model(Family.ARITHMETIC, -0.3, 0.4, 1.0, ExponentialJumps(10.0), 0.05), 0.0,
         [0.1, 0.3], 2000),
        # engine drift -0.1 + 0.1 * 1 = 0 exactly: every passage is Levy
        (Model(Family.ARITHMETIC, -0.1, 0.2, 0.1, ExponentialJumps(1.0), 0.05), 0.0,
         [0.2, 0.5], 2000),
        # a start inside the grid: the first levels are passed at time 0
        (fig2_model(), 2.3, np.linspace(2.0, 2.8, 17), 3000),
        # two chunks, concatenated
        (fig2_model(), 1.0, [1.5, 2.0, 2.4], 70_000),
        # levels passed at time 0 are zeroed in the second chunk's columns too
        (fig2_model(), 2.3, np.linspace(2.0, 2.8, 17), 70_000),
    ], ids=["fig2", "table1", "negative_engine_drift", "zero_engine_drift",
            "start_inside_grid", "two_chunks", "start_inside_grid_two_chunks"])
    def test_first_passage_times_match(self, model, x, levels, n):
        got = first_passage_times(model, x, levels, n, seed=17)
        ref = _ref_first_passage_times(model, x, levels, n, seed=17)
        assert got.shape == ref.shape == (n, len(levels))
        assert np.array_equal(got, ref)

    def test_paths_beyond_memory_fail_before_simulating(self, fig2, monkeypatch):
        # the multi-chunk result is allocated whole first: an n beyond any
        # address space fails at once instead of simulating chunk after chunk
        def never(*args, **kwargs):
            raise AssertionError("simulated a chunk")
        monkeypatch.setattr("levystop.mc._simulate_chunk", never)
        with pytest.raises(MemoryError):
            first_passage_times(fig2, 1.0, [2.0], 10 ** 17, seed=0)
        with pytest.raises(InvalidModel, match="paths are too many"):
            first_passage_times(fig2, 1.0, np.linspace(1.5, 3.0, 17), 10 ** 18, seed=0)


def _ref_stop_at(model, x, levels, gvals, n, seed, horizon):
    """The per-level statistics as _stop_at was first written: each level row
    discounted through a reached-mask, then its mean, std and censored share."""
    tau = first_passage_times(model, x, levels, n, seed, horizon).T
    horizon = default_horizon(model) if horizon is None else horizon
    estimates, rows = [], []
    for j, g in enumerate(gvals):
        reached = np.isfinite(tau[j])
        disc = np.where(reached, np.exp(-model.discount * np.where(reached, tau[j], 0.0)), 0.0)
        rows.append(disc)
        estimates.append(MCEstimate(mean=g * float(disc.mean()),
                                    stderr=abs(g) * float(disc.std(ddof=1) / math.sqrt(n)),
                                    n_paths=n, horizon=horizon,
                                    truncation_bound=abs(g) * math.exp(-model.discount * horizon)
                                    * float(np.isinf(tau[j]).mean()),
                                    seed=seed))
    return estimates, np.array(rows)


class TestReferenceStatistics:
    """_stop_at's estimates and discount rows, bit for bit against _ref_stop_at."""

    @pytest.mark.parametrize("model, x, levels, gvals, n, horizon", [
        # the levels at or below the start are passed at time 0: stderr exactly 0
        (fig2_model(), 2.3, np.linspace(2.0, 2.8, 17), np.linspace(-0.5, 1.5, 17).tolist(),
         3000, None),
        # a short horizon censors paths at every level
        (table1_model(sigma=0.25, lam=0.2), 0.0, [0.5, 1.0, 2.0], [1.0, -2.0, 0.5], 3000, 3.0),
        # two chunks, concatenated
        (fig2_model(), 1.0, [1.5, 2.0, 2.4], [0.5, 1.0, 1.4], 70_000, None),
        # r = 0: the masked discount, with an explicit horizon
        (replace(table1_model(sigma=0.25, lam=0.2), discount=0.0), 0.0, [0.5, 1.0], [1.0, 2.0],
         3000, 5.0),
    ], ids=["start_inside_grid", "short_horizon", "two_chunks", "zero_discount"])
    def test_estimates_match(self, model, x, levels, gvals, n, horizon):
        _, _, tau, resolved = _request(model, x, levels, n, 17, horizon)
        got, disc = _stop_at(model, tau, gvals, 17, resolved)
        want, ref = _ref_stop_at(model, x, levels, gvals, n, 17, horizon)
        assert [repr(e) for e in got] == [repr(e) for e in want]  # repr tells -0.0 from 0.0
        assert np.array_equal(disc, ref)
        at_start = [(g, e) for level, g, e in zip(levels, gvals, got) if level <= x]
        assert all(e.mean == g and e.stderr == 0.0 for g, e in at_start)
        if horizon is not None:
            assert all(e.truncation_bound > 0.0 for e in got)


class TestZeroDiscount:
    """r = 0 with an explicit horizon: e^{-0 tau} is 1 on every reached path,
    so an estimate is the reached fraction (times g(y)), exactly."""

    def test_mean_is_the_reached_fraction(self):
        model = Model(Family.ARITHMETIC, 0.04, 0.3, 0.5, ExponentialJumps(4.0), 0.0)
        payoff = CappedCall(K=3.0, I=1.0)
        tau = first_passage_times(model, 1.0, [2.0], 4000, seed=8, horizon=20.0)
        reached, censored = float(np.isfinite(tau).mean()), float(np.isinf(tau).mean())
        assert 0.0 < reached < 1.0
        laplace = estimate_laplace(model, 1.0, 2.0, 4000, seed=8, horizon=20.0)
        policy = policy_value(model, payoff, 1.0, 2.0, 4000, seed=8, horizon=20.0)
        assert laplace.mean == reached
        assert policy.mean == payoff.eval(2.0) * reached
        assert laplace.truncation_bound == censored
        for est in (laplace, policy):
            assert not any(math.isnan(v) for v in astuple(est))


class TestPassageLaw:
    """_passage against the passage-time transform of c t + sigma W_t over d,
    E[e^{-q tau}] = exp(d (c - sqrt(c^2 + 2 q s2)) / s2), and against its
    reach probability exp(2cd/s2) for c < 0, through zero drift from both sides."""

    @pytest.mark.parametrize("c", [-0.5, -1e-12, 0.0, 1e-12, 0.5])
    def test_laplace_transform_and_reach(self, c):
        s2, n = 0.09, 200_000
        gen = np.random.Generator(np.random.SFC64(41))
        for d in (0.02, 0.1, 0.3):  # reached with probability 0.80 to 0.036 at c = -0.5
            tau = _passage(gen, np.full(n, d), c, s2)
            assert not np.isnan(tau).any() and np.all(tau > 0)
            # q where the zero-drift transform is e^{-x}: no rare-event estimates
            for q in (s2 / 2.0 * (x / d) ** 2 for x in (0.05, 0.5, 1.0, 2.0, 4.0)):
                disc = np.exp(-q * tau)
                want = math.exp(d * (c - math.sqrt(c * c + 2.0 * q * s2)) / s2)
                assert abs(disc.mean() - want) <= 4.0 * disc.std(ddof=1) / math.sqrt(n)
            reach = math.exp(2.0 * c * d / s2) if c < 0 else 1.0
            hit = np.isfinite(tau).mean()
            assert abs(hit - reach) <= 4.0 * math.sqrt(reach * (1.0 - reach) / n)

    @pytest.mark.parametrize("c", [0.3, 0.0, -0.3])
    def test_zero_normal_is_finite_law_and_silent(self, c):
        # a standard normal of exactly 0 puts nu = 0: the roots meet at d/|c|,
        # and at c = 0 the Levy time d^2/nu is inf; nothing may come out NaN or warn
        class ZeroNormal:
            def standard_normal(self, size):
                return np.zeros(size)

            def random(self, size):
                return np.full(size, 0.5)

        d = np.array([1e-12, 0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = _passage(ZeroNormal(), d, c, 0.04)
        # c < 0: reached (U = 0.5 below exp(2cd/s2)) from 1e-12 only
        want = np.full(d.size, np.inf) if c == 0 else np.where(
            0.5 < np.exp(2.0 * c * d / 0.04), d / abs(c), np.inf)
        np.testing.assert_allclose(tau, want, rtol=1e-15)

    def test_silent_outside_the_engine(self):
        gen = np.random.Generator(np.random.SFC64(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (0.5, 0.0, -0.5):
                _passage(gen, np.linspace(1e-12, 2.0, 1000), c, 0.04)
