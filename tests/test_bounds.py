from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from levystop import (
    CappedCall,
    Family,
    GammaJumps,
    Model,
    adjusted_discount,
    adjusted_drift,
    certainty_growth,
    certainty_time,
    continuous_root,
    payoff_eval,
    sandwich,
    solve_k1,
    solve_threshold,
    value_fn,
)

from conftest import fig2_model, table1_model, table2_model


class TestSandwich:
    def test_reference_thresholds(self, fig2, fig2_payoff):
        rep = sandwich(fig2, fig2_payoff)
        assert rep.x_star == pytest.approx(2.3886163117354204, abs=1e-9)
        assert rep.x_star_low == pytest.approx(1.9567344090461676, abs=1e-9)
        assert rep.x_star_high == pytest.approx(2.7547349162513908, abs=1e-9)
        assert rep.x_star_low < rep.x_star < rep.x_star_high
        assert rep.k_low < rep.k1 < rep.k_high

    def test_value_ordering(self, fig2, fig2_payoff):
        rep = sandwich(fig2, fig2_payoff)
        assert len(rep.grid) == 200
        assert np.all(rep.v_low <= rep.v + 1e-10)
        assert np.all(rep.v <= rep.v_high + 1e-10)
        # strictly separated in the continuation region
        inside = (rep.grid > 0.5) & (rep.grid < rep.x_star_low)
        assert np.all(rep.v_low[inside] < rep.v[inside])
        assert np.all(rep.v[inside] < rep.v_high[inside])

    def test_arithmetic_family(self, capped):
        m = table1_model(sigma=0.05, lam=0.1)
        rep = sandwich(m, capped)
        assert np.all(rep.v_low <= rep.v + 1e-10)
        assert np.all(rep.v <= rep.v_high + 1e-10)
        assert rep.x_star_low <= rep.x_star <= rep.x_star_high
        # grid reaches below break-even for the arithmetic family
        assert rep.grid[0] < 0.0

    def test_no_jumps_collapses(self, capped):
        m = Model(Family.ARITHMETIC, 0.04, 0.1, 0.0, None, 0.05)
        rep = sandwich(m, capped)
        assert rep.k_low == rep.k1 == rep.k_high
        assert rep.x_star_low == rep.x_star == rep.x_star_high
        np.testing.assert_array_equal(rep.v_low, rep.v)
        np.testing.assert_array_equal(rep.v, rep.v_high)

    def test_custom_grid(self, fig2, fig2_payoff):
        grid = np.array([-1.0, 0.5, 1.0, 2.0])
        rep = sandwich(fig2, fig2_payoff, grid=grid)
        # negative states are dropped for geometric dynamics
        np.testing.assert_array_equal(rep.grid, [0.5, 1.0, 2.0])

    def test_value_matches_solution(self, fig2, fig2_payoff):
        rep = sandwich(fig2, fig2_payoff)
        np.testing.assert_allclose(rep.v, value_fn(rep.solution, rep.grid), rtol=0)

    def test_bounds_touch_at_high_states(self, fig2, fig2_payoff):
        rep = sandwich(fig2, fig2_payoff)
        far = rep.grid[rep.grid >= rep.x_star_high]
        g = payoff_eval(fig2_payoff, far)
        np.testing.assert_array_equal(np.atleast_1d(value_fn(rep.solution, far)), g)


class TestAdjustedDiscount:
    def test_reference_value(self, fig2):
        k1 = solve_k1(fig2).k1
        assert adjusted_discount(fig2, k1) == pytest.approx(0.05607782296729329, abs=1e-12)

    def test_reproduces_root(self, fig2):
        k1 = solve_k1(fig2).k1
        theta = adjusted_discount(fig2, k1)
        assert continuous_root(fig2, theta) == pytest.approx(k1, abs=1e-10)

    def test_reproduces_root_arithmetic(self):
        m = table1_model(sigma=0.15, lam=0.2)
        k1 = solve_k1(m).k1
        theta = continuous_root(m, adjusted_discount(m, k1))
        assert theta == pytest.approx(k1, abs=1e-10)

    def test_between_r_and_r_plus_lambda(self):
        for m in (fig2_model(), table1_model(0.1, 0.2), table2_model(0.25, 0.1)):
            k1 = solve_k1(m).k1
            theta = adjusted_discount(m, k1)
            assert m.discount < theta <= m.discount + m.jump_intensity

    def test_no_jumps_is_identity(self):
        m = Model(Family.ARITHMETIC, 0.04, 0.1, 0.0, None, 0.05)
        assert adjusted_discount(m, solve_k1(m).k1) == m.discount


class TestAdjustedDrift:
    def test_reference_value(self):
        m = table1_model(sigma=0.05, lam=0.1)
        k1 = solve_k1(m).k1
        assert adjusted_drift(m, k1) == pytest.approx(0.23747502417222704, abs=1e-12)

    def test_reproduces_root(self):
        for m in (table1_model(0.05, 0.1), fig2_model(), table2_model(0.2, 0.2)):
            res = solve_k1(m)
            mu = adjusted_drift(m, res.k1)
            no_jumps = replace(m, drift=mu, jump_intensity=0.0, jump_dist=None)
            k = continuous_root(no_jumps, m.discount + m.jump_intensity)
            assert k == pytest.approx(res.k1, abs=1e-10)

    def test_exceeds_compensated_drift(self, fig2):
        k1 = solve_k1(fig2).k1
        assert adjusted_drift(fig2, k1) > fig2.compensated_drift

    def test_no_jumps_is_compensated_drift(self):
        m = Model(Family.ARITHMETIC, 0.04, 0.1, 0.0, None, 0.05)
        assert adjusted_drift(m, solve_k1(m).k1) == m.compensated_drift


class TestCertaintyGrowth:
    def test_arithmetic_rate(self):
        m = table1_model(sigma=0.05, lam=0.0)
        k1 = solve_k1(m).k1
        # r/k1 - mu is the per-unit-time jump and diffusion risk premium
        assert certainty_growth(m, k1) == pytest.approx(m.discount / k1)
        assert 100 * (certainty_growth(m, k1) - m.drift) == pytest.approx(0.15, abs=0.02)

    def test_jumps_raise_the_premium(self):
        m0 = table1_model(sigma=0.05, lam=0.0)
        m1 = table1_model(sigma=0.05, lam=0.2)
        assert certainty_growth(m1, solve_k1(m1).k1) > certainty_growth(m0, solve_k1(m0).k1)

    def test_geometric_rate_per_unit_state(self, fig2):
        k1 = solve_k1(fig2).k1
        assert certainty_growth(fig2, k1) == pytest.approx(0.05 / k1)

    def test_scales_linearly_in_state(self, fig2, fig2_payoff):
        # the sure flow grows at rate x mu^, linear in the state: started at
        # x it is x e^{mu^ t}, which reaches x* at the certainty time
        sol = solve_threshold(fig2, fig2_payoff)
        rate = certainty_growth(fig2, sol.k1)
        for x in (1.0, 0.5 * sol.x_star):
            t = certainty_time(fig2, sol.k1, x, sol.x_star)
            assert x * math.exp(rate * t) == pytest.approx(sol.x_star, rel=1e-12)


class TestCertaintyTime:
    def test_zero_in_stopping_region(self, fig2, fig2_payoff):
        sol = solve_threshold(fig2, fig2_payoff)
        assert certainty_time(fig2, sol.k1, sol.x_star, sol.x_star) == 0.0
        assert certainty_time(fig2, sol.k1, sol.x_star + 1.0, sol.x_star) == 0.0

    def test_discounted_ride_reproduces_value(self, fig2, fig2_payoff):
        # e^{-r t*} g(x*) must equal V(x): the deterministic certainty
        # trade rides psi's level sets
        sol = solve_threshold(fig2, fig2_payoff)
        for x in (0.5, 1.0, 2.0):
            t = certainty_time(fig2, sol.k1, x, sol.x_star)
            lhs = math.exp(-fig2.discount * t) * sol.value_at_star
            assert lhs == pytest.approx(value_fn(sol, x), rel=1e-12)

    def test_arithmetic(self, capped):
        m = table1_model(sigma=0.05, lam=0.1)
        sol = solve_threshold(m, capped)
        t = certainty_time(m, sol.k1, 0.0, sol.x_star)
        assert t == pytest.approx(sol.k1 * sol.x_star / m.discount)
        lhs = math.exp(-m.discount * t) * sol.value_at_star
        assert lhs == pytest.approx(value_fn(sol, 0.0), rel=1e-12)

    def test_flow_maximum_at_t_star(self, fig2, fig2_payoff):
        # along the certainty flow x e^{(r/k1) t}, the discounted payoff
        # peaks exactly at t*
        sol = solve_threshold(fig2, fig2_payoff)
        x = 1.3
        t_star = certainty_time(fig2, sol.k1, x, sol.x_star)
        rate = fig2.discount / sol.k1

        def h(t: float) -> float:
            return math.exp(-fig2.discount * t) * float(
                payoff_eval(fig2_payoff, x * math.exp(rate * t)))

        ts = np.linspace(0.0, 3.0 * t_star, 4001)
        vals = np.array([h(t) for t in ts])
        assert ts[int(np.argmax(vals))] == pytest.approx(t_star, abs=ts[1] - ts[0])
        assert float(vals.max()) == pytest.approx(value_fn(sol, x), rel=1e-6)
