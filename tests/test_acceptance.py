"""End-to-end acceptance criteria.

Each test is one criterion: analytic reproductions at stated tolerances,
structural properties over randomized models, and Monte Carlo cross-checks
with fixed seeds. Every test prints one PASS/FAIL line with its headline
numbers so a transcript of this module reads as an acceptance report.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levystop import (
    BetaJumps,
    CappedCall,
    ExponentialJumps,
    Family,
    GammaJumps,
    Model,
    PointMassJumps,
    PowerCall,
    TabulatedJumps,
    adjusted_discount,
    adjusted_drift,
    certainty_time,
    continuous_root,
    estimate_laplace,
    first_passage_times,
    payoff_eval,
    reproduce,
    sandwich,
    solve_k1,
    solve_threshold,
    threshold_grid_search,
    value_fn,
)

from conftest import fig2_model, fig3_model, table1_model, table2_model


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _check_table(num: int, name: str) -> None:
    t0 = time.perf_counter()
    values = reproduce.table(name)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(values - reproduce.TARGETS[name])))
    ok = err <= 0.02 and elapsed < 1.0
    _report(num, f"{name} growth premiums", ok,
            f"max_abs_err={err:.4f}pp tol=0.02pp elapsed={elapsed:.2f}s")


def test_criterion_01_table1_premiums():
    _check_table(1, "table1")


def test_criterion_02_table2_premiums():
    _check_table(2, "table2")


def test_criterion_03_table3_premiums():
    _check_table(3, "table3")


def test_criterion_04_threshold_anchors():
    rep = sandwich(fig2_model(), PowerCall(1.0, 1.0, 1.0))
    errs = (abs(rep.solution.x_star - 2.39), abs(rep.x_star_low - 1.96),
            abs(rep.x_star_high - 2.75))
    ok = max(errs) <= 0.01
    _report(4, "reference thresholds", ok,
            f"x*={rep.solution.x_star:.4f} low={rep.x_star_low:.4f} "
            f"high={rep.x_star_high:.4f} max_err={max(errs):.4f} tol=0.01")


def test_criterion_05_sandwich_ordering():
    worst = -np.inf
    for model, payoff in ((fig2_model(), PowerCall(1.0, 1.0, 1.0)),
                          (table1_model(sigma=0.05, lam=0.1), CappedCall(2.0, 1.0))):
        rep = sandwich(model, payoff)
        assert len(rep.grid) == 200
        worst = max(worst, float(np.max(rep.v_low - rep.v)),
                    float(np.max(rep.v - rep.v_high)))
        assert rep.x_star_low <= rep.solution.x_star <= rep.x_star_high
    ok = worst <= 1e-10
    _report(5, "sandwich bounds", ok,
            f"families=2 grid_points=200 worst_violation={worst:.3g} tol=1e-10")


@st.composite
def random_models(draw) -> Model:
    family = draw(st.sampled_from([Family.ARITHMETIC, Family.GEOMETRIC]))
    sigma = draw(st.floats(0.02, 0.6))
    r = draw(st.floats(0.005, 0.12))
    lam = draw(st.floats(0.0, 0.5))
    if family is Family.ARITHMETIC:
        drift = draw(st.floats(-0.08, 0.12))
        scale = draw(st.floats(0.2, 2.0))
        dists = st.one_of(
            st.builds(GammaJumps, st.floats(0.4, 4.0), st.floats(0.4, 4.0)),
            st.builds(ExponentialJumps, st.floats(0.4, 4.0)),
            st.builds(PointMassJumps, st.floats(0.05, 2.0)),
            st.builds(lambda a, b: TabulatedJumps((a, a + b), (0.4, 0.6)),
                      st.floats(0.0, 1.0), st.floats(0.1, 1.0)),
        )
    else:
        drift = draw(st.floats(0.003, 0.1))
        scale = 1.0
        dists = st.one_of(
            st.builds(BetaJumps, st.floats(0.5, 5.0), st.floats(0.5, 5.0)),
            st.builds(PointMassJumps, st.floats(0.02, 0.9)),
            st.builds(lambda a, b: TabulatedJumps((a, min(a + b, 0.95)), (0.5, 0.5)),
                      st.floats(0.0, 0.5), st.floats(0.05, 0.45)),
        )
    dist = draw(dists) if lam > 0 else None
    return Model(family, drift, sigma, lam, dist, r, jump_scale=scale)


def test_criterion_06_bracket_property():
    counter = {"n": 0}

    @settings(max_examples=500, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=random_models())
    def check(model: Model) -> None:
        counter["n"] += 1
        res = solve_k1(model)
        slack = 1e-9 * max(1.0, abs(res.k1))
        assert res.k1 > 0.0
        assert res.bracket_low - slack <= res.k1 <= res.bracket_high + slack
        if model.jump_intensity == 0.0:
            assert res.bracket_low == res.k1 == res.bracket_high

    check()
    _report(6, "diffusion bracket property", True,
            f"examples={counter['n']} bound=bracket_low<=k1<=bracket_high")


def test_criterion_07_monte_carlo_laplace():
    model = fig2_model()
    k1 = solve_k1(model).k1
    target = (1.0 / 2.39) ** k1
    t0 = time.perf_counter()
    excursions = 0
    worst = 0.0
    for seed in (1, 2, 3, 4, 5):
        est = estimate_laplace(model, 1.0, 2.39, 100_000, seed=seed)
        err = abs(est.mean - target)
        margin = 3.0 * est.stderr + est.truncation_bound
        worst = max(worst, err / margin)
        if err > margin:
            excursions += 1
    elapsed = time.perf_counter() - t0
    ok = excursions <= 1 and elapsed < 60.0
    _report(7, "monte carlo laplace", ok,
            f"seeds=5 n=100000 excursions={excursions} "
            f"worst_err/margin={worst:.2f} elapsed={elapsed:.1f}s limit=60s")


def test_criterion_08_grid_search_recovers_threshold():
    model = fig2_model()
    payoff = PowerCall(1.0, 1.0, 1.0)
    sol = solve_threshold(model, payoff)
    grid = np.linspace(2.0, 2.8, 17)  # 0.05 spacing
    res = threshold_grid_search(model, payoff, 1.0, grid, 200_000, seed=7)
    gap = abs(res.best_y - sol.x_star)
    ok = gap <= 0.05 + 1e-12
    _report(8, "grid search argmax", ok,
            f"best_y={res.best_y:.2f} x*={sol.x_star:.4f} gap={gap:.4f} step=0.05")


def test_criterion_09_corner_smooth_fit():
    model = table1_model(sigma=0.05, lam=0.1)
    payoff = CappedCall(K=2.0, I=1.0)
    sol = solve_threshold(model, payoff)
    exact = sol.smooth_fit_gap == sol.k1 * (payoff.K - payoff.I) and sol.x_star == 2.0

    # paired-path check that stopping at the cap beats every earlier barrier
    levels = np.array([1.2, 1.4, 1.6, 1.8, 2.0])
    tau = first_passage_times(model, 0.5, levels, 50_000, seed=29)
    disc = np.where(np.isfinite(tau), np.exp(-model.discount * np.where(
        np.isfinite(tau), tau, 0.0)), 0.0)
    vals = disc * np.atleast_1d(payoff_eval(payoff, levels))
    min_t = np.inf
    for j in range(len(levels) - 1):
        d = vals[:, -1] - vals[:, j]
        se = float(d.std(ddof=1)) / np.sqrt(len(d))
        min_t = min(min_t, float(d.mean()) / se)
    ok = exact and min_t > 3.0
    _report(9, "corner threshold", ok,
            f"gap==k1*(K-I)={exact} smooth_fit={sol.smooth_fit} "
            f"min_paired_t={min_t:.1f} threshold=3.0")


def test_criterion_10_comparative_statics():
    def sweep(models, payoff):
        k1s, xs = [], []
        for m in models:
            root = solve_k1(m)
            k1s.append(root.k1)
            xs.append(solve_threshold(m, payoff, root.k1).x_star)
        return np.array(k1s), np.array(xs)

    checks = []
    # arithmetic, convex regime: k1 falls, threshold rises
    k1s, xs = sweep([table1_model(sigma=s, lam=0.1) for s in np.linspace(0.05, 0.3, 8)],
                    CappedCall(K=10.0, I=1.0))
    checks.append(("arith sigma", np.all(np.diff(k1s) < 0) and np.all(np.diff(xs) > 0)))
    k1s, xs = sweep([table1_model(sigma=0.1, lam=l) for l in np.linspace(0.0, 0.3, 6)],
                    CappedCall(K=10.0, I=1.0))
    checks.append(("arith lambda", np.all(np.diff(k1s) < 0) and np.all(np.diff(xs) > 0)))
    # geometric, r > alpha: same direction
    k1s, xs = sweep([table2_model(sigma=s, lam=0.1) for s in np.linspace(0.05, 0.3, 8)],
                    PowerCall(1.0, 1.0, 1.0))
    checks.append(("geo convex sigma", np.all(np.diff(k1s) < 0) and np.all(np.diff(xs) > 0)))
    k1s, xs = sweep([table2_model(sigma=0.1, lam=l) for l in np.linspace(0.0, 0.2, 5)],
                    PowerCall(1.0, 1.0, 1.0))
    checks.append(("geo convex lambda", np.all(np.diff(k1s) < 0) and np.all(np.diff(xs) > 0)))
    # geometric, r < alpha: k1 rises, threshold falls
    k1s, xs = sweep([fig3_model(sigma=s) for s in np.linspace(0.1, 0.45, 8)],
                    PowerCall(1.0, 0.2, 1.0))
    checks.append(("geo concave sigma", np.all(np.diff(k1s) > 0) and np.all(np.diff(xs) < 0)))
    failed = [name for name, good in checks if not good]
    _report(10, "comparative statics", not failed,
            f"sweeps={len(checks)} failed={failed or 'none'}")


def _random_problem(rng: np.random.Generator, geometric: bool):
    if geometric:
        r = rng.uniform(0.03, 0.1)
        alpha = rng.uniform(0.01, 0.8 * r)  # convex regime: k1 > 1
        m = Model(Family.GEOMETRIC, alpha, rng.uniform(0.05, 0.3),
                  rng.uniform(0.0, 0.3), BetaJumps(rng.uniform(0.8, 3.0),
                                                   rng.uniform(1.0, 5.0)), r)
        if rng.random() < 0.5:
            payoff = PowerCall(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.5),
                               rng.uniform(0.5, 2.0))
        else:
            strike = rng.uniform(0.5, 1.5)
            payoff = CappedCall(K=strike + rng.uniform(0.5, 2.0), I=strike)
    else:
        m = Model(Family.ARITHMETIC, rng.uniform(0.0, 0.08), rng.uniform(0.05, 0.35),
                  rng.uniform(0.0, 0.3), GammaJumps(rng.uniform(0.5, 2.0),
                                                    rng.uniform(0.5, 2.0)),
                  rng.uniform(0.02, 0.1))
        strike = rng.uniform(0.3, 2.0)
        payoff = CappedCall(K=strike + rng.uniform(0.5, 3.0), I=strike)
    return m, payoff


def test_criterion_11_certainty_equivalence():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_dt = 0.0
    for trial in range(10):
        geometric = trial % 2 == 0
        model, payoff = _random_problem(rng, geometric)
        sol = solve_threshold(model, payoff)
        x = 0.75 * sol.x_star if geometric else sol.x_star - 0.8
        t_star = certainty_time(model, sol.k1, x, sol.x_star)
        assert t_star > 0.0
        rate = model.discount / sol.k1

        ts = np.linspace(0.0, 2.0 * t_star + 1.0, 200_001)
        flow = x * np.exp(rate * ts) if geometric else x + rate * ts
        h = np.exp(-model.discount * ts) * np.asarray(payoff_eval(payoff, flow))
        i = int(np.argmax(h))
        dt = ts[1] - ts[0]

        flow_star = x * np.exp(rate * t_star) if geometric else x + rate * t_star
        h_star = float(np.exp(-model.discount * t_star)
                       * payoff_eval(payoff, flow_star))
        v = float(value_fn(sol, x))
        worst_rel = max(worst_rel, abs(h_star - v) / v, (h[i] - h_star) / v)
        worst_dt = max(worst_dt, abs(ts[i] - t_star) / dt)
    ok = worst_rel <= 1e-6 and worst_dt <= 1.0
    _report(11, "certainty equivalence", ok,
            f"models=10 worst_rel_value_err={worst_rel:.2e} tol=1e-6 "
            f"worst_argmax_offset={worst_dt:.2f} grid_steps (tol 1)")


def test_criterion_12_consistency_limits():
    checks = []
    # lambda -> 0 continuity of the root
    for base, dist in ((table1_model(0.1, 0.0), GammaJumps(1.0, 1.0)),
                       (table2_model(0.1, 0.0), BetaJumps(1.25, 5.0))):
        tiny = Model(base.family, base.drift, base.volatility, 1e-10, dist,
                     base.discount)
        gap = abs(solve_k1(tiny).k1 - solve_k1(base).k1)
        checks.append((f"{base.family.value} lambda->0 gap={gap:.2e}", gap <= 1e-6))
    # theta* at lambda = 0 is exactly r
    m0 = Model(Family.ARITHMETIC, 0.04, 0.1, 0.0, None, 0.05)
    checks.append(("theta*(lam=0)==r", adjusted_discount(m0, solve_k1(m0).k1) == 0.05))
    # adjusted discount and adjusted drift reproduce k1 through the
    # continuous quadratic
    for m in (fig2_model(), table1_model(0.05, 0.1), table2_model(0.2, 0.2)):
        res = solve_k1(m)
        g1 = abs(continuous_root(m, adjusted_discount(m, res.k1)) - res.k1)
        no_jumps = replace(m, drift=adjusted_drift(m, res.k1), jump_intensity=0.0,
                           jump_dist=None)
        g2 = abs(continuous_root(no_jumps, m.discount + m.jump_intensity) - res.k1)
        checks.append((f"theta* root gap={g1:.2e}", g1 <= 1e-10))
        checks.append((f"mu~ root gap={g2:.2e}", g2 <= 1e-10))
    failed = [name for name, good in checks if not good]
    _report(12, "consistency limits", not failed,
            f"checks={len(checks)} failed={failed or 'none'}")
