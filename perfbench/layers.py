"""Per-layer probe: each public call timed from outside, under a span.

Every traced run ends with this probe, so every per-layer metric is
reported whichever workload ran. The probe problems are the fixed
reference models of ``problems.REFERENCE_MODELS`` (fig2 for geometric
Beta, table1 for arithmetic Gamma); only the Monte Carlo streams depend
on the workload seed. Each metric is the
median duration of the spans with its name.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import problems
from tracing import CountingStream, Tracer

import levystop
from levystop import bounds, cli, mc, model as model_mod, reproduce, roots, stopping, transforms

SPAN_BUDGET_S = 0.1     # repeat a call until this much time or MAX_REPS calls
MIN_REPS, MAX_REPS = 3, 200
PROBE_PATHS = 8192      # per first_passage_times probe (one chunk)
DRAW_PATHS = 48         # single paths pushed through the counting stream

PROBE_PAYOFFS = {
    "capped_call": ("arithmetic-gamma", levystop.CappedCall(K=2.0, I=1.0)),
    "power_call": ("geometric-beta", levystop.PowerCall(1.0, 1.0, 1.0)),
    "tabulated": ("geometric-beta", levystop.TabulatedPayoff((0.0, 1.0, 2.0, 3.0),
                                                            (-1.0, 0.0, 1.5, 2.5))),
}


def _repeat(tracer: Tracer, name: str, fn, **attrs):
    start = perf_counter()
    reps = 0
    while reps < MIN_REPS or (reps < MAX_REPS and perf_counter() - start < SPAN_BUDGET_S):
        with tracer.span(name, **attrs):
            out = fn()
        reps += 1
    return out


def probe(tracer: Tracer, seed: int, tmp: Path) -> dict[str, tuple[float, str]]:
    """Run every layer once over; returns {metric: (value, unit)}."""
    m: dict[str, tuple[float, str]] = {}
    models = {fl: levystop.model_from_config(cfg)[0] for fl, cfg in problems.REFERENCE_MODELS.items()}
    k1s = {}

    # transforms and roots, per family and jump law
    for fl, model in models.items():
        k1 = roots.solve_k1(model).k1
        k1s[fl] = k1
        if model.family is levystop.Family.ARITHMETIC:
            call = lambda: transforms.laplace_transform(model.jump_dist, model.jump_scale * k1)
        else:
            call = lambda: transforms.power_transform(model.jump_dist, k1)
        _repeat(tracer, f"transforms.{fl}", call)
        m[f"transforms.{fl}_us"] = (1e6 * tracer.median(f"transforms.{fl}"), "us")
        _repeat(tracer, f"roots.char_eq.{fl}", lambda: roots.char_eq(model, k1))
        m[f"roots.char_eq_us.{fl}"] = (1e6 * tracer.median(f"roots.char_eq.{fl}"), "us")
        res = _repeat(tracer, f"roots.solve_k1.{fl}", lambda: roots.solve_k1(model))
        m[f"roots.solve_k1_ms.{fl}"] = (1e3 * tracer.median(f"roots.solve_k1.{fl}"), "ms")
        m[f"roots.solve_k1_iters.{fl}"] = (float(res.iterations), "count")

    # payoffs and thresholds, k1 passed in
    for kind, (fl, payoff) in PROBE_PAYOFFS.items():
        model, k1 = models[fl], k1s[fl]
        x0 = model_mod.break_even(payoff)
        _repeat(tracer, f"stopping.solve_threshold.{kind}",
                lambda: stopping.solve_threshold(model, payoff, k1))
        m[f"stopping.solve_threshold_ms.{kind}"] = (
            1e3 * tracer.median(f"stopping.solve_threshold.{kind}"), "ms")
        _repeat(tracer, f"model.payoff_eval.{kind}", lambda: model_mod.payoff_eval(payoff, 1.5 * x0))
        m[f"model.payoff_eval_us.{kind}"] = (1e6 * tracer.median(f"model.payoff_eval.{kind}"), "us")

    fig2, power = models["geometric-beta"], PROBE_PAYOFFS["power_call"][1]
    sol = stopping.solve_threshold(fig2, power, k1s["geometric-beta"])
    grid = np.linspace(0.0, 3.0, 200)
    _repeat(tracer, "stopping.value_fn", lambda: stopping.value_fn(sol, grid))
    m["stopping.value_fn_us"] = (1e6 * tracer.median("stopping.value_fn"), "us")
    _repeat(tracer, "bounds.sandwich", lambda: bounds.sandwich(fig2, power))
    m["bounds.sandwich_ms"] = (1e3 * tracer.median("bounds.sandwich"), "ms")
    _repeat(tracer, "model.from_config", lambda: levystop.model_from_config(problems.README_CONFIG))
    m["model.from_config_us"] = (1e6 * tracer.median("model.from_config"), "us")

    # reproduce, directly and through the CLI
    for target in ("table1", "table2", "table3"):
        _repeat(tracer, "reproduce.table", lambda: reproduce.table(target), target=target)
    m["reproduce.table_ms"] = (1e3 * tracer.median("reproduce.table"), "ms")
    for fn in (reproduce.figure1, reproduce.figure2, reproduce.figure3):
        _repeat(tracer, "reproduce.figure", fn, target=fn.__name__)
    m["reproduce.figure_ms"] = (1e3 * tracer.median("reproduce.figure"), "ms")

    cfg = tmp / "probe-config.json"
    cfg.write_text(json.dumps(problems.README_CONFIG))
    out, out_csv = str(tmp / "probe-out.json"), str(tmp / "probe-out.csv")
    argvs = {
        "root": [["root", "--config", str(cfg), "--out", out]],
        "solve": [["solve", "--config", str(cfg), "--x", "1.0", "--csv", out_csv, "--out", out]],
        "sweep": [["sweep", "--config", str(cfg), "--param", "sigma", "--range", "0.05:0.3:6",
                   "--out", out_csv]],
        "reproduce": [["reproduce", "--target", t, "--out", out_csv]
                      for t in ("table1", "table2", "table3", "figure1", "figure2", "figure3")],
    }
    for sub, calls in argvs.items():
        for argv in calls:
            code = _repeat(tracer, f"cli.{sub}", lambda: cli.main(argv))
            if code != 0:
                raise RuntimeError(f"probe request {argv} exited {code}")
        m[f"cli.{sub}_ms"] = (1e3 * tracer.median(f"cli.{sub}"), "ms")

    m.update(_probe_mc(tracer, seed, models, k1s))
    return m


def _probe_mc(tracer: Tracer, seed: int, models: dict, k1s: dict) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    zs, censored, paths = [], 0, 0
    for i, (fl, model) in enumerate(models.items()):
        x, y = problems.REFERENCE_XY[model.family.value]
        with tracer.span(f"mc.first_passage_times.{fl}") as span:
            tau = mc.first_passage_times(model, x, [y], PROBE_PATHS, seed=seed * 1000 + i)[:, 0]
        m[f"mc.paths_per_s.{fl}"] = (PROBE_PATHS / ((span["end_ns"] - span["start_ns"]) * 1e-9), "1/s")
        hit = np.isfinite(tau)
        disc = np.where(hit, np.exp(-model.discount * np.where(hit, tau, 0.0)), 0.0)
        target = roots.psi(model, k1s[fl], x) / roots.psi(model, k1s[fl], y)
        zs.append((disc.mean() - target) / (disc.std(ddof=1) / math.sqrt(len(disc))))
        censored += int((~hit).sum())
        paths += len(tau)
    m["mc.censored_frac"] = (censored / paths, "fraction")
    # magnitude of the pooled z, so that lower is better
    m["mc.bias_z"] = (abs(float(sum(zs) / math.sqrt(len(zs)))), "z")

    # criterion 08's 17-level grid on fig2, one path serving every barrier
    fig2 = models["geometric-beta"]
    with tracer.span("mc.threshold_grid_search") as span:
        mc.threshold_grid_search(fig2, PROBE_PAYOFFS["power_call"][1], 1.0,
                                 np.linspace(2.0, 2.8, 17), PROBE_PATHS, seed=seed)
    m["mc.grid_paths_per_s"] = (PROBE_PATHS / ((span["end_ns"] - span["start_ns"]) * 1e-9), "1/s")

    # draws per path on fig2 (criterion 07), counted outside the engine
    horizon = mc.default_horizon(fig2)
    calls = draws = 0
    for i in range(DRAW_PATHS):
        stream = CountingStream(np.random.Generator(np.random.Philox(
            np.random.SeedSequence([seed, 7, i]))))
        with tracer.span("mc.simulate_to_threshold"):
            mc.simulate_to_threshold(fig2, 1.0, 2.39, horizon, stream)
        calls += stream.calls
        draws += stream.draws
        for method, n in stream.by_method.items():
            tracer.count(f"mc.rng_draws.{method}", n)
    tracer.count("mc.rng_calls", calls)
    tracer.count("mc.rng_draws", draws)
    m["mc.rng_draws_per_path"] = (draws / DRAW_PATHS, "count")
    m["mc.rng_calls_per_path"] = (calls / DRAW_PATHS, "count")
    return m
