"""The three workloads, each a closed loop with one client in one process.

A workload is a stream of cycles. Every cycle has the same composition
(the seed draws the parameters and the order), so per-cycle throughput
is comparable across cycles and across seeds. Each operation is timed
alone; its output is checked right after, outside the timed region.

  analytic   in-process ``levystop.cli.main`` requests (root, solve,
             sweep, reproduce) over every family x jump law x payoff
  mc_single  ``estimate_laplace`` / ``policy_value`` on one barrier,
             both families and every jump law, fig2 and table1 included
  mc_grid    ``threshold_grid_search`` on 17 shared-path barriers
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import problems
from tracing import NULL

import levystop
from levystop import cli, mc, reproduce
from levystop.roots import psi, solve_k1
from levystop.stopping import solve_threshold

TARGET_NAMES = ("table1", "table2", "table3", "figure1", "figure2", "figure3")
SWEEP_POINTS = 3
MC_SINGLE_PATHS = 8192
MC_GRID_PATHS = 5000
MC_Z_GATE = 5.0       # |mean - target| <= 5 stderr + truncation bound
STDERR_GOAL = 1e-3    # time_to_se_1e-3_s rescales each call to this stderr
REFERENCE_S = 0.007   # the reference kernel's wall time at the nominal host speed
SPEED_EVERY_S = 0.2   # how often a run re-times the reference kernel
# how far the workloads' times follow the kernel's: 0.55-0.98 by metric, 0.8
# on average, fitted over some 60 runs on a 2-vCPU Xeon VM whose speed changed by half
SPEED_ELASTICITY = 0.8


@dataclass
class Op:
    kind: str                           # span name, e.g. "cli.solve"
    label: str                          # the problem, e.g. "arithmetic-beta-tabulated"
    run: Callable[[], object]           # the timed call
    check: Callable[[object], tuple[bool, dict]]
    prepare: Callable[[], None] = lambda: None


@dataclass
class OpResult:
    cycle: int
    traced: bool
    kind: str
    label: str
    latency: float
    ok: bool
    info: dict = field(default_factory=dict)


def reference_kernel() -> float:
    """Wall time of a fixed piece of work that runs no levystop code: a
    Python loop of small numpy updates and normal draws, the kind of work
    the MC step loop and the CLI's Python do."""
    rng = np.random.default_rng(12345)
    x = np.zeros(256)
    total = 0.0
    t0 = perf_counter()
    for _ in range(600):
        x = np.maximum(x + 0.01 * rng.standard_normal(256), 0.0)
        total += float(x.sum())
    return perf_counter() - t0


def speed_factor(kernel_s: float) -> float:
    """What a wall time taken next to a kernel time of ``kernel_s`` is
    multiplied by to bring it to the nominal host speed."""
    return (REFERENCE_S / kernel_s) ** SPEED_ELASTICITY


class HostSpeed:
    """The factor that brings a run's wall times to the nominal host speed.

    On a shared host the CPU speed a run gets drifts, by 20% or more
    within a minute and by half between one run and the next, in CPU time
    as much as in wall time, so whole runs of identical work differ by
    that much. The drift slows the reference kernel too, so scaling a
    run's times by ``speed_factor`` of its median kernel time cancels most
    of it. Work that makes levystop itself faster or slower still shows in
    full, because the kernel runs none of its code.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def refresh(self) -> None:
        if perf_counter() - self.last >= SPEED_EVERY_S:
            self.samples.append(reference_kernel())
            self.last = perf_counter()

    def scale(self) -> float:
        return speed_factor(statistics.median(self.samples))


def drive(workload, seconds: float, tracer, trace_mode: bool, speed: HostSpeed) -> list[OpResult]:
    """Run whole cycles until ``seconds`` have passed; in trace mode every
    other cycle runs under spans, so traced and untraced cycles interleave.
    The reference kernel is re-timed between operations, never inside one."""
    deadline = perf_counter() + seconds
    results: list[OpResult] = []
    cycle = 0
    while perf_counter() < deadline:
        traced = trace_mode and cycle % 2 == 1
        tr = tracer if traced else NULL
        for op in workload.cycle(cycle):
            if traced:
                tracer.trace_id += 1
            op.prepare()
            speed.refresh()
            info: dict = {}
            t0 = perf_counter()
            try:
                with tr.span(op.kind, label=op.label):
                    value = op.run()
                latency = perf_counter() - t0
                with tr.span("check", label=op.label):
                    ok, info = op.check(value)
            except (Exception, SystemExit) as exc:  # a failed operation, not a crash
                latency, ok, info = perf_counter() - t0, False, {"error": repr(exc)}
            results.append(OpResult(cycle, traced, op.kind, op.label, latency, ok, info))
        cycle += 1
    return results


def typical_rate(results: list[OpResult], weight: Callable[[OpResult], float] = lambda r: 1.0) -> float:
    """Weight (operations, or paths) per second of timed work in a typical cycle.

    Each request class (kind and problem label) contributes its count per
    cycle times its median latency, so a stall that slows a few operations
    moves the figure far less than it would move a plain mean.
    """
    groups: dict[tuple[str, str], list[OpResult]] = {}
    for r in results:
        groups.setdefault((r.kind, r.label), []).append(r)
    cycles = len({r.cycle for r in results})
    done = seconds = 0.0
    for rs in groups.values():
        per_cycle = len(rs) / cycles
        done += per_cycle * statistics.median(weight(r) for r in rs)
        seconds += per_cycle * statistics.median(r.latency for r in rs)
    return done / seconds


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten operations beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"op_p50_ms": 1e3 * statistics.median(lat), "op_tail_ms": 1e3 * tail,
            "op_tail_percentile": round(pct, 2), "op_samples": n}


def end_to_end(results: list[OpResult]) -> dict:
    out = {"ops_per_s": typical_rate(results)}
    out.update(latency_summary([r.latency for r in results]))
    return out


# ---------------------------------------------------------------------------
# analytic: the CLI request mix
# ---------------------------------------------------------------------------

class Analytic:
    """One cycle is 74 requests, shuffled by the seed: for each of the 17
    problem kinds without arithmetic Beta marks one root and one solve, and
    one sweep unless the payoff is tabulated; one more root and solve per
    closed-form kind (closed forms are then a clear majority); two roots for
    each of the two arithmetic Beta kinds; and the six reproduce targets.

    A sweep with a tabulated payoff fails at this commit (``cmd_sweep``
    writes ``np.float64(...)`` cells), so it is not in the timed mix; the
    untimed probe in ``extra`` runs one every run and reports whether it
    still fails.

    Arithmetic Beta problems are posed only as roots so the slowest class
    (one ~250 ms quadrature root per request) is a single request kind with
    4 members per cycle: the tail percentile then falls inside it however
    many cycles a run completes, instead of jumping between request kinds.
    """

    name = "analytic"

    def __init__(self, seed: int, tmp: Path, tracer) -> None:
        self.seed = seed
        self.cfg_path = tmp / "config.json"
        self.json_path = tmp / "out.json"
        self.csv_path = tmp / "out.csv"
        self.digest = hashlib.sha256()
        self.digest_requests = 0
        self.mp_checked = 0

    def cycle(self, c: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, c])
        specs: list[tuple[str, object]] = []
        for fam, law, pay in problems.COMBOS:
            if fam == "arithmetic" and law == "beta":
                kinds = ["root", "root"]
            else:
                kinds = ["root", "solve"] + (["sweep"] if pay != "tabulated" else [])
                if problems.closed_form(fam, law, pay):
                    kinds += ["root", "solve"]
            for kind in kinds:
                specs.append((kind, (f"{fam}-{law}-{pay}", problems.problem(rng, fam, law, pay))))
        specs += [("reproduce", target) for target in TARGET_NAMES]
        return [self._op(c, *specs[i], rng) for i in rng.permutation(len(specs))]

    def _op(self, c: int, kind: str, spec, rng: np.random.Generator) -> Op:
        out = ["--out", str(self.json_path)]
        cfg = param = None
        if kind == "reproduce":
            label = spec
            precision = str(rng.choice(["2", "full"]))
            argv = ["reproduce", "--target", spec, "--precision", precision,
                    "--out", str(self.csv_path)]
        else:
            label, cfg = spec
            argv = [kind, "--config", str(self.cfg_path)]
            if kind == "root":
                argv += out
            elif kind == "solve":
                x = float(rng.uniform(-0.5, 0.8) if cfg["family"] == "arithmetic"
                          else rng.uniform(0.3, 0.9))
                # one token: argparse would read "--x -5e-05" as a missing value
                argv += [f"--x={x!r}", "--csv", str(self.csv_path)] + out
            else:
                param = str(rng.choice(["sigma", "lambda"]))
                lo = float(rng.uniform(0.08, 0.15) if param == "sigma" else rng.uniform(0.02, 0.1))
                hi = lo + float(rng.uniform(0.05, 0.2))
                argv += ["--param", param, "--range", f"{lo!r}:{hi!r}:{SWEEP_POINTS}",
                         "--out", str(self.csv_path)]

        def prepare() -> None:
            for path in (self.json_path, self.csv_path):
                path.unlink(missing_ok=True)
            if cfg is not None:
                self.cfg_path.write_text(json.dumps(cfg))

        def check(code) -> tuple[bool, dict]:
            if code != 0:
                return False, {"exit_code": code}
            js = self.json_path.read_bytes() if kind in ("root", "solve") else b""
            cs = self.csv_path.read_bytes() if kind != "root" else b""
            if c == 0:  # the first cycle is the same on every machine for a given seed
                self.digest.update(js + cs)
                self.digest_requests += 1
            if kind == "root":
                payload = json.loads(js)
                self.mp_checked += 1
                return checks.check_root(payload) and checks.root_is_exact(cfg, payload["k1"]), {}
            if kind == "solve":
                return checks.check_solve(json.loads(js), cs), {}
            if kind == "sweep":
                return checks.check_sweep(cs, param, SWEEP_POINTS), {}
            return checks.check_reproduce(cs, spec, reproduce.TARGETS), {}

        return Op(f"cli.{kind}", label, lambda: cli.main(argv), check, prepare)

    def extra(self, results: list[OpResult]) -> dict:
        return {"analytic_sha256": self.digest.hexdigest(),
                "analytic_digest_requests": self.digest_requests,
                "mpmath_root_checks": self.mp_checked,
                "known_defects": self.known_defects()}

    def known_defects(self) -> list[dict]:
        """Untimed and outside ``attempted``: one tabulated-payoff sweep per
        family, checked with the same sweep check as the timed requests.
        Returns the ones that fail, with the first data row written."""
        rng = np.random.default_rng([self.seed, 1 << 31])  # no cycle uses this key
        found = []
        for fam in problems.FAMILY_LAWS:
            label = f"{fam}-point_mass-tabulated"
            self.cfg_path.write_text(json.dumps(problems.problem(rng, fam, "point_mass", "tabulated")))
            self.csv_path.unlink(missing_ok=True)
            argv = ["sweep", "--config", str(self.cfg_path), "--param", "sigma",
                    "--range", f"0.1:0.2:{SWEEP_POINTS}", "--out", str(self.csv_path)]
            code, body = None, b""
            try:
                code = cli.main(argv)
                body = self.csv_path.read_bytes()
                ok = code == 0 and checks.check_sweep(body, "sigma", SWEEP_POINTS)
            except (Exception, SystemExit):
                ok = False
            if not ok:
                rows = body.decode().split("\r\n")
                found.append({"request": f"cli.sweep {label}", "exit_code": code,
                              "first_row": rows[1] if len(rows) > 1 else None})
        return found


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def _op_seed(seed: int, cycle: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, cycle, index]).generate_state(1)[0])


class MCSingle:
    """One pass over the case list per cycle; each call checked against
    psi(x)/psi(y), or g(y) psi(x)/psi(y) for a policy value."""

    name = "mc_single"

    def __init__(self, seed: int, tmp: Path, tracer) -> None:
        self.seed = seed
        self.cases = []
        for case in problems.mc_single_cases(np.random.default_rng([seed, 0])):
            model, payoff = levystop.model_from_config(case.config)
            with tracer.span("roots.solve_k1", label=case.name):
                k1 = solve_k1(model).k1
            target = psi(model, k1, case.x) / psi(model, k1, case.y)
            if case.policy:
                target *= float(levystop.payoff_eval(payoff, case.y))
            self.cases.append((case, model, payoff, target))

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for i, (case, model, payoff, target) in enumerate(self.cases):
            seed, x, y = _op_seed(self.seed, c, i), case.x, case.y
            if case.policy:
                run = (lambda m=model, p=payoff, x=x, y=y, s=seed:
                       mc.policy_value(m, p, x, y, MC_SINGLE_PATHS, s))
                kind = "mc.policy_value"
            else:
                run = (lambda m=model, x=x, y=y, s=seed:
                       mc.estimate_laplace(m, x, y, MC_SINGLE_PATHS, s))
                kind = "mc.estimate_laplace"

            def check(est, target=target) -> tuple[bool, dict]:
                err = est.mean - target
                ok = abs(err) <= MC_Z_GATE * est.stderr + est.truncation_bound
                return ok, {"paths": est.n_paths, "stderr": est.stderr,
                            "z": err / est.stderr if est.stderr > 0 else 0.0}

            ops.append(Op(kind, case.name, run, check))
        return ops

    def extra(self, results: list[OpResult]) -> dict:
        return mc_summary(results)


class MCGrid:
    """Shared-path searches; each checked for best_y within one step of x*."""

    name = "mc_grid"

    def __init__(self, seed: int, tmp: Path, tracer) -> None:
        self.seed = seed
        self.cases = []
        for case in problems.grid_cases(np.random.default_rng([seed, 0])):
            model, payoff = levystop.model_from_config(case.config)
            with tracer.span("stopping.solve_threshold", label=case.name):
                x_star = solve_threshold(model, payoff).x_star
            levels = problems.grid_levels(case, x_star)
            self.cases.append((case, model, payoff, problems.grid_start(case, levels),
                               levels, x_star))

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for i, (case, model, payoff, x, levels, x_star) in enumerate(self.cases):
            seed = _op_seed(self.seed, c, i)
            run = (lambda m=model, p=payoff, x=x, lv=levels, s=seed:
                   mc.threshold_grid_search(m, p, x, lv, MC_GRID_PATHS, s))

            def check(res, x_star=x_star, h=case.h) -> tuple[bool, dict]:
                best = res.thresholds.index(res.best_y)
                return (abs(res.best_y - x_star) <= h * (1 + 1e-9),
                        {"paths": MC_GRID_PATHS, "stderr": res.estimates[best].stderr})

            ops.append(Op("mc.threshold_grid_search", case.name, run, check))
        return ops

    def extra(self, results: list[OpResult]) -> dict:
        return mc_summary(results)


def mc_summary(results: list[OpResult]) -> dict:
    """paths_per_s and time_to_se_1e-3_s of a typical cycle, plus pooled z."""
    ok = [r for r in results if r.ok]
    if not ok:
        return {"paths_per_s": None, "time_to_se_1e-3_s": None}
    by_case: dict[str, list[float]] = {}
    for r in ok:
        by_case.setdefault(r.label, []).append(r.latency * (r.info["stderr"] / STDERR_GOAL) ** 2)
    out = {"paths_per_s": typical_rate(ok, lambda r: r.info["paths"]),
           "time_to_se_1e-3_s": sum(statistics.median(v) for v in by_case.values())}
    zs = [r.info["z"] for r in results if "z" in r.info]
    if zs:
        out["bias_z"] = sum(zs) / len(zs) ** 0.5
    return out


WORKLOADS = {w.name: w for w in (Analytic, MCSingle, MCGrid)}
