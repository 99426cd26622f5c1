"""Command line front end.

  levy-stop root      --config FILE            characteristic root + bracket
  levy-stop solve     --config FILE            threshold, value, sandwich
  levy-stop reproduce --target table1|...      reference tables and figures
  levy-stop sweep     --config FILE --param    comparative statics CSV
  levy-stop simulate  --config FILE --x --y    Monte Carlo cross-check

Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
4 statistical contract violation under --assert. JSON goes to stdout
(or --out); CSV is RFC-4180 with a header row.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import bounds, mc, reproduce
from .errors import InvalidModel, SolverError
from .model import _PAYOFF_KINDS, Model, Payoff, _build, model_from_config, model_to_config
from .roots import psi_ratio, solve_k1
from .stopping import solve_threshold, value_fn

UNCHECKED = [
    "payoff nonnegativity at jump landings below break-even is assumed, not certified",
]
# --K, --I, --a, --b: every number a payoff kind takes, one flag per name
_OVERRIDE_FLAGS = tuple(dict.fromkeys(
    name for _, names in _PAYOFF_KINDS.values() for name, is_list in names.items() if not is_list))


def _read_config(path: str) -> tuple[Model, Payoff | None]:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InvalidModel(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InvalidModel(f"config is not valid JSON: {exc}") from exc
    return model_from_config(cfg)


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise InvalidModel(f"expected lo:hi:n, got {text!r}") from None
    if n < 2 or hi <= lo:
        raise InvalidModel("range needs hi > lo and n >= 2")
    return np.linspace(lo, hi, n)


def _emit_json(payload: dict, out: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: an overflow upstream
        raise SolverError(f"result is not finite: {exc}") from None
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv_out(header: list[str], rows, out: str | None, trailer: list[str] | None = None) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
        for line in trailer or []:
            fh.write(f"# {line}\r\n")

    if out:
        with open(out, "w", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _fmt(value: float, precision: str) -> str:
    return f"{value:.2f}" if precision == "2" else repr(float(value))


def _problem(args) -> tuple[Model, Payoff]:
    """The config's model and payoff; --payoff and its flags replace the payoff."""
    model, payoff = _read_config(args.config)
    if args.payoff:
        kind = {"capped": "capped_call", "power": "power_call"}.get(args.payoff, args.payoff)
        params = {n: getattr(args, n) for n in _OVERRIDE_FLAGS if getattr(args, n) is not None}
        payoff = _build({"kind": kind, "params": params}, _PAYOFF_KINDS, "payoff override")
    if payoff is None:
        raise InvalidModel(f"{args.command} needs a payoff (config key or --payoff flags)")
    return model, payoff


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_root(args) -> int:
    model, payoff = _read_config(args.config)
    result = solve_k1(model)
    _emit_json({
        "model": model_to_config(model, payoff),
        "k1": result.k1,
        "bracket_low": result.bracket_low,
        "bracket_high": result.bracket_high,
        "residual": result.residual,
        "iterations": result.iterations,
    }, args.out)
    return 0


def cmd_solve(args) -> int:
    model, payoff = _problem(args)
    grid = _parse_range(args.grid) if args.grid else None
    report = bounds.sandwich(model, payoff, grid=grid)
    sol = report.solution
    payload = {
        "model": model_to_config(model, payoff),
        "k1": sol.k1,
        "bracket_low": report.k_low,
        "bracket_high": report.k_high,
        "x_star": sol.x_star,
        "value_at_star": sol.value_at_star,
        "multiplier": sol.multiplier,
        "smooth_fit": sol.smooth_fit,
        "smooth_fit_gap": sol.smooth_fit_gap,
        "x_star_low": report.x_star_low,
        "x_star_high": report.x_star_high,
        "theta_star": report.theta_star,
        "mu_tilde": report.mu_tilde,
        "certainty_growth_rate": bounds.certainty_growth(model, sol.k1),
        "ratio_unimodal": sol.ratio_unimodal,
        "unchecked_hypotheses": UNCHECKED,
    }
    if args.x is not None:
        payload["x"] = args.x
        payload["value"] = float(value_fn(sol, args.x))
        payload["certainty_time"] = bounds.certainty_time(model, sol.k1, args.x, sol.x_star)
    _emit_json(payload, args.out)
    if args.csv:
        # csv writes each Python float as its repr
        rows = np.column_stack((report.grid, report.v_low, report.v, report.v_high)).tolist()
        _csv_out(["x", "v_low", "v", "v_high"], rows, None if args.csv == "-" else args.csv)
    return 0


def cmd_reproduce(args) -> int:
    target = args.target
    if target in ("table1", "table2", "table3"):
        values = reproduce.table(target)
        header = ["lambda"] + [f"{s:.2f}" for s in reproduce.SIGMAS]
        rows = []
        for lam, row in zip(reproduce.LAMBDAS, values):
            rows.append([f"{lam:.1f}"] + [_fmt(v, args.precision) for v in row])
        _csv_out(header, rows, args.out)
        return 0
    builders = {"figure1": reproduce.figure1, "figure2": reproduce.figure2,
                "figure3": reproduce.figure3}
    columns = builders[target]()
    names = list(columns)
    _csv_out(names, np.column_stack([columns[n] for n in names]).tolist(), args.out)
    return 0


def cmd_sweep(args) -> int:
    model, payoff = _problem(args)
    values = _parse_range(args.range)
    rows = []
    k1s, xs = [], []
    name = "volatility" if args.param == "sigma" else "jump_intensity"
    for v in values.tolist():
        m = replace(model, **{name: v})
        root = solve_k1(m)
        sol = solve_threshold(m, payoff, root)
        k1s.append(root.k1)
        xs.append(sol.x_star)
        cells = (v, root.k1, sol.x_star, bounds.adjusted_discount(m, root.k1),
                 bounds.certainty_growth(m, root.k1))
        rows.append([repr(float(c)) for c in cells])

    def direction(seq) -> str:
        diffs = np.diff(seq)
        if np.all(diffs < 0):
            return "strictly_decreasing"
        if np.all(diffs > 0):
            return "strictly_increasing"
        return "not_monotone"

    trailer = [f"k1 {direction(k1s)}", f"x_star {direction(xs)}"]
    _csv_out([args.param, "k1", "x_star", "theta_star", "mu_hat"], rows, args.out, trailer)
    return 0


def cmd_simulate(args) -> int:
    model, payoff = _read_config(args.config)
    root = solve_k1(model)
    if args.grid:
        if payoff is None:
            raise InvalidModel("grid search needs a payoff in the config")
        grid = _parse_range(args.grid)
        result = mc.threshold_grid_search(model, payoff, args.x, grid, args.n,
                                          args.seed, args.horizon)
        sol = solve_threshold(model, payoff, root)
        spacing = float(grid[1] - grid[0])
        payload = {
            "best_y": result.best_y,
            "x_star_analytic": sol.x_star,
            "grid_spacing": spacing,
            "seed": args.seed,
            "points": [
                {"y": y, "mean": e.mean, "stderr": e.stderr,
                 "truncation_bound": e.truncation_bound}
                for y, e in zip(result.thresholds, result.estimates)
            ],
        }
        _emit_json(payload, args.out)
        if args.do_assert and abs(result.best_y - sol.x_star) > spacing:
            print("statistical contract violated: best_y beyond one grid step",
                  file=sys.stderr)
            return 4
        return 0

    if args.y is None:
        raise InvalidModel("simulate needs --y or --grid")
    if payoff is not None:
        est = mc.policy_value(model, payoff, args.x, args.y, args.n, args.seed,
                              args.horizon)
        # at or above the barrier the policy stops at once and is worth g(x)
        g_stop = payoff.eval(max(args.x, args.y))
        target = g_stop * psi_ratio(model, root.k1, args.x, args.y)
    else:
        est = mc.estimate_laplace(model, args.x, args.y, args.n, args.seed,
                                  args.horizon)
        target = psi_ratio(model, root.k1, args.x, args.y)
    z = 0.0 if est.stderr == 0 else (est.mean - target) / est.stderr
    payload = {
        "mean": est.mean,
        "stderr": est.stderr,
        "n_paths": est.n_paths,
        "horizon": est.horizon,
        "truncation_bound": est.truncation_bound,
        "seed": est.seed,
        "target_analytic": target,
        "z_score": z,
    }
    _emit_json(payload, args.out)
    if args.do_assert and abs(est.mean - target) > 3.0 * est.stderr + est.truncation_bound:
        print("statistical contract violated: estimate beyond 3 stderr + truncation",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The levy-stop parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="levy-stop",
        description="optimal stopping for spectrally negative jump diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    config.add_argument("--out")
    override = argparse.ArgumentParser(add_help=False)
    override.add_argument("--payoff", help="override payoff kind (capped|power)")
    for name in _OVERRIDE_FLAGS:
        override.add_argument(f"--{name}", type=float)

    p_root = sub.add_parser("root", parents=[config], help="characteristic equation root + bracket")
    p_root.set_defaults(fn=cmd_root)

    p_solve = sub.add_parser("solve", parents=[config, override],
                             help="threshold, value, sandwich bounds")
    p_solve.add_argument("--grid", help="value grid lo:hi:n")
    p_solve.add_argument("--x", type=float, help="report V and t* at this state")
    p_solve.add_argument("--csv", help="write the sandwich grid CSV here ('-' = stdout)")
    p_solve.set_defaults(fn=cmd_solve)

    p_rep = sub.add_parser("reproduce", help="reference tables and figures")
    p_rep.add_argument("--target", required=True,
                       choices=["table1", "table2", "table3",
                                "figure1", "figure2", "figure3"])
    p_rep.add_argument("--precision", choices=["2", "full"], default="2")
    p_rep.add_argument("--out")
    p_rep.set_defaults(fn=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", parents=[config, override],
                             help="comparative statics over sigma or lambda")
    p_sweep.add_argument("--param", required=True, choices=["sigma", "lambda"])
    p_sweep.add_argument("--range", required=True, help="lo:hi:n")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[config],
                           help="Monte Carlo first-passage cross-check")
    p_sim.add_argument("--x", type=float, required=True)
    p_sim.add_argument("--y", type=float)
    p_sim.add_argument("--grid", help="threshold grid lo:hi:n")
    p_sim.add_argument("--n", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--assert", dest="do_assert", action="store_true",
                       help="exit 4 when the estimate violates its contract")
    p_sim.set_defaults(fn=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy warnings would add stderr lines; finiteness checks catch what matters
        with np.errstate(all="ignore"):
            return args.fn(args)
    except InvalidModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # SolverError, or float overflow on extreme inputs
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
