"""Command line front end.

  levy-stop root      --config FILE            characteristic root + bracket
  levy-stop solve     --config FILE            threshold, value, sandwich
  levy-stop reproduce --target table1|...      reference tables and figures
  levy-stop sweep     --config FILE --param    comparative statics CSV
  levy-stop simulate  --config FILE --x --y    Monte Carlo cross-check

Exit codes: 0 success, 2 config/validation error, 3 numerical failure, 4
statistical contract violation under --assert. JSON goes to stdout (or
--out); CSV has a header row, CRLF line ends and unquoted cells (float
reprs or fixed names). `_emit` writes every output file before anything
reaches stdout, so a failed write exits 2 with stdout empty. Each
subcommand imports only the modules it needs, so `root` on a config
without tabulated marks or payoff loads neither numpy nor the Monte
Carlo engine.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import replace
from math import isfinite
from operator import eq, ge, gt, le, lt

from ._numpy import np
from .errors import InvalidModel, SolverError
from .model import Model, Payoff, model_from_config, model_to_config
from .roots import psi_ratio, solve_k1

UNCHECKED = [
    "payoff nonnegativity at jump landings below break-even is assumed, not certified",
]


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
    if not isfinite(hi - lo):  # a nan or infinite bound, or hi - lo overflowing
        raise InvalidModel(f"range bounds and their span must be finite, got {text!r}")
    if n < 2 or hi <= lo:
        raise InvalidModel("range needs hi > lo and n >= 2")
    try:
        return np.linspace(lo, hi, n)
    except (MemoryError, ValueError) as exc:  # more points than memory, or than an array holds
        raise InvalidModel(f"range of {n} points is too large: {exc}") from None


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity: an overflow upstream
        raise SolverError(f"result is not finite: {exc}") from None


def _csv_text(header: list[str], rows, trailer=()) -> str:
    """CSV with CRLF line ends, then `# ` trailer lines. Every cell is a
    Python float, written as its repr, or a fixed name; RFC 4180 quotes
    neither, so each line is its cells joined by commas."""
    lines = [",".join(map(str, row)) for row in (header, *rows)] + [f"# {t}" for t in trailer]
    return "\r\n".join(lines) + "\r\n"


# a sweep column's trailer label: the first whose test holds at every step
_DIRECTIONS = (("strictly_decreasing", gt), ("strictly_increasing", lt), ("constant", eq),
               ("nondecreasing", le), ("nonincreasing", ge))


def _direction(column: tuple[float, ...]) -> str:
    return next((name for name, holds in _DIRECTIONS
                 if all(holds(a, b) for a, b in zip(column, column[1:]))), "not_monotone")


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) output: every file first, then, in order, the
    texts whose path is None to stdout, so a failed write leaves stdout empty."""
    for text, out in outputs:
        if out is not None:
            try:
                with open(out, "w", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InvalidModel(f"cannot write output: {exc}") from None
    sys.stdout.write("".join(text for text, out in outputs if out is None))


def _problem(args) -> tuple[Model, Payoff]:
    """The config's model and payoff, which the command needs."""
    model, payoff = _read_config(args.config)
    if payoff is None:
        raise InvalidModel(f"{args.command} needs a payoff in the config")
    return model, payoff


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_root(args) -> int:
    model, payoff = _read_config(args.config)
    root = vars(solve_k1(model))  # RootResult's fields, in order
    _emit((_json_text({"model": model_to_config(model, payoff), **root}), args.out))
    return 0


def cmd_solve(args) -> int:
    from . import bounds
    from .stopping import value_fn

    model, payoff = _problem(args)
    if args.x is not None:
        if not isfinite(args.x):
            raise InvalidModel(f"--x must be a finite number, got {args.x}")
        model.require_states(args.x)  # one domain message for every x at or below the floor
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
        "unchecked_hypotheses": UNCHECKED,
    }
    if args.x is not None:
        payload["x"] = args.x
        payload["value"] = value_fn(sol, args.x)
        payload["certainty_time"] = bounds.certainty_time(model, sol.k1, args.x, sol.x_star)
    outputs = [(_json_text(payload), args.out)]
    if args.csv is not None:
        rows = np.column_stack((report.grid, report.v_low, report.v, report.v_high)).tolist()
        outputs.append((_csv_text(["x", "v_low", "v", "v_high"], rows),
                        None if args.csv == "-" else args.csv))
    _emit(*outputs)
    return 0


def cmd_reproduce(args) -> int:
    from . import reproduce

    if args.target.startswith("table"):
        header = ["lambda"] + [f"{s:.2f}" for s in reproduce.SIGMAS]
        rows = [[f"{lam:.1f}"] + (row if args.precision == "full" else [f"{v:.2f}" for v in row])
                for lam, row in zip(reproduce.LAMBDAS, reproduce.table(args.target).tolist())]
    else:  # figure1..3: one column per dict entry
        columns = getattr(reproduce, args.target)()
        header = list(columns)
        rows = np.column_stack(list(columns.values())).tolist()
    _emit((_csv_text(header, rows), args.out))
    return 0


def cmd_sweep(args) -> int:
    from . import bounds
    from .stopping import solve_threshold

    model, payoff = _problem(args)
    values = _parse_range(args.range)
    rows = []
    name = "volatility" if args.param == "sigma" else "jump_intensity"
    for v in values.tolist():
        m = replace(model, **{name: v})
        k1 = solve_k1(m).k1
        cells = (v, k1, solve_threshold(m, payoff, k1).x_star, bounds.adjusted_discount(m, k1),
                 bounds.certainty_growth(m, k1))
        rows.append([float(c) for c in cells])
    columns = list(zip(*rows))
    trailer = [f"k1 {_direction(columns[1])}", f"x_star {_direction(columns[2])}"]
    header = [args.param, "k1", "x_star", "theta_star", "mu_hat"]
    _emit((_csv_text(header, rows, trailer), args.out))
    return 0


def cmd_simulate(args) -> int:
    from . import mc
    from .stopping import solve_threshold, stop_value

    model, payoff = _read_config(args.config)
    root = solve_k1(model)
    if args.grid:
        if payoff is None:
            raise InvalidModel("grid search needs a payoff in the config")
        grid = _parse_range(args.grid)
        result = mc.threshold_grid_search(model, payoff, args.x, grid, args.n,
                                          args.seed, args.horizon)
        sol = solve_threshold(model, payoff, root.k1)
        spacing = float(grid[1] - grid[0])
        payload = {
            "best_y": result.best_y,
            "y_fit": result.y_fit,
            "x_star_analytic": sol.x_star,
            "grid_spacing": spacing,
            "seed": args.seed,
            "points": [
                {"y": y, "mean": e.mean, "stderr": e.stderr,
                 "truncation_bound": e.truncation_bound}
                for y, e in zip(result.thresholds, result.estimates)
            ],
        }
        if args.x >= sol.x_star:  # the rule is "stop now": no level may beat g(x)
            stop_now = payoff.eval(args.x)
            violated = any(e.mean - stop_now > 3.0 * e.stderr + e.truncation_bound
                           for e in result.estimates)
            verdict = "a level beats stopping now beyond 3 stderr + truncation"
        else:
            violated = abs(result.best_y - sol.x_star) > spacing
            verdict = "best_y beyond one grid step"
    else:
        if args.y is None:
            raise InvalidModel("simulate needs --y or --grid")
        if payoff is not None:
            est = mc.policy_value(model, payoff, args.x, args.y, args.n, args.seed,
                                  args.horizon)
            target = stop_value(model, payoff, root.k1, args.x, args.y)
        else:
            est = mc.estimate_laplace(model, args.x, args.y, args.n, args.seed,
                                      args.horizon)
            target = psi_ratio(model, root.k1, args.x, args.y)
        payload = {**vars(est), "target_analytic": target,
                   "z_score": 0.0 if est.stderr == 0 else (est.mean - target) / est.stderr}
        violated = abs(est.mean - target) > 3.0 * est.stderr + est.truncation_bound
        verdict = "estimate beyond 3 stderr + truncation"
    _emit((_json_text(payload), args.out))
    if args.do_assert and violated:
        print(f"statistical contract violated: {verdict}", file=sys.stderr)
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

    p_root = sub.add_parser("root", parents=[config], help="characteristic equation root + bracket")
    p_root.set_defaults(fn=cmd_root)

    p_solve = sub.add_parser("solve", parents=[config], help="threshold, value, sandwich bounds")
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

    p_sweep = sub.add_parser("sweep", parents=[config],
                             help="comparative statics over sigma or lambda")
    p_sweep.add_argument("--param", required=True, choices=["sigma", "lambda"])
    p_sweep.add_argument("--range", required=True, help="lo:hi:n")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[config],
                           help="Monte Carlo first-passage cross-check")
    p_sim.add_argument("--x", type=float, required=True)
    target = p_sim.add_mutually_exclusive_group()  # neither: cmd_simulate exits 2
    target.add_argument("--y", type=float)
    target.add_argument("--grid", help="threshold grid lo:hi:n")
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
        # numpy's floating-point warnings would add stderr lines; finiteness
        # checks catch what matters
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.fn(args)
    except InvalidModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a --grid with more levels than memory holds
        print(f"error: request too large to allocate: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # SolverError, or float overflow on extreme inputs
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
