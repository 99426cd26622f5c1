"""Record the analytic CLI's output bytes over a fixed request corpus.

    python tools/cli_corpus.py SRC OUT

imports ``levystop`` from the source directory SRC, runs every request
in-process through ``levystop.cli.main`` and writes one JSON line per
request to OUT: its name, argv (config paths replaced by the config
itself), exit code, stdout and stderr. Two trees whose OUT files are
byte-identical print the same bytes for every request.

The corpus (515 requests):
  - root, solve --x=1.0 --csv -, and a sigma and a lambda sweep on the
    README config and on 6 seeds x 19 family x jump law x payoff problems
    from perfbench/problems.py (imported read-only);
  - solve --grid, a capped-call override, a two-peak tabulated payoff, a
    tabulated payoff whose PCHIP tail is flat, and on the README config
    solve --x=0.429 beside simulate --x 0.429 --y x* (its target_analytic
    is solve's value), with and without --assert (exit 0), simulate --grid
    --assert on a tabulated payoff where one threshold is not optimal
    (exit 4), all six reproduce targets at --precision 2 and full, and two
    error cases (exit 2 and exit 3);
  - seeded simulate runs (n = 2000, seed 3) on the 8 Monte Carlo reference
    models with their reference payoffs: --y from below and from above the
    barrier, and --grid from below every level, then --grid from a start
    between two levels (so the first levels are passed at time 0), and one
    fig2 --grid run at n = 70000, which spans two engine chunks.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(6)
TARGETS = ("table1", "table2", "table3", "figure1", "figure2", "figure3")
SIM_GRID = {"arithmetic": "1.0:3.0:5", "geometric": "2.0:2.8:5"}
SIM_INSIDE = {"arithmetic": "1.75", "geometric": "2.3"}  # between two SIM_GRID levels
# g/psi peaks at 1.001 and, 0.1% lower, at 40.0001: a narrow peak beside a broad one
TWO_PEAK = {"family": "arithmetic", "drift": 0.04, "volatility": 0.3, "lambda": 0.0, "r": 0.002,
            "payoff": {"kind": "tabulated", "params": {
                "breakpoints": [0.0, 1.0, 1.001, 40.0, 40.0001, 45.0],
                "values": [-1.0, 0.0, 1.0, 1.0, 6.36, 6.3600001]}}}
# PCHIP clips the end slope to 0, so the tail is flat and g/psi has a maximum though k1 < 1
FLAT_END = {"family": "geometric", "drift": 0.04, "volatility": 0.1, "lambda": 0.01,
            "jump_dist": {"kind": "beta", "params": {"c": 1.25, "d": 2.0}}, "r": 0.02,
            "payoff": {"kind": "tabulated", "params": {
                "breakpoints": [0.5, 1.0, 1.01, 1.5], "values": [-0.5, 0.0, 5.0, 5.1]}}}
README_X_STAR = "2.3886163117354204"  # solve's x_star on the README config
# g/psi peaks at 0.914, but stopping on [0.913, 1.500] and above 2.795 is worth more: from
# x = 2.6 a level of the grid beats stopping now, so simulate --assert exits 4
NOT_ONE_THRESHOLD = {"family": "arithmetic", "drift": 0.04, "volatility": 0.3, "lambda": 0.0,
                     "r": 0.05, "payoff": {"kind": "tabulated", "params": {
                         "breakpoints": [0.0, 1.0, 2.0, 2.6, 2.8, 3.0, 6.0],
                         "values": [-1.0, 0.9, 1.0, 1.02, 1.8, 1.9, 2.5]}}}


def requests(problems) -> list[tuple[str, dict | None, list[str]]]:
    """(name, config or None, argv after the config) for every request."""
    def per_config(name: str, cfg: dict) -> list:
        return [
            (f"{name} root", cfg, ["root"]),
            (f"{name} solve", cfg, ["solve", "--x=1.0", "--csv", "-"]),
            (f"{name} sweep sigma", cfg, ["sweep", "--param", "sigma", "--range", "0.08:0.3:5"]),
            (f"{name} sweep lambda", cfg, ["sweep", "--param", "lambda", "--range", "0.02:0.2:5"]),
        ]

    readme = problems.README_CONFIG
    out = per_config("readme", readme)
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for fam, law, pay in problems.COMBOS:
            out += per_config(f"seed{seed} {fam}-{law}-{pay}", problems.problem(rng, fam, law, pay))
    out += [
        ("readme solve grid", readme, ["solve", "--grid", "0.5:3.0:11"]),
        ("table1 capped override", problems.TABLE1_CONFIG,
         ["solve", "--x=0.5", "--payoff", "capped", "--K", "2", "--I", "1"]),
        ("two-peak tabulated", TWO_PEAK, ["solve", "--x=0.5"]),
        ("flat-ending tabulated", FLAT_END, ["solve", "--x=0.8"]),
        ("readme solve x=0.429", readme, ["solve", "--x=0.429"]),
        ("readme simulate y=x_star", readme,
         ["simulate", "--x", "0.429", "--y", README_X_STAR, "--n", "2000", "--seed", "1"]),
        ("readme simulate y=x_star assert", readme,
         ["simulate", "--x", "0.429", "--y", README_X_STAR, "--n", "2000", "--seed", "1",
          "--assert"]),
        ("not one threshold simulate grid assert", NOT_ONE_THRESHOLD,
         ["simulate", "--x", "2.6", "--grid", "2.6:3.0:9", "--n", "20000", "--seed", "1",
          "--assert"]),
    ]
    out += [(f"reproduce {t} {p}", None, ["reproduce", "--target", t, "--precision", p])
            for t in TARGETS for p in ("2", "full")]
    out += [
        ("error bad drift", dict(readme, drift="abc"), ["root"]),
        ("error undominated power", dict(readme, payoff={
            "kind": "power_call", "params": {"a": 1.0, "b": 3.0, "K": 1.0}}), ["solve"]),
    ]
    sim = ["--n", "2000", "--seed", "3"]
    for name, base in problems.REFERENCE_MODELS.items():
        fam = base["family"]
        cfg = dict(base, payoff=problems.REFERENCE_PAYOFF[fam])
        x, y = (repr(v) for v in problems.REFERENCE_XY[fam])
        out += [
            (f"simulate {name} below", cfg, ["simulate", "--x", x, "--y", y, *sim]),
            (f"simulate {name} above", cfg, ["simulate", "--x", y, "--y", x, *sim]),
            (f"simulate {name} grid", cfg, ["simulate", "--x", x, "--grid", SIM_GRID[fam], *sim]),
        ]
    for name, base in problems.REFERENCE_MODELS.items():
        fam = base["family"]
        cfg = dict(base, payoff=problems.REFERENCE_PAYOFF[fam])
        out.append((f"simulate {name} grid inside", cfg,
                    ["simulate", "--x", SIM_INSIDE[fam], "--grid", SIM_GRID[fam], *sim]))
    fig2 = dict(problems.FIG2_CONFIG, payoff=problems.REFERENCE_PAYOFF["geometric"])
    out.append(("simulate fig2 grid two chunks", fig2,
                ["simulate", "--x", "1.0", "--grid", SIM_GRID["geometric"],
                 "--n", "70000", "--seed", "3"]))
    return out


def results(problems, main):
    """Run every request through main; yield one record per request, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        for name, cfg, argv in requests(problems):
            if cfg is not None:
                cfg_path.write_text(json.dumps(cfg))
                argv = [argv[0], "--config", str(cfg_path), *argv[1:]]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            shown = [json.dumps(cfg) if a == str(cfg_path) else a for a in argv]
            yield {"request": name, "argv": shown, "exit": code,
                   "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def run(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import problems
    from levystop import cli

    if Path(cli.__file__).resolve().parent != src / "levystop":
        sys.exit(f"imported levystop from {cli.__file__}, not from {src}")
    lines = [json.dumps(record) for record in results(problems, cli.main)]
    out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} requests written to {out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1]).resolve(), Path(sys.argv[2])))
