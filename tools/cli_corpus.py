"""Record the analytic CLI's output bytes over a fixed request corpus.

    python tools/cli_corpus.py SRC OUT

imports ``levystop`` from the source directory SRC, runs every request
in-process through ``levystop.cli.main`` and writes one JSON line per
request to OUT: its name, argv (config paths replaced by the config
itself), exit code, stdout and stderr. Two trees whose OUT files are
byte-identical print the same bytes for every request.

The corpus (476 requests):
  - root, solve --x=1.0 --csv -, and a sigma and a lambda sweep on the
    README config and on 6 seeds x 19 family x jump law x payoff problems
    from perfbench/problems.py (imported read-only);
  - solve --grid, a capped-call override, all six reproduce targets at
    --precision 2 and full, and two error cases (exit 2 and exit 3).
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
    ]
    out += [(f"reproduce {t} {p}", None, ["reproduce", "--target", t, "--precision", p])
            for t in TARGETS for p in ("2", "full")]
    out += [
        ("error bad drift", dict(readme, drift="abc"), ["root"]),
        ("error undominated power", dict(readme, payoff={
            "kind": "power_call", "params": {"a": 1.0, "b": 3.0, "K": 1.0}}), ["solve"]),
    ]
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
