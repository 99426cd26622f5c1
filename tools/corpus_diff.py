"""Compare two CLI output corpora written by tools/cli_corpus.py.

    python tools/corpus_diff.py OLD.jsonl NEW.jsonl [--parent REV] [--verdict]

pairs the records by their ``request`` name and counts identical, moved,
added and removed ones. For each moved record it lists every field whose
value moved, with its old and new value and the relative change: JSON keys
by their path (``points[2].mean``), CSV cells as ``csv[row].column`` and
CSV trailer lines as ``csv#i``. A moved exit code or stderr is listed on a
line of its own.

  --parent REV  first write both corpora, each by its own tree's
                tools/cli_corpus.py in a fresh process: OLD from REV's src/,
                tools/ and perfbench/, exported with git archive into a
                temporary directory, and NEW from this tree. A request that
                only one side's list has shows as added or removed.
  --verdict     re-solve every moved k1 (the k1 of root and solve, the k1
                column of sweep) in mpmath at 40 digits, with the equation
                of perfbench/checks.py, and print each side's error in units
                in the last place of the exact root, then each side's worst
                and median |error|. Judge every moved closed-form threshold
                the same way against its formula in mpmath at that side's
                printed root: solve's x_star from k1, x_star_low from
                bracket_high and x_star_high from bracket_low, and the sweep
                x_star column from its k1 column, for the capped or power
                payoff of the record's model echo (sweep: of its config). A
                tabulated payoff's threshold has no closed form and is
                listed as not judged. Over the moved simulate records, print
                the worst relative move of a --y record's mean and of its
                stderr, and the worst move of a --grid point's mean in units
                of that point's old stderr.

Exits 0 when every request is identical, 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_KEYS = {"sigma": "volatility", "lambda": "lambda"}
THRESHOLD_ROOTS = {"x_star": "k1", "x_star_low": "bracket_high", "x_star_high": "bracket_low"}


def write_corpora(rev: str, old: Path, new: Path) -> None:
    """OLD by rev's tools/cli_corpus.py from rev's src/, NEW by this tree's."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src",
                              "tools", "perfbench"], capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tmp, **safe)
        for tree, out in ((Path(tmp), old), (ROOT, new)):
            subprocess.run([sys.executable, str(tree / "tools" / "cli_corpus.py"),
                            str(tree / "src"), str(out)], check=True, stdout=subprocess.DEVNULL)


def load(path: Path) -> dict[str, dict]:
    records = (json.loads(line) for line in path.read_text().splitlines() if line)
    return {r["request"]: r for r in records}


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj


def fields(stdout: str) -> dict[str, object]:
    """Every value of a JSON object, a CSV table or a JSON object followed by
    a CSV table, keyed by its path."""
    out: dict[str, object] = {}
    try:
        obj, end = json.JSONDecoder().raw_decode(stdout)
    except ValueError:
        obj, end = None, 0
    if isinstance(obj, dict):
        _flatten(obj, "", out)
    else:
        end = 0
    lines = stdout[end:].strip("\n").splitlines()
    table = list(csv.reader(line for line in lines if not line.startswith("# ")))
    if table:
        header, *rows = table
        for i, row in enumerate(rows):
            out.update((f"csv[{i}].{name}", cell) for name, cell in zip(header, row))
    out.update((f"csv#{i}", line[2:]) for i, line in
               enumerate(line for line in lines if line.startswith("# ")))
    return out


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def change(old, new) -> str:
    """The relative change from old to new, or the absolute one from 0."""
    a, b = _number(old), _number(new)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return ""
    return f"  (rel {abs(b - a) / abs(a):.3g})" if a else f"  (abs {abs(b - a):.3g})"


def moved_fields(old: dict, new: dict) -> list[tuple[str, object, object]]:
    a, b = fields(old["stdout"]), fields(new["stdout"])
    missing = "(missing)"
    return [(key, a.get(key, missing), b.get(key, missing))
            for key in list(a) + [k for k in b if k not in a]
            if a.get(key, missing) != b.get(key, missing)]


def _config(record: dict) -> dict:
    argv = record["argv"]
    return json.loads(argv[argv.index("--config") + 1])


def k1_cases(record: dict, moved: list) -> list[tuple[str, dict, float, float]]:
    """(label, config, old k1, new k1) for each k1 of the record that moved
    from one number to another."""
    argv = record["argv"]
    cases = []
    for key, old, new in moved:
        if _number(old) is None or _number(new) is None:
            continue
        if key == "k1":
            cases.append((key, _config(record), float(old), float(new)))
        elif key.startswith("csv[") and key.endswith("].k1") and argv[0] == "sweep":
            param = argv[argv.index("--param") + 1]
            value = float(fields(record["stdout"])[key[:-len("k1")] + param])
            cases.append((f"{key} at {param} = {value!r}",
                          dict(_config(record), **{SWEEP_KEYS[param]: value}),
                          float(old), float(new)))
    return cases


def _ulps(value: float, exact) -> float:
    return float((value - exact) / math.ulp(float(exact)))


def errors_in_ulps(cfg: dict, old: float, new: float, checks) -> tuple[float, float]:
    """Each k1's distance from the root near them, found by the secant method in
    mpmath at 40 digits, in units in the last place of that root."""
    import mpmath

    with mpmath.workdps(40):
        exact = mpmath.findroot(lambda k: checks.mp_char_eq(cfg, k),
                                (mpmath.mpf(old), mpmath.mpf(new)), solver="secant")
        return _ulps(old, exact), _ulps(new, exact)


def _payoff(record: dict) -> tuple[str, dict | None]:
    """The family and payoff a record was solved for: solve's model echo, or
    a sweep's config."""
    model = (_config(record) if record["argv"][0] == "sweep"
             else json.JSONDecoder().raw_decode(record["stdout"])[0]["model"])
    return model["family"], model["payoff"]


def threshold_cases(old: dict, new: dict, moved: list) -> list[tuple[str, list]]:
    """(label, [(old k, old x), (new k, new x)]) for each threshold of the
    record that moved from one number to another, with the root printed
    beside it on each side."""
    sides = fields(old["stdout"]), fields(new["stdout"])
    cases = []
    for key, was, now in moved:
        head, _, name = key.rpartition(".")
        if (name not in THRESHOLD_ROOTS or _number(was) is None or _number(now) is None
                or head and not (head.startswith("csv[") and new["argv"][0] == "sweep")):
            continue
        root = f"{head}.{THRESHOLD_ROOTS[name]}" if head else THRESHOLD_ROOTS[name]
        cases.append((f"{key} from {root}",
                      [(float(side[root]), float(x)) for side, x in zip(sides, (was, now))]))
    return cases


def threshold_errors(family: str, payoff: dict, sides: list) -> tuple[float, ...] | None:
    """Each side's threshold distance from its closed form at that side's
    root, in mpmath at 40 digits, in units in the last place of the exact
    threshold; None for a tabulated payoff, which has no closed form."""
    import mpmath

    kind = payoff["kind"]
    if kind not in ("capped_call", "power_call"):
        return None
    p = {name: mpmath.mpf(v) for name, v in payoff["params"].items()}
    A, B = (1, 0) if family == "arithmetic" else (0, 1)  # 1/u'(x) = A + B x
    errors = []
    with mpmath.workdps(40):
        for k, x in sides:
            k = mpmath.mpf(k)
            if kind == "power_call":
                exact = (k * p["K"] / ((k - p["b"]) * p["a"])) ** (1 / p["b"])
            elif k * (p["K"] - p["I"]) >= A + B * p["K"]:
                exact = (k * p["I"] + A) / (k - B)
            else:  # the cap
                exact = p["K"]
            errors.append(_ulps(x, exact))
    return tuple(errors)


def simulate_moves(old: dict, moved: list) -> dict[str, float]:
    """The worst moves of a simulate record's estimates: relative, for the mean
    and stderr of a --y record; in the old stderr, for the means of --grid
    points (inf where that scale is 0)."""
    before, worst = fields(old["stdout"]), {}
    for key, was, now in moved:
        if _number(was) is None or _number(now) is None:
            continue
        if "--grid" in old["argv"] and key.startswith("points[") and key.endswith("].mean"):
            name, scale = "--grid mean", float(before[key[:-len("mean")] + "stderr"])
        elif "--y" in old["argv"] and key in ("mean", "stderr"):
            name, scale = f"--y {key}", abs(float(was))
        else:
            continue
        move = abs(float(now) - float(was))
        worst[name] = max(worst.get(name, 0.0), move / scale if scale else math.inf)
    return worst


def _summary(what: str, errors: list) -> str:
    sides = [[abs(e) for e in side] for side in zip(*errors)] or [[0.0], [0.0]]
    return (f"verdict: {len(errors)} moved {what}, worst |error| old {max(sides[0]):.1f} ulp, "
            f"new {max(sides[1]):.1f} ulp; median |error| old "
            f"{statistics.median(sides[0]):.1f} ulp, new {statistics.median(sides[1]):.1f} ulp")


def report(old: dict[str, dict], new: dict[str, dict], verdict: bool, out=None) -> int:
    """Print the comparison to out (stdout when None); 0 when every request is identical."""
    same = [name for name in old if name in new and old[name] == new[name]]
    moved = [name for name in old if name in new and old[name] != new[name]]
    added = [name for name in new if name not in old]
    removed = [name for name in old if name not in new]
    print(f"{len(same)} identical, {len(moved)} moved, {len(added)} added, "
          f"{len(removed)} removed", file=out)
    if verdict:  # perfbench/checks.py, read-only, without putting perfbench/ on sys.path
        spec = importlib.util.spec_from_file_location("checks", ROOT / "perfbench" / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
    errors, thresholds, unjudged = [], [], 0  # (old, new) errors in ulps of k1 and thresholds
    simulated = {"--y": 0, "--grid": 0}  # moved simulate records, and their worst moves
    sim_worst = {"--y mean": 0.0, "--y stderr": 0.0, "--grid mean": 0.0}
    for name in moved:
        a, b = old[name], new[name]
        print(f"moved: {name}", file=out)
        for key in ("exit", "stderr"):
            if a[key] != b[key]:
                print(f"  {key}: {a[key]!r} -> {b[key]!r}", file=out)
        changes = moved_fields(a, b)
        for key, was, now in changes:
            print(f"  {key}: {was!r} -> {now!r}{change(was, now)}", file=out)
        if verdict:
            if a["argv"][0] == "simulate":
                simulated["--grid" if "--grid" in a["argv"] else "--y"] += 1
                for key, move in simulate_moves(a, changes).items():
                    sim_worst[key] = max(sim_worst[key], move)
            for label, cfg, was, now in k1_cases(b, changes):
                errors.append(errors_in_ulps(cfg, was, now, checks))
                print(f"  verdict {label}: old {errors[-1][0]:+.1f} ulp, "
                      f"new {errors[-1][1]:+.1f} ulp", file=out)
            for label, sides in threshold_cases(a, b, changes):
                judged = threshold_errors(*_payoff(b), sides)
                if judged is None:
                    unjudged += 1
                    print(f"  verdict {label}: not judged (tabulated payoff)", file=out)
                    continue
                thresholds.append(judged)
                print(f"  verdict {label}: old {judged[0]:+.1f} ulp, new {judged[1]:+.1f} ulp",
                      file=out)
    for label, names in (("added", added), ("removed", removed)):
        for name in names:
            print(f"{label}: {name}", file=out)
    if verdict:
        print(f"verdict: {simulated['--y']} moved simulate --y, worst relative move of mean "
              f"{sim_worst['--y mean']:.3g}, of stderr {sim_worst['--y stderr']:.3g}; "
              f"{simulated['--grid']} moved simulate --grid, worst |new - old| point mean "
              f"{sim_worst['--grid mean']:.3g} old stderr", file=out)
        print(_summary(f"closed-form thresholds ({unjudged} more not judged)", thresholds),
              file=out)
        print(_summary("k1", errors), file=out)
    return 0 if len(same) == len(old) == len(new) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--parent", metavar="REV",
                        help="write OLD with REV's tools/ and src/, NEW with this tree's")
    parser.add_argument("--verdict", action="store_true",
                        help="mpmath errors of moved k1 and closed-form thresholds")
    args = parser.parse_args(argv)
    if args.parent:
        write_corpora(args.parent, args.old, args.new)
    return report(load(args.old), load(args.new), args.verdict)


if __name__ == "__main__":
    sys.exit(main())
