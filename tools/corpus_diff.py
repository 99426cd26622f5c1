"""Compare two CLI output corpora written by tools/cli_corpus.py.

    python tools/corpus_diff.py OLD.jsonl NEW.jsonl [--parent REV] [--verdict]

pairs the records by their ``request`` name and counts identical, moved,
added and removed ones. For each moved record it lists every field whose
value moved, with its old and new value and the relative change: JSON keys
by their path (``points[2].mean``), CSV cells as ``csv[row].column`` and
CSV trailer lines as ``csv#i``. A moved exit code or stderr is listed on a
line of its own.

  --parent REV  first write both corpora: OLD from REV's src/, exported with
                git archive into a temporary directory, and NEW from this
                tree's src/, each by tools/cli_corpus.py in a fresh process.
  --verdict     re-solve every moved k1 (the k1 of root and solve, the k1
                column of sweep) in mpmath at 40 digits, with the equation
                of perfbench/checks.py, and print each side's error in units
                in the last place of the exact root.

Exits 0 when every request is identical, 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_KEYS = {"sigma": "volatility", "lambda": "lambda"}


def write_corpora(rev: str, old: Path, new: Path) -> None:
    """OLD from rev's src/, NEW from this tree's, by tools/cli_corpus.py."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tmp, **safe)
        for src, out in ((Path(tmp) / "src", old), (ROOT / "src", new)):
            subprocess.run([sys.executable, str(ROOT / "tools" / "cli_corpus.py"), str(src),
                            str(out)], check=True, stdout=subprocess.DEVNULL)


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


def errors_in_ulps(cfg: dict, old: float, new: float, checks) -> tuple[float, float]:
    """Each k1's distance from the root near them, found by the secant method in
    mpmath at 40 digits, in units in the last place of that root."""
    import mpmath

    with mpmath.workdps(40):
        exact = mpmath.findroot(lambda k: checks.mp_char_eq(cfg, k),
                                (mpmath.mpf(old), mpmath.mpf(new)), solver="secant")
        ulp = math.ulp(float(exact))
        return float((old - exact) / ulp), float((new - exact) / ulp)


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
    worst = [0.0, 0.0]
    n_roots = 0
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
            for label, cfg, was, now in k1_cases(b, changes):
                errors = errors_in_ulps(cfg, was, now, checks)
                worst = [max(w, abs(e)) for w, e in zip(worst, errors)]
                n_roots += 1
                print(f"  verdict {label}: old {errors[0]:+.1f} ulp, new {errors[1]:+.1f} ulp",
                      file=out)
    for label, names in (("added", added), ("removed", removed)):
        for name in names:
            print(f"{label}: {name}", file=out)
    if verdict:
        print(f"verdict: {n_roots} moved k1, worst |error| old {worst[0]:.1f} ulp, "
              f"new {worst[1]:.1f} ulp", file=out)
    return 0 if len(same) == len(old) == len(new) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--parent", metavar="REV", help="write OLD from REV's src/, NEW from ./src")
    parser.add_argument("--verdict", action="store_true", help="mpmath errors of moved k1")
    args = parser.parse_args(argv)
    if args.parent:
        write_corpora(args.parent, args.old, args.new)
    return report(load(args.old), load(args.new), args.verdict)


if __name__ == "__main__":
    sys.exit(main())
