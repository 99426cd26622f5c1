"""levystop benchmark: one command, three workloads, checked outputs.

  python3 perfbench/run.py --workload analytic|mc_single|mc_grid \
      --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics (and the spans go to .bench_out/). Lines
above it list every metric with its unit and one JSON record with the
machine, library versions, seed and workload-specific figures. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 5
# what the installed ``levy-stop`` console script runs
ENTRY = "from levystop.cli import entry; entry()"


def machine(seed: int, workload: str) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "workload": workload, "seed": seed}


def measure_setup(tmp: Path) -> tuple[float, list[float], int]:
    """Median time of fresh interpreters running ``levy-stop root`` on the
    README config, up to process exit; returns (median, wall times, failures).

    Each launch is scaled to the nominal host speed by the reference kernel
    timed just before and just after it (see ``workloads.HostSpeed``): the
    host's speed can change by half between one run and the next."""
    import problems
    import workloads
    from levystop import model_from_config, solve_k1

    def kernel_s() -> float:
        return statistics.median(workloads.reference_kernel() for _ in range(3))

    expected = solve_k1(model_from_config(problems.README_CONFIG)[0]).k1
    cfg, out = tmp / "readme.json", tmp / "setup-root.json"
    cfg.write_text(json.dumps(problems.README_CONFIG))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times, scaled, failures = [], [], 0
    workloads.reference_kernel()  # the first call pays numpy's lazy set-up
    before = kernel_s()
    for _ in range(SETUP_LAUNCHES):
        out.unlink(missing_ok=True)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", ENTRY, "root", "--config", str(cfg),
                               "--out", str(out)], cwd=ROOT, env=env, capture_output=True,
                              timeout=120)
        times.append(perf_counter() - t0)
        after = kernel_s()
        scaled.append(times[-1] * workloads.speed_factor((before + after) / 2))
        before = after
        if not (proc.returncode == 0 and out.is_file()
                and json.loads(out.read_text())["k1"] == expected):
            failures += 1
    return statistics.median(scaled), times, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["analytic", "mc_single", "mc_grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "levystop" / "__init__.py").is_file():
        print(f"error: no levystop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import levystop

    if Path(levystop.__file__).resolve().parent != SRC / "levystop":
        print(f"error: imported levystop from {levystop.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    import workloads
    from tracing import NULL, Tracer

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        metrics: dict[str, tuple[float, str]] = {}
        record = {"machine": machine(args.seed, args.workload), "run_seconds": args.seconds}
        attempted = failed = 0
        if not args.trace:
            setup_s, launches, setup_failed = measure_setup(tmp)
            metrics["setup_s"] = (setup_s, "s")
            record["setup_launches_s"] = launches
            attempted, failed = len(launches), setup_failed
        tracer = Tracer() if args.trace else NULL
        speed = workloads.HostSpeed()
        work = workloads.WORKLOADS[args.workload](args.seed, tmp, tracer)
        results = workloads.drive(work, args.seconds, tracer, bool(args.trace), speed)
        attempted += len(results)
        failed += sum(not r.ok for r in results)
        record["reference_kernel_ms"] = 1e3 * statistics.median(speed.samples)
        record["as_measured"] = workloads.end_to_end(results)
        scale = speed.scale()
        results = [dataclasses.replace(r, latency=r.latency * scale) for r in results]
        e2e = workloads.end_to_end(results)
        record.update({k: v for k, v in e2e.items() if k.startswith("op_") and k not in metrics})
        record.update(work.extra(results))
        record["failed_frac"] = failed / attempted
        record["cycles"] = results[-1].cycle + 1
        record["failures"] = [r.__dict__ for r in results if not r.ok][:5]
        if args.trace:
            traced = [r for r in results if r.traced]
            untraced = [r for r in results if not r.traced]
            overhead = (100.0 * (workloads.typical_rate(untraced) / workloads.typical_rate(traced) - 1.0)
                        if traced else 0.0)
            metrics.update(layers.probe(tracer, args.seed, tmp))
            metrics["trace.overhead_pct"] = (overhead, "%")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path)
            record["trace_file"] = str(trace_path.relative_to(ROOT))
            record["trace_counts"] = tracer.counts
        else:
            metrics["ops_per_s"] = (e2e["ops_per_s"], "1/s")
            metrics["op_p50_ms"] = (e2e["op_p50_ms"], "ms")
            metrics["op_tail_ms"] = (e2e["op_tail_ms"], "ms")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for name in ("paths_per_s", "time_to_se_1e-3_s", "failed_frac"):
        if record.get(name) is not None:
            unit = {"paths_per_s": "1/s", "time_to_se_1e-3_s": "s", "failed_frac": "fraction"}[name]
            print(f"{name:<44} {record[name]:>16.6g} {unit}")
    for defect in record.get("known_defects", []):
        print(f"known defect, not counted in attempted/failed: {defect}", file=sys.stderr)
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
