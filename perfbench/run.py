"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the last line carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones: the run first measures half its time
untraced, then repeats the same rounds with timing wrappers installed, and
fails if the wrapped rounds produced different colorings.  `all` runs every
workload in its own child process and prints one table of the issue-level
metrics.  Exit code 0 when every output checked correct, 1 otherwise.
"""
from __future__ import annotations

import os

# one caller in one process: keep numeric libraries from starting thread pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package() -> None:
    """Put the checkout's own source first on the path; refuse to run without it."""
    if not (SRC / "spreadcolor" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'spreadcolor'}")
    sys.path.insert(0, str(SRC))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: host speed, for context."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(perf_counter() - t0)
    return median(times) * 1e3


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run) -> dict[str, float]:
    return {
        "setup_s": median(run.setup_s),
        "op_p90_ms": percentile(sorted(run.op_s), 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def issue_metrics(wl, run) -> dict[str, list]:
    """The issue-level names, [value, unit] or [value, unit, note]; printed,
    not gated (see perfbench/README.md)."""
    ops = sorted(run.op_s)
    out: dict[str, list] = {"setup_s": [median(run.setup_s), "s"]}
    out[f"{wl.op}_per_s"] = [run.attempted / run.busy_s, f"{wl.op}/s"]
    for p in (50, 90, 95):
        beyond = len(ops) - math.ceil(p / 100 * len(ops))
        out[f"{wl.op[:-1]}_p{p}_ms"] = [percentile(ops, p) * 1e3, "ms", f"n={len(ops)}, {beyond} beyond"]
    if "c_hat" in run.facts:
        out["c_hat"] = [run.facts["c_hat"], "1"]
    if wl.op != "decisions":
        out["flagged_frac"] = [run.flagged / run.attempted, "share"]
    out["failed_frac"] = [run.failed / run.attempted, "share"]
    out["peak_rss_mb"] = [peak_rss_mb(), "MB"]
    return out


def traced(wl, inp, seconds: float):
    """Untraced for half the time, then the same rounds traced; returns the
    untraced run, the traced run, per-layer metrics and the wall-time ratio."""
    import spans

    t0 = perf_counter()
    plain = wl.run(inp, seconds / 2, setup_reps=1)
    t1 = perf_counter()
    tracer = spans.Tracer()
    with tracer.installed():
        wrapped = wl.run(inp, math.inf, max_rounds=plain.rounds, setup_reps=1, span=tracer.span)
    t2 = perf_counter()
    if wrapped.digest != plain.digest:
        wrapped.error(f"traced outputs differ: digest {wrapped.digest} vs untraced {plain.digest}")
    layers = spans.layer_metrics(tracer)
    for msg in tracer.fallbacks[:5]:
        print(f"fallback: {msg}")
    return plain, wrapped, layers, (t2 - t1) / (t1 - t0)


def run_one(args, wl, declared: dict) -> int:
    print(f"workload: {wl.name}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(f"machine: {json.dumps(machine_facts())}")
    calib_before = calibration_ms()
    inp = wl.make_input(args.seed)
    if args.trace:
        run, wrapped, metrics, overhead = traced(wl, inp, args.seconds)
        errors = run.errors + wrapped.errors
    else:
        run = wl.run(inp, args.seconds)
        errors = run.errors
        metrics = end_to_end(run)
    calib_after = calibration_ms()
    print(f"calibration_ms: before {calib_before:.2f} after {calib_after:.2f}")
    print(f"digest: first {wl.digest_rounds} rounds {run.head_digest}  "
          f"all {run.rounds} rounds ({run.attempted} {wl.op}) {run.digest}")
    if args.trace:
        colored = run.facts.get("colored_vertices")
        metrics.update({
            "output.kept_ratio": inp.n / colored if colored else 0.0,
            "output.flagged_frac": run.flagged / run.attempted,
            "output.c_hat": run.facts.get("c_hat", 0.0),
            "trace.overhead": overhead,
            "host.calibration_ms": (calib_before + calib_after) / 2,
        })
    else:
        print(f"named: {json.dumps(issue_metrics(wl, run))}")
    for msg in errors:
        print(f"WRONG OUTPUT: {msg}")

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        sys.exit(f"error: computed metrics {sorted(metrics)} differ from {kind} in BENCHMARK.json")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process (so peak RSS is per workload), then
    one table of the issue-level metrics."""
    table: dict[str, dict[str, list]] = {}
    ok = True
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        ok = ok and proc.returncode == 0
        for line in proc.stdout.splitlines():
            if line.startswith("named: "):
                table[name] = json.loads(line[len("named: "):])
    metrics = list(dict.fromkeys(m for row in table.values() for m in row))
    print(f"\n{'metric':<16}{'unit':<12}" + "".join(f"{w:>18}" for w in names))
    for m in metrics:
        unit = next(row[m][1] for row in table.values() if m in row)
        cells = [f"{table.get(w, {})[m][0]:>18.4f}" if m in table.get(w, {}) else f"{'-':>18}"
                 for w in names]
        print(f"{m:<16}{unit:<12}" + "".join(cells))
    print(f"all outputs correct: {ok}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    import_package()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all" and args.trace:
        p.error("--workload all runs untraced; trace one workload at a time")
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_one(args, workloads.WORKLOADS[args.workload], declared)


if __name__ == "__main__":
    sys.exit(main())
