"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload acc-mix --seed 0 --seconds 24 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer split of a traced run.  The last line of
standard output is the JSON result; the lines before it are the report.
The exit code is 1 when an output or determinism check fails and 2 when
there is no package source to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
MIN_PASSES = 3
PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("acc-mix", "two-robot-tour", "bounds-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def describe(name: str, values, unit: str, scale: float = 1.0) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name:<16} median {percentile(values, 50) * scale:.6g} {unit}"
    high = next((p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), None)
    if high is not None and high > 50.0:
        line += f", p{high:g} {percentile(values, high) * scale:.6g} {unit}"
    else:
        line += ", no percentile with ten samples beyond it"
    return line + f" (n={n})"


def environment() -> str:
    import numpy
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    load = ",".join(f"{v:.2f}" for v in os.getloadavg())
    return (f"env nproc={os.cpu_count()} affinity={affinity} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} threads={os.environ['OMP_NUM_THREADS']} "
            f"loadavg={load}")


def setup_probe(args) -> int:
    """Child of measure_setup: import the package, build the workload, report ready."""
    from perfbench.workloads import WORKLOADS

    out = OUT / f"setup-{os.getpid()}"
    WORKLOADS[args.workload](args.seed, out).setup()
    print("ready", flush=True)
    shutil.rmtree(out, ignore_errors=True)
    return 0


def measure_setup(args) -> list[float]:
    """Fresh-interpreter set-up times, rescaled to the reference host speed.

    Three reference runs before and three after each child set its scale.
    The first child, which fills the bytecode cache, is dropped.
    """
    from perfbench.hostspeed import HostSpeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        speed = HostSpeed()
        for _ in range(3):
            speed.mark()
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                ready = proc.stdout.readline().strip()
                t1 = perf_counter()
                _, err = proc.communicate(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if proc.returncode != 0 or ready != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        for _ in range(3):
            speed.mark()
        if i:
            times += speed.rescale([(t0, t1)])
    return times


def run_passes(workload, passes: int, traced: bool):
    """A fixed number of timed passes.

    Untraced: ``passes`` passes.  Traced: untraced and traced passes in
    turn, half of ``passes`` (at least two) of each, starting untraced.
    Returns (untraced results, traced (result, recorder) pairs).
    """
    from perfbench.tracing import Recorder

    plain, traced_runs = [], []
    kinds = [False] * passes if not traced else [False, True] * max(2, passes // 2)
    for k, want_traced in enumerate(kinds):
        gc.collect()
        if want_traced:
            # no reference runs inside a traced pass: they would land in the spans
            rec = Recorder(k)
            with rec.installed():
                result = workload.run_pass(on_op=rec.set_run, periodic=False)
            traced_runs.append((result, rec))
        else:
            result = workload.run_pass()
            plain.append(result)
        if k:
            result.artifacts = []
    return plain, traced_runs


def determinism_errors(results, recorders) -> list[str]:
    errors = []
    first = results[0]
    for k, r in enumerate(results[1:], start=1):
        if r.digests != first.digests:
            errors.append(f"pass {k}: x/u digests differ from pass 0")
        if r.counters != first.counters:
            errors.append(f"pass {k}: counters {r.counters} != {first.counters}")
    counts = [rec.counters() for rec in recorders]
    for k, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            errors.append(f"traced pass {k}: counters {c} != {counts[0]}")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
    # The set-up probes inherit the setting.
    os.environ.update({var: "1" for var in THREAD_VARS})
    if not (SRC / "fxtqp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fxtqp'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        return setup_probe(args)

    import fxtqp
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if Path(fxtqp.__file__).resolve().parent != (SRC / "fxtqp").resolve():
        print(f"error: imported fxtqp from {fxtqp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, out)
    passes = max(MIN_PASSES, int(args.seconds / workload.pass_s))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={passes}")
    try:
        setup_times = [] if args.trace else measure_setup(args)
        builds = []
        for _ in range(3):
            t0 = perf_counter()
            workload.setup()
            builds.append(perf_counter() - t0)
        print(environment())
        print(f"inputs {workload.describe()}")
        plain, traced = run_passes(workload, passes, bool(args.trace))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    results = plain + [r for r, _ in traced]
    recorders = [rec for _, rec in traced]
    first = plain[0]
    op_errors = {i: e for i, e in workload.check(first).items() if e}
    det_errors = determinism_errors(results, recorders)
    attempted = sum(r.ops for r in results)
    failed = len(op_errors) * len(results)
    outcome_failures = sum(r.outcome_failures for r in results)

    for i, errs in sorted(op_errors.items()):
        for e in errs:
            print(f"CHECK FAILED op {i}: {e}")
    for e in det_errors:
        print(f"DETERMINISM FAILED {e}")
    print(f"checks {'pass' if not op_errors else 'FAIL'}: {first.ops} operations of "
          f"pass 0 checked, {len(op_errors)} failed")
    print(f"determinism {'pass' if not det_errors else 'FAIL'}: {len(plain)} untraced "
          f"and {len(traced)} traced passes of one seed, counters {first.counters}")
    print(f"ops_failed_ratio {outcome_failures / attempted:.6g} "
          f"({outcome_failures} of {attempted} operations ended in another outcome "
          f"than success)")

    if args.trace:
        metrics = traced_metrics(first, plain, traced, builds)
        absent = tracing.absent_metrics(recorders[0].absent)
        if absent:
            print(f"absent (function not found, reported as 0): {', '.join(absent)}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        n_spans = tracing.write_spans(spans_path, recorders)
        print(f"spans {n_spans} written to {spans_path.relative_to(ROOT)}")
    else:
        # every pass makes the same decisions in the same order (checked above)
        walls = [r.wall for r in plain]
        wall = statistics.median(walls)
        decide = [statistics.median(col) for col in zip(*(r.decide for r in plain))]
        print(describe("setup_s", setup_times, "s"))
        print(f"wall_s           median {wall:.6g} s over {len(plain)} passes: "
              + " ".join(f"{w:.4f}" for w in walls) + "; as measured "
              + " ".join(f"{r.raw_wall:.4f}" for r in plain) + "; host-speed scale "
              + " ".join(f"{r.scale:.3f}" for r in plain))
        print(f"step_us          {wall / first.steps * 1e6:.6g} us, "
              f"{first.steps} steps per pass")
        print(describe("decide_us", decide, "us", 1e6) + ", each decision at its median "
              f"over {len(plain)} passes")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "step_us": wall / first.steps * 1e6,
            "decide_us_p50": percentile(decide, 50) * 1e6,
            "decide_us_p99": percentile(decide, 99) * 1e6,
        }
    correct = not op_errors and not det_errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(first, plain, traced, builds) -> dict:
    """Per-layer metrics of the traced passes.

    Times are the median over the traced passes, each pass's spans rescaled
    by its host-speed scale; counts and ratios repeat exactly.  The tracing
    overhead compares the passes as measured: traced and untraced passes
    alternate, so both see the same host, while their scales are taken
    differently (README, traced mode).
    """
    per_pass = [rec.metrics(res.steps, res.counters.get("qp.nonstrict_steps", 0), res.scale)
                for res, rec in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["scenarios.build_s"] = min(builds)
    traced_wall = statistics.median(res.raw_wall for res, _ in traced)
    plain_wall = statistics.median(res.raw_wall for res in plain)
    metrics["bench.trace_overhead"] = traced_wall / plain_wall

    rec = traced[0][1]
    steps = max(first.steps, 1)
    print(f"tracing overhead: traced pass {traced_wall:.6g} s against untraced pass "
          f"{plain_wall:.6g} s as measured, medians ({metrics['bench.trace_overhead']:.4f}x)")
    print(f"self time per step ({first.steps} steps per pass), first traced pass:")
    for name, t in sorted(rec.self_time.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<24} {t / steps * 1e6:10.3f} us")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
