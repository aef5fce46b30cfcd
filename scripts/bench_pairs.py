"""Run the benchmark on two source checkouts in alternating pairs, and summarize.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload acc-mix --seed 0 \\
        --pairs 10 --number N

PARENT and CHANGE are the roots of two source checkouts, each with its own
``perfbench/`` and ``src/``.  Pair i runs
``perfbench/run.py --workload W --seed S --seconds 24 --trace 0`` once in
each checkout, the parent first when i is odd and the change first when i
is even.  The record goes to ``bench/BENCH_<number>_<workload>_<seed>.json``
of this checkout (keys ``workload``, ``seed``, ``command``, ``parent``,
``host``, ``order`` and ``runs``, one entry per pair with both sides'
result lines).  Then, per end-to-end metric of CHANGE's ``BENCHMARK.json``,
it prints each side's median and quartiles, how many pairs the change won
(ties count for neither side) and whether the rule for claiming a gain
holds: the change wins at least nine tenths of the pairs, and the medians
differ in its favour by more than the parent's interquartile range.  It
also prints the no-regression verdict against the metric's ``bound``, a
fraction of the parent's median: "within bound" when the change's median
is not worse by more than the bound, "worse by X % > bound" when it is,
and "unresolved" when the parent's interquartile range exceeds the bound
(taken relative to its median), unless every change run beats every
parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 24
ORDER = "pair i runs the parent first when i is odd, the change first when i is even"


def command(workload: str, seed: int) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def run_once(checkout: Path, argv: list[str]) -> dict:
    """The JSON result line of one benchmark run in ``checkout``."""
    proc = subprocess.run([sys.executable, *argv[1:]], cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: no result line (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def regression(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The no-regression verdict of ``change`` against ``parent`` runs, with
    ``sign`` 1 where lower is better and -1 where higher is."""
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "within bound"
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    if p3 - p1 > bound * abs(pm):
        return "unresolved"
    worse = sign * (cm - pm)
    if worse > bound * abs(pm):
        return f"worse by {worse / abs(pm) * 100:.1f} % > {bound * 100:g} % bound"
    return "within bound"


def summarize(record: dict, better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric of ``better`` (name -> "lower" or "higher") that
    both sides report in every pair: each side's quartiles, the change's
    wins, whether a gain may be claimed and, for a metric of ``bounds``
    (name -> bound), the no-regression verdict (else None)."""
    bounds = bounds or {}
    rows = []
    runs = record["runs"]
    for name, direction in better.items():
        if not all(name in r[side]["metrics"] for r in runs for side in ("parent", "change")):
            continue
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        gap = sign * (p_q[1] - c_q[1])
        rows.append({
            "metric": name,
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "parent": p_q,
            "change": c_q,
            "wins": wins,
            "pairs": len(runs),
            "gain": 10 * wins >= 9 * len(runs) and gap > p_q[2] - p_q[0],
            "regression": (regression(parent, change, sign, bounds[name])
                           if name in bounds else None),
        })
    return rows


def report(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        rel = f"{(cm - pm) / pm * 100:+.1f} %" if pm else "n/a"
        lines.append(f"{r['metric']:<14} parent {pm:.6g} [{p1:.6g}-{p3:.6g}] -> change "
                     f"{cm:.6g} [{c1:.6g}-{c3:.6g}] {r['unit']} ({rel}), change wins "
                     f"{r['wins']} of {r['pairs']}; gain {'holds' if r['gain'] else 'not shown'}"
                     + (f"; {r['regression']}" if r["regression"] else ""))
    return "\n".join(lines)


def host() -> str:
    return (f"{os.cpu_count()}-vCPU host, Python {platform.python_version()}, "
            f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}")


def revision(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent's source checkout")
    parser.add_argument("change", type=Path, help="root of the change's source checkout")
    parser.add_argument("--workload", required=True,
                        choices=("acc-mix", "two-robot-tour", "bounds-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--number", type=int, required=True,
                        help="N of the record bench/BENCH_N_<workload>_<seed>.json")
    parser.add_argument("--parent-rev",
                        help="parent revision to record (default: the parent's git HEAD)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")

    argv_run = command(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "command": " ".join(argv_run),
        "parent": args.parent_rev or revision(checkouts["parent"]),
        "host": host(),
        "order": ORDER,
        "runs": [],
    }
    for i in range(1, args.pairs + 1):
        sides = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {side: run_once(checkouts[side], argv_run) for side in sides}
        record["runs"].append({"pair": i, "parent": pair["parent"], "change": pair["change"]})
        print(f"pair {i}: parent {pair['parent']['metrics']['step_us']['value']:.6g}, change "
              f"{pair['change']['metrics']['step_us']['value']:.6g} step_us", flush=True)

    out = ROOT / "bench" / f"BENCH_{args.number}_{args.workload}_{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    print(report(summarize(record, {m["name"]: m["better"] for m in metrics},
                           {m["name"]: m["bound"] for m in metrics})))
    print(f"record written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
