"""Digest the reference outputs of the package, or compare two digests.

    python3 scripts/output_manifest.py [--src DIR] > new.json
    python3 scripts/output_manifest.py --diff OLD NEW

The first form imports ``fxtqp`` from DIR (default: this checkout's
``src/``), produces every reference output in a temporary directory and
writes to standard output a JSON object that maps each output to its
SHA-256.  The outputs are:

- ``trace.csv`` and ``summary.json`` of ``acc``, ``acc --set dt=0.005``,
  ``two-robot``, ``synthetic:int1d``, ``synthetic:int2d`` and
  ``synthetic:fullact2d``, and of the tour from each of the benchmark's
  starts, ``perfbench.workloads.TWO_ROBOT_STARTS`` (imported from this
  checkout, given as ``--set x0_agent1=[...] --set x0_agent2=[...]``);
- ``trace.csv`` and ``summary.json`` of ``acc`` from each distinct start of
  the benchmark's seeds 0 and 7, ``perfbench.workloads.acc_configs``
  (imported from this checkout, given as ``--set`` of each field that
  differs from ``AccConfig()``), its disturbed starts included (the default
  config is the ``acc`` run);
- ``sweep.csv`` and every per-value file of ``acc --sweep v_f0=17,18,...,27``
  (criterion 5's eleven starts) and of
  ``acc --sweep d_delta=50,100 --set v_f0=27``;
- the default ``--verify-bounds`` table, ``bounds.csv``;
- the exit code of each of these command-line runs;
- the per-step ``qp_iters`` and ``box_overshoot`` arrays (not written to
  ``trace.csv``) of ``acc``, ``acc`` from 27 m/s with ``d_delta = 100``, the
  tour, the three synthetic cases and the benchmark's ``acc`` starts.

The second form prints each entry whose digest differs, or which only one
manifest has, and exits 1 if there is any, 0 if the manifests are equal.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI_RUNS = {
    "acc": ["--scenario", "acc"],
    "acc dt=0.005": ["--scenario", "acc", "--set", "dt=0.005"],
    "two-robot": ["--scenario", "two-robot"],
    "synthetic:int1d": ["--scenario", "synthetic:int1d"],
    "synthetic:int2d": ["--scenario", "synthetic:int2d"],
    "synthetic:fullact2d": ["--scenario", "synthetic:fullact2d"],
    "sweep v_f0": ["--scenario", "acc", "--sweep", "v_f0=17,18,19,20,21,22,23,24,25,26,27"],
    "sweep d_delta": ["--scenario", "acc", "--sweep", "d_delta=50,100", "--set", "v_f0=27"],
    "bounds": ["--verify-bounds"],
}

STEP_RUNS = {
    "acc": ("acc", {}),
    "acc v_f0=27 d_delta=100": ("acc", {"v_f0": 27, "d_delta": 100}),
    "two-robot": ("two-robot", {}),
    "synthetic:int1d": ("synthetic:int1d", {}),
    "synthetic:int2d": ("synthetic:int2d", {}),
    "synthetic:fullact2d": ("synthetic:fullact2d", {}),
}


def tour_runs() -> dict[str, list[str]]:
    """The tour from each of the benchmark's starts, as command lines."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import TWO_ROBOT_STARTS

    return {f"two-robot start {i}": [
        "--scenario", "two-robot",
        "--set", f"x0_agent1=[{a1[0]!r}, {a1[1]!r}]",
        "--set", f"x0_agent2=[{a2[0]!r}, {a2[1]!r}]"]
        for i, (a1, a2) in enumerate(TWO_ROBOT_STARTS)}


def acc_runs() -> dict[str, dict]:
    """The distinct ``acc`` starts of the benchmark's seeds 0 and 7, each as
    the config fields that differ from the default config.  The default
    config itself is the ``acc`` run, so it is left out."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import acc_configs

    runs = {}
    for seed in (0, 7):
        for cfg in acc_configs(seed):
            default = type(cfg)()
            changed = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                       if getattr(cfg, f.name) != getattr(default, f.name)}
            if changed:
                runs["acc " + " ".join(f"{k}={v!r}" for k, v in changed.items())] = changed
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(src: Path) -> dict[str, str]:
    sys.path.insert(0, str(src))
    import fxtqp
    from fxtqp.cli import main
    from fxtqp.scenarios import scenario_from_id

    if Path(fxtqp.__file__).resolve().parent != src / "fxtqp":
        raise SystemExit(f"fxtqp imported from {fxtqp.__file__}, not from {src}")

    acc = acc_runs()
    acc_argv = {label: ["--scenario", "acc",
                        *(a for k, v in changed.items() for a in ("--set", f"{k}={v!r}"))]
                for label, changed in acc.items()}
    digests = {}
    for label, argv in {**CLI_RUNS, **tour_runs(), **acc_argv}.items():
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", tmp])
            for path in sorted(Path(tmp).rglob("*")):
                if path.is_file():
                    rel = path.relative_to(tmp).as_posix()
                    digests[f"{label}/{rel}"] = sha256(path.read_bytes())
        digests[f"{label}/exit"] = str(code)
    step_runs = {**STEP_RUNS, **{label: ("acc", changed) for label, changed in acc.items()}}
    for label, (scenario_id, overrides) in step_runs.items():
        trace = scenario_from_id(scenario_id, overrides).simulate()
        for name in ("qp_iters", "box_overshoot"):
            array = getattr(trace, name)
            digests[f"{label}/{name}"] = sha256(array.dtype.str.encode() + array.tobytes())
    return digests


def diff(old: dict[str, str], new: dict[str, str]) -> int:
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print(f"only in old: {key}")
        elif key not in old:
            print(f"only in new: {key}")
        elif old[key] != new[key]:
            print(f"differs: {key}")
        else:
            continue
        differ += 1
    print(f"{differ} of {len(old.keys() | new.keys())} entries differ")
    return int(differ > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the fxtqp package (default: ./src)")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two manifests instead of writing one")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(p.read_text()) for p in args.diff)
        return diff(old, new)
    sys.stdout.write(json.dumps(manifest(args.src.resolve()), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
