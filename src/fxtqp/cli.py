"""Command-line front end: run scenarios, sweep parameters, verify bounds.

It parses flags, writes files and maps outcomes to exit codes; every field
of a run's summary but ``scenario`` and ``exit_code`` comes from
:func:`fxtqp.simulation.monitor`.  Exit codes: 0 success, 2 configuration
error, 3 solver failure during a run, 4 safety/deadline/bound failure.
Outputs are plain CSV and JSON so they can be diffed and plotted with
external tools.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

from fxtqp.fxts import FxtsGains, settling_time_bound, simulate_scalar_v
from fxtqp.simulation import OutcomeKind, monitor, trace_to_csv
from fxtqp.scenarios import _finite, scenario_from_id

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4

DEFAULT_BOUNDS_GRID = {
    "alpha": [0.5, 1.0, 2.0],
    "mu": [2.0, 5.0],
    "delta1": [-1.0, 0.0, 1.0, 1.9, 2.5],
    "V0": [0.01, 1.0, 100.0],
    "dt": 1e-4,
}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_overrides(pairs):
    overrides = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in overrides:
            raise ValueError(f"--set gives {key!r} twice; give it once")
        overrides[key] = _parse_value(value.strip())
    return overrides


def _split_values(raw: str) -> list[str]:
    """A sweep's nonempty values; commas inside a flat list do not split, so
    ``[1.5, 0.5],[1.2, 0.4]`` is two values."""
    return [v for v in re.split(r",(?![^\[]*\])", raw) if v]


def _made_dir(path, what: str) -> Path:
    """``path`` as a directory, made with its parents if need be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use {str(path)!r} as {what}: {exc}") from exc
    return Path(path)


def _out_dir(args) -> Path:
    return _made_dir(args.out or "fxtqp-out", "output directory")


def _outcome_exit_code(outcome) -> int:
    if outcome.kind is OutcomeKind.ALL_PHASES_MET:
        return EXIT_OK
    if outcome.kind is OutcomeKind.SOLVER_FAILURE:
        return EXIT_SOLVER
    return EXIT_VIOLATION


def _single_run(scenario, out_dir: Path, tag: str):
    run_dir = _made_dir(out_dir / tag, "run directory")
    trace = scenario.simulate()
    summary = {"scenario": scenario.scenario_id,
               **monitor(trace, d_min=scenario.d_min, bounds=scenario.bounds),
               "exit_code": _outcome_exit_code(trace.outcome)}
    trace_to_csv(trace, run_dir / "trace.csv")
    with open(run_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def cmd_run(args) -> int:
    scenario = scenario_from_id(args.scenario, _parse_overrides(args.set))
    summary = _single_run(scenario, _out_dir(args), tag=args.scenario.replace(":", "_"))
    print(json.dumps(summary, indent=2))
    return summary["exit_code"]


def cmd_sweep(args) -> int:
    overrides = _parse_overrides(args.set)
    axis, eq, raw = args.sweep.partition("=")
    if not eq:
        raise ValueError(f"--sweep expects key=v1,v2,..., got {args.sweep!r}")
    values = [_parse_value(v) for v in _split_values(raw)]
    if axis in overrides:
        raise ValueError(f"{axis!r} is both swept and given in --set; give one")
    # each run writes to the directory named by its tag
    tags = [f"{axis}={value}" for value in values]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ValueError(f"sweep values repeat a run directory: {', '.join(repeated)}")
    # every value's configuration is checked before any run starts
    scenarios = [scenario_from_id(args.scenario, {**overrides, axis: value})
                 for value in values]
    out_dir = _out_dir(args)
    if not values:
        print("empty sweep value list; nothing to do")
        return EXIT_OK

    summaries = [_single_run(scenario, out_dir, tag)
                 for scenario, tag in zip(scenarios, tags)]

    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([axis, "outcome", "reach_last", "max_abs_u", "max_h",
                         "min_separation", "max_delta1", "exit_code"])
        for value, s in zip(values, summaries):
            reach = s["reach_times"][-1] if s["reach_times"] else None
            max_h = max(s["max_h_per_safe_set"].values()) if s["max_h_per_safe_set"] else None
            max_u = max(s["max_abs_u"]) if s["max_abs_u"] else None
            # str() keeps None as "None"; a list value is one quoted field
            writer.writerow([str(v) for v in [
                value, s["outcome"]["kind"], reach, max_u, max_h,
                s["min_separation"], s["max_delta1"], s["exit_code"]]])
    for value, s in zip(values, summaries):
        print(f"{axis}={value}: {s['outcome']['kind']} (exit {s['exit_code']})")
    return max((s["exit_code"] for s in summaries), default=EXIT_OK)


def _load_bounds_grid(path) -> dict:
    """The default grid updated from a JSON file, checked before any run."""
    grid = dict(DEFAULT_BOUNDS_GRID)
    if path:
        try:
            with open(path) as fh:
                given = json.load(fh)
        except OSError as exc:
            raise ValueError(exc) from exc
        if not isinstance(given, dict) or not set(given) <= set(grid):
            raise ValueError(f"grid JSON must be an object with keys from {sorted(grid)}")
        grid.update(given)
    for key, what, ok in (("alpha", " > 0", lambda v: v > 0),
                          ("mu", " > 1", lambda v: v > 1),
                          ("delta1", "", lambda v: True),
                          ("V0", " >= 0", lambda v: v >= 0)):
        if not (isinstance(grid[key], list) and grid[key]
                and all(_finite(v) and ok(v) for v in grid[key])):
            raise ValueError(f"grid {key!r} must be a nonempty list of finite numbers{what}")
    if not (_finite(grid["dt"]) and grid["dt"] > 0):
        raise ValueError("grid 'dt' must be a finite number > 0")
    return grid


def cmd_verify_bounds(args) -> int:
    grid = _load_bounds_grid(args.grid_json)
    out_dir = _out_dir(args)
    rows = []
    failures = 0
    for alpha in grid["alpha"]:
        for mu in grid["mu"]:
            gains = FxtsGains(alpha1=alpha, alpha2=alpha, mu=mu)
            for delta1 in grid["delta1"]:
                bound = settling_time_bound(gains, delta1)
                for v0 in grid["V0"]:
                    in_domain = v0 <= bound.v_max
                    hit = None
                    ok = True
                    if in_domain:
                        try:
                            res = simulate_scalar_v(gains, delta1, v0, grid["dt"])
                        except ValueError as exc:
                            raise ValueError(f"grid point alpha={alpha}, mu={mu}, "
                                             f"delta1={delta1}, V0={v0}: {exc}") from exc
                        hit = res.hit_time
                        ok = hit is not None and hit <= bound.T + 1e-6
                        failures += int(not ok)
                    rows.append((alpha, alpha, mu, delta1, v0, bound.v_max,
                                 in_domain, hit, bound.T, ok))
    table = out_dir / "bounds.csv"
    with open(table, "w") as fh:
        fh.write("alpha1,alpha2,mu,delta1,V0,v_max,in_domain,hit_time,bound,pass\n")
        for r in rows:
            fh.write(",".join("" if v is None else str(v) for v in r) + "\n")
    n_domain = sum(1 for r in rows if r[6])
    print(f"verified {n_domain} in-domain points of {len(rows)}; "
          f"{failures} bound violations; table at {table}")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxtqp",
        description="Run fixed-time safe-control scenarios and bound checks.",
    )
    parser.add_argument("--scenario", default=None,
                        help="acc (default) | two-robot | synthetic:<id>")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scenario config field (repeatable)")
    parser.add_argument("--out", default=None,
                        help="output directory (default ./fxtqp-out)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...",
                      help="run once per value of a config field")
    mode.add_argument("--verify-bounds", action="store_true",
                      help="check settling-time bounds against the RK4 oracle")
    parser.add_argument("--grid-json", default=None,
                        help="JSON file overriding the bound-check grid")
    return parser


def _check_flags(args) -> None:
    """Raise ValueError if the given flags do not go together."""
    if args.verify_bounds:
        given = [f"--{f}" for f in ("scenario", "set") if getattr(args, f) is not None]
        if given:
            raise ValueError(f"--verify-bounds takes no {', '.join(given)}")
    elif args.grid_json is not None:
        raise ValueError("--grid-json needs --verify-bounds")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every configuration error, found before or during a run, exits here
    try:
        _check_flags(args)
        if args.verify_bounds:
            return cmd_verify_bounds(args)
        if args.scenario is None:
            args.scenario = "acc"
        if args.sweep:
            return cmd_sweep(args)
        return cmd_run(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

if __name__ == "__main__":
    sys.exit(main())
