"""Traced passes: spans around the calls into each layer of fxtqp.

Each name below is replaced, for the duration of a traced pass, where its
caller looks it up (``simulation.run`` calls ``synthesize`` from its own
module globals, the controller calls ``qp.solve_qp`` through the ``qp``
module, and so on).  Nothing inside ``src/`` changes.  A span records its
name, start, end, parent span and run id; spans stay in memory and are
written out once the benchmark ends.

A name that no longer exists is skipped, and the metrics built only from it
read 0 and are listed as absent in the report.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

# (module, attribute as the caller looks it up, span name)
TARGETS = (
    ("fxtqp.cli", "main", "cli.main"),
    ("fxtqp.cli", "trace_to_csv", "simulation.csv"),
    ("fxtqp.cli", "simulate_scalar_v", "fxts.rk4"),
    ("fxtqp.scenarios", "run", "simulation.run"),
    ("fxtqp.simulation", "synthesize", "controller.synthesize"),
    ("fxtqp.simulation", "step_euler", "simulation.euler"),
    ("fxtqp.controller", "assemble", "controller.assemble"),
    ("fxtqp.controller", "_slack_completed_start", "controller.start"),
    ("fxtqp.controller", "input_rows", "constraints.rows"),
    ("fxtqp.controller", "convergence_row", "constraints.rows"),
    ("fxtqp.controller", "safety_rows", "constraints.rows"),
    ("fxtqp.controller", "classify_regime", "fxts.certify"),
    ("fxtqp.controller", "settling_time_bound", "fxts.certify"),
    ("fxtqp.qp", "solve_qp", "qp.solve_qp"),
    ("fxtqp.qp", "linprog", "qp.linprog"),
    ("fxtqp.qp", "check_strict_complementarity", "qp.strict_cs"),
)

# per-layer metric -> span names it is built from (for absence reporting)
SOURCES = {
    "qp.solve_us": ("qp.solve_qp",),
    "qp.iters_mean": ("qp.solve_qp",),
    "qp.iters_max": ("qp.solve_qp",),
    "qp.active_set_reuse": ("controller.synthesize",),
    "qp.phase1_lp_calls": ("qp.linprog",),
    "qp.bland_retries": ("qp.solve_qp",),
    "qp.iteration_limits": ("qp.solve_qp",),
    "qp.strict_cs_us": ("qp.strict_cs",),
    "controller.assemble_us": ("controller.assemble",),
    "controller.start_us": ("controller.start",),
    "controller.start_hit_ratio": ("controller.start",),
    "controller.self_us": ("controller.synthesize",),
    "constraints.rows_us": ("constraints.rows",),
    "fxts.certify_us": ("fxts.certify",),
    "fxts.rk4_us": ("fxts.rk4",),
    "fxts.rk4_calls": ("fxts.rk4",),
    "simulation.loop_self_us": ("simulation.run",),
    "simulation.euler_us": ("simulation.euler",),
    "simulation.csv_s": ("simulation.csv",),
    "cli.self_s": ("cli.main",),
}


@contextmanager
def patched(replacements):
    """Set each ``(owner, attr, value)`` for the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def timed(module, attr: str, intervals: list, results: list | None = None):
    """Patch ``module.attr`` with one perf_counter pair around each call.

    Each call appends its ``(start, end)`` to ``intervals`` and, when
    ``results`` is a list, its return value to ``results``.
    """
    fn = getattr(module, attr)

    def probe(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        intervals.append((t0, perf_counter()))
        if results is not None:
            results.append(out)
        return out

    return patched([(module, attr, probe)])


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self, pass_index: int):
        self.pass_index = pass_index
        self.spans: list[tuple] = []     # (id, name, start, end, parent, run)
        self.run = 0
        self.solves: list[tuple[int, str, bool]] = []   # (iterations, status, bland)
        self.decisions: list[tuple[int, tuple]] = []    # (run, active set)
        self.start_hits = 0
        self.setfn_calls = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next = 0

    def set_run(self, run: int) -> None:
        self.run = run

    def _wrap(self, name: str, fn):
        rec = self
        after = {
            "qp.solve_qp": rec._after_solve,
            "controller.synthesize": rec._after_decision,
            "controller.start": rec._after_start,
        }.get(name)

        def span(*args, **kwargs):
            sid = rec._next
            rec._next += 1
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec._stack.pop()
                rec.spans.append((sid, name, t0, t1, parent, rec.run))
            if after is not None:
                after(args, kwargs, out)
            return out

        return span

    def _after_solve(self, args, kwargs, sol) -> None:
        bland = kwargs.get("bland", args[2] if len(args) > 2 else False)
        self.solves.append((sol.iterations, sol.status.value, bool(bland)))

    def _after_decision(self, args, kwargs, decision) -> None:
        self.decisions.append((self.run, tuple(decision.active_set)))

    def _after_start(self, args, kwargs, z0) -> None:
        self.start_hits += z0 is not None

    def installed(self):
        """Swap every traced name, and a counting ``SetFunction.value``, in for a block."""
        replacements = []
        for module_name, attr, name in TARGETS:
            module = import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
            else:
                replacements.append((module, attr, self._wrap(name, fn)))
        setfn = import_module("fxtqp.constraints").SetFunction
        value = setfn.value

        def counted(self_, x):
            self.setfn_calls += 1
            return value(self_, x)

        return patched(replacements + [(setfn, "value", counted)])

    def metrics(self, steps: int, nonstrict_steps: int, scale: float) -> dict[str, float]:
        """Per-layer metrics of this pass (times are self times unless noted),
        every time multiplied by the pass's host-speed ``scale``."""
        child = defaultdict(float)
        for sid, name, t0, t1, parent, run in self.spans:
            child[parent] += (t1 - t0) * scale
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        for sid, name, t0, t1, parent, run in self.spans:
            total[name] += (t1 - t0) * scale
            self_time[name] += (t1 - t0) * scale - child[sid]
            calls[name] += 1
        self.self_time = dict(self_time)

        def per(value: float, n: int, scale: float = 1e6) -> float:
            return value / n * scale if n else 0.0

        decisions = calls["controller.synthesize"]
        loop_steps = steps if calls["simulation.run"] else 0
        iters = [s[0] for s in self.solves]
        pairs = reuse = 0
        for (run_a, set_a), (run_b, set_b) in zip(self.decisions, self.decisions[1:]):
            if run_a == run_b:
                pairs += 1
                reuse += set_a == set_b
        return {
            "qp.solve_us": per(self_time["qp.solve_qp"], calls["qp.solve_qp"]),
            "qp.iters_mean": sum(iters) / len(iters) if iters else 0.0,
            "qp.iters_max": max(iters, default=0),
            "qp.active_set_reuse": reuse / pairs if pairs else 0.0,
            "qp.phase1_lp_calls": calls["qp.linprog"],
            "qp.bland_retries": sum(s[2] for s in self.solves),
            "qp.iteration_limits": sum(s[1] == "iteration_limit" for s in self.solves),
            "qp.strict_cs_us": per(self_time["qp.strict_cs"], calls["qp.strict_cs"]),
            "qp.nonstrict_steps": nonstrict_steps,
            "controller.assemble_us": per(self_time["controller.assemble"],
                                          calls["controller.assemble"]),
            "controller.start_us": per(self_time["controller.start"], calls["controller.start"]),
            "controller.start_hit_ratio": per(self.start_hits, calls["controller.start"], 1.0),
            "controller.self_us": per(self_time["controller.synthesize"], decisions),
            "constraints.rows_us": per(total["constraints.rows"], decisions),
            "constraints.setfn_calls_per_step": per(self.setfn_calls, loop_steps, 1.0),
            "fxts.certify_us": per(total["fxts.certify"], decisions),
            "fxts.rk4_us": per(total["fxts.rk4"], calls["fxts.rk4"]),
            "fxts.rk4_calls": calls["fxts.rk4"],
            "simulation.loop_self_us": per(self_time["simulation.run"], loop_steps),
            "simulation.euler_us": per(self_time["simulation.euler"], calls["simulation.euler"]),
            "simulation.csv_s": total["simulation.csv"],
            "cli.self_s": self_time["cli.main"],
            "bench.steps": steps,
        }

    def counters(self) -> dict[str, int]:
        iters = [s[0] for s in self.solves]
        return {
            "qp.iters_sum": sum(iters),
            "qp.iters_max": max(iters, default=0),
            "qp.phase1_lp_calls": sum(1 for s in self.spans if s[1] == "qp.linprog"),
            "qp.bland_retries": sum(s[2] for s in self.solves),
            "qp.iteration_limits": sum(s[1] == "iteration_limit" for s in self.solves),
            "fxts.rk4_calls": sum(1 for s in self.spans if s[1] == "fxts.rk4"),
            "constraints.setfn_calls": self.setfn_calls,
        }


def absent_metrics(absent: list[str]) -> list[str]:
    return sorted(m for m, names in SOURCES.items() if any(n in absent for n in names))


def write_spans(path, recorders: list[Recorder]) -> int:
    """Write every span of every traced pass as CSV; returns the span count."""
    n = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "run", "id", "parent", "name", "start_s", "end_s"])
        for rec in recorders:
            for sid, name, t0, t1, parent, run in rec.spans:
                writer.writerow([rec.pass_index, run, sid, parent, name,
                                 f"{t0:.9f}", f"{t1:.9f}"])
                n += 1
    return n
