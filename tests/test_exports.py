import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fxtqp

MODULES = sorted(m.name for m in pkgutil.iter_modules(fxtqp.__path__))
REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # hand-kept __all__ lists otherwise keep names the module no longer has
    module = importlib.import_module(f"fxtqp.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"fxtqp.{name}.__all__ names missing attributes: {missing}"


def _uses():
    """(file, enclosing top-level def or class or None, name) for every
    ``Name`` and ``Attribute`` in the package, the benchmark and the scripts."""
    uses = set()
    for root in ("src", "perfbench", "scripts"):
        for path in (REPO / root).rglob("*.py"):
            for stmt in ast.parse(path.read_text(), str(path)).body:
                owner = getattr(stmt, "name", None)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        uses.add((path, owner, node.id))
                    elif isinstance(node, ast.Attribute):
                        uses.add((path, owner, node.attr))
    return uses


def test_every_exported_name_has_a_use_outside_the_tests():
    # an exported name that only tests reach belongs in the tests; a use
    # inside the name's own def or class does not count, nor does __all__
    uses = _uses()
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"fxtqp.{name}")
        path = Path(module.__file__).resolve()
        for export in getattr(module, "__all__", ()):
            if not any(n == export and (p != path or owner != export)
                       for p, owner, n in uses):
                unused.append(f"fxtqp.{name}.{export}")
    assert not unused, f"exported names with no use outside the tests: {unused}"


# the names perfbench's workloads and tracing reach at run time, so that a
# rename fails here rather than in a benchmark run
BENCHMARK_NAMES = [
    ("constraints", "SetFunction.value"),
    ("constraints", "InputBounds.scale"),
    ("scenarios", "run"),
    ("scenarios", "AccConfig"),
    ("scenarios", "AccConfig.u_max"),
    ("scenarios", "AccConfig.tau_d"),
    ("scenarios", "TwoRobotConfig"),
    ("scenarios", "TwoRobotConfig.d_m"),
    ("scenarios", "TwoRobotConfig.arena"),
    ("scenarios", "TwoRobotConfig.hub_radius"),
    ("scenarios", "acc_scenario"),
    ("scenarios", "scenario_from_id"),
    ("simulation", "Schedule.phases"),
    ("simulation", "Outcome.ok"),
    ("simulation", "_joint_goal"),
    ("simulation", "synthesize"),
    ("simulation", "step_euler"),
    ("simulation", "run"),
    ("simulation", "trace_from_csv"),
    ("simulation", "OutcomeKind"),
    ("controller", "assemble"),
    ("qp", "solve_qp"),
    ("qp", "QpProblem.objective"),
    ("qp", "brute_force_solve"),
    ("qp", "kkt_residual"),
    ("qp", "SolveStatus"),
    ("qp", "FEAS_TOL"),
    ("cli", "main"),
    ("cli", "trace_to_csv"),
    ("cli", "simulate_scalar_v"),
    ("cli", "DEFAULT_BOUNDS_GRID"),
]


@pytest.mark.parametrize("module, path", BENCHMARK_NAMES)
def test_names_the_benchmark_reaches_resolve(module, path):
    obj = importlib.import_module(f"fxtqp.{module}")
    for part in path.split("."):
        assert hasattr(obj, part), f"fxtqp.{module}.{path} is gone"
        obj = getattr(obj, part)


# the dataclass fields perfbench reads or replaces; hasattr on the class
# above sees neither a field without a default nor the difference between a
# field and a class constant, which dataclasses.replace cannot set
BENCHMARK_FIELDS = [
    ("scenarios", "AccConfig", ("v_f0", "d_delta", "horizon")),
    ("scenarios", "Scenario", ("sys", "schedule", "bounds", "params")),
    ("simulation", "Schedule", ("tracks", "global_safes")),
    ("simulation", "Phase", ("goal", "safe_extra")),
    ("fxts", "ScalarSimResult", ("times",)),
    ("simulation", "Trace", ("t", "x", "u", "delta1", "delta2", "strict_cs")),
]


@pytest.mark.parametrize("module, cls, names", BENCHMARK_FIELDS,
                         ids=[cls for _, cls, _ in BENCHMARK_FIELDS])
def test_fields_the_benchmark_reaches_are_fields(module, cls, names):
    fields = {f.name for f in dataclasses.fields(getattr(importlib.import_module(
        f"fxtqp.{module}"), cls))}
    missing = [n for n in names if n not in fields]
    assert not missing, f"fxtqp.{module}.{cls} has no fields {missing}"


def test_assemble_returns_a_plain_qp_problem():
    # the benchmark hands assemble's result to the solver and the oracle and
    # reads its objective, A and b
    from fxtqp.controller import assemble
    from fxtqp.qp import QpProblem
    from fxtqp.scenarios import acc_scenario

    sc = acc_scenario()
    problem = assemble(sc.sys, sc.schedule.phases[0].goal, sc.schedule.global_safes,
                       sc.bounds, sc.params, sc.x0)
    assert type(problem) is QpProblem
    assert problem.A.shape == (6, 3) and problem.b.shape == (6,)
    assert problem.objective(np.zeros(3)) == 0.0
