"""The summary half of scripts/bench_pairs.py, on hand-built records.

Running pairs runs the benchmark, so only ``summarize`` and ``report`` run
here.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(step_us, setup_s):
    return {"correct": True, "attempted": 18, "failed": 0,
            "metrics": {"step_us": {"value": step_us, "unit": "us"},
                        "setup_s": {"value": setup_s, "unit": "s"}}}


def record(pairs):
    return {"workload": "acc-mix", "seed": 0, "runs": [
        {"pair": i, "parent": side(*p), "change": side(*c)}
        for i, (p, c) in enumerate(pairs, start=1)]}


BETTER = {"step_us": "lower", "setup_s": "lower", "absent": "lower"}


def test_a_clear_gain_holds():
    # step_us: the change wins all ten pairs by far more than the parent's
    # IQR; setup_s: equal in every pair, so no win and no gain
    pairs = [((100.0 + i, 0.5), (80.0 + i, 0.5)) for i in range(10)]
    rows = {r["metric"]: r for r in load_script().summarize(record(pairs), BETTER)}
    assert set(rows) == {"step_us", "setup_s"}     # a metric no run reports is left out
    step = rows["step_us"]
    assert step["parent"] == (102.25, 104.5, 106.75)
    assert step["change"] == (82.25, 84.5, 86.75)
    assert (step["wins"], step["pairs"], step["gain"]) == (10, 10, True)
    assert (rows["setup_s"]["wins"], rows["setup_s"]["gain"]) == (0, False)


def test_eight_wins_of_ten_are_not_a_gain():
    pairs = [((100.0, 0.5), (80.0, 0.5))] * 8 + [((100.0, 0.5), (120.0, 0.5))] * 2
    step = load_script().summarize(record(pairs), BETTER)[0]
    assert (step["metric"], step["wins"], step["gain"]) == ("step_us", 8, False)


def test_a_gap_within_the_parent_iqr_is_not_a_gain():
    # every pair won, but the parent's own runs spread wider than the gap
    pairs = [((p, 0.5), (p - 1.0, 0.5)) for p in (90.0, 95.0, 100.0, 105.0, 110.0)]
    step = load_script().summarize(record(pairs), BETTER)[0]
    assert step["wins"] == 5 and not step["gain"]


def test_higher_is_better_counts_the_other_way():
    pairs = [((1.0, 0.5), (2.0, 0.5))] * 10
    step = load_script().summarize(record(pairs), {"step_us": "higher"})[0]
    assert (step["wins"], step["gain"]) == (10, True)


def test_report_names_each_metric_once():
    pairs = [((100.0 + i, 0.5), (80.0 + i, 0.5)) for i in range(10)]
    script = load_script()
    lines = script.report(script.summarize(record(pairs), BETTER)).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("step_us") and "wins 10 of 10; gain holds" in lines[0]
    assert "(-19.1 %)" in lines[0]
    assert lines[1].startswith("setup_s") and "gain not shown" in lines[1]


BOUNDS = {"step_us": 0.15, "setup_s": 0.25}


def verdicts(pairs):
    return {r["metric"]: r["regression"]
            for r in load_script().summarize(record(pairs), BETTER, BOUNDS)}


def test_a_small_slowdown_is_within_bound():
    # step_us 10 % worse against a 15 % bound; setup_s unchanged
    pairs = [((100.0 + i, 0.5), (110.0 + i, 0.5)) for i in range(10)]
    assert verdicts(pairs) == {"step_us": "within bound", "setup_s": "within bound"}


def test_a_slowdown_beyond_the_bound_is_worse():
    # setup_s +25.4 % against its 25 % bound, with a tight parent spread
    pairs = [((100.0, 0.287 + 0.001 * i), (100.0, 0.361 + 0.001 * i)) for i in range(10)]
    assert verdicts(pairs)["setup_s"] == "worse by 25.4 % > 25 % bound"
    line = load_script().report(load_script().summarize(record(pairs), BETTER, BOUNDS))
    assert line.splitlines()[1].endswith("; worse by 25.4 % > 25 % bound")


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    # a bimodal parent (0.23 s or 0.40 s): its IQR is over 25 % of its
    # median, so even an equal change median cannot be called within bound
    parent = [0.23, 0.40] * 5
    pairs = [((100.0, p), (100.0, 0.30)) for p in parent]
    assert verdicts(pairs)["setup_s"] == "unresolved"


def test_a_change_beating_every_parent_run_is_within_bound_despite_the_spread():
    parent = [0.23, 0.40] * 5
    pairs = [((100.0, p), (100.0, 0.20)) for p in parent]
    assert verdicts(pairs)["setup_s"] == "within bound"


def test_a_metric_without_a_bound_gets_no_verdict():
    pairs = [((100.0, 0.5), (100.0, 0.5))] * 3
    rows = load_script().summarize(record(pairs), BETTER, {"step_us": 0.15})
    assert [r["regression"] for r in rows] == ["within bound", None]
