"""The comparison half of scripts/output_manifest.py, on small manifests.

Building a manifest runs every reference output, so only ``diff`` runs here.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_manifest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_manifest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_manifests_differ_nowhere(capsys):
    manifest = {"acc/trace.csv": "aa", "acc/exit": "0", "bounds/bounds.csv": "bb"}
    assert load_script().diff(manifest, dict(manifest)) == 0
    assert capsys.readouterr().out == "0 of 3 entries differ\n"


def test_each_difference_is_listed(capsys):
    old = {"same": "0", "changed": "aa", "gone": "bb"}
    new = {"same": "0", "changed": "cc", "added": "dd"}
    assert load_script().diff(old, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in new: added",
        "differs: changed",
        "only in old: gone",
        "3 of 4 entries differ",
    ]


def test_acc_runs_hold_the_benchmark_disturbed_starts():
    runs = load_script().acc_runs()
    for v_f0, d_delta in ((21.0, 50.0), (24.0, 100.0), (17.0, 50.0)):
        assert runs[f"acc v_f0={v_f0!r} d_delta={d_delta!r}"] == {"v_f0": v_f0,
                                                                  "d_delta": d_delta}
    # only the fields that differ from the default config are set
    assert all(changed and "horizon" not in changed for changed in runs.values())
