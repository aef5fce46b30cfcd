"""Every python example in README.md runs against the package as it is,
and every command-line example sets only fields its scenario's config has."""

import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from fxtqp.scenarios import AccConfig, TwoRobotConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)
SHELL_BLOCKS = re.findall(r"^```sh\n(.*?)^```$", README, re.S | re.M)


def test_readme_has_python_examples():
    # the library-use example and the custom problem
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_examples_set_only_config_fields():
    # a key the config does not have makes the example exit 2
    configs = {"acc": AccConfig, "two-robot": TwoRobotConfig}
    commands = [shlex.split(line, comments=True) for block in SHELL_BLOCKS
                for line in block.splitlines() if line.startswith("fxtqp")]
    assert any("--set" in argv for argv in commands)
    for argv in commands:
        scenario = argv[argv.index("--scenario") + 1] if "--scenario" in argv else "acc"
        fields = ({f.name for f in dataclasses.fields(configs[scenario])}
                  if scenario in configs else set())
        keys = {value.partition("=")[0] for flag, value in zip(argv, argv[1:])
                if flag in ("--set", "--sweep")}
        assert keys <= fields, (argv, keys - fields)
