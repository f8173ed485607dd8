"""The README's library quick start and CLI commands run as written."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} quick start", "exec"), namespace)
    # the values its comments promise
    expected = [[1.0 - np.sqrt(2.0)]]
    np.testing.assert_allclose(namespace["x0"], expected, atol=1e-12)
    np.testing.assert_allclose(namespace["x0_newton"], expected, atol=1e-12)


def test_readme_schema_examples_load():
    from blockdiag.io import ProblemFile

    text = README.read_text(encoding="utf-8")
    section = text.split("### Problem file schemas", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(examples) == 2
    for example in examples:
        block = ProblemFile.from_obj(json.loads(example)).block
        np.testing.assert_array_equal(block.full, [[0.0, 1.0], [1.0, 2.0]])


def test_readme_commands_run(tmp_path, monkeypatch):
    from blockdiag.cli import main

    text = README.read_text(encoding="utf-8")
    section = text.split("\nCommands:\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("blockdiag ")
    ]
    assert len(commands) == 9
    # the commands read and write their files relative to the working directory
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
