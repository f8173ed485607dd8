"""The README's library quick start runs as written."""

import re
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
