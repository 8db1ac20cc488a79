"""README's Python blocks run as written, so a documented entry point or
report key that drifts fails here."""

import re

import pytest

from conftest import SCENARIO_DIR

README = SCENARIO_DIR.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_block_runs(source, monkeypatch):
    monkeypatch.chdir(README.parent)  # the blocks name scenario files from the repo root
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
