"""README's Python blocks run as written, and the scenario block of
docs/formats.md validates, so a documented entry point, report key or
scenario key that drifts fails here."""

import re

import pytest
import yaml

from rrmsim.scenario import scenario_from_dict

from conftest import SCENARIO_DIR

README = SCENARIO_DIR.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
FORMATS = SCENARIO_DIR.parent / "docs" / "formats.md"


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_block_runs(source, monkeypatch):
    monkeypatch.chdir(README.parent)  # the blocks name scenario files from the repo root
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_the_documented_scenario_block_validates():
    [block] = re.findall(r"^```yaml\n(.*?)^```", FORMATS.read_text(), re.M | re.S)
    scenario_from_dict(yaml.safe_load(block))
