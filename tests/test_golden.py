"""Golden digests: every shipped scenario on two seeds renders exactly the
bytes recorded in ``tests/golden/digests.json``.

The digests pin byte-identical output across code changes, not just between
two runs of one build. A change that moves a digest must say which bytes
changed and why; regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each ``scenario@seed file`` whose digest moved and leaves the
file untouched when none did.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from rrmsim import cli
from rrmsim.engine import run_scenario
from rrmsim.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
SEEDS = (7, 1009)
SCENARIOS = tuple(sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))


def render_digests(name: str, seed: int) -> dict[str, str]:
    """sha256 of the three rendered output files of one (scenario, seed) run."""
    result = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.yaml"), seed=seed)
    files = {
        "metrics.csv": cli.render_csv(result.rows),
        "summary.json": cli.render_summary(result),
        "events.log": cli.render_events(result.events),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in files.items()}


def _key(name: str, seed: int) -> str:
    return f"{name}@{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_golden_covers_every_shipped_scenario(golden):
    assert len(SCENARIOS) == 6
    assert sorted(golden) == sorted(_key(n, s) for n in SCENARIOS for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_output_matches_golden_digest(golden, name, seed):
    assert render_digests(name, seed) == golden[_key(name, seed)]


def rerecord(path: Path, doc: dict[str, dict[str, str]]) -> list[str]:
    """Write ``doc`` to ``path`` if any digest in it differs from the file's,
    and return each ``scenario@seed file`` that moved, came or went."""
    old = json.loads(path.read_text()) if path.exists() else {}
    moved = [
        f"{key} {name}"
        for key in sorted(set(old) | set(doc))
        for name in sorted(set(old.get(key, {})) | set(doc.get(key, {})))
        if old.get(key, {}).get(name) != doc.get(key, {}).get(name)
    ]
    if moved:
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return moved


def test_rerecord_names_what_moved_and_writes_only_then(tmp_path):
    path = tmp_path / "digests.json"
    doc = {"a@7": {"events.log": "1", "summary.json": "2"}, "b@7": {"events.log": "3"}}
    assert rerecord(path, doc) == ["a@7 events.log", "a@7 summary.json", "b@7 events.log"]
    path.write_text(path.read_text() + "\n")  # a rewrite would drop this line
    kept = path.read_text()
    assert rerecord(path, doc) == [] and path.read_text() == kept
    moved = {"a@7": {"events.log": "1", "summary.json": "9"}, "c@7": {"events.log": "3"}}
    assert rerecord(path, moved) == ["a@7 summary.json", "b@7 events.log", "c@7 events.log"]
    assert json.loads(path.read_text()) == moved


if __name__ == "__main__":
    moved = rerecord(DIGESTS, {_key(n, s): render_digests(n, s) for n in SCENARIOS for s in SEEDS})
    for line in moved:
        print(f"moved: {line}")
    print(f"{DIGESTS.name}: {len(moved)} digests moved" if moved else "no digest moved")
    sys.exit(0)
