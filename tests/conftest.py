"""Shared builders and fixtures for the test suite."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import settings

from rrmsim.core import CarrierGrid, Cell, CellClass
from rrmsim.scenario import ScenarioConfig, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# Property tests draw the same examples on every run, so a failure reproduces;
# some examples build whole worlds, so no per-example deadline.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def mk_grid(prbs=50, carrier_hz=2.0e9, numerology=0, prb_bw=180e3) -> CarrierGrid:
    return CarrierGrid(
        carrier_hz=carrier_hz,
        prbs_per_slot=prbs,
        numerology=numerology,
        prb_bandwidth_hz=prb_bw,
    )


def mk_cell(cell_id="c1", cell_class=CellClass.MACRO, grid=None, position=(0.0, 0.0),
            tx_power_dbm=43.0, **kw) -> Cell:
    return Cell(
        cell_id=cell_id,
        cell_class=cell_class,
        grid=grid if grid is not None else mk_grid(),
        position=position,
        tx_power_dbm=tx_power_dbm,
        **kw,
    )


def shorten(cfg: ScenarioConfig, slots: int, seed=None) -> ScenarioConfig:
    """Copy of a scenario config with a smaller horizon (and optionally a new seed)."""
    sim = dataclasses.replace(
        cfg.sim,
        horizon_slots=slots,
        seed=cfg.sim.seed if seed is None else seed,
    )
    return dataclasses.replace(cfg, sim=sim)


@pytest.fixture(scope="session")
def scenarios():
    """All shipped scenario configs, loaded once."""
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert paths, f"no scenario files under {SCENARIO_DIR}"
    return {p.stem: load_scenario(p) for p in paths}


# ---------------------------------------------------------------------------
# acceptance reporting: one PASS/FAIL line per criterion in the terminal summary
# ---------------------------------------------------------------------------

_ACCEPTANCE: dict[int, tuple[str, bool]] = {}


@pytest.fixture
def acceptance():
    def record(number: int, title: str, ok: bool):
        _ACCEPTANCE[number] = (title, bool(ok))
        return bool(ok)

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE):
        title, ok = _ACCEPTANCE[n]
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {title}")
