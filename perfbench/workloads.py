"""The benchmark's three workloads and one timed repetition of them.

A workload is a list of cases; a case is one scenario run to its horizon on
one seed. One repetition runs every case of the workload back to back:

1. build the scenario (``load_scenario`` or ``scenario_from_dict``) and
   construct ``World``;
2. drive ``World.step_slot`` to the horizon, timing each call from outside;
3. build the report, render the three output files with ``cli.render_*``,
   write them, and hash their bytes (``OUTPUT_PASSES`` times).

The caller (``run.py``) decides how many repetitions fit in the measured
window and which of them run under the tracer. Timings are keyed by the
benchmark's metric names where one exists (``scenario.build_s``, ...).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from rrmsim import World, cli, load_scenario, scenario_from_dict
from rrmsim.engine import RunResult

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

#: The three rendered files, in the order their digests are combined.
OUTPUT_FILES = ("metrics.csv", "summary.json", "events.log")

#: Times the output step runs per case and repetition. One pass takes tens of
#: milliseconds and single passes vary by tens of percent (file writes, the
#: allocator), so output_s is the median of many.
OUTPUT_PASSES = 16

#: The shipped scenarios that make up ``shipped_mix``: every shipped scenario
#: except ``two_cell_load_balance``, which is ``small_packet_lb`` on its own.
SHIPPED_MIX = ("dss_macro", "hetnet_walkthrough", "mmtc_swarm", "single_cell", "urllc_duplication")

# dense_embb shape: 200 moving UEs over a 4 x 4 grid of 100-PRB macros for
# 200 slots. 30 UEs cluster around each of the four central macros, so those
# cells overload and load-balance steering hands UEs over to their lighter
# neighbours; 5 more UEs sit near every macro. The seed draws positions within
# those areas and headings, not how many UEs each area holds, so the work per
# slot varies little from seed to seed. Steering runs every 10 slots, so its
# slots are a tenth of the run and slot_us_p95 falls among them.
DENSE_GRID = 4
DENSE_SPACING_M = 500.0
DENSE_HOTSPOTS = (5, 6, 9, 10)
DENSE_PER_HOTSPOT = 30
DENSE_PER_CELL = 5
DENSE_MAX_SPEED_M_S = 30.0
DENSE_HORIZON_SLOTS = 200


@dataclass(frozen=True)
class Case:
    """One scenario on one seed; ``make_config`` is the timed scenario build.

    Every ``probe_every`` slots the slot loop takes one ``probe_sample``: how
    fast the host runs plain Python at that moment. The host's speed changes
    within a second, so each timed piece of work is scaled by the samples
    taken right before and after it (see run.py). The samples fall on fixed
    slots, not on a timer, so the probe's own allocations interleave with
    rrmsim's the same way in every run and do not move peak memory; each
    case's count puts them about 5 ms of host time apart on the reference
    host.

    A repetition fails when the case hands over fewer than ``min_handovers``
    UEs, so a workload meant to steer cannot silently stop steering."""

    name: str
    make_config: Callable[[], object]
    seed: int
    probe_every: int
    min_handovers: int = 0


def dense_embb_dict(seed: int) -> dict:
    """The dense_embb scenario as a plain mapping, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    cells = [
        {
            "id": f"m{i:02d}",
            "class": "macro",
            "carrier_hz": 2.0e9,
            "prbs_per_slot": 100,
            "position": [(i % DENSE_GRID) * DENSE_SPACING_M, (i // DENSE_GRID) * DENSE_SPACING_M],
        }
        for i in range(DENSE_GRID * DENSE_GRID)
    ]
    positions = []
    for i in DENSE_HOTSPOTS:
        cx, cy = cells[i]["position"]
        r = rng.uniform(20.0, 150.0, size=DENSE_PER_HOTSPOT)
        th = rng.uniform(0.0, 2.0 * np.pi, size=DENSE_PER_HOTSPOT)
        positions += zip(cx + r * np.cos(th), cy + r * np.sin(th))
    for cell in cells:
        cx, cy = cell["position"]
        d = rng.uniform(-200.0, 200.0, size=(DENSE_PER_CELL, 2))
        positions += zip(cx + d[:, 0], cy + d[:, 1])
    speed = rng.uniform(0.0, DENSE_MAX_SPEED_M_S, size=len(positions))
    heading = rng.uniform(0.0, 2.0 * np.pi, size=len(positions))
    ues, flows = [], []
    for u, (x, y) in enumerate(positions):
        ues.append(
            {
                "id": f"u{u:03d}",
                "position": [float(x), float(y)],
                "velocity": [float(speed[u] * np.cos(heading[u])), float(speed[u] * np.sin(heading[u]))],
            }
        )
        flows.append(
            {
                "id": f"f{u:03d}",
                "ue": f"u{u:03d}",
                "service": "eMBB",
                "generator": {"kind": "full_buffer", "packet_bits": 6000, "watermark_bits": 6000},
            }
        )
    return {
        "name": "dense_embb",
        "sim": {"horizon_slots": DENSE_HORIZON_SLOTS, "seed": seed},
        "network": {"cells": cells},
        "ues": ues,
        "traffic": {"flows": flows},
        "uts": {
            "epoch_slots": 10,
            "features": ["load_balance_handover"],
            "hysteresis_epochs": 5,
            "thresholds": {
                "load_balance_handover": {"high_load": 0.8, "low_load": 0.6, "min_signal_db": 20.0}
            },
        },
    }


def _shipped(name: str, seed: int, probe_every: int) -> Case:
    path = SCENARIOS / f"{name}.yaml"
    return Case(name, lambda: load_scenario(path), seed, probe_every)


def cases(workload: str, seed: int) -> list[Case]:
    """The cases of ``workload`` on ``seed``; the seed is also the run seed."""
    if workload == "small_packet_lb":
        return [_shipped("two_cell_load_balance", seed, probe_every=4)]
    if workload == "dense_embb":
        data = dense_embb_dict(seed)  # input generation, outside the timed build
        return [Case("dense_embb", lambda: scenario_from_dict(data), seed, probe_every=1, min_handovers=1)]
    if workload == "shipped_mix":
        return [_shipped(name, seed, probe_every=12) for name in SHIPPED_MIX]
    raise ValueError(f"unknown workload {workload!r}")


_PROBE_ARRAY = np.arange(16, dtype=np.float64)
_PROBE_ROWS = [(i, i * 0.37, i * 1.1, "c0") for i in range(100)]


def probe() -> int:
    """Fixed work that shares nothing with rrmsim, in the kinds rrmsim spends
    its time on: dict, list and float operations and numpy scalar reads,
    rendering rows of text, and allocating many small objects. Each kind
    slows by its own amount when the host is busy; the mix follows both the
    slot loop and the output step better than the first kind alone."""
    counts: dict[int, int] = {}
    out: list[float] = []
    acc = 0.0
    arr = _PROBE_ARRAY
    for i in range(150):
        counts[i & 15] = counts.get(i & 15, 0) + 1
        out.append(i * 0.5)
        if arr[i & 15] > 7.5:
            acc += len(out) * 1.5
    text = "\n".join(f"{a},{b:.6g},{c:.3f},{d}" for a, b, c, d in _PROBE_ROWS)
    pairs = [[i, i * 0.5] for i in range(400)]
    return int(acc) + len(text) + len(pairs)


def probe_sample() -> int:
    """Faster ns of two probe calls made back to back after an untimed one:
    how fast the host runs such work right now. The untimed call loads the
    probe's code and data, so the figure follows the host rather than what
    rrmsim left in the caches and branch predictors."""
    clock = time.perf_counter_ns
    probe()
    t0 = clock()
    probe()
    t1 = clock()
    probe()
    t2 = clock()
    return min(t1 - t0, t2 - t1)


def setup(case: Case) -> tuple[float, float, World]:
    """Build the scenario and the world; returns (build_s, init_s, world)."""
    t0 = time.perf_counter()
    cfg = case.make_config()
    t1 = time.perf_counter()
    world = World(cfg, seed=case.seed)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, world


@dataclass
class Repetition:
    """Timings and output digests of one repetition of a workload."""

    slots: int = 0
    slot_ns: list = field(default_factory=list)
    #: probe samples taken in the slot loop, and how many slots were timed
    #: before each; a case's first sample precedes its first slot and its
    #: last sample follows its last slot
    probe_ns: list = field(default_factory=list)
    probe_at: list = field(default_factory=list)
    #: per output pass, seconds per output step summed over cases
    output_s: list = field(default_factory=list)
    #: per output pass, the sum over cases of the pass's seconds over the
    #: mean of the probe samples (ns) taken right before and after it
    output_per_probe: list = field(default_factory=list)
    #: "case/file" -> sha256 of the written bytes
    files: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)
    handovers: int = 0


def combined_digest(files: dict) -> str:
    lines = "".join(f"{name} {sha}\n" for name, sha in files.items())
    return hashlib.sha256(lines.encode()).hexdigest()


def run_repetition(workload_cases: list[Case], out_dir: Path, tracer=None) -> Repetition:
    """Run every case once. With a tracer, it is installed for set-up and
    slots (not for output) and told the slot each span belongs to."""
    rep = Repetition()
    clock = time.perf_counter_ns
    for case in workload_cases:
        if tracer is not None:
            tracer.slot = -1
            tracer.install()
        try:
            _, _, world = setup(case)
            horizon = world.config.sim.horizon_slots
            step = world.step_slot
            times, probes, probe_at = rep.slot_ns, rep.probe_ns, rep.probe_at
            probes.append(probe_sample())
            probe_at.append(len(times))
            while world.slot < horizon:
                if tracer is not None:
                    tracer.slot = world.slot
                t0 = clock()
                step()
                times.append(clock() - t0)
                if world.slot % case.probe_every == 0 or world.slot == horizon:
                    probes.append(probe_sample())
                    probe_at.append(len(times))
        finally:
            if tracer is not None:
                tracer.slot = -1
                tracer.uninstall()
        rep.slots += world.slot
        files = report = None
        before = rep.probe_ns[-1]
        for i in range(OUTPUT_PASSES):
            timings, pass_files, pass_report = _write_outputs(world, out_dir / case.name)
            after = probe_sample()
            if files is None:
                files, report = pass_files, pass_report
            elif pass_files != files:
                raise RuntimeError(f"{case.name}: rendering the same world twice gave different bytes")
            if len(rep.output_s) == i:
                rep.output_s.append(dict.fromkeys(timings, 0.0))
                rep.output_per_probe.append(0.0)
            for key, dt in timings.items():
                rep.output_s[i][key] += dt
            rep.output_per_probe[i] += sum(timings.values()) * 2 / (before + after)
            before = after
        handovers = report.steering_actions.get("handover", 0)
        if handovers < case.min_handovers:
            raise RuntimeError(f"{case.name}: {handovers} handovers, fewer than {case.min_handovers}")
        rep.handovers += handovers
        rep.files.update((f"{case.name}/{name}", sha) for name, sha in files.items())
        rep.reports.append(report)
    return rep


def _write_outputs(world: World, out_dir: Path) -> tuple[dict, dict, object]:
    """Build the report, render and write the three files; returns the
    seconds per step, the sha256 of each file's bytes and the report."""
    clock = time.perf_counter
    t0 = clock()
    report = world.build_report()
    t1 = clock()
    result = RunResult(
        config=world.config, seed=world.seed, report=report, rows=world.rows, events=world.events
    )
    texts = {"metrics.csv": cli.render_csv(result.rows)}
    t2 = clock()
    texts["summary.json"] = cli.render_summary(result)
    t3 = clock()
    texts["events.log"] = cli.render_events(result.events)
    t4 = clock()
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in OUTPUT_FILES:
        data = texts[name].encode()
        (out_dir / name).write_bytes(data)
        files[name] = hashlib.sha256(data).hexdigest()
    t5 = clock()
    timings = {
        "engine.build_report_s": t1 - t0,
        "cli.render_csv_s": t2 - t1,
        "cli.render_summary_s": t3 - t2,
        "cli.render_events_s": t4 - t3,
        "write_s": t5 - t4,
    }
    return timings, files, report


def shape(workload_cases: list[Case]) -> dict:
    """Slots, UEs and cells of each case, and their slot x UE x cell total."""
    per_case = {}
    for case in workload_cases:
        cfg = case.make_config()
        per_case[case.name] = (cfg.sim.horizon_slots, len(cfg.ues), len(cfg.cells))
    return {
        "cases": per_case,
        "slots": sum(s for s, _, _ in per_case.values()),
        "slot_ue_cells": sum(s * u * c for s, u, c in per_case.values()),
    }
