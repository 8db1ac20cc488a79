"""Whole-world runs: determinism, conservation, stage discipline."""

import dataclasses
import hashlib
import importlib.util
import json
import pickle
import sys
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import abstraction
from rrmsim import channel as chan
from rrmsim import engine
from rrmsim import mac as mac_layer
from rrmsim import pdcp
from rrmsim.abstraction import RSRP_FLOOR_DBM, MeasureKind, describe_cell, link_rate, signal_db
from rrmsim.cli import render_csv, render_events, render_summary
from rrmsim.core import TrafficClass, ValidationError
from rrmsim.engine import World, run_scenario
from rrmsim.scenario import scenario_from_dict
from rrmsim.uts import DEFAULT_THRESHOLDS, LOAD_BALANCE_ID, builtin_features, evaluate_load_balance

from conftest import SCENARIO_DIR, shorten


def _short(scenarios, name, slots, seed=None):
    return shorten(scenarios[name], slots, seed=seed)


def test_same_seed_reproduces_every_output_byte(scenarios):
    cfg = _short(scenarios, "single_cell", 150)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert render_summary(a) == render_summary(b)
    assert render_csv(a.rows) == render_csv(b.rows)
    assert render_events(a.events) == render_events(b.events)


def test_different_seeds_diverge(scenarios):
    cfg = _short(scenarios, "mmtc_swarm", 300)
    a = run_scenario(cfg, seed=1)
    b = run_scenario(cfg, seed=2)
    assert render_events(a.events) != render_events(b.events)
    assert a.seed == 1 and b.seed == 2


@pytest.mark.parametrize("where", ["run", "sim.seed", "channel.fading_seed"])
def test_a_numpy_integer_seed_writes_the_files_of_the_same_int(scenarios, where):
    # a numpy seed used to overflow the fading hash's 64-bit mask
    cfg = _short(scenarios, "two_cell_load_balance", 200)

    def run(seed):
        if where == "run":
            return run_scenario(cfg, seed=seed)
        section, field = where.split(".")
        part = dataclasses.replace(getattr(cfg, section), **{field: seed})
        return run_scenario(dataclasses.replace(cfg, **{section: part}))

    a, b = run(np.int64(3)), run(3)
    assert render_summary(a) == render_summary(b)
    assert render_csv(a.rows) == render_csv(b.rows)
    assert render_events(a.events) == render_events(b.events)


def test_served_bits_balance_between_flows_and_cells(scenarios):
    for name in ("single_cell", "hetnet_walkthrough", "mmtc_swarm"):
        res = run_scenario(_short(scenarios, name, 250))
        by_flow = sum(m["mac_served_bits"] for m in res.report.per_flow.values())
        by_cell = sum(m["served_bits"] for m in res.report.per_cell.values())
        assert by_flow == pytest.approx(by_cell, rel=1e-12), name


def test_no_flow_delivers_more_than_arrived(scenarios):
    for name, cfg in scenarios.items():
        res = run_scenario(shorten(cfg, 200))
        for fid, m in res.report.per_flow.items():
            assert m["delivered_bits"] <= m["arrived_bits"] + 1e-9, (name, fid)
            assert m["backlog_bits"] >= 0.0


def test_delivered_is_monotone_in_horizon(scenarios):
    cfg = scenarios["single_cell"]
    short = run_scenario(shorten(cfg, 120)).report.per_flow
    long = run_scenario(shorten(cfg, 360)).report.per_flow
    for fid in short:
        assert long[fid]["delivered_bits"] >= short[fid]["delivered_bits"]


def test_clean_channel_conserves_every_bit(scenarios):
    """No drops configured: arrived = delivered + queued, give or take the
    one packet per leg that may sit half-transmitted when the run stops."""
    cfg = _short(scenarios, "single_cell", 400)
    res = run_scenario(cfg)
    pkt = {f.flow_id: f.generator.packet_bits for f in cfg.flows}
    for fid, m in res.report.per_flow.items():
        assert m["lost_in_transit"] == 0
        if m["declared_lost"] is not None:
            assert m["declared_lost"] == 0
        gap = m["arrived_bits"] - m["delivered_bits"] - m["backlog_bits"]
        if m["delivered_pdus"] is None:
            # contention-channel flow: whole packets may still await a round
            assert gap >= 0.0 and gap % pkt[fid] == 0.0, fid
        else:
            assert 0.0 <= gap <= pkt[fid] + 1e-9, fid


def _ledger(w, fr):
    """A flow's bit ledger: (arrived, queued + in flight + completed) and
    (MAC-served, in flight + completed + re-sent). In flight is the sent part
    of each leg's head packet; completed packets were received (delivered,
    buffered, or dropped as arriving after the reorder timer gave them up) or
    lost in transit; re-sent bits were in flight when a leg change moved
    their packet whole. An mMTC flow's queue is its pending access attempts."""
    fid = fr.cfg.flow_id
    if fr.state is None:
        pending = sum(
            a.payload_bits for cr in w.cells.values() for a in cr.mac.pending if a.flow_id == fid
        )
        return (fr.arrived_bits, pending + fr.mac_served_bits), (0.0, 0.0)
    legs = fr.state.legs
    queued = sum(leg.queue_bits for leg in legs)
    in_flight = sum(leg.head_sent_bits for leg in legs)
    late_or_lost = (fr.rx.duplicates_dropped + fr.lost_in_transit) * fr.cfg.generator.packet_bits
    buffered = sum(bits for bits, _ in fr.rx.buffer.values())
    completed = fr.delivered_bits + buffered + late_or_lost
    return (fr.arrived_bits, queued + in_flight + completed), (
        fr.mac_served_bits,
        in_flight + completed + fr.resent_bits,
    )


@pytest.mark.parametrize("seed", (1, 7))
@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_bit_ledger_balances_every_mac_epoch(scenarios, name, seed):
    """Every bit that arrived is queued, half sent, or in a completed
    packet, and every bit the MAC served is in the last two, exactly. A flow
    that ever duplicates is left out: its copies count twice. Each flow is
    registered with exactly the MACs of its legs' cells, an mMTC flow with
    its UE's serving cell's."""
    w = World(scenarios[name], seed=seed)
    duplicating = set()
    checks = 0
    while w.slot < w.config.sim.horizon_slots:
        w.step_slot()
        duplicating.update(
            fid for fid, fr in w.flows.items()
            if fr.state is not None and fr.state.mode is pdcp.Mode.DUPLICATE
        )
        if w.slot % w.config.mac.epoch_slots:
            continue
        for fid, fr in w.flows.items():
            registered = {cid for cid, cr in w.cells.items() if fid in cr.mac.flows}
            if fr.state is None:
                assert registered == {w.ues[fr.cfg.ue_id].serving}, (w.slot, fid)
            else:
                assert registered == {leg.cell_id for leg in fr.state.legs}, (w.slot, fid)
            if fid not in duplicating:
                (arrived, held), (served, sent) = _ledger(w, fr)
                assert arrived == held and served == sent, (w.slot, fid)
                checks += 1
    assert checks >= len(w.flows) - len(duplicating)


def test_latency_books_do_not_grow_with_the_horizon(scenarios):
    """Twice the horizon delivers about twice the packets into the same few
    latency entries: one per distinct latency, not one per packet."""
    cfg = scenarios["two_cell_load_balance"]
    w = World(cfg, seed=1)
    horizon = cfg.sim.horizon_slots
    tables = []
    for end in (horizon, 2 * horizon):
        w.run(end)
        tables.append({fid: dict(fr.latency_counts) for fid, fr in w.flows.items()})
    for fid, fr in w.flows.items():
        short, long = tables[0][fid], tables[1][fid]
        assert sum(long.values()) == fr.rx.delivered_count > 1.9 * sum(short.values())
        assert all(n > 0 for n in long.values())
        assert len(long) <= 2 and len(short) <= 2, (fid, short, long)


def test_steering_happens_only_on_uts_epoch_boundaries(scenarios):
    cfg = _short(scenarios, "two_cell_load_balance", 600)
    res = run_scenario(cfg)
    steer = [e for e in res.events if e.subsystem == "uts"]
    assert steer, "expected steering activity in this scenario"
    for e in steer:
        assert e.slot % cfg.uts.epoch_slots == 0


def test_mac_partitions_refresh_on_mac_epoch_boundaries(scenarios):
    cfg = _short(scenarios, "single_cell", 100)
    res = run_scenario(cfg)
    for e in res.events:
        if e.subsystem == "mac":
            assert e.slot % cfg.mac.epoch_slots == 0


def test_urllc_reservation_and_rach_ignore_fading_seed(scenarios):
    """Fast fading may shift how broadband queues split the leftovers, but the
    standing reservation and the contention channel must not wander."""
    base = _short(scenarios, "single_cell", 200)
    runs = []
    for fseed in (11, 999):
        cfg = dataclasses.replace(
            base, channel=dataclasses.replace(base.channel, fading_seed=fseed)
        )
        res = run_scenario(cfg)
        rach = [e.format() for e in res.events if e.kind == "rach_round"]
        urllc = [
            (e.slot, seg)
            for e in res.events
            if e.kind == "partition"
            for seg in str(e.get("plan")).split(",")
            if seg.startswith("URLLC:")
        ]
        runs.append((rach, urllc))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1] and runs[0][1]


def test_deadline_misses_stay_zero_when_reserved(scenarios):
    res = run_scenario(_short(scenarios, "single_cell", 600))
    urllc = [m for m in res.report.per_flow.values() if m["service"] == "URLLC"]
    assert urllc and all(m["deadline_misses"] == 0 for m in urllc)


def test_late_random_access_deliveries_count_as_deadline_misses():
    cfg = scenario_from_dict(
        {
            "name": "mmtc_deadline",
            "sim": {"horizon_slots": 200, "seed": 1},
            "network": {"cells": [{"id": "c1", "prbs_per_slot": 20}]},
            "ues": [{"id": "u1", "position": [30.0, 0.0]}],
            "traffic": {"flows": [{
                "id": "f1", "ue": "u1", "service": "mMTC",
                "generator": {"kind": "periodic_deadline", "period_slots": 3,
                              "packet_bits": 200, "deadline_slots": 1},
            }]},
        }
    )
    w = World(cfg)
    late, deliver = 0, w._deliver

    def tally(fr, bits, created_slot, count=1):  # each delivery's lateness, as it happens
        nonlocal late
        late += count if w.slot - created_slot > 1 else 0
        deliver(fr, bits, created_slot, count)

    w._deliver = tally
    report = w.run().report
    assert late > 0 and report.rach_successes > 0
    assert report.per_flow["f1"]["deadline_misses"] == late


def test_mmtc_uses_contention_not_queue(scenarios):
    res = run_scenario(_short(scenarios, "mmtc_swarm", 800))
    r = res.report
    assert r.rach_attempts > 0
    assert r.rach_attempts == r.rach_successes + r.rach_collisions
    mmtc = {f: m for f, m in r.per_flow.items() if m["service"] == "mMTC"}
    queued = sum(m["access_attempts"] for m in mmtc.values())
    # each queued packet succeeds at most once; collisions retry, so round
    # participations may exceed the number of distinct packets
    assert 0 < r.rach_successes <= queued
    # sporadic flows bypass the split-bearer machinery entirely
    assert all(m["delivered_pdus"] is None for m in mmtc.values())


def test_world_without_traffic_still_runs():
    from rrmsim.scenario import scenario_from_dict

    cfg = scenario_from_dict(
        {
            "name": "idle",
            "network": {"cells": [{"id": "c1", "prbs_per_slot": 10}]},
            "sim": {"horizon_slots": 30, "seed": 0},
        }
    )
    res = run_scenario(cfg)
    assert res.report.per_flow == {}
    assert res.report.per_cell["c1"]["served_bits"] == 0.0
    assert any(e.kind == "partition" for e in res.events)


def test_rows_cover_every_flow_every_epoch(scenarios):
    cfg = _short(scenarios, "single_cell", 100)
    res = run_scenario(cfg)
    epochs = cfg.sim.horizon_slots // cfg.mac.epoch_slots
    assert len(res.rows) == epochs * len(cfg.flows)
    assert all(row["backlog_bits"] >= 0 for row in res.rows)


def test_world_run_can_be_stepped_manually(scenarios):
    cfg = _short(scenarios, "single_cell", 40)
    w = World(cfg)
    for _ in range(10):
        w.step_slot()
    assert w.slot == 10
    res = w.run()  # continues to the horizon rather than restarting
    assert res.report.slots == 40


def test_stage_order_is_declared():
    from rrmsim.engine import STAGE_ORDER

    assert STAGE_ORDER == (
        ("arrivals", "_arrivals"),
        ("steering", "_steering"),
        ("mac", "_run_macs"),
        ("transport", "_reorder_ticks"),
        ("metrics", "_metrics_rollup"),
    )
    assert all(callable(getattr(World, method)) for _, method in STAGE_ORDER)


def test_caller_supplied_feature_joins_the_loop(scenarios):
    from rrmsim.abstraction import FeatureRecord, PluginLocation

    cfg = _short(scenarios, "two_cell_load_balance", 300)
    rec = FeatureRecord(
        feature_id="probe",
        inputs=("cell_load",),
        outputs=("handover",),
        location=PluginLocation.BELOW_UTS,
        interacts_with=("none",),
        scenarios=("any",),
    )
    seen = []
    res = run_scenario(
        cfg, extra_features=[(rec, lambda ctx, r, thr: seen.append(ctx.epoch_index) or [])]
    )
    boundaries = [s for s in range(cfg.sim.horizon_slots) if s % cfg.uts.epoch_slots == 0]
    assert seen == [s // cfg.uts.epoch_slots for s in boundaries]
    assert res.report.slots == cfg.sim.horizon_slots


def test_readme_extending_example_runs_its_evaluator(monkeypatch):
    """The README's plugin example, executed as written on a shortened horizon;
    its evaluator must be called once per steering epoch."""
    import rrmsim

    root = SCENARIO_DIR.parent
    readme = (root / "README.md").read_text()
    code = readme.split("## Extending", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    real_load, real_run = rrmsim.load_scenario, rrmsim.run_scenario
    calls = []

    def counted_run(cfg, seed=None, extra_features=()):
        counted = [
            (rec, lambda *a, _ev=ev: calls.append(a[1].feature_id) or _ev(*a))
            for rec, ev in extra_features
        ]
        return real_run(cfg, seed=seed, extra_features=counted)

    monkeypatch.setattr(rrmsim, "load_scenario", lambda p: shorten(real_load(root / p), 300))
    monkeypatch.setattr(rrmsim, "run_scenario", counted_run)
    exec(code, {})
    assert calls == ["nudge_first_ue"] * (300 // 50)  # uts.epoch_slots is 50


def test_duplication_reduces_latency_tail(scenarios):
    """Paired runs on the lossy two-cell scenario: with duplication configured
    (the shipped config) the URLLC flow loses less than a single-leg variant."""
    cfg = shorten(scenarios["urllc_duplication"], 1500)
    dup = run_scenario(cfg)
    solo_uts = dataclasses.replace(cfg.uts, enabled=False)
    solo = run_scenario(dataclasses.replace(cfg, uts=solo_uts))
    f_dup = next(m for m in dup.report.per_flow.values() if m["service"] == "URLLC")
    f_solo = next(m for m in solo.report.per_flow.values() if m["service"] == "URLLC")
    assert dup.report.steering_actions.get("configure_dc", 0) >= 1
    assert f_dup["duplicates_dropped"] > 0  # the second copy is really flowing
    # end-to-end loss is a declared reorder gap, not a per-copy transit drop
    assert f_dup["declared_lost"] < f_solo["declared_lost"]
    assert f_dup["delivered_pdus"] > f_solo["delivered_pdus"]


def _two_cell_world(velocity=(0.0, 0.0), flows=None):
    """Two 20-PRB macros 400 m apart, UE ``ua`` homed on ``ca`` and ``ub`` on
    ``cb``, steering off; UE ``ua``'s velocity is the argument. By default
    each UE has one full-buffer eMBB flow; ``flows`` replaces them."""
    flow = {"kind": "full_buffer", "packet_bits": 1500, "watermark_bits": 6000}
    if flows is None:
        flows = [
            {"id": "fa", "ue": "ua", "service": "eMBB", "generator": flow},
            {"id": "fb", "ue": "ub", "service": "eMBB", "generator": flow},
        ]
    cfg = scenario_from_dict(
        {
            "name": "two_macros",
            "sim": {"horizon_slots": 100, "seed": 3},
            "network": {
                "cells": [
                    {"id": "ca", "prbs_per_slot": 20, "position": [0.0, 0.0]},
                    {"id": "cb", "prbs_per_slot": 20, "position": [400.0, 0.0]},
                ]
            },
            "ues": [
                {
                    "id": "ua",
                    "position": [50.0, 10.0],
                    "velocity": list(velocity),
                    "serving_cell": "ca",
                },
                {"id": "ub", "position": [350.0, -5.0], "serving_cell": "cb"},
            ],
            "traffic": {"flows": flows},
            "mac": {"epoch_slots": 10},
            "uts": {"features": []},
        }
    )
    return World(cfg)


def _capture_mac_results(world):
    """Record every MacSlotResult of the world's MACs, per cell."""
    seen = {cid: [] for cid in world.cells}
    for cid, cr in world.cells.items():
        run = cr.mac.run_slot

        def recording(*args, _run=run, _cid=cid):
            res = _run(*args)
            seen[_cid].append(res)
            return res

        cr.mac.run_slot = recording
    return seen


def test_load_balance_switch_reads_the_mac_load_of_its_latest_refresh():
    """A load-balance flow's switch sees the load its MAC computed at the
    last partition refresh, not a copy of it taken a slot earlier: ``ca``
    refreshes at slot 0 under the full buffer, so slot 1 leaves it."""
    gen = {"kind": "full_buffer", "packet_bits": 1500, "watermark_bits": 400_000}
    w = _two_cell_world(flows=[{"id": "fl", "ue": "ua", "service": "legacy_MBB", "generator": gen}])
    w.apply_configure_dc("ua", "ca", "cb")
    state = w.flows["fl"].state
    assert state.mode is pdcp.Mode.LOAD_BALANCE
    w.step_slot()
    w.step_slot()
    assert state.legs[state.active_leg].cell_id == "cb"
    assert state.sent_pdus.get("cb", 0) > 0
    assert w.cells["ca"].mac.load.value == 1.0


@pytest.mark.parametrize(
    "moves, count",
    [
        ([(0, "cb"), (5, "ca")], 1),
        ([(0, "cb"), (1000, "ca")], 1),
        ([(0, "cb"), (1001, "ca")], 0),
        ([(3, "cb"), (8, "ca"), (13, "cb")], 2),
    ],
)
def test_pingpong_counts_a_return_to_the_cell_left_within_the_window(moves, count):
    """A ping-pong is a handover back to the cell the UE left, at most
    hysteresis x steering-epoch slots (10 x 100 here) after leaving it; the
    initial attach counts as the cell left by the first handover."""
    w = _two_cell_world()
    assert w.config.uts.hysteresis_epochs * w.config.uts.epoch_slots == 1000
    for slot, target in moves:
        while w.slot < slot:
            w.step_slot()
        w.apply_handover("ua", target)
    assert w.build_report().pingpong_count == count


def test_mid_epoch_handover_moves_grants_on_the_next_slot():
    w = _two_cell_world()
    for _ in range(4):  # into the middle of the first MAC epoch
        w.step_slot()
    seen = _capture_mac_results(w)
    w.step_slot()
    owners = {cid: {b[2] for b in r[-1].alloc.blocks()} for cid, r in seen.items()}
    assert owners == {"ca": {"ua"}, "cb": {"ub"}}

    assert w.ues["ua"].serving == "ca"
    w.apply_handover("ua", "cb")
    w.step_slot()
    assert w.slot % w.config.mac.epoch_slots != 0  # still mid-epoch
    ca, cb = seen["ca"][-1], seen["cb"][-1]
    assert not [b for b in ca.alloc.blocks() if b[2] == "ua"]
    assert [b for b in cb.alloc.blocks() if b[2] == "ua"]
    assert cb.served_bits.get("fa", 0.0) > 0.0 and "fa" not in ca.served_bits


def test_mid_epoch_urllc_handover_moves_the_reservation_at_the_next_epoch():
    gen = {"kind": "periodic_deadline", "period_slots": 2, "packet_bits": 2000}
    w = _two_cell_world(flows=[{"id": "fu", "ue": "ua", "service": "URLLC", "generator": gen}])
    epoch = w.config.mac.epoch_slots
    for _ in range(4):  # into the middle of the first MAC epoch
        w.step_slot()
    seen = _capture_mac_results(w)
    assert w.ues["ua"].serving == "ca"
    w.apply_handover("ua", "cb")
    while w.slot < 3 * epoch:
        w.step_slot()

    def urllc_blocks(res):
        return [b for b in res.alloc.blocks() if b[2] == "ua"]

    assert not [b for r in seen["ca"] for b in urllc_blocks(r)]
    granted = {r.alloc.slot: urllc_blocks(r) for r in seen["cb"] if urllc_blocks(r)}
    assert list(granted) == list(range(epoch, 3 * epoch, 2))  # due slots, next epoch on
    a, b = w.cells["cb"].mac._sps_columns["fu"]
    assert all(g == [(a, b, "ua", "URLLC")] for g in granted.values())


def test_a_handover_mid_packet_re_sends_the_head_and_the_ledger_counts_it():
    """A handover while a head packet is partly sent moves the packet whole
    to the target, which sends all of it again. The sent part is counted as
    re-sent, so both halves of every flow's ledger balance after each slot."""
    big = {"kind": "full_buffer", "packet_bits": 40_000, "watermark_bits": 160_000}
    w = _two_cell_world(flows=[
        {"id": f, "ue": u, "service": "eMBB", "generator": big} for f, u in (("fa", "ua"), ("fb", "ub"))
    ])
    fr = w.flows["fa"]
    while w.slot < 5 or not fr.state.legs[0].head_sent_bits:
        assert w.slot < 50, "no partly sent head packet to hand over"
        w.step_slot()
    sent = fr.state.legs[0].head_sent_bits
    assert w.slot % w.config.mac.epoch_slots and 0.0 < sent < 40_000.0
    w.apply_handover("ua", "cb")
    (leg,) = fr.state.legs
    assert leg.cell_id == "cb" and leg.head_sent_bits == 0.0
    assert fr.resent_bits == sent
    for _ in range(3 * w.config.mac.epoch_slots):
        w.step_slot()
        for f in w.flows.values():
            (arrived, held), (served, accounted) = _ledger(w, f)
            assert arrived == held and served == accounted, (w.slot, f.cfg.flow_id)
    assert fr.resent_bits == sent and w.flows["fb"].resent_bits == 0.0


def test_fading_rows_cover_the_mac_epoch_across_mid_epoch_handovers(scenarios):
    """Steering every 7 slots against MAC epochs of 10 hands UEs over
    mid-epoch. Every slot's rates equal link_rate at the mean SINR plus the
    fading of that pair and slot from a call of its own; a pair that appears
    mid-span gets its row then; the table only holds the current span's
    rows, each a rate per slot of the span."""
    base = scenarios["two_cell_load_balance"]
    cfg = dataclasses.replace(
        shorten(base, 150), uts=dataclasses.replace(base.uts, epoch_slots=7)
    )
    w = World(cfg, seed=1)
    n = engine.FADING_SPAN_MAX
    assert cfg.uts.epoch_slots % w.config.mac.epoch_slots and cfg.uts.epoch_slots % n
    inputs, handover = w._channel_inputs, w.apply_handover
    late_rows, handovers = [], []

    def recorded(ue_id, target):
        handovers.append(w.slot)
        handover(ue_id, target)

    w.apply_handover = recorded

    def checked():
        before = set(w._rates) if w._rates_span == w.slot // n else set()
        out = inputs()
        assert w._rates_span == w.slot // n
        if w.slot % n:
            late_rows.extend(set(w._rates) - before)
        assert all(len(row) == n for row in w._rates.values())
        for cr, slot_inputs in out:
            for (uid, pk), rate in slot_inputs.per_prb_bits.items():
                rt = w.ues[uid]
                fad = chan.fading_db_batch(w.chan, [rt.index], [cr.index], w.slot)[0]
                at = w._position_at(rt, w.slot)
                sinr = chan.mean_sinr_db(w.chan, cr.mac.cell, at) + float(fad)
                eff = cr.mac.portions[pk].waveform_efficiency
                assert rate == link_rate(sinr, eff, cr.mac.cell.grid), (w.slot, uid)
        return out

    w._channel_inputs = checked
    w.run()
    assert [s for s in handovers if s % n] and late_rows


@pytest.mark.parametrize("span_max", [1, 3, 64])
def test_the_fading_span_moves_no_output_byte(scenarios, monkeypatch, span_max):
    """Fading is a counter-based hash, so evaluating it 1, 3 or 64 slots at
    a time, against MAC epochs of 10, gives the golden files."""
    monkeypatch.setattr(engine, "FADING_SPAN_MAX", span_max)
    for name in ("two_cell_load_balance", "hetnet_walkthrough"):
        assert _digests(run_scenario(scenarios[name], seed=7)) == _GOLDEN[f"{name}@7"]


def test_fading_memory_does_not_grow_with_the_mac_epoch(scenarios):
    """A MAC epoch of 10**7 slots keeps each pair's fading list at
    FADING_SPAN_MAX entries."""
    base = _short(scenarios, "single_cell", 50)
    cfg = dataclasses.replace(base, mac=dataclasses.replace(base.mac, epoch_slots=10**7))
    w = World(cfg)
    while w.slot < 50:
        w.step_slot()
        assert w._rates and all(len(r) <= engine.FADING_SPAN_MAX for r in w._rates.values())


def _dense_embb_config(seed=1):
    """The benchmark's dense_embb scenario at ``seed``, read from its builder."""
    path = SCENARIO_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(mod)
    return scenario_from_dict(mod.dense_embb_dict(seed))


@pytest.mark.parametrize("seed", [1, 1009])
def test_dense_embb_files_match_the_benchmark_reference_digests(seed):
    """The PF path at scale (200 UEs over 16 cells, which the goldens' few
    UEs do not reach): each rendered file's sha256 equals the benchmark's
    stored reference for the seed."""
    refs = json.loads((SCENARIO_DIR.parent / "perfbench" / "reference_digests.json").read_text())
    result = run_scenario(_dense_embb_config(seed), seed=seed)
    texts = {
        "metrics.csv": render_csv(result.rows),
        "summary.json": render_summary(result),
        "events.log": render_events(result.events),
    }
    got = {f"dense_embb/{n}": hashlib.sha256(t.encode()).hexdigest() for n, t in texts.items()}
    assert got == refs["dense_embb"][str(seed)]["files"]


@pytest.mark.parametrize(
    "name", [*sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")), "dense_embb"]
)
def test_context_descriptors_and_mac_backlogs_read_their_owners(scenarios, name):
    """At every steering epoch each cell's descriptor is the one its best
    portion gives, in one mapping built for the run; at every MAC call each
    cell's backlogs are its legs' queued bits."""
    cfg = _dense_embb_config() if name == "dense_embb" else scenarios[name]
    w = World(cfg, seed=1 if name == "dense_embb" else 7)
    best = {cc.cell_id: max(p.waveform_efficiency for p in cc.portions) for cc in cfg.cells}
    context, epochs = w._context, []

    def checked():
        ctx = context()
        assert ctx.cell_descriptors is w._descriptors
        for cid, cr in w.cells.items():
            assert ctx.cell_descriptors[cid] == describe_cell(cr.mac.cell, best[cid])
        epochs.append(w.slot)
        return ctx

    w._context = checked
    calls = 0
    for cid, cr in w.cells.items():
        run = cr.mac.run_slot

        def backlog_checked(slot, inputs, *rngs, _run=run, _cid=cid):
            nonlocal calls
            legs = {
                fid: leg.queue_bits
                for fid, fr in w.flows.items() if fr.state is not None
                for leg in fr.state.legs if leg.cell_id == _cid
            }
            assert inputs.backlog_bits == legs, (slot, _cid)
            calls += 1
            return _run(slot, inputs, *rngs)

        cr.mac.run_slot = backlog_checked
    w.run()
    assert calls == len(w.cells) * cfg.sim.horizon_slots
    if w.controller is not None:
        n = cfg.uts.epoch_slots
        assert epochs == list(range(0, cfg.sim.horizon_slots, n))


def _check_pair_tables(w):
    """Each cell's pair table is its MAC's queue-driven registrations in
    ``mac.flows`` order, each naming the flow's own leg there (by identity),
    its (UE, portion) and its (UE index, cell index)."""
    for cid, cr in w.cells.items():
        queued = [fid for fid in cr.mac.flows if w.flows[fid].state is not None]
        assert list(cr.pairs) == queued, (w.slot, cid)
        for fid, (leg, key, fk) in cr.pairs.items():
            mf = cr.mac.flows[fid]
            assert leg is w.flows[fid].state.leg_by_cell(cid), (w.slot, cid, fid)
            assert key == (mf.ue_id, mf.portion_key)
            assert fk == (w.ues[mf.ue_id].index, cr.index)


@pytest.mark.parametrize(
    "name",
    [*sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")), "dense_embb",
     "hetnet_walkthrough@15", "urllc_duplication@15"],
)
def test_each_pair_table_is_its_macs_queue_driven_registrations_after_every_slot(
    scenarios, name
):
    """After every slot, and after a pickle round trip every 97 slots, each
    cell's pair table is what its MAC registered (``_check_pair_tables``).
    With ``uts.epoch_slots: 15`` legs change mid MAC epoch; there, and on
    dense_embb, the tables do change over the run."""
    base, _, every = name.partition("@")
    cfg = _dense_embb_config() if base == "dense_embb" else scenarios[base]
    if every:
        cfg = dataclasses.replace(cfg, uts=dataclasses.replace(cfg.uts, epoch_slots=int(every)))
    w = World(cfg, seed=1)
    _check_pair_tables(w)
    tables, changes = None, 0
    while w.slot < cfg.sim.horizon_slots:
        w.step_slot()
        _check_pair_tables(w)
        now = [list(cr.pairs) for cr in w.cells.values()]
        changes += tables is not None and now != tables
        tables = now
        if w.slot % 97 == 0:
            w = pickle.loads(pickle.dumps(w))
            _check_pair_tables(w)
    assert changes or not (every or base == "dense_embb")


def test_a_ue_moves_from_its_config_position_at_its_velocity():
    """A UE's position is a function of the slot: where it starts, moved at
    its velocity, so a static UE stays put; a context built at a slot reads
    every signal there."""
    vel = (12.0, -3.0)
    w = _two_cell_world(velocity=vel)
    for _ in range(7):
        w.step_slot()
    ua, ub = w.ues["ua"], w.ues["ub"]
    t = 7 * w.slot_seconds
    assert w._position_at(ua, 0) == ua.cfg.position == (50.0, 10.0)
    assert w._position_at(ua, 7) == (50.0 + vel[0] * t, 10.0 + vel[1] * t)
    assert w._position_at(ub, 7) == w._position_at(ub, 0) == (350.0, -5.0)
    ctx = w._context()
    for uid, rt in w.ues.items():
        at = w._position_at(rt, 7)
        for cid, cr in w.cells.items():
            assert ctx.ue_signal[uid][cid] == signal_db(chan.rsrp_dbm(w.chan, cr.mac.cell, at))


_coord = st.floats(-2000.0, 2000.0, allow_nan=False)


@settings(max_examples=200)
@given(
    cells=st.lists(
        st.tuples(
            _coord,
            _coord,
            st.sampled_from(["macro", "small", "ap"]),
            st.sampled_from([180e3, 360e3, 720e3]),
            st.floats(0.7e9, 6.0e9),
        ),
        min_size=1,
        max_size=4,
    ),
    position=st.tuples(_coord, _coord),
    velocity=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
    margin=st.floats(-10.0, 20.0, allow_nan=False),
    slot=st.integers(1, 5000),
)
def test_a_slot_rate_and_an_rsrp_read_are_their_exact_values_bit_for_bit(
    cells, position, velocity, margin, slot
):
    """At the first slot and at a random later one (a new rate span): the
    UE is where its velocity takes it, every signal a context reads is
    ``rsrp_dbm`` there and kept by its row, and its serving pair's rate is
    ``link_rate`` at the mean SINR there plus the pair's fading."""
    cfg = scenario_from_dict(
        {
            "name": "sinr",
            "channel": {"interference_margin_db": margin},
            "network": {
                "cells": [
                    {"id": f"c{i}", "position": [x, y], "class": k,
                     "prb_bandwidth_hz": bw, "carrier_hz": f}
                    for i, (x, y, k, bw, f) in enumerate(cells)
                ]
            },
            "ues": [{"id": "u", "position": list(position), "velocity": list(velocity)}],
            "traffic": {"flows": [{"id": "f", "ue": "u", "service": "eMBB"}]},
        }
    )
    w = World(cfg)

    def check_every_cell():
        rt = w.ues["u"]
        pos = w._position_at(rt, w.slot)
        t = w.slot * w.slot_seconds
        assert pos == (position[0] + velocity[0] * t, position[1] + velocity[1] * t)
        row = w._context().ue_signal["u"]
        for cid, cr in w.cells.items():
            first = row[cid]
            assert first == signal_db(chan.rsrp_dbm(w.chan, cr.mac.cell, pos))
            assert row[cid] is first  # kept by the row
        cr = w.cells[rt.serving]
        ((cell, inputs),) = [(c, i) for c, i in w._channel_inputs() if i.per_prb_bits]
        (((_, pk), rate),) = inputs.per_prb_bits.items()
        fading = chan.fading_db_batch(w.chan, [0], [cr.index], w.slot)[0]
        sinr = chan.mean_sinr_db(w.chan, cr.mac.cell, pos) + float(fading)
        eff = cr.mac.portions[pk].waveform_efficiency
        assert cell is cr and rate == link_rate(sinr, eff, cr.mac.cell.grid)

    check_every_cell()
    w.slot = slot
    check_every_cell()


_cell_draw = st.tuples(
    _coord,
    _coord,
    st.sampled_from(["macro", "small", "ap"]),
    st.floats(0.7e9, 6.0e9),
    st.floats(20.0, 46.0),
)


@st.composite
def _ue_positions(draw, cells):
    """UE positions anywhere in the cells' area, far outside it, and inside
    the minimum distance of a cell."""
    near = st.sampled_from(cells).flatmap(
        lambda c: st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)).map(
            lambda d: (c[0] + d[0], c[1] + d[1])
        )
    )
    far = st.tuples(st.floats(-5e4, 5e4), st.floats(-5e4, 5e4))
    return draw(st.lists(st.one_of(st.tuples(_coord, _coord), far, near), min_size=1, max_size=6))


@settings(max_examples=200)
@given(
    cells=st.lists(_cell_draw, min_size=1, max_size=5),
    data=st.data(),
    min_distance=st.sampled_from([0.5, 1.0, 10.0]),
)
def test_signal_estimate_lies_within_its_tolerance_of_every_exact_signal(
    cells, data, min_distance
):
    positions = data.draw(_ue_positions(cells))
    cfg = scenario_from_dict(
        {
            "name": "estimate",
            "channel": {"min_distance_m": min_distance},
            "network": {
                "cells": [
                    {"id": f"c{i}", "position": [x, y], "class": k, "carrier_hz": f,
                     "tx_power_dbm": p}
                    for i, (x, y, k, f, p) in enumerate(cells)
                ]
            },
            "ues": [{"id": f"u{i}", "position": list(pos)} for i, pos in enumerate(positions)],
        }
    )
    w = World(cfg)
    ctx = w._context()
    ues, cids = sorted(w.ues), sorted(w.cells)
    est = ctx.signal_estimate(ues, cids)
    assert est.shape == (len(ues), len(cids))
    for i, uid in enumerate(ues):
        for j, cid in enumerate(cids):
            exact = ctx.ue_signal[uid][cid].value
            at = w._position_at(w.ues[uid], w.slot)
            assert exact == signal_db(chan.rsrp_dbm(w.chan, w.cells[cid].mac.cell, at)).value
            assert abs(est[i, j] - exact) <= chan.SIGNAL_ESTIMATE_TOL_DB


@settings(max_examples=100)
@given(
    cells=st.lists(_cell_draw, min_size=1, max_size=4),
    lte_only=st.lists(st.booleans(), min_size=8, max_size=8),
    ues=st.lists(
        st.tuples(st.floats(-2000.0, 2000.0), st.sampled_from([("nr",), ("lte", "nr"), ("lte",)])),
        min_size=1,
        max_size=6,
    ),
    ids=st.permutations(range(8)),
    offsets=st.lists(st.one_of(st.just(0.0), st.floats(-0.99, 0.99)), min_size=48, max_size=48),
)
def test_best_cell_is_the_full_scan_winner_and_a_tie_goes_to_the_lowest_id(
    cells, lte_only, ues, ids, offsets
):
    """Each drawn cell has a mirror image across x = 0 with the same radio;
    a UE on that axis sees both at the same RSRP. Cell ids are drawn so the
    lower id is either of the two, and some cells serve LTE UEs only. The
    estimate is moved by ``offsets`` (in units of the tolerance), as far as
    its bound lets it lie."""
    specs = []
    for i, (x, y, k, f, p) in enumerate(cells):
        for j, mx in enumerate((x, -x)):
            n = 2 * i + j
            spec = {"id": f"c{ids[n]}", "position": [mx, y], "class": k, "carrier_hz": f,
                    "tx_power_dbm": p}
            if lte_only[n] and n:  # the first cell serves every UE
                spec["portions"] = [{"key": "lte", "required_capability": "lte"}]
            specs.append(spec)
    ue_specs = [
        {"id": f"u{i}", "position": [0.0 if i % 2 else x, x / 3.0], "capabilities": list(caps)}
        for i, (x, caps) in enumerate(ues)
    ]
    cfg = scenario_from_dict(
        {"name": "best_cell", "network": {"cells": specs}, "ues": ue_specs}
    )
    real = chan.rsrp_estimate

    def perturbed(cfg, consts, positions):
        est = real(cfg, consts, positions)
        return est + np.reshape(offsets[: est.size], est.shape) * chan.SIGNAL_ESTIMATE_TOL_DB

    with mock.patch.object(chan, "rsrp_estimate", perturbed):
        w = World(cfg)
    for uid, rt in w.ues.items():
        full = min(
            (-chan.rsrp_dbm(w.chan, w.cells[cid].mac.cell, rt.cfg.position), cid)
            for cid in w._eligible[uid]
        )
        assert rt.serving == full[1]


def test_best_cell_reads_a_tied_cell_that_its_estimate_puts_below_the_best():
    """Mirror-image macros tie at a UE on their axis. An estimate 0.9 of the
    tolerance low for the lower id, and as much high for the other, puts the
    lower id 1.8 tolerances below the best; it is still read, and wins."""
    cfg = scenario_from_dict(
        {
            "name": "tie",
            "network": {"cells": [
                {"id": "cb", "position": [-100.0, 0.0]},
                {"id": "ca", "position": [100.0, 0.0]},
            ]},
            "ues": [{"id": "u", "position": [0.0, 50.0]}],
        }
    )
    real, real_rsrp, reads = chan.rsrp_estimate, chan.rsrp_dbm, {}

    def perturbed(cfg, consts, positions):
        return real(cfg, consts, positions) + np.array([0.9, -0.9]) * chan.SIGNAL_ESTIMATE_TOL_DB

    def recorded(cfg, cell, position):
        reads[cell.cell_id] = real_rsrp(cfg, cell, position)
        return reads[cell.cell_id]

    with mock.patch.object(chan, "rsrp_estimate", perturbed), \
            mock.patch.object(chan, "rsrp_dbm", recorded):
        w = World(cfg)
    assert sorted(reads) == ["ca", "cb"] and reads["ca"] == reads["cb"]
    assert w.ues["u"].serving == "ca"


def _hot_and_cold_world():
    """A full-buffer macro ``ca`` serving six UEs on the line toward an idle
    macro ``cb``, 11 slots in, so ``ca`` is at full load."""
    gen = {"kind": "full_buffer", "packet_bits": 1500, "watermark_bits": 400_000}
    cfg = scenario_from_dict(
        {
            "name": "hot_and_cold",
            "network": {
                "cells": [
                    {"id": "ca", "prbs_per_slot": 20, "position": [0.0, 0.0]},
                    {"id": "cb", "prbs_per_slot": 20, "position": [400.0, 0.0]},
                ]
            },
            "ues": [
                {"id": f"u{i}", "position": [40.0 * (i + 1), 5.0], "serving_cell": "ca"}
                for i in range(6)
            ],
            "traffic": {"flows": [
                {"id": f"f{i}", "ue": f"u{i}", "service": "eMBB", "generator": gen}
                for i in range(6)
            ]},
            "mac": {"epoch_slots": 10},
            "uts": {"features": []},
        }
    )
    w = World(cfg)
    for _ in range(11):
        w.step_slot()
    return w


def test_load_balance_reads_fewer_signals_than_it_has_pairs(monkeypatch):
    calls = []
    real = chan.rsrp_dbm

    def counting(cfg, cell, position):
        calls.append(cell.cell_id)
        return real(cfg, cell, position)

    monkeypatch.setattr(chan, "rsrp_dbm", counting)
    record = builtin_features()[0][0]
    thr = DEFAULT_THRESHOLDS[LOAD_BALANCE_ID]
    results = []
    for estimate in (True, False):
        w = _hot_and_cold_world()
        ctx = w._context()
        assert ctx.cell_load["ca"].value == 1.0 and ctx.cell_load["cb"].value == 0.0
        if not estimate:
            ctx = dataclasses.replace(ctx, signal_estimate=None)
        calls.clear()
        results.append((evaluate_load_balance(ctx, record, thr), len(calls)))
    (with_est, reads), (without, all_reads) = results
    assert with_est == without and [a.ue_id for a in with_est] == ["u5"]  # nearest cb
    assert all_reads == 6 and 0 < reads < all_reads


def test_steering_context_computes_no_rsrp_until_a_feature_reads_it(monkeypatch):
    calls = []
    real = chan.rsrp_dbm

    def counting(cfg, cell, position):
        calls.append(cell.cell_id)
        return real(cfg, cell, position)

    monkeypatch.setattr(chan, "rsrp_dbm", counting)
    w = _two_cell_world(velocity=(12.0, -3.0))  # both serving cells given
    for _ in range(3):
        w.step_slot()
    calls.clear()
    ctx = w._context()
    assert calls == []

    pos = w._position_at(w.ues["ua"], w.slot)
    expected = signal_db(real(w.chan, w.cells["cb"].mac.cell, pos))
    assert ctx.ue_signal["ua"]["cb"] == expected
    assert ctx.ue_signal["ua"].get("cb") == expected
    assert calls == ["cb"]
    # ub is static, yet each context computes a cell once for itself
    ctx.ue_signal["ub"]["cb"]
    ctx.ue_signal["ub"]["cb"]
    assert calls == ["cb", "cb"]
    w._context().ue_signal["ub"]["cb"]
    assert calls == ["cb", "cb", "cb"]
    ctx.ue_signal["ub"]["ca"]
    assert calls == ["cb", "cb", "cb", "ca"]


def test_context_clamps_an_overloaded_cell_at_full_load():
    flow = {"kind": "full_buffer", "packet_bits": 1500, "watermark_bits": 400_000}
    w = _two_cell_world(flows=[{"id": "fa", "ue": "ua", "service": "eMBB", "generator": flow}])
    for _ in range(11):  # past the slot-10 MAC epoch, which sizes demand
        w.step_slot()
    ca, cb = w.cells["ca"], w.cells["cb"]
    assert ca.mac.demand_prbs > ca.mac.cell.grid.prbs_per_slot and cb.mac.demand_prbs == 0
    ctx = w._context()
    assert ctx.cell_load["ca"].kind is MeasureKind.LOAD_FRACTION
    assert ctx.cell_load["ca"].value == 1.0
    assert ctx.cell_load["cb"].value == 0.0


def test_context_static_columns_are_one_read_only_mapping_each():
    w = _two_cell_world()
    first = w._context()
    for _ in range(3):
        w.step_slot()
    second = w._context()
    for name in ("ue_services", "ue_capabilities", "ue_eligible"):
        col = getattr(first, name)
        assert isinstance(col, MappingProxyType) and getattr(second, name) is col
        with pytest.raises(TypeError):
            col["ua"] = col["ub"]
    assert second.ue_serving == {"ua": "ca", "ub": "cb"}
    assert second.ue_serving is not first.ue_serving  # rebuilt each epoch


def test_context_rate_is_the_window_bits_over_its_duration_and_resets():
    w = _two_cell_world()
    for _ in range(30):
        w.step_slot()
    bits = {uid: rt.delivered_window_bits for uid, rt in w.ues.items()}
    assert all(b > 0 for b in bits.values())
    window_s = w.config.uts.epoch_slots * w.slot_seconds
    ctx = w._context()
    assert ctx.ue_rate_bps == {uid: b / window_s for uid, b in bits.items()}
    assert all(rt.delivered_window_bits == 0.0 for rt in w.ues.values())
    assert w._context().ue_rate_bps == {"ua": 0.0, "ub": 0.0}


def test_context_row_built_before_a_move_keeps_its_position():
    """A row of a context built at slot ``s`` and read at once gives the
    signals at ``_position_at(rt, s)`` and keeps them after the UE moves; a
    context built later reads where the UE is then."""
    w = _two_cell_world(velocity=(12.0, -3.0))
    for _ in range(5):
        w.step_slot()
    rt, built = w.ues["ua"], w.slot
    ctx = w._context()
    old = {cid: ctx.ue_signal["ua"][cid] for cid in w.cells}
    for _ in range(3):
        w.step_slot()
    new = w._context().ue_signal["ua"]
    then, here = w._position_at(rt, built), w._position_at(rt, w.slot)
    assert then != here
    for cid, cr in w.cells.items():
        at_build = signal_db(chan.rsrp_dbm(w.chan, cr.mac.cell, then))
        assert old[cid] == ctx.ue_signal["ua"][cid] == at_build
        assert new[cid] == signal_db(chan.rsrp_dbm(w.chan, cr.mac.cell, here)) != at_build


def test_context_row_first_read_after_a_move_reads_the_build_position():
    """A context built at slot ``s`` whose row, and signal estimate, are first
    read slots later give the values at ``_position_at(rt, s)``."""
    w = _two_cell_world(velocity=(12.0, -3.0))
    for _ in range(5):
        w.step_slot()
    rt, built = w.ues["ua"], w.slot
    ctx = w._context()  # no row of it read yet
    for _ in range(3):
        w.step_slot()
    then, here = w._position_at(rt, built), w._position_at(rt, w.slot)
    assert then != here
    row = ctx.ue_signal["ua"]
    for cid, cr in w.cells.items():
        assert row[cid] == signal_db(chan.rsrp_dbm(w.chan, cr.mac.cell, then))
        assert row[cid] != signal_db(chan.rsrp_dbm(w.chan, cr.mac.cell, here))
    est = ctx.signal_estimate(["ua"], ["ca", "cb"])
    assert est.tolist() == (chan.rsrp_estimate(w.chan, w._radio, [then]) - RSRP_FLOOR_DBM).tolist()


def test_signal_row_membership_and_absent_gets_compute_no_rsrp(monkeypatch):
    calls = []
    real = chan.rsrp_dbm

    def counting(cfg, cell, position):
        calls.append(cell.cell_id)
        return real(cfg, cell, position)

    monkeypatch.setattr(chan, "rsrp_dbm", counting)
    w = _two_cell_world(velocity=(12.0, -3.0))
    for _ in range(3):
        w.step_slot()
    calls.clear()
    ctx = w._context()
    row = ctx.ue_signal["ua"]
    assert "ca" in row and "cb" in row and "zz" not in row
    assert "ua" in ctx.ue_signal and "zz" not in ctx.ue_signal
    assert row.get("zz") is None and row.get("zz", 1.0) == 1.0
    assert ctx.ue_signal.get("zz") is None
    assert calls == []
    expected = signal_db(real(w.chan, w.cells["cb"].mac.cell, w._position_at(w.ues["ua"], 3)))
    assert row.get("cb") == expected and calls == ["cb"]
    assert row.get("cb") is row["cb"] and "cb" in row and calls == ["cb"]  # kept


@pytest.mark.parametrize("steering", [True, False])
def test_signals_are_computed_only_at_steering_epochs(monkeypatch, steering):
    """On dense_embb (200 moving UEs, load balancing every 10 slots) every
    ``rsrp_dbm`` call after construction comes at a steering slot; with
    steering off there is none. No position or RSRP is stored."""
    cfg = _dense_embb_config()
    if not steering:
        cfg = dataclasses.replace(cfg, uts=dataclasses.replace(cfg.uts, enabled=False))
    w = World(cfg, seed=1)
    slots, real = [], chan.rsrp_dbm

    def recorded(cfg, cell, position):
        slots.append(w.slot)
        return real(cfg, cell, position)

    monkeypatch.setattr(chan, "rsrp_dbm", recorded)
    w.run()
    assert all(s % cfg.uts.epoch_slots == 0 for s in slots)
    assert bool(slots) == steering
    assert not hasattr(w, "_rsrp_cache")
    assert "position" not in {f.name for f in dataclasses.fields(engine.UeRuntime)}


def _digests(result) -> dict[str, str]:
    texts = {
        "metrics.csv": render_csv(result.rows),
        "summary.json": render_summary(result),
        "events.log": render_events(result.events),
    }
    return {n: hashlib.sha256(t.encode()).hexdigest() for n, t in texts.items()}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "name", [*sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")), "dense_embb"]
)
def test_dropping_caches_at_random_slots_keeps_every_output_byte(scenarios, name, seed):
    """The span's rate table and each MAC's refresh shape and plan memo are
    caches: dropping them all before a random tenth of the slots gives the
    straight run's files."""
    cfg = _dense_embb_config() if name == "dense_embb" else scenarios[name]
    straight = _digests(run_scenario(cfg, seed=seed))
    w = World(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    drops = 0
    while w.slot < cfg.sim.horizon_slots:
        if rng.random() < 0.1:
            drops += 1
            w._rates_span = -1
            for cr in w.cells.values():
                cr.mac._shape = cr.mac._memo = None
        w.step_slot()
    assert drops and _digests(w.run()) == straight


_GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "digests.json").read_text())


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_a_pickled_world_resumes_to_the_golden_files(scenarios, name, seed):
    """A World pickled mid MAC epoch (slot H/2 + 3), resumed, run on to the
    next steering slot and pickled again there resumes to the golden files.
    Its read-only tables stay read-only views."""
    cfg = scenarios[name]
    mid = cfg.sim.horizon_slots // 2 + 3
    assert mid % cfg.mac.epoch_slots
    w = World(cfg, seed=seed)
    for cut in (mid, -(-mid // cfg.uts.epoch_slots) * cfg.uts.epoch_slots):
        while w.slot < cut:
            w.step_slot()
        w = pickle.loads(pickle.dumps(w))
    assert all(isinstance(getattr(w, k), MappingProxyType) for k in World._VIEWS)
    assert _digests(w.run()) == _GOLDEN[f"{name}@{seed}"]


def test_a_world_of_moving_ues_pickled_off_every_epoch_resumes_to_the_reference():
    """dense_embb at seed 1, whose UEs all move, pickled at slot 103 (off the
    steering and the MAC epoch) and resumed, gives the benchmark's stored
    reference files."""
    cfg = _dense_embb_config(1)
    assert 103 % cfg.uts.epoch_slots and 103 % cfg.mac.epoch_slots
    assert all(any(uc.velocity) for uc in cfg.ues)
    w = World(cfg, seed=1)
    while w.slot < 103:
        w.step_slot()
    w = pickle.loads(pickle.dumps(w))
    refs = json.loads((SCENARIO_DIR.parent / "perfbench" / "reference_digests.json").read_text())
    got = {f"dense_embb/{n}": d for n, d in _digests(w.run()).items()}
    assert got == refs["dense_embb"]["1"]["files"]


def _golden_runs(scenarios) -> dict:
    """Every golden (scenario, seed) run's digests, by its golden key."""
    runs = (key.split("@") for key in _GOLDEN)
    return {f"{n}@{s}": _digests(run_scenario(scenarios[n], seed=int(s))) for n, s in runs}


@pytest.mark.parametrize("offset", [0.9, -0.9])
def test_the_golden_files_hold_with_the_signal_estimate_anywhere_in_its_tolerance(
    scenarios, offset
):
    """The rate blocks' signal estimate (and steering's) only rules values
    in or out: moved by 0.9 of its tolerance either way, every golden file
    is the same."""
    real = chan.rsrp_estimate

    def perturbed(cfg, consts, positions):
        return real(cfg, consts, positions) + offset * chan.SIGNAL_ESTIMATE_TOL_DB

    with mock.patch.object(chan, "rsrp_estimate", perturbed):
        assert _golden_runs(scenarios) == _GOLDEN


def test_the_golden_files_hold_with_every_rate_from_the_exact_path(scenarios, monkeypatch):
    """A tolerance of 1000 dB puts every entry of every rate block within its
    margin of a whole bit and none surely at the cap, so each one takes
    ``link_rate`` at its exact SINR; every golden file is the same."""
    entries, exact = [], []
    fading, rate = chan.fading_db_batch, abstraction.link_rate

    def counted_fading(*args):
        out = fading(*args)
        entries.append(out.size)
        return out

    def counted_rate(*args):
        exact.append(args[0])
        return rate(*args)

    monkeypatch.setattr(chan, "SIGNAL_ESTIMATE_TOL_DB", 1e3)
    monkeypatch.setattr(chan, "fading_db_batch", counted_fading)
    monkeypatch.setattr(abstraction, "link_rate", counted_rate)
    assert _golden_runs(scenarios) == _GOLDEN
    assert len(exact) >= sum(entries) > 0


#: (scenario, seed) -> sha256 of metrics.csv, summary.json and events.log with
#: steering every 15 slots, so flows register and leave mid MAC epoch
_MID_EPOCH_DIGESTS = {
    ("urllc_duplication", 1): (
        "cc3301b18829c3248890a0660d917aff7db2f4cb966bf5ebc4f0879d8b264a58",
        "df97e655e61b4e9c86c1b6bcab68875e189c6de6b3aa5c0d0abb6f2489ca4413",
        "bd9b1fff15b97fa610ea36743e45cbc9169950e966b21f49818a71cf355ba185",
    ),
    ("urllc_duplication", 7): (
        "95f41900985a31ae506a2ee837ee2992a7eb098f7e6742dd251da1a98da9758b",
        "0a95adc72b1170f2b43451e73b311f863d4d6702aa1bc784431757f884b647d7",
        "ffbb23fcd8ea8e70363274104452810bf3f097e7d5a5ccad9411bda1c2955133",
    ),
    ("hetnet_walkthrough", 1): (
        "e62bab0de8b8e6c67307b0e6454e8ba56a3252faeaab90959c4e218ea65540bb",
        "c4917b9b29a9146b7795567e33a91d26226dadb82c87308aec3c7e9a7cbb52fb",
        "25b240f2bff2f2635c6b238fb1da816293c36b507b9b0499a47a83f12b0a934c",
    ),
    ("hetnet_walkthrough", 7): (
        "817d296493346738137542d2450a40991a37dc0793bc5c23d509907126ca051c",
        "52b0547bc081d335d3dfabcccd05b68ddcf55caee2e10ffcf22c26a7d474d1cd",
        "e0ef83c27efcd2d47625be2d285762cf30c4ec7ea6840780fea75679c710665c",
    ),
}


@pytest.mark.parametrize("name, seed", sorted(_MID_EPOCH_DIGESTS))
def test_steering_off_the_mac_epoch_keeps_its_pinned_outputs(scenarios, name, seed):
    """With ``uts.epoch_slots: 15`` against a 10-slot MAC epoch, legs are
    added and released between partition refreshes, which no shipped file
    does; the three files keep the digests pinned here."""
    cfg = scenarios[name]
    cfg = dataclasses.replace(cfg, uts=dataclasses.replace(cfg.uts, epoch_slots=15))
    result = run_scenario(cfg, seed=seed)
    off_epoch = [
        e for e in result.events
        if e.subsystem == "uts" and e.slot % cfg.mac.epoch_slots
    ]
    assert len(off_epoch) >= 20
    digests = _digests(result)
    assert tuple(digests[n] for n in ("metrics.csv", "summary.json", "events.log")) == (
        _MID_EPOCH_DIGESTS[name, seed]
    )


def test_eligibility_built_at_init_matches_a_portion_scan(scenarios):
    w = World(scenarios["hetnet_walkthrough"])

    def scan(uc, cell_id):  # the per-UE, per-cell scan eligibility used to be
        best = None
        for p in w.cells[cell_id].mac.portions.values():
            if p.required_capability is None or p.required_capability in uc.capabilities:
                if best is None or p.waveform_efficiency > best.waveform_efficiency:
                    best = p
        return best

    ctx = w._context()
    eligible = {}
    for uid, rt in w.ues.items():
        eligible[uid] = tuple(cid for cid in w.cells if scan(rt.cfg, cid) is not None)
        assert ctx.ue_eligible[uid] == eligible[uid]
        assert ctx.ue_capabilities[uid] == frozenset(rt.cfg.capabilities)
        for cid in w.cells:
            assert w._portion_for(uid, cid) == scan(rt.cfg, cid)
            assert (w._portion_for(uid, cid) is not None) == (cid in ctx.ue_eligible[uid])
    assert len(set(ctx.ue_capabilities.values())) == 4
    assert eligible["ue-dc"] == ("macro1", "small1")
    assert eligible["ue-legacy"] == ("macro1", "small1")
    assert eligible["ue-wifi"] == ("macro1", "small1", "ap1")
    assert w._portion_for("ue-legacy", "macro1").key == "legacy"
    assert w._portion_for("ue-dc", "macro1").key == "nr"


def test_carrier_aggregation_adds_and_releases_a_secondary_on_a_world():
    """Two 25-PRB cells and one rate-starved eMBB UE between them: carrier
    aggregation adds ``s1`` as a secondary, sheds it when its load passes
    ``release_load``, and adds it back. After each action the flow's legs
    and both MACs' registrations follow the UE's secondary cells."""
    cfg = scenario_from_dict(
        {
            "name": "ca_pair",
            "sim": {"horizon_slots": 3000, "seed": 1},
            "network": {
                "cells": [
                    {"id": "m1", "class": "macro", "prbs_per_slot": 25, "position": [0.0, 0.0]},
                    {"id": "s1", "class": "small", "prbs_per_slot": 25,
                     "carrier_hz": 3.5e9, "position": [60.0, 0.0]},
                ]
            },
            "ues": [{"id": "u1", "position": [30.0, 0.0], "serving_cell": "m1"}],
            "traffic": {
                "flows": [
                    {
                        "id": "f1",
                        "ue": "u1",
                        "service": "eMBB",
                        "generator": {
                            "kind": "poisson_sporadic",
                            "rate_per_slot": 0.5,
                            "packet_bits": 12000,
                        },
                    }
                ]
            },
            "uts": {
                "features": ["carrier_aggregation"],
                "epoch_slots": 50,
                "thresholds": {
                    "carrier_aggregation": {
                        "target_rate_bps": 1e9,
                        "release_load": 0.3,
                        "min_signal_db": 0,
                    }
                },
            },
        }
    )
    w = World(cfg, seed=1)
    seen = []
    while w.slot < cfg.sim.horizon_slots:
        n = len(w.events)
        w.step_slot()
        for e in w.events[n:]:
            if e.subsystem == "uts":
                legs = [leg.cell_id for leg in w.flows["f1"].state.legs]
                macs = {cid: sorted(cr.mac.flows) for cid, cr in w.cells.items()}
                seen.append((e.format(), w.ues["u1"].secondary, legs, macs))

    add = "uts add_leg ue=u1 cell=s1 action=add_secondary_cell feature=carrier_aggregation"
    rel = "uts release_leg ue=u1 cell=s1 action=release_secondary_cell feature=carrier_aggregation"
    both = (("s1",), ["m1", "s1"], {"m1": ["f1"], "s1": ["f1"]})
    home = ((), ["m1"], {"m1": ["f1"], "s1": []})
    assert seen == [
        (f"50 {add}", *both),
        (f"650 {rel}", *home),
        (f"1150 {add}", *both),
        (f"2450 {rel}", *home),
        (f"2950 {add}", *both),
    ]
    assert w.build_report().steering_actions == {
        "add_secondary_cell": 3, "release_secondary_cell": 2
    }
    assert w.ues["u1"].serving == "m1"


def test_offload_onto_a_held_secondary_is_refused_as_already_attached(scenarios):
    """A plugin feature offloads a UE onto the cell it already holds as a
    secondary: the action is refused like add_secondary_cell and
    configure_dc refuse it, and the UE keeps one copy of that cell."""
    from rrmsim.abstraction import FeatureRecord, PluginLocation, PluginRegistry
    from rrmsim.uts import ActionKind, MnoStrategy, SteeringAction, UtsController

    w = World(scenarios["hetnet_walkthrough"])
    w.apply_add_secondary("ue-dc", "small1")
    rec = FeatureRecord("offload_onto_secondary", ("ue_secondary",), ("offload",),
                        PluginLocation.BELOW_UTS, ("none",), ("any",))
    registry = PluginRegistry().register(rec, lambda ctx, r, thr: [
        SteeringAction(ActionKind.OFFLOAD, "ue-dc", ("small1",), r.feature_id)
    ])
    strategy = MnoStrategy(ranking=(rec.feature_id,), time_to_trigger_epochs=1)
    ctx = w._context()
    assert ctx.ue_serving["ue-dc"] != "small1"
    applied, events = UtsController(registry, strategy).step(ctx, w, w.slot)
    assert applied == []
    assert [e.format() for e in events] == [
        "0 uts steer_error ue=ue-dc action=offload targets=small1 reason=already_attached"
    ]
    assert w.ues["ue-dc"].secondary == ("small1",)


def test_every_action_kind_through_a_world(scenarios):
    """A plugin feature proposes each of the six kinds once on the hetnet
    walkthrough, one per steering epoch, with its built-in features off. The
    UE's serving cell and secondaries follow each mutator as documented, the
    leg events are the ones each kind writes, and after every action each
    flow's legs are exactly the cells whose MAC holds it."""
    from rrmsim.abstraction import FeatureRecord, PluginLocation
    from rrmsim.uts import ActionKind as K, SteeringAction

    plan = [
        (K.CONFIGURE_DC, "ue-dc", ("macro1", "small1")),
        (K.RELEASE_LEG, "ue-dc", ("small1",)),
        (K.ADD_SECONDARY_CELL, "ue-wifi", ("small1",)),
        (K.RELEASE_SECONDARY_CELL, "ue-wifi", ("small1",)),
        (K.HANDOVER, "ue-dc", ("small1",)),
        (K.OFFLOAD, "ue-wifi", ("macro1",)),
    ]
    rec = FeatureRecord("every_kind", ("ue_serving",), tuple(k.value for k in K),
                        PluginLocation.BELOW_UTS, ("none",), ("any",))

    def propose(ctx, record, thr):
        if ctx.epoch_index >= len(plan):
            return []
        kind, ue, targets = plan[ctx.epoch_index]
        return [SteeringAction(kind, ue, targets, record.feature_id)]

    base = _short(scenarios, "hetnet_walkthrough", 600)
    uts = dataclasses.replace(base.uts, features=(), ranking=(), hysteresis_epochs=0,
                              time_to_trigger_epochs=1)
    w = World(dataclasses.replace(base, uts=uts), extra_features=[(rec, propose)])
    seen = []
    while w.slot < 600:
        n = len(w.events)
        w.step_slot()
        steered = [e for e in w.events[n:] if e.subsystem == "uts"]
        if not steered:
            continue
        kind = plan[len(seen)][0].value
        assert all(e.get("action") == kind and e.get("feature") == "every_kind" for e in steered)
        for fid, fr in w.flows.items():
            legs = sorted(leg.cell_id for leg in fr.state.legs)
            assert legs == sorted(c for c, cr in w.cells.items() if fid in cr.mac.flows), fid
        seen.append((
            [e.format().split(" action=")[0] for e in steered],
            {u: (w.ues[u].serving, w.ues[u].secondary) for u in ("ue-dc", "ue-wifi")},
            {f: [leg.cell_id for leg in w.flows[f].state.legs] for f in ("f-dc-embb", "f-wifi")},
        ))
    assert seen == [
        (["0 uts reconfigure ue=ue-dc cell=macro1", "0 uts add_leg ue=ue-dc cell=small1"],
         {"ue-dc": ("macro1", ("small1",)), "ue-wifi": ("ap1", ())},
         {"f-dc-embb": ["macro1", "small1"], "f-wifi": ["ap1"]}),
        (["100 uts release_leg ue=ue-dc cell=small1"],
         {"ue-dc": ("macro1", ()), "ue-wifi": ("ap1", ())},
         {"f-dc-embb": ["macro1"], "f-wifi": ["ap1"]}),
        (["200 uts add_leg ue=ue-wifi cell=small1"],
         {"ue-dc": ("macro1", ()), "ue-wifi": ("ap1", ("small1",))},
         {"f-dc-embb": ["macro1"], "f-wifi": ["ap1", "small1"]}),
        (["300 uts release_leg ue=ue-wifi cell=small1"],
         {"ue-dc": ("macro1", ()), "ue-wifi": ("ap1", ())},
         {"f-dc-embb": ["macro1"], "f-wifi": ["ap1"]}),
        (["400 uts release_leg ue=ue-dc cell=macro1", "400 uts add_leg ue=ue-dc cell=small1"],
         {"ue-dc": ("small1", ()), "ue-wifi": ("ap1", ())},
         {"f-dc-embb": ["small1"], "f-wifi": ["ap1"]}),
        (["500 uts release_leg ue=ue-wifi cell=ap1", "500 uts add_leg ue=ue-wifi cell=macro1"],
         {"ue-dc": ("small1", ()), "ue-wifi": ("ap1", ("macro1",))},
         {"f-dc-embb": ["small1"], "f-wifi": ["macro1"]}),
    ]
    assert w.build_report().steering_actions == {k.value: 1 for k in K}


def _attach_world(flows, cells=("ca", "cb")):
    """25-PRB cells 200 m apart in a row, steering off, and one UE ``u`` on
    the first cell with ``flows``: (flow id, service) pairs."""
    gens = {
        "eMBB": {"kind": "full_buffer", "packet_bits": 1500, "watermark_bits": 6000},
        "URLLC": {"kind": "periodic_deadline", "period_slots": 2, "packet_bits": 2000},
    }
    cfg = scenario_from_dict(
        {
            "name": "attach",
            "sim": {"horizon_slots": 100, "seed": 1},
            "network": {
                "cells": [
                    {"id": cid, "prbs_per_slot": 25, "position": [200.0 * i, 0.0]}
                    for i, cid in enumerate(cells)
                ]
            },
            "ues": [{"id": "u", "position": [50.0, 0.0], "serving_cell": cells[0]}],
            "traffic": {
                "flows": [
                    {"id": fid, "ue": "u", "service": svc, "generator": gens[svc]}
                    for fid, svc in flows
                ]
            },
            "uts": {"enabled": False},
        }
    )
    return World(cfg)


def _attachment(w, flow_id):
    """The UE's secondary cells, the flow's leg cells and each MAC's flows."""
    legs = [leg.cell_id for leg in w.flows[flow_id].state.legs]
    return w.ues["u"].secondary, legs, {cid: sorted(cr.mac.flows) for cid, cr in w.cells.items()}


def _fill(leg, *sns):
    for sn in sns:
        leg.enqueue(pdcp.Run(sn=sn, count=1, bits=100.0 + sn, created_slot=0))


def _sns(leg):
    assert leg.queue_bits == sum(r.bits * r.count for r in leg.queue)
    return [sn for r in leg.queue for sn in range(r.sn, r.sn + r.count)]


def test_release_after_offload_keeps_the_flow_on_the_offload_target():
    """The drop keeps a flow's last leg, so a released offload target still
    carries the flow, and adding it back changes no legs."""
    w = _attach_world([("f", "eMBB")])
    on_cb = {"ca": [], "cb": ["f"]}
    w.apply_offload("u", "cb")
    assert _attachment(w, "f") == (("cb",), ["cb"], on_cb)
    leg = w.flows["f"].state.legs[0]
    w.apply_release_secondary("u", "cb")
    assert _attachment(w, "f") == ((), ["cb"], on_cb)
    w.apply_add_secondary("u", "cb")
    assert _attachment(w, "f") == (("cb",), ["cb"], on_cb)
    assert w.flows["f"].state.legs[0] is leg
    assert w.ues["u"].serving == "ca"


def test_handover_onto_a_held_secondary_merges_the_legs():
    w = _attach_world([("f", "eMBB")])
    w.apply_add_secondary("u", "cb")
    state = w.flows["f"].state
    src, dst = state.legs
    _fill(src, 0, 2)
    _fill(dst, 1)
    state.mode, state.active_leg = pdcp.Mode.LOAD_BALANCE, 1
    w.apply_handover("u", "cb")
    assert _attachment(w, "f") == ((), ["cb"], {"ca": [], "cb": ["f"]})
    assert state.legs[0] is dst
    assert _sns(dst) == [1, 0, 2]  # the source queue follows, in order
    assert state.mode is pdcp.Mode.AGGREGATE and state.active_leg == 0


@pytest.mark.parametrize(
    "mode, kept", [(pdcp.Mode.DUPLICATE, [0]), (pdcp.Mode.AGGREGATE, [0, 1, 2])]
)
def test_release_hands_the_queue_to_the_first_leg_left_unless_duplicating(mode, kept):
    w = _attach_world([("f", "eMBB")])
    w.apply_add_secondary("u", "cb")
    state = w.flows["f"].state
    first, dropped = state.legs
    _fill(first, 0)
    _fill(dropped, 1, 2)
    state.mode, state.active_leg = mode, 1
    w.apply_release_secondary("u", "cb")
    assert _attachment(w, "f") == ((), ["ca"], {"ca": ["f"], "cb": []})
    assert _sns(first) == kept
    assert state.mode is pdcp.Mode.AGGREGATE and state.active_leg == 0


def test_configure_dc_brings_an_offloaded_flow_to_the_master_then_adds_the_second():
    w = _attach_world([("fe", "eMBB"), ("fu", "URLLC")], cells=("ca", "cb", "cc"))
    w.apply_offload("u", "cb")
    for fid in ("fe", "fu"):
        _fill(w.flows[fid].state.legs[0], 0, 1)
    w.apply_configure_dc("u", "ca", "cc")
    both = {"ca": ["fe", "fu"], "cb": [], "cc": ["fe", "fu"]}
    for fid, mode in (("fe", pdcp.Mode.AGGREGATE), ("fu", pdcp.Mode.DUPLICATE)):
        state = w.flows[fid].state
        assert _attachment(w, fid) == (("cb", "cc"), ["ca", "cc"], both)
        assert _sns(state.legs[0]) == [0, 1] and _sns(state.legs[1]) == []
        assert state.mode is mode and state.active_leg == 0


def test_configure_dc_duplicates_a_urllc_flow_only_over_two_legs():
    w = _attach_world([("fu", "URLLC")])
    w.apply_configure_dc("u", "ca", "ca")
    state = w.flows["fu"].state
    assert [leg.cell_id for leg in state.legs] == ["ca"]
    assert state.mode is pdcp.Mode.AGGREGATE
    w.apply_configure_dc("u", "ca", "cb")
    assert [leg.cell_id for leg in state.legs] == ["ca", "cb"]
    assert state.mode is pdcp.Mode.DUPLICATE


def test_an_mmtc_handover_carries_the_pending_attempts():
    """A handover re-homes an mMTC flow's registration and the access
    attempts it still has pending, re-keyed to the target's portion."""
    gen = {"kind": "poisson_sporadic", "rate_per_slot": 0.3, "packet_bits": 200}
    cfg = scenario_from_dict(
        {
            "name": "mmtc_pair",
            "sim": {"horizon_slots": 100, "seed": 1},
            "network": {
                "cells": [
                    {"id": "ca", "prbs_per_slot": 20, "position": [0.0, 0.0]},
                    {"id": "cb", "prbs_per_slot": 20, "position": [300.0, 0.0],
                     "portions": [{"key": "nb"}]},
                ]
            },
            "ues": [
                {"id": f"u{i}", "position": [10.0 * i, 5.0], "serving_cell": "ca"}
                for i in range(12)
            ],
            "traffic": {
                "flows": [
                    {"id": f"f{i}", "ue": f"u{i}", "service": "mMTC", "generator": gen}
                    for i in range(12)
                ]
            },
            "uts": {"enabled": False},
        }
    )
    w = World(cfg, seed=1)
    for _ in range(13):
        w.step_slot()

    def pending(cid):
        mac = w.cells[cid].mac
        return [
            (a.flow_id, mac.flows[a.flow_id].portion_key) for a in mac.pending if a.flow_id == "f0"
        ]

    assert (pending("ca"), pending("cb")) == ([("f0", "main")], [])
    attempt = next(a for a in w.cells["ca"].mac.pending if a.flow_id == "f0")
    w.apply_handover("u0", "cb")
    assert (pending("ca"), pending("cb")) == ([], [("f0", "nb")])
    assert w.cells["cb"].mac.pending == [attempt]
    assert "f0" in w.cells["cb"].mac.flows and "f0" not in w.cells["ca"].mac.flows


@pytest.mark.parametrize(
    "params", [{"packet_bits": 1500.5}, {"packet_bits": 0}, {"watermark_bits": 2.0**53}]
)
def test_a_generator_size_that_run_arithmetic_would_round_is_refused(params):
    cfg = scenario_from_dict(
        {
            "name": "bits",
            "network": {"cells": [{"id": "c1", "prbs_per_slot": 10}]},
            "ues": [{"id": "u1", "position": [30.0, 0.0]}],
            "traffic": {"flows": [{"id": "f1", "ue": "u1", "generator": {"kind": "full_buffer"}}]},
        }
    )
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(cfg.flows[0].generator, **params)
    assert [field for field, _ in e.value.failures] == list(params)


def test_a_urllc_reservation_covers_one_of_its_flows_packets():
    # a generator other than periodic_deadline used to be sized as 2000 bits
    cfg = scenario_from_dict(
        {
            "name": "sps",
            "network": {"cells": [{"id": "c1", "prbs_per_slot": 50}]},
            "ues": [{"id": "u1", "position": [30.0, 0.0]}],
            "traffic": {"flows": [{
                "id": "f1", "ue": "u1", "service": "URLLC", "sps_period_slots": 5,
                "generator": {"kind": "full_buffer", "packet_bits": 6000},
            }]},
        }
    )
    mac = World(cfg).cells["c1"].mac
    rate = mac.reference_per_prb_bits("main")
    assert mac.flows["f1"].sps_prbs == -(-6000 // rate) == 10


@pytest.mark.parametrize("mu", range(5))
def test_the_slot_clock_is_the_grid_slot_and_a_power_of_two_in_ms(mu):
    # latency sums times slot_ms are exact only if slot_ms is a power of two
    cfg = scenario_from_dict(
        {
            "name": "clock",
            "network": {"cells": [{"id": "c1", "prbs_per_slot": 10, "numerology": mu}]},
            "ues": [{"id": "u1", "position": [30.0, 0.0]}],
        }
    )
    w = World(cfg)
    assert w.slot_seconds == w.cells["c1"].mac.cell.grid.slot_seconds
    assert w.slot_ms == w.slot_seconds * 1e3 == 2.0**-mu


@pytest.mark.parametrize(
    "name, slots, fallback",
    [("two_cell_load_balance", 400, False), ("urllc_duplication", None, True),
     ("hetnet_walkthrough", None, True)],
)
def test_each_scenario_takes_the_transport_path_its_flows_need(scenarios, name, slots, fallback):
    """One-leg flows and in-order runs are booked in the slot loop; two or
    more legs, gaps, duplicates and losses still go through the pdcp rules.
    Call counts are deterministic, so this holds on any host."""
    cfg = scenarios[name] if slots is None else _short(scenarios, name, slots)
    with mock.patch.object(pdcp, "route_packet", wraps=pdcp.route_packet) as route, \
            mock.patch.object(pdcp, "reorder_deliver", wraps=pdcp.reorder_deliver) as deliver, \
            mock.patch.object(pdcp, "reorder_tick", wraps=pdcp.reorder_tick) as tick:
        res = run_scenario(cfg, seed=1)
    calls = route.call_count, deliver.call_count, tick.call_count
    if fallback:
        assert route.call_count > 0 and deliver.call_count > 0, calls
    else:
        # three load-balance handovers move queued runs, still in order
        assert sum(e.kind == "add_leg" for e in res.events) == 3
        assert calls == (0, 0, 0)


@pytest.mark.parametrize(
    "name, seed, refreshes, most",
    [("two_cell_load_balance", None, 520, 10), ("dense_embb", 1, 320, 110)],
)
def test_a_refresh_whose_inputs_have_not_changed_reuses_the_last_plan(
    scenarios, name, seed, refreshes, most
):
    """Most MAC-epoch refreshes find the leaf demands, the ready access PRBs
    and the flows as the cell's last refresh left them, and reuse its plan.
    Every refresh writes one partition event per portion, and, in these
    one-portion unsliced cells, one planned from scratch makes one
    ``partition_resources`` call. Call counts are deterministic, so this
    holds on any host."""
    cfg = _dense_embb_config(seed) if name == "dense_embb" else scenarios[name]
    assert all(len(c.portions) == 1 for c in cfg.cells)
    real = mac_layer.partition_resources
    with mock.patch.object(mac_layer, "partition_resources", wraps=real) as planned:
        res = run_scenario(cfg, seed=seed)
    assert sum(e.kind == "partition" for e in res.events) == refreshes
    assert all(e.get("level") == "portion" for e in res.events if e.kind == "partition")
    assert 0 < planned.call_count <= most
