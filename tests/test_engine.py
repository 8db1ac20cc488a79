"""Whole-world runs: determinism, conservation, stage discipline."""

import dataclasses
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import channel as chan
from rrmsim import pdcp
from rrmsim.abstraction import MeasureKind, link_rate, signal_db
from rrmsim.cli import render_csv, render_events, render_summary
from rrmsim.core import TrafficClass
from rrmsim.engine import World, run_scenario
from rrmsim.scenario import scenario_from_dict

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
    pkt = {f.flow_id: f.generator_params.get("packet_bits", 0.0) for f in cfg.flows}
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
    late_or_lost = (fr.rx.duplicates_dropped + fr.lost_in_transit) * fr.generator.packet_bits
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
    that ever duplicates is left out: its copies count twice."""
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
    report = w.run().report
    late = sum(n for lat, n in w.flows["f1"].latency_counts.items() if lat > 1)
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
        ("mobility", "_refresh_positions"),
        ("arrivals", "_arrivals"),
        ("steering", "_steering"),
        ("legs", "_refresh_legs"),
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
    granted = {r.slot: urllc_blocks(r) for r in seen["cb"] if urllc_blocks(r)}
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
    mid-epoch gets its row then; the table only holds the current MAC
    epoch's rows."""
    base = scenarios["two_cell_load_balance"]
    cfg = dataclasses.replace(
        shorten(base, 150), uts=dataclasses.replace(base.uts, epoch_slots=7)
    )
    w = World(cfg, seed=1)
    n = w.config.mac.epoch_slots
    assert cfg.uts.epoch_slots % n
    inputs = w._channel_inputs
    late_rows = []

    def checked():
        before = set(w._fading) if w._fading_epoch == w.slot // n else set()
        out = inputs()
        assert w._fading_epoch == w.slot // n
        if w.slot % n:
            late_rows.extend(set(w._fading) - before)
        first = w.slot - w.slot % n
        slots = np.arange(first, first + n)
        for (ui, ci), row in w._fading.items():
            assert row == chan.fading_db_batch(w.chan, [ui], [ci], slots).tolist()
        for cr, _legs, rates in out:
            for (uid, pk), rate in rates.items():
                rt = w.ues[uid]
                fad = chan.fading_db_batch(w.chan, [rt.index], [cr.index], w.slot)[0]
                sinr = chan.mean_sinr_db(w.chan, cr.cell, rt.ue.position) + float(fad)
                eff = cr.portion_by_key[pk].waveform_efficiency
                assert rate == link_rate(sinr, 1, eff, cr.cell.grid), (w.slot, uid)
        return out

    w._channel_inputs = checked
    w.run()
    mid_epoch = [s for trace in w.serving_trace.values() for s, _ in trace[1:] if s % n]
    assert mid_epoch and late_rows


def test_mobility_moves_from_config_position_and_keeps_other_caches():
    vel = (12.0, -3.0)
    w = _two_cell_world(velocity=vel)
    for _ in range(7):
        w.step_slot()
    static_rsrp, static_sinr = w._rsrp_cache["ub"], w._sinr_cache["ub"]
    rsrp_before, sinr_before = dict(static_rsrp), dict(static_sinr)
    assert rsrp_before and sinr_before
    assert w._rsrp_cache["ua"] and w._sinr_cache["ua"]

    w._refresh_positions()  # the mobility stage for slot 7
    t = 7 * w.slot_seconds
    assert w.ues["ua"].ue.position == (50.0 + vel[0] * t, 10.0 + vel[1] * t)
    assert w.ues["ub"].ue.position == (350.0, -5.0)
    assert "ua" not in w._rsrp_cache and "ua" not in w._sinr_cache
    assert w._rsrp_cache["ub"] is static_rsrp and static_rsrp == rsrp_before
    assert w._sinr_cache["ub"] is static_sinr and static_sinr == sinr_before


_coord = st.floats(-2000.0, 2000.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
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
def test_mean_sinr_reads_through_the_rsrp_cache_bit_for_bit(
    cells, position, velocity, margin, slot
):
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
        }
    )
    w = World(cfg)

    def check_every_cell():
        pos = w.ues["u"].ue.position
        for cid, cr in w.cells.items():
            first = w._mean_sinr("u", cid)
            assert first == chan.mean_sinr_db(w.chan, cr.cell, pos)
            assert w._rsrp_cache["u"][cid] == chan.rsrp_dbm(w.chan, cr.cell, pos)
            assert w._mean_sinr("u", cid) == first  # a cache hit

    check_every_cell()
    w.slot = slot
    w._refresh_positions()
    check_every_cell()


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
    w._refresh_positions()  # ua moves and drops its cache
    calls.clear()
    ctx = w._context()
    assert calls == []

    pos = w.ues["ua"].ue.position
    expected = signal_db(real(w.chan, w.cells["cb"].cell, pos))
    assert ctx.ue_signal["ua"]["cb"] == expected
    assert ctx.ue_signal["ua"].get("cb") == expected
    assert calls == ["cb"]
    # ub is static: the MAC's SINR for its serving cell already read cb
    ctx.ue_signal["ub"]["cb"]
    assert calls == ["cb"]
    ctx.ue_signal["ub"]["ca"]
    assert calls == ["cb", "ca"]


def test_context_clamps_an_overloaded_cell_at_full_load():
    flow = {"kind": "full_buffer", "packet_bits": 1500, "watermark_bits": 400_000}
    w = _two_cell_world(flows=[{"id": "fa", "ue": "ua", "service": "eMBB", "generator": flow}])
    for _ in range(11):  # past the slot-10 MAC epoch, which sizes demand
        w.step_slot()
    ca, cb = w.cells["ca"], w.cells["cb"]
    assert ca.mac.demand_prbs > ca.cell.grid.prbs_per_slot and cb.mac.demand_prbs == 0
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
    w = _two_cell_world(velocity=(12.0, -3.0))
    for _ in range(5):
        w.step_slot()
    before_pos = w.ues["ua"].ue.position
    old = w._context().ue_signal["ua"]
    w._refresh_positions()  # ua moves and drops its cache
    after_pos = w.ues["ua"].ue.position
    assert after_pos != before_pos
    new = w._context().ue_signal["ua"]
    for cid, cr in w.cells.items():
        assert old[cid] == signal_db(chan.rsrp_dbm(w.chan, cr.cell, before_pos))
        assert new[cid] == signal_db(chan.rsrp_dbm(w.chan, cr.cell, after_pos))
        assert old[cid] != new[cid]
    # only the new row's reads landed in the UE's cache
    assert w._rsrp_cache["ua"] == {
        cid: chan.rsrp_dbm(w.chan, cr.cell, after_pos) for cid, cr in w.cells.items()
    }


def test_eligibility_built_at_init_matches_a_portion_scan(scenarios):
    w = World(scenarios["hetnet_walkthrough"])

    def scan(ue, cell_id):  # the per-UE, per-cell scan eligibility used to be
        best = None
        for p in w.cells[cell_id].portions:
            if p.required_capability is None or p.required_capability in ue.capabilities:
                if best is None or p.waveform_efficiency > best.waveform_efficiency:
                    best = p
        return best

    ctx = w._context()
    eligible = {}
    for uid, rt in w.ues.items():
        eligible[uid] = tuple(cid for cid in w.cells if scan(rt.ue, cid) is not None)
        assert ctx.ue_eligible[uid] == eligible[uid]
        for cid in w.cells:
            assert w._portion_for(rt.ue, cid) == scan(rt.ue, cid)
            assert (w._portion_for(rt.ue, cid) is not None) == (cid in ctx.ue_eligible[uid])
    assert len({rt.ue.capabilities for rt in w.ues.values()}) == 4
    assert eligible["ue-dc"] == ("macro1", "small1")
    assert eligible["ue-legacy"] == ("macro1", "small1")
    assert eligible["ue-wifi"] == ("macro1", "small1", "ap1")
    assert w._portion_for(w.ues["ue-legacy"].ue, "macro1").key == "legacy"
    assert w._portion_for(w.ues["ue-dc"].ue, "macro1").key == "nr"


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
    assert w.action_counts == {"add_secondary_cell": 3, "release_secondary_cell": 2}
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
        return [(a.flow_id, a.portion_key) for a in w.cells[cid].mac.pending if a.ue_id == "u0"]

    assert (pending("ca"), pending("cb")) == ([("f0", "main")], [])
    attempt = next(a for a in w.cells["ca"].mac.pending if a.ue_id == "u0")
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
    cfg.flows[0].generator_params.update(params)
    with pytest.raises(ValueError, match="f1"):
        World(cfg)
