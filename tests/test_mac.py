"""MAC layer: apportionment, schedulers, contention, and the per-cell coordinator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.core import TrafficClass, validate_allocation_map
from rrmsim.mac import (
    AccessStatus,
    Contender,
    InsufficientResourcesError,
    MacConfig,
    MacFlow,
    MacInstance,
    PfCandidate,
    PortionSpec,
    RACH_KEY,
    ReconfigRequiredError,
    SlotInputs,
    SpsFlow,
    dss_split,
    estimate_demands,
    largest_remainder,
    partition_resources,
    schedule_dynamic,
    schedule_one_shot,
    schedule_semi_persistent,
    sps_place,
)

from conftest import mk_cell, mk_grid


# ---------------------------------------------------------------------------
# largest remainder
# ---------------------------------------------------------------------------

def quota_bounds(demands, total):
    """The defining property: every share sits within one unit of its quota."""
    s = sum(demands)
    return [(total * d // s, -(-total * d // s)) for d in demands]


def test_largest_remainder_examples():
    assert largest_remainder([60, 20, 20], 50) == [30, 10, 10]
    assert largest_remainder([1, 1, 1], 10) == [4, 3, 3]  # leftover to lowest index on ties
    assert largest_remainder([5], 7) == [7]
    assert largest_remainder([3, 0, 3], 10) == [5, 0, 5]


def test_largest_remainder_input_validation():
    with pytest.raises(ValueError):
        largest_remainder([1, 2], -1)
    with pytest.raises(ValueError):
        largest_remainder([1, -2], 5)
    with pytest.raises(ValueError):
        largest_remainder([0, 0], 5)


@given(
    demands=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=8).filter(sum),
    total=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=200, deadline=None)
def test_largest_remainder_satisfies_quota(demands, total):
    out = largest_remainder(demands, total)
    assert sum(out) == total
    for got, (lo, hi) in zip(out, quota_bounds(demands, total)):
        assert lo <= got <= hi
    # zero demand never receives anything
    assert all(g == 0 for g, d in zip(out, demands) if d == 0)


def test_largest_remainder_tie_break_is_positional():
    # equal remainders: the leftover unit lands on the lower index
    assert largest_remainder([1, 1], 3) == [2, 1]
    assert largest_remainder([2, 1, 1], 5) == [3, 1, 1]


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def test_partition_serves_demands_exactly_when_they_fit():
    plan = partition_resources({"a": 30, "b": 10, "c": 10}, 50)
    assert [plan.size(k) for k in ("a", "b", "c")] == [30, 10, 10]
    assert plan.entries == (("a", 0, 30), ("b", 30, 40), ("c", 40, 50))


def test_partition_scales_down_proportionally_when_oversubscribed():
    plan = partition_resources({"a": 60, "b": 20, "c": 20}, 50)
    assert [plan.size(k) for k in ("a", "b", "c")] == [30, 10, 10]
    assert plan.assigned() == 50


def test_partition_minimum_guarantee_floors_idle_keys():
    plan = partition_resources({"a": 0, "b": 0, "c": 10}, 12, min_guarantee=1)
    assert [plan.size(k) for k in ("a", "b", "c")] == [1, 1, 10]


def test_partition_per_key_guarantee_mapping():
    plan = partition_resources({"a": 0, "b": 5}, 10, min_guarantee={"a": 2, "b": 1})
    assert plan.size("a") == 2 and plan.size("b") == 5
    assert plan.assigned() == 7  # no obligation to hand out the slack


def test_partition_raises_when_guarantees_cannot_fit():
    with pytest.raises(InsufficientResourcesError):
        partition_resources({"a": 5, "b": 5}, 1, min_guarantee=1)


def test_partition_intervals_are_contiguous_and_start_anchored():
    plan = partition_resources({"x": 4, "y": 4}, 10, epoch_index=3, start=20)
    assert plan.entries[0][1] == 20
    assert plan.interval("x") == (20, 24) and plan.interval("y") == (24, 28)
    assert plan.keys() == ["x", "y"]
    assert plan.epoch_index == 3


def test_partition_random_properties():
    rng = np.random.default_rng(17)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        demands = {f"k{i}": int(rng.integers(0, 40)) for i in range(n)}
        g = int(rng.integers(0, 3))
        total = int(rng.integers(n * g, 80))
        plan = partition_resources(demands, total, min_guarantee=g)
        sizes = {k: plan.size(k) for k in demands}
        assert all(sizes[k] >= g for k in demands)
        assert plan.assigned() <= total
        want = sum(max(g, d) for k, d in demands.items())
        if want <= total:  # demands fit: everyone gets exactly what they asked
            assert sizes == {k: max(g, d) for k, d in demands.items()}
        else:  # scarce: everything is handed out
            assert plan.assigned() == total


def test_dss_split_examples():
    assert dss_split(0, 40, 100) == (0, 100)
    assert dss_split(40, 0, 100) == (100, 0)
    assert dss_split(20, 60, 100) == (25, 75)
    assert dss_split(0, 0, 100) == (50, 50)
    assert dss_split(0, 0, 101) == (51, 50)
    # a demanding side never starves entirely
    assert dss_split(1, 1000, 10) == (1, 9)
    assert dss_split(1000, 1, 10) == (9, 1)


def test_dss_split_sums_exactly():
    rng = np.random.default_rng(23)
    for _ in range(500):
        da, db = int(rng.integers(0, 200)), int(rng.integers(0, 200))
        total = int(rng.integers(2, 120))
        a, b = dss_split(da, db, total)
        assert a + b == total
        assert a >= 0 and b >= 0
        if da and db:
            assert a >= 1 and b >= 1


def test_dss_split_rejects_impossible_coexistence():
    with pytest.raises(InsufficientResourcesError):
        dss_split(5, 5, 1)


def test_estimate_demands():
    d = estimate_demands({"f1": 1000.0, "f2": 0.0}, per_prb_bits=100.0)
    assert d == {"f1": 10, "f2": 0, RACH_KEY: 0}
    assert estimate_demands({"f": 1001.0}, 100.0)["f"] == 11  # ceil, not round
    assert estimate_demands({}, 100.0, pending_attempts=3, access_cost_prbs=2)[RACH_KEY] == 6
    with pytest.raises(ValueError):
        estimate_demands({"f": 1.0}, 0.0)
    with pytest.raises(ValueError):
        estimate_demands({"f": -1.0}, 10.0)


# ---------------------------------------------------------------------------
# dynamic (proportional-fair) scheduling
# ---------------------------------------------------------------------------

def pf_reference(interval, candidates):
    """Straight-line re-implementation used as the scheduling oracle.

    ``max`` keeps the first maximal element, so iterating candidates in
    ue_id order gives the lowest-id tie-break for free.
    """
    start, stop = interval
    cands = sorted(candidates, key=lambda c: c.ue_id)
    rem = {c.ue_id: c.backlog_bits for c in cands}
    owners, served = [], {c.ue_id: 0.0 for c in cands}
    for _ in range(start, stop):
        live = [c for c in cands if rem[c.ue_id] > 0]
        if not live:
            break
        best = max(live, key=lambda c: c.per_prb_bits / c.avg_bits)
        take = min(best.per_prb_bits, rem[best.ue_id])
        served[best.ue_id] += take
        rem[best.ue_id] -= take
        owners.append(best.ue_id)
    return owners, served


def test_pf_fills_by_rate_over_average():
    cands = [
        PfCandidate("ue-a", per_prb_bits=100.0, backlog_bits=250.0, avg_bits=1.0),
        PfCandidate("ue-b", per_prb_bits=100.0, backlog_bits=1000.0, avg_bits=2.0),
    ]
    grants, served = schedule_dynamic((10, 15), cands)
    assert [g.prb for g in grants] == [10, 11, 12, 13, 14]
    assert [g.owner for g in grants] == ["ue-a", "ue-a", "ue-a", "ue-b", "ue-b"]
    assert served == {"ue-a": 250.0, "ue-b": 200.0}


def test_pf_tie_breaks_to_lowest_ue_id():
    cands = [
        PfCandidate("ue-b", 100.0, 1000.0, 1.0),
        PfCandidate("ue-a", 100.0, 1000.0, 1.0),
    ]
    grants, _ = schedule_dynamic((0, 2), cands)
    assert [g.owner for g in grants] == ["ue-a", "ue-a"]


def test_pf_is_work_conserving():
    cands = [PfCandidate("u1", 50.0, 120.0, 1.0), PfCandidate("u2", 80.0, 0.0, 1.0)]
    grants, served = schedule_dynamic((0, 10), cands)
    # 120 bits at 50/PRB need 3 PRBs; nothing else is backlogged, 7 idle
    assert len(grants) == 3
    assert served == {"u1": 120.0, "u2": 0.0}
    assert schedule_dynamic((0, 5), []) == ([], {})
    assert schedule_dynamic((3, 3), cands) == ([], {})


def test_pf_rejects_duplicate_candidates():
    with pytest.raises(ValueError):
        schedule_dynamic((0, 4), [PfCandidate("u", 1.0, 1.0, 1.0)] * 2)


def test_pf_matches_reference_oracle():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        cands = [
            PfCandidate(
                ue_id=f"ue{i}",
                per_prb_bits=float(rng.integers(1, 400)),
                backlog_bits=float(rng.integers(0, 2500)),
                avg_bits=float(rng.uniform(0.5, 50.0)),
            )
            for i in range(n)
        ]
        interval = (int(rng.integers(0, 5)), int(rng.integers(5, 25)))
        grants, served = schedule_dynamic(interval, cands)
        ref_owners, ref_served = pf_reference(interval, cands)
        assert [g.owner for g in grants] == ref_owners
        assert served == pytest.approx(ref_served)


# ---------------------------------------------------------------------------
# semi-persistent scheduling
# ---------------------------------------------------------------------------

def test_sps_place_first_fit_and_reconfig():
    flows = [SpsFlow("f1", "u1", 10, 3), SpsFlow("f2", "u2", 10, 4)]
    assert sps_place((0, 10), flows) == {"f1": (0, 3), "f2": (3, 7)}
    with pytest.raises(ReconfigRequiredError) as e:
        sps_place((0, 6), flows)
    assert e.value.flow_id == "f2"


def test_sps_grants_repeat_on_fixed_columns():
    flows = [SpsFlow("f1", "u1", period_slots=5, prbs_needed=2, offset_slots=2)]
    due = {}
    for slot in range(15):
        grants = schedule_semi_persistent((4, 10), flows, slot)
        if grants:
            due[slot] = sorted(g.prb for g in grants)
    assert list(due) == [2, 7, 12]
    assert all(cols == [4, 5] for cols in due.values())  # no per-slot drift
    assert all(g.purpose == TrafficClass.URLLC.value for g in schedule_semi_persistent((4, 10), flows, 2))


def test_sps_two_flows_disjoint_columns():
    flows = [SpsFlow("f1", "u1", 4, 2), SpsFlow("f2", "u2", 6, 3)]
    grants = schedule_semi_persistent((0, 8), flows, 0)  # both due at slot 0
    prbs = [g.prb for g in grants]
    assert len(prbs) == len(set(prbs)) == 5
    assert validate_allocation_map(mk_grid(prbs=8), grants) == []


# ---------------------------------------------------------------------------
# one-shot contention access
# ---------------------------------------------------------------------------

def test_one_shot_lone_contender_always_succeeds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        outs, grants = schedule_one_shot((0, 4), [Contender("u1", 512.0)], rng)
        assert len(outs) == 1 and outs[0].status is AccessStatus.SUCCESS
        assert outs[0].payload_bits == 512.0
        assert len(grants) == 1 and grants[0].owner == "u1" and 0 <= grants[0].prb < 4


def test_one_shot_single_resource_always_collides_when_crowded():
    rng = np.random.default_rng(1)
    cs = [Contender(f"u{i}") for i in range(5)]
    outs, grants = schedule_one_shot((0, 1), cs, rng)
    assert all(o.status is AccessStatus.COLLISION for o in outs)
    assert grants == []


def test_one_shot_collision_iff_shared_resource():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        outs, grants = schedule_one_shot((0, 8), [Contender(f"u{i}") for i in range(n)], rng)
        pickers: dict[int, list] = {}
        for o in outs:
            pickers.setdefault(o.resource, []).append(o)
        for res, group in pickers.items():
            want = AccessStatus.COLLISION if len(group) > 1 else AccessStatus.SUCCESS
            assert all(o.status is want for o in group)
        winners = {o.ue_id for o in outs if o.status is AccessStatus.SUCCESS}
        assert {g.owner for g in grants} == winners
        assert validate_allocation_map(mk_grid(prbs=8), grants) == []


def test_one_shot_access_cost_blocks():
    rng = np.random.default_rng(3)
    outs, grants = schedule_one_shot((0, 5), [Contender("u1")], rng, access_cost_prbs=2)
    # 5 PRBs at cost 2 hold two resources, on PRBs {0,1} and {2,3}; PRB 4 is dead
    assert outs[0].resource in (0, 1)
    assert sorted(g.prb for g in grants) in ([0, 1], [2, 3])
    assert schedule_one_shot((0, 5), [], rng) == ([], [])
    with pytest.raises(InsufficientResourcesError):
        schedule_one_shot((0, 1), [Contender("u")], rng, access_cost_prbs=2)


def test_one_shot_deterministic_per_rng_state():
    a = schedule_one_shot((0, 6), [Contender("u1"), Contender("u2")], np.random.default_rng(9))
    b = schedule_one_shot((0, 6), [Contender("u1"), Contender("u2")], np.random.default_rng(9))
    assert a == b


# ---------------------------------------------------------------------------
# the per-cell coordinator
# ---------------------------------------------------------------------------

def _mac(prbs=24, portions=None, **cfg_kw):
    cell = mk_cell(grid=mk_grid(prbs=prbs))
    return MacInstance(
        cell,
        portions or [PortionSpec(key="main")],
        MacConfig(**({"epoch_slots": 6} | cfg_kw)),
    )


def _inputs(backlogs, rate=180.0, portion="main", extra=None):
    per_prb = {}
    for fid in backlogs:
        per_prb[(f"ue-{fid}", portion)] = rate
    if extra:
        per_prb.update(extra)
    return SlotInputs(backlog_bits=backlogs, per_prb_bits=per_prb)


def _flow(fid, service=TrafficClass.EMBB, portion="main", **kw):
    return MacFlow(flow_id=fid, ue_id=f"ue-{fid}", service=service, portion_key=portion, **kw)


def test_mac_idle_cell_still_partitions_and_validates():
    mac = _mac()
    res = mac.run_slot(0, _inputs({}), np.random.default_rng(0), np.random.default_rng(1))
    assert validate_allocation_map(mac.cell.grid, res.alloc.grants()) == []
    assert res.served_bits == {}
    assert any(e.kind == "partition" for e in res.events)


def test_mac_every_slot_allocation_is_exclusive_and_in_range():
    mac = _mac(prbs=30)
    mac.register_flow(_flow("fa"))
    mac.register_flow(_flow("fb", service=TrafficClass.LEGACY_MBB))
    mac.register_flow(
        _flow("fu", service=TrafficClass.URLLC, sps_period_slots=3, sps_prbs=2)
    )
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    for slot in range(24):
        res = mac.run_slot(slot, _inputs({"fa": 9000.0, "fb": 4000.0, "fu": 400.0}), rng_a, rng_b)
        assert validate_allocation_map(mac.cell.grid, res.alloc.grants()) == []


def test_mac_sps_columns_survive_backlog_swings():
    """Queue-driven demand may breathe, but the reservation keeps its columns."""
    mac = _mac(prbs=24)
    mac.register_flow(_flow("fu", service=TrafficClass.URLLC, sps_period_slots=6, sps_prbs=3))
    mac.register_flow(_flow("fa"))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    cols_per_epoch = []
    reconf = []
    for slot in range(36):
        backlog = {"fa": 50_000.0 if (slot // 6) % 2 else 100.0, "fu": 300.0}
        res = mac.run_slot(slot, _inputs(backlog), rng_a, rng_b)
        reconf += [e for e in res.events if e.kind == "sps_reconfig"]
        urllc = sorted(g.prb for g in res.alloc.grants() if g.purpose == TrafficClass.URLLC.value)
        if urllc:
            cols_per_epoch.append(tuple(urllc))
    assert reconf == []
    assert len(set(cols_per_epoch)) == 1  # same columns every due slot, every epoch


def test_mac_urllc_reservation_floor_survives_embb_saturation():
    mac = _mac(prbs=20)
    mac.register_flow(_flow("fu", service=TrafficClass.URLLC, sps_period_slots=4, sps_prbs=4))
    mac.register_flow(_flow("fa"))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    for slot in range(12):
        res = mac.run_slot(slot, _inputs({"fa": 10_000_000.0, "fu": 500.0}), rng_a, rng_b)
        assert not [e for e in res.events if e.kind == "sps_reconfig"]
        if slot % 4 == 0:
            n_urllc = sum(1 for g in res.alloc.grants() if g.purpose == TrafficClass.URLLC.value)
            assert n_urllc == 4  # full reservation despite the elephant queue


def test_mac_two_portions_split_and_nest():
    mac = _mac(
        prbs=40,
        portions=[
            PortionSpec(key="legacy", waveform_efficiency=0.85),
            PortionSpec(key="nr", required_capability="nr"),
        ],
    )
    mac.register_flow(_flow("fl", service=TrafficClass.LEGACY_MBB, portion="legacy"))
    mac.register_flow(_flow("fn", portion="nr"))
    inputs = SlotInputs(
        backlog_bits={"fl": 20_000.0, "fn": 20_000.0},
        per_prb_bits={("ue-fl", "legacy"): 150.0, ("ue-fn", "nr"): 180.0},
    )
    res = mac.run_slot(0, inputs, np.random.default_rng(0), np.random.default_rng(1))
    split = [e for e in res.events if e.kind == "dss_split"]
    assert len(split) == 1
    sizes = dict(kv.split(":") for kv in split[0].get("portions").split("|"))
    assert sum(int(v) for v in sizes.values()) == 40  # exact carrier conservation
    plans = [e for e in res.events if e.kind == "partition"]
    assert {e.get("portion") for e in plans} == {"legacy", "nr"}
    assert validate_allocation_map(mac.cell.grid, res.alloc.grants()) == []


def test_mac_slices_nest_inside_portion():
    mac = _mac(prbs=30)
    mac.register_flow(_flow("f1", slice_id="gold"))
    mac.register_flow(_flow("f2", slice_id="bronze"))
    res = mac.run_slot(
        0, _inputs({"f1": 9000.0, "f2": 9000.0}), np.random.default_rng(0), np.random.default_rng(1)
    )
    slice_plans = [e for e in res.events if e.kind == "partition" and e.get("level") == "slice"]
    assert {e.get("slice") for e in slice_plans} == {"gold", "bronze"}
    top = [e for e in res.events if e.get("level") == "portion"]
    assert len(top) == 1


def test_mac_contention_rounds_run_on_epoch_start_only():
    mac = _mac(prbs=16, epoch_slots=4)
    mac.register_flow(_flow("fm", service=TrafficClass.MMTC))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    mac.queue_attempt("fm", 256.0, slot=0)
    rounds = []
    for slot in range(12):
        if slot and slot % 4 == 0:
            mac.queue_attempt("fm", 256.0, slot=slot)
        res = mac.run_slot(slot, _inputs({}), rng_a, rng_b)
        if res.outcomes:
            rounds.append(slot)
        for o in res.outcomes:
            assert o.status in (AccessStatus.SUCCESS, AccessStatus.COLLISION)
    assert rounds and all(s % 4 == 0 for s in rounds)


def test_mac_attempt_queued_mid_epoch_waits_for_next_round():
    mac = _mac(prbs=16, epoch_slots=4)
    mac.register_flow(_flow("fm", service=TrafficClass.MMTC))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    mac.run_slot(0, _inputs({}), rng_a, rng_b)
    mac.queue_attempt("fm", 128.0, slot=1)  # becomes ready in epoch 1
    for slot in (1, 2, 3):
        assert mac.run_slot(slot, _inputs({}), rng_a, rng_b).outcomes == []
    res = mac.run_slot(4, _inputs({}), rng_a, rng_b)
    assert len(res.outcomes) == 1 and res.outcomes[0].status is AccessStatus.SUCCESS
    assert [d.payload_bits for d in res.access_delivered] == [128.0]


def test_mac_flow_registration_rules():
    mac = _mac()
    mac.register_flow(_flow("f1"))
    with pytest.raises(ValueError):
        mac.register_flow(_flow("f1"))
    with pytest.raises(ValueError):
        mac.register_flow(_flow("f2", portion="ghost"))
    with pytest.raises(ValueError):
        mac.register_flow(_flow("f3", service=TrafficClass.URLLC))  # no reservation shape
    mac.deregister_flow("f1")
    mac.register_flow(_flow("f1"))


def test_mac_schedules_flows_registered_after_the_leaves_were_built():
    mac = _mac(prbs=24, epoch_slots=6)
    mac.register_flow(_flow("fa"))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    # fc drains in 5 PRBs, so fa keeps the rest of the eMBB leaf
    backlogs = {"fa": 50_000.0, "fb": 50_000.0, "fc": 900.0}

    def owners(slot):
        res = mac.run_slot(slot, _inputs(backlogs), rng_a, rng_b)
        return {b[2] for b in res.alloc.blocks()}

    assert owners(0) == {"ue-fa"}
    # a legacy flow has no leaf until the next refresh rebuilds the leaves
    mac.register_flow(_flow("fb", service=TrafficClass.LEGACY_MBB))
    assert [owners(s) for s in range(1, 6)] == [{"ue-fa"}] * 5
    assert owners(6) == {"ue-fa", "ue-fb"}
    # an eMBB flow joins the existing eMBB leaf on the next slot
    mac.register_flow(_flow("fc"))
    assert owners(7) == {"ue-fa", "ue-fb", "ue-fc"}
    mac.deregister_flow("fa")
    assert owners(8) == {"ue-fb", "ue-fc"}
