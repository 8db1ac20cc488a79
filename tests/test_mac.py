"""MAC layer: apportionment, schedulers, contention, and the per-cell coordinator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.core import TrafficClass, validate_allocation_map, validate_blocks
from rrmsim.mac import (
    DEFAULT_SLICE,
    AccessStatus,
    Contender,
    InsufficientResourcesError,
    MacConfig,
    MacFlow,
    MacInstance,
    PfCandidate,
    PortionSpec,
    SlotInputs,
    dss_split,
    largest_remainder,
    partition_resources,
    schedule_dynamic,
    schedule_one_shot,
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
@settings(max_examples=200)
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
    assert plan.entries[-1][2] == 50


def test_partition_minimum_guarantee_floors_idle_keys():
    plan = partition_resources({"a": 0, "b": 0, "c": 10}, 12, min_guarantee=1)
    assert [plan.size(k) for k in ("a", "b", "c")] == [1, 1, 10]


def test_partition_per_key_guarantee_mapping():
    plan = partition_resources({"a": 0, "b": 5}, 10, min_guarantee={"a": 2, "b": 1})
    assert plan.entries == (("a", 0, 2), ("b", 2, 7))  # no obligation to hand out the slack


def test_partition_raises_when_guarantees_cannot_fit():
    with pytest.raises(InsufficientResourcesError):
        partition_resources({"a": 5, "b": 5}, 1, min_guarantee=1)


def test_partition_intervals_are_contiguous_and_start_anchored():
    plan = partition_resources({"x": 4, "y": 4}, 10, start=20)
    assert plan.entries[0][1] == 20
    assert plan.interval("x") == (20, 24) and plan.interval("y") == (24, 28)
    assert [k for k, _, _ in plan.entries] == ["x", "y"]


def test_partition_random_properties():
    rng = np.random.default_rng(17)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        demands = {f"k{i}": int(rng.integers(0, 40)) for i in range(n)}
        g = int(rng.integers(0, 3))
        total = int(rng.integers(n * g, 80))
        plan = partition_resources(demands, total, min_guarantee=g)
        sizes = {k: plan.size(k) for k in demands}
        assigned = sum(sizes.values())
        assert all(sizes[k] >= g for k in demands)
        assert assigned <= total
        want = sum(max(g, d) for k, d in demands.items())
        if want <= total:  # demands fit: everyone gets exactly what they asked
            assert sizes == {k: max(g, d) for k, d in demands.items()}
        else:  # scarce: everything is handed out
            assert assigned == total


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


def test_refresh_sizes_each_leaf_at_its_backlog_over_the_reference_rate_rounded_up():
    """A refresh's ``demand_prbs`` is the sum over queue-driven leaves of
    ceil(leaf backlog / reference per-PRB rate), plus the access partition's
    demand; a portion whose reference rate is not positive raises once a
    flow on it is refreshed."""
    mac = _mac(prbs=100, access_cost_prbs=2)
    rate = mac.reference_per_prb_bits("main")
    for f in (_flow("fa"), _flow("fb"), _flow("fl", TrafficClass.LEGACY_MBB),
              _flow("fz", TrafficClass.LEGACY_MBB), _flow("fm", TrafficClass.MMTC)):
        mac.register_flow(f)
    mac.queue_attempt("fm", 100.0, 0)
    # the eMBB leaf holds 3.1 PRBs of backlog: 4 rounded up, 3 to the nearest
    backlog = {"fa": 2 * rate, "fb": 1.1 * rate, "fl": 0.0, "fz": 0.0}
    leaves = (backlog["fa"] + backlog["fb"], backlog["fl"] + backlog["fz"])
    mac.refresh_partitions(0, SlotInputs(backlog, {}))
    assert mac.demand_prbs == sum(math.ceil(b / rate) for b in leaves) + 2 == 6
    assert sum(round(b / rate) for b in leaves) + 2 == 5
    mac.refresh_partitions(6, SlotInputs({"fa": 5 * rate, "fl": rate + 1.0}, {}))
    assert mac.demand_prbs == 5 + 2 + 2

    # at -30 dB a 180 kHz PRB of 1 ms floors to 0 bits; a portion with no
    # flow never reads the rate, so the idle cell still runs
    starved = _mac(demand_sinr_db=-30.0)
    starved.run_slot(0, _inputs({}), np.random.default_rng(0), np.random.default_rng(1))
    starved.register_flow(_flow("fa"))
    with pytest.raises(ValueError, match="per_prb_bits must be positive"):
        starved.refresh_partitions(6, _inputs({"fa": 100.0}))
    with pytest.raises(ValueError, match="per_prb_bits must be positive"):
        starved.reference_per_prb_bits("main")


# ---------------------------------------------------------------------------
# dynamic (proportional-fair) scheduling
# ---------------------------------------------------------------------------

def pf_metric(c):
    """Rate over average; at an average of 0.0 its limit, +inf for a
    positive rate, else 0.0."""
    if c.avg_bits > 0:
        return c.per_prb_bits / c.avg_bits
    return math.inf if c.per_prb_bits > 0 else 0.0


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
        best = max(live, key=pf_metric)
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


@given(
    prbs=st.integers(2, 40),  # the eMBB leaf and the access channel hold one PRB each
    ues=st.lists(
        st.tuples(
            st.integers(0, 400),  # per-PRB rate
            st.lists(st.integers(0, 4000), min_size=1, max_size=2),  # each flow's backlog
            st.one_of(st.just(0.0), st.floats(0.01, 5000.0)),  # PF average
        ),
        min_size=1,
        max_size=7,
    ),
)
@settings(max_examples=300)
def test_mac_pf_leaf_matches_the_argmax_oracle(prbs, ues):
    """One eMBB leaf of ``run_slot``, averages of 0.0 included: its blocks and
    each UE's served bits are the per-PRB argmax oracle's."""
    mac = _mac(prbs=prbs)
    backlogs, rates, cands, ue_of = {}, {}, [], {}
    for i, (rate, flow_bits, avg) in enumerate(ues):
        ue = f"ue{i}"
        for j, bits in enumerate(flow_bits):
            fid = f"f{i}{'ab'[j]}"
            mac.register_flow(
                MacFlow(flow_id=fid, ue_id=ue, service=TrafficClass.EMBB, portion_key="main")
            )
            backlogs[fid], ue_of[fid] = float(bits), ue
        rates[(ue, "main")] = float(rate)
        mac.pf_avg[ue] = avg
        cands.append(PfCandidate(ue, float(rate), float(sum(flow_bits)), avg))
    res = mac.run_slot(
        0, SlotInputs(backlogs, rates), np.random.default_rng(0), np.random.default_rng(1)
    )
    plan = next(e.get("plan") for e in res.events if e.kind == "partition")
    a, b = (int(x) for x in dict(p.split(":") for p in plan.split(","))["eMBB"].split("-"))
    owners, served = pf_reference((a, b), [c for c in cands if c.backlog_bits > 0])
    got = [
        (p, ue) for s, e, ue, purpose in res.alloc.blocks() if purpose == "eMBB"
        for p in range(s, e)
    ]
    assert got == [(a + k, ue) for k, ue in enumerate(owners)]
    by_ue = {}
    for fid, bits in res.served_bits.items():
        by_ue[ue_of[fid]] = by_ue.get(ue_of[fid], 0.0) + bits
    assert by_ue == {ue: bits for ue, bits in served.items() if bits > 0}


@given(
    prbs=st.integers(2, 40),
    rate=st.integers(0, 400),
    backlogs=st.tuples(st.integers(0, 4000), st.integers(0, 4000)),
    registered_in_reverse=st.booleans(),
    others=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 4000)), max_size=4),
)
@settings(max_examples=300)
def test_mac_pf_leaf_drains_a_ues_flows_in_flow_id_order(
    prbs, rate, backlogs, registered_in_reverse, others
):
    """A UE with two flows in one eMBB leaf, among other UEs: its served bits
    drain the lower flow_id's backlog in full before the other flow gets any,
    whichever registered first, and they are its PRBs' bits up to its backlog."""
    mac = _mac(prbs=prbs)
    mine = list(zip(("fa", "fb"), backlogs))
    bits, rates = {}, {("u0", "main"): float(rate)}
    for fid, b in mine[::-1] if registered_in_reverse else mine:
        mac.register_flow(MacFlow(flow_id=fid, ue_id="u0", service=TrafficClass.EMBB,
                                  portion_key="main"))
        bits[fid] = float(b)
    for i, (r, b) in enumerate(others, 1):
        mac.register_flow(MacFlow(flow_id=f"f{i}", ue_id=f"u{i}", service=TrafficClass.EMBB,
                                  portion_key="main"))
        bits[f"f{i}"], rates[(f"u{i}", "main")] = float(b), float(r)
    res = mac.run_slot(
        0, SlotInputs(bits, rates), np.random.default_rng(0), np.random.default_rng(1)
    )
    got_a, got_b = (res.served_bits.get(fid, 0.0) for fid in ("fa", "fb"))
    assert got_a <= bits["fa"] and got_b <= bits["fb"]
    assert got_b == 0.0 or got_a == bits["fa"]
    held = sum(b - a for a, b, ue, _ in res.alloc.blocks() if ue == "u0")
    assert got_a + got_b == min(held * rate, bits["fa"] + bits["fb"])


# ---------------------------------------------------------------------------
# one-shot contention access
# ---------------------------------------------------------------------------

def test_one_shot_lone_contender_always_succeeds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        outs, blocks = schedule_one_shot((0, 4), [Contender("u1", 512.0)], rng)
        assert len(outs) == 1 and outs[0].status is AccessStatus.SUCCESS
        assert outs[0].payload_bits == 512.0
        assert len(blocks) == 1
        a, b, owner = blocks[0]
        assert owner == "u1" and 0 <= a < 4 and b == a + 1


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
        outs, blocks = schedule_one_shot((0, 8), [Contender(f"u{i}") for i in range(n)], rng)
        pickers: dict[int, list] = {}
        for o in outs:
            pickers.setdefault(o.resource, []).append(o)
        for res, group in pickers.items():
            want = AccessStatus.COLLISION if len(group) > 1 else AccessStatus.SUCCESS
            assert all(o.status is want for o in group)
        winners = {o.ue_id for o in outs if o.status is AccessStatus.SUCCESS}
        assert {ue for _, _, ue in blocks} == winners
        assert validate_blocks(mk_grid(prbs=8), [(a, b, ue, "rach") for a, b, ue in blocks]) == []


def test_one_shot_access_cost_blocks():
    rng = np.random.default_rng(3)
    outs, blocks = schedule_one_shot((0, 5), [Contender("u1")], rng, access_cost_prbs=2)
    # 5 PRBs at cost 2 hold two resources, on PRBs {0,1} and {2,3}; PRB 4 is dead
    assert outs[0].resource in (0, 1)
    assert blocks in ([(0, 2, "u1")], [(2, 4, "u1")])
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
        held = [e for e in res.events if e.kind == "rach_round"]
        if held:
            rounds.append(slot)
            (ev,) = held
            n, won, lost = (int(ev.get(k)) for k in ("contenders", "successes", "collisions"))
            assert won + lost == n and won == len(res.access_delivered)
        else:
            assert res.access_delivered == []
    assert rounds and all(s % 4 == 0 for s in rounds)


def test_mac_attempt_queued_mid_epoch_waits_for_next_round():
    mac = _mac(prbs=16, epoch_slots=4)
    mac.register_flow(_flow("fm", service=TrafficClass.MMTC))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    mac.run_slot(0, _inputs({}), rng_a, rng_b)
    mac.queue_attempt("fm", 128.0, slot=1)  # becomes ready in epoch 1
    for slot in (1, 2, 3):
        res = mac.run_slot(slot, _inputs({}), rng_a, rng_b)
        assert res.access_delivered == [] and all(e.kind != "rach_round" for e in res.events)
    res = mac.run_slot(4, _inputs({}), rng_a, rng_b)
    (ev,) = [e for e in res.events if e.kind == "rach_round"]
    assert (ev.get("contenders"), ev.get("successes"), ev.get("collisions")) == ("1", "1", "0")
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
    with pytest.raises(ValueError):
        mac.register_flow(_flow("f4", slice_id="rach"))  # the access partition's key
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



def test_pf_average_decays_for_exactly_the_ues_holding_an_embb_or_legacy_flow():
    """With nothing queued, each slot decays the PF average of every UE that
    holds an eMBB or legacy registration at that slot, in a leaf or not yet,
    and leaves every other UE's alone: URLLC registrations do not count. New
    averages appear in the order their UEs first registered."""
    embb, legacy, urllc = TrafficClass.EMBB, TrafficClass.LEGACY_MBB, TrafficClass.URLLC
    mac = _mac(prbs=40, epoch_slots=4)
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    # before each slot: flows to register as (flow, UE, class) or to drop by
    # id, then the UEs whose average that slot decays
    steps = [
        ([("e1", "ua", embb), ("l1", "ub", legacy), ("r1", "uc", urllc)], {"ua", "ub"}),
        ([("e2", "ub", embb), ("r2", "ua", urllc)], {"ua", "ub"}),
        (["l1"], {"ua", "ub"}),
        (["e2", ("e3", "uc", embb)], {"ua", "uc"}),
        (["e1"], {"uc"}),
        ([("l2", "ub", legacy)], {"ub", "uc"}),
        (["e3", "r1", "r2", "l2"], set()),
    ]
    for slot, (ops, pf_ues) in enumerate(steps):
        for op in ops:
            if isinstance(op, str):
                mac.deregister_flow(op)
            else:
                shape = {"sps_period_slots": 2, "sps_prbs": 1} if op[2] is urllc else {}
                mac.register_flow(MacFlow(*op, "main", **shape))
        before = dict(mac.pf_avg)
        mac.run_slot(slot, SlotInputs({}, {}), rng_a, rng_b)
        initial = mac.cfg.pf_initial_avg_bits
        assert {u for u, avg in mac.pf_avg.items() if avg < before.get(u, initial)} == pf_ues
        kept = {u: avg for u, avg in mac.pf_avg.items() if u not in pf_ues}
        assert kept == {u: avg for u, avg in before.items() if u not in pf_ues}
    assert list(mac.pf_avg) == ["ua", "ub", "uc"]

def _leaf_owns(leaf, flow):
    """Whether ``leaf`` serves ``flow``: the predicate the MAC used to rebuild
    every roster with, over every flow, before leaves came with theirs."""
    if flow.portion_key != leaf.portion_key:
        return False
    sid = (flow.slice_id or DEFAULT_SLICE) if leaf.slice_id is not None else None
    return sid == leaf.slice_id and flow.service.value == leaf.key


def _assert_rosters_regroup_the_flows(mac):
    flows = sorted(mac.flows.values(), key=lambda f: f.flow_id)
    for leaf in mac._leaves:
        by_ue = {}
        for f in flows:
            if _leaf_owns(leaf, f):
                by_ue.setdefault(f.ue_id, []).append(f)
        assert list(leaf.roster.items()) == sorted(by_ue.items())


# (UE, class, portion, slice label, reserved PRBs) of a flow to register
_FLOW_SPEC = st.tuples(
    st.integers(0, 4),
    st.sampled_from(list(TrafficClass)),
    st.integers(0, 1),
    st.sampled_from([None, "gold", "silver"]),
    st.integers(1, 3),
)


@given(
    n_portions=st.integers(1, 2),
    initial=st.lists(_FLOW_SPEC, max_size=10),
    ops=st.lists(st.one_of(_FLOW_SPEC, st.integers(0, 19)), max_size=15),
)
@settings(max_examples=200)
def test_rosters_kept_between_refreshes_regroup_the_flows(n_portions, initial, ops):
    """After a refresh, each register_flow (a spec) or deregister_flow (a
    flow number, registered or not) leaves every leaf's roster equal to a
    regrouping of all flows."""
    mac = _mac(prbs=400, portions=[PortionSpec(key=f"p{i}") for i in range(n_portions)])
    made = 0

    def register(spec):
        nonlocal made
        ue, service, portion, slice_id, prbs = spec
        shape = {"sps_period_slots": 2, "sps_prbs": prbs} if service is TrafficClass.URLLC else {}
        mac.register_flow(MacFlow(
            f"f{made:02d}", f"u{ue}", service, f"p{portion % n_portions}", slice_id, **shape
        ))
        made += 1

    for spec in initial:
        register(spec)
    mac.refresh_partitions(0, SlotInputs({}, {}))
    _assert_rosters_regroup_the_flows(mac)
    for op in ops:
        if isinstance(op, int):
            mac.deregister_flow(f"f{op:02d}")
        else:
            register(op)
        _assert_rosters_regroup_the_flows(mac)
    mac.refresh_partitions(mac.cfg.epoch_slots, SlotInputs({}, {}))
    _assert_rosters_regroup_the_flows(mac)


# ---------------------------------------------------------------------------
# the partition tree, pinned line by line
# ---------------------------------------------------------------------------

def _tree_trace(mac, backlogs, slots, attempts=0):
    """The partition, DSS and reservation events over ``slots``, and the
    leaves after each refresh. ``attempts`` access attempts from flow fm are
    queued at slot 0."""
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    for _ in range(attempts):
        mac.queue_attempt("fm", 64.0, slot=0)
    lines, leaves = [], []
    for slot in slots:
        bl = backlogs(slot)
        rates = {(f"ue-{k}", pk): 150.0 for k in bl for pk in mac.portions}
        res = mac.run_slot(slot, SlotInputs(bl, rates), rng_a, rng_b)
        lines += [
            e.format() for e in res.events
            if e.kind in ("partition", "dss_split", "sps_reconfig")
        ]
        if slot % mac.cfg.epoch_slots == 0:
            leaves.append([(lf.portion_key, lf.slice_id, lf.key, lf.interval) for lf in mac._leaves])
    return lines, leaves


def test_partition_tree_sliced_and_unsliced_portions_share_a_carrier():
    # nr is sliced (fd falls into the implicit default slice) and its 40 ready
    # attempts exceed what the portion can spare, so the access floor is
    # clamped to the room left; lte is unsliced
    mac = _mac(
        prbs=40,
        epoch_slots=4,
        portions=[
            PortionSpec(key="lte", waveform_efficiency=0.85),
            PortionSpec(key="nr", required_capability="nr"),
        ],
    )
    for f in (
        _flow("fl", service=TrafficClass.LEGACY_MBB, portion="lte"),
        _flow("fd", portion="nr"),
        _flow("fg", portion="nr", slice_id="gold"),
        _flow("fu", service=TrafficClass.URLLC, portion="nr", slice_id="gold",
              sps_period_slots=2, sps_prbs=3),
        _flow("fm", service=TrafficClass.MMTC, portion="nr"),
    ):
        mac.register_flow(f)

    def backlogs(slot):
        return {"fl": 6000.0, "fd": 9000.0 if slot < 4 else 1500.0, "fg": 4000.0, "fu": 300.0}

    lines, leaves = _tree_trace(mac, backlogs, range(8), attempts=40)
    assert lines == [
        "0 mac dss_split cell=c1 portions=lte:6|nr:34 demand_a=12 demand_b=65",
        "0 mac partition cell=c1 portion=lte level=portion plan=legacy_MBB:0-5,rach:5-6",
        "0 mac partition cell=c1 portion=nr level=portion plan=default:6-7,gold:7-11,rach:11-40",
        "0 mac partition cell=c1 portion=nr level=slice slice=default plan=eMBB:6-7",
        "0 mac partition cell=c1 portion=nr level=slice slice=gold plan=URLLC:7-10,eMBB:10-11",
        "4 mac dss_split cell=c1 portions=lte:17|nr:23 demand_a=12 demand_b=16",
        "4 mac partition cell=c1 portion=lte level=portion plan=legacy_MBB:0-12,rach:12-13",
        "4 mac partition cell=c1 portion=nr level=portion plan=default:17-20,gold:20-30,rach:30-33",
        "4 mac partition cell=c1 portion=nr level=slice slice=default plan=eMBB:17-20",
        "4 mac partition cell=c1 portion=nr level=slice slice=gold plan=URLLC:20-23,eMBB:23-30",
        "4 mac sps_reconfig cell=c1 flow=fu need=3 cols=20-23",
    ]
    assert leaves == [
        [
            ("lte", None, "legacy_MBB", (0, 5)), ("lte", None, "rach", (5, 6)),
            ("nr", "default", "eMBB", (6, 7)), ("nr", "gold", "URLLC", (7, 10)),
            ("nr", "gold", "eMBB", (10, 11)), ("nr", None, "rach", (11, 40)),
        ],
        [
            ("lte", None, "legacy_MBB", (0, 12)), ("lte", None, "rach", (12, 13)),
            ("nr", "default", "eMBB", (17, 20)), ("nr", "gold", "URLLC", (20, 23)),
            ("nr", "gold", "eMBB", (23, 30)), ("nr", None, "rach", (30, 33)),
        ],
    ]


def test_partition_tree_falls_back_to_bare_minimums():
    # two 4-column reservations in slice gold cannot fit an 8-PRB carrier
    # beside the default slice and the access partition: both levels split at
    # the bare minimums, and the second reservation is parked
    mac = _mac(prbs=8, epoch_slots=4)
    mac.register_flow(_flow("fd"))
    mac.register_flow(_flow("u1", service=TrafficClass.URLLC, slice_id="gold",
                            sps_period_slots=1, sps_prbs=4))
    mac.register_flow(_flow("u2", service=TrafficClass.URLLC, slice_id="gold",
                            sps_period_slots=1, sps_prbs=4))
    lines, leaves = _tree_trace(mac, lambda slot: {"fd": 3000.0, "u1": 100.0, "u2": 100.0}, range(4))
    assert lines == [
        "0 mac partition cell=c1 portion=main level=portion plan=default:0-3,gold:3-7,rach:7-8",
        "0 mac partition cell=c1 portion=main level=slice slice=default plan=eMBB:0-3",
        "0 mac partition cell=c1 portion=main level=slice slice=gold plan=URLLC:3-7",
        "0 mac sps_reconfig cell=c1 flow=u2 need=4 cols=none",
    ]
    assert leaves == [
        [("main", "default", "eMBB", (0, 3)), ("main", "gold", "URLLC", (3, 7)),
         ("main", None, "rach", (7, 8))],
    ]


# ---------------------------------------------------------------------------
# semi-persistent reservations, placed by the coordinator
# ---------------------------------------------------------------------------

def _urllc(fid, period, prbs, offset=0):
    return _flow(
        fid,
        service=TrafficClass.URLLC,
        sps_period_slots=period,
        sps_prbs=prbs,
        sps_offset_slots=offset,
    )


def _urllc_blocks(res):
    return [b for b in res.alloc.blocks() if b[3] == TrafficClass.URLLC.value]


def test_sps_first_fit_takes_the_lowest_free_gap():
    mac = _mac(prbs=24, epoch_slots=4)
    for f in (_urllc("f1", 1, 2), _urllc("f2", 1, 3), _urllc("f3", 1, 1)):
        mac.register_flow(f)
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    backlog = {"f1": 100.0, "f2": 100.0, "f3": 100.0, "f4": 100.0}
    res = mac.run_slot(0, _inputs(backlog), rng_a, rng_b)
    assert _urllc_blocks(res) == [
        (0, 2, "ue-f1", "URLLC"), (2, 5, "ue-f2", "URLLC"), (5, 6, "ue-f3", "URLLC"),
    ]
    # f1 leaves a two-column hole; f4 is placed at the next refresh, into the
    # hole, while f2 and f3 keep their columns
    mac.deregister_flow("f1")
    mac.register_flow(_urllc("f4", 1, 2))
    res = mac.run_slot(4, _inputs(backlog), rng_a, rng_b)
    assert _urllc_blocks(res) == [
        (0, 2, "ue-f4", "URLLC"), (2, 5, "ue-f2", "URLLC"), (5, 6, "ue-f3", "URLLC"),
    ]
    assert not [e for e in res.events if e.kind == "sps_reconfig"]


def test_sps_reservation_that_no_longer_fits_is_parked():
    # 8 reserved columns cannot fit beside the access partition on 6 PRBs
    mac = _mac(prbs=6, epoch_slots=4)
    mac.register_flow(_urllc("f1", 1, 4))
    mac.register_flow(_urllc("f2", 1, 4))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    for slot in range(4):
        res = mac.run_slot(slot, _inputs({"f1": 100.0, "f2": 100.0}), rng_a, rng_b)
        assert _urllc_blocks(res) == [(0, 4, "ue-f1", "URLLC")]
        if slot == 0:
            reconf = [e for e in res.events if e.kind == "sps_reconfig"]
            assert [(e.get("flow"), e.get("need"), e.get("cols")) for e in reconf] == [
                ("f2", "4", "none")
            ]


def _sps_trace_with_and_without_the_memo(flows, backlogs, epochs, **mac_kw):
    """Drive two MACs holding ``flows`` with the same inputs over ``epochs``
    epochs of 4 slots, dropping one's memo before every slot. Both give the
    same events, leaves and blocks at every slot. Returns each sps_reconfig
    as (slot, flow, cols), and the epochs at which the kept MAC reused its
    last plan (its leaves are the same objects)."""
    macs = [_mac(epoch_slots=4, **mac_kw) for _ in range(2)]
    rngs = [(np.random.default_rng(0), np.random.default_rng(1)) for _ in macs]
    for mac in macs:
        for f in flows:
            mac.register_flow(f)
    reconf, reused = [], []
    for slot in range(4 * epochs):
        macs[1]._memo = None
        before = macs[0]._leaves
        seen = []
        for mac, (rng_a, rng_b) in zip(macs, rngs):
            res = mac.run_slot(slot, _inputs(backlogs(slot)), rng_a, rng_b)
            leaves = [(lf.portion_key, lf.slice_id, lf.key, lf.interval, lf.roster)
                      for lf in mac._leaves]
            seen.append(([e.format() for e in res.events], leaves, res.alloc.blocks()))
        assert seen[0] == seen[1], slot
        reconf += [(slot, e.get("flow"), e.get("cols")) for e in res.events
                   if e.kind == "sps_reconfig"]
        if slot % 4 == 0 and macs[0]._leaves is before:
            reused.append(slot // 4)
    return reconf, reused


def test_a_refresh_reuses_its_plan_only_while_its_inputs_hold_still():
    """The same leaf demands keep the last refresh's leaves; an access
    attempt that becomes ready, or a new flow, plans again."""
    mac = _mac(prbs=50, access_cost_prbs=4)
    rate = mac.reference_per_prb_bits("main")
    for f in (_flow("fa"), _flow("fm", TrafficClass.MMTC)):
        mac.register_flow(f)
    backlog = SlotInputs({"fa": 2.5 * rate}, {})
    mac.refresh_partitions(0, backlog)
    leaves = mac._leaves
    mac.refresh_partitions(6, backlog)
    assert mac._leaves is leaves and mac.demand_prbs == 3
    mac.queue_attempt("fm", 100.0, 6)
    mac.refresh_partitions(12, backlog)
    assert mac._leaves is not leaves and mac.demand_prbs == 3 + 4
    leaves = mac._leaves
    mac.register_flow(_flow("fb"))
    mac.refresh_partitions(18, backlog)
    assert mac._leaves is not leaves and mac.demand_prbs == 3 + 4


def test_sps_reconfig_under_a_reused_plan_is_what_a_fresh_plan_gives():
    """A reused plan still places reservations from the last epoch's: a flow
    moved at epoch e keeps its columns at e + 1 and is reported at e only,
    and a parked flow is reported at every refresh."""
    # fu's slice follows fa's, which grows at epoch 1 and then holds still
    reconf, reused = _sps_trace_with_and_without_the_memo(
        [_flow("fa", slice_id="a"),
         _flow("fu", TrafficClass.URLLC, slice_id="b", sps_period_slots=1, sps_prbs=2)],
        lambda slot: {"fa": 2_000.0 if slot < 4 else 20_000.0, "fu": 100.0},
        epochs=4,
    )
    assert [(s, f) for s, f, _ in reconf] == [(4, "fu")] and reused == [2, 3]
    # 8 reserved columns cannot fit beside the access partition on 6 PRBs
    reconf, reused = _sps_trace_with_and_without_the_memo(
        [_urllc("f1", 1, 4), _urllc("f2", 1, 4)],
        lambda slot: {"f1": 100.0, "f2": 100.0},
        epochs=4,
        prbs=6,
    )
    assert reconf == [(s, "f2", "none") for s in (0, 4, 8, 12)] and reused == [1, 2, 3]


def test_sps_grants_repeat_on_fixed_columns():
    mac = _mac(prbs=24, epoch_slots=6)
    mac.register_flow(_urllc("f1", period=5, prbs=2, offset=2))
    mac.register_flow(_flow("fa"))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    due = {}
    for slot in range(15):
        res = mac.run_slot(slot, _inputs({"f1": 300.0, "fa": 9000.0}), rng_a, rng_b)
        if _urllc_blocks(res):
            due[slot] = _urllc_blocks(res)
    assert list(due) == [2, 7, 12]
    assert all(b == [(0, 2, "ue-f1", "URLLC")] for b in due.values())  # no drift


def test_sps_two_flows_disjoint_columns():
    mac = _mac(prbs=24)
    mac.register_flow(_urllc("f1", 4, 2))
    mac.register_flow(_urllc("f2", 6, 3))
    res = mac.run_slot(
        0, _inputs({"f1": 300.0, "f2": 300.0}), np.random.default_rng(0), np.random.default_rng(1)
    )  # both due at slot 0
    assert _urllc_blocks(res) == [(0, 2, "ue-f1", "URLLC"), (2, 5, "ue-f2", "URLLC")]
    assert validate_allocation_map(mac.cell.grid, res.alloc.grants()) == []


def test_sps_flow_deregistered_mid_epoch_gets_no_grant():
    mac = _mac(prbs=24, epoch_slots=6)
    mac.register_flow(_urllc("fu", 1, 3))
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(1)
    for slot in range(3):
        res = mac.run_slot(slot, _inputs({"fu": 300.0}), rng_a, rng_b)
        assert _urllc_blocks(res) == [(0, 3, "ue-fu", "URLLC")]
    mac.deregister_flow("fu")  # mid-epoch, as a handover does
    res = mac.run_slot(3, _inputs({"fu": 300.0}), rng_a, rng_b)
    assert _urllc_blocks(res) == []
    assert res.served_bits == {}


def test_sps_reservation_shape_is_checked_at_registration():
    mac = _mac()
    for bad in (
        {"sps_period_slots": 4, "sps_prbs": -1},
        {"sps_period_slots": -4, "sps_prbs": 2},
        {"sps_period_slots": 4, "sps_prbs": 2, "sps_offset_slots": -1},
    ):
        with pytest.raises(ValueError):
            mac.register_flow(_flow("fu", service=TrafficClass.URLLC, **bad))
    assert mac.flows == {}
