"""Split-bearer flow control: routing modes, sequencing, reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.pdcp import (
    Leg,
    Mode,
    ModeArityError,
    ReceiverState,
    configure_legs,
    delay_estimate,
    reorder_deliver,
    reorder_tick,
    route_packet,
)


def mk_leg(leg_id, cell_id=None, capacity=1000.0, load=0.0, queued=0.0):
    leg = Leg(leg_id=leg_id, cell_id=cell_id or f"cell-{leg_id}",
              capacity_bits_per_slot=capacity, current_load=load)
    leg.queue_bits = queued
    return leg


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_configure_rejects_wrong_arity():
    with pytest.raises(ModeArityError):
        configure_legs("f", [], Mode.AGGREGATE)
    with pytest.raises(ModeArityError):
        configure_legs("f", [mk_leg("l1")], Mode.DUPLICATE)
    st1 = configure_legs("f", [mk_leg("l1")], Mode.AGGREGATE)
    assert st1.next_sn == 0 and len(st1.legs) == 1


def test_configure_rejects_duplicate_leg_or_cell_ids():
    with pytest.raises(ValueError):
        configure_legs("f", [mk_leg("l1"), mk_leg("l1")], Mode.AGGREGATE)
    with pytest.raises(ValueError):
        configure_legs("f", [mk_leg("l1", "c"), mk_leg("l2", "c")], Mode.AGGREGATE)
    with pytest.raises(ValueError):
        configure_legs("f", [mk_leg("l1"), mk_leg("l2")], Mode.LOAD_BALANCE,
                       leave_load=0.4, enter_load=0.6)


# ---------------------------------------------------------------------------
# routing modes
# ---------------------------------------------------------------------------

def test_aggregate_routes_to_least_delay():
    fast = mk_leg("fast", capacity=1000.0, queued=500.0)   # 0.5 slots
    slow = mk_leg("slow", capacity=1000.0, queued=5000.0)  # 5 slots
    state = configure_legs("f", [slow, fast], Mode.AGGREGATE)
    sent = route_packet(state, 100.0)
    assert sent == [("fast", 0)]
    assert fast.queue_bits == 600.0 and slow.queue_bits == 5000.0
    assert delay_estimate(slow) == pytest.approx(5.0)


def test_aggregate_tie_breaks_to_first_leg():
    a, b = mk_leg("a"), mk_leg("b")
    state = configure_legs("f", [a, b], Mode.AGGREGATE)
    assert route_packet(state, 10.0) == [("a", 0)]


def test_aggregate_dead_leg_is_avoided():
    dead = mk_leg("dead", capacity=0.0)
    live = mk_leg("live", capacity=10.0, queued=1e6)
    state = configure_legs("f", [dead, live], Mode.AGGREGATE)
    assert delay_estimate(dead) == float("inf")
    assert route_packet(state, 1.0)[0][0] == "live"


def test_duplicate_sends_same_sn_on_every_leg():
    a, b = mk_leg("a"), mk_leg("b")
    state = configure_legs("f", [a, b], Mode.DUPLICATE)
    assert route_packet(state, 64.0) == [("a", 0), ("b", 0)]
    assert route_packet(state, 64.0) == [("a", 1), ("b", 1)]
    assert [p.sn for p in a.queue] == [p.sn for p in b.queue] == [0, 1]


def test_load_balance_sticks_until_hysteresis_opens():
    hot = mk_leg("hot", load=0.9)
    cool = mk_leg("cool", load=0.3)
    tepid = mk_leg("tepid", load=0.6)
    state = configure_legs("f", [hot, cool, tepid], Mode.LOAD_BALANCE,
                           leave_load=0.8, enter_load=0.5)
    # active leg hot (index 0) is above leave and cool is below enter: switch
    assert route_packet(state, 1.0, epoch=0)[0][0] == "cool"
    assert state.active_leg == 1
    # tepid at 0.6 is not below enter_load, so with cool hot too we stay put
    cool.current_load = 0.95
    assert route_packet(state, 1.0, epoch=1)[0][0] == "cool"


def test_load_balance_switches_at_most_once_per_epoch():
    a = mk_leg("a", load=0.9)
    b = mk_leg("b", load=0.1)
    state = configure_legs("f", [a, b], Mode.LOAD_BALANCE)
    assert route_packet(state, 1.0, epoch=5)[0][0] == "b"
    # make the new leg instantly terrible; same epoch means no flapping back
    a.current_load, b.current_load = 0.1, 0.9
    assert route_packet(state, 1.0, epoch=5)[0][0] == "b"
    # the next epoch may react again
    assert route_packet(state, 1.0, epoch=6)[0][0] == "a"


def test_load_balance_needs_a_leg_below_enter_load():
    a = mk_leg("a", load=0.95)
    b = mk_leg("b", load=0.7)
    state = configure_legs("f", [a, b], Mode.LOAD_BALANCE, leave_load=0.8, enter_load=0.5)
    assert route_packet(state, 1.0, epoch=0)[0][0] == "a"  # nowhere better to go


def test_sequence_numbers_increase_and_exhaust():
    state = configure_legs("f", [mk_leg("l")], Mode.AGGREGATE)
    sns = [route_packet(state, 8.0)[0][1] for _ in range(50)]
    assert sns == list(range(50))
    # no sequence-number space to exhaust: SNs keep increasing past 2**18
    state.next_sn = 2**18 - 1
    sns = [route_packet(state, 8.0)[0][1] for _ in range(3)]
    assert sns == [2**18 - 1, 2**18, 2**18 + 1]


def test_long_lived_flow_routes_and_delivers_past_2_18_in_order():
    leg = mk_leg("l")
    state = configure_legs("f", [leg], Mode.AGGREGATE)
    rx = ReceiverState()
    n = 2**18 + 10
    in_order = 0
    for slot in range(n):
        route_packet(state, 8.0, created_slot=slot)
        pdu = leg.queue.popleft()
        out = reorder_deliver(rx, pdu.sn, pdu.bits, pdu.created_slot, now=slot)
        in_order += len(out) == 1 and out[0].sn == slot
    assert in_order == n
    assert rx.expected_sn == rx.delivered_count == n
    assert rx.duplicates_dropped == rx.lost_count == 0


# ---------------------------------------------------------------------------
# receive-side reordering
# ---------------------------------------------------------------------------

def test_reorder_holds_gap_then_releases_in_order():
    rx = ReceiverState()
    assert [d.sn for d in reorder_deliver(rx, 0, 8.0, 0, now=0)] == [0]
    assert reorder_deliver(rx, 2, 8.0, 0, now=1) == []  # 1 missing: buffered
    out = reorder_deliver(rx, 1, 8.0, 0, now=2)
    assert [d.sn for d in out] == [1, 2]
    assert rx.expected_sn == 3 and rx.buffer == {}


def test_reorder_drops_duplicates_silently():
    rx = ReceiverState()
    reorder_deliver(rx, 0, 8.0, 0, now=0)
    assert reorder_deliver(rx, 0, 8.0, 0, now=1) == []
    reorder_deliver(rx, 2, 8.0, 0, now=2)
    assert reorder_deliver(rx, 2, 8.0, 0, now=3) == []  # buffered copy counts too
    assert rx.duplicates_dropped == 2


def test_reorder_timer_declares_head_gap_lost():
    rx = ReceiverState(t_reorder_slots=10)
    reorder_deliver(rx, 1, 8.0, 0, now=0)  # sn 0 missing
    assert reorder_tick(rx, now=9) == []   # still inside the window
    out = reorder_tick(rx, now=10)
    assert [d.sn for d in out] == [1]
    assert rx.lost_count == 1 and rx.expected_sn == 2
    assert rx.gap_since is None


def test_reorder_timer_restarts_on_remaining_gap():
    rx = ReceiverState(t_reorder_slots=5)
    reorder_deliver(rx, 1, 8.0, 0, now=0)
    reorder_deliver(rx, 3, 8.0, 0, now=1)
    out = reorder_tick(rx, now=5)  # sn0 expired: release 1, gap at 2 remains
    assert [d.sn for d in out] == [1]
    assert rx.gap_since == 5
    out = reorder_tick(rx, now=10)
    assert [d.sn for d in out] == [3]
    assert rx.lost_count == 2


def test_reorder_in_order_stream_never_arms_timer():
    rx = ReceiverState()
    for sn in range(100):
        got = reorder_deliver(rx, sn, 8.0, sn, now=sn)
        assert [d.sn for d in got] == [sn]
        assert rx.gap_since is None


@given(st.permutations(list(range(12))), st.integers(min_value=0, max_value=1))
@settings(max_examples=80, deadline=None)
def test_reorder_delivery_is_strictly_increasing(order, tick_between):
    """However PDUs arrive (with duplicates), the delivered SN stream only climbs."""
    rx = ReceiverState(t_reorder_slots=3)
    seen = []
    now = 0
    for sn in order:
        for d in reorder_deliver(rx, sn, 8.0, 0, now):
            seen.append(d.sn)
        for d in reorder_deliver(rx, sn, 8.0, 0, now):  # immediate duplicate
            seen.append(d.sn)
        if tick_between:
            now += 4
            seen.extend(d.sn for d in reorder_tick(rx, now))
        now += 1
    seen.extend(d.sn for d in reorder_tick(rx, now + 10))
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    assert rx.delivered_count + len(rx.buffer) <= 12


def test_duplicate_legs_mask_single_leg_loss():
    """End-to-end sanity: two lossy copies beat one, with no duplicate deliveries."""
    rng = np.random.default_rng(42)
    state = configure_legs("f", [mk_leg("a"), mk_leg("b")], Mode.DUPLICATE)
    rx = ReceiverState(t_reorder_slots=4)
    delivered = 0
    for slot in range(2000):
        routed = route_packet(state, 64.0, created_slot=slot)
        for leg_id, sn in routed:
            if rng.random() < 0.2:  # drop this copy
                continue
            delivered_now = reorder_deliver(rx, sn, 64.0, slot, now=slot)
            delivered += len(delivered_now)
        delivered += len(reorder_tick(rx, now=slot))  # gap expiry releases too
    # residual loss ~= 0.2^2 = 4%; duplicates must all be absorbed
    assert rx.duplicates_dropped > 0
    # every SN below the head is accounted for exactly once
    assert delivered + rx.lost_count == rx.expected_sn
    assert delivered > 2000 * 0.9
    assert rx.lost_count < 2000 * 0.04 * 2.5
