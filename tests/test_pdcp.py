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
    Run,
    configure_legs,
    reorder_deliver,
    reorder_tick,
    route_packet,
    send_run,
    take_in_order,
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
    assert slow.delay_estimate_slots == pytest.approx(5.0)


def test_aggregate_tie_breaks_to_first_leg():
    a, b = mk_leg("a"), mk_leg("b")
    state = configure_legs("f", [a, b], Mode.AGGREGATE)
    assert route_packet(state, 10.0) == [("a", 0)]


def test_aggregate_dead_leg_is_avoided():
    dead = mk_leg("dead", capacity=0.0)
    live = mk_leg("live", capacity=10.0, queued=1e6)
    state = configure_legs("f", [dead, live], Mode.AGGREGATE)
    assert dead.delay_estimate_slots == float("inf")
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
@settings(max_examples=80)
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


# ---------------------------------------------------------------------------
# packet runs
# ---------------------------------------------------------------------------

def _packets(runs):
    """Runs as one (sn, bits, created_slot) per packet, in order."""
    return [(s, r.bits, r.created_slot) for r in runs for s in range(r.sn, r.sn + r.count)]


def test_a_run_is_routed_in_one_piece_except_across_aggregate_picks():
    a, b = mk_leg("a"), mk_leg("b")
    state = configure_legs("f", [a, b], Mode.DUPLICATE)
    assert route_packet(state, 64.0, created_slot=3, count=4) == [("a", 0), ("b", 0)]
    assert list(a.queue) == list(b.queue) == [Run(0, 4, 64.0, 3)]
    assert a.queue_bits == b.queue_bits == 256.0
    assert state.next_sn == 4 and state.sent_pdus == {"a": 4, "b": 4}

    # aggregate: b starts 250 bits behind a, so the packets go a, a, a, b, a, b
    a, b = mk_leg("a"), mk_leg("b", queued=250.0)
    state = configure_legs("f", [a, b], Mode.AGGREGATE)
    assert route_packet(state, 100.0, count=6) == [("a", 0), ("b", 3), ("a", 4), ("b", 5)]
    assert list(a.queue) == [Run(0, 3, 100.0, 0), Run(4, 1, 100.0, 0)]
    assert list(b.queue) == [Run(3, 1, 100.0, 0), Run(5, 1, 100.0, 0)]
    assert (a.queue_bits, b.queue_bits) == (400.0, 450.0)
    # runs never merge across calls
    route_packet(state, 100.0, count=1)
    assert list(a.queue)[-1] == Run(6, 1, 100.0, 0)

    with pytest.raises(ValueError):
        route_packet(state, 100.0, count=0)


def test_an_in_order_run_is_delivered_whole_and_a_gap_splits_it():
    rx = ReceiverState()
    assert reorder_deliver(rx, 0, 8.0, 0, now=0, count=5) == [Run(0, 5, 8.0, 0)]
    assert (rx.expected_sn, rx.delivered_count) == (5, 5)
    # 5..6 missing: 7..9 buffered SN by SN
    assert reorder_deliver(rx, 7, 8.0, 1, now=1, count=3) == []
    assert sorted(rx.buffer) == [7, 8, 9] and rx.gap_since == 1
    # 4..5: 4 is a duplicate; 5 is delivered, and the gap left at 6 restarts the timer
    assert _packets(reorder_deliver(rx, 4, 8.0, 2, now=2, count=2)) == [(5, 8.0, 2)]
    assert rx.duplicates_dropped == 1 and rx.gap_since == 2
    # 6 closes the gap and releases the buffer
    out = reorder_deliver(rx, 6, 8.0, 3, now=3)
    assert _packets(out) == [(6, 8.0, 3), (7, 8.0, 1), (8, 8.0, 1), (9, 8.0, 1)]
    assert rx.buffer == {} and rx.gap_since is None and rx.delivered_count == 10


def test_a_batch_of_uniforms_is_the_same_as_one_draw_at_a_time():
    batch, one = np.random.default_rng(11), np.random.default_rng(11)
    for k in (1, 7, 64, 3):
        assert batch.random(k).tolist() == [float(one.random()) for _ in range(k)]


def _take(leg, k):
    """Take the first ``k`` packets off the leg's queue, as runs."""
    out = []
    while k and leg.queue:
        r = leg.queue[0]
        n = min(k, r.count)
        out.append(Run(r.sn, n, r.bits, r.created_slot))
        if n == r.count:
            leg.queue.popleft()
        else:
            leg.queue[0] = Run(r.sn + n, r.count - n, r.bits, r.created_slot)
        leg.queue_bits -= r.bits * n
        k -= n
    return out


def _rx_state(rx):
    return (rx.expected_sn, rx.buffer, rx.gap_since, rx.delivered_count,
            rx.duplicates_dropped, rx.lost_count)


def _tx_state(tx):
    return tx.next_sn, tx.active_leg, tx.last_switch_epoch, tx.sent_pdus


def _lane_receive(rx, sn, bits, created, now, count):
    """A received stretch as the engine's drain takes it: at once when it
    starts at the expected SN with nothing buffered, else through the rules."""
    if sn == rx.expected_sn and not rx.buffer:
        take_in_order(rx, count)
        return [Run(sn, count, bits, created)]
    return reorder_deliver(rx, sn, bits, created, now, count)


@settings(max_examples=200)
@given(
    mode=st.sampled_from(list(Mode)),
    n_legs=st.integers(min_value=1, max_value=3),
    loss=st.sampled_from([0.0, 0.25, 0.6]),
    slots=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_run_of_n_packets_equals_n_single_packet_calls(mode, n_legs, loss, slots, seed):
    """Route, lose, reorder and deliver the same traffic three times: as runs,
    packet by packet, and as the engine's lanes do (``send_run`` for a flow
    with one leg, ``take_in_order`` for a stretch that arrives in order with
    nothing buffered, a tick only while the gap timer runs, the rules
    otherwise). Legs drain unevenly and in a shuffled order, so packets
    arrive out of order (and twice when duplicating)."""
    if mode is Mode.DUPLICATE:
        n_legs = max(n_legs, 2)
    rng = np.random.default_rng(seed)
    caps = [float(c) for c in rng.choice([0.0, 300.0, 700.0, 1500.0], n_legs)]

    def build():
        legs = [mk_leg(f"l{i}", capacity=c) for i, c in enumerate(caps)]
        return configure_legs("f", legs, mode, 0.6, 0.4), ReceiverState(t_reorder_slots=3)

    runs_tx, runs_rx = build()
    one_tx, one_rx = build()
    lane_tx, lane_rx = build()
    got_runs, got_one, got_lane = [], [], []
    for slot in range(slots):
        epoch = slot // 4
        loads = rng.uniform(0.0, 1.0, n_legs).tolist()
        for tx in (runs_tx, one_tx, lane_tx):
            for leg, load in zip(tx.legs, loads):
                leg.current_load = load
        count, bits = int(rng.integers(0, 9)), float(rng.integers(1, 600))
        if count:
            route_packet(runs_tx, bits, slot, epoch, count)
            for _ in range(count):
                route_packet(one_tx, bits, slot, epoch)
            if len(lane_tx.legs) == 1:
                send_run(lane_tx, lane_tx.legs, bits, slot, count)
            else:
                route_packet(lane_tx, bits, slot, epoch, count)
        for a, b, c in zip(runs_tx.legs, one_tx.legs, lane_tx.legs):
            assert _packets(a.queue) == _packets(b.queue) == _packets(c.queue)
            assert a.queue_bits == b.queue_bits == c.queue_bits
        assert _tx_state(runs_tx) == _tx_state(one_tx) == _tx_state(lane_tx)
        # each SN is counted once per leg it went onto
        copies = n_legs if mode is Mode.DUPLICATE else 1
        assert sum(lane_tx.sent_pdus.values()) == lane_tx.next_sn * copies

        order = rng.permutation(n_legs).tolist()
        for i in order:
            k = int(rng.integers(0, 7))
            taken = _take(runs_tx.legs[i], k)
            assert _packets(taken) == _packets(_take(one_tx.legs[i], k))
            assert _packets(taken) == _packets(_take(lane_tx.legs[i], k))
            lost = (rng.random(len(_packets(taken))) < loss).tolist()
            # as runs, and as the lanes: each stretch between lost packets
            # arrives in one call
            j = 0
            for r in taken:
                first = 0
                for x in range(r.count + 1):
                    if x == r.count or lost[j + x]:
                        if x > first:
                            args = (r.sn + first, r.bits, r.created_slot, slot, x - first)
                            got_runs += reorder_deliver(runs_rx, *args)
                            got_lane += _lane_receive(lane_rx, *args)
                        first = x + 1
                j += r.count
            # packet by packet
            for (sn, b, created), dropped in zip(_packets(taken), lost):
                if not dropped:
                    got_one += reorder_deliver(one_rx, sn, b, created, slot)
            assert _rx_state(runs_rx) == _rx_state(one_rx) == _rx_state(lane_rx)
        got_runs += reorder_tick(runs_rx, slot)
        got_one += reorder_tick(one_rx, slot)
        if lane_rx.gap_since is not None:
            got_lane += reorder_tick(lane_rx, slot)
        assert _rx_state(runs_rx) == _rx_state(one_rx) == _rx_state(lane_rx)
        # the gap timer runs exactly while something is buffered
        assert (lane_rx.gap_since is None) == (not lane_rx.buffer)
    assert all(r.count == 1 for r in got_one)
    assert got_lane == got_runs
    assert [(s, c) for s, _, c in _packets(got_runs)] == [(s, c) for s, _, c in _packets(got_one)]
