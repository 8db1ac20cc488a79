"""Split-bearer flow control above the per-cell MACs.

One flow may ride several connection legs (one per serving cell). The sender
assigns sequence numbers and routes packets according to the flow's mode:
pick the fastest leg, balance onto one leg with hysteresis, or duplicate onto
every leg. The receiver delivers strictly in order, buffers gaps, discards
duplicates silently, and declares a gap lost when its reorder timer expires.

The unit both sides work on is a ``Run``: ``count`` identical packets with
consecutive SNs, created in the same slot. Bit amounts are whole numbers below
2**53 (``whole_bits``), so ``bits * count`` equals the sum over the run's
packets exactly, and a run gives the same result as its packets one by one.
Leg queues hold runs: ``send_run`` queues one under the flow's next SNs, and
``take_in_order`` delivers one whose first SN is the expected one while
nothing is buffered. The engine calls these two itself for a flow with one
leg and for such a run, so ``route_packet`` is the rule for two or more legs
(over one leg, every mode queues the same single run), and ``reorder_deliver``
for any gap, duplicate or loss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

DEFAULT_T_REORDER_SLOTS = 50

#: Load-balance hysteresis: leave a leg only above this load...
DEFAULT_LEAVE_LOAD = 0.8
#: ...and only for an alternative below this load.
DEFAULT_ENTER_LOAD = 0.5


def whole_bits(bits: float) -> bool:
    """True if run arithmetic carries ``bits`` exactly: a whole number in
    [0, 2**53), where floats hold every whole number, so sums do not round."""
    return 0 <= bits < 2.0**53 and float(bits).is_integer()


class Mode(str, Enum):
    AGGREGATE = "aggregate"
    LOAD_BALANCE = "load_balance"
    DUPLICATE = "duplicate"


class ModeArityError(ValueError):
    """Raised when a mode's leg-count requirement is not met."""


class Run(NamedTuple):
    """``count`` packets of ``bits`` each, with SNs ``sn`` .. ``sn + count - 1``,
    all created in ``created_slot``."""

    sn: int
    count: int
    bits: float
    created_slot: int


@dataclass
class Leg:
    """One connection leg: a queue of runs toward one cell plus its quality
    estimate.

    The owner sets ``capacity_bits_per_slot`` when it builds the leg and
    refreshes ``current_load`` from the cell; ``delay_estimate_slots`` is
    queued bits over capacity.
    """

    leg_id: str
    cell_id: str
    capacity_bits_per_slot: float
    current_load: float = 0.0
    queue: deque = field(default_factory=deque)
    queue_bits: float = 0.0
    #: bits already transmitted of the head run's first packet
    head_sent_bits: float = 0.0

    def enqueue(self, run: Run) -> None:
        self.queue.append(run)
        self.queue_bits += run.bits * run.count

    @property
    def delay_estimate_slots(self) -> float:
        if self.capacity_bits_per_slot <= 0:
            return float("inf")
        return self.queue_bits / self.capacity_bits_per_slot


@dataclass
class FlowState:
    """Sender-side state of one flow: its legs, mode, and SN counter.

    SNs are unbounded ints, so a flow never runs out of them however long
    the run. ``sent_pdus`` counts the packets routed onto each leg id over
    the flow's life.
    """

    flow_id: str
    mode: Mode
    legs: list[Leg]
    leave_load: float = DEFAULT_LEAVE_LOAD
    enter_load: float = DEFAULT_ENTER_LOAD
    next_sn: int = 0
    active_leg: int = 0
    last_switch_epoch: int = -1
    sent_pdus: dict[str, int] = field(default_factory=dict)

    def leg_by_cell(self, cell_id: str) -> Leg | None:
        for leg in self.legs:
            if leg.cell_id == cell_id:
                return leg
        return None


def configure_legs(
    flow_id: str,
    legs: list[Leg],
    mode: Mode,
    leave_load: float = DEFAULT_LEAVE_LOAD,
    enter_load: float = DEFAULT_ENTER_LOAD,
) -> FlowState:
    """Build a flow over the given legs in the given mode.

    Duplicate mode requires at least two legs; every mode requires at least
    one. Leg and cell ids must be distinct.
    """
    if not legs:
        raise ModeArityError(f"flow {flow_id!r}: at least one leg required")
    if mode is Mode.DUPLICATE and len(legs) < 2:
        raise ModeArityError(f"flow {flow_id!r}: duplicate mode needs >= 2 legs")
    ids = [l.leg_id for l in legs]
    cells = [l.cell_id for l in legs]
    if len(set(ids)) != len(ids) or len(set(cells)) != len(cells):
        raise ValueError(f"flow {flow_id!r}: legs must have distinct leg and cell ids")
    if not (0.0 <= enter_load <= leave_load <= 1.0):
        raise ValueError("need 0 <= enter_load <= leave_load <= 1")
    return FlowState(
        flow_id=flow_id, mode=mode, legs=list(legs),
        leave_load=leave_load, enter_load=enter_load,
    )


def route_packet(
    state: FlowState, packet_bits: float, created_slot: int = 0, epoch: int = 0, count: int = 1
) -> list[tuple[str, int]]:
    """Assign the next ``count`` SNs and enqueue the packets on the mode's
    leg(s) as runs.

    Returns (leg_id, first SN) per run sent. Aggregate picks, per packet, the
    leg with the smallest delay estimate (ties to the lowest leg index);
    consecutive packets that pick the same leg form one run. Load-balance
    sticks to the active leg, switching at most once per epoch and only when
    the active leg's load exceeds ``leave_load`` while some alternative sits
    below ``enter_load``; loads do not change within a call, so one decision
    covers all ``count`` packets. Duplicate sends the same run on every leg.
    Runs never merge across calls.
    """
    if count < 1:
        raise ValueError(f"flow {state.flow_id!r}: a run holds at least one packet, got {count}")
    legs = state.legs

    if state.mode is Mode.DUPLICATE:
        if len(legs) < 2:
            raise ModeArityError(f"flow {state.flow_id!r}: duplicate mode needs >= 2 legs")
        sn = send_run(state, legs, packet_bits, created_slot, count)
        return [(leg.leg_id, sn) for leg in legs]

    if state.mode is Mode.AGGREGATE:
        # per packet, each seeing the bits its predecessors queued; a packet
        # that picks its predecessor's leg joins that run
        sent: list[tuple[str, int]] = []
        prev = None
        for _ in range(count):
            leg = legs[min(range(len(legs)), key=lambda i: (legs[i].delay_estimate_slots, i))]
            if leg is prev:
                tail = leg.queue[-1]
                leg.queue[-1] = tail._replace(count=tail.count + 1)
                leg.queue_bits += packet_bits
                state.sent_pdus[leg.leg_id] += 1
                state.next_sn += 1
            else:
                sent.append((leg.leg_id, send_run(state, [leg], packet_bits, created_slot, 1)))
            prev = leg
        return sent

    # load balance: ``active_leg`` indexes ``legs``, as whoever drops a leg leaves it
    active = state.active_leg
    if legs[active].current_load > state.leave_load and state.last_switch_epoch != epoch:
        alts = [i for i, l in enumerate(legs) if i != active and l.current_load < state.enter_load]
        if alts:
            state.active_leg = min(alts, key=lambda i: (legs[i].current_load, i))
            state.last_switch_epoch = epoch
    leg = legs[state.active_leg]
    return [(leg.leg_id, send_run(state, [leg], packet_bits, created_slot, count))]


def send_run(state: FlowState, legs: list[Leg], bits: float, created_slot: int, count: int) -> int:
    """Give the flow's next ``count`` SNs to one run of ``bits``-bit packets
    created in ``created_slot``, queue it on each of ``legs`` and count it in
    ``sent_pdus``; return its first SN."""
    sn = state.next_sn
    state.next_sn = sn + count
    run = Run(sn, count, bits, created_slot)
    sent = state.sent_pdus
    for leg in legs:
        leg.enqueue(run)
        sent[leg.leg_id] = sent.get(leg.leg_id, 0) + count
    return sn


@dataclass
class ReceiverState:
    """Receive-side reordering window for one flow. ``buffer`` maps each buffered SN to its
    (bits, created_slot); the gap timer ``gap_since`` runs exactly while something is buffered."""

    t_reorder_slots: int = DEFAULT_T_REORDER_SLOTS
    expected_sn: int = 0
    buffer: dict = field(default_factory=dict)
    gap_since: int | None = None
    delivered_count: int = 0
    duplicates_dropped: int = 0
    lost_count: int = 0


def _drain(rx: ReceiverState, out: list[Run]) -> None:
    while rx.expected_sn in rx.buffer:
        bits, created = rx.buffer.pop(rx.expected_sn)
        out.append(Run(rx.expected_sn, 1, bits, created))
        rx.expected_sn += 1
        rx.delivered_count += 1


def take_in_order(rx: ReceiverState, count: int) -> None:
    """Deliver ``count`` packets from ``rx.expected_sn`` on, with nothing
    buffered: the receiver's bookkeeping for a run that arrives in order."""
    rx.expected_sn += count
    rx.delivered_count += count


def reorder_deliver(
    rx: ReceiverState, sn: int, bits: float, created_slot: int, now: int, count: int = 1
) -> list[Run]:
    """Accept an arriving run of ``count`` packets from ``sn`` on; return
    everything deliverable in order, as runs.

    The run is taken SN by SN, with the same result as ``count`` one-packet
    calls: already-delivered or already-buffered SNs are dropped silently
    (duplicate elimination); an out-of-order arrival opens the gap timer; a
    delivery that still leaves a gap restarts it. Once an SN is the expected
    one and nothing is buffered, the rest of the run is delivered at once.
    """
    out: list[Run] = []
    for s in range(sn, sn + count):
        if s == rx.expected_sn and not rx.buffer:
            rest = sn + count - s
            out.append(Run(s, rest, bits, created_slot))
            take_in_order(rx, rest)
            break
        if s < rx.expected_sn or s in rx.buffer:
            rx.duplicates_dropped += 1
            continue
        before = len(out)
        if s == rx.expected_sn:
            out.append(Run(s, 1, bits, created_slot))
            rx.expected_sn += 1
            rx.delivered_count += 1
            _drain(rx, out)
        else:
            rx.buffer[s] = (bits, created_slot)
        if rx.buffer:
            if rx.gap_since is None or len(out) > before:
                rx.gap_since = now  # a gap just opened, or a delivery left a new one
        else:
            rx.gap_since = None
    return out


def reorder_tick(rx: ReceiverState, now: int) -> list[Run]:
    """Advance the reorder timer; on expiry, declare the head gap lost.

    Releases the buffered SNs above the expired gap (in order); a remaining
    gap restarts the timer at ``now``.
    """
    out: list[Run] = []
    if rx.gap_since is None:
        return out
    if now - rx.gap_since < rx.t_reorder_slots:
        return out
    nxt = min(rx.buffer)
    rx.lost_count += nxt - rx.expected_sn
    rx.expected_sn = nxt
    _drain(rx, out)
    rx.gap_since = now if rx.buffer else None
    return out
