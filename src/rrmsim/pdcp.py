"""Split-bearer flow control above the per-cell MACs.

One flow may ride several connection legs (one per serving cell). The sender
assigns sequence numbers and routes each packet according to the flow's mode:
pick the fastest leg, balance onto one leg with hysteresis, or duplicate onto
every leg. The receiver delivers strictly in order, buffers gaps, discards
duplicates silently, and declares a gap lost when its reorder timer expires.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

DEFAULT_T_REORDER_SLOTS = 50

#: Load-balance hysteresis: leave a leg only above this load...
DEFAULT_LEAVE_LOAD = 0.8
#: ...and only for an alternative below this load.
DEFAULT_ENTER_LOAD = 0.5


class Mode(str, Enum):
    AGGREGATE = "aggregate"
    LOAD_BALANCE = "load_balance"
    DUPLICATE = "duplicate"


class ModeArityError(ValueError):
    """Raised when a mode's leg-count requirement is not met."""


@dataclass(frozen=True)
class Pdu:
    sn: int
    bits: float
    created_slot: int


@dataclass
class Leg:
    """One connection leg: a queue toward one cell plus its quality estimate.

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
    #: bits of the head PDU already transmitted (partial-PDU progress)
    head_sent_bits: float = 0.0

    def enqueue(self, pdu: Pdu) -> None:
        self.queue.append(pdu)
        self.queue_bits += pdu.bits

    @property
    def delay_estimate_slots(self) -> float:
        if self.capacity_bits_per_slot <= 0:
            return float("inf")
        return self.queue_bits / self.capacity_bits_per_slot


@dataclass
class FlowState:
    """Sender-side state of one flow: its legs, mode, and SN counter.

    SNs are unbounded ints, so a flow never runs out of them however long
    the run.
    """

    flow_id: str
    mode: Mode
    legs: list[Leg]
    leave_load: float = DEFAULT_LEAVE_LOAD
    enter_load: float = DEFAULT_ENTER_LOAD
    next_sn: int = 0
    active_leg: int = 0
    last_switch_epoch: int = -1

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
    state: FlowState, packet_bits: float, created_slot: int = 0, epoch: int = 0
) -> list[tuple[str, int]]:
    """Assign the next SN and enqueue the packet on the mode's leg(s).

    Returns (leg_id, sn) per copy sent. Aggregate picks the leg with the
    smallest delay estimate (ties to the lowest leg index). Load-balance
    sticks to the active leg, switching at most once per epoch and only when
    the active leg's load exceeds ``leave_load`` while some alternative sits
    below ``enter_load``. Duplicate sends the same SN on every leg.
    """
    sn = state.next_sn
    state.next_sn += 1
    pdu = Pdu(sn=sn, bits=packet_bits, created_slot=created_slot)

    if state.mode is Mode.DUPLICATE:
        if len(state.legs) < 2:
            raise ModeArityError(f"flow {state.flow_id!r}: duplicate mode needs >= 2 legs")
        for leg in state.legs:
            leg.enqueue(pdu)
        return [(leg.leg_id, sn) for leg in state.legs]

    if state.mode is Mode.AGGREGATE:
        best = min(range(len(state.legs)), key=lambda i: (state.legs[i].delay_estimate_slots, i))
        state.legs[best].enqueue(pdu)
        return [(state.legs[best].leg_id, sn)]

    # load_balance
    if state.active_leg >= len(state.legs):
        state.active_leg = 0
    cur = state.legs[state.active_leg]
    if cur.current_load > state.leave_load and state.last_switch_epoch != epoch:
        alts = [
            i
            for i in range(len(state.legs))
            if i != state.active_leg and state.legs[i].current_load < state.enter_load
        ]
        if alts:
            best = min(alts, key=lambda i: (state.legs[i].current_load, i))
            state.active_leg = best
            state.last_switch_epoch = epoch
    leg = state.legs[state.active_leg]
    leg.enqueue(pdu)
    return [(leg.leg_id, sn)]


@dataclass(frozen=True)
class Delivered:
    sn: int
    bits: float
    created_slot: int


@dataclass
class ReceiverState:
    """Receive-side reordering window for one flow."""

    t_reorder_slots: int = DEFAULT_T_REORDER_SLOTS
    expected_sn: int = 0
    buffer: dict = field(default_factory=dict)
    gap_since: int | None = None
    delivered_count: int = 0
    duplicates_dropped: int = 0
    lost_count: int = 0


def _drain(rx: ReceiverState, out: list[Delivered]) -> None:
    while rx.expected_sn in rx.buffer:
        bits, created = rx.buffer.pop(rx.expected_sn)
        out.append(Delivered(rx.expected_sn, bits, created))
        rx.expected_sn += 1
        rx.delivered_count += 1


def reorder_deliver(
    rx: ReceiverState, sn: int, bits: float, created_slot: int, now: int
) -> list[Delivered]:
    """Accept one arriving PDU; return everything deliverable in order.

    Already-delivered or already-buffered SNs are dropped silently (duplicate
    elimination). An out-of-order arrival opens the gap timer; a delivery
    that still leaves a gap restarts it.
    """
    if sn < rx.expected_sn or sn in rx.buffer:
        rx.duplicates_dropped += 1
        return []
    out: list[Delivered] = []
    if sn == rx.expected_sn:
        out.append(Delivered(sn, bits, created_slot))
        rx.expected_sn += 1
        rx.delivered_count += 1
        _drain(rx, out)
    else:
        rx.buffer[sn] = (bits, created_slot)
    if rx.buffer:
        if rx.gap_since is None:
            rx.gap_since = now
        elif out:
            rx.gap_since = now  # a new gap is now at the head
    else:
        rx.gap_since = None
    return out


def reorder_tick(rx: ReceiverState, now: int) -> list[Delivered]:
    """Advance the reorder timer; on expiry, declare the head gap lost.

    Releases the buffered SNs above the expired gap (in order); a remaining
    gap restarts the timer at ``now``.
    """
    out: list[Delivered] = []
    if rx.gap_since is None:
        return out
    if now - rx.gap_since < rx.t_reorder_slots:
        return out
    if not rx.buffer:
        rx.gap_since = None
        return out
    nxt = min(rx.buffer)
    rx.lost_count += nxt - rx.expected_sn
    rx.expected_sn = nxt
    _drain(rx, out)
    rx.gap_since = now if rx.buffer else None
    return out
