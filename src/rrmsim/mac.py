"""Unified per-cell MAC: one coordinator, several access mechanisms.

The coordinator splits a carrier the same way at every level — first between
shared-spectrum portions, then (optionally) between slices, then between
traffic classes — and runs a class-appropriate scheduler inside each leaf:
proportional-fair for queue-driven broadband, semi-persistent reservations for
deadline traffic, and one-shot contention for sporadic small payloads. The
same exact integer apportionment (largest remainder) is used at every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .abstraction import link_rate
from .core import (
    CLASS_ORDER,
    AllocationMap,
    CarrierGrid,
    Cell,
    Event,
    Grant,
    TrafficClass,
)

#: Partition key for the contention-based access channel. It is part of every
#: partition the coordinator emits, UEs or not.
RACH_KEY = "rach"

#: Implicit slice for flows without a slice label in a sliced cell.
DEFAULT_SLICE = "default"


class InsufficientResourcesError(Exception):
    """Total PRBs cannot cover the minimum guarantees of the active keys."""


class ReconfigRequiredError(Exception):
    """A semi-persistent reservation no longer fits its partition."""

    def __init__(self, flow_id: str):
        super().__init__(f"reservation for flow {flow_id!r} does not fit; reconfigure")
        self.flow_id = flow_id


# ---------------------------------------------------------------------------
# exact apportionment
# ---------------------------------------------------------------------------

def largest_remainder(demands: Sequence[int], total: int) -> list[int]:
    """Split ``total`` integer units proportionally to integer ``demands``.

    Exact integer arithmetic throughout: shares are floor(total*d/sum), and
    leftovers go to the largest exact remainders total*d mod sum, ties to the
    lowest index. The result always sums to ``total``.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if any(d < 0 for d in demands):
        raise ValueError("demands must be >= 0")
    s = sum(demands)
    if s == 0:
        raise ValueError("demands must not be all zero")
    floors = [total * d // s for d in demands]
    rems = [total * d % s for d in demands]
    leftover = total - sum(floors)
    order = sorted(range(len(demands)), key=lambda i: (-rems[i], i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint, contiguous PRB intervals per key for one epoch.

    Intervals are half-open [start, stop); keys keep the order in which the
    demands were given. Assigned PRBs never exceed the planned total.
    """

    epoch_index: int
    start: int
    total: int
    entries: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        cursor = self.start
        for key, a, b in self.entries:
            if a != cursor or b < a:
                raise ValueError(f"entries must be contiguous from {self.start}: {self.entries}")
            cursor = b
        if cursor - self.start > self.total:
            raise ValueError("assigned PRBs exceed plan total")

    def interval(self, key: str) -> tuple[int, int]:
        for k, a, b in self.entries:
            if k == key:
                return (a, b)
        raise KeyError(key)

    def size(self, key: str) -> int:
        a, b = self.interval(key)
        return b - a

    def keys(self) -> list[str]:
        return [k for k, _, _ in self.entries]

    def assigned(self) -> int:
        return sum(b - a for _, a, b in self.entries)


def partition_resources(
    demands: Mapping[str, int],
    total_prbs: int,
    min_guarantee: int | Mapping[str, int] = 1,
    epoch_index: int = 0,
    start: int = 0,
) -> PartitionPlan:
    """Partition ``total_prbs`` among the keys of ``demands``.

    Every key is active and receives at least its minimum guarantee (a single
    integer applied to all keys, or a per-key mapping). If the demands fit,
    each key gets exactly its demand (never less than the guarantee);
    otherwise the surplus above the guarantees is apportioned by exact largest
    remainder. Raises InsufficientResourcesError when the guarantees alone do
    not fit.
    """
    keys = list(demands)
    if not keys:
        return PartitionPlan(epoch_index, start, total_prbs, ())
    if isinstance(min_guarantee, int):
        mins = {k: min_guarantee for k in keys}
    else:
        mins = {k: int(min_guarantee.get(k, 0)) for k in keys}
    if any(m < 0 for m in mins.values()):
        raise ValueError("min_guarantee must be >= 0")
    base = sum(mins.values())
    if total_prbs < base:
        raise InsufficientResourcesError(
            f"{total_prbs} PRBs cannot cover guarantees totalling {base}"
        )
    extras = [max(0, int(demands[k]) - mins[k]) for k in keys]
    avail = total_prbs - base
    if sum(extras) <= avail:
        sizes = [mins[k] + e for k, e in zip(keys, extras)]
    else:
        shares = largest_remainder(extras, avail)
        sizes = [mins[k] + s for k, s in zip(keys, shares)]
    entries = []
    cursor = start
    for k, sz in zip(keys, sizes):
        entries.append((k, cursor, cursor + sz))
        cursor += sz
    return PartitionPlan(epoch_index, start, total_prbs, tuple(entries))


def dss_split(demand_a: int, demand_b: int, total_prbs: int) -> tuple[int, int]:
    """Split a shared carrier between two coexisting portions.

    Proportional by exact largest remainder; the two sizes always sum to
    ``total_prbs``. A zero-demand side gets zero; when both demand, each side
    gets at least one PRB; when neither demands, the carrier splits evenly
    with the odd PRB going to the first portion.
    """
    if demand_a < 0 or demand_b < 0 or total_prbs < 0:
        raise ValueError("demands and total must be >= 0")
    if demand_a == 0 and demand_b == 0:
        a, b = largest_remainder([1, 1], total_prbs)
        return (a, b)
    if demand_a == 0:
        return (0, total_prbs)
    if demand_b == 0:
        return (total_prbs, 0)
    if total_prbs < 2:
        raise InsufficientResourcesError(
            f"{total_prbs} PRBs cannot host two demanding portions"
        )
    a, b = largest_remainder([demand_a, demand_b], total_prbs)
    if a == 0:
        a, b = 1, total_prbs - 1
    elif b == 0:
        a, b = total_prbs - 1, 1
    return (a, b)


def estimate_demands(
    backlog_bits: Mapping[str, float],
    per_prb_bits: float,
    pending_attempts: int = 0,
    access_cost_prbs: int = 1,
) -> dict[str, int]:
    """PRB demand per key from queue backlogs plus the access channel.

    Queue-driven keys need ceil(backlog / per-PRB rate) PRBs; the access key
    needs one resource (``access_cost_prbs`` PRBs) per pending attempt.
    """
    if per_prb_bits <= 0:
        raise ValueError("per_prb_bits must be positive")
    if pending_attempts < 0:
        raise ValueError("pending_attempts must be >= 0")
    out: dict[str, int] = {}
    for key, bits in backlog_bits.items():
        if bits < 0:
            raise ValueError(f"backlog for {key!r} must be >= 0")
        out[key] = math.ceil(bits / per_prb_bits) if bits > 0 else 0
    out[RACH_KEY] = pending_attempts * access_cost_prbs
    return out


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PfCandidate:
    ue_id: str
    per_prb_bits: float
    backlog_bits: float
    avg_bits: float

    def __post_init__(self):
        if self.per_prb_bits < 0 or self.backlog_bits < 0:
            raise ValueError("rates and backlogs must be >= 0")
        if self.avg_bits <= 0:
            raise ValueError("avg_bits must be positive")


def schedule_dynamic_blocks(
    interval: tuple[int, int], candidates: Sequence[PfCandidate]
) -> tuple[list[tuple[int, int, str]], dict[str, float]]:
    """Proportional-fair fill of one interval, one contiguous block per winner.

    Same outcome as giving each PRB in turn to the backlogged candidate that
    maximizes instantaneous rate over average served rate (ties to the lowest
    ue_id): that metric is fixed within the slot, so a winner holds every PRB
    until its backlog drains, and ``kernels.pf_fill`` computes the runs
    directly. Work-conserving: PRBs are left idle only when no candidate has
    backlog remaining.

    Returns half-open ``(start, stop, ue_id)`` blocks in PRB order and the
    bits served per candidate this slot (the caller owns the running-average
    update).
    """
    start, stop = interval
    n_prbs = stop - start
    if n_prbs <= 0 or not candidates:
        return [], {}
    ids = [c.ue_id for c in candidates]
    if len(set(ids)) != len(ids):
        raise ValueError("candidates must have distinct ue_ids")
    cands = sorted(candidates, key=lambda c: c.ue_id)
    runs, served = kernels.pf_fill(
        [c.per_prb_bits / c.avg_bits for c in cands],
        [c.per_prb_bits for c in cands],
        [c.backlog_bits for c in cands],
        n_prbs,
    )
    blocks = []
    for idx, k in runs:
        blocks.append((start, start + k, cands[idx].ue_id))
        start += k
    return blocks, {c.ue_id: served[i] for i, c in enumerate(cands)}


def schedule_dynamic(
    interval: tuple[int, int],
    candidates: Sequence[PfCandidate],
    purpose: str = TrafficClass.EMBB.value,
) -> tuple[list[Grant], dict[str, float]]:
    """Proportional-fair fill of one interval as one Grant per PRB.

    The per-PRB form of ``schedule_dynamic_blocks`` (same rule, same served
    bits), for callers that compare per-PRB owners.
    """
    blocks, served = schedule_dynamic_blocks(interval, candidates)
    grants = [
        Grant(prb=p, owner=ue, purpose=purpose) for a, b, ue in blocks for p in range(a, b)
    ]
    return grants, served


@dataclass(frozen=True)
class SpsFlow:
    flow_id: str
    ue_id: str
    period_slots: int
    prbs_needed: int
    offset_slots: int = 0

    def __post_init__(self):
        if self.period_slots < 1 or self.prbs_needed < 1 or self.offset_slots < 0:
            raise ValueError("period/prbs must be >= 1 and offset >= 0")

    def due(self, slot: int) -> bool:
        return slot >= self.offset_slots and (slot - self.offset_slots) % self.period_slots == 0


def sps_place(
    interval: tuple[int, int], flows: Sequence[SpsFlow]
) -> dict[str, tuple[int, int]]:
    """First-fit column placement of reservations inside an interval.

    Columns are assigned in the given flow order; raises ReconfigRequiredError
    for the first flow that no longer fits.
    """
    start, stop = interval
    cursor = start
    placed: dict[str, tuple[int, int]] = {}
    for f in flows:
        if cursor + f.prbs_needed > stop:
            raise ReconfigRequiredError(f.flow_id)
        placed[f.flow_id] = (cursor, cursor + f.prbs_needed)
        cursor += f.prbs_needed
    return placed


def _first_gap(
    lo: int, hi: int, taken: list[tuple[int, int]], need: int
) -> tuple[int, int] | None:
    """Lowest block of ``need`` free columns in [lo, hi) avoiding ``taken``
    (sorted, pairwise disjoint)."""
    cursor = lo
    for s, e in taken:
        if s - cursor >= need:
            return (cursor, cursor + need)
        cursor = max(cursor, e)
    if hi - cursor >= need:
        return (cursor, cursor + need)
    return None


def schedule_semi_persistent(
    interval: tuple[int, int],
    flows: Sequence[SpsFlow],
    slot: int,
    purpose: str = TrafficClass.URLLC.value,
) -> list[Grant]:
    """Emit this slot's grants for periodic reservations in an interval.

    Grants repeat on the reserved columns every period with no per-slot
    signalling; non-due slots produce nothing for that flow.
    """
    placements = sps_place(interval, flows)
    grants: list[Grant] = []
    for f in flows:
        if not f.due(slot):
            continue
        a, b = placements[f.flow_id]
        grants.extend(Grant(prb=p, owner=f.ue_id, purpose=purpose) for p in range(a, b))
    return grants


class AccessStatus(str, Enum):
    SUCCESS = "success"
    COLLISION = "collision"


@dataclass(frozen=True)
class Contender:
    ue_id: str
    payload_bits: float = 0.0


@dataclass(frozen=True)
class AccessOutcome:
    ue_id: str
    status: AccessStatus
    resource: int
    payload_bits: float


def schedule_one_shot(
    interval: tuple[int, int],
    contenders: Sequence[Contender],
    rng: np.random.Generator,
    access_cost_prbs: int = 1,
    purpose: str = RACH_KEY,
) -> tuple[list[AccessOutcome], list[Grant]]:
    """One contention round: uniform independent picks over the resources.

    The interval holds floor(size / access_cost_prbs) access resources. A
    resource picked by exactly one contender succeeds and carries its payload;
    resources picked by two or more collide and serve nobody. Only successful
    picks produce grants, so exclusivity is preserved by construction.
    """
    start, stop = interval
    if access_cost_prbs < 1:
        raise ValueError("access_cost_prbs must be >= 1")
    m = (stop - start) // access_cost_prbs
    if m < 1:
        raise InsufficientResourcesError(
            f"interval {interval} holds no access resource of {access_cost_prbs} PRBs"
        )
    if not contenders:
        return [], []
    picks = np.asarray(rng.integers(0, m, size=len(contenders)), dtype=np.int64)
    collided = kernels.classify_picks(picks, m)
    outcomes: list[AccessOutcome] = []
    grants: list[Grant] = []
    for i, c in enumerate(contenders):
        res = int(picks[i])
        if bool(collided[i]):
            outcomes.append(AccessOutcome(c.ue_id, AccessStatus.COLLISION, res, c.payload_bits))
        else:
            outcomes.append(AccessOutcome(c.ue_id, AccessStatus.SUCCESS, res, c.payload_bits))
            a = start + res * access_cost_prbs
            grants.extend(
                Grant(prb=p, owner=c.ue_id, purpose=purpose)
                for p in range(a, a + access_cost_prbs)
            )
    return outcomes, grants


# ---------------------------------------------------------------------------
# per-cell coordinator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PortionSpec:
    """One spectrum portion of a (possibly shared) carrier.

    A plain carrier has a single portion. A shared carrier declares one
    portion per coexisting waveform; ``required_capability`` gates which UEs
    may ride it and ``waveform_efficiency`` scales its rate model.
    """

    key: str
    required_capability: str | None = None
    waveform_efficiency: float = 1.0

    def __post_init__(self):
        if not self.key:
            raise ValueError("portion key must be non-empty")
        if not (0.0 < self.waveform_efficiency <= 1.0):
            raise ValueError("waveform_efficiency must be in (0, 1]")


@dataclass(frozen=True)
class MacConfig:
    epoch_slots: int = 10
    min_guarantee_prbs: int = 1
    access_cost_prbs: int = 1
    pf_ewma: float = 0.01
    pf_initial_avg_bits: float = 1.0
    demand_sinr_db: float = 10.0
    backoff_min_epochs: int = 1
    backoff_max_epochs: int = 8

    def __post_init__(self):
        if self.epoch_slots < 1:
            raise ValueError("epoch_slots must be >= 1")
        if not (0.0 < self.pf_ewma <= 1.0):
            raise ValueError("pf_ewma must be in (0, 1]")
        if self.backoff_min_epochs < 1 or self.backoff_max_epochs < self.backoff_min_epochs:
            raise ValueError("backoff window must satisfy 1 <= min <= max")


@dataclass(frozen=True)
class MacFlow:
    """A flow as the MAC sees it: who, what class, which portion/slice."""

    flow_id: str
    ue_id: str
    service: TrafficClass
    portion_key: str
    slice_id: str | None = None
    sps_period_slots: int | None = None
    sps_prbs: int | None = None
    sps_offset_slots: int = 0


@dataclass(eq=False)
class PendingAccess:
    """One queued access attempt; identity semantics on purpose, since two
    attempts from the same flow in the same slot are distinct objects."""

    flow_id: str
    ue_id: str
    portion_key: str
    payload_bits: float
    created_slot: int
    ready_epoch: int


@dataclass(frozen=True)
class SlotInputs:
    """Per-slot view the owner must supply: queues and current rates.

    ``backlog_bits`` maps flow_id to bits queued toward this cell;
    ``per_prb_bits`` maps (ue_id, portion_key) to deliverable bits per PRB in
    this slot.
    """

    backlog_bits: Mapping[str, float]
    per_prb_bits: Mapping[tuple[str, str], float]


@dataclass
class _Leaf:
    portion_key: str
    slice_id: str | None
    key: str
    interval: tuple[int, int]
    #: the flows this leaf owns, by UE in ue_id order, each UE's in flow_id
    #: order; rebuilt when flows or leaves change (see ``_build_rosters``)
    roster: dict[str, list[MacFlow]] = field(default_factory=dict)


@dataclass
class MacSlotResult:
    slot: int
    alloc: AllocationMap
    served_bits: dict[str, float]
    access_delivered: list[PendingAccess]
    outcomes: list[AccessOutcome]
    events: list[Event]


class MacInstance:
    """The coordinator owning one cell's grid.

    Call ``register_flow``/``queue_attempt`` as the population changes, then
    ``run_slot`` once per slot with fresh SlotInputs. Partitions refresh on
    epoch boundaries; contention rounds run on the epoch's first slot.
    """

    def __init__(self, cell: Cell, portions: Sequence[PortionSpec], config: MacConfig):
        if not portions:
            raise ValueError("a coordinator needs at least one portion")
        if len(portions) > 2:
            raise ValueError("at most two portions may share one carrier")
        keys = [p.key for p in portions]
        if len(set(keys)) != len(keys):
            raise ValueError("portion keys must be unique")
        self.cell = cell
        self.portions = list(portions)
        self.cfg = config
        self.flows: dict[str, MacFlow] = {}
        self.pending: list[PendingAccess] = []
        self.pf_avg: dict[str, float] = {}
        self.epoch_index = -1
        self.demand_prbs = 0
        self.load_fraction = 0.0
        self._leaves: list[_Leaf] = []
        self._sps_placements: dict[str, tuple[int, int]] = {}
        self._sps_active: dict[str, SpsFlow] = {}
        # UEs with a PF-scheduled flow, in order of their first flow_id
        self._dynamic_ues: list[str] = []
        self._rosters_stale = True

    # -- population ---------------------------------------------------------

    def register_flow(self, flow: MacFlow) -> None:
        if flow.flow_id in self.flows:
            raise ValueError(f"flow {flow.flow_id!r} already registered")
        if flow.portion_key not in {p.key for p in self.portions}:
            raise ValueError(f"unknown portion {flow.portion_key!r}")
        if flow.service is TrafficClass.URLLC:
            if not flow.sps_period_slots or not flow.sps_prbs:
                raise ValueError("URLLC flows need sps_period_slots and sps_prbs")
        self.flows[flow.flow_id] = flow
        self._rosters_stale = True

    def deregister_flow(self, flow_id: str) -> None:
        self.flows.pop(flow_id, None)
        self.pending = [p for p in self.pending if p.flow_id != flow_id]
        self._rosters_stale = True

    def queue_attempt(self, flow_id: str, payload_bits: float, slot: int) -> None:
        flow = self.flows[flow_id]
        self.pending.append(
            PendingAccess(
                flow_id=flow_id,
                ue_id=flow.ue_id,
                portion_key=flow.portion_key,
                payload_bits=payload_bits,
                created_slot=slot,
                ready_epoch=slot // self.cfg.epoch_slots,
            )
        )

    # -- partitioning -------------------------------------------------------

    def portion(self, key: str) -> PortionSpec:
        for p in self.portions:
            if p.key == key:
                return p
        raise KeyError(key)

    def reference_per_prb_bits(self, portion_key: str) -> float:
        """Stable per-PRB rate used for sizing (not per-slot scheduling)."""
        p = self.portion(portion_key)
        return link_rate(self.cfg.demand_sinr_db, 1, p.waveform_efficiency, self.cell.grid)

    def _portion_demands(self, inputs: SlotInputs, epoch: int) -> dict[str, dict]:
        """Raw demand breakdown per portion: classes, slices, access."""
        out: dict[str, dict] = {}
        for p in self.portions:
            flows = [f for f in self.flows.values() if f.portion_key == p.key]
            pending_ready = sum(
                1 for a in self.pending if a.portion_key == p.key and a.ready_epoch <= epoch
            )
            rate = self.reference_per_prb_bits(p.key)
            # Sporadic-access flows ride the contention channel; they neither
            # hold queue partitions nor force the slice dimension open.
            queued = [f for f in flows if f.service is not TrafficClass.MMTC]
            sliced = any(f.slice_id for f in queued)
            groups: dict[str | None, list[MacFlow]] = {}
            for f in queued:
                sid = (f.slice_id or DEFAULT_SLICE) if sliced else None
                groups.setdefault(sid, []).append(f)
            per_slice: dict[str | None, dict[str, int]] = {}
            for sid, fl in sorted(groups.items(), key=lambda kv: kv[0] or ""):
                backlog: dict[str, float] = {}
                for tc in CLASS_ORDER:
                    if tc in (TrafficClass.MMTC, TrafficClass.URLLC):
                        continue
                    cl = [f for f in fl if f.service is tc]
                    if cl:
                        backlog[tc.value] = sum(
                            inputs.backlog_bits.get(f.flow_id, 0.0) for f in cl
                        )
                demands = estimate_demands(backlog, rate, 0, self.cfg.access_cost_prbs)
                demands.pop(RACH_KEY)
                sps = [f for f in fl if f.service is TrafficClass.URLLC]
                if sps:
                    demands[TrafficClass.URLLC.value] = sum(f.sps_prbs or 0 for f in sps)
                per_slice[sid] = demands
            out[p.key] = {
                "per_slice": per_slice,
                "sliced": sliced,
                "access": pending_ready * self.cfg.access_cost_prbs,
                "flows": flows,
            }
        return out

    @staticmethod
    def _ordered(demands: dict[str, int]) -> dict[str, int]:
        order = [tc.value for tc in CLASS_ORDER]
        return {k: demands[k] for k in sorted(demands, key=lambda k: (order.index(k), k))}

    def _class_mins(self, demands: Mapping[str, int]) -> dict[str, int]:
        """Per-class guarantees: standing reservations are floors, not shares.

        Deadline traffic holds its reserved columns outright; queue-driven
        classes get the configured minimum and compete for the rest.
        """
        g = self.cfg.min_guarantee_prbs
        return {
            key: max(g, int(d)) if key == TrafficClass.URLLC.value else g
            for key, d in demands.items()
        }

    def _top_mins(self, info: dict, reserve: bool, size: int | None = None) -> dict[str, int]:
        """Per-key guarantees at a portion's top partition level.

        With ``reserve`` the floors include standing reservations and the
        current access demand (so a retry backlog cannot be starved into a
        collision avalanche by saturated broadband queues); without it they
        shrink to the bare per-key minimum (the degraded fallback when
        reservations no longer fit). ``size`` caps the access floor at
        whatever the portion can spare after the other guarantees.
        """
        g = self.cfg.min_guarantee_prbs
        mins: dict[str, int] = {}
        if info["sliced"]:
            for sid in sorted(k for k in info["per_slice"]):
                dem = info["per_slice"][sid]
                inner = sum(self._class_mins(dem).values()) if reserve else len(dem) * g
                mins[sid] = max(g, inner)
        else:
            dem = info["per_slice"].get(None, {})
            mins.update(self._class_mins(dem) if reserve else {k: g for k in dem})
        # The access partition always holds at least one whole access
        # resource, whatever a resource costs.
        access_min = max(g, self.cfg.access_cost_prbs)
        if reserve and info["access"] > access_min:
            room = (size - sum(mins.values())) if size is not None else info["access"]
            access_min = max(access_min, min(info["access"], room))
        mins[RACH_KEY] = access_min
        return mins

    def _min_needed(self, info: dict) -> int:
        """PRBs the portion needs just to honor bare guarantees."""
        return sum(self._top_mins(info, reserve=False).values())

    def _partition_with_reserve(
        self,
        demands: Mapping[str, int],
        size: int,
        mins: Mapping[str, int],
        fallback: Mapping[str, int],
        epoch: int,
        start: int,
    ) -> PartitionPlan:
        """Partition honoring reservation floors, degrading them if they
        cannot fit (the placement pass then reports what was dropped)."""
        try:
            return partition_resources(demands, size, dict(mins), epoch, start)
        except InsufficientResourcesError:
            if dict(mins) == dict(fallback):
                raise
            return partition_resources(demands, size, dict(fallback), epoch, start)

    def refresh_partitions(self, slot: int, inputs: SlotInputs) -> list[Event]:
        """Recompute the full partition tree for the epoch starting at slot."""
        cfg = self.cfg
        epoch = slot // cfg.epoch_slots
        self.epoch_index = epoch
        total = self.cell.grid.prbs_per_slot
        info = self._portion_demands(inputs, epoch)
        events: list[Event] = []

        def portion_total_demand(key: str) -> int:
            d = info[key]
            return sum(sum(v.values()) for v in d["per_slice"].values()) + d["access"]

        active = [
            p.key
            for p in self.portions
            if info[p.key]["flows"]
            or any(a.portion_key == p.key for a in self.pending)
        ]
        if not active:
            active = [self.portions[0].key]

        # Portion sizing: all to a lone active portion; shared carriers split
        # proportionally, then shift PRBs so each side can honor guarantees.
        sizes: dict[str, int] = {k: 0 for k in (p.key for p in self.portions)}
        if len(active) == 1:
            sizes[active[0]] = total
        else:
            ka, kb = active[0], active[1]
            da, db = portion_total_demand(ka), portion_total_demand(kb)
            a, b = dss_split(da, db, total)
            min_a, min_b = self._min_needed(info[ka]), self._min_needed(info[kb])
            if min_a + min_b > total:
                raise InsufficientResourcesError(
                    f"cell {self.cell.cell_id}: {total} PRBs cannot cover portion guarantees"
                )
            if a < min_a:
                a, b = min_a, total - min_a
            if b < min_b:
                a, b = total - min_b, min_b
            sizes[ka], sizes[kb] = a, b
            events.append(
                Event.make(
                    slot,
                    "mac",
                    "dss_split",
                    cell=self.cell.cell_id,
                    portions="|".join(f"{k}:{sizes[k]}" for k in (ka, kb)),
                    demand_a=da,
                    demand_b=db,
                )
            )

        self._leaves = []
        self._rosters_stale = True
        prev_placements = self._sps_placements
        self._sps_placements = {}
        self._sps_active = {}
        total_demand = 0
        cursor = 0
        for p in self.portions:
            size = sizes[p.key]
            total_demand += portion_total_demand(p.key)
            if size == 0:
                continue
            start = cursor
            cursor += size
            d = info[p.key]
            if d["sliced"]:
                top = {
                    sid: sum(dem.values()) for sid, dem in d["per_slice"].items()
                }
                top = dict(sorted(top.items()))
                top[RACH_KEY] = d["access"]
                plan = self._partition_with_reserve(
                    top,
                    size,
                    self._top_mins(d, reserve=True, size=size),
                    self._top_mins(d, reserve=False),
                    epoch,
                    start,
                )
                events.append(self._plan_event(slot, p.key, None, "portion", plan))
                for sid in top:
                    if sid == RACH_KEY:
                        self._leaves.append(
                            _Leaf(p.key, None, RACH_KEY, plan.interval(RACH_KEY))
                        )
                        continue
                    a, b = plan.interval(sid)
                    inner = self._ordered(d["per_slice"][sid])
                    if not inner:
                        continue
                    sub = self._partition_with_reserve(
                        inner,
                        b - a,
                        self._class_mins(inner),
                        {k: cfg.min_guarantee_prbs for k in inner},
                        epoch,
                        a,
                    )
                    events.append(self._plan_event(slot, p.key, sid, "slice", sub))
                    self._add_class_leaves(p.key, sid, sub)
            else:
                demands = self._ordered(d["per_slice"].get(None, {}))
                demands[RACH_KEY] = d["access"]
                plan = self._partition_with_reserve(
                    demands,
                    size,
                    self._top_mins(d, reserve=True, size=size),
                    self._top_mins(d, reserve=False),
                    epoch,
                    start,
                )
                events.append(self._plan_event(slot, p.key, None, "portion", plan))
                self._add_class_leaves(p.key, None, plan)
                self._leaves.append(_Leaf(p.key, None, RACH_KEY, plan.interval(RACH_KEY)))

        # Reservation placement for this epoch's URLLC leaves. Columns already
        # held by a flow are kept whenever the new interval still covers them,
        # so periodic grants stay on fixed columns while the queue-driven
        # partitions around them breathe; only flows that genuinely lost their
        # columns are re-placed (first-fit) or, failing that, parked for the
        # epoch with a reconfiguration event.
        for leaf in self._leaves:
            if leaf.key != TrafficClass.URLLC.value:
                continue
            lo, hi = leaf.interval
            taken: list[tuple[int, int]] = []
            fresh: list[SpsFlow] = []
            for f in self._sps_flows(leaf):
                cols = prev_placements.get(f.flow_id)
                if (
                    cols is not None
                    and cols[1] - cols[0] == f.prbs_needed
                    and lo <= cols[0]
                    and cols[1] <= hi
                    and all(cols[1] <= s or e <= cols[0] for s, e in taken)
                ):
                    taken.append(cols)
                    self._sps_placements[f.flow_id] = cols
                    self._sps_active[f.flow_id] = f
                else:
                    fresh.append(f)
            for f in fresh:
                taken.sort()
                cols = _first_gap(lo, hi, taken, f.prbs_needed)
                if cols is None:
                    events.append(
                        Event.make(
                            slot,
                            "mac",
                            "sps_reconfig",
                            cell=self.cell.cell_id,
                            flow=f.flow_id,
                            need=f.prbs_needed,
                            cols="none",
                        )
                    )
                    continue
                if f.flow_id in prev_placements and prev_placements[f.flow_id] != cols:
                    events.append(
                        Event.make(
                            slot,
                            "mac",
                            "sps_reconfig",
                            cell=self.cell.cell_id,
                            flow=f.flow_id,
                            need=f.prbs_needed,
                            cols=f"{cols[0]}-{cols[1]}",
                        )
                    )
                taken.append(cols)
                self._sps_placements[f.flow_id] = cols
                self._sps_active[f.flow_id] = f

        self.demand_prbs = total_demand
        self.load_fraction = min(1.0, total_demand / total) if total else 0.0
        return events

    def _plan_event(
        self, slot: int, portion: str, slice_id: str | None, level: str, plan: PartitionPlan
    ) -> Event:
        fields = {
            "cell": self.cell.cell_id,
            "portion": portion,
            "level": level,
        }
        if slice_id is not None:
            fields["slice"] = slice_id
        fields["plan"] = ",".join(f"{k}:{a}-{b}" for k, a, b in plan.entries)
        return Event.make(slot, "mac", "partition", **fields)

    def _add_class_leaves(self, portion_key: str, slice_id: str | None, plan: PartitionPlan):
        for key, a, b in plan.entries:
            if key == RACH_KEY:
                continue
            self._leaves.append(_Leaf(portion_key, slice_id, key, (a, b)))

    def _sps_flows(self, leaf: _Leaf) -> list[SpsFlow]:
        out = []
        for f in sorted(self.flows.values(), key=lambda f: f.flow_id):
            if (
                f.service is TrafficClass.URLLC
                and f.portion_key == leaf.portion_key
                and ((f.slice_id or DEFAULT_SLICE) if leaf.slice_id else None) == leaf.slice_id
            ):
                out.append(
                    SpsFlow(
                        flow_id=f.flow_id,
                        ue_id=f.ue_id,
                        period_slots=f.sps_period_slots or 1,
                        prbs_needed=f.sps_prbs or 1,
                        offset_slots=f.sps_offset_slots,
                    )
                )
        return out

    # -- per-slot operation ---------------------------------------------------

    def run_slot(
        self,
        slot: int,
        inputs: SlotInputs,
        rng_access: np.random.Generator,
        rng_backoff: np.random.Generator,
    ) -> MacSlotResult:
        cfg = self.cfg
        events: list[Event] = []
        if slot % cfg.epoch_slots == 0 or self.epoch_index < 0:
            events.extend(self.refresh_partitions(slot, inputs))
        if self._rosters_stale:
            self._build_rosters()
        epoch = slot // cfg.epoch_slots
        amap = AllocationMap(self.cell.grid, slot)
        served: dict[str, float] = {}
        delivered: list[PendingAccess] = []
        outcomes_all: list[AccessOutcome] = []
        pf_served_by_ue: dict[str, float] = {}

        for leaf in self._leaves:
            if leaf.key == RACH_KEY:
                if slot % cfg.epoch_slots != 0:
                    continue
                outs, grants, dels = self._run_contention(
                    leaf, slot, epoch, rng_access, rng_backoff
                )
                outcomes_all.extend(outs)
                delivered.extend(dels)
                for g in grants:
                    amap.add(g)
                if outs:
                    n_succ = sum(1 for o in outs if o.status is AccessStatus.SUCCESS)
                    events.append(
                        Event.make(
                            slot,
                            "mac",
                            "rach_round",
                            cell=self.cell.cell_id,
                            portion=leaf.portion_key,
                            contenders=len(outs),
                            successes=n_succ,
                            collisions=len(outs) - n_succ,
                        )
                    )
            elif leaf.key == TrafficClass.URLLC.value:
                flows = [
                    self._sps_active[fid]
                    for fid in sorted(self._sps_active)
                    if self._leaf_owns(leaf, self.flows[fid])
                ]
                for f in flows:
                    if not f.due(slot):
                        continue
                    a, b = self._sps_placements[f.flow_id]
                    amap.add_block(a, b, f.ue_id, leaf.key)
                    rate = inputs.per_prb_bits.get((f.ue_id, leaf.portion_key), 0.0)
                    cap = (b - a) * rate
                    got = min(cap, inputs.backlog_bits.get(f.flow_id, 0.0))
                    if got > 0:
                        served[f.flow_id] = served.get(f.flow_id, 0.0) + got
            else:
                blocks, by_flow, by_ue = self._run_dynamic(leaf, inputs)
                for a, b, ue in blocks:
                    amap.add_block(a, b, ue, leaf.key)
                for fid, bits in by_flow.items():
                    served[fid] = served.get(fid, 0.0) + bits
                for ue, bits in by_ue.items():
                    pf_served_by_ue[ue] = pf_served_by_ue.get(ue, 0.0) + bits

        # Average-rate bookkeeping for every UE visible to the PF scheduler.
        for ue in self._dynamic_ues:
            avg = self.pf_avg.get(ue, cfg.pf_initial_avg_bits)
            self.pf_avg[ue] = (1.0 - cfg.pf_ewma) * avg + cfg.pf_ewma * pf_served_by_ue.get(ue, 0.0)

        return MacSlotResult(
            slot=slot,
            alloc=amap,
            served_bits=served,
            access_delivered=delivered,
            outcomes=outcomes_all,
            events=events,
        )

    def _leaf_owns(self, leaf: _Leaf, flow: MacFlow) -> bool:
        if flow.portion_key != leaf.portion_key:
            return False
        sid = (flow.slice_id or DEFAULT_SLICE) if leaf.slice_id is not None else None
        return sid == leaf.slice_id and flow.service.value == leaf.key

    def _build_rosters(self) -> None:
        """Index the flows by leaf and the PF-scheduled UEs, once per change
        of flows or leaves rather than on every slot."""
        flows = sorted(self.flows.values(), key=lambda f: f.flow_id)
        for leaf in self._leaves:
            by_ue: dict[str, list[MacFlow]] = {}
            for f in flows:
                if self._leaf_owns(leaf, f):
                    by_ue.setdefault(f.ue_id, []).append(f)
            leaf.roster = dict(sorted(by_ue.items()))
        self._dynamic_ues = list(
            dict.fromkeys(
                f.ue_id
                for f in flows
                if f.service in (TrafficClass.EMBB, TrafficClass.LEGACY_MBB)
            )
        )
        self._rosters_stale = False

    def _run_dynamic(self, leaf: _Leaf, inputs: SlotInputs):
        by_ue = leaf.roster
        cands = []
        for ue, fl in by_ue.items():
            backlog = sum(inputs.backlog_bits.get(f.flow_id, 0.0) for f in fl)
            if backlog <= 0:
                continue
            rate = inputs.per_prb_bits.get((ue, leaf.portion_key), 0.0)
            cands.append(
                PfCandidate(
                    ue_id=ue,
                    per_prb_bits=rate,
                    backlog_bits=backlog,
                    avg_bits=self.pf_avg.get(ue, self.cfg.pf_initial_avg_bits),
                )
            )
        blocks, served_by_ue = schedule_dynamic_blocks(leaf.interval, cands)
        by_flow: dict[str, float] = {}
        for ue, bits in served_by_ue.items():
            pool = bits
            for f in by_ue[ue]:
                if pool <= 0:
                    break
                take = min(pool, inputs.backlog_bits.get(f.flow_id, 0.0))
                if take > 0:
                    by_flow[f.flow_id] = by_flow.get(f.flow_id, 0.0) + take
                    pool -= take
        return blocks, by_flow, served_by_ue

    def _run_contention(self, leaf, slot, epoch, rng_access, rng_backoff):
        # one pass splits the queue, keeping order (attempts compare by identity)
        ready: list[PendingAccess] = []
        still: list[PendingAccess] = []
        for a in self.pending:
            if a.portion_key == leaf.portion_key and a.ready_epoch <= epoch:
                ready.append(a)
            else:
                still.append(a)
        ready.sort(key=lambda a: (a.created_slot, a.flow_id))
        if not ready:
            return [], [], []
        contenders = [Contender(ue_id=a.ue_id, payload_bits=a.payload_bits) for a in ready]
        outcomes, grants = schedule_one_shot(
            leaf.interval, contenders, rng_access, self.cfg.access_cost_prbs
        )
        delivered = []
        for attempt, outcome in zip(ready, outcomes):
            if outcome.status is AccessStatus.SUCCESS:
                delivered.append(attempt)
            else:
                delay = int(
                    rng_backoff.integers(
                        self.cfg.backoff_min_epochs, self.cfg.backoff_max_epochs + 1
                    )
                )
                attempt.ready_epoch = epoch + delay
                still.append(attempt)
        self.pending = still
        return outcomes, grants, delivered
