"""Unified per-cell MAC: one coordinator, several access mechanisms.

The coordinator splits a carrier the same way at every level — first between
shared-spectrum portions, then (optionally) between slices, then between
traffic classes — and runs a class-appropriate scheduler inside each leaf:
proportional-fair for queue-driven broadband, semi-persistent reservations for
deadline traffic, and one-shot contention for sporadic small payloads. The
same exact integer apportionment (largest remainder) is used at every level,
by one recursive split over the partition tree.

Every scheduler hands ``run_slot`` half-open ``(start, stop, ue_id)`` blocks
for the slot's ``AllocationMap``. A PF leaf is filled in one pass over its
roster: each backlogged UE's backlog, rate and metric (``_pf_metric``, the
one statement of it), then the fill, whose winners' bits are booked straight
into the slot's per-flow and per-UE totals. The MAC counts its access
outcomes and granted PRBs, and averages the PF rate of the UEs its
registrations name.

``MacInstance._leaf_key`` alone says which leaf serves a flow: a refresh builds
each leaf with its roster grouped by it, and a flow that comes or goes between
refreshes changes the roster of that one leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .abstraction import CommonMeasure, link_rate, load_fraction
from .core import (
    CLASS_ORDER,
    AllocationMap,
    Cell,
    Event,
    Grant,
    TrafficClass,
    check_rules,
    finite_rules,
)

#: Partition key for the contention-based access channel. It is part of every
#: partition the coordinator emits, UEs or not.
RACH_KEY = "rach"

#: Implicit slice for flows without a slice label in a sliced cell.
DEFAULT_SLICE = "default"

# enum lookups for the MAC's hot paths, made once: class keys, then members
_CLASS_KEYS = tuple(tc.value for tc in CLASS_ORDER)
_URLLC = TrafficClass.URLLC.value
_MMTC = TrafficClass.MMTC
_PF_CLASSES = frozenset((TrafficClass.EMBB, TrafficClass.LEGACY_MBB))


class InsufficientResourcesError(Exception):
    """Total PRBs cannot cover the minimum guarantees of the active keys."""


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


def partition_resources(
    demands: Mapping[str, int],
    total_prbs: int,
    min_guarantee: int | Mapping[str, int] = 1,
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
        return PartitionPlan(start, total_prbs, ())
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
    return PartitionPlan(start, total_prbs, tuple(entries))


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
        if self.per_prb_bits < 0 or self.backlog_bits < 0 or self.avg_bits < 0:
            raise ValueError("rates, backlogs and averages must be >= 0")


def _pf_metric(rate: float, avg: float) -> float:
    """The proportional-fair metric: per-PRB rate over average served rate.
    At an average of 0.0 it is its limit: +inf for a positive rate, else 0.0."""
    return rate / avg if avg > 0.0 else (math.inf if rate > 0.0 else 0.0)


def _pf_blocks(interval: tuple[int, int], ue_ids, rates, backlogs, metrics):
    """Proportional-fair fill of one interval for distinct UEs in ue_id order.

    Same outcome as giving each PRB in turn to the backlogged UE of the
    highest ``_pf_metric`` (ties to the lowest ue_id): that metric is fixed
    within the slot, so a winner holds every PRB until its backlog drains,
    and ``kernels.pf_fill`` computes the runs directly. Work-conserving: PRBs
    are left idle only when no UE has backlog remaining. Returns half-open
    ``(start, stop, ue_id)`` blocks in PRB order and the bits served per UE,
    in the order given.
    """
    start, stop = interval
    runs, served = kernels.pf_fill(metrics, rates, backlogs, stop - start)
    blocks = []
    for idx, k in runs:
        blocks.append((start, start + k, ue_ids[idx]))
        start += k
    return blocks, served


def schedule_dynamic(
    interval: tuple[int, int], candidates: Sequence[PfCandidate]
) -> tuple[list[Grant], dict[str, float]]:
    """The PF leaves' rule (``_pf_blocks``) as one eMBB Grant per PRB, for
    callers that compare per-PRB owners; also returns the bits served per
    candidate (the caller owns the running-average update)."""
    if interval[1] <= interval[0] or not candidates:
        return [], {}
    cands = sorted(candidates, key=lambda c: c.ue_id)
    ids = [c.ue_id for c in cands]
    if len(set(ids)) != len(ids):
        raise ValueError("candidates must have distinct ue_ids")
    blocks, served = _pf_blocks(
        interval, ids, [c.per_prb_bits for c in cands], [c.backlog_bits for c in cands],
        [_pf_metric(c.per_prb_bits, c.avg_bits) for c in cands],
    )
    purpose = TrafficClass.EMBB.value
    grants = [
        Grant(prb=p, owner=ue, purpose=purpose) for a, b, ue in blocks for p in range(a, b)
    ]
    return grants, dict(zip(ids, served))


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
) -> tuple[list[AccessOutcome], list[tuple[int, int, str]]]:
    """One contention round: uniform independent picks over the resources.

    The interval holds floor(size / access_cost_prbs) access resources. A
    resource picked by exactly one contender succeeds and carries its payload;
    resources picked by two or more collide and serve nobody. Only successful
    picks produce blocks, half-open ``(start, stop, ue_id)`` over the
    resource's PRBs, so exclusivity is preserved by construction.
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
    blocks: list[tuple[int, int, str]] = []
    for i, c in enumerate(contenders):
        res = int(picks[i])
        if bool(collided[i]):
            outcomes.append(AccessOutcome(c.ue_id, AccessStatus.COLLISION, res, c.payload_bits))
        else:
            outcomes.append(AccessOutcome(c.ue_id, AccessStatus.SUCCESS, res, c.payload_bits))
            a = start + res * access_cost_prbs
            blocks.append((a, a + access_cost_prbs, c.ue_id))
    return outcomes, blocks


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
        eff = self.waveform_efficiency
        check_rules(self, ("key", bool(self.key), "must be non-empty"),
                    ("waveform_efficiency", 0.0 < eff <= 1.0, "must be in (0, 1], got {}"))

    def usable_by(self, capabilities) -> bool:
        """Whether a UE with these capabilities may ride this portion."""
        return self.required_capability is None or self.required_capability in capabilities


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
        check_rules(self, ("epoch_slots", self.epoch_slots >= 1, "must be >= 1"),
                    ("min_guarantee_prbs", self.min_guarantee_prbs >= 0, "must be >= 0"),
                    ("access_cost_prbs", self.access_cost_prbs >= 1, "must be >= 1"),
                    ("pf_ewma", 0.0 < self.pf_ewma <= 1.0, "must be in (0, 1]"),
                    ("pf_initial_avg_bits", self.pf_initial_avg_bits > 0, "must be positive"),
                    *finite_rules(self, "pf_initial_avg_bits"),
                    ("", 1 <= self.backoff_min_epochs <= self.backoff_max_epochs,
                     "backoff window must satisfy 1 <= min <= max"))

    @property
    def access_floor_prbs(self) -> int:
        """PRBs every cell's access partition holds from its first slot, flows
        or not: one whole access resource, whatever it costs."""
        return max(self.min_guarantee_prbs, self.access_cost_prbs)


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
    #: order; built with the leaf, then kept by ``(de)register_flow``
    roster: dict[str, list[MacFlow]]


def _roster(flows: Sequence[MacFlow]) -> dict[str, list[MacFlow]]:
    """``flows`` by UE, UEs in ue_id order, each UE's flows in flow_id order."""
    roster: dict[str, list[MacFlow]] = {}
    for f in sorted(flows, key=lambda f: (f.ue_id, f.flow_id)):
        roster.setdefault(f.ue_id, []).append(f)
    return roster


@dataclass
class MacSlotResult:
    alloc: AllocationMap
    served_bits: dict[str, float]
    access_delivered: list[PendingAccess]
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
        #: the carrier's portions by key, in the order given
        self.portions = {p.key: p for p in portions}
        if len(self.portions) != len(portions):
            raise ValueError("portion keys must be unique")
        self.cell = cell
        self.cfg = config
        self.flows: dict[str, MacFlow] = {}
        self.pending: list[PendingAccess] = []
        self.pf_avg: dict[str, float] = {}
        # the UEs with an eMBB or legacy flow, in registration order; None
        # from a change of flows until the next slot lists them again
        self._pf_ues: tuple[str, ...] | None = None
        #: access attempts that succeeded and that collided, over the run
        self.rach_successes = 0
        self.rach_collisions = 0
        #: PRBs granted over the run
        self.granted_prbs = 0
        #: PRBs the last partition refresh found in demand, access included
        self.demand_prbs = 0
        # the epoch's leaves in plan order, and the same by (portion, slice,
        # class) for the flows that come and go before the next refresh
        self._leaves: list[_Leaf] = []
        self._leaf_by_key: dict[tuple[str, str | None, str], _Leaf] = {}
        # portions whose queued flows named a slice at the last refresh
        self._sliced: set[str] = set()
        # reserved columns per URLLC flow for the current epoch
        self._sps_columns: dict[str, tuple[int, int]] = {}

    # -- population ---------------------------------------------------------

    def register_flow(self, flow: MacFlow) -> None:
        if flow.flow_id in self.flows:
            raise ValueError(f"flow {flow.flow_id!r} already registered")
        if flow.portion_key not in self.portions:
            raise ValueError(f"unknown portion {flow.portion_key!r}")
        if flow.slice_id == RACH_KEY:
            raise ValueError(f"slice {RACH_KEY!r} would collide with the access partition")
        if flow.service is TrafficClass.URLLC:
            if (flow.sps_period_slots or 0) < 1 or (flow.sps_prbs or 0) < 1:
                raise ValueError("URLLC flows need sps_period_slots and sps_prbs >= 1")
            if flow.sps_offset_slots < 0:
                raise ValueError("sps_offset_slots must be >= 0")
        self.flows[flow.flow_id] = flow
        self._pf_ues = None
        # a flow without a leaf waits for the next refresh to get one
        leaf = self._leaf_by_key.get(self._leaf_key(flow))
        if leaf is not None:
            leaf.roster = _roster([f for fl in leaf.roster.values() for f in fl] + [flow])

    def deregister_flow(self, flow_id: str) -> None:
        flow = self.flows.pop(flow_id, None)
        self.pending = [p for p in self.pending if p.flow_id != flow_id]
        if flow is None:
            return
        self._pf_ues = None
        leaf = self._leaf_by_key.get(self._leaf_key(flow))
        if leaf is not None:
            leaf.roster = _roster([f for fl in leaf.roster.values() for f in fl if f is not flow])

    def queue_attempt(self, flow_id: str, payload_bits: float, slot: int) -> None:
        """Queue an access attempt; its UE and portion are its flow's."""
        if flow_id not in self.flows:
            raise KeyError(flow_id)
        self.pending.append(
            PendingAccess(
                flow_id=flow_id,
                payload_bits=payload_bits,
                created_slot=slot,
                ready_epoch=slot // self.cfg.epoch_slots,
            )
        )

    @property
    def load(self) -> CommonMeasure:
        """The cell's load as of the last partition refresh: its PRB demand
        over the grid, clamped to full load."""
        return load_fraction(self.demand_prbs, self.cell.grid.prbs_per_slot)

    # -- partitioning -------------------------------------------------------

    def reference_per_prb_bits(self, portion_key: str) -> float:
        """Stable per-PRB rate used for sizing (not per-slot scheduling).
        Raises ValueError if it is not positive, as nothing can be sized by
        it; only a portion with a flow reads it."""
        eff = self.portions[portion_key].waveform_efficiency
        rate = link_rate(self.cfg.demand_sinr_db, eff, self.cell.grid)
        if not rate > 0:
            raise ValueError("per_prb_bits must be positive")
        return rate

    def _leaf_key(self, flow: MacFlow) -> tuple[str, str | None, str]:
        """The (portion, slice, class) of the leaf that serves ``flow``, the
        one place it is worked out. A portion is sliced as of the last
        refresh; in a sliced portion a flow without a label is in
        DEFAULT_SLICE, in an unsliced one labels are ignored."""
        p = flow.portion_key
        sid = (flow.slice_id or DEFAULT_SLICE) if p in self._sliced else None
        return p, sid, flow.service.value

    def _portion_tree(self, inputs: SlotInputs) -> tuple[dict[str, list[tuple]], set[str]]:
        """Each portion's partition children, ``(key, demand, floor, bare,
        sub)`` in split order, before the access child, and the portions
        with a flow (mMTC included).

        A class leaf's ``sub`` is its roster (see ``_Leaf.roster``). Deadline
        traffic holds its reserved columns outright, so a URLLC leaf's floor
        covers them; queue-driven classes get the configured minimum and
        compete for the rest. ``bare`` is the degraded floor used when the
        reservations no longer fit. In a sliced portion each slice is a child
        whose ``sub`` is the list of its class leaves in CLASS_ORDER; an
        unsliced portion holds its class leaves directly. Decides which
        portions are sliced until the next refresh.
        """
        g = self.cfg.min_guarantee_prbs
        in_use = {f.portion_key for f in self.flows.values()}
        # Sporadic-access flows ride the contention channel; they neither
        # hold queue partitions nor force the slice dimension open.
        queued = [f for f in self.flows.values() if f.service is not _MMTC]
        self._sliced = {f.portion_key for f in queued if f.slice_id}
        # each leaf's flows in registration order, which its backlog sum keeps
        groups: dict[tuple[str, str | None, str], list[MacFlow]] = {}
        for f in queued:
            groups.setdefault(self._leaf_key(f), []).append(f)
        backlog, rate = inputs.backlog_bits, self.reference_per_prb_bits
        tree: dict[str, list[tuple]] = {}
        for key in self.portions:
            children = []
            for sid in sorted({s for p, s, _ in groups if p == key}, key=lambda s: s or ""):
                by_class = [(c, groups[k]) for c in _CLASS_KEYS if (k := (key, sid, c)) in groups]
                leaves = []
                for c, fl in by_class:
                    if c == _URLLC:
                        d = sum(f.sps_prbs for f in fl)
                    else:  # PRBs to drain the leaf's backlog at the reference rate
                        d = math.ceil(sum(backlog.get(f.flow_id, 0.0) for f in fl) / rate(key))
                    leaves.append((c, d, max(g, d) if c == _URLLC else g, g, _roster(fl)))
                if sid is None:
                    children = leaves
                else:
                    children.append((
                        sid,
                        sum(c[1] for c in leaves),
                        max(g, sum(c[2] for c in leaves)),
                        max(g, sum(c[3] for c in leaves)),
                        leaves,
                    ))
            tree[key] = children
        return tree, in_use

    def refresh_partitions(self, slot: int, inputs: SlotInputs) -> list[Event]:
        """Recompute the full partition tree for the epoch starting at slot."""
        cfg = self.cfg
        epoch = slot // cfg.epoch_slots
        total = self.cell.grid.prbs_per_slot
        tree, in_use = self._portion_tree(inputs)
        access = dict.fromkeys(tree, 0)
        for a in self.pending:
            if a.ready_epoch <= epoch:
                access[self.flows[a.flow_id].portion_key] += cfg.access_cost_prbs
        demand = {key: sum(c[1] for c in tree[key]) + access[key] for key in tree}
        access_base = cfg.access_floor_prbs
        events: list[Event] = []

        # every pending attempt's flow is registered on its portion
        active = [key for key in tree if key in in_use] or [next(iter(self.portions))]

        # Portion sizing: all to a lone active portion; shared carriers split
        # proportionally, then shift PRBs so each side can honor guarantees.
        sizes = dict.fromkeys(tree, 0)
        if len(active) == 1:
            sizes[active[0]] = total
        else:
            ka, kb = active
            min_a, min_b = (sum(c[3] for c in tree[k]) + access_base for k in active)
            if min_a + min_b <= total:
                a, b = dss_split(demand[ka], demand[kb], total)
                if a < min_a:
                    a, b = min_a, total - min_a
                if b < min_b:
                    a, b = total - min_b, min_b
            elif total < 2 * access_base:  # no room for two access partitions
                a, b = total, 0
            else:  # each keeps its access floor; the bare minimums share the rest
                bare = [min_a - access_base, min_b - access_base]
                a, b = (e + access_base for e in largest_remainder(bare, total - 2 * access_base))
            sizes[ka], sizes[kb] = a, b
            events.append(
                Event.make(
                    slot,
                    "mac",
                    "dss_split",
                    cell=self.cell.cell_id,
                    portions="|".join(f"{k}:{sizes[k]}" for k in (ka, kb)),
                    demand_a=demand[ka],
                    demand_b=demand[kb],
                )
            )

        self._leaves, self._leaf_by_key = [], {}
        cursor = 0
        for key, children in tree.items():
            size = sizes[key]
            if size == 0:
                continue
            # A retry backlog holds its current demand as a floor, as far as
            # the portion can spare it after the other floors, so saturated
            # broadband queues cannot starve it into a collision avalanche.
            floor = access_base
            if access[key] > floor:
                floor = max(floor, min(access[key], size - sum(c[2] for c in children)))
            children.append((RACH_KEY, access[key], floor, access_base, {}))
            self._split(slot, key, None, children, cursor, size, events)
            cursor += size

        self._place_reservations(slot, events)
        self.demand_prbs = sum(demand.values())
        return events

    def _split(
        self,
        slot: int,
        portion: str,
        slice_id: str | None,
        children: list[tuple],
        start: int,
        size: int,
        events: list[Event],
    ) -> None:
        """Partition [start, start + size) among ``children`` and descend.

        The split honors the children's floors, degrading to their bare
        minimums when the floors cannot fit (placement then reports the
        reservations that were dropped), then to the access floor plus the
        rest split by largest remainder over the others' bare minimums (a
        leaf may get no PRB). Class leaves, built with their rosters, join
        the epoch's leaves in plan order; a slice is split in turn.
        """
        demands = {c[0]: c[1] for c in children}
        mins = {c[0]: c[2] for c in children}
        if sum(mins.values()) > size:
            mins = {c[0]: c[3] for c in children}
        if sum(mins.values()) > size:
            left = size - mins.pop(RACH_KEY, 0)
            shares = largest_remainder(list(mins.values()), left)
            mins = {**dict(zip(mins, shares)), RACH_KEY: size - left}
        plan = partition_resources(demands, size, mins, start)
        fields = {"cell": self.cell.cell_id, "portion": portion, "level": "portion"}
        if slice_id is not None:
            fields.update(level="slice", slice=slice_id)
        fields["plan"] = ",".join(f"{k}:{a}-{b}" for k, a, b in plan.entries)
        events.append(Event.make(slot, "mac", "partition", **fields))
        for (key, _, _, _, sub), (_, a, b) in zip(children, plan.entries):
            if isinstance(sub, list):
                self._split(slot, portion, key, sub, a, b - a, events)
            else:
                leaf = _Leaf(portion, slice_id, key, (a, b), sub)
                self._leaves.append(leaf)
                self._leaf_by_key[portion, slice_id, key] = leaf

    def _place_reservations(self, slot: int, events: list[Event]) -> None:
        """Place this epoch's URLLC reservations in their leaves, for the
        flows on the leaves' rosters.

        Columns already held by a flow are kept whenever the new interval
        still covers them, so periodic grants stay on fixed columns while the
        queue-driven partitions around them breathe; only flows that
        genuinely lost their columns are re-placed (first-fit) or, failing
        that, parked for the epoch with a reconfiguration event. Flows are
        visited in flow_id order.
        """
        prev_placements = self._sps_columns
        self._sps_columns = {}
        for leaf in self._leaves:
            if leaf.key != _URLLC:
                continue
            lo, hi = leaf.interval
            taken: list[tuple[int, int]] = []
            fresh: list[MacFlow] = []
            owned = (f for fl in leaf.roster.values() for f in fl)
            for f in sorted(owned, key=lambda f: f.flow_id):
                cols = prev_placements.get(f.flow_id)
                if (
                    cols is not None
                    and cols[1] - cols[0] == f.sps_prbs
                    and lo <= cols[0]
                    and cols[1] <= hi
                    and all(cols[1] <= s or e <= cols[0] for s, e in taken)
                ):
                    taken.append(cols)
                    self._sps_columns[f.flow_id] = cols
                else:
                    fresh.append(f)
            for f in fresh:
                taken.sort()
                cols = _first_gap(lo, hi, taken, f.sps_prbs)
                if cols is not None:
                    taken.append(cols)
                    self._sps_columns[f.flow_id] = cols
                # a flow placed for the first time moves nothing
                if cols is None or prev_placements.get(f.flow_id, cols) != cols:
                    events.append(
                        Event.make(
                            slot,
                            "mac",
                            "sps_reconfig",
                            cell=self.cell.cell_id,
                            flow=f.flow_id,
                            need=f.sps_prbs,
                            cols="none" if cols is None else f"{cols[0]}-{cols[1]}",
                        )
                    )

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
        if slot % cfg.epoch_slots == 0 or not self._leaves:  # or never refreshed
            events.extend(self.refresh_partitions(slot, inputs))
        epoch = slot // cfg.epoch_slots
        amap = AllocationMap(self.cell.grid, slot)
        served: dict[str, float] = {}
        delivered: list[PendingAccess] = []
        pf_served: dict[str, float] = {}

        for leaf in self._leaves:
            if leaf.key == RACH_KEY:
                if slot % cfg.epoch_slots != 0:
                    continue
                outs, blocks, dels = self._run_contention(
                    leaf, slot, epoch, rng_access, rng_backoff
                )
                delivered.extend(dels)
                for a, b, ue in blocks:
                    amap.add_block(a, b, ue, RACH_KEY)
                if outs:
                    n_succ = len(dels)
                    self.rach_successes += n_succ
                    self.rach_collisions += len(outs) - n_succ
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
            elif leaf.key == _URLLC:
                # only flows placed at the last refresh hold columns; one that
                # arrived mid-epoch waits for the next, one that left is gone
                for ue, fl in leaf.roster.items():
                    for f in fl:
                        cols = self._sps_columns.get(f.flow_id)
                        lag = slot - f.sps_offset_slots
                        if cols is None or lag < 0 or lag % f.sps_period_slots:
                            continue
                        a, b = cols
                        amap.add_block(a, b, ue, leaf.key)
                        rate = inputs.per_prb_bits.get((ue, leaf.portion_key), 0.0)
                        cap = (b - a) * rate
                        got = min(cap, inputs.backlog_bits.get(f.flow_id, 0.0))
                        if got > 0:
                            served[f.flow_id] = served.get(f.flow_id, 0.0) + got
            else:
                for a, b, ue in self._run_dynamic(leaf, inputs, served, pf_served):
                    amap.add_block(a, b, ue, leaf.key)

        # the average rate of every UE with an eMBB or legacy flow
        if self._pf_ues is None:
            pf_flows = (f for f in self.flows.values() if f.service in _PF_CLASSES)
            self._pf_ues = tuple({f.ue_id: None for f in pf_flows})
        keep, ewma, avg = 1.0 - cfg.pf_ewma, cfg.pf_ewma, self.pf_avg
        for ue in self._pf_ues:
            avg[ue] = keep * avg.get(ue, cfg.pf_initial_avg_bits) + ewma * pf_served.get(ue, 0.0)
        self.granted_prbs += len(amap)

        return MacSlotResult(
            alloc=amap,
            served_bits=served,
            access_delivered=delivered,
            events=events,
        )

    def _run_dynamic(
        self, leaf: _Leaf, inputs: SlotInputs, served: dict[str, float], by_ue: dict[str, float]
    ) -> list[tuple[int, int, str]]:
        """A PF leaf's blocks, from one pass over its roster: each UE's
        backlog (its flows' summed), rate and ``_pf_metric``, for the
        backlogged UEs in ue_id order, then the fill. Each winner's bits are
        booked straight into ``by_ue`` and, draining its flows in flow_id
        order, into ``served``."""
        backlog_bits, rates, avg = inputs.backlog_bits, inputs.per_prb_bits, self.pf_avg
        initial, portion = self.cfg.pf_initial_avg_bits, leaf.portion_key
        ids, ue_rates, backlogs, metrics = [], [], [], []
        for ue, fl in leaf.roster.items():
            backlog = 0.0
            for f in fl:
                backlog += backlog_bits.get(f.flow_id, 0.0)
            if backlog <= 0:
                continue
            rate = rates.get((ue, portion), 0.0)
            ids.append(ue)
            ue_rates.append(rate)
            backlogs.append(backlog)
            metrics.append(_pf_metric(rate, avg.get(ue, initial)))
        blocks, got = _pf_blocks(leaf.interval, ids, ue_rates, backlogs, metrics)
        for ue, pool in zip(ids, got):
            if pool <= 0:
                continue
            by_ue[ue] = by_ue.get(ue, 0.0) + pool
            for f in leaf.roster[ue]:
                take = min(pool, backlog_bits.get(f.flow_id, 0.0))
                if take > 0:
                    served[f.flow_id] = served.get(f.flow_id, 0.0) + take
                    pool -= take
                    if pool <= 0:
                        break
        return blocks

    def _run_contention(self, leaf, slot, epoch, rng_access, rng_backoff):
        # one pass splits the queue, keeping order (attempts compare by identity)
        ready: list[PendingAccess] = []
        still: list[PendingAccess] = []
        for a in self.pending:
            if self.flows[a.flow_id].portion_key == leaf.portion_key and a.ready_epoch <= epoch:
                ready.append(a)
            else:
                still.append(a)
        ready.sort(key=lambda a: (a.created_slot, a.flow_id))
        if not ready:
            return [], [], []
        contenders = [
            Contender(ue_id=self.flows[a.flow_id].ue_id, payload_bits=a.payload_bits)
            for a in ready
        ]
        outcomes, blocks = schedule_one_shot(
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
        return outcomes, blocks, delivered
