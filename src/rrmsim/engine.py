"""The slot-driven world: traffic, flow control, per-cell MACs, channel,
and steering wired together deterministically.

Every slot runs the stages of ``STAGE_ORDER`` — arrivals, steering (on its
epoch boundary), per-cell MAC, transmission/reception, metrics — and all
randomness flows from named substreams of one seed plus the counter-based
fading hash, so a (config, seed) pair fully determines every output byte.

The fading hash is stateless and a UE's position a function of the slot
(``_position_at``), so slot inputs come a span of ``FADING_SPAN_MAX`` slots
at a time: one numpy block gives every (UE, cell) pair with a queue-driven
flow a list of its per-PRB rates over the span, and a pair that a handover
brings in mid-span gets its list the same way; the lists go when the span
ends. The block's numpy rates only rule each rate in; ``link_rate`` at the
exact SINR decides the rest (``link_rates``). Each cell's pair table
(``CellRuntime.pairs``) maps every queue-driven flow its MAC has registered,
in ``mac.flows`` order, to its leg there, its (UE, portion) and its (UE
index, cell index); ``_attach`` keeps it, so a slot's inputs and drains read
the tables and never scan the MACs' flows. A UE is its ``UeConfig``, and a
flow's traffic source is its config's ``generator``.
Lookups fixed for a run (flows, services, capabilities and eligible cells
by UE, best portions by capability set, the cells' capability descriptors
and radio constants) are built once; the read-only ones pickle as plain
dicts, so a World pickles between any two slots and resumes to the same
bytes. No position or RSRP is stored: the steering context builds a UE's
signal row only when a feature reads it, as ``rsrp_dbm`` at the UE's
position at the context's slot converted with ``signal_db``, and the row
alone keeps what it read; each cell's load is its MAC's ``load``. Its
signal estimate (``chan.rsrp_estimate``) only rules pairs out, as does the
one that picks serving cells at construction. So a slot costs work per
(UE, cell) pair that something reads. The World keeps no copy of what the
MACs own: cells, portions, loads and registrations are read from each
``MacInstance``, and a load-balance flow's legs take their cells' loads
just before its packets are routed. The report sums the MACs' access and
grant counts and counts the controller's history.

Packets move as runs (``pdcp.Run``): the drain uses up whole packets of a
leg's head run with arithmetic, and the books take a run at a time. The slot
loop sends a one-leg flow's arrivals with ``pdcp.send_run`` and takes a run
that arrives in order, nothing buffered, with ``pdcp.take_in_order``;
``route_packet`` and ``reorder_deliver`` decide the rest: two or more legs,
and any gap, duplicate or loss.
Latencies are kept as a count per latency in slots, so a flow's state does
not grow with the horizon; a flow's MAC-epoch row is its running totals less
their values at the last rollup. Run arithmetic is exact because every bit amount
is a whole number below 2**53: the generator types refuse other sizes, and
the MAC's served bits are checked as they enter (``pdcp.whole_bits``).

A flow's attachment changes in one place, ``World._attach``: it moves, adds
or drops one leg (whose id is its cell's id) and keeps the MAC registrations
and the pair tables, the queued runs, the last-leg rule and the mode's leg
count in step. The five steering mutators go only through it, and so does an
mMTC flow's handover, which carries its pending access attempts along.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from . import channel as chan
from . import kernels, pdcp, traffic
from .abstraction import (
    RSRP_FLOOR_DBM,
    PluginRegistry,
    capacity_score,
    describe_cell,
    link_rates,
    signal_db,
)
from .core import (
    Event,
    TrafficClass,
    compute_fairness,
)
from .mac import MacFlow, MacInstance, PortionSpec, SlotInputs
from .scenario import FlowConfig, ScenarioConfig, UeConfig, build_domain
from .uts import LazyRow, MnoStrategy, UtsContext, UtsController, builtin_features

#: The slots of one rate table: a pair's row covers this many slots, its
#: fading evaluated in one call.
FADING_SPAN_MAX = 64

#: Each slot's stages in order, and the ``World`` method that runs each.
STAGE_ORDER = (
    ("arrivals", "_arrivals"),
    ("steering", "_steering"),
    ("mac", "_run_macs"),
    ("transport", "_reorder_ticks"),
    ("metrics", "_metrics_rollup"),
)


@dataclass
class CellRuntime:
    index: int
    drop_prob: float
    mac: MacInstance
    noise_floor_dbm: float
    served_bits_total: float = 0.0
    #: the pair table: each queue-driven flow the MAC has registered, in
    #: ``mac.flows`` order, to its leg here, its (UE id, portion key) and its
    #: (UE index, cell index); kept by ``World._attach``
    pairs: dict[str, tuple[pdcp.Leg, tuple[str, str], tuple[int, int]]] = field(
        default_factory=dict
    )


@dataclass
class UeRuntime:
    #: as configured, so ``cfg.position`` is where the UE starts
    cfg: UeConfig
    index: int
    serving: str
    secondary: tuple[str, ...] = ()
    delivered_window_bits: float = 0.0
    #: the cell the last handover left (None before the first), and that handover's slot
    prev_serving: str | None = None
    moved_slot: int = 0


@dataclass
class FlowRuntime:
    """A flow's state and running totals. Its MAC-epoch window is its totals
    less ``rolled``, their values at the last rollup: exact, as every bit
    amount is a whole number below 2**53 (``pdcp.whole_bits``)."""

    cfg: FlowConfig
    state: pdcp.FlowState | None
    rx: pdcp.ReceiverState
    #: the service's key, ``cfg.service.value``, read once
    service: str
    arrived_bits: float = 0.0
    delivered_bits: float = 0.0
    mac_served_bits: float = 0.0
    lost_in_transit: int = 0
    #: bits of partly sent head packets that a leg change re-sends whole
    resent_bits: float = 0.0
    attempts: int = 0
    #: delivered packets by latency in slots
    latency_counts: dict[int, int] = field(default_factory=dict)
    #: the sum of the delivered packets' latencies in slots, and their count
    latency_sum: int = 0
    latency_n: int = 0
    #: arrived, delivered, latency sum and count at the last rollup
    rolled: tuple = (0.0, 0.0, 0, 0)

    def queued_bits(self) -> float:
        if self.state is None:
            return 0.0
        return sum(l.queue_bits for l in self.state.legs)


#: (UE, cell) pairs per signal estimate block when serving cells are picked:
#: a few 512 KiB arrays at a time, whatever the network's size
ESTIMATE_BLOCK_PAIRS = 1 << 16


class World:
    """One simulation run's mutable state plus the steering hooks."""

    def __init__(self, config: ScenarioConfig, seed: int | None = None, extra_features=()):
        self.config = config
        # a numpy integer seed would overflow the fading hash's 64-bit mask
        self.seed = operator.index(config.sim.seed if seed is None else seed)
        ss = np.random.SeedSequence(self.seed)
        streams = ss.spawn(4)
        self.rng_traffic = np.random.default_rng(streams[0])
        self.rng_access = np.random.default_rng(streams[1])
        self.rng_backoff = np.random.default_rng(streams[2])
        self.rng_loss = np.random.default_rng(streams[3])

        fading_seed = config.channel.fading_seed
        self.chan = replace(config.channel, fading_seed=self.seed if fading_seed is None
                            else operator.index(fading_seed))
        # per-PRB rates over the current span's slots, one list per (UE index,
        # cell index) pair, and the span's index; filled by _channel_inputs
        self._rates_span = -1
        self._rates: dict[tuple[int, int], list[float]] = {}

        self.cells: dict[str, CellRuntime] = {}
        # what each cell can do, at its best portion's efficiency; fixed for the run
        descriptors = {}
        for i, cc in enumerate(config.cells):
            cell = build_domain(cc)
            self.cells[cc.cell_id] = CellRuntime(
                index=i,
                drop_prob=cc.drop_prob,
                mac=MacInstance(cell, cc.portions, config.mac),
                noise_floor_dbm=chan.noise_floor_dbm(self.chan, cell.grid.prb_bandwidth_hz),
            )
            best = max(p.waveform_efficiency for p in cc.portions)
            descriptors[cc.cell_id] = describe_cell(cell, best)
        self._descriptors = MappingProxyType(descriptors)
        self._radio = chan.cell_constants(cr.mac.cell for cr in self.cells.values())

        # numerology is validated to be uniform, so one slot clock serves all
        grid = next(iter(self.cells.values())).mac.cell.grid
        self.slot_seconds = grid.slot_seconds
        # a power of two, so an integer latency sum times it is exact
        self.slot_ms = 2.0**-grid.numerology

        # Init-time indexes, O(U + F), so per-slot and per-handover paths never
        # rescan the config: each UE's flows in config order (filled as the
        # flows are built) and its services.
        self._flows_by_ue: dict[str, list[FlowRuntime]] = {uc.ue_id: [] for uc in config.ues}

        # Eligibility is static: each distinct capability set's best portion
        # per cell it may use, in config cell order, and those cells by UE.
        capabilities = {uc.ue_id: frozenset(uc.capabilities) for uc in config.ues}
        self._capabilities = MappingProxyType(capabilities)
        self._portions_by_caps: dict[frozenset[str], dict[str, PortionSpec]] = {}
        for caps in dict.fromkeys(capabilities.values()):
            table = self._portions_by_caps[caps] = {}
            for cid, cr in self.cells.items():
                usable = [p for p in cr.mac.portions.values() if p.usable_by(caps)]
                if usable:  # the first of equally efficient portions wins
                    table[cid] = max(usable, key=lambda p: p.waveform_efficiency)
        # one tuple per capability set, shared by its UEs
        eligible = {caps: tuple(table) for caps, table in self._portions_by_caps.items()}
        self._eligible = MappingProxyType({uid: eligible[caps] for uid, caps in capabilities.items()})

        best = self._best_cells(eligible, [uc for uc in config.ues if not uc.serving_cell])
        self.ues: dict[str, UeRuntime] = {}
        for i, uc in enumerate(config.ues):
            serving = uc.serving_cell or best[uc.ue_id]
            self.ues[uc.ue_id] = UeRuntime(cfg=uc, index=i, serving=serving)

        self.flows: dict[str, FlowRuntime] = {}
        for fc in config.flows:
            state = None
            if fc.service is not TrafficClass.MMTC:
                state = pdcp.FlowState(
                    fc.flow_id,
                    pdcp.Mode.AGGREGATE,
                    [],
                    leave_load=config.pdcp.leave_load,
                    enter_load=config.pdcp.enter_load,
                )
            rx = pdcp.ReceiverState(t_reorder_slots=config.pdcp.t_reorder_slots)
            fr = self.flows[fc.flow_id] = FlowRuntime(fc, state, rx, fc.service.value)
            self._flows_by_ue[fc.ue_id].append(fr)
            self._attach(fr, None, self.ues[fc.ue_id].serving)
        self._services = MappingProxyType({
            uid: tuple(sorted({fr.cfg.service for fr in frs}, key=lambda s: s.value))
            for uid, frs in self._flows_by_ue.items()
        })

        self.controller = None
        if config.uts.enabled and (config.uts.features or extra_features):
            registry = PluginRegistry()
            available = {rec.feature_id: (rec, ev) for rec, ev in builtin_features()}
            ranking = list(config.uts.effective_ranking())
            for fid in config.uts.features:
                rec, ev = available[fid]
                registry.register(rec, ev)
            for rec, ev in extra_features:
                registry.register(rec, ev)
                if rec.feature_id not in ranking:
                    ranking.append(rec.feature_id)
            strategy = MnoStrategy(
                name=f"{config.name}-strategy",
                scenario_tag=config.uts.scenario_tag,
                ranking=tuple(ranking),
                thresholds=config.uts.thresholds,
                hysteresis_epochs=config.uts.hysteresis_epochs,
                time_to_trigger_epochs=config.uts.time_to_trigger_epochs,
            )
            self.controller = UtsController(registry, strategy)

        self.slot = 0
        self.events: list[Event] = []
        self.rows: list[dict] = []
        self.pingpong_count = 0

    #: the read-only tables built at construction, which pickle as plain dicts
    _VIEWS = ("_descriptors", "_eligible", "_capabilities", "_services")

    def __getstate__(self) -> dict:
        return {k: dict(v) if k in self._VIEWS else v for k, v in self.__dict__.items()}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for k in self._VIEWS:
            setattr(self, k, MappingProxyType(state[k]))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _portion_for(self, ue_id: str, cell_id: str) -> PortionSpec | None:
        return self._portions_by_caps[self._capabilities[ue_id]].get(cell_id)

    def _best_cells(self, eligible: dict, ues: list) -> dict[str, str]:
        """Each UE's eligible cell of the highest RSRP, the lowest id on a tie.
        Only cells within twice the tolerance of the row's best estimate can
        be it; ``rsrp_dbm`` decides where there are two or more. Estimates go
        by capability set, over its eligible cells, in blocks of at most
        ``ESTIMATE_BLOCK_PAIRS`` pairs, so memory grows with UEs alone."""
        by_caps: dict[frozenset[str], list] = {}
        for uc in ues:
            by_caps.setdefault(self._capabilities[uc.ue_id], []).append(uc)
        best = {}
        for caps, group in by_caps.items():
            ids = eligible[caps]
            radio = self._radio[:, [self.cells[cid].index for cid in ids]]
            step = max(1, ESTIMATE_BLOCK_PAIRS // len(ids))
            for start in range(0, len(group), step):
                chunk = group[start:start + step]
                est = chan.rsrp_estimate(self.chan, radio, [uc.position for uc in chunk])
                near = est >= est.max(axis=1, keepdims=True) - 2 * chan.SIGNAL_ESTIMATE_TOL_DB
                picks = [ids[j] for j in near.argmax(axis=1).tolist()]
                for i in np.flatnonzero(near.sum(axis=1) > 1).tolist():
                    position = chunk[i].position
                    picks[i] = min(
                        (-chan.rsrp_dbm(self.chan, self.cells[ids[j]].mac.cell, position), ids[j])
                        for j in np.flatnonzero(near[i]).tolist()
                    )[1]
                best.update(zip((uc.ue_id for uc in chunk), picks))
        return best

    def _register_mac_flow(self, fr: FlowRuntime, cell_id: str) -> PortionSpec:
        """Register the flow with the cell's MAC on the UE's best portion there.
        A URLLC flow's explicit ``sps_*`` settings win; a periodic generator
        fills in the rest, and the reservation covers one of its packets."""
        fc = fr.cfg
        portion = self._portion_for(fc.ue_id, cell_id)
        if portion is None:
            raise ValueError(f"flow {fc.flow_id!r}: UE not eligible on cell {cell_id!r}")
        sps = {}
        if fc.service is TrafficClass.URLLC:
            gen = fc.generator
            period, prbs, offset = fc.sps_period_slots, fc.sps_prbs, fc.sps_offset_slots
            if isinstance(gen, traffic.PeriodicDeadline):
                period = period or gen.period_slots
                offset = offset or gen.offset_slots
            if prbs is None:
                rate = self.cells[cell_id].mac.reference_per_prb_bits(portion.key)
                prbs = max(1, math.ceil(gen.packet_bits / rate))
            sps = dict(sps_period_slots=period, sps_prbs=prbs, sps_offset_slots=offset)
        self.cells[cell_id].mac.register_flow(
            MacFlow(
                flow_id=fc.flow_id,
                ue_id=fc.ue_id,
                service=fc.service,
                portion_key=portion.key,
                slice_id=fc.slice_id,
                **sps,
            )
        )
        return portion

    def _attach(
        self, fr: FlowRuntime, src: str | None, dst: str | None, mode: pdcp.Mode | None = None
    ) -> None:
        """The one place a flow's attachment changes: move its leg on ``src``
        to ``dst``, add a leg on ``dst`` (``src`` None) or drop the one on
        ``src`` (``dst`` None). A leg's id is its cell's id.

        In the same step the MACs and their cells' pair tables follow
        (``src`` deregisters the flow, ``dst`` registers it), the old leg's
        queue goes to the target leg, or on a drop to the first leg left
        unless the flow duplicates (a partly sent head packet goes whole, and
        its sent bits count in ``resent_bits``), the flow keeps its last leg,
        ``active_leg`` resets when a leg goes, and below two legs the mode is
        AGGREGATE. ``mode``, if given, is the flow's mode from now on. An
        mMTC flow has no legs: its registration moves and its pending access
        attempts move with it.
        """
        fid, state = fr.cfg.flow_id, fr.state
        if state is None:
            moved = []
            if src is not None:
                mac = self.cells[src].mac
                moved = [a for a in mac.pending if a.flow_id == fid]
                mac.deregister_flow(fid)  # which drops them from src
            self._register_mac_flow(fr, dst)
            self.cells[dst].mac.pending.extend(moved)
            return
        legs = state.legs
        old = state.leg_by_cell(src) if src is not None else None
        if src is not None and (old is None or (dst is None and len(legs) == 1)):
            return  # no leg there, or the flow's last leg, which it keeps
        new = state.leg_by_cell(dst) if dst is not None else None
        if dst is not None and new is None:
            portion, cr = self._register_mac_flow(fr, dst), self.cells[dst]
            new = pdcp.Leg(dst, dst, capacity_score(cr.mac.cell.grid, portion.waveform_efficiency))
            legs.insert(legs.index(old) if old is not None else len(legs), new)
            ue = fr.cfg.ue_id
            cr.pairs[fid] = (new, (ue, portion.key), (self.ues[ue].index, cr.index))
        if old is not None:
            self.cells[src].mac.deregister_flow(fid)
            del self.cells[src].pairs[fid]
            legs.remove(old)
            if dst is not None or state.mode is not pdcp.Mode.DUPLICATE:
                into = new if dst is not None else legs[0]
                for run in old.queue:  # carried over in order
                    into.enqueue(run)
                # the head packet goes whole, as PDCP re-sends an
                # unacknowledged PDU: its sent part will be served again
                fr.resent_bits += old.head_sent_bits
            state.active_leg = 0
        if mode is not None:
            state.mode, state.active_leg = mode, 0
        if len(legs) < 2:
            state.mode = pdcp.Mode.AGGREGATE

    # ------------------------------------------------------------------
    # steering mutators, driven by uts.apply_actions
    # ------------------------------------------------------------------

    def apply_handover(self, ue_id: str, target: str) -> None:
        """Serve the UE from ``target``. A return to the cell its last handover
        left, at most hysteresis x steering-epoch slots later, is a ping-pong."""
        rt, uts = self.ues[ue_id], self.config.uts
        window = uts.hysteresis_epochs * uts.epoch_slots
        if target == rt.prev_serving and self.slot - rt.moved_slot <= window:
            self.pingpong_count += 1
        prev, rt.serving = rt.serving, target
        rt.prev_serving, rt.moved_slot = prev, self.slot
        rt.secondary = tuple(c for c in rt.secondary if c != target)
        for fr in self._flows_by_ue[ue_id]:
            self._attach(fr, prev, target)

    def apply_offload(self, ue_id: str, target: str) -> None:
        """Move the UE's data legs to the target while the anchor stays."""
        rt = self.ues[ue_id]
        for fr in self._flows_by_ue[ue_id]:
            if fr.state is not None:
                self._attach(fr, rt.serving, target)
        rt.secondary = rt.secondary + (target,)

    def apply_add_secondary(self, ue_id: str, target: str) -> None:
        rt = self.ues[ue_id]
        rt.secondary = rt.secondary + (target,)
        for fr in self._flows_by_ue[ue_id]:
            if fr.cfg.service in (TrafficClass.EMBB, TrafficClass.LEGACY_MBB):
                self._attach(fr, None, target)

    def apply_release_secondary(self, ue_id: str, target: str) -> None:
        rt = self.ues[ue_id]
        rt.secondary = tuple(c for c in rt.secondary if c != target)
        for fr in self._flows_by_ue[ue_id]:
            if fr.state is not None:
                self._attach(fr, target, None)

    def apply_configure_dc(self, ue_id: str, master: str, second: str) -> None:
        rt = self.ues[ue_id]
        rt.secondary = rt.secondary + (second,)
        for fr in self._flows_by_ue[ue_id]:
            if fr.state is None:
                continue
            if fr.state.leg_by_cell(master) is None:  # homed elsewhere: to the master first
                self._attach(fr, fr.state.legs[0].cell_id, master)
            self._attach(fr, None, second, self.config.pdcp.service_modes[fr.cfg.service])

    # ------------------------------------------------------------------
    # per-slot stages
    # ------------------------------------------------------------------

    def _position_at(self, rt: UeRuntime, slot: int) -> tuple[float, float]:
        """Where the UE is at ``slot``: its start moved at its velocity."""
        (x, y), (vx, vy) = rt.cfg.position, rt.cfg.velocity
        t = slot * self.slot_seconds
        return (x + vx * t, y + vy * t)

    def _arrivals(self) -> None:
        """Each flow's packets of this slot: one run, sent onto a flow's only
        leg (AGGREGATE, as ``_attach`` leaves it) or else routed, or for an
        mMTC flow one access attempt per packet."""
        slot, rng, epoch = self.slot, self.rng_traffic, self.slot // self.config.uts.epoch_slots
        for fr in self.flows.values():
            fc, state = fr.cfg, fr.state
            one_leg = state is not None and len(state.legs) == 1
            queued = state.legs[0].queue_bits if one_leg else fr.queued_bits()
            count, bits = fc.generator.step(slot, rng, queued)
            if not count:
                continue
            fr.arrived_bits += bits * count
            if one_leg:
                pdcp.send_run(state, state.legs, float(bits), slot, count)
            elif state is None:
                mac = self.cells[self.ues[fc.ue_id].serving].mac
                for _ in range(count):
                    mac.queue_attempt(fc.flow_id, float(bits), slot)
                fr.attempts += count
            else:
                if state.mode is pdcp.Mode.LOAD_BALANCE:  # its switch reads them
                    for leg in state.legs:
                        leg.current_load = self.cells[leg.cell_id].mac.load.value
                pdcp.route_packet(state, float(bits), slot, epoch, count)

    def _channel_inputs(self) -> list[tuple[CellRuntime, SlotInputs]]:
        """Every cell's ``SlotInputs`` for this slot, in cell order, read
        straight from its pair table (``CellRuntime.pairs``, which
        ``_attach`` keeps in step with the MAC's registrations): the backlog
        of each queue-driven flow's leg on the cell and the per-PRB rate of
        each (UE, portion) pair with such a flow. A MAC drains only its own
        cell's legs, so reading every backlog up front gives the values each
        MAC would read just before it runs.

        ``_rates`` holds each (UE index, cell index) pair's rate for every
        slot of the current span of ``FADING_SPAN_MAX`` slots, as a list (a
        UE has one portion per cell), and is dropped when the span changes.
        The pairs it lacks, at the span's first slot or when a handover
        brings one in mid-span, get their rows from one block
        (``_fill_rates``). Each slot reads its entry of each row.
        """
        span = FADING_SPAN_MAX
        index, k = divmod(self.slot, span)
        if index != self._rates_span:
            self._rates_span, self._rates = index, {}
        cells, rates = self.cells.values(), self._rates

        def per_prb() -> list[dict[tuple[str, str], float]]:
            return [{key: rates[fk][k] for _, key, fk in cr.pairs.values()} for cr in cells]

        try:
            cell_rates = per_prb()
        except KeyError:  # pairs the span has no rows for yet
            self._fill_rates({
                fk: (self.ues[key[0]], cr, cr.mac.portions[key[1]].waveform_efficiency)
                for cr in cells for _, key, fk in cr.pairs.values() if fk not in rates
            }, index * span, span)
            cell_rates = per_prb()
        return [
            (cr, SlotInputs({fid: leg.queue_bits for fid, (leg, _, _) in cr.pairs.items()}, r))
            for cr, r in zip(cells, cell_rates)
        ]

    def _fill_rates(self, missing: dict, first: int, span: int) -> None:
        """The rate table's rows for ``missing``, (UE index, cell index) ->
        (UE, cell, efficiency), over ``span`` slots from ``first``, from one
        numpy block: fading, the signal estimate at each slot's position less
        noise floor and margin, then ``link_rates``, whose exact SINR is
        ``mean_sinr_db`` at ``_position_at`` plus the same fading. Each
        pair's cell constants are indexed once and broadcast over its slots,
        and one estimate covers every pair: at each slot's position, or once
        if no UE of the block moves. The pairs' constants are read here, not
        kept."""
        keys, rows = list(missing), list(missing.values())
        idx = np.array(keys, dtype=np.uint64)
        slots = np.arange(first, first + span)
        fading = chan.fading_db_batch(self.chan, idx[:, :1], idx[:, 1:], slots.astype(np.uint64))
        radio = self._radio[:, [cr.index for _, cr, _ in rows]][..., None, None]
        start = np.array([rt.cfg.position for rt, _, _ in rows])[:, None]
        velocity = np.array([rt.cfg.velocity for rt, _, _ in rows])[:, None]
        t = (slots * self.slot_seconds)[:, None] if velocity.any() else 0.0
        rsrp = chan.rsrp_estimate(self.chan, radio, start + velocity * t)[..., 0]
        noise = np.array([cr.noise_floor_dbm for _, cr, _ in rows])[:, None]
        sinr = rsrp - noise - self.chan.interference_margin_db + fading

        def exact(i: int, j: int) -> float:
            rt, cr, _ = rows[i]
            slot = first + j
            mean = chan.mean_sinr_db(self.chan, cr.mac.cell, self._position_at(rt, slot))
            return mean + chan.fading_db(self.chan, rt.index, cr.index, slot)

        links = [(eff, cr.mac.cell.grid) for _, cr, eff in rows]
        # the estimate's own tolerance, and as much again for the rounding of
        # the three subtractions after it (each under 1e-11 dB at any distance)
        # and for the gap between numpy's fading and ``fading_db``'s (at most
        # 7.1e-15 dB; none with numpy's AVX-512 kernels off)
        rates = link_rates(sinr, links, 2 * chan.SIGNAL_ESTIMATE_TOL_DB, exact)
        self._rates.update(zip(keys, rates))

    def _drain_flow(self, fr: FlowRuntime, cr: CellRuntime, bits: float) -> float:
        """Send ``bits`` from the flow's leg on cell ``cr``, read from its pair
        table: finish the head packet, then as many whole packets as the bits
        cover, then part of the next. Each finished packet is lost with the
        cell's ``drop_prob`` or received; received packets in order with
        nothing buffered are taken at once, others go through
        ``reorder_deliver``."""
        leg = cr.pairs[fr.cfg.flow_id][0]
        pool = bits
        drop_prob = cr.drop_prob
        queue, rx = leg.queue, fr.rx
        while pool > 0 and queue:
            sn, count, size, created = queue[0]
            need = size - leg.head_sent_bits
            if pool < need:
                leg.head_sent_bits += pool
                leg.queue_bits -= pool
                return bits
            # whole-number bits, so this equals taking the packets one by one
            done = 1 + min(count - 1, int((pool - need) // size))
            used = need + (done - 1) * size
            pool -= used
            leg.queue_bits -= used
            leg.head_sent_bits = 0.0
            if done == count:
                queue.popleft()
            else:
                queue[0] = pdcp.Run(sn + done, count - done, size, created)
            ends = [done]
            if drop_prob > 0.0:  # one draw per packet, in SN order
                lost = (self.rng_loss.random(done) < drop_prob).tolist()
                ends = [i for i, x in enumerate(lost) if x] + ends
                fr.lost_in_transit += len(ends) - 1
            first = 0  # the first finished packet not yet lost or received
            for end in ends:  # each lost packet, then the run's end
                if end > first:
                    s, n = sn + first, end - first
                    if s == rx.expected_sn and not rx.buffer:
                        pdcp.take_in_order(rx, n)
                        self._deliver(fr, size, created, n)
                    else:
                        for d in pdcp.reorder_deliver(rx, s, size, created, self.slot, n):
                            self._deliver(fr, d.bits, d.created_slot, d.count)
                first = end + 1
        return bits - pool

    def _deliver(self, fr: FlowRuntime, bits: float, created_slot: int, count: int = 1) -> None:
        """Book ``count`` deliveries of ``bits`` each, in order or by random
        access: the flow's totals, its latency, and the UE's steering window."""
        total = bits * count
        fr.delivered_bits += total
        lat = self.slot - created_slot
        fr.latency_counts[lat] = fr.latency_counts.get(lat, 0) + count
        fr.latency_sum += lat * count
        fr.latency_n += count
        self.ues[fr.cfg.ue_id].delivered_window_bits += total

    def _run_macs(self) -> None:
        for cr, inputs in self._channel_inputs():
            cid = cr.mac.cell.cell_id
            res = cr.mac.run_slot(self.slot, inputs, self.rng_access, self.rng_backoff)
            self.events.extend(res.events)
            for fid in sorted(res.served_bits):
                fr = self.flows[fid]
                bits = res.served_bits[fid]
                if not pdcp.whole_bits(bits):  # run arithmetic would round
                    raise AssertionError(f"{cid} served {bits!r} bits to {fid}")
                got = self._drain_flow(fr, cr, bits)
                cr.served_bits_total += got
                fr.mac_served_bits += got
            for att in res.access_delivered:
                fr = self.flows[att.flow_id]
                cr.served_bits_total += att.payload_bits
                fr.mac_served_bits += att.payload_bits
                self._deliver(fr, att.payload_bits, att.created_slot)

    def _reorder_ticks(self) -> None:
        for fr in self.flows.values():
            if fr.rx.gap_since is None:  # no timer running (never for mMTC)
                continue
            for d in pdcp.reorder_tick(fr.rx, self.slot):
                self._deliver(fr, d.bits, d.created_slot, d.count)

    def _context(self) -> UtsContext:
        """This epoch's steering context. Each UE's signal row is built when
        a feature first reads it, from ``rsrp_dbm`` at the UE's position at
        the context's slot, so a row read later gives the same values; the
        row keeps what it reads, and nothing else does. The signal estimate,
        computed when called, reads those positions too. Each cell's load is
        read from its MAC; its descriptor is the one built at construction.
        Each UE's delivery-rate window closes here and starts again."""
        slot, ues = self.slot, self.ues.items()

        def signal_row(uid: str) -> LazyRow:
            position = self._position_at(self.ues[uid], slot)
            return LazyRow(self.cells, lambda cid: signal_db(
                chan.rsrp_dbm(self.chan, self.cells[cid].mac.cell, position)))

        def signal_estimate(uids, cids) -> np.ndarray:
            radio = self._radio[:, [self.cells[cid].index for cid in cids]]
            positions = [self._position_at(self.ues[u], slot) for u in uids]
            return chan.rsrp_estimate(self.chan, radio, positions) - RSRP_FLOOR_DBM

        window_s = self.config.uts.epoch_slots * self.slot_seconds
        rate = {}
        for uid, rt in ues:
            rate[uid] = rt.delivered_window_bits / window_s
            rt.delivered_window_bits = 0.0
        return UtsContext(
            epoch_index=self.slot // self.config.uts.epoch_slots,
            scenario_tag=self.config.uts.scenario_tag,
            cell_load={cid: cr.mac.load for cid, cr in self.cells.items()},
            cell_descriptors=self._descriptors,
            ue_signal=LazyRow(self.ues, signal_row),
            ue_serving={uid: rt.serving for uid, rt in ues},
            ue_secondary={uid: rt.secondary for uid, rt in ues},
            ue_services=self._services,
            ue_capabilities=self._capabilities,
            ue_eligible=self._eligible,
            ue_rate_bps=rate,
            signal_estimate=signal_estimate,
        )

    def _steering(self) -> None:
        if self.controller is None or self.slot % self.config.uts.epoch_slots != 0:
            return
        _, events = self.controller.step(self._context(), self, self.slot)
        self.events.extend(events)

    def _metrics_rollup(self) -> None:
        if (self.slot + 1) % self.config.mac.epoch_slots != 0:
            return
        epoch = self.slot // self.config.mac.epoch_slots
        epoch_s = self.config.mac.epoch_slots * self.slot_seconds
        for fr in self.flows.values():
            fc = fr.cfg
            totals = (fr.arrived_bits, fr.delivered_bits, fr.latency_sum, fr.latency_n)
            arrived, delivered, lat_sum, lat_n = (t - r for t, r in zip(totals, fr.rolled))
            fr.rolled = totals
            mean_lat = lat_sum / lat_n if lat_n else None
            self.rows.append(
                {
                    "epoch": epoch,
                    "flow": fc.flow_id,
                    "ue": fc.ue_id,
                    "service": fr.service,
                    "arrived_bits": arrived,
                    "delivered_bits": delivered,
                    "throughput_bps": delivered / epoch_s,
                    "backlog_bits": fr.queued_bits(),
                    "mean_latency_ms": (
                        mean_lat * self.slot_seconds * 1e3 if mean_lat is not None else None
                    ),
                }
            )
            if fr.state is not None and len(fr.state.legs) > 1:
                self.events.append(
                    Event.make(
                        self.slot,
                        "pdcp",
                        "leg_activity",
                        flow=fc.flow_id,
                        mode=fr.state.mode.value,
                        legs="|".join(
                            f"{c}:{n}" for c, n in sorted(fr.state.sent_pdus.items())
                        ),
                    )
                )

    def step_slot(self) -> None:
        """Advance the world one slot through ``STAGE_ORDER``."""
        for _stage, method in STAGE_ORDER:
            getattr(self, method)()
        self.slot += 1

    def run(self, horizon_slots: int | None = None) -> "RunResult":
        horizon = horizon_slots if horizon_slots is not None else self.config.sim.horizon_slots
        while self.slot < horizon:
            self.step_slot()
        return RunResult(
            config=self.config,
            seed=self.seed,
            report=self.build_report(),
            rows=self.rows,
            events=self.events,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def build_report(self) -> "MetricsReport":
        per_flow = {}
        all_lat: Counter[int] = Counter()
        for fr in self.flows.values():
            fc, gen = fr.cfg, fr.cfg.generator
            all_lat.update(fr.latency_counts)
            deadline = gen.deadline_slots if isinstance(gen, traffic.PeriodicDeadline) else math.inf
            per_flow[fc.flow_id] = {
                "ue": fc.ue_id,
                "service": fr.service,
                "arrived_bits": fr.arrived_bits,
                "delivered_bits": fr.delivered_bits,
                "mac_served_bits": fr.mac_served_bits,
                "backlog_bits": fr.queued_bits(),
                "delivered_pdus": fr.rx.delivered_count if fr.state is not None else None,
                "duplicates_dropped": fr.rx.duplicates_dropped if fr.state is not None else None,
                "declared_lost": fr.rx.lost_count if fr.state is not None else None,
                "lost_in_transit": fr.lost_in_transit,
                "deadline_misses": sum(n for l, n in fr.latency_counts.items() if l > deadline),
                "access_attempts": fr.attempts,
                "mean_latency_ms": (
                    fr.latency_sum * self.slot_ms / fr.latency_n if fr.latency_n else None
                ),
            }
        per_cell = {}
        horizon = max(self.slot, 1)
        for cid, cr in self.cells.items():
            per_cell[cid] = {
                "served_bits": cr.served_bits_total,
                "granted_prbs": cr.mac.granted_prbs,
                "prb_utilization": cr.mac.granted_prbs / (horizon * cr.mac.cell.grid.prbs_per_slot),
                "final_load_fraction": cr.mac.load.value,
            }
        rates = [m["delivered_bits"] for m in per_flow.values() if m["delivered_bits"] > 0]
        fairness = compute_fairness(rates) if rates else None
        if all_lat:
            # percentiles over every delivered packet, each latency in ms as
            # it always was: l * slot_seconds * 1e3 is not always l * slot_ms
            # (9 slots of 1 ms give 9.000000000000002)
            values_ms = np.array([l * self.slot_seconds * 1e3 for l in all_lat])
            per_packet = np.repeat(values_ms, list(all_lat.values()))
            p50, p95, p99 = (float(x) for x in np.percentile(per_packet, [50, 95, 99]))
        else:
            p50 = p95 = p99 = None
        successes = sum(cr.mac.rach_successes for cr in self.cells.values())
        collisions = sum(cr.mac.rach_collisions for cr in self.cells.values())
        attempts = successes + collisions
        history = self.controller.history if self.controller is not None else ()
        actions = Counter(h.action.kind.value for h in history)
        return MetricsReport(
            slots=self.slot,
            backend=kernels.backend_name(),
            per_flow=per_flow,
            per_cell=per_cell,
            fairness_delivered=fairness,
            latency_ms_p50=p50,
            latency_ms_p95=p95,
            latency_ms_p99=p99,
            rach_attempts=attempts,
            rach_successes=successes,
            rach_collisions=collisions,
            rach_success_rate=successes / attempts if attempts else None,
            steering_actions=dict(sorted(actions.items())),
            pingpong_count=self.pingpong_count,
        )


@dataclass
class MetricsReport:
    """End-of-run rollup; everything in it is deterministic per (config, seed)."""

    slots: int
    backend: str
    per_flow: dict
    per_cell: dict
    fairness_delivered: float | None
    latency_ms_p50: float | None
    latency_ms_p95: float | None
    latency_ms_p99: float | None
    rach_attempts: int
    rach_successes: int
    rach_collisions: int
    rach_success_rate: float | None
    steering_actions: dict
    pingpong_count: int

    def to_dict(self) -> dict:
        """The fields as a document, the four ``rach_*`` nested under ``rach``."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}  # asdict would deep-copy
        doc["rach"] = {k[5:]: doc.pop(k) for k in list(doc) if k.startswith("rach_")}
        return doc


@dataclass
class RunResult:
    config: ScenarioConfig
    seed: int
    report: MetricsReport
    rows: list
    events: list


def run_scenario(
    config: ScenarioConfig, seed: int | None = None, extra_features=()
) -> RunResult:
    """Build a world from the config and run it to its horizon."""
    world = World(config, seed=seed, extra_features=extra_features)
    return world.run()
