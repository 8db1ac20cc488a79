"""The slot-driven world: traffic, flow control, per-cell MACs, channel,
and steering wired together deterministically.

Every slot runs the same stage order — mobility, arrivals, steering (on its
epoch boundary), per-cell MAC, transmission/reception, metrics — and all
randomness flows from named substreams of one seed plus the counter-based
fading hash, so a (config, seed) pair fully determines every output byte.

The fading hash is stateless, so it is evaluated a MAC epoch at a time: one
call gives every (UE, cell) pair with a queue-driven flow its fading for each
slot of the epoch, and a pair that a handover brings in mid-epoch gets its row
the same way. Each slot reads its own column; the rows go when the epoch
ends. Lookups the slot loop needs (start positions, flows by UE, services by
UE, portions by key, eligible cells by capability set) are indexed once at
construction. A per-UE RSRP cache and the mean SINRs derived
from it fill as they are read and drop when the UE moves; the steering context
reads through it, converting with ``signal_db``, and takes cell loads through
``load_fraction``. So a slot costs work per (UE, cell) pair that something reads.

Packets move as runs (``pdcp.Run``): a flow's arrivals in a slot are routed
in one call, the drain uses up whole packets of a leg's head run with
arithmetic, and the receiver and the delivery books take a run at a time.
Latencies are kept as a count per latency in slots, so a flow's state does
not grow with the horizon. Run arithmetic is exact because every bit amount
is a whole number below 2**53; generator sizes and the MAC's served bits are
checked where they enter (``pdcp.whole_bits``).

A flow's attachment changes in one place, ``World._attach``: it moves, adds
or drops one leg (whose id is its cell's id) and keeps the MAC registrations,
the queued runs, the last-leg rule and the mode's leg count in step. The five
steering mutators go only through it, and so does an mMTC flow's handover,
which carries its pending access attempts along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import channel as chan
from . import kernels, pdcp, traffic
from .abstraction import (
    CapabilityDescriptor,
    PluginRegistry,
    capacity_score,
    describe_cell,
    link_rate,
    load_fraction,
    signal_db,
)
from .core import (
    Cell,
    Event,
    TrafficClass,
    UserEquipment,
    compute_fairness,
    validate_blocks,
    DegenerateInputError,
)
from .mac import MacFlow, MacInstance, PortionSpec, SlotInputs
from .scenario import FlowConfig, ScenarioConfig, build_domain, build_ue
from .uts import LazyRow, MnoStrategy, UtsContext, UtsController, builtin_features

#: Each slot's stages in order, and the ``World`` method that runs each.
STAGE_ORDER = (
    ("mobility", "_refresh_positions"),
    ("arrivals", "_arrivals"),
    ("steering", "_steering"),
    ("legs", "_refresh_legs"),
    ("mac", "_run_macs"),
    ("transport", "_reorder_ticks"),
    ("metrics", "_metrics_rollup"),
)


@dataclass
class CellRuntime:
    cell: Cell
    index: int
    drop_prob: float
    portions: tuple[PortionSpec, ...]
    portion_by_key: dict[str, PortionSpec]
    mac: MacInstance
    descriptor: CapabilityDescriptor
    noise_floor_dbm: float
    served_bits_total: float = 0.0
    granted_prbs_total: int = 0


@dataclass
class UeRuntime:
    ue: UserEquipment
    index: int
    serving: str
    secondary: tuple[str, ...] = ()
    delivered_window_bits: float = 0.0


@dataclass
class FlowRuntime:
    cfg: FlowConfig
    generator: object
    state: pdcp.FlowState | None
    rx: pdcp.ReceiverState
    arrived_bits: float = 0.0
    delivered_bits: float = 0.0
    mac_served_bits: float = 0.0
    lost_in_transit: int = 0
    #: bits of partly sent head packets that a leg change re-sends whole
    resent_bits: float = 0.0
    attempts: int = 0
    #: delivered packets by latency in slots
    latency_counts: dict[int, int] = field(default_factory=dict)
    deadline_misses: int = 0
    # per-MAC-epoch window accumulators
    w_arrived: float = 0.0
    w_delivered: float = 0.0
    w_latency_sum: int = 0
    w_latency_n: int = 0

    def queued_bits(self) -> float:
        if self.state is None:
            return 0.0
        return sum(l.queue_bits for l in self.state.legs)


class World:
    """One simulation run's mutable state plus the steering hooks."""

    def __init__(self, config: ScenarioConfig, seed: int | None = None, extra_features=()):
        self.config = config
        self.seed = config.sim.seed if seed is None else seed
        ss = np.random.SeedSequence(self.seed)
        streams = ss.spawn(4)
        self.rng_traffic = np.random.default_rng(streams[0])
        self.rng_access = np.random.default_rng(streams[1])
        self.rng_backoff = np.random.default_rng(streams[2])
        self.rng_loss = np.random.default_rng(streams[3])

        if config.channel.fading_seed is None:
            self.chan = replace(config.channel, fading_seed=self.seed)
        else:
            self.chan = config.channel
        # fading of each (UE index, cell index) pair over the current MAC
        # epoch's slots, filled by _channel_inputs
        self._fading_epoch = -1
        self._fading: dict[tuple[int, int], list[float]] = {}

        self.cells: dict[str, CellRuntime] = {}
        for i, cc in enumerate(config.cells):
            cell = build_domain(cc)
            mac = MacInstance(cell, cc.portions, config.mac)
            best_eff = max(p.waveform_efficiency for p in cc.portions)
            self.cells[cc.cell_id] = CellRuntime(
                cell=cell,
                index=i,
                drop_prob=cc.drop_prob,
                portions=cc.portions,
                portion_by_key={p.key: p for p in cc.portions},
                mac=mac,
                descriptor=describe_cell(cell, 0.0, best_eff),
                noise_floor_dbm=chan.noise_floor_dbm(self.chan, cell.grid.prb_bandwidth_hz),
            )

        # numerology is validated to be uniform, so one slot clock serves all
        mu = config.cells[0].numerology
        self.slot_seconds = 1e-3 / (2**mu)
        # a power of two, so an integer latency sum times it is exact
        self.slot_ms = self.slot_seconds * 1e3
        if self.slot_ms != 2.0**-mu:
            raise AssertionError(f"slot of {self.slot_ms!r} ms is not 2**-{mu}")

        # Init-time indexes, O(U + F), so per-slot and per-handover paths never
        # rescan the config: start positions by UE, each UE's flows in config
        # order (filled as the flows are built) and its services.
        self._start_position = {uc.ue_id: uc.position for uc in config.ues}
        self._flows_by_ue: dict[str, list[FlowRuntime]] = {uc.ue_id: [] for uc in config.ues}

        # per UE, then per cell: RSRP and the mean SINR derived from it; a UE
        # that moves drops both
        self._rsrp_cache: dict[str, dict[str, float]] = {}
        self._sinr_cache: dict[str, dict[str, float]] = {}

        # Eligibility is static: each distinct capability set's best portion
        # per cell it may use, in config cell order, and those cells by UE.
        built = [build_ue(uc) for uc in config.ues]
        self._portions_by_caps: dict[frozenset[str], dict[str, PortionSpec]] = {}
        for caps in dict.fromkeys(u.capabilities for u in built):
            table = self._portions_by_caps[caps] = {}
            for cid, cr in self.cells.items():
                usable = [p for p in cr.portions if p.required_capability in (None, *caps)]
                if usable:  # the first of equally efficient portions wins
                    table[cid] = max(usable, key=lambda p: p.waveform_efficiency)
        self._eligible = MappingProxyType(
            {u.ue_id: tuple(self._portions_by_caps[u.capabilities]) for u in built}
        )
        self._capabilities = MappingProxyType({u.ue_id: u.capabilities for u in built})

        self.ues: dict[str, UeRuntime] = {}
        for i, (uc, ue) in enumerate(zip(config.ues, built)):
            serving = uc.serving_cell or self._best_cell(ue)
            self.ues[uc.ue_id] = UeRuntime(ue=ue, index=i, serving=serving)

        self.flows: dict[str, FlowRuntime] = {}
        for fc in config.flows:
            gen = traffic.make_generator(fc.generator_kind, fc.generator_params)
            # run arithmetic needs whole-number bits, and a packet has some
            for name, low in (("packet_bits", 1), ("watermark_bits", 0)):
                val = getattr(gen, name, low)
                if not (pdcp.whole_bits(val) and val >= low):
                    raise ValueError(f"flow {fc.flow_id!r}: {name} must be whole bits >= {low}")
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
            fr = self.flows[fc.flow_id] = FlowRuntime(cfg=fc, generator=gen, state=state, rx=rx)
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
                thresholds=config.uts.thresholds_dict(),
                hysteresis_epochs=config.uts.hysteresis_epochs,
                time_to_trigger_epochs=config.uts.time_to_trigger_epochs,
            )
            self.controller = UtsController(registry, strategy)

        self.slot = 0
        self.events: list[Event] = []
        self.rows: list[dict] = []
        self.rach_attempts = 0
        self.rach_successes = 0
        self.rach_collisions = 0
        self.action_counts: dict[str, int] = {}
        self.serving_trace: dict[str, list[tuple[int, str]]] = {
            u: [(0, rt.serving)] for u, rt in self.ues.items()
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _portion_for(self, ue: UserEquipment, cell_id: str) -> PortionSpec | None:
        return self._portions_by_caps[ue.capabilities].get(cell_id)

    def _best_cell(self, ue: UserEquipment) -> str:
        dbm = self._rsrp_cache.setdefault(ue.ue_id, {})
        cands = [(-self._rsrp(dbm, cid, ue.position), cid) for cid in self._eligible[ue.ue_id]]
        if not cands:
            raise ValueError(f"UE {ue.ue_id!r} is eligible for no cell")
        return min(cands)[1]

    def _register_mac_flow(self, fr: FlowRuntime, cell_id: str) -> PortionSpec:
        """Register the flow with the cell's MAC on the UE's best portion there.
        A URLLC flow's explicit ``sps_*`` settings win; a periodic generator
        fills in the rest, and the reservation covers one packet."""
        fc = fr.cfg
        portion = self._portion_for(self.ues[fc.ue_id].ue, cell_id)
        if portion is None:
            raise ValueError(f"flow {fc.flow_id!r}: UE not eligible on cell {cell_id!r}")
        sps = {}
        if fc.service is TrafficClass.URLLC:
            gen = fr.generator
            period, prbs, offset = fc.sps_period_slots, fc.sps_prbs, fc.sps_offset_slots
            bits = 2000
            if isinstance(gen, traffic.PeriodicDeadline):
                period = period or gen.period_slots
                offset = offset or gen.offset_slots
                bits = gen.packet_bits
            if prbs is None:
                rate = self.cells[cell_id].mac.reference_per_prb_bits(portion.key)
                prbs = max(1, math.ceil(bits / rate))
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

        In the same step the MACs follow (``src`` deregisters the flow,
        ``dst`` registers it), the old leg's queue goes to the target leg, or
        on a drop to the first leg left unless the flow duplicates (a partly
        sent head packet goes whole, and its sent bits count in
        ``resent_bits``), the flow keeps its last leg, ``active_leg`` resets
        when a leg goes, and below two legs the mode is AGGREGATE. ``mode``, if given, is the flow's mode
        from now on. An mMTC flow has no legs: its registration moves and its
        pending access attempts move with it.
        """
        fid, state = fr.cfg.flow_id, fr.state
        if state is None:
            moved = []
            if src is not None:
                mac = self.cells[src].mac
                moved = [a for a in mac.pending if a.flow_id == fid]
                mac.deregister_flow(fid)  # which drops them from src
            key = self._register_mac_flow(fr, dst).key
            for a in moved:
                a.portion_key = key
            self.cells[dst].mac.pending.extend(moved)
            return
        legs = state.legs
        old = state.leg_by_cell(src) if src is not None else None
        if src is not None and (old is None or (dst is None and len(legs) == 1)):
            return  # no leg there, or the flow's last leg, which it keeps
        new = state.leg_by_cell(dst) if dst is not None else None
        if dst is not None and new is None:
            eff = self._register_mac_flow(fr, dst).waveform_efficiency
            new = pdcp.Leg(dst, dst, capacity_score(self.cells[dst].cell.grid, eff))
            legs.insert(legs.index(old) if old is not None else len(legs), new)
        if old is not None:
            self.cells[src].mac.deregister_flow(fid)
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
        rt = self.ues[ue_id]
        prev, rt.serving = rt.serving, target
        rt.secondary = tuple(c for c in rt.secondary if c != target)
        for fr in self._flows_by_ue[ue_id]:
            self._attach(fr, prev, target)
        self.serving_trace[ue_id].append((self.slot, target))

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
            self._attach(fr, None, second, self.config.pdcp.mode_for(fr.cfg.service))

    # ------------------------------------------------------------------
    # per-slot stages
    # ------------------------------------------------------------------

    def _refresh_positions(self) -> None:
        t = self.slot * self.slot_seconds
        for uid, rt in self.ues.items():
            vx, vy = rt.ue.velocity
            if vx == 0.0 and vy == 0.0:
                continue
            base = self._start_position[uid]
            new_pos = (base[0] + vx * t, base[1] + vy * t)
            rt.ue = UserEquipment(
                ue_id=rt.ue.ue_id,
                position=new_pos,
                capabilities=rt.ue.capabilities,
                velocity=rt.ue.velocity,
            )
            self._rsrp_cache.pop(uid, None)
            self._sinr_cache.pop(uid, None)

    def _rsrp(self, dbm: dict, cell_id: str, position: tuple[float, float]) -> float:
        """RSRP of ``cell_id`` from a UE's cache ``dbm``, computed at
        ``position`` and kept there on a miss."""
        val = dbm.get(cell_id)
        if val is None:
            val = dbm[cell_id] = chan.rsrp_dbm(self.chan, self.cells[cell_id].cell, position)
        return val

    def _mean_sinr(self, ue_id: str, cell_id: str) -> float:
        by_cell = self._sinr_cache.setdefault(ue_id, {})
        hit = by_cell.get(cell_id)
        if hit is not None:
            return hit
        dbm = self._rsrp_cache.setdefault(ue_id, {})
        rsrp = self._rsrp(dbm, cell_id, self.ues[ue_id].ue.position)
        # chan.mean_sinr_db's operations in its order, so the float is the same
        val = rsrp - self.cells[cell_id].noise_floor_dbm - self.chan.interference_margin_db
        by_cell[cell_id] = val
        return val

    def _arrivals(self) -> None:
        """Each flow's packets of this slot: one routed run, or for an mMTC
        flow one access attempt per packet."""
        epoch = self.slot // self.config.uts.epoch_slots
        for fc in self.config.flows:
            fr = self.flows[fc.flow_id]
            count, bits = fr.generator.step(self.slot, self.rng_traffic, fr.queued_bits())
            if not count:
                continue
            fr.arrived_bits += bits * count
            fr.w_arrived += bits * count
            if fr.state is None:
                mac = self.cells[self.ues[fc.ue_id].serving].mac
                for _ in range(count):
                    mac.queue_attempt(fc.flow_id, float(bits), self.slot)
                fr.attempts += count
            else:
                pdcp.route_packet(fr.state, float(bits), self.slot, epoch, count)

    def _refresh_legs(self) -> None:
        # A leg's capacity is fixed by its (UE, cell) when _attach builds it;
        # only the cell's load moves from slot to slot.
        for fr in self.flows.values():
            if fr.state is None:
                continue
            for leg in fr.state.legs:
                leg.current_load = self.cells[leg.cell_id].mac.load_fraction

    def _channel_inputs(self) -> list[tuple[CellRuntime, list, dict]]:
        """Every cell's queue legs and per-PRB rates for this slot.

        Returns, per cell in order, the (flow_id, leg) pairs whose backlog the
        MAC reads and the per-PRB rate of each (UE, portion) pair with a
        queue-driven flow. Fading is a stateless hash of (seed, ue, cell,
        slot), so it is evaluated a MAC epoch at a time: ``_fading`` holds,
        per (UE index, cell index), the fading of every slot of the current
        MAC epoch, and is dropped when the epoch changes. The pairs it lacks,
        at the epoch's first slot or when a handover brings one in mid-epoch,
        get their whole rows from one ``fading_db_batch`` call.
        """
        epoch_slots = self.config.mac.epoch_slots
        epoch, k = divmod(self.slot, epoch_slots)
        if epoch != self._fading_epoch:
            self._fading_epoch, self._fading = epoch, {}
        fading = self._fading
        cells = []
        missing: dict[tuple[int, int], None] = {}
        for cr in self.cells.values():
            cid = cr.cell.cell_id
            legs = []
            pairs: dict[tuple[str, str], tuple[int, int]] = {}
            for fid, mf in cr.mac.flows.items():
                fr = self.flows.get(fid)
                if fr is None or fr.state is None:
                    continue
                leg = fr.state.leg_by_cell(cid)
                if leg is not None:
                    legs.append((fid, leg))
                key = (mf.ue_id, mf.portion_key)
                if mf.service is not TrafficClass.MMTC and key not in pairs:
                    fk = pairs[key] = (self.ues[mf.ue_id].index, cr.index)
                    if fk not in fading:
                        missing[fk] = None
            cells.append((cr, legs, pairs))
        if missing:
            idx = np.fromiter(chain.from_iterable(missing), np.uint64, 2 * len(missing))
            idx = idx.reshape(-1, 2)
            first = epoch * epoch_slots
            rows = chan.fading_db_batch(
                self.chan,
                idx[:, :1],
                idx[:, 1:],
                np.arange(first, first + epoch_slots, dtype=np.uint64),
            ).tolist()
            fading.update(zip(missing, rows))
        out = []
        for cr, legs, pairs in cells:
            cid = cr.cell.cell_id
            grid = cr.cell.grid
            rates: dict[tuple[str, str], float] = {}
            for (u, pk), fk in pairs.items():
                eff = cr.portion_by_key[pk].waveform_efficiency
                rates[(u, pk)] = link_rate(self._mean_sinr(u, cid) + fading[fk][k], 1, eff, grid)
            out.append((cr, legs, rates))
        return out

    def _drain_flow(self, fr: FlowRuntime, cell_id: str, bits: float) -> float:
        """Send ``bits`` from the flow's leg on ``cell_id``: finish the head
        packet, then as many whole packets as the bits cover, then part of
        the next. Each finished packet is lost with the cell's ``drop_prob``
        (one draw per packet, in SN order) or received."""
        leg = fr.state.leg_by_cell(cell_id)
        if leg is None:
            return 0.0
        pool = bits
        drained = 0.0
        drop_prob = self.cells[cell_id].drop_prob
        queue = leg.queue
        while pool > 0 and queue:
            sn, count, size, created = queue[0]
            need = size - leg.head_sent_bits
            if pool < need:
                leg.head_sent_bits += pool
                leg.queue_bits -= pool
                drained += pool
                break
            # whole-number bits, so this equals taking the packets one by one
            done = 1 + min(count - 1, int((pool - need) // size))
            used = need + (done - 1) * size
            pool -= used
            drained += used
            leg.queue_bits -= used
            leg.head_sent_bits = 0.0
            if done == count:
                queue.popleft()
            else:
                queue[0] = pdcp.Run(sn + done, count - done, size, created)
            first = 0  # the first finished packet not yet lost or received
            if drop_prob > 0.0:
                for i, lost in enumerate((self.rng_loss.random(done) < drop_prob).tolist()):
                    if lost:
                        fr.lost_in_transit += 1
                        if i > first:
                            self._receive(fr, sn + first, i - first, size, created)
                        first = i + 1
            if done > first:
                self._receive(fr, sn + first, done - first, size, created)
        return drained

    def _receive(self, fr: FlowRuntime, sn: int, count: int, bits: float, created: int) -> None:
        for d in pdcp.reorder_deliver(fr.rx, sn, bits, created, self.slot, count):
            self._deliver(fr, d.bits, d.created_slot, d.count)

    def _deliver(self, fr: FlowRuntime, bits: float, created_slot: int, count: int = 1) -> None:
        """Book ``count`` deliveries of ``bits`` each, in order or by random
        access: the flow's totals and window, its latency and deadline, and
        the UE's steering window."""
        total = bits * count
        fr.delivered_bits += total
        fr.w_delivered += total
        lat = self.slot - created_slot
        fr.latency_counts[lat] = fr.latency_counts.get(lat, 0) + count
        fr.w_latency_sum += lat * count
        fr.w_latency_n += count
        self.ues[fr.cfg.ue_id].delivered_window_bits += total
        if isinstance(fr.generator, traffic.PeriodicDeadline):
            if lat > fr.generator.deadline_slots:
                fr.deadline_misses += count

    def _run_macs(self) -> None:
        for cr, legs, rates in self._channel_inputs():
            cid = cr.cell.cell_id
            # backlog is read just before the cell's MAC runs
            inputs = SlotInputs(
                backlog_bits={fid: leg.queue_bits for fid, leg in legs}, per_prb_bits=rates
            )
            res = cr.mac.run_slot(self.slot, inputs, self.rng_access, self.rng_backoff)
            self.events.extend(res.events)
            bad = validate_blocks(cr.cell.grid, res.alloc.blocks())
            if bad:  # indicates a scheduler bug; stop rather than mis-report
                raise AssertionError(f"allocation violations on {cid}: {bad}")
            cr.granted_prbs_total += len(res.alloc)
            for fid in sorted(res.served_bits):
                fr = self.flows[fid]
                bits = res.served_bits[fid]
                if not pdcp.whole_bits(bits):  # run arithmetic would round
                    raise AssertionError(f"{cid} served {bits!r} bits to {fid}")
                got = self._drain_flow(fr, cid, bits)
                cr.served_bits_total += got
                fr.mac_served_bits += got
            for att in res.access_delivered:
                fr = self.flows[att.flow_id]
                cr.served_bits_total += att.payload_bits
                fr.mac_served_bits += att.payload_bits
                self._deliver(fr, att.payload_bits, att.created_slot)
            for o in res.outcomes:
                self.rach_attempts += 1
                if o.status.value == "success":
                    self.rach_successes += 1
                else:
                    self.rach_collisions += 1
            if self.slot % self.config.mac.epoch_slots == 0:
                best_eff = max(p.waveform_efficiency for p in cr.portions)
                cr.descriptor = describe_cell(cr.cell, cr.mac.load_fraction, best_eff)

    def _reorder_ticks(self) -> None:
        for fc in self.config.flows:
            fr = self.flows[fc.flow_id]
            if fr.state is None:
                continue
            for d in pdcp.reorder_tick(fr.rx, self.slot):
                self._deliver(fr, d.bits, d.created_slot, d.count)

    def _context(self) -> UtsContext:
        """This epoch's steering context. Each UE's signal row reads through
        its RSRP cache; the cache dict and the position are bound when the row
        is built, so a row built before the UE moves keeps the values of where
        it was. Each UE's delivery-rate window closes here and starts again."""

        def signal_row(dbm: dict, position: tuple[float, float]) -> LazyRow:
            return LazyRow(self.cells, lambda cid: signal_db(self._rsrp(dbm, cid, position)))

        window_s = self.config.uts.epoch_slots * self.slot_seconds
        rate = {}
        for uid, rt in self.ues.items():
            rate[uid] = rt.delivered_window_bits / window_s
            rt.delivered_window_bits = 0.0
        cells, ues = self.cells.items(), self.ues.items()
        return UtsContext(
            epoch_index=self.slot // self.config.uts.epoch_slots,
            scenario_tag=self.config.uts.scenario_tag,
            cell_load={
                cid: load_fraction(cr.mac.demand_prbs, cr.cell.grid.prbs_per_slot)
                for cid, cr in cells
            },
            cell_descriptors={cid: cr.descriptor for cid, cr in cells},
            ue_signal={
                uid: signal_row(self._rsrp_cache.setdefault(uid, {}), rt.ue.position)
                for uid, rt in ues
            },
            ue_serving={uid: rt.serving for uid, rt in ues},
            ue_secondary={uid: rt.secondary for uid, rt in ues},
            ue_services=self._services,
            ue_capabilities=self._capabilities,
            ue_eligible=self._eligible,
            ue_rate_bps=rate,
        )

    def _steering(self) -> None:
        if self.controller is None or self.slot % self.config.uts.epoch_slots != 0:
            return
        applied, events = self.controller.step(self._context(), self, self.slot)
        self.events.extend(events)
        for entry in applied:
            kind = entry.action.kind.value
            self.action_counts[kind] = self.action_counts.get(kind, 0) + 1

    def _metrics_rollup(self) -> None:
        if (self.slot + 1) % self.config.mac.epoch_slots != 0:
            return
        epoch = self.slot // self.config.mac.epoch_slots
        epoch_s = self.config.mac.epoch_slots * self.slot_seconds
        for fc in self.config.flows:
            fr = self.flows[fc.flow_id]
            mean_lat = fr.w_latency_sum / fr.w_latency_n if fr.w_latency_n else None
            self.rows.append(
                {
                    "epoch": epoch,
                    "flow": fc.flow_id,
                    "ue": fc.ue_id,
                    "service": fc.service.value,
                    "arrived_bits": fr.w_arrived,
                    "delivered_bits": fr.w_delivered,
                    "throughput_bps": fr.w_delivered / epoch_s,
                    "backlog_bits": fr.queued_bits(),
                    "mean_latency_ms": (
                        mean_lat * self.slot_seconds * 1e3 if mean_lat is not None else None
                    ),
                }
            )
            fr.w_arrived = 0.0
            fr.w_delivered = 0.0
            fr.w_latency_sum = fr.w_latency_n = 0
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

    def _pingpong_count(self) -> int:
        window = self.config.uts.hysteresis_epochs * self.config.uts.epoch_slots
        count = 0
        for uid, trace in self.serving_trace.items():
            for i in range(2, len(trace)):
                slot_i, cell_i = trace[i]
                slot_p, cell_p = trace[i - 2]
                if cell_i == cell_p and slot_i - trace[i - 1][0] <= window:
                    count += 1
        return count

    def build_report(self) -> "MetricsReport":
        per_flow = {}
        all_lat: dict[int, int] = {}
        for fc in self.config.flows:
            fr = self.flows[fc.flow_id]
            lat_sum = lat_n = 0
            for lat, n in fr.latency_counts.items():
                all_lat[lat] = all_lat.get(lat, 0) + n
                lat_sum += lat * n
                lat_n += n
            per_flow[fc.flow_id] = {
                "ue": fc.ue_id,
                "service": fc.service.value,
                "arrived_bits": fr.arrived_bits,
                "delivered_bits": fr.delivered_bits,
                "mac_served_bits": fr.mac_served_bits,
                "backlog_bits": fr.queued_bits(),
                "delivered_pdus": fr.rx.delivered_count if fr.state is not None else None,
                "duplicates_dropped": fr.rx.duplicates_dropped if fr.state is not None else None,
                "declared_lost": fr.rx.lost_count if fr.state is not None else None,
                "lost_in_transit": fr.lost_in_transit,
                "deadline_misses": fr.deadline_misses,
                "access_attempts": fr.attempts,
                "mean_latency_ms": lat_sum * self.slot_ms / lat_n if lat_n else None,
            }
        per_cell = {}
        horizon = max(self.slot, 1)
        for cid, cr in self.cells.items():
            per_cell[cid] = {
                "served_bits": cr.served_bits_total,
                "granted_prbs": cr.granted_prbs_total,
                "prb_utilization": cr.granted_prbs_total
                / (horizon * cr.cell.grid.prbs_per_slot),
                "final_load_fraction": cr.mac.load_fraction,
            }
        rates = [m["delivered_bits"] for m in per_flow.values() if m["delivered_bits"] > 0]
        try:
            fairness = compute_fairness(rates) if rates else None
        except DegenerateInputError:
            fairness = None
        if all_lat:
            # percentiles over every delivered packet, each latency in ms as
            # it always was: l * slot_seconds * 1e3 is not always l * slot_ms
            # (9 slots of 1 ms give 9.000000000000002)
            values_ms = np.array([l * self.slot_seconds * 1e3 for l in all_lat])
            per_packet = np.repeat(values_ms, list(all_lat.values()))
            p50, p95, p99 = (float(x) for x in np.percentile(per_packet, [50, 95, 99]))
        else:
            p50 = p95 = p99 = None
        return MetricsReport(
            slots=self.slot,
            backend=kernels.backend_name(),
            per_flow=per_flow,
            per_cell=per_cell,
            fairness_delivered=fairness,
            latency_ms_p50=p50,
            latency_ms_p95=p95,
            latency_ms_p99=p99,
            rach_attempts=self.rach_attempts,
            rach_successes=self.rach_successes,
            rach_collisions=self.rach_collisions,
            rach_success_rate=(
                self.rach_successes / self.rach_attempts if self.rach_attempts else None
            ),
            steering_actions=dict(sorted(self.action_counts.items())),
            pingpong_count=self._pingpong_count(),
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
        return {
            "slots": self.slots,
            "backend": self.backend,
            "fairness_delivered": self.fairness_delivered,
            "latency_ms_p50": self.latency_ms_p50,
            "latency_ms_p95": self.latency_ms_p95,
            "latency_ms_p99": self.latency_ms_p99,
            "rach": {
                "attempts": self.rach_attempts,
                "successes": self.rach_successes,
                "collisions": self.rach_collisions,
                "success_rate": self.rach_success_rate,
            },
            "steering_actions": self.steering_actions,
            "pingpong_count": self.pingpong_count,
            "per_flow": self.per_flow,
            "per_cell": self.per_cell,
        }


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
