"""The slot-driven world: traffic, flow control, per-cell MACs, channel,
and steering wired together deterministically.

Every slot runs the same stage order — mobility, arrivals, steering (on its
epoch boundary), per-cell MAC, transmission/reception, metrics — and all
randomness flows from named substreams of one seed plus the counter-based
fading hash, so a (config, seed) pair fully determines every output byte.

The fading hash is stateless, so it is evaluated once per slot across every
cell, in one call over all (UE, cell) pairs with a queue-driven flow, before
the first MAC runs. Lookups the slot loop needs (start positions, flows by
UE, services by UE, portions by key) are indexed once at construction, so a
slot costs work per (UE, cell) pair rather than scans of the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as chan
from . import kernels, pdcp, traffic
from .abstraction import CapabilityDescriptor, PluginRegistry, capacity_score, describe_cell, link_rate
from .core import (
    Cell,
    Event,
    TrafficClass,
    UserEquipment,
    compute_fairness,
    validate_blocks,
    DegenerateInputError,
)
from .mac import MacConfig, MacFlow, MacInstance, PortionSpec, SlotInputs
from .scenario import FlowConfig, ScenarioConfig, build_domain, build_ue
from .uts import (
    CellState,
    MnoStrategy,
    NetworkSnapshot,
    UeState,
    UtsController,
    builtin_features,
    register_plugin,
)

STAGE_ORDER = ("mobility", "arrivals", "steering", "mac", "transport", "metrics")


@dataclass
class CellRuntime:
    cell: Cell
    index: int
    drop_prob: float
    portions: list[PortionSpec]
    portion_by_key: dict[str, PortionSpec]
    mac: MacInstance
    descriptor: CapabilityDescriptor
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
    attempts: int = 0
    latencies_slots: list = field(default_factory=list)
    deadline_misses: int = 0
    tx_pdus_by_cell: dict = field(default_factory=dict)
    # per-MAC-epoch window accumulators
    w_arrived: float = 0.0
    w_delivered: float = 0.0
    w_latencies: list = field(default_factory=list)

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

        fading_seed = (
            config.channel.fading_seed if config.channel.fading_seed is not None else self.seed
        )
        self.chan = chan.ChannelConfig(
            fading_scale=config.channel.fading_scale,
            fading_seed=fading_seed,
            noise_psd_dbm_hz=config.channel.noise_psd_dbm_hz,
            interference_margin_db=config.channel.interference_margin_db,
            min_distance_m=config.channel.min_distance_m,
        )

        mac_cfg = MacConfig(
            epoch_slots=config.mac.epoch_slots,
            min_guarantee_prbs=config.mac.min_guarantee_prbs,
            access_cost_prbs=config.mac.access_cost_prbs,
            pf_ewma=config.mac.pf_ewma,
            pf_initial_avg_bits=config.mac.pf_initial_avg_bits,
            demand_sinr_db=config.mac.demand_sinr_db,
            backoff_min_epochs=config.mac.backoff_min_epochs,
            backoff_max_epochs=config.mac.backoff_max_epochs,
        )

        self.cells: dict[str, CellRuntime] = {}
        for i, cc in enumerate(config.cells):
            cell = build_domain(cc)
            portions = [
                PortionSpec(p.key, p.required_capability, p.waveform_efficiency)
                for p in cc.portions
            ]
            mac = MacInstance(cell, portions, mac_cfg)
            best_eff = max(p.waveform_efficiency for p in portions)
            self.cells[cc.cell_id] = CellRuntime(
                cell=cell,
                index=i,
                drop_prob=cc.drop_prob,
                portions=portions,
                portion_by_key={p.key: p for p in portions},
                mac=mac,
                descriptor=describe_cell(cell, 0.0, best_eff),
            )

        # numerology is validated to be uniform, so one slot clock serves all
        self.slot_seconds = 1e-3 / (2 ** config.cells[0].numerology)

        # Init-time indexes, O(U + F), so per-slot and per-handover paths never
        # rescan the config: start positions by UE and each UE's flows in
        # config order.
        self._start_position = {uc.ue_id: uc.position for uc in config.ues}
        self._flows_by_ue: dict[str, list[FlowConfig]] = {uc.ue_id: [] for uc in config.ues}
        for fc in config.flows:
            self._flows_by_ue[fc.ue_id].append(fc)
        self._services = {
            uid: tuple(sorted({fc.service for fc in fcs}, key=lambda s: s.value))
            for uid, fcs in self._flows_by_ue.items()
        }

        self.ues: dict[str, UeRuntime] = {}
        for i, uc in enumerate(config.ues):
            ue = build_ue(uc)
            serving = uc.serving_cell or self._best_cell(ue)
            self.ues[uc.ue_id] = UeRuntime(ue=ue, index=i, serving=serving)

        self.flows: dict[str, FlowRuntime] = {}
        for fc in config.flows:
            gen = traffic.make_generator(fc.generator_kind, fc.generator_params)
            if fc.service is TrafficClass.MMTC:
                state = None
            else:
                serving = self.ues[fc.ue_id].serving
                state = pdcp.configure_legs(
                    fc.flow_id,
                    [self._make_leg(fc, serving)],
                    pdcp.Mode.AGGREGATE,
                    leave_load=config.pdcp.leave_load,
                    enter_load=config.pdcp.enter_load,
                )
            rx = pdcp.ReceiverState(t_reorder_slots=config.pdcp.t_reorder_slots)
            self.flows[fc.flow_id] = FlowRuntime(cfg=fc, generator=gen, state=state, rx=rx)
            self._register_mac_flow(fc, self.ues[fc.ue_id].serving)

        self.controller = None
        if config.uts.enabled and (config.uts.features or extra_features):
            registry = PluginRegistry()
            available = {rec.feature_id: (rec, ev) for rec, ev in builtin_features()}
            ranking = list(config.uts.effective_ranking())
            for fid in config.uts.features:
                rec, ev = available[fid]
                register_plugin(registry, rec, ev)
            for rec, ev in extra_features:
                register_plugin(registry, rec, ev)
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
        # mean SINR per UE, then per cell; a UE that moves drops its entry
        self._mean_sinr_cache: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _portion_for(self, ue: UserEquipment, cell_id: str) -> PortionSpec | None:
        best = None
        for p in self.cells[cell_id].portions:
            if p.required_capability is None or p.required_capability in ue.capabilities:
                if best is None or p.waveform_efficiency > best.waveform_efficiency:
                    best = p
        return best

    def _best_cell(self, ue: UserEquipment) -> str:
        cands = []
        for cid, cr in self.cells.items():
            if self._portion_for(ue, cid) is None:
                continue
            cands.append((-chan.rsrp_dbm(self.chan, cr.cell, ue.position), cid))
        if not cands:
            raise ValueError(f"UE {ue.ue_id!r} is eligible for no cell")
        cands.sort()
        return cands[0][1]

    def _make_leg(self, fc: FlowConfig, cell_id: str) -> pdcp.Leg:
        cr = self.cells[cell_id]
        portion = self._portion_for(self.ues[fc.ue_id].ue, cell_id)
        eff = portion.waveform_efficiency if portion else 1.0
        return pdcp.Leg(
            leg_id=f"{fc.flow_id}@{cell_id}",
            cell_id=cell_id,
            capacity_bits_per_slot=capacity_score(cr.cell.grid, eff),
            current_load=cr.descriptor.current_load,
        )

    def _sps_params(self, fc: FlowConfig, cell_id: str) -> tuple[int, int, int]:
        if fc.flow_id in self.flows:
            gen = self.flows[fc.flow_id].generator
        else:
            gen = traffic.make_generator(fc.generator_kind, fc.generator_params)
        period = fc.sps_period_slots
        offset = fc.sps_offset_slots
        bits = None
        if isinstance(gen, traffic.PeriodicDeadline):
            period = period or gen.period_slots
            offset = offset or gen.offset_slots
            bits = gen.packet_bits
        if period is None:
            period = 10
        prbs = fc.sps_prbs
        if prbs is None:
            portion = self._portion_for(self.ues[fc.ue_id].ue, cell_id)
            rate = self.cells[cell_id].mac.reference_per_prb_bits(portion.key)
            prbs = max(1, math.ceil((bits or 2000) / rate))
        return period, prbs, offset

    def _register_mac_flow(self, fc: FlowConfig, cell_id: str) -> None:
        portion = self._portion_for(self.ues[fc.ue_id].ue, cell_id)
        if portion is None:
            raise ValueError(f"flow {fc.flow_id!r}: UE not eligible on cell {cell_id!r}")
        sps_period = sps_prbs = None
        sps_offset = 0
        if fc.service is TrafficClass.URLLC:
            sps_period, sps_prbs, sps_offset = self._sps_params(fc, cell_id)
        self.cells[cell_id].mac.register_flow(
            MacFlow(
                flow_id=fc.flow_id,
                ue_id=fc.ue_id,
                service=fc.service,
                portion_key=portion.key,
                slice_id=fc.slice_id,
                sps_period_slots=sps_period,
                sps_prbs=sps_prbs,
                sps_offset_slots=sps_offset,
            )
        )

    # ------------------------------------------------------------------
    # steering hooks (SteerableNetwork protocol)
    # ------------------------------------------------------------------

    def has_cell(self, cell_id: str) -> bool:
        return cell_id in self.cells

    def has_ue(self, ue_id: str) -> bool:
        return ue_id in self.ues

    def serving_cell(self, ue_id: str) -> str:
        return self.ues[ue_id].serving

    def secondary_cells(self, ue_id: str) -> tuple:
        return self.ues[ue_id].secondary

    def can_attach(self, ue_id: str, cell_id: str) -> bool:
        if cell_id not in self.cells:
            return False
        return self._portion_for(self.ues[ue_id].ue, cell_id) is not None

    def _flows_of(self, ue_id: str, with_state: bool = True):
        for fc in self._flows_by_ue[ue_id]:
            fr = self.flows[fc.flow_id]
            if with_state and fr.state is None:
                continue
            yield fr

    def _move_leg(self, fr: FlowRuntime, src: str, dst: str) -> None:
        state = fr.state
        src_leg = state.leg_by_cell(src)
        if src_leg is None:
            return
        dst_leg = state.leg_by_cell(dst)
        self.cells[src].mac.deregister_flow(fr.cfg.flow_id)
        if dst_leg is None:
            new_leg = self._make_leg(fr.cfg, dst)
            state.legs[state.legs.index(src_leg)] = new_leg
            self._register_mac_flow(fr.cfg, dst)
            dst_leg = new_leg
        else:
            state.legs.remove(src_leg)
        for pdu in src_leg.queue:  # carry queued data over, in order
            dst_leg.enqueue(pdu)
        if state.mode is not pdcp.Mode.AGGREGATE and len(state.legs) < 2:
            state.mode = pdcp.Mode.AGGREGATE
        state.active_leg = 0

    def _drop_leg(self, fr: FlowRuntime, cell_id: str) -> None:
        state = fr.state
        leg = state.leg_by_cell(cell_id)
        if leg is None or len(state.legs) <= 1:
            return
        self.cells[cell_id].mac.deregister_flow(fr.cfg.flow_id)
        state.legs.remove(leg)
        keep = state.legs[0]
        if state.mode is not pdcp.Mode.DUPLICATE:
            for pdu in leg.queue:
                keep.enqueue(pdu)
        if state.mode is not pdcp.Mode.AGGREGATE and len(state.legs) < 2:
            state.mode = pdcp.Mode.AGGREGATE
        state.active_leg = 0

    def _move_attempts(self, ue_id: str, src: str, dst: str) -> None:
        src_mac, dst_mac = self.cells[src].mac, self.cells[dst].mac
        moved = [a for a in src_mac.pending if a.ue_id == ue_id]
        if not moved:
            return
        src_mac.pending = [a for a in src_mac.pending if a.ue_id != ue_id]
        for a in moved:
            portion = self._portion_for(self.ues[ue_id].ue, dst)
            a.portion_key = portion.key if portion else a.portion_key
            dst_mac.pending.append(a)

    def apply_handover(self, ue_id: str, target: str) -> str:
        rt = self.ues[ue_id]
        prev = rt.serving
        rt.serving = target
        rt.secondary = tuple(c for c in rt.secondary if c != target)
        for fr in self._flows_of(ue_id):
            if fr.state.leg_by_cell(prev) is not None:
                self._move_leg(fr, prev, target)
        for fc in self._flows_by_ue[ue_id]:
            if self.flows[fc.flow_id].state is None:
                self.cells[prev].mac.deregister_flow(fc.flow_id)
                self._register_mac_flow(fc, target)
        self._move_attempts(ue_id, prev, target)
        self.serving_trace[ue_id].append((self.slot, target))
        return prev

    def apply_offload(self, ue_id: str, target: str) -> str:
        """Move the UE's data legs to the target while the anchor stays."""
        rt = self.ues[ue_id]
        prev = rt.serving
        for fr in self._flows_of(ue_id):
            if fr.state.leg_by_cell(prev) is not None:
                self._move_leg(fr, prev, target)
        rt.secondary = rt.secondary + (target,)
        return prev

    def apply_add_secondary(self, ue_id: str, target: str) -> None:
        rt = self.ues[ue_id]
        rt.secondary = rt.secondary + (target,)
        for fr in self._flows_of(ue_id):
            if fr.cfg.service not in (TrafficClass.EMBB, TrafficClass.LEGACY_MBB):
                continue
            if fr.state.leg_by_cell(target) is None:
                fr.state.legs.append(self._make_leg(fr.cfg, target))
                self._register_mac_flow(fr.cfg, target)

    def apply_release_secondary(self, ue_id: str, target: str) -> None:
        rt = self.ues[ue_id]
        rt.secondary = tuple(c for c in rt.secondary if c != target)
        for fr in self._flows_of(ue_id):
            self._drop_leg(fr, target)

    def apply_release_leg(self, ue_id: str, target: str) -> None:
        self.apply_release_secondary(ue_id, target)

    def apply_configure_dc(self, ue_id: str, master: str, second: str) -> None:
        rt = self.ues[ue_id]
        rt.secondary = rt.secondary + (second,)
        for fr in self._flows_of(ue_id):
            state = fr.state
            if state.leg_by_cell(master) is None:
                # flow currently homed elsewhere; bring it to the master first
                if state.legs:
                    self._move_leg(fr, state.legs[0].cell_id, master)
            if state.leg_by_cell(second) is None:
                state.legs.append(self._make_leg(fr.cfg, second))
                self._register_mac_flow(fr.cfg, second)
            mode = self.config.pdcp.mode_for(fr.cfg.service)
            if len(state.legs) < 2 and mode is pdcp.Mode.DUPLICATE:
                mode = pdcp.Mode.AGGREGATE
            state.mode = mode
            state.active_leg = 0

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
            self._mean_sinr_cache.pop(uid, None)

    def _mean_sinr(self, ue_id: str, cell_id: str) -> float:
        by_cell = self._mean_sinr_cache.setdefault(ue_id, {})
        hit = by_cell.get(cell_id)
        if hit is not None:
            return hit
        cr = self.cells[cell_id]
        val = chan.mean_sinr_db(self.chan, cr.cell, self.ues[ue_id].ue.position)
        by_cell[cell_id] = val
        return val

    def _arrivals(self) -> None:
        for fc in self.config.flows:
            fr = self.flows[fc.flow_id]
            pkts = traffic.gen_traffic(fr.generator, self.slot, self.rng_traffic, fr.queued_bits())
            for bits in pkts:
                fr.arrived_bits += bits
                fr.w_arrived += bits
                if fr.state is None:
                    serving = self.ues[fc.ue_id].serving
                    self.cells[serving].mac.queue_attempt(fc.flow_id, float(bits), self.slot)
                    fr.attempts += 1
                else:
                    epoch = self.slot // self.config.uts.epoch_slots
                    for leg_id, _sn in pdcp.route_packet(fr.state, float(bits), self.slot, epoch):
                        cell_id = leg_id.rsplit("@", 1)[1]
                        fr.tx_pdus_by_cell[cell_id] = fr.tx_pdus_by_cell.get(cell_id, 0) + 1

    def _refresh_legs(self) -> None:
        # A leg's capacity is fixed by its (UE, cell) when _make_leg builds it;
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
        slot), so one ``fading_db_batch`` call covers every pair of every
        cell.
        """
        cells = []
        ue_idx: list[int] = []
        cell_idx: list[int] = []
        for cr in self.cells.values():
            cid = cr.cell.cell_id
            legs = []
            pairs: list[tuple[str, str]] = []
            seen = set()
            for fid, mf in cr.mac.flows.items():
                fr = self.flows.get(fid)
                if fr is None or fr.state is None:
                    continue
                leg = fr.state.leg_by_cell(cid)
                if leg is not None:
                    legs.append((fid, leg))
                key = (mf.ue_id, mf.portion_key)
                if mf.service is not TrafficClass.MMTC and key not in seen:
                    seen.add(key)
                    pairs.append(key)
                    ue_idx.append(self.ues[mf.ue_id].index)
                    cell_idx.append(cr.index)
            cells.append((cr, legs, pairs))
        fad = []
        if ue_idx:
            fad = chan.fading_db_batch(
                self.chan,
                np.array(ue_idx, dtype=np.uint64),
                np.array(cell_idx, dtype=np.uint64),
                self.slot,
            ).tolist()
        out = []
        k = 0
        for cr, legs, pairs in cells:
            cid = cr.cell.cell_id
            grid = cr.cell.grid
            rates: dict[tuple[str, str], float] = {}
            for u, pk in pairs:
                eff = cr.portion_by_key[pk].waveform_efficiency
                rates[(u, pk)] = link_rate(self._mean_sinr(u, cid) + fad[k], 1, eff, grid)
                k += 1
            out.append((cr, legs, rates))
        return out

    def _drain_flow(self, fr: FlowRuntime, cell_id: str, bits: float) -> float:
        leg = fr.state.leg_by_cell(cell_id)
        if leg is None:
            return 0.0
        pool = bits
        drained = 0.0
        drop_prob = self.cells[cell_id].drop_prob
        while pool > 0 and leg.queue:
            head = leg.queue[0]
            need = head.bits - leg.head_sent_bits
            if pool < need:
                leg.head_sent_bits += pool
                leg.queue_bits -= pool
                drained += pool
                pool = 0.0
                break
            pool -= need
            drained += need
            leg.queue_bits -= need
            leg.queue.popleft()
            leg.head_sent_bits = 0.0
            lost = drop_prob > 0.0 and float(self.rng_loss.random()) < drop_prob
            if lost:
                fr.lost_in_transit += 1
            else:
                self._receive(fr, head)
        return drained

    def _receive(self, fr: FlowRuntime, pdu: pdcp.Pdu) -> None:
        out = pdcp.reorder_deliver(fr.rx, pdu.sn, pdu.bits, pdu.created_slot, self.slot)
        self._account_delivered(fr, out)

    def _account_delivered(self, fr: FlowRuntime, out) -> None:
        for d in out:
            fr.delivered_bits += d.bits
            fr.w_delivered += d.bits
            lat = self.slot - d.created_slot
            fr.latencies_slots.append(lat)
            fr.w_latencies.append(lat)
            self.ues[fr.cfg.ue_id].delivered_window_bits += d.bits
            if isinstance(fr.generator, traffic.PeriodicDeadline):
                if lat > fr.generator.deadline_slots:
                    fr.deadline_misses += 1

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
                got = self._drain_flow(fr, cid, res.served_bits[fid])
                cr.served_bits_total += got
                fr.mac_served_bits += got
            for att in res.access_delivered:
                fr = self.flows[att.flow_id]
                cr.served_bits_total += att.payload_bits
                fr.mac_served_bits += att.payload_bits
                fr.delivered_bits += att.payload_bits
                fr.w_delivered += att.payload_bits
                lat = self.slot - att.created_slot
                fr.latencies_slots.append(lat)
                fr.w_latencies.append(lat)
                self.ues[att.ue_id].delivered_window_bits += att.payload_bits
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
            out = pdcp.reorder_tick(fr.rx, self.slot)
            self._account_delivered(fr, out)

    def _snapshot(self) -> NetworkSnapshot:
        epoch = self.slot // self.config.uts.epoch_slots
        window_s = self.config.uts.epoch_slots * self.slot_seconds
        cells = tuple(
            CellState(
                cell_id=cid,
                demand_prbs=float(cr.mac.demand_prbs),
                capacity_prbs=float(cr.cell.grid.prbs_per_slot),
                descriptor=cr.descriptor,
            )
            for cid, cr in self.cells.items()
        )
        ues = []
        for uid, rt in self.ues.items():
            rsrp = {
                cid: chan.rsrp_dbm(self.chan, cr.cell, rt.ue.position)
                for cid, cr in self.cells.items()
            }
            eligible = tuple(
                cid for cid in self.cells if self._portion_for(rt.ue, cid) is not None
            )
            rate = rt.delivered_window_bits / window_s if window_s > 0 else 0.0
            rt.delivered_window_bits = 0.0
            ues.append(
                UeState(
                    ue_id=uid,
                    serving_cell=rt.serving,
                    secondary_cells=rt.secondary,
                    rsrp_dbm_by_cell=rsrp,
                    services=self._services[uid],
                    capabilities=rt.ue.capabilities,
                    eligible_cells=eligible,
                    rate_bps=rate,
                )
            )
        return NetworkSnapshot(
            epoch_index=epoch,
            scenario_tag=self.config.uts.scenario_tag,
            cells=cells,
            ues=tuple(ues),
        )

    def _steering(self) -> None:
        if self.controller is None or self.slot % self.config.uts.epoch_slots != 0:
            return
        snapshot = self._snapshot()
        applied, events = self.controller.step(snapshot, self, self.slot)
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
            mean_lat = (
                sum(fr.w_latencies) / len(fr.w_latencies) if fr.w_latencies else None
            )
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
            fr.w_latencies = []
            if fr.state is not None and len(fr.state.legs) > 1:
                self.events.append(
                    Event.make(
                        self.slot,
                        "pdcp",
                        "leg_activity",
                        flow=fc.flow_id,
                        mode=fr.state.mode.value,
                        legs="|".join(
                            f"{c}:{n}" for c, n in sorted(fr.tx_pdus_by_cell.items())
                        ),
                    )
                )

    def step_slot(self) -> None:
        """Advance the world one slot through the fixed stage order."""
        self._refresh_positions()
        self._arrivals()
        self._steering()
        self._refresh_legs()
        self._run_macs()
        self._reorder_ticks()
        self._metrics_rollup()
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
        all_lat: list[float] = []
        for fc in self.config.flows:
            fr = self.flows[fc.flow_id]
            lat_ms = [l * self.slot_seconds * 1e3 for l in fr.latencies_slots]
            all_lat.extend(lat_ms)
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
                "mean_latency_ms": (sum(lat_ms) / len(lat_ms)) if lat_ms else None,
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
            p50, p95, p99 = (
                float(x) for x in np.percentile(np.array(all_lat), [50, 95, 99])
            )
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
