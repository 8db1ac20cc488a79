"""Scenario configuration: parsing, validation, defaults, serialization.

A scenario is a plain mapping (usually YAML on disk) with sections for the
network, UEs, traffic flows, and the MAC / flow-control / steering / sim
knobs. Each section is a config dataclass (the runtime layers' own
``mac.MacConfig``, ``channel.ChannelConfig`` and ``mac.PortionSpec`` among
them; a flow's ``generator`` is the ``traffic`` generator itself) whose fields
declare each key, kind and default once. Each type is a ``core.Config``, which
judges its values on construction, kinds first (``core.check_kinds``), then
the value rules the type states in ``rules()``; ``ScenarioConfig``'s are the
rules across sections. So a config built in Python is refused as its file is.
The reader only shapes YAML values, and keeps one rule of its own, that
``uts.thresholds`` name enabled features. Unknown keys and refusals are
collected and reported together, each at its config path.
``scenario_to_dict`` emits every field, so a serialized config re-parses equal.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from enum import Enum, EnumMeta
from pathlib import Path

import yaml

from .abstraction import link_rate
from .channel import ChannelConfig
from .core import (
    NAMES,
    PAIR,
    CarrierGrid,
    Cell,
    CellClass,
    Config,
    KindError,
    TrafficClass,
    ValidationError,
    check_rules,
    field_kinds,
    finite_rules,
    number_refusal,
    repeat_rules,
)
from .mac import RACH_KEY, MacConfig, PortionSpec
from .pdcp import DEFAULT_ENTER_LOAD, DEFAULT_LEAVE_LOAD, DEFAULT_T_REORDER_SLOTS, Mode
from .traffic import GENERATOR_KINDS, FullBuffer, PeriodicDeadline
from .uts import (
    CARRIER_AGG_ID,
    DEFAULT_HYSTERESIS_EPOCHS,
    DEFAULT_SERVICE_MODES,
    DEFAULT_THRESHOLDS,
    DEFAULT_TIME_TO_TRIGGER_EPOCHS,
    DUAL_CONN_ID,
    LOAD_BALANCE_ID,
    MnoStrategy,
)

BUILTIN_FEATURE_IDS = (LOAD_BALANCE_ID, CARRIER_AGG_ID, DUAL_CONN_ID)

#: each generator type's kind, as a scenario file names it
_KIND_OF = {cls: kind for kind, cls in GENERATOR_KINDS.items()}

DEFAULT_TX_POWER_DBM = {
    CellClass.MACRO: 43.0,
    CellClass.SMALL: 30.0,
    CellClass.AP: 23.0,
}


class ParseError(Exception):
    """The input was not a readable mapping at all."""


def _literal(text: str) -> str:
    """``text`` as a ``check_rules`` reason that formats to itself."""
    return text.replace("{", "{{").replace("}", "}}")


@dataclass(frozen=True)
class CellConfig(Config):
    cell_id: str
    cell_class: CellClass = CellClass.MACRO
    rat_tag: str = "nr"
    carrier_hz: float = 2.0e9
    prbs_per_slot: int = 50
    numerology: int = 0
    prb_bandwidth_hz: float = 180e3
    position: tuple[float, float] = (0.0, 0.0)
    tx_power_dbm: float | None = None
    supports_duplication: bool = True
    supports_secondary: bool = True
    drop_prob: float = 0.0
    portions: tuple[PortionSpec, ...] = (PortionSpec(key="main"),)

    def rules(self):
        n, keys = len(self.portions), {p.key for p in self.portions}
        return (*CarrierGrid.rules(self), *finite_rules(self, "position", "tx_power_dbm"),
                ("drop_prob", 0.0 <= self.drop_prob < 1.0, "must be in [0, 1), got {}"),
                ("portions", n <= 2, "at most 2 portions may share a carrier"),
                ("portions", len(keys) == n, "portion keys must be unique"))

    def effective_tx_power_dbm(self) -> float:
        if self.tx_power_dbm is not None:
            return self.tx_power_dbm
        return DEFAULT_TX_POWER_DBM[self.cell_class]


@dataclass(frozen=True)
class UeConfig(Config):
    ue_id: str
    position: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    capabilities: tuple[str, ...] = ("nr",)
    serving_cell: str | None = None

    def rules(self):
        return (*finite_rules(self, "position", "velocity"),
                *repeat_rules("capabilities", self.capabilities))


@dataclass(frozen=True)
class FlowConfig(Config):
    flow_id: str
    ue_id: str
    service: TrafficClass = TrafficClass.EMBB
    #: one of the ``traffic.GENERATOR_KINDS`` types
    generator: object = FullBuffer()
    slice_id: str | None = None
    sps_period_slots: int | None = None
    sps_prbs: int | None = None
    sps_offset_slots: int = 0

    def rules(self):
        # the MAC refuses these reservation shapes when the flow registers
        period, prbs = self.sps_period_slots, self.sps_prbs
        return (("generator", type(self.generator) in _KIND_OF,
                 "must be a traffic generator, got {!r}"),
                ("slice_id", self.slice_id != RACH_KEY, "{!r} is the access partition's key"),
                ("sps_period_slots", period is None or period >= 1, "must be >= 1, got {}"),
                ("sps_prbs", prbs is None or prbs >= 1, "must be >= 1, got {}"),
                ("sps_offset_slots", self.sps_offset_slots >= 0, "must be >= 0, got {}"),
                ("", self.service is not TrafficClass.URLLC or period is not None
                 or isinstance(self.generator, PeriodicDeadline),
                 "URLLC flows need a periodic_deadline generator or explicit sps_period_slots"))


@dataclass(frozen=True)
class PdcpSection(Config):
    t_reorder_slots: int = DEFAULT_T_REORDER_SLOTS
    leave_load: float = DEFAULT_LEAVE_LOAD
    enter_load: float = DEFAULT_ENTER_LOAD
    #: every traffic class's mode
    service_modes: dict[TrafficClass, Mode] = field(default_factory=DEFAULT_SERVICE_MODES.copy)

    def rules(self):
        modes = self.service_modes
        return (("t_reorder_slots", self.t_reorder_slots >= 1, "must be >= 1"),
                ("", 0.0 <= self.enter_load <= self.leave_load <= 1.0,
                 "need 0 <= enter_load <= leave_load <= 1"),
                ("service_modes", set(modes) == set(TrafficClass)
                 and all(isinstance(m, Mode) for m in modes.values()),
                 "must map every traffic class to a Mode, got {}"))


@dataclass(frozen=True)
class UtsSection(Config):
    enabled: bool = True
    epoch_slots: int = 100
    scenario_tag: str = "default"
    features: tuple[str, ...] = BUILTIN_FEATURE_IDS
    ranking: tuple[str, ...] = ()
    #: per-feature threshold overrides
    thresholds: dict[str, dict[str, float]] = field(default_factory=dict)
    hysteresis_epochs: int = DEFAULT_HYSTERESIS_EPOCHS
    time_to_trigger_epochs: int = DEFAULT_TIME_TO_TRIGGER_EPOCHS

    def rules(self):
        feats, ranking = self.features, self.ranking
        thr = [(f, k, number_refusal(v, finite=True))  # why threshold f.k is refused, or None
               for f, kv in self.thresholds.items() for k, v in kv.items()]
        # each reason picks its entry out of the value it is formatted with, or is _literal
        return (("epoch_slots", self.epoch_slots >= 1, "must be >= 1"), *MnoStrategy.rules(self),
                *(("features", f in BUILTIN_FEATURE_IDS, f"unknown feature {{0[{i}]!r}}")
                  for i, f in enumerate(feats)),
                *(("ranking", f in feats, f"ranked feature {{0[{i}]!r}} not in features")
                  for i, f in enumerate(ranking)),
                ("ranking", not ranking or set(ranking) == set(feats),
                 "ranking must cover every enabled feature"),
                *repeat_rules("features", feats),
                *(("thresholds", f not in DEFAULT_THRESHOLDS or k in DEFAULT_THRESHOLDS[f],
                   _literal(f"{f}.{k}: unknown threshold")) for f, k, _ in thr),
                *(("thresholds", why is None, _literal(f"{f}.{k}: {why}")) for f, k, why in thr))

    def effective_ranking(self) -> tuple[str, ...]:
        return self.ranking if self.ranking else self.features


@dataclass(frozen=True)
class SimSection(Config):
    horizon_slots: int = 1000
    seed: int = 0

    def rules(self):
        return (("horizon_slots", self.horizon_slots >= 1, "must be >= 1, got {}"),
                ("seed", self.seed >= 0, "must be >= 0, got {}"))


@dataclass(frozen=True)
class ScenarioConfig(Config):
    name: str = "scenario"
    sim: SimSection = SimSection()
    channel: ChannelConfig = ChannelConfig()
    cells: tuple[CellConfig, ...] = ()
    ues: tuple[UeConfig, ...] = ()
    flows: tuple[FlowConfig, ...] = ()
    mac: MacConfig = MacConfig()
    pdcp: PdcpSection = PdcpSection()
    uts: UtsSection = UtsSection()

    def rules(self):
        """Each rule across sections, in order; one on an entry or with a list in
        its reason is yielded only if it fails, so a valid config formats no reason."""
        cells, ues, flows = self.cells, self.ues, self.flows
        yield "cells", bool(cells), "at least one cell is required"
        yield from _repeats("cells", "cell", [c.cell_id for c in cells])
        yield ("cells", len({c.numerology for c in cells}) <= 1,
               "all cells must share one numerology (one slot clock)")
        yield from _repeats("ues", "ue", [u.ue_id for u in ues])
        by_id = {c.cell_id: c for c in cells}

        def admits(c, u):  # some portion of cell c takes UE u
            return any(p.usable_by(u.capabilities) for p in c.portions)

        for i, u in enumerate(ues):
            sc = u.serving_cell
            if sc is not None and sc not in by_id:
                yield f"ues[{i}].serving_cell", False, f"unknown cell {sc!r}"
            elif sc is not None and not admits(by_id[sc], u):
                yield f"ues[{i}].serving_cell", False, f"{u.ue_id!r} lacks a usable portion there"
            elif sc is None and cells and not any(admits(c, u) for c in cells):
                yield f"ues[{i}]", False, f"{u.ue_id!r} is eligible for no cell"
        yield from _repeats("flows", "flow", [f.flow_id for f in flows])
        known = {u.ue_id for u in ues}
        for i, f in enumerate(flows):
            if f.ue_id and f.ue_id not in known:
                yield f"flows[{i}].ue_id", False, f"unknown UE {f.ue_id!r}"
        # a cell narrower than its access partition, or with a portion the MAC's
        # demand SINR gives no bits per PRB, would stop the run at its first slot
        floor, v = self.mac.access_floor_prbs, self.mac.demand_sinr_db
        yield from finite_rules(self.mac, "demand_sinr_db", prefix="mac.")
        for i, c in enumerate(cells):
            if c.prbs_per_slot < floor:
                yield (f"cells[{i}].prbs_per_slot", False, f"must be >= {floor}, the access"
                       " partition's PRBs (the larger of mac.min_guarantee_prbs and"
                       " mac.access_cost_prbs)")
            grid = CarrierGrid(c.carrier_hz, c.prbs_per_slot, c.numerology, c.prb_bandwidth_hz)
            for p in c.portions:
                if math.isnan(v) or link_rate(v, p.waveform_efficiency, grid) <= 0:
                    where = f"cell {c.cell_id!r} portion {p.key!r}"
                    yield "mac.demand_sinr_db", False, f"{v} dB gives no bits per PRB on {where}"


def _repeats(field: str, what: str, ids: list[str]):
    if len(set(ids)) < len(ids):
        yield field, False, _literal(f"{what} ids must be unique, got {ids}")


#: YAML keys that differ from their dataclass field names, per class; the
#: scenario's lists of cells and flows sit under their own sections.
_YAML_KEYS = {
    CellConfig: {"cell_id": "id", "cell_class": "class", "rat_tag": "rat"},
    UeConfig: {"ue_id": "id"},
    FlowConfig: {"flow_id": "id", "ue_id": "ue", "slice_id": "slice"},
    ScenarioConfig: {"cells": "network.cells", "flows": "traffic.flows"},
}


def _yaml_path(path: str, cls, values: dict, rule: str) -> str:
    """The file path of ``cls``'s rule ``rule`` over ``values`` read at ``path``: at
    the YAML key of its field, entry (``features[1]``) or entry's part
    (``flows[2].ue_id`` is ``traffic.flows[2].ue``), or at ``path`` itself."""
    head, dot, sub = rule.partition(".")
    name, bracket, index = head.partition("[")
    if not name:
        return path
    if dot:
        part = values[name][int(index[:-1])] if bracket else values[name]
        sub = _YAML_KEYS.get(type(part), {}).get(sub, sub)
    key = _YAML_KEYS.get(cls, {}).get(name, name)
    return (f"{path}.{key}" if path else key) + bracket + index + dot + sub


@functools.cache
def _fields(cls) -> tuple[dict[str, tuple[str, object]], dict[str, object]]:
    """How config dataclass ``cls`` maps to YAML: (field, kind) by YAML key, a
    kind of None for a field read by hand, and the judged fields' defaults."""
    kinds, keys = {name: kind for name, kind, _, _ in field_kinds(cls)}, _YAML_KEYS.get(cls, {})
    by_key = {keys.get(f.name, f.name): (f.name, kinds.get(f.name)) for f in dataclasses.fields(cls)}
    defaults = {name: None if d is dataclasses.MISSING else d for name, _, _, d in field_kinds(cls)}
    return by_key, defaults


def _to_dict(obj) -> dict:
    """A config dataclass as its YAML mapping, every field explicit."""
    out = {}
    for key, (name, _) in _fields(type(obj))[0].items():
        val = getattr(obj, name)
        if isinstance(val, Enum):
            val = val.value
        elif isinstance(val, tuple):
            val = [_to_dict(v) if dataclasses.is_dataclass(v) else v for v in val]
        out[key] = val
    return out


class _Reader:
    """Walks a raw mapping, collecting (path, reason) failures as it goes."""

    def __init__(self):
        self.failures: dict[tuple[str, str], None] = {}  # an ordered set of refusals

    def fail(self, path: str, reason: str):
        self.failures[path, reason] = None

    def shaped(self, raw, path: str, shape=dict):
        """``raw`` if it is a ``shape`` (a dict, or a list), else an empty one:
        null is empty, and a value of another type is reported."""
        if raw is not None and not isinstance(raw, shape):
            what = "a mapping" if shape is dict else "a list"
            self.fail(path, f"expected {what}, got {type(raw).__name__}")
        return raw if isinstance(raw, shape) else shape()

    def reject_unknown(self, raw: dict, known: set[str], path: str):
        for key in raw:
            if key not in known:
                self.fail(f"{path}.{key}" if path else str(key), "unknown key")

    @staticmethod
    def get(raw: dict, key: str, kind, default):
        """``raw[key]`` (``default`` if missing or null) shaped for a field of ``kind``:
        a list in a pair or names field becomes a tuple, a name its Enum member, a
        number in a float field or pair a float; the type judges every value."""
        val = raw.get(key)
        if val is None:
            return default
        if kind is float:
            return val if number_refusal(val) else float(val)
        if isinstance(val, list) and (kind is PAIR or kind is NAMES):
            pair = kind is PAIR and len(val) == 2 and not any(map(number_refusal, val))
            return tuple(map(float, val)) if pair else tuple(val)
        if isinstance(kind, EnumMeta):
            try:
                return kind(val)
            except ValueError:
                pass
        return val

    def refused(self, cls, values: dict, e: ValidationError, path: str, defaults=None):
        """Report each refusal of ``cls(**values)`` in ``e`` at its path under ``path``,
        reset each refused field to its default (``defaults`` or the class's; None if
        required, which no value rule reads) and return a stand-in, the values in an
        instance built unchecked, for the rules across sections; after a kind
        refusal the value rules run on the stand-in and are reported too."""
        stand_in = object.__new__(cls)
        while True:
            for rule, reason in e.failures:
                self.fail(_yaml_path(path, cls, values, rule), reason)
            for rule, _ in e.failures:  # a rule on one entry (features[1]) or part
                if name := rule.split("[")[0].split(".")[0]:
                    values[name] = (defaults or {}).get(name, getattr(cls, name, None))
            stand_in.__dict__.update(values)
            if not isinstance(e, KindError):
                return stand_in
            try:
                check_rules(stand_in, *stand_in.rules())
                return stand_in
            except ValidationError as again:
                e = again

    def read(self, cls, raw, path: str, defaults=None, **given):
        """Read config dataclass ``cls`` from its mapping at ``path``, with keys,
        kinds and defaults from its fields; ``defaults`` overrides a default (an
        index-derived id) and ``given`` holds the fields read by hand. Values are
        only shaped here (``get``); the class judges them once, on construction,
        and ``refused`` reports what it refuses."""
        m = self.shaped(raw, path)
        by_key, field_defaults = _fields(cls)
        values = {**field_defaults, **(defaults or {}), **given}
        for key in m:
            if key not in by_key:
                self.fail(f"{path}.{key}", f"unknown key (accepts: {', '.join(by_key)})")
                continue
            name, kind = by_key[key]
            if kind is not None and name not in given:
                values[name] = self.get(m, key, kind, values[name])
        try:
            return cls(**values)
        except ValidationError as e:
            return self.refused(cls, values, e, path, defaults)


def _read_cell(r: _Reader, raw, path: str, index: int) -> CellConfig:
    m = r.shaped(raw, path)
    portions = tuple(
        r.read(PortionSpec, p, f"{path}.portions[{i}]", defaults={"key": f"portion{i}"})
        for i, p in enumerate(r.shaped(m.get("portions"), f"{path}.portions", list))
    ) or CellConfig.portions
    return r.read(CellConfig, m, path, defaults={"cell_id": f"cell{index}"}, portions=portions)


def _read_flow(r: _Reader, raw, path: str, index: int) -> FlowConfig:
    m = r.shaped(raw, path)
    gen_path = f"{path}.generator"
    gen = r.shaped(m.get("generator"), gen_path)
    kind = r.get(gen, "kind", str, _KIND_OF[type(FlowConfig.generator)])
    if not isinstance(kind, str) or kind not in GENERATOR_KINDS:
        r.fail(f"{gen_path}.kind", f"unknown kind {kind!r}")
        kind, gen = _KIND_OF[type(FlowConfig.generator)], {}
    params = {k: v for k, v in gen.items() if k != "kind"}
    generator = r.read(GENERATOR_KINDS[kind], params, gen_path)
    return r.read(FlowConfig, m, path, defaults={"flow_id": f"flow{index}"}, generator=generator)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain mapping.

    Raises ValidationError carrying every (config path, reason) pair found.
    """
    if not isinstance(data, dict):
        raise ParseError(f"scenario must be a mapping, got {type(data).__name__}")
    r = _Reader()
    r.reject_unknown(
        data, {"name", "sim", "channel", "network", "ues", "traffic", "mac", "pdcp", "uts"}, "")
    sim = r.read(SimSection, data.get("sim"), "sim")
    channel = r.read(ChannelConfig, data.get("channel"), "channel")

    net_m = r.shaped(data.get("network"), "network")
    r.reject_unknown(net_m, {"cells"}, "network")
    cells = tuple(
        _read_cell(r, c, f"network.cells[{i}]", i)
        for i, c in enumerate(r.shaped(net_m.get("cells"), "network.cells", list))
    )
    ues = tuple(
        r.read(UeConfig, u, f"ues[{i}]", defaults={"ue_id": f"ue{i}"})
        for i, u in enumerate(r.shaped(data.get("ues"), "ues", list))
    )

    tr_m = r.shaped(data.get("traffic"), "traffic")
    r.reject_unknown(tr_m, {"flows"}, "traffic")
    flows = tuple(
        _read_flow(r, f, f"traffic.flows[{i}]", i)
        for i, f in enumerate(r.shaped(tr_m.get("flows"), "traffic.flows", list))
    )
    mac = r.read(MacConfig, data.get("mac"), "mac")

    pd_m = r.shaped(data.get("pdcp"), "pdcp")
    modes_m = r.shaped(pd_m.get("service_modes"), "pdcp.service_modes")
    modes = dict(DEFAULT_SERVICE_MODES)
    for key, val in modes_m.items():
        try:
            svc = TrafficClass(key)
        except ValueError:
            r.fail(f"pdcp.service_modes.{key}", "unknown traffic class")
            continue
        try:
            modes[svc] = Mode(val)
        except ValueError:
            r.fail(f"pdcp.service_modes.{key}", f"unknown mode {val!r}")
    pdcp = r.read(PdcpSection, pd_m, "pdcp", service_modes=modes)

    uts_m = r.shaped(data.get("uts"), "uts")
    feats = r.get(uts_m, "features", NAMES, UtsSection.features)
    thr_m = r.shaped(uts_m.get("thresholds"), "uts.thresholds")
    thresholds = {}
    for fid, kv in thr_m.items():
        if fid not in (feats if isinstance(feats, tuple) else UtsSection.features):
            # a file's rule only: Python configs may switch features off
            r.fail(f"uts.thresholds.{fid}", "thresholds for a feature not enabled")
            continue
        values = thresholds[fid] = {}
        for k, v in r.shaped(kv, f"uts.thresholds.{fid}").items():
            if (why := number_refusal(v, finite=True)) is None:
                values[k] = float(v)
            else:
                r.fail(f"uts.thresholds.{fid}.{k}", why)  # at its nested path
    uts = r.read(UtsSection, uts_m, "uts", thresholds=thresholds)

    parts = dict(name=r.get(data, "name", str, ScenarioConfig.name), sim=sim, channel=channel,
                 cells=cells, ues=ues, flows=flows, mac=mac, pdcp=pdcp, uts=uts)
    try:
        cfg = ScenarioConfig(**parts)
    except ValidationError as e:
        r.refused(ScenarioConfig, parts, e, "")
    if r.failures:
        raise ValidationError(list(r.failures))
    return cfg


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Serialize a config with every field explicit (round-trip stable)."""
    modes, thresholds = cfg.pdcp.service_modes, cfg.uts.thresholds
    return {
        "name": cfg.name,
        "sim": _to_dict(cfg.sim),
        "channel": _to_dict(cfg.channel),
        "network": {"cells": [_to_dict(c) for c in cfg.cells]},
        "ues": [_to_dict(u) for u in cfg.ues],
        "traffic": {
            "flows": [
                {
                    **_to_dict(f),
                    "generator": {"kind": _KIND_OF[type(f.generator)], **_to_dict(f.generator)},
                }
                for f in cfg.flows
            ]
        },
        "mac": _to_dict(cfg.mac),
        "pdcp": {
            **_to_dict(cfg.pdcp),
            "service_modes": {svc.value: mode.value for svc, mode in modes.items()},
        },
        "uts": {**_to_dict(cfg.uts), "thresholds": {f: dict(kv) for f, kv in thresholds.items()}},
    }


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a YAML scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ParseError(f"invalid YAML in {path}: {e}") from None
    if data is None:
        data = {}
    return scenario_from_dict(data)


def build_domain(cfg: CellConfig) -> Cell:
    """Construct the domain Cell for one cell config."""
    grid = CarrierGrid(cfg.carrier_hz, cfg.prbs_per_slot, cfg.numerology, cfg.prb_bandwidth_hz)
    return Cell(cfg.cell_id, cfg.cell_class, grid, cfg.position, cfg.effective_tx_power_dbm(),
                cfg.rat_tag, cfg.supports_duplication, cfg.supports_secondary)
