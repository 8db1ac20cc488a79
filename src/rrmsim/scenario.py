"""Scenario configuration: parsing, validation, defaults, serialization.

A scenario is a plain mapping (usually YAML on disk) with sections for the
network, UEs, traffic flows, and the MAC / flow-control / steering / sim
knobs. Each section is a config dataclass, and the runtime layers' own types
(``mac.MacConfig``, ``channel.ChannelConfig``, ``mac.PortionSpec``) serve as
sections directly, and a flow's ``generator`` is the ``traffic`` generator
itself: a section's keys, value types and defaults are read from its
dataclass fields, so each setting is declared once. So is each range
rule, in the ``__post_init__`` of the type that holds the value, and each
rule across sections, on ``ScenarioConfig``: a config built in Python meets
them too, and the reader adds only that ``uts.thresholds`` name enabled
features. Parsing is strict: unknown keys and refused values are collected
and reported together, each with its config path. ``scenario_to_dict`` emits
every field from the same field lists, so a serialized config re-parses to
an equal one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import yaml

from .abstraction import link_rate
from .channel import ChannelConfig
from .core import (
    CarrierGrid,
    Cell,
    CellClass,
    TrafficClass,
    ValidationError,
    check_rules,
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
class CellConfig:
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

    def __post_init__(self):
        n, keys = len(self.portions), {p.key for p in self.portions}
        check_rules(self, *CarrierGrid.rules(self),
                    ("drop_prob", 0.0 <= self.drop_prob < 1.0, "must be in [0, 1), got {}"),
                    ("portions", n <= 2, "at most 2 portions may share a carrier"),
                    ("portions", len(keys) == n, "portion keys must be unique"))

    def effective_tx_power_dbm(self) -> float:
        if self.tx_power_dbm is not None:
            return self.tx_power_dbm
        return DEFAULT_TX_POWER_DBM[self.cell_class]


@dataclass(frozen=True)
class UeConfig:
    ue_id: str
    position: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    capabilities: tuple[str, ...] = ("nr",)
    serving_cell: str | None = None


@dataclass(frozen=True)
class FlowConfig:
    flow_id: str
    ue_id: str
    service: TrafficClass = TrafficClass.EMBB
    #: one of the ``traffic.GENERATOR_KINDS`` types
    generator: object = FullBuffer()
    slice_id: str | None = None
    sps_period_slots: int | None = None
    sps_prbs: int | None = None
    sps_offset_slots: int = 0

    def __post_init__(self):
        # the MAC refuses these reservation shapes when the flow registers
        period, prbs = self.sps_period_slots, self.sps_prbs
        check_rules(self, ("ue_id", bool(self.ue_id), "flow must name its UE"),
                    ("generator", type(self.generator) in _KIND_OF,
                     "must be a traffic generator, got {!r}"),
                    ("slice_id", self.slice_id != RACH_KEY, "{!r} is the access partition's key"),
                    ("sps_period_slots", period is None or period >= 1, "must be >= 1, got {}"),
                    ("sps_prbs", prbs is None or prbs >= 1, "must be >= 1, got {}"),
                    ("sps_offset_slots", self.sps_offset_slots >= 0, "must be >= 0, got {}"),
                    ("", self.service is not TrafficClass.URLLC or period is not None
                     or isinstance(self.generator, PeriodicDeadline),
                     "URLLC flows need a periodic_deadline generator or explicit sps_period_slots"))


@dataclass(frozen=True)
class PdcpSection:
    t_reorder_slots: int = DEFAULT_T_REORDER_SLOTS
    leave_load: float = DEFAULT_LEAVE_LOAD
    enter_load: float = DEFAULT_ENTER_LOAD
    #: every traffic class's mode
    service_modes: dict[TrafficClass, Mode] = field(default_factory=DEFAULT_SERVICE_MODES.copy)

    def __post_init__(self):
        modes = self.service_modes
        check_rules(self, ("t_reorder_slots", self.t_reorder_slots >= 1, "must be >= 1"),
                    ("", 0.0 <= self.enter_load <= self.leave_load <= 1.0,
                     "need 0 <= enter_load <= leave_load <= 1"),
                    ("service_modes", set(modes) == set(TrafficClass)
                     and all(isinstance(m, Mode) for m in modes.values()),
                     "must map every traffic class to a Mode, got {}"))


@dataclass(frozen=True)
class UtsSection:
    enabled: bool = True
    epoch_slots: int = 100
    scenario_tag: str = "default"
    features: tuple[str, ...] = BUILTIN_FEATURE_IDS
    ranking: tuple[str, ...] = ()
    #: per-feature threshold overrides
    thresholds: dict[str, dict[str, float]] = field(default_factory=dict)
    hysteresis_epochs: int = DEFAULT_HYSTERESIS_EPOCHS
    time_to_trigger_epochs: int = DEFAULT_TIME_TO_TRIGGER_EPOCHS

    def __post_init__(self):
        feats, ranking = self.features, self.ranking
        thr = [(f, k, v) for f, kv in self.thresholds.items() for k, v in kv.items()]
        # each reason picks its entry out of the value it is formatted with, or is _literal
        check_rules(self, ("epoch_slots", self.epoch_slots >= 1, "must be >= 1"),
                    ("hysteresis_epochs", self.hysteresis_epochs >= 0, "must be >= 0"),
                    ("time_to_trigger_epochs", self.time_to_trigger_epochs >= 1, "must be >= 1"),
                    *(("features", f in BUILTIN_FEATURE_IDS, f"unknown feature {{0[{i}]!r}}")
                      for i, f in enumerate(feats)),
                    *(("ranking", f in feats, f"ranked feature {{0[{i}]!r}} not in features")
                      for i, f in enumerate(ranking)),
                    ("ranking", not ranking or set(ranking) == set(feats),
                     "ranking must cover every enabled feature"),
                    *(("thresholds", f not in DEFAULT_THRESHOLDS or k in DEFAULT_THRESHOLDS[f],
                       _literal(f"{f}.{k}: unknown threshold")) for f, k, _ in thr),
                    *(("thresholds", isinstance(v, (int, float)) and math.isfinite(v),
                       _literal(f"{f}.{k}: must be finite, got {v!r}")) for f, k, v in thr))

    def effective_ranking(self) -> tuple[str, ...]:
        return self.ranking if self.ranking else self.features


@dataclass(frozen=True)
class SimSection:
    horizon_slots: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_rules(self, ("horizon_slots", self.horizon_slots >= 1, "must be >= 1, got {}"),
                    ("seed", self.seed >= 0, "must be >= 0, got {}"))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    sim: SimSection = SimSection()
    channel: ChannelConfig = ChannelConfig()
    cells: tuple[CellConfig, ...] = ()
    ues: tuple[UeConfig, ...] = ()
    flows: tuple[FlowConfig, ...] = ()
    mac: MacConfig = MacConfig()
    pdcp: PdcpSection = PdcpSection()
    uts: UtsSection = UtsSection()

    def __post_init__(self):
        check_rules(self, *self._rules())

    def _rules(self):
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


#: YAML keys that differ from their dataclass field names, per class.
_YAML_KEYS = {
    CellConfig: {"cell_id": "id", "cell_class": "class", "rat_tag": "rat"},
    UeConfig: {"ue_id": "id"},
    FlowConfig: {"flow_id": "id", "ue_id": "ue", "slice_id": "slice"},
}

def _yaml_path(parts: dict, rule: str) -> str:
    """The file path of a ``ScenarioConfig`` rule over the fields ``parts``, with
    the entry's or part's YAML key: ``flows[2].ue_id`` is ``traffic.flows[2].ue``."""
    head, dot, sub = rule.partition(".")
    field, bracket, index = head.partition("[")
    part = parts[field][int(index[:-1])] if bracket else parts[field]
    where = {"cells": "network.cells", "flows": "traffic.flows"}.get(field, field)
    return where + bracket + index + dot + _YAML_KEYS.get(type(part), {}).get(sub, sub)


@functools.cache
def _fields(cls) -> tuple[dict[str, tuple[str, object]], dict[str, object]]:
    """How config dataclass ``cls`` maps to YAML: (field, kind) by YAML key,
    and the defaults of the fields that have a kind.

    ``kind`` is int, float, bool, str, an Enum class, or ``tuple`` for an
    [x, y] pair; None marks a field its caller reads by hand. Resolving the
    type hints costs far more than reading a section, so each class's table
    is built once.
    """
    hints = typing.get_type_hints(cls)
    by_key, defaults = {}, {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if isinstance(hint, types.UnionType):  # X | None
            (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
        if hint == tuple[float, float]:
            kind = tuple
        elif hint in (int, float, bool, str) or (isinstance(hint, type) and issubclass(hint, Enum)):
            kind = hint
        else:
            kind = None
        by_key[_YAML_KEYS.get(cls, {}).get(f.name, f.name)] = (f.name, kind)
        if kind is not None:
            defaults[f.name] = None if f.default is dataclasses.MISSING else f.default
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
        self.failures: list[tuple[str, str]] = []

    def fail(self, path: str, reason: str):
        self.failures.append((path, reason))

    def mapping(self, raw, path: str) -> dict:
        if raw is None:
            return {}
        if not isinstance(raw, dict):
            self.fail(path, f"expected a mapping, got {type(raw).__name__}")
            return {}
        return raw

    def seq(self, raw, path: str) -> list:
        if raw is None:
            return []
        if not isinstance(raw, list):
            self.fail(path, f"expected a list, got {type(raw).__name__}")
            return []
        return raw

    def names(self, raw, path: str) -> tuple[str, ...]:
        """The entries of list ``raw``, each of which must be a non-empty
        string that no earlier entry holds."""
        out = []
        for i, val in enumerate(self.seq(raw, path)):
            if not (isinstance(val, str) and val):
                self.fail(f"{path}[{i}]", f"expected a non-empty string, got {val!r}")
            elif val in out:
                self.fail(f"{path}[{i}]", f"repeats {val!r}")
            else:
                out.append(val)
        return tuple(out)

    def reject_unknown(self, raw: dict, known: set[str], path: str):
        for key in raw:
            if key not in known:
                self.fail(f"{path}.{key}" if path else str(key), "unknown key")

    def number(self, val, where: str) -> float | None:
        """``val`` as a float, or None once the reason it is not a finite
        number is reported: nan and inf are refused where they are read."""
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.fail(where, f"expected a number, got {val!r}")
        elif not math.isfinite(val):
            self.fail(where, f"must be finite, got {val!r}")
        else:
            return float(val)
        return None

    def get(self, raw: dict, key: str, kind, default, path: str):
        if key not in raw or raw[key] is None:
            return default
        val = raw[key]
        where = f"{path}.{key}" if path else key
        if kind is float:
            num = self.number(val, where)
            return default if num is None else num
        if kind is int:
            if isinstance(val, bool) or not isinstance(val, int):
                self.fail(where, f"expected an integer, got {val!r}")
                return default
            return val
        if kind is bool:
            if not isinstance(val, bool):
                self.fail(where, f"expected a boolean, got {val!r}")
                return default
            return val
        if kind is str:
            if not isinstance(val, str) or not val:
                self.fail(where, f"expected a non-empty string, got {val!r}")
                return default
            return val
        if kind is tuple:
            if not isinstance(val, list) or len(val) != 2 or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in val
            ):
                self.fail(where, f"expected [x, y] numbers, got {val!r}")
                return default
            if not all(map(math.isfinite, val)):
                self.fail(where, f"must be finite, got {val!r}")
                return default
            return (float(val[0]), float(val[1]))
        try:
            return kind(val)
        except ValueError:
            ok = ", ".join(e.value for e in kind)
            self.fail(where, f"expected one of ({ok}), got {val!r}")
            return default

    def read(self, cls, raw, path: str, defaults=None, **given):
        """Read config dataclass ``cls`` from its mapping at ``path``.

        Keys, value types and defaults come from the class's fields.
        ``defaults`` overrides a field's default (an index-derived id) and
        ``given`` holds the fields the caller read by hand. The class's own
        rules judge the values: each refusal is reported at its field's YAML
        key, or at ``path`` for a rule over the whole value. The values are
        then kept, each refused field at its default, in an instance built
        without running the rules again, so the scenario's rules across
        sections still see the rest; the parse fails anyway.
        """
        m = self.mapping(raw, path)
        by_key, field_defaults = _fields(cls)
        defaults = defaults or {}
        values = {**field_defaults, **defaults, **given}
        for key in m:
            if key not in by_key:
                self.fail(f"{path}.{key}", f"unknown key (accepts: {', '.join(by_key)})")
                continue
            name, kind = by_key[key]
            if kind is not None and name not in given:
                values[name] = self.get(m, key, kind, values[name], path)
        try:
            return cls(**values)
        except ValidationError as e:
            keys = _YAML_KEYS.get(cls, {})
            for name, reason in e.failures:
                self.fail(f"{path}.{keys.get(name, name)}" if name else path, reason)
                if name:
                    values[name] = defaults.get(name, getattr(cls, name, None))
        obj = object.__new__(cls)
        obj.__dict__.update(values)
        return obj


def _read_cell(r: _Reader, raw, path: str, index: int) -> CellConfig:
    m = r.mapping(raw, path)
    portions = tuple(
        r.read(PortionSpec, p, f"{path}.portions[{i}]", defaults={"key": f"portion{i}"})
        for i, p in enumerate(r.seq(m.get("portions"), f"{path}.portions"))
    ) or CellConfig.portions
    return r.read(CellConfig, m, path, defaults={"cell_id": f"cell{index}"}, portions=portions)


def _read_ue(r: _Reader, raw, path: str, index: int) -> UeConfig:
    m = r.mapping(raw, path)
    caps = r.names(m.get("capabilities"), f"{path}.capabilities")
    return r.read(
        UeConfig, m, path, defaults={"ue_id": f"ue{index}"},
        capabilities=caps or UeConfig.capabilities,
    )


def _read_flow(r: _Reader, raw, path: str, index: int) -> FlowConfig:
    m = r.mapping(raw, path)
    gen_path = f"{path}.generator"
    gen = r.mapping(m.get("generator"), gen_path)
    default = _KIND_OF[type(FlowConfig.generator)]
    kind = r.get(gen, "kind", str, default, gen_path)
    if kind not in GENERATOR_KINDS:
        r.fail(f"{gen_path}.kind", f"unknown kind {kind!r}")
        kind, gen = default, {}
    params = {k: v for k, v in gen.items() if k != "kind"}
    generator = r.read(GENERATOR_KINDS[kind], params, gen_path)
    return r.read(
        FlowConfig, m, path, defaults={"flow_id": f"flow{index}"}, generator=generator
    )


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain mapping.

    Raises ValidationError carrying every (config path, reason) pair found.
    """
    if not isinstance(data, dict):
        raise ParseError(f"scenario must be a mapping, got {type(data).__name__}")
    r = _Reader()
    r.reject_unknown(
        data, {"name", "sim", "channel", "network", "ues", "traffic", "mac", "pdcp", "uts"}, "")
    name = r.get(data, "name", str, ScenarioConfig.name, "")

    sim = r.read(SimSection, data.get("sim"), "sim")
    channel = r.read(ChannelConfig, data.get("channel"), "channel")

    net_m = r.mapping(data.get("network"), "network")
    r.reject_unknown(net_m, {"cells"}, "network")
    cells = tuple(
        _read_cell(r, c, f"network.cells[{i}]", i)
        for i, c in enumerate(r.seq(net_m.get("cells"), "network.cells"))
    )
    ues = tuple(
        _read_ue(r, u, f"ues[{i}]", i) for i, u in enumerate(r.seq(data.get("ues"), "ues"))
    )

    tr_m = r.mapping(data.get("traffic"), "traffic")
    r.reject_unknown(tr_m, {"flows"}, "traffic")
    flows = tuple(
        _read_flow(r, f, f"traffic.flows[{i}]", i)
        for i, f in enumerate(r.seq(tr_m.get("flows"), "traffic.flows"))
    )
    mac = r.read(MacConfig, data.get("mac"), "mac")

    pd_m = r.mapping(data.get("pdcp"), "pdcp")
    modes_m = r.mapping(pd_m.get("service_modes"), "pdcp.service_modes")
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

    uts_m = r.mapping(data.get("uts"), "uts")
    feats = r.names(uts_m.get("features"), "uts.features")
    if uts_m.get("features") is None:
        feats = UtsSection.features
    ranking = r.names(uts_m.get("ranking"), "uts.ranking")
    thr_m = r.mapping(uts_m.get("thresholds"), "uts.thresholds")
    thresholds = {}
    for fid, kv in thr_m.items():
        if fid not in feats:  # a file's rule only: Python configs may switch features off
            r.fail(f"uts.thresholds.{fid}", "thresholds for a feature not enabled")
            continue
        values = thresholds[fid] = {}
        for k, v in r.mapping(kv, f"uts.thresholds.{fid}").items():
            if (num := r.number(v, f"uts.thresholds.{fid}.{k}")) is not None:
                values[k] = num
    uts = r.read(
        UtsSection, uts_m, "uts",
        features=feats, ranking=ranking, thresholds=thresholds,
    )

    parts = dict(name=name, sim=sim, channel=channel, cells=cells, ues=ues, flows=flows,
                 mac=mac, pdcp=pdcp, uts=uts)
    try:
        cfg = ScenarioConfig(**parts)
    except ValidationError as e:
        for rule, reason in e.failures:
            r.fail(_yaml_path(parts, rule), reason)
    if r.failures:
        raise ValidationError(r.failures)
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
    grid = CarrierGrid(
        carrier_hz=cfg.carrier_hz,
        prbs_per_slot=cfg.prbs_per_slot,
        numerology=cfg.numerology,
        prb_bandwidth_hz=cfg.prb_bandwidth_hz,
    )
    return Cell(
        cell_id=cfg.cell_id,
        cell_class=cfg.cell_class,
        grid=grid,
        position=cfg.position,
        tx_power_dbm=cfg.effective_tx_power_dbm(),
        rat_tag=cfg.rat_tag,
        supports_duplication=cfg.supports_duplication,
        supports_secondary=cfg.supports_secondary,
    )
