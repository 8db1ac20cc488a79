"""Traffic steering above the per-cell coordinators.

All steering features — built-in or plugged in — see the same technology-blind
context (common-unit measurements plus capability descriptors) and propose
actions from one closed set. An operator strategy ranks features totally;
conflicts resolve to at most one action per UE per epoch, with hysteresis
against reversals and time-to-trigger maturation before anything is emitted.
Every action acts on one cell, its last target (configure_dc names its master
first). The surviving actions are checked against that same context by one
statement of the refusal rules, ``_refusal``, and applied through the
network's five ``apply_*`` mutators; steering reads nothing else. One table,
``_UNDOES``, says which kinds undo which, for hysteresis.

Signals cost the most to read, so the built-in features read each one they
need once and no other: load balancing indexes the UEs by serving cell and
visits a hot cell's pairs by target load, then by the context's signal
estimate, stopping where no pair can win; every signal it compares is exact.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .abstraction import (
    CapabilityDescriptor,
    CommonMeasure,
    FeatureRecord,
    PluginLocation,
    PluginRegistry,
)
from .channel import SIGNAL_ESTIMATE_TOL_DB
from .core import Config, Event, TrafficClass, repeat_rules
from .pdcp import Mode

DEFAULT_HYSTERESIS_EPOCHS = 10
DEFAULT_TIME_TO_TRIGGER_EPOCHS = 2

#: Capability flag a UE must carry to hold two simultaneous legs.
DC_CAPABILITY = "dual_connectivity"

#: Flow-control mode applied when a second leg is configured, by service.
DEFAULT_SERVICE_MODES: dict[TrafficClass, Mode] = {
    TrafficClass.URLLC: Mode.DUPLICATE,
    TrafficClass.EMBB: Mode.AGGREGATE,
    TrafficClass.LEGACY_MBB: Mode.LOAD_BALANCE,
    TrafficClass.MMTC: Mode.AGGREGATE,
}


class ActionKind(str, Enum):
    """The closed set of steering actions, in canonical tie-break order."""

    HANDOVER = "handover"
    ADD_SECONDARY_CELL = "add_secondary_cell"
    RELEASE_SECONDARY_CELL = "release_secondary_cell"
    CONFIGURE_DC = "configure_dc"
    RELEASE_LEG = "release_leg"
    OFFLOAD = "offload"


KIND_ORDER: dict[ActionKind, int] = {k: i for i, k in enumerate(ActionKind)}

#: The kinds that move the UE's data to their cell, add a leg on it, or drop it.
_MOVES = frozenset({ActionKind.HANDOVER, ActionKind.OFFLOAD})
_ADDS = frozenset({ActionKind.ADD_SECONDARY_CELL, ActionKind.CONFIGURE_DC})
_RELEASES = frozenset({ActionKind.RELEASE_SECONDARY_CELL, ActionKind.RELEASE_LEG})

#: The earlier kinds each kind undoes: a move back to the cell a move left, an
#: add of a cell a release dropped, a release of a cell an add named.
_UNDOES: dict[ActionKind, frozenset[ActionKind]] = {
    ActionKind.HANDOVER: _MOVES,
    ActionKind.ADD_SECONDARY_CELL: _RELEASES,
    ActionKind.RELEASE_SECONDARY_CELL: _ADDS,
    ActionKind.CONFIGURE_DC: _RELEASES,
    ActionKind.RELEASE_LEG: _ADDS,
    ActionKind.OFFLOAD: _MOVES,
}


class UndeclaredActionError(ValueError):
    """A feature proposed an action kind absent from its registered outputs."""


class UnrankedFeatureError(ValueError):
    """A candidate came from a feature missing from the strategy ranking."""


@dataclass(frozen=True)
class SteeringAction:
    """One proposed action. ``targets`` is the one cell it acts on, except for
    configure_dc's ``(master, second)``; the acted-on cell is the last."""

    kind: ActionKind
    ue_id: str
    targets: tuple[str, ...]
    feature_id: str

    def __post_init__(self):
        if not isinstance(self.kind, ActionKind):
            raise ValueError(f"kind must be an ActionKind, got {self.kind!r}")
        want = 2 if self.kind is ActionKind.CONFIGURE_DC else 1
        if len(self.targets) != want:
            raise ValueError(f"{self.kind.value} takes {want} target(s), got {len(self.targets)}")


# ---------------------------------------------------------------------------
# steering context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UtsContext:
    """What steering features are allowed to see: common units only.

    The engine builds one each steering epoch. Loads are load fractions,
    signals are dB above the common floor, and cells appear solely through
    their capability descriptors. ``ue_signal`` and each of its rows are
    ``LazyRow``s: a UE's row is built, and each of its signals computed,
    when a feature first reads it; ``in`` computes nothing.
    ``signal_estimate(ues, cells)``, if given, is a (len(ues), len(cells))
    array of signal values from one numpy pass, each within
    ``SIGNAL_ESTIMATE_TOL_DB`` of the exact one; features may ignore it.
    """

    epoch_index: int
    scenario_tag: str
    cell_load: Mapping[str, CommonMeasure]
    cell_descriptors: Mapping[str, CapabilityDescriptor]
    ue_signal: Mapping[str, Mapping[str, CommonMeasure]]
    ue_serving: Mapping[str, str]
    ue_secondary: Mapping[str, tuple[str, ...]]
    ue_services: Mapping[str, tuple[TrafficClass, ...]]
    ue_capabilities: Mapping[str, frozenset[str]]
    ue_eligible: Mapping[str, tuple[str, ...]]
    ue_rate_bps: Mapping[str, float]
    signal_estimate: Callable[[Sequence[str], Sequence[str]], np.ndarray] | None = None


class LazyRow(Mapping):
    """A read-only mapping over the keys of ``keys``, iterated in sorted
    order. A key's value is ``fill(key)``, computed on its first read and
    then kept; ``fill`` raises ``KeyError`` for a key not in ``keys``.
    ``in`` tests ``keys`` and computes nothing; ``get`` of an absent key
    returns the default without calling ``fill``."""

    def __init__(self, keys, fill: Callable):
        self._keys, self._fill = keys, fill
        self._memo = {}

    def __getitem__(self, key):
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = self._fill(key)
        return val

    def __contains__(self, key) -> bool:
        return key in self._keys

    def get(self, key, default=None):
        val = self._memo.get(key)
        if val is None and key in self._keys:
            val = self._memo[key] = self._fill(key)
        return default if val is None else val

    def __iter__(self):
        return iter(sorted(self._keys))

    def __len__(self) -> int:
        return len(self._keys)


# ---------------------------------------------------------------------------
# operator strategy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MnoStrategy(Config):
    """Operator policy: a total order over features plus their thresholds."""

    name: str = "default"
    scenario_tag: str = "any"
    ranking: tuple[str, ...] = ()
    thresholds: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    hysteresis_epochs: int = DEFAULT_HYSTERESIS_EPOCHS
    time_to_trigger_epochs: int = DEFAULT_TIME_TO_TRIGGER_EPOCHS

    def rules(self):
        """The strategy's rules over ``self``, or a ``scenario.UtsSection``: it includes them."""
        return (("hysteresis_epochs", self.hysteresis_epochs >= 0, "must be >= 0"),
                ("time_to_trigger_epochs", self.time_to_trigger_epochs >= 1, "must be >= 1"),
                *repeat_rules("ranking", self.ranking))

    def rank_of(self, feature_id: str) -> int:
        try:
            return self.ranking.index(feature_id)
        except ValueError:
            raise UnrankedFeatureError(
                f"feature {feature_id!r} missing from strategy ranking"
            ) from None


# ---------------------------------------------------------------------------
# built-in features
# ---------------------------------------------------------------------------

LOAD_BALANCE_ID = "load_balance_handover"
CARRIER_AGG_ID = "carrier_aggregation"
DUAL_CONN_ID = "dual_connectivity_offload"

DEFAULT_THRESHOLDS: dict[str, dict[str, float]] = {
    LOAD_BALANCE_ID: {"high_load": 0.8, "low_load": 0.5, "min_signal_db": 20.0},
    CARRIER_AGG_ID: {
        "target_rate_bps": 10e6,
        "max_secondary_load": 0.7,
        "min_signal_db": 25.0,
        "release_load": 0.95,
    },
    DUAL_CONN_ID: {
        "max_secondary_load": 0.8,
        "min_signal_db": 20.0,
        "release_load": 0.95,
    },
}


def evaluate_load_balance(
    ctx: UtsContext, record: FeatureRecord, thr: Mapping[str, float]
) -> list[SteeringAction]:
    """Move one UE off each overloaded cell toward an underloaded neighbor:
    of the hot cell's UEs and their eligible targets below ``low_load`` with
    a signal of ``min_signal_db`` or more, the least loaded target wins, then
    the strongest signal, then the lowest UE id and target id.

    The UEs are grouped by serving cell once. A hot cell's (UE, target)
    pairs are visited one target load level at a time, lowest first, and
    the visit stops after the first level with a winner. A level's pairs go
    by decreasing estimate (+inf without one) and stop where it plus the
    tolerance is below the floor or the best signal read, as no later pair
    can win or tie. Keys are unique, so the winner is the full scan's."""
    load = {cid: m.value for cid, m in ctx.cell_load.items()}
    hot = {cid for cid, v in load.items() if v > thr["high_load"]}
    served: dict[str, list[str]] = {}
    for ue, cell in ctx.ue_serving.items():
        if cell in hot:
            served.setdefault(cell, []).append(ue)
    low, floor = thr["low_load"], thr["min_signal_db"]
    levels: dict[float, list[str]] = {}  # the cells below low_load by load
    for cid in sorted(load):
        if load[cid] < low:
            levels.setdefault(load[cid], []).append(cid)
    estimate, actions = ctx.signal_estimate, []
    for cell_id in sorted(hot):
        ues = sorted(served.get(cell_id, ()))
        best: tuple | None = None
        for tload in sorted(levels):
            targets = levels[tload]
            if estimate is None:
                bounds = np.full(len(ues) * len(targets), np.inf)
            else:
                bounds = estimate(ues, targets).ravel() + SIGNAL_ESTIMATE_TOL_DB
            for k in np.argsort(-bounds, kind="stable").tolist():
                if bounds[k] < floor or (best is not None and bounds[k] < -best[1]):
                    break
                ue, target = ues[k // len(targets)], targets[k % len(targets)]
                if target == cell_id or target not in ctx.ue_eligible.get(ue, ()):
                    continue
                m = ctx.ue_signal.get(ue, {}).get(target)
                if m is None or m.value < floor:
                    continue
                key = (tload, -m.value, ue, target)
                if best is None or key < best:
                    best = key
            if best is not None:
                break
        if best is not None:
            actions.append(
                SteeringAction(ActionKind.HANDOVER, best[2], (best[3],), record.feature_id)
            )
    return actions


def _shed_hot_secondary(
    actions: list, ctx: UtsContext, ue: str, thr: Mapping[str, float],
    kind: ActionKind, record: FeatureRecord,
) -> bool:
    """Propose a ``kind`` release of the UE's first secondary cell above
    ``release_load``. True when the UE holds any secondary: it then gets no
    new one this epoch."""
    secondary = ctx.ue_secondary.get(ue, ())
    for sec in secondary:
        if ctx.cell_load[sec].value > thr["release_load"]:
            actions.append(SteeringAction(kind, ue, (sec,), record.feature_id))
            break
    return bool(secondary)


def _second_cell(
    ctx: UtsContext, ue: str, thr: Mapping[str, float], need_duplication: bool = False
) -> str | None:
    """The eligible cell besides the serving one that best takes a second
    leg of the UE: open to secondary attach (and duplication, if asked),
    loaded below ``max_secondary_load``, with a signal of ``min_signal_db``
    or more. Least loaded wins, then strongest, then lowest cell id."""
    serving, row = ctx.ue_serving[ue], ctx.ue_signal.get(ue, {})
    fit = []
    for cand in ctx.ue_eligible.get(ue, ()):
        desc = ctx.cell_descriptors[cand]
        if cand == serving or not desc.supports_secondary_attach:
            continue
        if need_duplication and not desc.supports_duplication:
            continue
        load = ctx.cell_load[cand].value
        if load >= thr["max_secondary_load"]:
            continue
        m = row.get(cand)
        if m is None or m.value < thr["min_signal_db"]:
            continue
        fit.append((load, -m.value, cand))
    return min(fit)[-1] if fit else None


def evaluate_carrier_aggregation(
    ctx: UtsContext, record: FeatureRecord, thr: Mapping[str, float]
) -> list[SteeringAction]:
    """Add a secondary carrier to rate-starved broadband UEs; shed hot ones."""
    actions = []
    for ue in sorted(ctx.ue_serving):
        if TrafficClass.EMBB not in ctx.ue_services.get(ue, ()):
            continue
        if _shed_hot_secondary(actions, ctx, ue, thr, ActionKind.RELEASE_SECONDARY_CELL, record):
            continue
        if ctx.ue_rate_bps.get(ue, 0.0) >= thr["target_rate_bps"]:
            continue
        cell = _second_cell(ctx, ue, thr)
        if cell is not None:
            actions.append(
                SteeringAction(ActionKind.ADD_SECONDARY_CELL, ue, (cell,), record.feature_id)
            )
    return actions


def evaluate_dual_connectivity(
    ctx: UtsContext, record: FeatureRecord, thr: Mapping[str, float]
) -> list[SteeringAction]:
    """Give two-leg service to capable UEs with a viable second cell.

    Capable UEs get configure_dc (master = current serving); UEs without the
    capability get their traffic offloaded to the viable cell instead. Hot
    secondary legs are released.
    """
    actions = []
    for ue in sorted(ctx.ue_serving):
        services = ctx.ue_services.get(ue, ())
        if not any(s in (TrafficClass.EMBB, TrafficClass.URLLC) for s in services):
            continue
        if _shed_hot_secondary(actions, ctx, ue, thr, ActionKind.RELEASE_LEG, record):
            continue
        serving = ctx.ue_serving[ue]
        needs_dup = TrafficClass.URLLC in services
        if needs_dup and not ctx.cell_descriptors[serving].supports_duplication:
            continue
        cell = _second_cell(ctx, ue, thr, needs_dup)
        if cell is None:
            continue
        if DC_CAPABILITY in ctx.ue_capabilities.get(ue, frozenset()):
            kind, targets = ActionKind.CONFIGURE_DC, (serving, cell)
        else:
            kind, targets = ActionKind.OFFLOAD, (cell,)
        actions.append(SteeringAction(kind, ue, targets, record.feature_id))
    return actions


def builtin_features() -> list[tuple[FeatureRecord, Callable]]:
    lb = FeatureRecord(
        feature_id=LOAD_BALANCE_ID,
        inputs=("cell_load", "ue_signal", "ue_serving"),
        outputs=(ActionKind.HANDOVER.value,),
        location=PluginLocation.BELOW_UTS,
        interacts_with=(CARRIER_AGG_ID, DUAL_CONN_ID),
        scenarios=("any",),
    )
    ca = FeatureRecord(
        feature_id=CARRIER_AGG_ID,
        inputs=("cell_load", "ue_signal", "ue_rate_bps", "cell_descriptors"),
        outputs=(
            ActionKind.ADD_SECONDARY_CELL.value,
            ActionKind.RELEASE_SECONDARY_CELL.value,
        ),
        location=PluginLocation.BELOW_UTS,
        interacts_with=(LOAD_BALANCE_ID, DUAL_CONN_ID),
        scenarios=("any",),
    )
    dc = FeatureRecord(
        feature_id=DUAL_CONN_ID,
        inputs=("cell_load", "ue_signal", "ue_capabilities", "cell_descriptors"),
        outputs=(
            ActionKind.CONFIGURE_DC.value,
            ActionKind.OFFLOAD.value,
            ActionKind.RELEASE_LEG.value,
        ),
        location=PluginLocation.BELOW_UTS,
        interacts_with=(LOAD_BALANCE_ID, CARRIER_AGG_ID),
        scenarios=("any",),
    )
    return [
        (lb, evaluate_load_balance),
        (ca, evaluate_carrier_aggregation),
        (dc, evaluate_dual_connectivity),
    ]


def register_builtins(registry: PluginRegistry) -> PluginRegistry:
    for record, evaluator in builtin_features():
        registry.register(record, evaluator)
    return registry


# ---------------------------------------------------------------------------
# evaluation, maturation, conflict resolution
# ---------------------------------------------------------------------------

def evaluate_features(
    ctx: UtsContext, registry: PluginRegistry, strategy: MnoStrategy
) -> list[SteeringAction]:
    """Run every applicable feature evaluator and validate its proposals.

    A feature applies when it sits below the steering layer and its scenario
    list covers the context's tag. Every proposed action must use a kind the
    feature declared in its outputs, for a UE the context knows.
    """
    candidates: list[SteeringAction] = []
    for rec in registry.records():
        if rec.location is not PluginLocation.BELOW_UTS:
            continue
        if ctx.scenario_tag not in rec.scenarios and "any" not in rec.scenarios:
            continue
        evaluator = registry.evaluator_for(rec.feature_id)
        if evaluator is None:
            continue
        thr = dict(DEFAULT_THRESHOLDS.get(rec.feature_id, {}))
        thr.update(strategy.thresholds.get(rec.feature_id, {}))
        for action in evaluator(ctx, rec, thr):
            if action.feature_id != rec.feature_id:
                raise UndeclaredActionError(
                    f"feature {rec.feature_id!r} proposed action tagged {action.feature_id!r}"
                )
            if action.kind.value not in rec.outputs:
                raise UndeclaredActionError(
                    f"feature {rec.feature_id!r} proposed undeclared kind {action.kind.value!r}"
                )
            if action.ue_id not in ctx.ue_serving:
                raise ValueError(f"action for unknown UE {action.ue_id!r}")
            candidates.append(action)
    return candidates


@dataclass(frozen=True)
class HistoryEntry:
    epoch_index: int
    action: SteeringAction
    prev_serving: str | None = None


def _reverses(candidate: SteeringAction, entry: HistoryEntry) -> bool:
    """True when ``candidate`` undoes ``entry``'s action on the same UE, by
    ``_UNDOES``: its cell is the one an earlier move left, or one an earlier
    add or release named."""
    earlier = entry.action
    if earlier.ue_id != candidate.ue_id or earlier.kind not in _UNDOES[candidate.kind]:
        return False
    cell = candidate.targets[-1]
    return cell == entry.prev_serving if candidate.kind in _MOVES else cell in earlier.targets


def resolve_conflicts(
    candidates: Sequence[SteeringAction],
    strategy: MnoStrategy,
    history: Sequence[HistoryEntry],
    epoch_index: int,
) -> list[SteeringAction]:
    """Reduce candidates to at most one action per UE, reversal-free.

    Per UE the winner is the candidate from the best-ranked feature (ties:
    action kind order, then targets). A winner that would reverse an action
    applied within the hysteresis window is suppressed outright. Output is
    sorted by (ue_id, kind order, targets). ``history`` must be in epoch
    order, as the controller appends it: the window is found by bisection.
    """
    by_ue: dict[str, list[SteeringAction]] = {}
    for c in candidates:
        strategy.rank_of(c.feature_id)  # validate early, even for losers
        by_ue.setdefault(c.ue_id, []).append(c)
    window_start = epoch_index - strategy.hysteresis_epochs
    recent = history[bisect_right(history, window_start, key=lambda h: h.epoch_index):]
    final = []
    for ue in sorted(by_ue):
        winner = min(
            by_ue[ue],
            key=lambda c: (strategy.rank_of(c.feature_id), KIND_ORDER[c.kind], c.targets),
        )
        if any(_reverses(winner, h) for h in recent):
            continue
        final.append(winner)
    final.sort(key=lambda c: (c.ue_id, KIND_ORDER[c.kind], c.targets))
    return final


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

#: Per kind: the network mutator it calls with ``(ue, *targets)``, then the
#: leg event it writes on the serving cell (or None) and the one on its cell.
_APPLY: dict[ActionKind, tuple[str, str | None, str]] = {
    ActionKind.HANDOVER: ("apply_handover", "release_leg", "add_leg"),
    ActionKind.ADD_SECONDARY_CELL: ("apply_add_secondary", None, "add_leg"),
    ActionKind.RELEASE_SECONDARY_CELL: ("apply_release_secondary", None, "release_leg"),
    ActionKind.CONFIGURE_DC: ("apply_configure_dc", "reconfigure", "add_leg"),
    ActionKind.RELEASE_LEG: ("apply_release_secondary", None, "release_leg"),
    ActionKind.OFFLOAD: ("apply_offload", "release_leg", "add_leg"),
}


def _refusal(ctx: UtsContext, action: SteeringAction) -> str | None:
    """The first steering rule ``action`` breaks against ``ctx``, or None if
    it breaks none: the one statement of the refusal rules, in order."""
    ue, kind, cell = action.ue_id, action.kind, action.targets[-1]
    if ue not in ctx.ue_serving:
        return "unknown_ue"
    if any(t not in ctx.cell_descriptors for t in action.targets):
        return "unknown_target"
    serving, secondary = ctx.ue_serving[ue], ctx.ue_secondary[ue]
    if kind in _RELEASES:
        return None if cell in secondary else "not_attached"
    if kind in _MOVES and cell == serving:
        return "already_serving"
    if kind is ActionKind.CONFIGURE_DC and action.targets[0] != serving:
        return "master_not_serving"
    if kind is not ActionKind.HANDOVER and (cell == serving or cell in secondary):
        return "already_attached"
    if cell not in ctx.ue_eligible[ue]:
        return "not_eligible"
    return None


def apply_actions(
    ctx: UtsContext, network, actions: Sequence[SteeringAction], slot: int
) -> tuple[list[HistoryEntry], list[Event]]:
    """Apply resolved actions atomically, one by one.

    Each action is checked by ``_refusal`` against ``ctx``, the context it
    was decided on, before any of its mutations run; a refused action emits
    a steer_error event and is skipped, leaving the network untouched by it.
    Unknown targets never raise. An action that passes calls its kind's one
    ``apply_*`` mutator and writes its kind's leg events, as ``_APPLY`` lists
    them; ``network`` is driven through nothing else.

    Checking against ``ctx`` rather than the live network is exact because
    ``actions`` holds at most one action per UE, as ``resolve_conflicts``
    leaves them, and an action changes only its own UE.
    """
    applied: list[HistoryEntry] = []
    events: list[Event] = []
    for action in actions:
        ue, kind = action.ue_id, action.kind
        reason = _refusal(ctx, action)
        if reason is not None:
            events.append(Event.make(
                slot, "uts", "steer_error",
                ue=ue, action=kind.value, targets="|".join(action.targets), reason=reason,
            ))
            continue
        serving = ctx.ue_serving[ue]
        mutator, on_serving, on_cell = _APPLY[kind]
        getattr(network, mutator)(ue, *action.targets)
        for leg, cell in ((on_serving, serving), (on_cell, action.targets[-1])):
            if leg is not None:
                events.append(Event.make(
                    slot, "uts", leg, ue=ue, cell=cell, action=kind.value,
                    feature=action.feature_id,
                ))
        applied.append(HistoryEntry(ctx.epoch_index, action, serving if kind in _MOVES else None))
    return applied, events


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------

class UtsController:
    """Drives one steering epoch: evaluate, mature, resolve, apply."""

    def __init__(self, registry: PluginRegistry, strategy: MnoStrategy):
        self.registry = registry
        self.strategy = strategy
        self.history: list[HistoryEntry] = []
        self._streaks: dict[tuple, tuple[int, int]] = {}

    def _mature(self, candidates: Sequence[SteeringAction], epoch: int) -> list[SteeringAction]:
        """Keep candidates proposed in ``time_to_trigger`` consecutive epochs."""
        ttt = self.strategy.time_to_trigger_epochs
        fresh: dict[tuple, tuple[int, int]] = {}
        out = []
        for c in candidates:
            key = (c.feature_id, c.ue_id, c.kind, c.targets)
            last, run = self._streaks.get(key, (None, 0))
            run = run + 1 if last == epoch - 1 else 1
            fresh[key] = (epoch, run)
            if run >= ttt:
                out.append(c)
        self._streaks = fresh
        return out

    def step(self, ctx: UtsContext, network, slot: int):
        """One steering epoch; returns (applied history entries, events)."""
        candidates = evaluate_features(ctx, self.registry, self.strategy)
        matured = self._mature(candidates, ctx.epoch_index)
        final = resolve_conflicts(matured, self.strategy, self.history, ctx.epoch_index)
        applied, events = apply_actions(ctx, network, final, slot)
        self.history.extend(applied)
        return applied, events
