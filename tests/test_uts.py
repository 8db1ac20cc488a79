"""Traffic steering: the steering context, feature evaluation, conflict
resolution, and atomic application against a fake network."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.abstraction import (
    FeatureRecord,
    PluginLocation,
    PluginRegistry,
    describe_cell,
    load_fraction,
    signal_db,
)
from rrmsim.channel import SIGNAL_ESTIMATE_TOL_DB
from rrmsim.core import CellClass, Event, TrafficClass
from rrmsim.uts import (
    ActionKind,
    CARRIER_AGG_ID,
    DEFAULT_THRESHOLDS,
    DUAL_CONN_ID,
    HistoryEntry,
    LOAD_BALANCE_ID,
    LazyRow,
    MnoStrategy,
    SteeringAction,
    UndeclaredActionError,
    UnrankedFeatureError,
    UtsContext,
    UtsController,
    apply_actions,
    builtin_features,
    evaluate_features,
    evaluate_load_balance,
    register_builtins,
    _reverses,
    resolve_conflicts,
)

from conftest import mk_cell, mk_grid


# ---------------------------------------------------------------------------
# context building
# ---------------------------------------------------------------------------

def _cell_state(cell_id, demand, capacity=50.0, cell_class=CellClass.MACRO, **cell_kw):
    """A cell's (id, load, descriptor), as the engine puts them in a context."""
    cell = mk_cell(cell_id, cell_class=cell_class, grid=mk_grid(prbs=int(capacity)), **cell_kw)
    load = load_fraction(demand, capacity)
    return cell_id, load, describe_cell(cell)


def _ue_state(ue_id, serving, rsrp, secondary=(), services=(TrafficClass.EMBB,),
              caps=("nr",), eligible=None, rate=0.0):
    """A UE's entry in each per-UE context column, by column name. Its
    signal row converts ``rsrp`` (dBm by cell) on first read, as the
    engine's does."""
    rsrp = dict(rsrp)
    return ue_id, {
        "ue_signal": LazyRow(rsrp, lambda cid: signal_db(rsrp[cid])),
        "ue_serving": serving,
        "ue_secondary": tuple(secondary),
        "ue_services": tuple(services),
        "ue_capabilities": frozenset(caps),
        "ue_eligible": tuple(eligible if eligible is not None else rsrp),
        "ue_rate_bps": rate,
    }


def _snapshot(cells, ues, epoch=0, tag="default"):
    """The steering context of ``_cell_state`` and ``_ue_state`` entries."""
    columns = {}
    for ue_id, row in ues:
        for name, val in row.items():
            columns.setdefault(name, {})[ue_id] = val
    return UtsContext(
        epoch_index=epoch,
        scenario_tag=tag,
        cell_load={cid: load for cid, load, _ in cells},
        cell_descriptors={cid: desc for cid, _, desc in cells},
        **columns,
    )


def two_cell_context(load_a=0.9, load_b=0.2, epoch=0, n_ues=3):
    """Hot cell / cold cell pair with mMTC-only UEs, so of the built-in
    features only load balancing has anything to say."""
    cells = [_cell_state("ca", load_a * 50), _cell_state("cb", load_b * 50)]
    ues = [
        _ue_state(f"u{i}", "ca", {"ca": -80.0, "cb": -90.0}, services=(TrafficClass.MMTC,))
        for i in range(n_ues)
    ]
    return _snapshot(cells, ues, epoch=epoch)


def test_context_uses_common_units_only():
    ctx = two_cell_context(load_a=0.5, load_b=1.4)
    assert ctx.cell_load["ca"].value == pytest.approx(0.5)
    assert ctx.cell_load["cb"].value == 1.0  # clamped, not raw PRBs
    # -90 dBm over the -140 dBm floor
    assert ctx.ue_signal["u0"]["cb"].value == pytest.approx(50.0)
    assert ctx.ue_serving["u0"] == "ca"
    assert ctx.cell_descriptors["ca"].coverage_class == "wide"


def test_signal_rows_convert_on_first_read_like_the_eager_dict():
    rsrp = {"cc": -101.5, "ca": -80.0, "cb": -90.0}  # not in cell-id order
    ctx = _snapshot([_cell_state("ca", 10.0)], [_ue_state("u0", "ca", rsrp)])
    row = ctx.ue_signal["u0"]
    eager = {cid: signal_db(v) for cid, v in sorted(rsrp.items())}
    assert list(row) == list(eager) == ["ca", "cb", "cc"]
    assert [row[cid] for cid in row] == list(eager.values())
    assert list(row.values()) == list(eager.values()) and row == eager
    assert len(row) == 3 and "cb" in row and "zz" not in row
    assert row.get("zz") is None and row.get("zz", 1.0) == 1.0
    assert row["cb"] is row["cb"]  # converted once, then kept
    with pytest.raises(KeyError):
        row["zz"]
    with pytest.raises(TypeError):
        row["ca"] = eager["ca"]  # read-only


def test_signal_rows_check_finiteness_when_a_value_is_read():
    rsrp = {"ca": -80.0, "cb": float("inf")}
    ctx = _snapshot([_cell_state("ca", 10.0)], [_ue_state("u0", "ca", rsrp)])
    assert ctx.ue_signal["u0"]["ca"].value == pytest.approx(60.0)
    with pytest.raises(ValueError, match="finite"):
        ctx.ue_signal["u0"]["cb"]


# ---------------------------------------------------------------------------
# feature evaluation
# ---------------------------------------------------------------------------

def _registry():
    return register_builtins(PluginRegistry())


def _strategy(**kw):
    defaults = dict(
        name="t",
        scenario_tag="any",
        ranking=(LOAD_BALANCE_ID, "carrier_aggregation", DUAL_CONN_ID),
        hysteresis_epochs=4,
        time_to_trigger_epochs=1,
    )
    defaults.update(kw)
    return MnoStrategy(**defaults)


def test_load_balance_feature_proposes_handover():
    ctx = two_cell_context(load_a=0.9, load_b=0.2)
    actions = evaluate_features(ctx, _registry(), _strategy())
    handovers = [a for a in actions if a.kind is ActionKind.HANDOVER]
    assert len(handovers) == 1
    assert handovers[0].ue_id == "u0" and handovers[0].targets == ("cb",)
    assert handovers[0].feature_id == LOAD_BALANCE_ID


def _load_balance_full_scan(ctx, record, thr):
    """The load-balance scan before it was indexed, as the oracle: every hot
    cell rescans every UE, and a passing signal is read twice."""

    def signal_ok(ue, cell):
        m = ctx.ue_signal.get(ue, {}).get(cell)
        return m is not None and m.value >= thr["min_signal_db"]

    actions = []
    for cell_id in sorted(ctx.cell_load):
        if ctx.cell_load[cell_id].value <= thr["high_load"]:
            continue
        best = None
        for ue in sorted(u for u, c in ctx.ue_serving.items() if c == cell_id):
            for target in sorted(ctx.ue_eligible.get(ue, ())):
                if target == cell_id or ctx.cell_load[target].value >= thr["low_load"]:
                    continue
                if not signal_ok(ue, target):
                    continue
                sig = ctx.ue_signal[ue][target].value
                key = (ctx.cell_load[target].value, -sig, ue, target)
                if best is None or key < best[0]:
                    best = (key, ue, target)
        if best is not None:
            actions.append(
                SteeringAction(ActionKind.HANDOVER, best[1], (best[2],), record.feature_id)
            )
    return actions


class _CountedRow(LazyRow):
    """A signal row that logs each lookup of a key as (ue, cell)."""

    def __init__(self, ue, rsrp, lookups):
        super().__init__(rsrp, lambda cid: signal_db(rsrp[cid]))
        self.ue, self.lookups = ue, lookups

    def __getitem__(self, key):
        self.lookups.append((self.ue, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups.append((self.ue, key))
        return super().get(key, default)


# loads and RSRPs from small sets, so loads and signals tie (a load of 0.5
# is both hot and a target when high_load is 0.45 and low_load 0.6); the
# RSRPs give signals of 10, 15, 20, 30 and 45 dB around the 20 dB floor
_LOADS = (0.0, 0.3, 0.45, 0.5, 0.6, 0.85, 1.0)
_RSRPS = (-130.0, -125.0, -120.0, -110.0, -95.0)


@st.composite
def _load_balance_inputs(draw):
    """Cells ``c0``.. with drawn loads plus ``hot`` at full load serving
    nobody; UEs ``u0``.. with drawn serving cells, RSRPs and eligible cells,
    plus ``u9``, eligible for no cell."""
    cells = [f"c{i}" for i in range(draw(st.integers(2, 6)))]
    loads = {cid: draw(st.sampled_from(_LOADS)) for cid in cells}
    loads["hot"] = 1.0
    ues = []
    for i in range(draw(st.integers(0, 8))):
        rsrp = {cid: draw(st.sampled_from(_RSRPS)) for cid in loads}
        eligible = draw(st.lists(st.sampled_from([*loads]), unique=True))
        ues.append((f"u{i}", draw(st.sampled_from(cells)), rsrp, eligible))
    ues.append(("u9", cells[0], {cid: -95.0 for cid in loads}, []))
    thr = {
        "high_load": draw(st.sampled_from([0.8, 0.45])),
        "low_load": draw(st.sampled_from([0.5, 0.6])),
        "min_signal_db": 20.0,
    }
    return loads, ues, thr


def _counted_context(loads, ues, lookups, offsets=None):
    """The context of ``_load_balance_inputs``, logging signal lookups in
    ``lookups``. With ``offsets`` (by (ue, cell), in units of the tolerance)
    it carries a signal estimate: each exact value plus its offset."""
    cells = [_cell_state(cid, load * 50) for cid, load in loads.items()]
    states, signal = [], {}
    for ue, serving, rsrp, eligible in ues:
        _, state = _ue_state(ue, serving, rsrp, eligible=eligible)
        state["ue_signal"] = _CountedRow(ue, rsrp, lookups)
        states.append((ue, state))
        signal[ue] = {cid: signal_db(v).value for cid, v in rsrp.items()}
    ctx = _snapshot(cells, states)
    if offsets is None:
        return ctx

    def estimate(ue_ids, cids):
        return np.array([
            [signal[u][c] + offsets[u, c] * SIGNAL_ESTIMATE_TOL_DB for c in cids] for u in ue_ids
        ]).reshape(len(ue_ids), len(cids))

    return dataclasses.replace(ctx, signal_estimate=estimate)


# offsets inside the tolerance, zero (so estimates tie as signals do) most often
_offset = st.one_of(st.just(0.0), st.floats(-0.99, 0.99))


@settings(max_examples=300)
@given(_load_balance_inputs(), st.data())
def test_load_balance_scan_equals_the_full_scan(inputs, data):
    loads, ues, thr = inputs
    record = builtin_features()[0][0]
    full = []
    expected = _load_balance_full_scan(_counted_context(loads, ues, full), record, thr)
    pairs = [(ue, cid) for ue, *_ in ues for cid in loads]
    offsets = dict(zip(pairs, data.draw(st.lists(_offset, min_size=len(pairs), max_size=len(pairs)))))
    for off in (None, offsets):
        lookups = []
        ctx = _counted_context(loads, ues, lookups, off)
        assert evaluate_load_balance(ctx, record, thr) == expected
        # each signal looked up once at most, and none of a target at or above low_load
        assert len(lookups) == len(set(lookups)) and set(lookups) <= set(full)
        assert all(ctx.cell_load[cid].value < thr["low_load"] for _, cid in lookups)


def test_thresholds_come_from_strategy_over_defaults():
    ctx = two_cell_context(load_a=0.7, load_b=0.2)
    none = evaluate_features(ctx, _registry(), _strategy())
    assert not any(a.kind is ActionKind.HANDOVER for a in none)  # 0.7 < default 0.8
    eager = _strategy(thresholds={LOAD_BALANCE_ID: {"high_load": 0.6}})
    some = evaluate_features(ctx, _registry(), eager)
    assert any(a.kind is ActionKind.HANDOVER for a in some)


def test_dual_connectivity_splits_by_capability():
    cells = [_cell_state("ca", 10.0), _cell_state("cb", 10.0)]
    ues = [
        _ue_state("u-dc", "ca", {"ca": -80.0, "cb": -85.0}, caps=("nr", "dual_connectivity")),
        _ue_state("u-plain", "ca", {"ca": -80.0, "cb": -85.0}),
    ]
    ctx = _snapshot(cells, ues)
    actions = evaluate_features(ctx, _registry(), _strategy())
    by_ue = {a.ue_id: a for a in actions if a.feature_id == DUAL_CONN_ID}
    assert by_ue["u-dc"].kind is ActionKind.CONFIGURE_DC
    assert by_ue["u-dc"].targets == ("ca", "cb")  # master stays the serving cell
    assert by_ue["u-plain"].kind is ActionKind.OFFLOAD
    assert by_ue["u-plain"].targets == ("cb",)


def test_feature_cannot_propose_undeclared_action_kind():
    reg = PluginRegistry()
    rec = FeatureRecord(
        feature_id="rogue",
        inputs=("cell_load",),
        outputs=(ActionKind.HANDOVER.value,),  # declares handover only
        location=PluginLocation.BELOW_UTS,
        interacts_with=("none",),
        scenarios=("any",),
    )
    reg.register(rec, lambda ctx, r, thr: [
        SteeringAction(ActionKind.OFFLOAD, "u0", ("cb",), "rogue")
    ])
    ctx = two_cell_context()
    with pytest.raises(UndeclaredActionError):
        evaluate_features(ctx, reg, _strategy(ranking=("rogue",)))


def test_feature_cannot_impersonate_another():
    reg = PluginRegistry()
    rec = FeatureRecord("honest", ("cell_load",), (ActionKind.HANDOVER.value,),
                        PluginLocation.BELOW_UTS, ("none",), ("any",))
    reg.register(rec, lambda ctx, r, thr: [
        SteeringAction(ActionKind.HANDOVER, "u0", ("cb",), "somebody_else")
    ])
    with pytest.raises(UndeclaredActionError):
        evaluate_features(two_cell_context(), reg, _strategy())


def test_scenario_scoping_filters_features():
    reg = PluginRegistry()
    rec = FeatureRecord("niche", ("cell_load",), (ActionKind.HANDOVER.value,),
                        PluginLocation.BELOW_UTS, ("none",), ("factory-floor",))
    calls = []
    reg.register(rec, lambda ctx, r, thr: calls.append(1) or [])
    evaluate_features(two_cell_context(), reg, _strategy())
    assert calls == []  # tag "default" not covered
    ctx = dataclasses.replace(two_cell_context(), scenario_tag="factory-floor")
    evaluate_features(ctx, reg, _strategy())
    assert calls == [1]


def test_evaluation_is_pure_and_repeatable():
    ctx = two_cell_context()
    reg, strat = _registry(), _strategy()
    assert evaluate_features(ctx, reg, strat) == evaluate_features(ctx, reg, strat)


# ---------------------------------------------------------------------------
# carrier aggregation and dual connectivity: the second-cell search
# ---------------------------------------------------------------------------

def _propose(feature_id, ctx, **thr):
    """``(kind, ue, targets)`` of each action the built-in feature proposes,
    under its default thresholds with ``thr`` over them."""
    rec, evaluator = next(f for f in builtin_features() if f[0].feature_id == feature_id)
    actions = evaluator(ctx, rec, {**DEFAULT_THRESHOLDS[feature_id], **thr})
    assert all(a.feature_id == feature_id for a in actions)
    return [(a.kind, a.ue_id, a.targets) for a in actions]


def test_second_cell_features_release_the_first_hot_secondary_and_nothing_else():
    # cb is cold, cc and cd are hot; ce would be a fine new secondary
    cells = [_cell_state("ca", 10.0), _cell_state("cb", 10.0), _cell_state("cc", 49.0),
             _cell_state("cd", 49.5), _cell_state("ce", 5.0)]
    sig = {"ca": -80.0, "cb": -80.0, "cc": -80.0, "cd": -80.0, "ce": -80.0}
    caps = ("nr", "dual_connectivity")
    ctx = _snapshot(cells, [
        _ue_state("u-hot", "ca", sig, secondary=("cb", "cc", "cd"), caps=caps),
        _ue_state("u-cold", "ca", sig, secondary=("cb",), caps=caps),
    ])
    # the first hot one in the UE's order, not the hottest
    assert _propose(CARRIER_AGG_ID, ctx) == [
        (ActionKind.RELEASE_SECONDARY_CELL, "u-hot", ("cc",))
    ]
    assert _propose(DUAL_CONN_ID, ctx) == [(ActionKind.RELEASE_LEG, "u-hot", ("cc",))]
    # a secondary at release_load exactly is kept
    assert _propose(CARRIER_AGG_ID, ctx, release_load=0.98) == [
        (ActionKind.RELEASE_SECONDARY_CELL, "u-hot", ("cd",))
    ]
    assert _propose(DUAL_CONN_ID, ctx, release_load=0.98) == [
        (ActionKind.RELEASE_LEG, "u-hot", ("cd",))
    ]
    assert _propose(CARRIER_AGG_ID, ctx, release_load=0.99) == []
    assert _propose(DUAL_CONN_ID, ctx, release_load=0.99) == []


def test_carrier_aggregation_skips_ues_at_the_target_rate():
    cells = [_cell_state("ca", 10.0), _cell_state("cb", 10.0)]
    sig = {"ca": -80.0, "cb": -85.0}
    ctx = _snapshot(cells, [
        _ue_state("u-at", "ca", sig, rate=10e6),
        _ue_state("u-over", "ca", sig, rate=20e6),
        _ue_state("u-under", "ca", sig, rate=10e6 - 1.0),
        _ue_state("u-urllc", "ca", sig, services=(TrafficClass.URLLC,)),
    ])
    assert _propose(CARRIER_AGG_ID, ctx) == [
        (ActionKind.ADD_SECONDARY_CELL, "u-under", ("cb",))
    ]
    assert _propose(CARRIER_AGG_ID, ctx, target_rate_bps=30e6) == [
        (ActionKind.ADD_SECONDARY_CELL, u, ("cb",)) for u in ("u-at", "u-over", "u-under")
    ]


@pytest.mark.parametrize("feature_id", [CARRIER_AGG_ID, DUAL_CONN_ID])
def test_second_cell_search_skips_unfit_candidates(feature_id):
    thr = DEFAULT_THRESHOLDS[feature_id]
    floor_rsrp = thr["min_signal_db"] - 140.0  # signal is dB above -140 dBm
    max_load = thr["max_secondary_load"]
    cells = [
        _cell_state("ca", 10.0),
        _cell_state("c-noattach", 5.0, supports_secondary=False),
        _cell_state("c-full", max_load * 50),
        _cell_state("c-weak", 5.0),
        _cell_state("c-edge", 20.0),
    ]
    sig = {"ca": -80.0, "c-noattach": -80.0, "c-full": -80.0,
           "c-weak": floor_rsrp - 0.5, "c-edge": floor_rsrp}
    ctx = _snapshot(cells, [_ue_state("u1", "ca", sig)])
    kind = ActionKind.ADD_SECONDARY_CELL if feature_id == CARRIER_AGG_ID else ActionKind.OFFLOAD
    # the loaded, barely strong enough cell is the only fit one
    assert _propose(feature_id, ctx) == [(kind, "u1", ("c-edge",))]
    unfit = dataclasses.replace(ctx, ue_eligible={"u1": ("ca", "c-noattach", "c-full", "c-weak")})
    assert _propose(feature_id, unfit) == []
    # each threshold, loosened, lets its cell through
    assert _propose(feature_id, unfit, max_secondary_load=max_load + 0.01) == [
        (kind, "u1", ("c-full",))
    ]
    assert _propose(feature_id, unfit, min_signal_db=thr["min_signal_db"] - 1.0) == [
        (kind, "u1", ("c-weak",))
    ]


def test_dual_connectivity_needs_duplication_on_both_cells_for_urllc():
    cells = [
        _cell_state("ca", 10.0),
        _cell_state("c-nodup", 5.0, supports_duplication=False),
        _cell_state("c-dup", 10.0),
        _cell_state("cx", 10.0, supports_duplication=False),
    ]
    sig = {"ca": -80.0, "c-nodup": -80.0, "c-dup": -80.0, "cx": -80.0}
    caps = ("nr", "dual_connectivity")
    ctx = _snapshot(cells, [
        _ue_state("u-urllc", "ca", sig, services=(TrafficClass.URLLC,), caps=caps),
        _ue_state("u-embb", "ca", sig, caps=caps),
        _ue_state("u-mixed", "ca", sig, services=(TrafficClass.EMBB, TrafficClass.URLLC)),
        _ue_state("u-stuck", "cx", sig, services=(TrafficClass.URLLC,), caps=caps),
        _ue_state("u-mmtc", "ca", sig, services=(TrafficClass.MMTC,), caps=caps),
    ])
    assert _propose(DUAL_CONN_ID, ctx) == [
        (ActionKind.CONFIGURE_DC, "u-embb", ("ca", "c-nodup")),
        (ActionKind.OFFLOAD, "u-mixed", ("c-dup",)),
        (ActionKind.CONFIGURE_DC, "u-urllc", ("ca", "c-dup")),
    ]


@pytest.mark.parametrize("feature_id", [CARRIER_AGG_ID, DUAL_CONN_ID])
def test_second_cell_search_breaks_ties_by_load_then_signal_then_cell(feature_id):
    cells = [_cell_state(c, load) for c, load in
             (("ca", 10.0), ("cb", 5.0), ("cc", 5.0), ("cd", 5.0), ("ce", 4.0))]
    caps = ("nr", "dual_connectivity")
    rsrp = {"ca": -80.0, "cb": -85.0, "cc": -85.0, "cd": -84.0, "ce": -100.0}
    ctx = _snapshot(cells, [_ue_state("u1", "ca", rsrp, caps=caps)])
    kind, pre = ((ActionKind.ADD_SECONDARY_CELL, ()) if feature_id == CARRIER_AGG_ID
                 else (ActionKind.CONFIGURE_DC, ("ca",)))
    assert _propose(feature_id, ctx) == [(kind, "u1", (*pre, "ce"))]  # least loaded
    no_ce = dataclasses.replace(ctx, ue_eligible={"u1": ("ca", "cb", "cc", "cd")})
    assert _propose(feature_id, no_ce) == [(kind, "u1", (*pre, "cd"))]  # strongest
    tie = dataclasses.replace(ctx, ue_eligible={"u1": ("cc", "ca", "cb")})
    assert _propose(feature_id, tie) == [(kind, "u1", (*pre, "cb"))]  # lowest id


# ---------------------------------------------------------------------------
# conflict resolution
# ---------------------------------------------------------------------------

def _act(kind, ue, targets, fid):
    return SteeringAction(kind, ue, tuple(targets), fid)


def test_resolution_keeps_one_action_per_ue_by_ranking():
    cands = [
        _act(ActionKind.CONFIGURE_DC, "u1", ("ca", "cb"), DUAL_CONN_ID),
        _act(ActionKind.HANDOVER, "u1", ("cb",), LOAD_BALANCE_ID),
        _act(ActionKind.HANDOVER, "u2", ("cb",), LOAD_BALANCE_ID),
    ]
    out = resolve_conflicts(cands, _strategy(), history=[], epoch_index=0)
    assert [(a.ue_id, a.kind) for a in out] == [
        ("u1", ActionKind.HANDOVER),  # load balance outranks DC in this strategy
        ("u2", ActionKind.HANDOVER),
    ]
    flipped = _strategy(ranking=(DUAL_CONN_ID, LOAD_BALANCE_ID, "carrier_aggregation"))
    out = resolve_conflicts(cands, flipped, history=[], epoch_index=0)
    assert out[0].kind is ActionKind.CONFIGURE_DC


def test_resolution_rejects_unranked_features():
    cands = [_act(ActionKind.HANDOVER, "u1", ("cb",), "mystery")]
    with pytest.raises(UnrankedFeatureError):
        resolve_conflicts(cands, _strategy(), history=[], epoch_index=0)


def test_resolution_suppresses_reversals_inside_hysteresis():
    applied = HistoryEntry(
        epoch_index=10,
        action=_act(ActionKind.HANDOVER, "u1", ("cb",), LOAD_BALANCE_ID),
        prev_serving="ca",
    )
    back = _act(ActionKind.HANDOVER, "u1", ("ca",), LOAD_BALANCE_ID)
    strat = _strategy(hysteresis_epochs=4)
    assert resolve_conflicts([back], strat, [applied], epoch_index=12) == []
    # outside the window the reversal is allowed again
    assert resolve_conflicts([back], strat, [applied], epoch_index=15) == [back]
    # an unrelated move is never suppressed
    elsewhere = _act(ActionKind.HANDOVER, "u1", ("cc",), LOAD_BALANCE_ID)
    assert resolve_conflicts([elsewhere], strat, [applied], epoch_index=12) == [elsewhere]


def test_resolution_window_over_long_history_matches_a_full_scan():
    # 10,000 entries over 2,500 epochs, appended in epoch order as the
    # controller does; each UE was handed over from cells c0..c6 in turn
    n_ues, hyst = 50, 30
    history = [
        HistoryEntry(
            i // 4,
            SteeringAction(ActionKind.HANDOVER, f"u{i % n_ues}", ("cx",), LOAD_BALANCE_ID),
            prev_serving=f"c{(i // n_ues) % 7}",
        )
        for i in range(10_000)
    ]
    cands = [
        SteeringAction(ActionKind.HANDOVER, f"u{j}", (f"c{j % 7}",), LOAD_BALANCE_ID)
        for j in range(n_ues)
    ]
    strat = _strategy(hysteresis_epochs=hyst)
    # windows at the start, the middle and the end of history, and past it;
    # the middle also as the controller holds history at that epoch
    cases = [
        (hyst, history),
        (1_250, history),
        (1_250, history[: 4 * 1_251]),
        (2_499, history),
        (2_499 + hyst, history),
    ]
    kept = []
    for epoch, hist in cases:
        window_start = epoch - hyst
        recent = [h for h in hist if h.epoch_index > window_start]
        expected = sorted(
            (c for c in cands if not any(_reverses(c, h) for h in recent)),
            key=lambda c: c.ue_id,
        )
        out = resolve_conflicts(cands, strat, hist, epoch_index=epoch)
        assert out == expected, (epoch, len(hist))
        kept.append(len(out))
    assert kept[0] == kept[1] == 0 and 0 < kept[2] < n_ues and 0 < kept[3] < n_ues
    assert kept[4] == n_ues


def test_resolution_suppresses_leg_flapping():
    grew = HistoryEntry(
        epoch_index=5, action=_act(ActionKind.CONFIGURE_DC, "u1", ("ca", "cb"), DUAL_CONN_ID)
    )
    drop = _act(ActionKind.RELEASE_LEG, "u1", ("cb",), DUAL_CONN_ID)
    strat = _strategy(hysteresis_epochs=6)
    assert resolve_conflicts([drop], strat, [grew], epoch_index=8) == []
    assert resolve_conflicts([drop], strat, [grew], epoch_index=20) == [drop]


def test_resolution_output_is_sorted_and_deterministic():
    cands = [
        _act(ActionKind.HANDOVER, "u2", ("cb",), LOAD_BALANCE_ID),
        _act(ActionKind.HANDOVER, "u1", ("cb",), LOAD_BALANCE_ID),
    ]
    out = resolve_conflicts(cands, _strategy(), [], 0)
    assert [a.ue_id for a in out] == ["u1", "u2"]


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

class FakeNetwork:
    """Minimal steerable network: serving/secondary maps plus a mutation log."""

    def __init__(self, cells, serving, eligible=None):
        self.cells = set(cells)
        self.serving = dict(serving)
        self.secondary = {u: [] for u in serving}
        self.eligible = eligible or {u: set(cells) for u in serving}
        self.log = []

    def context(self, epoch=0):
        """The steering context of the fake's current state."""
        cells = [_cell_state(c, 10.0) for c in sorted(self.cells)]
        ues = [
            _ue_state(u, self.serving[u], {c: -80.0 for c in sorted(self.cells)},
                      secondary=self.secondary[u], eligible=sorted(self.eligible[u]))
            for u in sorted(self.serving)
        ]
        return _snapshot(cells, ues, epoch=epoch)

    def apply_handover(self, ue_id, target):
        self.serving[ue_id] = target
        self.log.append(("handover", ue_id, target))

    apply_offload = apply_handover

    def apply_add_secondary(self, ue_id, target):
        self.secondary[ue_id].append(target)
        self.log.append(("add_secondary", ue_id, target))

    def apply_release_secondary(self, ue_id, target):
        self.secondary[ue_id].remove(target)
        self.log.append(("release_secondary", ue_id, target))

    def apply_configure_dc(self, ue_id, master, second):
        self.secondary[ue_id].append(second)
        self.log.append(("configure_dc", ue_id, master, second))


def test_apply_handover_records_history_and_leg_events():
    net = FakeNetwork({"ca", "cb"}, {"u1": "ca"})
    act = _act(ActionKind.HANDOVER, "u1", ("cb",), LOAD_BALANCE_ID)
    hist, events = apply_actions(net.context(epoch=1), net, [act], slot=100)
    assert net.serving["u1"] == "cb"
    assert [h.prev_serving for h in hist] == ["ca"]
    assert [h.epoch_index for h in hist] == [1]
    assert [e.kind for e in events] == ["release_leg", "add_leg"]
    assert events[1].get("cell") == "cb"


def test_release_leg_action_releases_the_secondary_cell():
    net = FakeNetwork({"ca", "cb"}, {"u1": "ca"})
    net.secondary["u1"] = ["cb"]
    act = _act(ActionKind.RELEASE_LEG, "u1", ("cb",), DUAL_CONN_ID)
    hist, events = apply_actions(net.context(), net, [act], slot=0)
    assert net.log == [("release_secondary", "u1", "cb")]
    assert net.secondary["u1"] == [] and [h.action for h in hist] == [act]
    assert [(e.kind, e.get("cell"), e.get("action")) for e in events] == [
        ("release_leg", "cb", "release_leg")
    ]


def test_apply_skips_invalid_actions_without_mutating():
    net = FakeNetwork({"ca", "cb"}, {"u1": "ca"})
    bad = [
        _act(ActionKind.HANDOVER, "ghost", ("cb",), LOAD_BALANCE_ID),
        _act(ActionKind.HANDOVER, "u1", ("nowhere",), LOAD_BALANCE_ID),
        _act(ActionKind.HANDOVER, "u1", ("ca",), LOAD_BALANCE_ID),  # already serving
        _act(ActionKind.RELEASE_LEG, "u1", ("cb",), DUAL_CONN_ID),  # not attached
    ]
    hist, events = apply_actions(net.context(), net, bad, slot=0)
    assert hist == []
    assert net.log == []
    assert [e.kind for e in events] == ["steer_error"] * 4
    reasons = [e.get("reason") for e in events]
    assert reasons == ["unknown_ue", "unknown_target", "already_serving", "not_attached"]


def test_apply_refuses_a_second_leg_on_a_cell_already_held():
    net = FakeNetwork({"ca", "cb", "cc"}, {"u1": "ca"})
    net.secondary["u1"] = ["cb"]
    held = [
        _act(ActionKind.OFFLOAD, "u1", ("cb",), DUAL_CONN_ID),
        _act(ActionKind.ADD_SECONDARY_CELL, "u1", ("cb",), "carrier_aggregation"),
        _act(ActionKind.ADD_SECONDARY_CELL, "u1", ("ca",), "carrier_aggregation"),
        _act(ActionKind.CONFIGURE_DC, "u1", ("ca", "cb"), DUAL_CONN_ID),
    ]
    for act in held:
        hist, events = apply_actions(net.context(), net, [act], slot=0)
        assert hist == [] and events[0].get("reason") == "already_attached"
    assert net.log == []
    free = _act(ActionKind.OFFLOAD, "u1", ("cc",), DUAL_CONN_ID)
    hist, _ = apply_actions(net.context(), net, [free], slot=0)
    assert [h.action for h in hist] == [free] and net.log == [("handover", "u1", "cc")]


def test_apply_configure_dc_requires_master_to_serve():
    net = FakeNetwork({"ca", "cb"}, {"u1": "ca"})
    wrong = _act(ActionKind.CONFIGURE_DC, "u1", ("cb", "ca"), DUAL_CONN_ID)
    hist, events = apply_actions(net.context(), net, [wrong], slot=0)
    assert hist == [] and events[0].get("reason") == "master_not_serving"
    right = _act(ActionKind.CONFIGURE_DC, "u1", ("ca", "cb"), DUAL_CONN_ID)
    hist, events = apply_actions(net.context(), net, [right], slot=0)
    assert net.secondary["u1"] == ["cb"]
    assert [e.kind for e in events] == ["reconfigure", "add_leg"]


def test_apply_respects_eligibility():
    net = FakeNetwork({"ca", "cb"}, {"u1": "ca"}, eligible={"u1": {"ca"}})
    act = _act(ActionKind.HANDOVER, "u1", ("cb",), LOAD_BALANCE_ID)
    hist, events = apply_actions(net.context(), net, [act], slot=0)
    assert hist == [] and events[0].get("reason") == "not_eligible"


@pytest.mark.parametrize("kind", list(ActionKind))
def test_each_kind_takes_one_target_and_configure_dc_two(kind):
    want = 2 if kind is ActionKind.CONFIGURE_DC else 1
    ok = ("ca", "cb")[:want]
    assert SteeringAction(kind, "u1", ok, "f").targets == ok
    for n in {0, 1, 2, 3} - {want}:
        with pytest.raises(ValueError, match=f"{kind.value} takes {want} target"):
            SteeringAction(kind, "u1", ("ca", "cb", "cc")[:n], "f")


def _apply_per_kind(ctx, network, actions, slot):
    """The apply path with each kind's checks written out in its own branch,
    as it stood before one function stated the refusal rules: the oracle of
    ``apply_actions``."""
    applied, events = [], []

    def err(action, reason):
        events.append(Event.make(slot, "uts", "steer_error", ue=action.ue_id,
                                 action=action.kind.value,
                                 targets="|".join(action.targets), reason=reason))

    def leg_event(kind, action, cell):
        events.append(Event.make(slot, "uts", kind, ue=action.ue_id, cell=cell,
                                 action=action.kind.value, feature=action.feature_id))

    for action in actions:
        ue = action.ue_id
        if ue not in ctx.ue_serving:
            err(action, "unknown_ue")
            continue
        if any(t not in ctx.cell_descriptors for t in action.targets):
            err(action, "unknown_target")
            continue
        k, target = action.kind, action.targets[0]
        serving, secondary = ctx.ue_serving[ue], ctx.ue_secondary[ue]
        moves = k in (ActionKind.HANDOVER, ActionKind.OFFLOAD)
        if moves:
            if target == serving:
                err(action, "already_serving")
                continue
            if k is ActionKind.OFFLOAD and target in secondary:
                err(action, "already_attached")
                continue
            if target not in ctx.ue_eligible[ue]:
                err(action, "not_eligible")
                continue
            move = network.apply_handover if k is ActionKind.HANDOVER else network.apply_offload
            move(ue, target)
            leg_event("release_leg", action, serving)
            leg_event("add_leg", action, target)
        elif k is ActionKind.ADD_SECONDARY_CELL:
            if target == serving or target in secondary:
                err(action, "already_attached")
                continue
            if target not in ctx.ue_eligible[ue]:
                err(action, "not_eligible")
                continue
            network.apply_add_secondary(ue, target)
            leg_event("add_leg", action, target)
        elif k in (ActionKind.RELEASE_SECONDARY_CELL, ActionKind.RELEASE_LEG):
            if target not in secondary:
                err(action, "not_attached")
                continue
            network.apply_release_secondary(ue, target)
            leg_event("release_leg", action, target)
        else:  # configure_dc
            master, second = target, action.targets[-1]
            if master != serving:
                err(action, "master_not_serving")
                continue
            if second == serving or second in secondary:
                err(action, "already_attached")
                continue
            if second not in ctx.ue_eligible[ue]:
                err(action, "not_eligible")
                continue
            network.apply_configure_dc(ue, master, second)
            leg_event("reconfigure", action, master)
            leg_event("add_leg", action, second)
        applied.append(HistoryEntry(ctx.epoch_index, action, serving if moves else None))
    return applied, events


def _reverses_per_kind(candidate, entry):
    """Reversal with each kind's rule written out: the oracle of ``_reverses``."""
    if entry.action.ue_id != candidate.ue_id:
        return False
    k, pk = candidate.kind, entry.action.kind
    moves = (ActionKind.HANDOVER, ActionKind.OFFLOAD)
    releases = (ActionKind.RELEASE_SECONDARY_CELL, ActionKind.RELEASE_LEG)
    if k in moves:
        return pk in moves and entry.prev_serving is not None and (
            candidate.targets[-1] == entry.prev_serving
        )
    if k is ActionKind.ADD_SECONDARY_CELL:
        return pk in releases and candidate.targets[0] in entry.action.targets
    if k is ActionKind.CONFIGURE_DC:
        return pk in releases and candidate.targets[-1] in entry.action.targets
    return pk in (ActionKind.ADD_SECONDARY_CELL, ActionKind.CONFIGURE_DC) and (
        candidate.targets[0] in entry.action.targets
    )


@st.composite
def _steering_cases(draw):
    """1-4 cells, up to three UEs with random serving cells, secondaries and
    eligibility, and at most one action per UE (plus one for an unknown UE)
    of any kind, on cells known or not; and earlier history entries."""
    cells = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    ues = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    state = {
        ue: (
            draw(st.sampled_from(cells)),
            draw(st.lists(st.sampled_from(cells), unique=True)),
            set(draw(st.lists(st.sampled_from(cells), unique=True))),
        )
        for ue in ues
    }
    names = st.sampled_from(cells + ["nowhere"])

    def action(ue):
        kind = draw(st.sampled_from(list(ActionKind)))
        first = names
        if kind is ActionKind.CONFIGURE_DC and ue in state:  # often the serving cell
            first = st.sampled_from([state[ue][0], state[ue][0], *cells, "nowhere"])
        targets = (draw(first),) + (
            (draw(names),) if kind is ActionKind.CONFIGURE_DC else ()
        )
        return SteeringAction(kind, ue, targets, draw(st.sampled_from(["fa", "fb"])))

    actions = [action(ue) for ue in ues + ["ghost"] if draw(st.booleans())]
    history = [
        HistoryEntry(draw(st.integers(0, 3)), action(draw(st.sampled_from(ues))),
                     draw(st.one_of(st.none(), names)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return cells, state, actions, history


@settings(max_examples=500)
@given(_steering_cases())
def test_apply_and_reversal_match_the_per_kind_rules(case):
    cells, state, actions, history = case
    nets = []
    for _ in range(2):
        net = FakeNetwork(set(cells), {u: s[0] for u, s in state.items()},
                          eligible={u: s[2] for u, s in state.items()})
        for u, s in state.items():
            net.secondary[u] = list(s[1])
        nets.append(net)
    got = apply_actions(nets[0].context(epoch=3), nets[0], actions, slot=300)
    want = _apply_per_kind(nets[1].context(epoch=3), nets[1], actions, slot=300)
    assert got == want
    assert nets[0].log == nets[1].log
    for entry in history + got[0]:
        for cand in actions:
            assert _reverses(cand, entry) == _reverses_per_kind(cand, entry), (cand, entry)


# ---------------------------------------------------------------------------
# closed-loop controller
# ---------------------------------------------------------------------------

def test_padded_targets_cannot_slip_a_return_past_hysteresis():
    """A handover whose targets are padded with a second cell is refused
    when it is built: apply and reversal read one cell of it, so a padded
    return cannot land on the cell it left while the test looks at another.
    Unpadded, the return is suppressed inside the hysteresis window."""
    plan = {}
    rec = FeatureRecord("pad", ("ue_serving",), ("handover",), PluginLocation.BELOW_UTS,
                        ("none",), ("any",))
    registry = PluginRegistry().register(rec, lambda ctx, r, thr: [
        SteeringAction(ActionKind.HANDOVER, "u1", plan[ctx.epoch_index], r.feature_id)
    ])
    strat = _strategy(ranking=("pad",), time_to_trigger_epochs=1, hysteresis_epochs=4)
    ctrl = UtsController(registry, strat)
    net = FakeNetwork({"ca", "cb", "cc"}, {"u1": "ca"})
    plan.update({0: ("cb", "cc"), 1: ("ca", "cc")})
    with pytest.raises(ValueError, match="handover takes 1 target"):
        ctrl.step(net.context(epoch=0), net, slot=0)
    assert net.log == [] and ctrl.history == []
    plan.update({0: ("cb",), 1: ("ca",)})
    for epoch in (0, 1):
        ctrl.step(net.context(epoch=epoch), net, slot=epoch * 100)
    assert net.log == [("handover", "u1", "cb")] and net.serving["u1"] == "cb"

def test_controller_waits_for_time_to_trigger():
    reg = _registry()
    strat = _strategy(time_to_trigger_epochs=2)
    ctrl = UtsController(reg, strat)
    net = FakeNetwork({"ca", "cb"}, {f"u{i}": "ca" for i in range(3)})
    applied, _ = ctrl.step(two_cell_context(epoch=0), net, slot=0)
    assert applied == []  # first sighting is not enough
    applied, _ = ctrl.step(two_cell_context(epoch=1), net, slot=100)
    assert [a.action.kind for a in applied] == [ActionKind.HANDOVER]
    assert ctrl.history == applied


def test_controller_streak_resets_on_gap():
    reg = _registry()
    ctrl = UtsController(reg, _strategy(time_to_trigger_epochs=2))
    net = FakeNetwork({"ca", "cb"}, {f"u{i}": "ca" for i in range(3)})
    ctrl.step(two_cell_context(epoch=0), net, slot=0)
    # epoch 1: condition clears, streak dies
    ctrl.step(two_cell_context(load_a=0.1, epoch=1), net, slot=100)
    applied, _ = ctrl.step(two_cell_context(epoch=2), net, slot=200)
    assert applied == []  # must re-earn the trigger


def test_controller_never_reverses_within_hysteresis():
    """Drive an oscillating load pattern; the history gate must hold the line."""
    reg = _registry()
    strat = _strategy(time_to_trigger_epochs=1, hysteresis_epochs=8)
    ctrl = UtsController(reg, strat)
    net = FakeNetwork({"ca", "cb"}, {"u0": "ca", "u1": "ca", "u2": "ca"})
    moves = []
    for epoch in range(12):
        hot, cold = ("ca", "cb") if epoch % 2 == 0 else ("cb", "ca")
        cells = [_cell_state(hot, 45.0), _cell_state(cold, 5.0)]
        ues = [
            _ue_state(u, net.serving[u], {"ca": -80.0, "cb": -82.0})
            for u in sorted(net.serving)
        ]
        applied, _ = ctrl.step(_snapshot(cells, ues, epoch=epoch), net, slot=epoch * 100)
        moves.extend(
            (epoch, h.action.ue_id, h.action.targets[-1], h.prev_serving)
            for h in applied
            if h.action.kind in (ActionKind.HANDOVER, ActionKind.OFFLOAD)
        )
    assert moves  # the oscillation must generate some serving changes
    # no UE ever moves back to a cell it left within the previous 8 epochs
    for i, (ep, ue, tgt, prev) in enumerate(moves):
        for ep2, ue2, tgt2, prev2 in moves[:i]:
            if ue2 == ue and ep - ep2 <= 8:
                assert tgt != prev2, f"ping-pong: {ue} returned to {tgt} at epoch {ep}"
