"""Each config rule is stated once, on the type that holds the value: a
config built or changed in Python is refused for the same field and reason
that ``scenario_from_dict`` reports at the value's YAML path."""

import dataclasses
import re

import pytest

from rrmsim.core import TrafficClass
from rrmsim.scenario import (
    ValidationError, build_domain, load_scenario, scenario_from_dict, scenario_to_dict,
)
from rrmsim.traffic import GENERATOR_KINDS, FullBuffer
from rrmsim.uts import LOAD_BALANCE_ID

from conftest import SCENARIO_DIR

BASE = load_scenario(SCENARIO_DIR / "single_cell.yaml")
KIND = {cls: kind for kind, cls in GENERATOR_KINDS.items()}
FLOW = {KIND[type(f.generator)]: i for i, f in enumerate(BASE.flows)}  # one flow of each kind
PORTION = BASE.cells[0].portions[0]


def case(id, obj, field, value, path, yaml_value=None, whole=False):
    """``obj`` with ``field`` set to ``value`` is refused by one rule, on that
    field or (``whole``) over the whole value; YAML ``path`` set to
    ``yaml_value`` (``value`` by default) is refused for the same reason at
    that path, or at its parent for a rule over the whole value."""
    yaml_value = value if yaml_value is None else yaml_value
    return pytest.param(obj, field, value, path, yaml_value, whole, id=id)


def gen_case(kind, field, value):
    path = f"traffic.flows[{FLOW[kind]}].generator.{field}"
    return case(f"{kind}.{field}", BASE.flows[FLOW[kind]].generator, field, value, path)


URLLC = FLOW["periodic_deadline"]
THREE = tuple(dataclasses.replace(PORTION, key=k) for k in "abc")
POISSON = FLOW["poisson_sporadic"]
NAN, INF = float("nan"), float("inf")

CASES = [
    # these five used to construct; the run then divided by zero, delivered
    # almost nothing, or ran without complaint
    case("uts.epoch_slots", BASE.uts, "epoch_slots", 0, "uts.epoch_slots"),
    case("cell.drop_prob", BASE.cells[0], "drop_prob", 1.0, "network.cells[0].drop_prob"),
    case("pdcp.t_reorder_slots", BASE.pdcp, "t_reorder_slots", 0, "pdcp.t_reorder_slots"),
    case("channel.min_distance_m", BASE.channel, "min_distance_m", 0.0, "channel.min_distance_m"),
    case("sim.horizon_slots", BASE.sim, "horizon_slots", 0, "sim.horizon_slots"),
    case("sim.seed", BASE.sim, "seed", -1, "sim.seed"),
    case("channel.fading_scale", BASE.channel, "fading_scale", -0.5, "channel.fading_scale"),
    case("mac.access_cost_prbs", BASE.mac, "access_cost_prbs", 0, "mac.access_cost_prbs"),
    case("mac.backoff_window", BASE.mac, "backoff_min_epochs", 9, "mac.backoff_min_epochs",
         whole=True),
    case("portion.waveform_efficiency", PORTION, "waveform_efficiency", 0.0,
         "network.cells[0].portions[0].waveform_efficiency"),
    case("cell.portion_keys", BASE.cells[0], "portions", (PORTION, PORTION),
         "network.cells[0].portions", [{"key": PORTION.key}] * 2),
    case("cell.three_portions", BASE.cells[0], "portions", THREE, "network.cells[0].portions",
         [{"key": p.key} for p in THREE]),
    case("flow.sps_prbs", BASE.flows[0], "sps_prbs", 0, "traffic.flows[0].sps_prbs"),
    case("flow.slice", BASE.flows[0], "slice_id", "rach", "traffic.flows[0].slice"),
    case("flow.urllc_shape", BASE.flows[URLLC], "generator", FullBuffer(),
         f"traffic.flows[{URLLC}].generator", {"kind": "full_buffer"}, whole=True),
    case("pdcp.loads", BASE.pdcp, "enter_load", 0.95, "pdcp.enter_load", whole=True),
    case("uts.hysteresis", BASE.uts, "hysteresis_epochs", -1, "uts.hysteresis_epochs"),
    case("uts.time_to_trigger", BASE.uts, "time_to_trigger_epochs", 0,
         "uts.time_to_trigger_epochs"),
    # these two used to construct; the World then raised KeyError, or ran
    # without complaint
    case("uts.features", BASE.uts, "features", ("bogus",), "uts.features", ["bogus"]),
    case("uts.ranking", BASE.uts, "ranking", (LOAD_BALANCE_ID,), "uts.ranking",
         [LOAD_BALANCE_ID]),
    # this one used to construct; the feature then ignored the key
    case("uts.thresholds", BASE.uts, "thresholds", {LOAD_BALANCE_ID: {"high_lod": 0.6}},
         "uts.thresholds"),
    gen_case("full_buffer", "packet_bits", 0),
    gen_case("full_buffer", "watermark_bits", 2**53),
    gen_case("poisson_sporadic", "rate_per_slot", -1.0),
    gen_case("periodic_deadline", "period_slots", 0),
    gen_case("periodic_deadline", "offset_slots", -3),
    # these two used to construct: every delivery then missed its deadline,
    # or the World refused the carrier without naming the cell
    gen_case("periodic_deadline", "deadline_slots", -3),
    case("cell.carrier_hz", BASE.cells[0], "carrier_hz", 1.0, "network.cells[0].carrier_hz"),
    # a number that is not finite: these used to construct, and the run then
    # delivered nothing, ran on with it, or failed inside the World naming no
    # field; an infinite PRB bandwidth failed building the ScenarioConfig
    case("channel.noise_psd_dbm_hz", BASE.channel, "noise_psd_dbm_hz", NAN,
         "channel.noise_psd_dbm_hz"),
    case("channel.interference_margin_db", BASE.channel, "interference_margin_db", NAN,
         "channel.interference_margin_db"),
    case("channel.fading_scale_inf", BASE.channel, "fading_scale", INF, "channel.fading_scale"),
    case("channel.min_distance_m_inf", BASE.channel, "min_distance_m", INF,
         "channel.min_distance_m"),
    case("mac.pf_initial_avg_bits", BASE.mac, "pf_initial_avg_bits", INF,
         "mac.pf_initial_avg_bits"),
    case("ue.position", BASE.ues[0], "position", (NAN, 0.0), "ues[0].position", [NAN, 0.0]),
    case("ue.velocity", BASE.ues[0], "velocity", (INF, 0.0), "ues[0].velocity", [INF, 0.0]),
    case("cell.position", BASE.cells[0], "position", (0.0, -INF), "network.cells[0].position",
         [0.0, -INF]),
    case("cell.tx_power_dbm_nan", BASE.cells[0], "tx_power_dbm", NAN,
         "network.cells[0].tx_power_dbm"),
    case("cell.tx_power_dbm_inf", BASE.cells[0], "tx_power_dbm", INF,
         "network.cells[0].tx_power_dbm"),
    case("cell.prb_bandwidth_hz", BASE.cells[0], "prb_bandwidth_hz", INF,
         "network.cells[0].prb_bandwidth_hz"),
    case("poisson_sporadic.rate_per_slot_inf", BASE.flows[POISSON].generator, "rate_per_slot",
         INF, f"traffic.flows[{POISSON}].generator.rate_per_slot"),
]


@pytest.mark.parametrize("obj, field, value, path, yaml_value, whole", CASES)
def test_a_config_built_in_python_meets_the_yaml_rules(obj, field, value, path, yaml_value, whole):
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(obj, **{field: value})
    [(refused, reason)] = e.value.failures
    assert refused == ("" if whole else field) and reason

    data = scenario_to_dict(BASE)
    *parents, key = re.findall(r"[^.\[\]]+", path)
    node = data
    for part in parents:
        node = node[int(part)] if part.isdigit() else node[part]
    node[key] = yaml_value
    with pytest.raises(ValidationError) as e:
        scenario_from_dict(data)
    where = path.rsplit(".", 1)[0] if whole else path
    assert (where, reason) in e.value.failures, e.value.failures


def test_a_number_that_is_not_finite_is_shown_as_it_was_given():
    # a pair in list form, as a file writes it; each field refused by its rule
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(BASE.ues[0], position=(30.0, -INF), velocity=(NAN, 1.0))
    assert e.value.failures == [("position", "must be finite, got [30.0, -inf]"),
                                ("velocity", "must be finite, got [nan, 1.0]")]
    dataclasses.replace(BASE.cells[0], tx_power_dbm=None)  # None takes the class default


def test_the_domain_cell_and_grid_refuse_what_their_config_refuses():
    cell = build_domain(BASE.cells[0])
    for obj, field, value in [(cell, "tx_power_dbm", INF), (cell.grid, "prb_bandwidth_hz", INF)]:
        with pytest.raises(ValidationError) as e:
            dataclasses.replace(obj, **{field: value})
        assert e.value.failures == [(field, "must be finite, got inf")]


def test_a_refusal_is_a_value_error_that_shows_the_value_only_where_asked():
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(BASE.sim, horizon_slots=0, seed=-2)
    assert isinstance(e.value, ValueError)
    assert e.value.failures == [
        ("horizon_slots", "must be >= 1, got 0"), ("seed", "must be >= 0, got -2")
    ]
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(BASE.uts, epoch_slots=0)
    assert e.value.failures == [("epoch_slots", "must be >= 1")]


@pytest.mark.parametrize("thresholds", [
    {LOAD_BALANCE_ID: {"high_load": float("nan")}},
    {LOAD_BALANCE_ID: {"high_load": "0.6"}},
    {"{plugin}": {"{knob}": float("inf")}},
], ids=["nan", "text", "braces"])
def test_steering_thresholds_are_checked_where_they_are_built(thresholds):
    # a nan high_load used to construct and run with load balancing silently off
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(BASE.uts, features=(LOAD_BALANCE_ID,), thresholds=thresholds)
    [(feature, kv)] = thresholds.items()
    [(refused, reason)] = e.value.failures
    assert refused == "thresholds" and reason.startswith(f"{feature}.{next(iter(kv))}: ")
    # a plugin feature's own keys and a finite value are fine
    dataclasses.replace(BASE.uts, thresholds={"plugin": {"knob": 1}, LOAD_BALANCE_ID: {}})


def test_a_flow_refuses_a_generator_that_is_not_a_traffic_generator():
    # a kind-and-parameters mapping is the YAML form, not a generator
    flow = BASE.flows[FLOW["full_buffer"]]
    for value in ({"kind": "full_buffer"}, "full_buffer", None):
        with pytest.raises(ValidationError) as e:
            dataclasses.replace(flow, generator=value)
        [(refused, reason)] = e.value.failures
        assert refused == "generator" and repr(value) in reason


@pytest.mark.parametrize(
    "modes",
    [
        {svc: mode for svc, mode in BASE.pdcp.service_modes.items() if svc is not TrafficClass.URLLC},
        {svc: mode.value for svc, mode in BASE.pdcp.service_modes.items()},
    ],
    ids=["missing_class", "string_mode"],
)
def test_pdcp_modes_map_every_traffic_class_to_a_mode(modes):
    # a partial map used to raise KeyError mid-run, a string mode AttributeError
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(BASE.pdcp, service_modes=modes)
    [(refused, reason)] = e.value.failures
    assert refused == "service_modes" and "every traffic class" in reason


LB = load_scenario(SCENARIO_DIR / "two_cell_load_balance.yaml")
GATED = (dataclasses.replace(PORTION, required_capability="lte_m"),)
FLOOR = "the access partition's PRBs (the larger of mac.min_guarantee_prbs and mac.access_cost_prbs)"


def entry(seq, i, **changes):
    return tuple(dataclasses.replace(x, **changes) if j == i else x for j, x in enumerate(seq))


def ids_with_repeat(seq, name):
    """The ids of ``seq`` with the second entry's id the first's."""
    return [getattr(seq[0], name)] * 2 + [getattr(x, name) for x in seq[2:]]


def across(id, changes, field, reason, yaml=None, path=None):
    """``LB`` with ``changes`` to its sections is refused, among others, by
    rule ``field`` for ``reason``; where a file can say it, the file with the
    ``yaml`` edits (path: value) is refused for the same reason at ``path``."""
    return pytest.param(changes, field, reason, yaml, path, id=id)


ACROSS = [
    # these two used to run to the end
    across("two_numerologies", {"cells": entry(LB.cells, 1, numerology=1)}, "cells",
           "all cells must share one numerology (one slot clock)",
           {"network.cells[1].numerology": 1}, "network.cells"),
    across("repeated_ue_id", {"ues": entry(LB.ues, 1, ue_id="ue01")}, "ues",
           f"ue ids must be unique, got {ids_with_repeat(LB.ues, 'ue_id')}",
           {"ues[1].id": "ue01"}, "ues"),
    # these ten used to fail inside the World or the MAC, naming no config field
    across("repeated_cell_id", {"cells": entry(LB.cells, 1, cell_id="cell-a")}, "cells",
           "cell ids must be unique, got ['cell-a', 'cell-a']",
           {"network.cells[1].id": "cell-a"}, "network.cells"),
    across("repeated_flow_id", {"flows": entry(LB.flows, 1, flow_id="f01")}, "flows",
           f"flow ids must be unique, got {ids_with_repeat(LB.flows, 'flow_id')}",
           {"traffic.flows[1].id": "f01"}, "traffic.flows"),
    across("unknown_ue", {"flows": entry(LB.flows, 2, ue_id="nobody")}, "flows[2].ue_id",
           "unknown UE 'nobody'", {"traffic.flows[2].ue": "nobody"}, "traffic.flows[2].ue"),
    across("unknown_serving_cell", {"ues": entry(LB.ues, 3, serving_cell="nowhere")},
           "ues[3].serving_cell", "unknown cell 'nowhere'",
           {"ues[3].serving_cell": "nowhere"}, "ues[3].serving_cell"),
    across("serving_cell_unusable", {"cells": entry(LB.cells, 0, portions=GATED)},
           "ues[0].serving_cell", "'ue01' lacks a usable portion there",
           {"network.cells[0].portions": [{"key": "main", "required_capability": "lte_m"}]},
           "ues[0].serving_cell"),
    across("eligible_for_no_cell",
           {"cells": tuple(dataclasses.replace(c, portions=GATED) for c in LB.cells),
            "ues": tuple(dataclasses.replace(u, serving_cell=None) for u in LB.ues)},
           "ues[0]", "'ue01' is eligible for no cell",
           {**{f"network.cells[{i}].portions": [{"key": "main", "required_capability": "lte_m"}]
               for i in range(2)},
            **{f"ues[{i}].serving_cell": None for i in range(len(LB.ues))}}, "ues[0]"),
    across("cell_under_access_floor",
           {"mac": dataclasses.replace(LB.mac, access_cost_prbs=60)},
           "cells[1].prbs_per_slot", f"must be >= 60, {FLOOR}",
           {"mac.access_cost_prbs": 60}, "network.cells[1].prbs_per_slot"),
    # this one used to run to the end
    across("inf_demand_sinr", {"mac": dataclasses.replace(LB.mac, demand_sinr_db=INF)},
           "mac.demand_sinr_db", "must be finite, got inf", {"mac.demand_sinr_db": INF},
           "mac.demand_sinr_db"),
    # a file refuses nan where it is read, as not finite
    across("nan_demand_sinr", {"mac": dataclasses.replace(LB.mac, demand_sinr_db=float("nan"))},
           "mac.demand_sinr_db", "nan dB gives no bits per PRB on cell 'cell-a' portion 'main'"),
    across("demand_sinr_sizes_no_bits", {"mac": dataclasses.replace(LB.mac, demand_sinr_db=-60.0)},
           "mac.demand_sinr_db", "-60.0 dB gives no bits per PRB on cell 'cell-b' portion 'main'",
           {"mac.demand_sinr_db": -60.0}, "mac.demand_sinr_db"),
    across("no_cells", {"cells": ()}, "cells", "at least one cell is required",
           {"network.cells": []}, "network.cells"),
]


@pytest.mark.parametrize("changes, field, reason, yaml, path", ACROSS)
def test_a_config_built_in_python_meets_the_rules_across_sections(changes, field, reason, yaml,
                                                                   path):
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(LB, **changes)
    assert (field, reason) in e.value.failures, e.value.failures
    if yaml is None:
        return
    with pytest.raises(ValidationError) as e:
        scenario_from_dict(lb_file_with(yaml))
    assert (path, reason) in e.value.failures, e.value.failures


def lb_file_with(yaml):
    """``LB``'s file with the ``yaml`` edits (path: value)."""
    data = scenario_to_dict(LB)
    for where, value in yaml.items():
        *parents, key = re.findall(r"[^.\[\]]+", where)
        node = data
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[key] = value
    return data


@pytest.mark.parametrize("yaml, refusals", [
    ({"ues[1].id": "ue01", "ues[1].serving_cell": "nowhere"},
     [("ues", f"ue ids must be unique, got {ids_with_repeat(LB.ues, 'ue_id')}"),
      ("ues[1].serving_cell", "unknown cell 'nowhere'")]),
    ({"network.cells[1].numerology": 1, "mac.access_cost_prbs": 60},
     [("network.cells", "all cells must share one numerology (one slot clock)"),
      ("network.cells[1].prbs_per_slot", f"must be >= 60, {FLOOR}")]),
], ids=["repeated_ue_id_and_unknown_serving_cell", "two_numerologies_and_a_narrow_cell"])
def test_a_file_breaking_a_list_rule_and_an_entry_rule_gets_both_refusals(yaml, refusals):
    with pytest.raises(ValidationError) as e:
        scenario_from_dict(lb_file_with(yaml))
    assert all(refusal in e.value.failures for refusal in refusals), e.value.failures


@pytest.mark.parametrize("obj, changes, rule, path, yaml", [
    pytest.param(LB.uts, {"features": (LOAD_BALANCE_ID,) * 2}, "features[1]", "uts.features[1]",
                 {"uts.features": [LOAD_BALANCE_ID] * 2}, id="uts.features"),
    pytest.param(LB.uts, {"ranking": (LOAD_BALANCE_ID,) * 2}, "ranking[1]", "uts.ranking[1]",
                 {"uts.ranking": [LOAD_BALANCE_ID] * 2}, id="uts.ranking"),
    pytest.param(LB.ues[0], {"capabilities": ("nr", "lte", "nr")}, "capabilities[2]",
                 "ues[0].capabilities[2]", {"ues[0].capabilities": ["nr", "lte", "nr"]},
                 id="ue.capabilities"),
])
def test_a_list_refuses_a_repeated_entry_where_it_is_built(obj, changes, rule, path, yaml):
    # a repeated feature or ranked feature used to construct, and the World
    # then raised DuplicateIdError or ValueError
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(obj, **changes)
    [value] = changes.values()
    assert e.value.failures == [(rule, f"repeats {value[0]!r}")]
    with pytest.raises(ValidationError) as e:
        scenario_from_dict(lb_file_with(yaml))
    assert e.value.failures == [(path, f"repeats {value[0]!r}")]
