"""Each config rule is stated once, on the type that holds the value: a
config built or changed in Python is refused for the same field and reason
that ``scenario_from_dict`` reports at the value's YAML path."""

import dataclasses
import re

import pytest

from rrmsim.core import TrafficClass
from rrmsim.scenario import ValidationError, load_scenario, scenario_from_dict, scenario_to_dict
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
    gen_case("full_buffer", "packet_bits", 0),
    gen_case("full_buffer", "watermark_bits", 2**53),
    gen_case("poisson_sporadic", "rate_per_slot", -1.0),
    gen_case("periodic_deadline", "period_slots", 0),
    gen_case("periodic_deadline", "offset_slots", -3),
    # these two used to construct: every delivery then missed its deadline,
    # or the World refused the carrier without naming the cell
    gen_case("periodic_deadline", "deadline_slots", -3),
    case("cell.carrier_hz", BASE.cells[0], "carrier_hz", 1.0, "network.cells[0].carrier_hz"),
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
