"""Scenario config: parsing, validation paths, round-trip stability."""

import copy
import dataclasses
import os
import re
import subprocess
import sys
import textwrap

import pytest
import yaml

from rrmsim.cli import main
from rrmsim.scenario import (
    ParseError,
    ScenarioLoader,
    ValidationError,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from rrmsim.traffic import FullBuffer

from conftest import SCENARIO_DIR

DOCS_FORMATS = SCENARIO_DIR.parent / "docs" / "formats.md"


def minimal() -> dict:
    return {
        "name": "tiny",
        "network": {"cells": [{"id": "c1", "prbs_per_slot": 20}]},
        "ues": [{"id": "u1", "position": [30.0, 0.0]}],
        "traffic": {"flows": [{"id": "f1", "ue": "u1", "service": "eMBB"}]},
        "sim": {"horizon_slots": 50, "seed": 1},
    }


def failures_of(data) -> dict:
    with pytest.raises(ValidationError) as e:
        scenario_from_dict(data)
    return dict(e.value.failures)


def test_minimal_scenario_fills_defaults():
    cfg = scenario_from_dict(minimal())
    assert cfg.name == "tiny"
    assert cfg.cells[0].carrier_hz == 2.0e9
    assert cfg.cells[0].portions[0].key == "main"
    assert cfg.mac.epoch_slots == 10
    assert cfg.uts.enabled is True
    assert cfg.flows[0].generator == FullBuffer()


def test_every_shipped_scenario_loads(scenarios):
    assert len(scenarios) >= 5
    for name, cfg in scenarios.items():
        assert cfg.cells, name
        assert cfg.sim.horizon_slots >= 1


def test_round_trip_is_identity(scenarios):
    for name, cfg in scenarios.items():
        again = scenario_from_dict(scenario_to_dict(cfg))
        assert again == cfg, name


def test_serialization_is_default_complete():
    """to_dict spells out every default, so a second round trip is a no-op."""
    cfg = scenario_from_dict(minimal())
    d1 = scenario_to_dict(cfg)
    d2 = scenario_to_dict(scenario_from_dict(copy.deepcopy(d1)))
    assert d1 == d2


def test_carrier_out_of_range_is_reported_with_path():
    data = minimal()
    data["network"]["cells"][0]["carrier_hz"] = 100e6
    fails = failures_of(data)
    assert any("network.cells[0]" in path for path in fails)
    assert any("carrier_hz" in reason for reason in fails.values())


def test_unknown_keys_are_rejected_everywhere():
    top = minimal()
    top["turbo_mode"] = True
    assert "turbo_mode" in failures_of(top)
    nested = minimal()
    nested["network"]["cells"][0]["antenna_count"] = 4
    assert "network.cells[0].antenna_count" in failures_of(nested)


def test_flow_must_reference_known_ue():
    data = minimal()
    data["traffic"]["flows"][0]["ue"] = "nobody"
    fails = failures_of(data)
    assert any("nobody" in reason for reason in fails.values())


def test_duplicate_ids_rejected():
    data = minimal()
    data["network"]["cells"].append({"id": "c1"})
    assert "network.cells" in failures_of(data)
    data = minimal()
    data["ues"].append({"id": "u1"})
    assert "ues" in failures_of(data)


def test_mixed_numerologies_rejected():
    data = minimal()
    data["network"]["cells"].append({"id": "c2", "numerology": 2, "carrier_hz": 3.5e9})
    assert "network.cells" in failures_of(data)


def test_urllc_flow_needs_a_deadline_shape():
    data = minimal()
    data["traffic"]["flows"][0]["service"] = "URLLC"
    fails = failures_of(data)
    assert any("URLLC" in r or "periodic" in r for r in fails.values())
    # either a periodic generator or an explicit reservation period satisfies it
    data["traffic"]["flows"][0]["generator"] = {"kind": "periodic_deadline"}
    scenario_from_dict(data)
    data2 = minimal()
    data2["traffic"]["flows"][0]["service"] = "URLLC"
    data2["traffic"]["flows"][0]["sps_period_slots"] = 8
    scenario_from_dict(data2)


def test_bad_generator_params_name_the_accepted_fields():
    data = minimal()
    data["traffic"]["flows"][0]["generator"] = {"kind": "full_buffer", "burstiness": 3}
    fails = failures_of(data)
    assert any("packet_bits" in r for r in fails.values())


def test_null_generator_param_takes_its_default():
    data = minimal()
    data["traffic"]["flows"][0]["generator"] = {
        "kind": "full_buffer", "packet_bits": 4000, "watermark_bits": None,
    }
    flow = scenario_from_dict(data).flows[0]
    assert flow.generator == FullBuffer(packet_bits=4000)


def test_an_unknown_generator_kind_is_reported_at_its_path():
    data = minimal()
    data["traffic"]["flows"][0]["generator"] = {"kind": "bursty_fractal", "packet_bits": 8}
    assert failures_of(data) == {"traffic.flows[0].generator.kind": "unknown kind 'bursty_fractal'"}


def test_serialization_writes_every_generator_parameter():
    data = minimal()
    data["traffic"]["flows"][0]["generator"] = {"kind": "full_buffer"}
    gen = scenario_to_dict(scenario_from_dict(data))["traffic"]["flows"][0]["generator"]
    assert gen == {"kind": "full_buffer", "packet_bits": 12000, "watermark_bits": 120000}


def test_ue_with_no_eligible_cell_is_an_error():
    data = minimal()
    data["network"]["cells"][0]["portions"] = [{"key": "nr", "required_capability": "nr6g"}]
    fails = failures_of(data)
    assert any("eligible" in r for r in fails.values())


def test_multiple_failures_reported_together():
    data = minimal()
    data["sim"]["horizon_slots"] = 0
    data["network"]["cells"][0]["carrier_hz"] = 1.0
    data["traffic"]["flows"][0]["ue"] = "ghost"
    with pytest.raises(ValidationError) as e:
        scenario_from_dict(data)
    assert len(e.value.failures) >= 3


def test_parse_error_for_non_mapping_input(tmp_path):
    with pytest.raises(ParseError):
        scenario_from_dict(["not", "a", "mapping"])
    p = tmp_path / "broken.yaml"
    p.write_text("{{{ not yaml")
    with pytest.raises(ParseError):
        load_scenario(p)
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "missing.yaml")


def _documents():
    """Each shipped scenario file and each YAML block of docs/formats.md."""
    docs = {p.name: p.read_bytes() for p in sorted(SCENARIO_DIR.glob("*.yaml"))}
    blocks = re.findall(r"^```yaml\n(.*?)^```", DOCS_FORMATS.read_text(), re.M | re.S)
    docs.update({f"formats.md block {i}": b.encode() for i, b in enumerate(blocks)})
    return docs


def test_shipped_scenarios_parse_as_plain_yaml():
    """The files on disk and the documented blocks read the same under
    PyYAML's pure-Python ``SafeLoader`` as under the loader ``load_scenario``
    uses (libyaml where PyYAML has it), so a host without libyaml runs the
    same configs."""
    for name, text in _documents().items():
        plain = yaml.load(text, Loader=yaml.SafeLoader)
        ours = yaml.load(text, Loader=ScenarioLoader)
        assert isinstance(plain, dict) and "network" in plain, name
        assert ours == plain, name
        assert scenario_from_dict(ours) == scenario_from_dict(plain), name
    # docs/formats.md: an exponent without a dot and a sign reads as a string
    for loader in (yaml.SafeLoader, ScenarioLoader):
        assert yaml.load(b"carrier_hz: 1e9", Loader=loader) == {"carrier_hz": "1e9"}
        assert yaml.load(b"carrier_hz: 1.0e+9", Loader=loader) == {"carrier_hz": 1.0e9}


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"name: x\n\xff\xfe bad: 1\n")
    with pytest.raises(ParseError):
        load_scenario(bad)
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


def test_a_utf16_file_with_a_bom_loads_as_its_utf8_original(tmp_path):
    original = SCENARIO_DIR / "single_cell.yaml"
    utf16 = tmp_path / "single_cell.yaml"
    utf16.write_bytes(original.read_text(encoding="utf-8").encode("utf-16"))
    assert utf16.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
    assert load_scenario(utf16) == load_scenario(original)


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("name: x\nname: y\n", "name", 2),
        (
            "network:\n  cells:\n    - id: c1\n      prbs_per_slot: 20\n"
            "      position: [0, 0]\n      prbs_per_slot: 30\n",
            "prbs_per_slot",
            6,
        ),
    ],
)
def test_a_repeated_key_is_refused_with_its_line(tmp_path, text, key, line):
    p = tmp_path / "repeated.yaml"
    p.write_text(text)
    with pytest.raises(ParseError, match=rf"repeated key '{key}'\n.*line {line},"):
        load_scenario(p)


def test_without_libyaml_the_loader_is_pythons_and_refuses_the_same(tmp_path):
    """Where PyYAML has no libyaml, the loader is ``yaml.SafeLoader``'s, picked
    at import, and refuses what the libyaml one refuses."""
    (tmp_path / "repeated.yaml").write_text("name: x\nname: y\n")
    (tmp_path / "bad.yaml").write_bytes(b"name: x\n\xff\n")
    original = SCENARIO_DIR / "single_cell.yaml"
    (tmp_path / "utf16.yaml").write_bytes(original.read_text(encoding="utf-8").encode("utf-16"))
    script = textwrap.dedent(
        """
        import sys, yaml
        del yaml.CSafeLoader
        from rrmsim.scenario import ParseError, ScenarioLoader, load_scenario
        assert ScenarioLoader.__mro__[1] is yaml.SafeLoader
        for name, reason in (("repeated", "repeated key 'name'"), ("bad", "unacceptable character #x00ff")):
            try:
                load_scenario(f"{sys.argv[1]}/{name}.yaml")
            except ParseError as e:
                assert reason in str(e), e
            else:
                raise AssertionError(name)
        assert load_scenario(f"{sys.argv[1]}/utf16.yaml") == load_scenario(sys.argv[2])
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script, str(tmp_path), str(original)], env=env, check=True)


def test_merge_keys_may_override_but_not_repeat():
    base = "base: &b {x: 1, y: 2}\n"
    assert yaml.load(base + "d: {<<: *b, y: 3}\n", Loader=ScenarioLoader)["d"] == {"x": 1, "y": 3}
    with pytest.raises(yaml.YAMLError, match="repeated key 'y'"):
        yaml.load(base + "d: {<<: *b, y: 3, y: 4}\n", Loader=ScenarioLoader)


@pytest.mark.parametrize(
    "path, value, reason",
    [
        ("mac.pf_ewma", "x", "expected a number"),
        ("channel.fading_seed", 1.5, "expected an integer"),
        ("network.cells[0].class", "tower", "expected one of (macro, small, ap)"),
        ("ues[0].position", [1], "expected [x, y] numbers"),
        ("traffic.flows[0].slice", "", "expected a non-empty string"),
        ("uts.enabled", 1, "expected a boolean"),
    ],
)
def test_wrong_typed_value_is_reported_under_its_yaml_key(path, value, reason):
    data = minimal()
    *parents, key = re.findall(r"[^.\[\]]+", path)
    node = data
    for part in parents:
        node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
    node[key] = value
    fails = failures_of(data)
    assert reason in fails[path], fails


def test_values_the_mac_would_refuse_are_reported_not_raised():
    data = minimal()
    data["mac"] = {"epoch_slots": 0, "pf_ewma": 1.5, "backoff_min_epochs": 3, "backoff_max_epochs": 2}
    data["network"]["cells"][0]["portions"] = [
        {"key": "a", "required_capability": "nr6g", "waveform_efficiency": 2.0}
    ]
    data["traffic"]["flows"][0]["slice"] = "rach"
    fails = failures_of(data)
    assert fails["traffic.flows[0].slice"] == "'rach' is the access partition's key"
    assert fails["mac.epoch_slots"] == "must be >= 1"
    assert fails["mac.pf_ewma"] == "must be in (0, 1]"
    assert "backoff window" in fails["mac"]
    assert "must be in (0, 1]" in fails["network.cells[0].portions[0].waveform_efficiency"]
    # the rest of a failed portion still takes part in the cross checks
    assert "eligible for no cell" in fails["ues[0]"]


def everything_off_default() -> dict:
    return {
        "name": "everything",
        "sim": {"horizon_slots": 77, "seed": 5},
        "channel": {
            "fading_scale": 0.5, "fading_seed": 9, "noise_psd_dbm_hz": -170.5,
            "interference_margin_db": 2.5, "min_distance_m": 3.0,
        },
        "network": {"cells": [{
            "id": "c1", "class": "small", "rat": "lte", "carrier_hz": 3.5e9,
            "prbs_per_slot": 24, "numerology": 1, "prb_bandwidth_hz": 360e3,
            "position": [10.0, -5.0], "tx_power_dbm": 27.5, "supports_duplication": False,
            "supports_secondary": False, "drop_prob": 0.1,
            "portions": [
                {"key": "a", "required_capability": "nr", "waveform_efficiency": 0.9},
                {"key": "b"},
            ],
        }]},
        "ues": [{
            "id": "u1", "position": [30.0, 0.0], "velocity": [1.0, 2.0],
            "capabilities": ["nr", "dual_connectivity"], "serving_cell": "c1",
        }],
        "traffic": {"flows": [{
            "id": "f1", "ue": "u1", "service": "URLLC", "slice": "s1",
            "generator": {"kind": "periodic_deadline", "period_slots": 5, "packet_bits": 800},
            "sps_period_slots": 5, "sps_prbs": 2, "sps_offset_slots": 1,
        }]},
        "mac": {
            "epoch_slots": 5, "min_guarantee_prbs": 2, "access_cost_prbs": 2, "pf_ewma": 0.1,
            "pf_initial_avg_bits": 2.0, "demand_sinr_db": 7.5,
            "backoff_min_epochs": 2, "backoff_max_epochs": 4,
        },
        "pdcp": {
            "t_reorder_slots": 20, "leave_load": 0.9, "enter_load": 0.3,
            "service_modes": {"eMBB": "load_balance"},
        },
        "uts": {
            "enabled": False, "epoch_slots": 40, "scenario_tag": "dense",
            "features": ["load_balance_handover", "carrier_aggregation"],
            "ranking": ["carrier_aggregation", "load_balance_handover"],
            "thresholds": {"load_balance_handover": {"high_load": 0.6}},
            "hysteresis_epochs": 3, "time_to_trigger_epochs": 4,
        },
    }


def test_every_field_off_its_default_round_trips():
    cfg = scenario_from_dict(everything_off_default())
    sections = (
        cfg, cfg.sim, cfg.channel, cfg.cells[0], cfg.cells[0].portions[0],
        cfg.ues[0], cfg.flows[0], cfg.mac, cfg.pdcp, cfg.uts,
    )
    for obj in sections:
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                default = f.default
            elif f.default_factory is not dataclasses.MISSING:
                default = f.default_factory()
            else:
                continue
            assert getattr(obj, f.name) != default, (type(obj).__name__, f.name)
    text = yaml.safe_dump(scenario_to_dict(cfg))  # plain YAML types only
    assert scenario_from_dict(yaml.safe_load(text)) == cfg


def test_docs_example_validates_and_shows_the_defaults():
    block = re.search(r"```yaml\n(.*?)```", DOCS_FORMATS.read_text(), re.S).group(1)
    doc = yaml.safe_load(block)
    scenario_from_dict(doc)
    data = minimal()
    del data["sim"]
    defaults = scenario_to_dict(scenario_from_dict(data))
    for section in ("sim", "channel", "mac", "pdcp", "uts"):
        assert doc[section] == defaults[section], section
    # the example spells out every key of a cell, portion, UE and flow
    cell, dcell = doc["network"]["cells"][0], defaults["network"]["cells"][0]
    assert set(cell) == set(dcell)
    assert set(cell["portions"][0]) == set(dcell["portions"][0])
    assert set(doc["ues"][0]) == set(defaults["ues"][0])
    assert set(doc["traffic"]["flows"][0]) == set(defaults["traffic"]["flows"][0])
