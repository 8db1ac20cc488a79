"""Command-line behavior: exit codes, output files, seed handling."""

import json
from pathlib import Path

import pytest
import yaml

from rrmsim.cli import CSV_COLUMNS, main

from conftest import SCENARIO_DIR


@pytest.fixture
def tiny_yaml(tmp_path):
    doc = {
        "name": "tiny",
        "network": {"cells": [{"id": "c1", "prbs_per_slot": 20}]},
        "ues": [{"id": "u1", "position": [30.0, 0.0]}],
        "traffic": {
            "flows": [
                {
                    "id": "f1",
                    "ue": "u1",
                    "service": "eMBB",
                    "generator": {"kind": "full_buffer", "packet_bits": 4000},
                }
            ]
        },
        "sim": {"horizon_slots": 60, "seed": 3},
    }
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def _read_outputs(outdir):
    return {
        name: (outdir / name).read_text()
        for name in ("metrics.csv", "summary.json", "events.log")
    }


def test_run_writes_three_files_and_exits_zero(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(tiny_yaml), "--out", str(out)])
    assert rc == 0
    files = _read_outputs(out)
    assert files["metrics.csv"].splitlines()[0] == ",".join(CSV_COLUMNS)
    doc = json.loads(files["summary.json"])
    assert doc["scenario"] == "tiny"
    assert doc["seed"] == 3
    assert doc["report"]["slots"] == 60
    assert files["events.log"].count("\n") == len(files["events.log"].splitlines())
    assert str(out) in capsys.readouterr().out
    assert not list(out.glob("*.tmp"))


def test_rerun_is_byte_identical(tiny_yaml, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(tiny_yaml), "--out", str(a)]) == 0
    assert main(["run", str(tiny_yaml), "--out", str(b)]) == 0
    assert _read_outputs(a) == _read_outputs(b)


def test_seed_override_changes_summary(tiny_yaml, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(tiny_yaml), "--seed", "42", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["seed"] == 42


def test_seed_range_makes_one_directory_per_seed(tiny_yaml, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(tiny_yaml), "--seeds", "4..6", "--out", str(out)]) == 0
    seeds = []
    for sub in sorted(out.iterdir()):
        doc = json.loads((sub / "summary.json").read_text())
        seeds.append((sub.name, doc["seed"]))
    assert seeds == [("seed-4", 4), ("seed-5", 5), ("seed-6", 6)]


def test_a_one_seed_range_writes_its_seed_directory(tiny_yaml, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(tiny_yaml), "--seeds", "4..4", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["seed-4"]
    assert json.loads((out / "seed-4" / "summary.json").read_text())["seed"] == 4


def test_seed_and_seeds_together_is_a_usage_error(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(tiny_yaml), "--seed", "1", "--seeds", "1..2", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "mutually exclusive" in capsys.readouterr().err


def test_backwards_seed_range_is_rejected(tiny_yaml, tmp_path):
    rc = main(["run", str(tiny_yaml), "--seeds", "9..3", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("flag", (["--seed", "-1"], ["--seeds=-3..-2"], ["--seeds=-1..2"]))
def test_negative_seed_is_a_usage_error_and_writes_nothing(tiny_yaml, tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["run", str(tiny_yaml), *flag, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "non-negative integer" in err and "run failed" not in err


def test_invalid_scenario_exits_two_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: broken\nnetwork:\n  cells: []\nturbo_mode: 9\n")
    out = tmp_path / "out"
    rc = main(["run", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "turbo_mode" in err


def test_unreadable_file_is_a_parse_error(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_prints_ok_and_touches_nothing(tiny_yaml, tmp_path, capsys):
    before = set(tmp_path.iterdir())
    rc = main(["validate", str(tiny_yaml)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert set(tmp_path.iterdir()) == before


def test_validate_reports_each_failure_path(tmp_path, capsys):
    doc = {
        "name": "x",
        "network": {"cells": [{"id": "c1", "carrier_hz": 1.0e5}]},
        "ues": [{"id": "u1"}],
        "traffic": {"flows": [{"id": "f1", "ue": "nobody", "service": "eMBB"}]},
    }
    p = tmp_path / "x.yaml"
    p.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "network.cells[0]" in err
    assert "traffic.flows[0].ue" in err


def test_every_shipped_scenario_validates(capsys):
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        assert main(["validate", str(path)]) == 0, path.name
    assert capsys.readouterr().out.count("ok") >= 5


def test_csv_rows_parse_back_to_numbers(tiny_yaml, tmp_path):
    out = tmp_path / "out"
    main(["run", str(tiny_yaml), "--out", str(out)])
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 6  # header + one row per flow per MAC epoch
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["flow"] == "f1"
    assert int(row["epoch"]) == 0
    assert float(row["arrived_bits"]) >= float(row["delivered_bits"]) >= 0.0


def test_failed_write_leaves_no_partial_output(tiny_yaml, tmp_path, monkeypatch, capsys):
    real_write = Path.write_text
    calls = []

    def third_write_fails(self, text, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return real_write(self, text, *args, **kwargs)

    # a fresh directory is not left behind
    out = tmp_path / "new" / "out"
    monkeypatch.setattr(Path, "write_text", third_write_fails)
    assert main(["run", str(tiny_yaml), "--out", str(out)]) == 1
    assert len(calls) == 3 and "No space left" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()

    # an existing run's files stay as they were, with no temporaries beside them
    monkeypatch.setattr(Path, "write_text", real_write)
    old = tmp_path / "old"
    assert main(["run", str(tiny_yaml), "--out", str(old)]) == 0
    before = _read_outputs(old)
    calls.clear()
    monkeypatch.setattr(Path, "write_text", third_write_fails)
    assert main(["run", str(tiny_yaml), "--seed", "42", "--out", str(old)]) == 1
    assert sorted(p.name for p in old.iterdir()) == sorted(before)
    assert _read_outputs(old) == before


@pytest.mark.parametrize(
    "flow_keys, where",
    [
        ({"generator": {"kind": "periodic_deadline"}, "sps_prbs": -2}, "traffic.flows[0].sps_prbs"),
        (
            {"generator": {"kind": "periodic_deadline", "period_slots": 0}},
            "traffic.flows[0].generator.period_slots",
        ),
        (
            {"generator": {"kind": "periodic_deadline", "offset_slots": -3}},
            "traffic.flows[0].generator.offset_slots",
        ),
    ],
    ids=["sps_prbs", "period_slots", "offset_slots"],
)
def test_reservation_shape_the_mac_refuses_is_a_config_error(flow_keys, where, tmp_path, capsys):
    _assert_bad_flow_exits_2(
        {"service": "URLLC", **flow_keys}, f"{where}: must be >= ", tmp_path, capsys
    )


@pytest.mark.parametrize(
    "service, generator, reason",
    [
        ("mMTC", {"kind": "poisson_sporadic", "rate_per_slot": "x"},
         "rate_per_slot: expected a number"),
        ("mMTC", {"kind": "poisson_sporadic", "packet_bits": "x"},
         "packet_bits: expected an integer"),
        ("eMBB", {"kind": "full_buffer", "watermark_bits": 1.5},
         "watermark_bits: expected an integer"),
        ("URLLC", {"kind": "periodic_deadline", "deadline_slots": "x"},
         "deadline_slots: expected an integer"),
        # a full buffer of empty packets never fills: the run would hang
        ("eMBB", {"kind": "full_buffer", "packet_bits": 0}, "packet_bits: must be >= 1"),
        ("mMTC", {"kind": "poisson_sporadic", "rate_per_slot": -1}, "rate_per_slot: must be >= 0"),
        # run arithmetic would round these, so the run would fail at its start
        ("eMBB", {"kind": "full_buffer", "packet_bits": 2**53 + 1},
         "packet_bits: must be below 2**53"),
        ("eMBB", {"kind": "full_buffer", "watermark_bits": 2**53},
         "watermark_bits: must be below 2**53"),
    ],
    ids=[
        "rate_per_slot", "packet_bits", "watermark_bits", "deadline_slots",
        "empty_packets", "negative_rate", "huge_packets", "huge_watermark",
    ],
)
def test_bad_generator_param_is_a_config_error(service, generator, reason, tmp_path, capsys):
    flow = {"service": service, "generator": generator}
    _assert_bad_flow_exits_2(flow, f"traffic.flows[0].generator.{reason}", tmp_path, capsys)


@pytest.mark.parametrize(
    "demand, reason",
    [
        pytest.param(
            -30, "-30.0 dB gives no bits per PRB on cell 'c1' portion 'main'", id="-30--30.0"
        ),
        pytest.param(float("nan"), "must be finite, got nan", id="nan-nan"),
    ],
)
def test_demand_sinr_that_sizes_no_bits_is_a_config_error(demand, reason, tmp_path, capsys):
    # at -30 dB a 180 kHz PRB carries under one bit per slot, so the MAC's
    # demand estimate would divide by a zero rate; nan is refused as it is read
    flow = {"service": "eMBB", "generator": {"kind": "full_buffer", "packet_bits": 4000}}
    message = f"mac.demand_sinr_db: {reason}"
    _assert_bad_flow_exits_2(flow, message, tmp_path, capsys, mac={"demand_sinr_db": demand})


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "sections, where, shown",
    [
        ({"channel": {"interference_margin_db": _NAN}}, "channel.interference_margin_db", "nan"),
        (
            {"network": {"cells": [{"id": "c1", "prbs_per_slot": 20, "tx_power_dbm": _NAN}]}},
            "network.cells[0].tx_power_dbm",
            "nan",
        ),
        ({"channel": {"min_distance_m": _INF}}, "channel.min_distance_m", "inf"),
        (
            {"uts": {"features": ["load_balance_handover"],
                     "thresholds": {"load_balance_handover": {"high_load": _NAN}}}},
            "uts.thresholds.load_balance_handover.high_load",
            "nan",
        ),
        (
            {"ues": [{"id": "u1", "position": [30.0, -_INF]}]},
            "ues[0].position",
            "[30.0, -inf]",
        ),
    ],
    ids=["interference_margin_db", "tx_power_dbm", "min_distance_m", "threshold", "position"],
)
def test_non_finite_number_is_a_config_error(sections, where, shown, tmp_path, capsys):
    # each of these used to validate and then crash the run or deliver nothing
    flow = {"service": "eMBB", "generator": {"kind": "full_buffer", "packet_bits": 4000}}
    message = f"{where}: must be finite, got {shown}"
    _assert_bad_flow_exits_2(flow, message, tmp_path, capsys, **sections)


_HUGE = int("9" * 400)


@pytest.mark.parametrize(
    "sections, where",
    [
        ({"channel": {"fading_scale": _HUGE}}, "channel.fading_scale"),
        (
            {"uts": {"features": ["load_balance_handover"],
                     "thresholds": {"load_balance_handover": {"high_load": _HUGE}}}},
            "uts.thresholds.load_balance_handover.high_load",
        ),
    ],
    ids=["fading_scale", "threshold"],
)
def test_a_number_too_large_for_a_float_is_a_config_error(sections, where, tmp_path, capsys):
    # each of these used to exit 1 with an OverflowError traceback
    flow = {"service": "eMBB", "generator": {"kind": "full_buffer", "packet_bits": 4000}}
    message = f"{where}: expected a number a float can hold, got {_HUGE!r}"
    _assert_bad_flow_exits_2(flow, message, tmp_path, capsys, **sections)


@pytest.mark.parametrize(
    "uts, where, shown",
    [
        ({"features": [5]}, "uts.features[0]", "5"),
        ({"features": ["load_balance_handover", 7]}, "uts.features[1]", "7"),
        ({"features": [None]}, "uts.features[0]", "None"),
        (
            {"features": ["load_balance_handover"], "ranking": ["load_balance_handover", 3]},
            "uts.ranking[1]",
            "3",
        ),
    ],
    ids=["lone-number", "number-after-name", "null", "ranking-number"],
)
def test_steering_feature_name_that_is_not_a_string_is_a_config_error(
    uts, where, shown, tmp_path, capsys
):
    # such entries used to be dropped, so the run went on with steering off
    flow = {"service": "eMBB", "generator": {"kind": "full_buffer", "packet_bits": 4000}}
    message = f"{where}: expected a non-empty string, got {shown}"
    _assert_bad_flow_exits_2(flow, message, tmp_path, capsys, uts=uts)


@pytest.mark.parametrize(
    "sections, where, shown",
    [
        (
            {"uts": {"features": ["load_balance_handover", "load_balance_handover"]}},
            "uts.features[1]",
            "load_balance_handover",
        ),
        (
            {
                "uts": {
                    "features": ["load_balance_handover"],
                    "ranking": ["load_balance_handover", "load_balance_handover"],
                }
            },
            "uts.ranking[1]",
            "load_balance_handover",
        ),
        (
            {"ues": [{"id": "u1", "position": [30.0, 0.0], "capabilities": ["nr", "lte", "nr"]}]},
            "ues[0].capabilities[2]",
            "nr",
        ),
    ],
    ids=["feature", "ranking", "capability"],
)
def test_repeated_name_in_a_list_is_a_config_error(sections, where, shown, tmp_path, capsys):
    # a repeated feature used to validate and then fail the run with exit 1
    flow = {"service": "eMBB", "generator": {"kind": "full_buffer", "packet_bits": 4000}}
    message = f"{where}: repeats {shown!r}"
    _assert_bad_flow_exits_2(flow, message, tmp_path, capsys, **sections)


@pytest.mark.parametrize(
    "ues, flows, pf_ewma, horizon",
    [
        (
            [{"id": "u1", "position": [30.0, 0.0]}, {"id": "u2", "position": [60.0, 0.0]}],
            [
                {"id": f"f{i}", "ue": f"u{i}", "service": "eMBB",
                 "generator": {"kind": "full_buffer", "packet_bits": 4000}}
                for i in (1, 2)
            ],
            1.0,
            50,
        ),
        (
            [{"id": "u1", "position": [30.0, 0.0]}],
            [
                {"id": "f1", "ue": "u1", "service": "eMBB",
                 "generator": {"kind": "poisson_sporadic", "rate_per_slot": 0.0008,
                               "packet_bits": 800}}
            ],
            0.5,
            3000,
        ),
    ],
    ids=["full-buffer-ewma-1", "sporadic-ewma-half"],
)
def test_pf_average_that_reaches_zero_runs_to_the_horizon(
    ues, flows, pf_ewma, horizon, tmp_path, capsys
):
    """For pf_ewma >= 0.5 an unserved UE's PF average underflows to 0.0 (at
    once with two full buffers and an ewma of 1; at slot 2754 after the
    sporadic flow's idle stretch). The run used to stop there with exit 1."""
    doc = {
        "name": "pf_zero_average",
        "network": {"cells": [{"id": "c1", "prbs_per_slot": 10}]},
        "ues": ues,
        "traffic": {"flows": flows},
        "mac": {"pf_ewma": pf_ewma},
        "sim": {"horizon_slots": horizon, "seed": 1},
    }
    p = tmp_path / "pf.yaml"
    p.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 0
    per_flow = json.loads((out / "summary.json").read_text())["report"]["per_flow"]
    assert all(m["delivered_bits"] > 0 for m in per_flow.values())
    if len(ues) == 1:  # every sporadic packet is delivered
        assert per_flow["f1"]["delivered_bits"] == per_flow["f1"]["arrived_bits"]


def _two_cells(small_prbs):
    """A 50-PRB cell serving the UE and an idle cell of ``small_prbs`` PRBs."""
    return {"cells": [
        {"id": "c1", "prbs_per_slot": 50},
        {"id": "c2", "prbs_per_slot": small_prbs, "position": [500.0, 0.0]},
    ]}


_EMBB = {"service": "eMBB", "generator": {"kind": "full_buffer", "packet_bits": 4000}}


@pytest.mark.parametrize(
    "mac", [{"access_cost_prbs": 4}, {"min_guarantee_prbs": 4}], ids=["access_cost", "guarantee"]
)
def test_cell_narrower_than_its_access_partition_is_a_config_error(mac, tmp_path, capsys):
    # every MAC holds max(min_guarantee_prbs, access_cost_prbs) PRBs for access
    # from its first slot, flows or not, so the idle 3-PRB cell used to stop
    # the run at slot 0 with exit 1 after validating
    message = "network.cells[1].prbs_per_slot: must be >= 4"
    _assert_bad_flow_exits_2(_EMBB, message, tmp_path, capsys, network=_two_cells(3), mac=mac)


def test_cell_as_wide_as_its_access_partition_runs(tmp_path, capsys):
    doc = {
        "name": "narrow_cell",
        "network": _two_cells(4),
        "ues": [{"id": "u1", "position": [30.0, 0.0]}],
        "traffic": {"flows": [{"id": "f1", "ue": "u1", **_EMBB}]},
        "mac": {"access_cost_prbs": 4},
        "sim": {"horizon_slots": 20, "seed": 1},
    }
    p = tmp_path / "narrow.yaml"
    p.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(p)]) == 0
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0


def _dss_cell(prbs):
    """One cell of ``prbs`` PRBs whose carrier an LTE and an NR portion share."""
    return {"cells": [{"id": "c1", "prbs_per_slot": prbs, "rat": "lte+nr", "portions": [
        {"key": "legacy", "required_capability": "lte"},
        {"key": "nr", "required_capability": "nr"},
    ]}]}


_LEGACY_AND_NR = (
    [{"id": "u1", "position": [30.0, 0.0], "capabilities": ["lte"]},
     {"id": "u2", "position": [40.0, 0.0]}],
    [{"id": "f1", "ue": "u1", "service": "legacy_MBB",
      "generator": {"kind": "full_buffer", "packet_bits": 4000}},
     {"id": "f2", "ue": "u2", **_EMBB}],
)


@pytest.mark.parametrize(
    "network, ues, flows, mac, shown",
    [
        ({"cells": [{"id": "c1", "prbs_per_slot": 1}]},
         [{"id": "u1", "position": [30.0, 0.0]}], [{"id": "f1", "ue": "u1", **_EMBB}], {},
         ["plan=eMBB:0-0,rach:0-1"]),
        ({"cells": [{"id": "c1", "prbs_per_slot": 6}]},
         [{"id": "u1", "position": [30.0, 0.0]}], [{"id": "f1", "ue": "u1", **_EMBB}],
         {"min_guarantee_prbs": 4}, ["plan=eMBB:0-2,rach:2-6"]),
        (_dss_cell(3), *_LEGACY_AND_NR, {},
         ["portions=legacy:2|nr:1", "plan=legacy_MBB:0-1,rach:1-2", "plan=eMBB:2-2,rach:2-3"]),
        (_dss_cell(1), *_LEGACY_AND_NR, {},
         ["portions=legacy:1|nr:0", "plan=legacy_MBB:0-0,rach:0-1"]),
        ({"cells": [{"id": "c1", "prbs_per_slot": 3}]},
         [{"id": "u1", "position": [30.0, 0.0]}],
         [{"id": "f1", "ue": "u1", "slice": "a", **_EMBB},
          {"id": "f2", "ue": "u1", "slice": "b", **_EMBB},
          {"id": "f3", "ue": "u1", "slice": "b", "service": "URLLC",
           "generator": {"kind": "periodic_deadline", "period_slots": 20, "packet_bits": 1200,
                         "deadline_slots": 20}}],
         {}, ["plan=a:0-1,b:1-2,rach:2-3", "slice=b plan=URLLC:1-2,eMBB:2-2"]),
    ],
    ids=["one-prb", "guarantee-over-half", "dss-three-prbs", "dss-one-prb", "two-slices"],
)
def test_cell_that_cannot_cover_its_flows_minimums_keeps_its_access_floor_and_runs(
    network, ues, flows, mac, shown, tmp_path, capsys
):
    """A cell as wide as its access partition passes validation whatever
    flows it holds. When the flows' bare minimums do not fit beside it, the
    access partition keeps its floor and the others share what is left, so
    a leaf may get no PRB; two portions that cannot both keep an access
    floor leave the carrier to the first. These runs used to exit 1."""
    doc = {
        "name": "narrow_for_its_flows",
        "network": network,
        "ues": ues,
        "traffic": {"flows": flows},
        "mac": mac,
        "sim": {"horizon_slots": 30, "seed": 1},
    }
    p = tmp_path / "narrow.yaml"
    p.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(p)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 0
    events = (out / "events.log").read_text()
    assert all(s in events for s in shown)


def _assert_bad_flow_exits_2(flow_keys, message, tmp_path, capsys, **sections):
    """A one-cell, one-flow scenario with ``flow_keys`` (and any extra
    top-level ``sections``) fails validation naming ``message``, and ``run``
    refuses it the same way without writing."""
    doc = {
        "name": "bad_flow",
        "network": {"cells": [{"id": "c1", "prbs_per_slot": 20}]},
        "ues": [{"id": "u1", "position": [30.0, 0.0]}],
        "traffic": {"flows": [{"id": "f1", "ue": "u1", **flow_keys}]},
        "sim": {"horizon_slots": 20, "seed": 1},
        **sections,
    }
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(p)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert not out.exists()
