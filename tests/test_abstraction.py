"""Middleware: common units, rate mapping, descriptors, plugin registry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrmsim.abstraction import (
    CAPACITY_REF_SINR_DB,
    CapabilityDescriptor,
    DuplicateIdError,
    FeatureRecord,
    MeasureKind,
    PluginLocation,
    PluginRegistry,
    SINR_CAP_DB,
    capacity_score,
    describe_cell,
    link_rate,
    link_rates,
    load_fraction,
    signal_db,
)
from rrmsim.channel import SIGNAL_ESTIMATE_TOL_DB
from rrmsim.core import CellClass

from conftest import mk_cell, mk_grid


# ---------------------------------------------------------------------------
# unit conversion
# ---------------------------------------------------------------------------

def test_rsrp_converts_to_db_above_floor():
    m = signal_db(-100.0)
    assert m.kind is MeasureKind.SIGNAL_DB
    assert m.value == pytest.approx(40.0)


def test_queue_occupancy_converts_to_load_fraction():
    m = load_fraction(30.0, 60.0)
    assert m.kind is MeasureKind.LOAD_FRACTION
    assert m.value == pytest.approx(0.5)
    # overload clamps at 1 instead of leaking raw units upward
    assert load_fraction(90.0, 60.0).value == 1.0
    with pytest.raises(ValueError, match="positive capacity"):
        load_fraction(5.0, 0.0)
    with pytest.raises(ValueError, match=">= 0"):
        load_fraction(-1.0, 60.0)
    # nan would otherwise pass through the clamp as a full load
    with pytest.raises(ValueError, match=">= 0, got nan"):
        load_fraction(float("nan"), 60.0)
    with pytest.raises(ValueError, match="positive capacity, got nan"):
        load_fraction(5.0, float("nan"))
    with pytest.raises(ValueError, match="finite"):
        signal_db(float("nan"))


def test_conversions_preserve_order():
    """Better raw measurements never convert to worse common measurements."""
    last = None
    for dbm in range(-140, -40, 5):
        v = signal_db(float(dbm)).value
        assert last is None or v > last
        last = v
    last = None
    for q in range(0, 120, 10):
        v = load_fraction(float(q), 100.0).value
        assert last is None or v >= last
        last = v


# ---------------------------------------------------------------------------
# rate mapping
# ---------------------------------------------------------------------------

def test_link_rate_reference_point():
    # 180 kHz * 1 ms * log2(1 + 1) = 180 bits for one PRB at 0 dB
    g = mk_grid(prb_bw=180e3, numerology=0)
    assert link_rate(0.0, 1.0, g) == 180.0


def test_link_rate_monotone_and_capped():
    g = mk_grid()
    rates = [link_rate(s, 1.0, g) for s in range(-10, 45, 5)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert link_rate(SINR_CAP_DB, 1.0, g) == link_rate(SINR_CAP_DB + 25.0, 1.0, g)


def test_link_rate_efficiency_knob():
    g = mk_grid(prb_bw=180e3)
    full = link_rate(0.0, 1.0, g)
    assert link_rate(0.0, 0.5, g) == math.floor(full * 0.5)
    with pytest.raises(ValueError):
        link_rate(0.0, 0.0, g)
    with pytest.raises(ValueError):
        link_rate(0.0, 1.5, g)


#: puts 180 kHz over a 1 ms slot at 1000 bits at the cap, give or take rounding
_WHOLE_AT_CAP = 1000.0 / (180.0 * math.log2(1001.0))

_links = st.tuples(
    st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.5, 0.8, 1.0, _WHOLE_AT_CAP])),
    st.builds(mk_grid, numerology=st.integers(0, 4),
              prb_bw=st.sampled_from([180e3, 360e3, 720e3, 123_456.0])),
)


def _block(rows, tol, offsets=None):
    """``link_rates`` on rows of (link, exact SINRs), each estimate moved
    from its exact SINR by ``offsets`` (in units of ``tol``), against
    ``link_rate`` at every exact SINR."""
    exact = [sinrs for _, sinrs in rows]
    est = np.array(exact)
    if offsets is not None:
        est = est + np.reshape(offsets[: est.size], est.shape) * tol
    got = link_rates(est, [link for link, _ in rows], tol, lambda i, j: exact[i][j])
    assert got == [[link_rate(s, *link) for s in sinrs] for link, sinrs in rows]


@settings(max_examples=300)
@given(
    links=st.lists(_links, min_size=1, max_size=4),
    sinrs=st.lists(st.floats(-80.0, 80.0), min_size=12, max_size=12),
    offsets=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=48, max_size=48),
    tol=st.sampled_from([0.0, SIGNAL_ESTIMATE_TOL_DB]),
)
def test_link_rates_are_link_rate_at_random_sinrs(links, sinrs, offsets, tol):
    _block([(link, sinrs) for link in links], tol, offsets if tol else None)


def _breakpoints(eff, grid):
    """The first float SINR of every whole-bit level below the cap, from
    ``link_rate`` itself: bisection around the analytic level down to two
    adjacent floats."""
    k = grid.prb_bandwidth_hz * grid.slot_seconds * eff
    out = []
    for m in range(1, int(link_rate(SINR_CAP_DB, eff, grid)) + 1):
        s = 10.0 * math.log10(math.expm1(m / k * math.log(2.0)))
        lo, hi = s - 1e-9 * (1.0 + abs(s)), s + 1e-9 * (1.0 + abs(s))
        assert link_rate(lo, eff, grid) < m <= link_rate(hi, eff, grid)
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (lo, mid) if link_rate(mid, eff, grid) >= m else (mid, hi)
        out.append(hi)
    return out


@settings(max_examples=20)
@given(link=_links, tol=st.sampled_from([0.0, SIGNAL_ESTIMATE_TOL_DB]))
@example(link=(_WHOLE_AT_CAP, mk_grid()), tol=SIGNAL_ESTIMATE_TOL_DB)
def test_link_rates_are_link_rate_at_every_breakpoint_and_the_cap(link, tol):
    """Estimates that are the exact SINR, one ulp either side of each rate
    step, and at and around the cap and the cap plus ``tol``."""
    sinrs = [
        t for s in _breakpoints(*link)
        for t in (math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf))
    ]
    for c in (SINR_CAP_DB, SINR_CAP_DB + tol, SINR_CAP_DB + 2 * tol):
        sinrs += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
    _block([(link, sinrs + [80.0, 1e6])], tol)


def test_capacity_score_is_whole_grid_at_reference_sinr():
    g = mk_grid(prbs=40)
    assert capacity_score(g) == 40 * link_rate(CAPACITY_REF_SINR_DB, 1.0, g)


# ---------------------------------------------------------------------------
# capability descriptors
# ---------------------------------------------------------------------------

def test_descriptor_classes_follow_geometry():
    macro = mk_cell(cell_class=CellClass.MACRO, grid=mk_grid(numerology=0))
    small = mk_cell("s1", cell_class=CellClass.SMALL, grid=mk_grid(numerology=1, carrier_hz=3.5e9))
    d_macro = describe_cell(macro)
    d_small = describe_cell(small)
    assert d_macro.coverage_class == "wide" and d_macro.latency_class == "normal"
    assert d_small.coverage_class == "local" and d_small.latency_class == "low"


def test_descriptor_ignores_technology_label():
    """Two cells that differ only in their RAT label describe identically."""
    a = mk_cell("c", rat_tag="lte")
    b = mk_cell("c", rat_tag="proprietary-mesh")
    assert describe_cell(a) == describe_cell(b)


def test_descriptor_field_validation():
    with pytest.raises(ValueError):
        CapabilityDescriptor("c", -1.0, "low", "wide", True, True)
    with pytest.raises(ValueError):
        CapabilityDescriptor("c", 1.0, "tiny", "wide", True, True)


# ---------------------------------------------------------------------------
# plugin registry
# ---------------------------------------------------------------------------

def _rec(fid, interacts=("none",)):
    return FeatureRecord(
        feature_id=fid,
        inputs=("cell_load",),
        outputs=("handover",),
        location=PluginLocation.BELOW_UTS,
        interacts_with=interacts,
        scenarios=("any",),
    )


def test_registry_register_and_lookup():
    reg = PluginRegistry()
    reg.register(_rec("f1"), evaluator=lambda ctx, rec, thr: [])
    reg.register(_rec("f2"))
    assert [r.feature_id for r in reg.records()] == ["f1", "f2"]
    assert reg.get("f1").feature_id == "f1"
    assert callable(reg.evaluator_for("f1"))
    assert reg.evaluator_for("f2") is None
    with pytest.raises(KeyError):
        reg.get("nope")


def test_registry_refuses_duplicate_ids():
    reg = PluginRegistry()
    reg.register(_rec("f1"))
    with pytest.raises(DuplicateIdError):
        reg.register(_rec("f1"))


def test_feature_record_requires_all_four_declarations():
    with pytest.raises(ValueError):
        FeatureRecord("f", (), ("handover",), PluginLocation.BELOW_UTS, ("none",), ("any",))
    with pytest.raises(ValueError):
        FeatureRecord("f", ("x",), ("handover",), PluginLocation.BELOW_UTS, ("none",), ())
