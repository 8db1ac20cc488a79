"""Grid/grant domain model: bounds, exclusivity, fairness, event formatting."""

import numpy as np
import pytest

from rrmsim.core import (
    AllocationMap,
    CarrierGrid,
    Cell,
    CellClass,
    DegenerateInputError,
    Event,
    Grant,
    OutOfRangeError,
    OverlapError,
    compute_fairness,
    validate_allocation_map,
    validate_blocks,
)

from conftest import mk_grid


# ---------------------------------------------------------------------------
# carrier grid
# ---------------------------------------------------------------------------

def test_grid_accepts_full_carrier_range_inclusive():
    CarrierGrid(450e6, 6, 0, 180e3)
    CarrierGrid(52.6e9, 66, 3, 1.44e6)


def test_grid_rejects_out_of_band_carriers():
    with pytest.raises(ValueError):
        CarrierGrid(449e6, 6, 0, 180e3)
    with pytest.raises(ValueError):
        CarrierGrid(52.7e9, 6, 0, 180e3)


@pytest.mark.parametrize("mu,slot_s,per_frame", [(0, 1e-3, 10), (1, 0.5e-3, 20), (4, 1e-3 / 16, 160)])
def test_grid_slot_clock_scales_with_numerology(mu, slot_s, per_frame):
    g = mk_grid(numerology=mu)
    assert g.slot_seconds == pytest.approx(slot_s)
    # a frame is always exactly 10 ms regardless of numerology
    assert per_frame * g.slot_seconds == pytest.approx(10e-3)


def test_grid_rejects_bad_shape():
    with pytest.raises(ValueError):
        CarrierGrid(2e9, 0, 0, 180e3)
    with pytest.raises(ValueError):
        CarrierGrid(2e9, 50, 5, 180e3)
    with pytest.raises(ValueError):
        CarrierGrid(2e9, 50, -1, 180e3)
    with pytest.raises(ValueError):
        CarrierGrid(2e9, 50, 0, 0.0)


# ---------------------------------------------------------------------------
# exclusive allocation
# ---------------------------------------------------------------------------

def test_add_block_refuses_overlap_and_stays_atomic():
    amap = AllocationMap(mk_grid(prbs=12), slot=0)
    amap.add_block(0, 5, "ue-a", "eMBB")
    with pytest.raises(OverlapError) as e:
        amap.add_block(4, 9, "ue-b", "eMBB")
    assert e.value.prb == 4
    assert e.value.holder == "ue-a"
    # nothing from the failed call landed
    assert amap.blocks() == [(0, 5, "ue-a", "eMBB")]
    amap.add_block(5, 12, "ue-b", "eMBB")
    assert len(amap) == 12


def test_add_block_bounds_checked_before_anything_lands():
    amap = AllocationMap(mk_grid(prbs=10), slot=3)
    amap.add_block(0, 2, "ue-a", "eMBB")
    with pytest.raises(OutOfRangeError) as e:
        amap.add_block(8, 11, "ue-b", "eMBB")
    assert e.value.prb == 10
    with pytest.raises(ValueError):
        amap.add_block(5, 4, "ue-b", "eMBB")
    assert amap.blocks() == [(0, 2, "ue-a", "eMBB")] and len(amap) == 2


def test_allocation_map_owner_queries():
    amap = AllocationMap(mk_grid(prbs=8), slot=0)
    amap.add_block(2, 3, "x", "URLLC")
    assert amap.blocks() == [(2, 3, "x", "URLLC")]
    assert amap.grants() == [Grant(prb=2, owner="x", purpose="URLLC")]
    assert len(amap) == 1


def _map_with_middle_block():
    amap = AllocationMap(mk_grid(prbs=20), slot=0)
    amap.add_block(5, 10, "ue-a", "eMBB")
    return amap


def test_add_block_refuses_overlap_at_left_edge():
    amap = _map_with_middle_block()
    with pytest.raises(OverlapError) as e:
        amap.add_block(2, 6, "ue-b", "eMBB")
    assert (e.value.prb, e.value.holder, e.value.claimant) == (5, "ue-a", "ue-b")
    amap.add_block(2, 5, "ue-b", "eMBB")  # touching is not overlapping


def test_add_block_refuses_overlap_at_right_edge():
    amap = _map_with_middle_block()
    with pytest.raises(OverlapError) as e:
        amap.add_block(9, 14, "ue-b", "eMBB")
    assert (e.value.prb, e.value.holder) == (9, "ue-a")
    amap.add_block(10, 14, "ue-b", "eMBB")


def test_add_block_refuses_containment_either_way():
    amap = _map_with_middle_block()
    with pytest.raises(OverlapError) as e:
        amap.add_block(6, 8, "ue-b", "eMBB")  # inside the held block
    assert e.value.prb == 6
    with pytest.raises(OverlapError) as e:
        amap.add_block(0, 20, "ue-b", "eMBB")  # around the held block
    assert e.value.prb == 5
    assert amap.blocks() == [(5, 10, "ue-a", "eMBB")]
    assert len(amap) == 5


def test_add_block_range_checks_start_and_stop():
    amap = AllocationMap(mk_grid(prbs=10), slot=0)
    for start, stop, bad in ((-1, 3, -1), (10, 11, 10), (8, 11, 10), (12, 14, 12)):
        with pytest.raises(OutOfRangeError) as e:
            amap.add_block(start, stop, "ue-a", "eMBB")
        assert e.value.prb == bad
    with pytest.raises(ValueError):
        amap.add_block(4, 4, "ue-a", "eMBB")
    assert len(amap) == 0 and amap.blocks() == []
    amap.add_block(0, 10, "ue-a", "eMBB")  # the whole grid fits
    assert len(amap) == 10


def test_add_block_failure_leaves_blocks_untouched():
    amap = AllocationMap(mk_grid(prbs=12), slot=0)
    amap.add_block(3, 6, "ue-a", "eMBB")
    amap.add_block(9, 11, "ue-b", "eMBB")
    before = amap.blocks()
    for start, stop in ((0, 4), (5, 10), (6, 13), (11, 13)):
        with pytest.raises((OverlapError, OutOfRangeError)):
            amap.add_block(start, stop, "ue-c", "eMBB")
        assert amap.blocks() == before
        assert len(amap) == 5
    assert [g.prb for g in amap.grants()] == [3, 4, 5, 9, 10]


def test_grants_expand_blocks_in_prb_order_and_validate():
    g = mk_grid(prbs=16)
    amap = AllocationMap(g, slot=0)
    amap.add_block(10, 13, "ue-c", "URLLC")  # added out of PRB order
    amap.add_block(0, 1, "ue-a", "rach")
    amap.add_block(4, 7, "ue-b", "eMBB")
    grants = amap.grants()
    assert [g.prb for g in grants] == [0, 4, 5, 6, 10, 11, 12]
    assert [g.owner for g in grants] == ["ue-a"] + ["ue-b"] * 3 + ["ue-c"] * 3
    assert grants[-1] == Grant(prb=12, owner="ue-c", purpose="URLLC")
    assert len(amap) == len(grants)
    assert validate_allocation_map(g, grants) == []
    assert validate_blocks(g, amap.blocks()) == []
    assert amap.blocks() == [
        (0, 1, "ue-a", "rach"), (4, 7, "ue-b", "eMBB"), (10, 13, "ue-c", "URLLC")
    ]


def test_validate_blocks_flags_out_of_range_and_overlap():
    g = mk_grid(prbs=10)
    vs = validate_blocks(
        g,
        [(6, 9, "c", "eMBB"), (0, 4, "a", "eMBB"), (3, 5, "b", "eMBB"),
         (8, 11, "d", "eMBB"), (7, 8, "e", "eMBB"), (2, 2, "f", "eMBB")],
    )
    kinds = {(v.prb, v.kind) for v in vs}
    assert kinds == {(3, "overlap"), (7, "overlap"), (8, "out_of_range"), (2, "out_of_range")}


def test_validate_empty_is_clean():
    assert validate_allocation_map(mk_grid(), []) == []


def test_validate_flags_out_of_range_and_overlap():
    g = mk_grid(prbs=10)
    vs = validate_allocation_map(
        g,
        [Grant(3, "a", "eMBB"), Grant(11, "b", "eMBB"), Grant(3, "c", "eMBB")],
    )
    kinds = {(v.prb, v.kind) for v in vs}
    assert kinds == {(11, "out_of_range"), (3, "overlap")}


def test_validate_random_disjoint_grants_are_clean():
    rng = np.random.default_rng(7)
    g = mk_grid(prbs=200)
    for _ in range(50):
        prbs = rng.choice(200, size=rng.integers(1, 150), replace=False)
        grants = [Grant(int(p), f"ue{int(p) % 9}", "eMBB") for p in prbs]
        assert validate_allocation_map(g, grants) == []


def test_map_built_through_add_always_validates_clean():
    """AllocationMap cannot be coaxed into a state the auditor rejects."""
    rng = np.random.default_rng(11)
    g = mk_grid(prbs=40)
    for trial in range(30):
        amap = AllocationMap(g, slot=trial)
        for _ in range(60):
            prb = int(rng.integers(0, 45))
            try:
                amap.add_block(prb, prb + 1, f"ue{int(rng.integers(4))}", "eMBB")
            except (OverlapError, OutOfRangeError):
                pass
        assert validate_allocation_map(g, amap.grants()) == []


# ---------------------------------------------------------------------------
# cells and UEs
# ---------------------------------------------------------------------------

def test_cell_and_ue_validation():
    with pytest.raises(ValueError):
        Cell("", CellClass.MACRO, mk_grid(), (0, 0), 43.0)
    with pytest.raises(ValueError):
        Cell("c", CellClass.MACRO, mk_grid(), (0, 0), float("nan"))


# ---------------------------------------------------------------------------
# fairness
# ---------------------------------------------------------------------------

def test_fairness_examples():
    assert compute_fairness([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert compute_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert compute_fairness([1.0, 1.0, 1.0, 1.0, 2.0]) == pytest.approx(0.9)


def test_fairness_scale_invariant_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        xs = rng.uniform(0.0, 50.0, size=rng.integers(1, 12))
        if not xs.any():
            continue
        f = compute_fairness(xs)
        assert 0.0 < f <= 1.0 + 1e-12
        assert compute_fairness(xs * 37.5) == pytest.approx(f)
        # 1/n lower bound is met exactly by a single non-zero entry
        assert f >= 1.0 / len(xs) - 1e-12


def test_fairness_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        compute_fairness([])
    with pytest.raises(DegenerateInputError):
        compute_fairness([0.0, 0.0])
    with pytest.raises(ValueError):
        compute_fairness([1.0, -2.0])


# ---------------------------------------------------------------------------
# event log records
# ---------------------------------------------------------------------------

def test_event_formatting_is_deterministic():
    a = Event.make(12, "mac", "partition", cell="c1", share=1.0 / 3.0)
    b = Event.make(12, "mac", "partition", cell="c1", share=1.0 / 3.0)
    assert a == b
    assert a.format() == b.format()
    assert a.format() == "12 mac partition cell=c1 share=0.333333"


def test_event_preserves_field_order_and_lookup():
    e = Event.make(0, "uts", "steer", b="2", a="1")
    assert e.format().endswith("b=2 a=1")
    assert e.get("a") == "1"
    assert e.get("missing") is None
