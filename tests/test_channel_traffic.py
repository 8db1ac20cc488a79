"""Propagation model and traffic generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.channel import (
    ChannelConfig,
    fading_db,
    fading_db_batch,
    mean_sinr_db,
    noise_floor_dbm,
    pathloss_db,
    reference_pathloss_db,
    rsrp_dbm,
    sinr_db,
)
from rrmsim.core import CellClass
from rrmsim.traffic import (
    FullBuffer,
    PeriodicDeadline,
    PoissonSporadic,
    gen_traffic,
    make_generator,
)

from conftest import mk_cell, mk_grid


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_pathloss_doubles_distance_by_exponent():
    cfg = ChannelConfig()
    macro = mk_cell()
    small = mk_cell("s", cell_class=CellClass.SMALL)
    for d in (10.0, 80.0, 333.0):
        dm = pathloss_db(cfg, macro, (d, 0.0))
        assert pathloss_db(cfg, macro, (2 * d, 0.0)) - dm == pytest.approx(35.0 * math.log10(2.0))
        ds = pathloss_db(cfg, small, (d, 0.0))
        assert pathloss_db(cfg, small, (2 * d, 0.0)) - ds == pytest.approx(22.0 * math.log10(2.0))


def test_pathloss_clamps_at_min_distance():
    cfg = ChannelConfig(min_distance_m=1.0)
    cell = mk_cell()
    assert pathloss_db(cfg, cell, (0.0, 0.0)) == pathloss_db(cfg, cell, (0.5, 0.0))
    assert pathloss_db(cfg, cell, (1.0, 0.0)) == pytest.approx(
        reference_pathloss_db(cell.grid.carrier_hz)
    )


def test_rsrp_and_noise_floor():
    cfg = ChannelConfig()
    cell = mk_cell(tx_power_dbm=43.0)
    pos = (120.0, 0.0)
    assert rsrp_dbm(cfg, cell, pos) == pytest.approx(43.0 - pathloss_db(cfg, cell, pos))
    assert noise_floor_dbm(cfg, 180e3) == pytest.approx(-174.0 + 10 * math.log10(180e3))


def test_mean_sinr_is_fading_free_link_budget():
    cfg = ChannelConfig(interference_margin_db=3.0)
    cell = mk_cell()
    pos = (60.0, 25.0)
    expect = rsrp_dbm(cfg, cell, pos) - noise_floor_dbm(cfg, 180e3) - 3.0
    assert mean_sinr_db(cfg, cell, pos) == pytest.approx(expect)


def test_fading_replayable_and_scale_zero_exact():
    cfg = ChannelConfig(fading_seed=11)
    assert fading_db(cfg, 3, 1, 500) == fading_db(cfg, 3, 1, 500)
    off = ChannelConfig(fading_scale=0.0, fading_seed=11)
    assert all(fading_db(off, u, c, s) == 0.0 for u in range(3) for c in range(2) for s in range(5))
    # a different seed reshuffles the excursions
    other = ChannelConfig(fading_seed=12)
    vals = [fading_db(cfg, 0, 0, s) for s in range(20)]
    assert vals != [fading_db(other, 0, 0, s) for s in range(20)]


def test_fading_batch_matches_scalar():
    cfg = ChannelConfig(fading_seed=4, fading_scale=1.0)
    ues = np.arange(40)
    cells = np.repeat(np.arange(4), 10)
    batch = fading_db_batch(cfg, ues, cells, slot=77)
    scalar = np.array([fading_db(cfg, int(u), int(c), 77) for u, c in zip(ues, cells)])
    assert np.array_equal(batch, scalar)


def test_fading_has_roughly_zero_median_in_power():
    """-log(1-u) has unit mean, so dB excursions straddle 0 about evenly."""
    cfg = ChannelConfig(fading_seed=9)
    xs = fading_db_batch(cfg, np.arange(4000), np.zeros(4000, dtype=int), 0)
    frac_below = float((xs < 0).mean())
    assert 0.5 < frac_below < 0.75  # median of the exponential is log(2) < 1


def test_sinr_composes_budget_and_fading():
    cfg = ChannelConfig(fading_seed=2)
    cell = mk_cell()
    pos = (90.0, 0.0)
    got = sinr_db(cfg, cell, pos, ue_index=5, cell_index=0, slot=13)
    assert got == pytest.approx(mean_sinr_db(cfg, cell, pos) + fading_db(cfg, 5, 0, 13))


# ---------------------------------------------------------------------------
# traffic generators
# ---------------------------------------------------------------------------

def test_full_buffer_keeps_watermark():
    g = FullBuffer(packet_bits=1000, watermark_bits=5000)
    rng = np.random.default_rng(0)
    burst = gen_traffic(g, 0, rng, queued_bits=0.0)
    assert sum(burst) >= 5000 and set(burst) == {1000}
    assert gen_traffic(g, 1, rng, queued_bits=5000.0) == []
    assert gen_traffic(g, 2, rng, queued_bits=4999.0) == [1000]


def test_periodic_deadline_arrival_slots():
    g = PeriodicDeadline(period_slots=10, packet_bits=800, deadline_slots=10, offset_slots=3)
    rng = np.random.default_rng(0)
    arrivals = [s for s in range(50) if gen_traffic(g, s, rng)]
    assert arrivals == [3, 13, 23, 33, 43]
    assert gen_traffic(g, 13, rng) == [800]
    assert gen_traffic(g, 14, rng) == []


def test_poisson_count_matches_rate():
    g = PoissonSporadic(rate_per_slot=1.0, packet_bits=256)
    rng = np.random.default_rng(123)
    n = sum(len(gen_traffic(g, s, rng)) for s in range(1000))
    # 1000 expected arrivals; allow three standard deviations
    assert abs(n - 1000) <= 3 * math.sqrt(1000)


def test_poisson_reproducible_per_seed():
    def trace(seed):
        g, rng = PoissonSporadic(0.3), np.random.default_rng(seed)
        return [gen_traffic(g, s, rng) for s in range(200)]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_make_generator_factory():
    g = make_generator("periodic_deadline", {"period_slots": 4})
    assert isinstance(g, PeriodicDeadline) and g.period_slots == 4
    assert isinstance(make_generator("full_buffer"), FullBuffer)
    with pytest.raises(ValueError):
        make_generator("bursty_fractal")


@settings(max_examples=200, deadline=None)
@given(
    per_cell=st.lists(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=70),
        min_size=1,
        max_size=8,
    ),
    slot=st.integers(min_value=0, max_value=2**31),
    seed=st.integers(min_value=0, max_value=2**63),
    scale=st.sampled_from([0.0, 1.0, 0.37, 2.5]),
)
def test_fading_one_batch_over_all_cells_equals_per_cell_calls(per_cell, slot, seed, scale):
    cfg = ChannelConfig(fading_seed=seed, fading_scale=scale)
    ue_idx = np.array([u for ues in per_cell for u in ues], dtype=np.uint64)
    cell_idx = np.array([c for c, ues in enumerate(per_cell) for _ in ues], dtype=np.uint64)
    batch = fading_db_batch(cfg, ue_idx, cell_idx, slot).tolist()
    per_call = []
    for c, ues in enumerate(per_cell):
        per_call += fading_db_batch(
            cfg, np.array(ues, dtype=np.uint64), np.full(len(ues), c, dtype=np.uint64), slot
        ).tolist()
    assert batch == per_call
