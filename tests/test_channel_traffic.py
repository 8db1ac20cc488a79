"""Propagation model and traffic generators."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.abstraction import link_rate
from rrmsim.channel import (
    ChannelConfig,
    fading_db,
    fading_db_batch,
    mean_sinr_db,
    noise_floor_dbm,
    pathloss_db,
    reference_pathloss_db,
    rsrp_dbm,
)
from rrmsim.core import CellClass
from rrmsim.engine import World
from rrmsim.kernels import counter_uniform
from rrmsim.scenario import scenario_from_dict
from rrmsim.traffic import (
    FullBuffer,
    PeriodicDeadline,
    PoissonSporadic,
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


def _fading(cfg, ue, cell, slot):
    """One pair's excursion at one slot, from a call of its own."""
    return float(fading_db_batch(cfg, [ue], [cell], slot)[0])


def test_one_fading_value_in_math_is_the_block_value():
    """``fading_db`` lies within 1e-14 dB of ``fading_db_batch``, and with
    ``NPY_DISABLE_CPU_FEATURES`` set (numpy's AVX-512 kernels off, as CI
    runs it) is the same float."""
    exact = bool(os.environ.get("NPY_DISABLE_CPU_FEATURES"))
    ues, cells = np.repeat(np.arange(30), 4), np.tile(np.arange(4), 30)
    slots = np.arange(1000, 1064)
    for seed, scale in ((1, 1.0), (1009, 1.0), (2**63 + 5, 1.0), (7, 0.0)):
        cfg = ChannelConfig(fading_seed=seed, fading_scale=scale)
        block = fading_db_batch(cfg, ues[:, None], cells[:, None], slots.astype(np.uint64))
        for i, (ue, cell) in enumerate(zip(ues.tolist(), cells.tolist())):
            for j, slot in enumerate(slots.tolist()):
                one = fading_db(cfg, ue, cell, slot)
                assert one == block[i, j] if exact else abs(one - block[i, j]) <= 1e-14


def test_fading_replayable_and_scale_zero_exact():
    cfg = ChannelConfig(fading_seed=11)
    assert _fading(cfg, 3, 1, 500) == _fading(cfg, 3, 1, 500)
    off = ChannelConfig(fading_scale=0.0, fading_seed=11)
    assert all(_fading(off, u, c, s) == 0.0 for u in range(3) for c in range(2) for s in range(5))
    ues, cells = np.repeat(np.arange(3), 2)[:, None], np.tile(np.arange(2), 3)[:, None]
    block = fading_db_batch(off, ues, cells, np.arange(5))
    assert block.shape == (6, 5) and not block.any()
    # a different seed reshuffles the excursions
    other = ChannelConfig(fading_seed=12)
    vals = [_fading(cfg, 0, 0, s) for s in range(20)]
    assert vals != [_fading(other, 0, 0, s) for s in range(20)]


def test_fading_batch_matches_scalar():
    """A batch over pairs gives each pair's value from a call of its own."""
    cfg = ChannelConfig(fading_seed=4, fading_scale=1.0)
    ues = np.arange(40)
    cells = np.repeat(np.arange(4), 10)
    batch = fading_db_batch(cfg, ues, cells, 77)
    scalar = np.array([_fading(cfg, int(u), int(c), 77) for u, c in zip(ues, cells)])
    assert np.array_equal(batch, scalar)


@settings(max_examples=200)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 2**20), st.integers(0, 64)), min_size=1, max_size=40
    ),
    n_slots=st.integers(min_value=1, max_value=20),
    first=st.one_of(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2**32 - 25, max_value=2**32 + 5),
    ),
    seed=st.integers(min_value=0, max_value=2**63),
    scale=st.sampled_from([0.0, 1.0, 0.37, 2.5]),
)
def test_a_block_of_slots_equals_one_call_per_slot_bit_for_bit(
    pairs, n_slots, first, seed, scale
):
    """(pairs, 1) columns against a row of slots: column j is the per-slot
    call at slot first + j, to the last bit, and both are the float steps
    -log1p(-u), maximum, log10 and (scale * 10) * in that order."""
    cfg = ChannelConfig(fading_seed=seed, fading_scale=scale)
    ues = np.array([u for u, _ in pairs], dtype=np.uint64)
    cells = np.array([c for _, c in pairs], dtype=np.uint64)
    slots = np.arange(first, first + n_slots, dtype=np.uint64)
    block = fading_db_batch(cfg, ues[:, None], cells[:, None], slots)
    per_slot = np.stack([fading_db_batch(cfg, ues, cells, int(s)) for s in slots], axis=1)
    assert block.shape == (len(pairs), n_slots)
    assert np.array_equal(block.view(np.uint64), per_slot.view(np.uint64))
    u = counter_uniform(seed, ues[:, None], cells[:, None], slots)
    steps = (scale * 10.0) * np.log10(np.maximum(-np.log1p(-u), 1e-12))
    expected = steps if scale else np.zeros_like(u)
    assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))


def test_fading_has_roughly_zero_median_in_power():
    """-log(1-u) has unit mean, so dB excursions straddle 0 about evenly."""
    cfg = ChannelConfig(fading_seed=9)
    xs = fading_db_batch(cfg, np.arange(4000), np.zeros(4000, dtype=int), 0)
    frac_below = float((xs < 0).mean())
    assert 0.5 < frac_below < 0.75  # median of the exponential is log(2) < 1


def test_sinr_composes_budget_and_fading():
    """The engine's per-PRB rate is link_rate at mean SINR + fading."""
    cfg = scenario_from_dict(
        {
            "name": "one_cell",
            "channel": {"fading_seed": 2},
            "network": {"cells": [{"id": "c1", "position": [0.0, 0.0]}]},
            "ues": [{"id": f"u{i}", "position": [40.0 + 30.0 * i, 0.0]} for i in range(6)],
            "traffic": {
                "flows": [
                    {"id": "f5", "ue": "u5", "service": "eMBB",
                     "generator": {"kind": "full_buffer", "packet_bits": 1500,
                                   "watermark_bits": 6000}}
                ]
            },
        }
    )
    w = World(cfg)
    w.slot = 13
    ((cr, inputs),) = w._channel_inputs()
    ((ue, pk), rate), = inputs.per_prb_bits.items()
    at = w._position_at(w.ues[ue], 13)
    sinr = mean_sinr_db(w.chan, cr.mac.cell, at) + _fading(w.chan, 5, 0, 13)
    eff = cr.mac.portions[pk].waveform_efficiency
    assert ue == "u5" and rate == link_rate(sinr, eff, cr.mac.cell.grid)


# ---------------------------------------------------------------------------
# traffic generators
# ---------------------------------------------------------------------------

def test_full_buffer_keeps_watermark():
    g = FullBuffer(packet_bits=1000, watermark_bits=5000)
    rng = np.random.default_rng(0)
    count, bits = g.step(0, rng, queued_bits=0.0)
    assert count * bits >= 5000 and bits == 1000
    assert g.step(1, rng, queued_bits=5000.0)[0] == 0
    assert g.step(2, rng, queued_bits=4999.0) == (1, 1000)


def test_periodic_deadline_arrival_slots():
    g = PeriodicDeadline(period_slots=10, packet_bits=800, deadline_slots=10, offset_slots=3)
    rng = np.random.default_rng(0)
    arrivals = [s for s in range(50) if g.step(s, rng, 0.0)[0]]
    assert arrivals == [3, 13, 23, 33, 43]
    assert g.step(13, rng, 0.0) == (1, 800)
    assert g.step(14, rng, 0.0)[0] == 0


def test_poisson_count_matches_rate():
    g = PoissonSporadic(rate_per_slot=1.0, packet_bits=256)
    rng = np.random.default_rng(123)
    n = sum(g.step(s, rng, 0.0)[0] for s in range(1000))
    # 1000 expected arrivals; allow three standard deviations
    assert abs(n - 1000) <= 3 * math.sqrt(1000)


@settings(max_examples=300)
@given(
    packet_bits=st.integers(min_value=1, max_value=20_000),
    watermark_bits=st.integers(min_value=0, max_value=200_000),
    queued_bits=st.integers(min_value=0, max_value=250_000),
)
def test_full_buffer_count_equals_topping_up_one_packet_at_a_time(
    packet_bits, watermark_bits, queued_bits
):
    count, bits = FullBuffer(packet_bits, watermark_bits).step(0, None, float(queued_bits))
    level, want = float(queued_bits), 0
    while level < watermark_bits:
        level += packet_bits
        want += 1
    assert (count, bits) == (want, packet_bits) and type(count) is int


def test_poisson_reproducible_per_seed():
    def trace(seed):
        g, rng = PoissonSporadic(0.3), np.random.default_rng(seed)
        return [g.step(s, rng, 0.0) for s in range(200)]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_make_generator_factory():
    g = make_generator("periodic_deadline", {"period_slots": 4})
    assert isinstance(g, PeriodicDeadline) and g.period_slots == 4
    assert isinstance(make_generator("full_buffer"), FullBuffer)
    with pytest.raises(ValueError):
        make_generator("bursty_fractal")


@settings(max_examples=200)
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
