"""Radio channel model: log-distance pathloss, counter-seeded fast fading,
and the per-slot SINR seen by a UE toward a cell.

Fading is replayable: the dB excursion for (ue, cell, slot) comes from a
counter-based hash, so any slot can be evaluated independently and the whole
surface is a pure function of the fading seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import Cell, CellClass

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Log-distance pathloss exponents per cell class.
DEFAULT_EXPONENTS: dict[CellClass, float] = {
    CellClass.MACRO: 3.5,
    CellClass.SMALL: 2.2,
    CellClass.AP: 2.2,
}


@dataclass(frozen=True)
class ChannelConfig:
    fading_scale: float = 1.0
    fading_seed: int = 0
    noise_psd_dbm_hz: float = -174.0
    interference_margin_db: float = 3.0
    min_distance_m: float = 1.0

    def exponent(self, cell_class: CellClass) -> float:
        return DEFAULT_EXPONENTS[cell_class]


@functools.lru_cache(maxsize=64)
def reference_pathloss_db(carrier_hz: float) -> float:
    """Free-space loss at the 1 m reference distance; it depends on the
    carrier alone, so each carrier's value is computed once."""
    return 20.0 * math.log10(4.0 * math.pi * carrier_hz / SPEED_OF_LIGHT_M_S)


def pathloss_db(cfg: ChannelConfig, cell: Cell, position: tuple[float, float]) -> float:
    """Log-distance pathloss, with distance clamped below at min_distance_m."""
    dx = position[0] - cell.position[0]
    dy = position[1] - cell.position[1]
    d = max(math.hypot(dx, dy), cfg.min_distance_m)
    n = cfg.exponent(cell.cell_class)
    return reference_pathloss_db(cell.grid.carrier_hz) + 10.0 * n * math.log10(d)


def rsrp_dbm(cfg: ChannelConfig, cell: Cell, position: tuple[float, float]) -> float:
    return cell.tx_power_dbm - pathloss_db(cfg, cell, position)


def noise_floor_dbm(cfg: ChannelConfig, prb_bandwidth_hz: float) -> float:
    return cfg.noise_psd_dbm_hz + 10.0 * math.log10(prb_bandwidth_hz)


def fading_db(cfg: ChannelConfig, ue_index: int, cell_index: int, slot: int) -> float:
    """Rayleigh-style fading excursion in dB for one (ue, cell, slot) triple.

    The hash gives a uniform; -log(1-u) is the unit-mean exponential power of
    a Rayleigh envelope; 10*log10 of that is the dB excursion, scaled by
    fading_scale (0 disables fading exactly).
    """
    if cfg.fading_scale == 0.0:
        return 0.0
    # reuse the vector path so scalar and batch agree bit for bit
    return float(fading_db_batch(cfg, [ue_index], [cell_index], slot)[0])


def fading_db_batch(
    cfg: ChannelConfig, ue_indices, cell_indices, slot: int
) -> np.ndarray:
    """Vector form of fading_db over parallel index arrays."""
    u = kernels.counter_uniform(cfg.fading_seed, ue_indices, cell_indices, slot)
    if cfg.fading_scale == 0.0:
        return np.zeros_like(u)
    power = -np.log1p(-u)
    return cfg.fading_scale * 10.0 * np.log10(np.maximum(power, 1e-12))


def sinr_db(
    cfg: ChannelConfig,
    cell: Cell,
    position: tuple[float, float],
    ue_index: int,
    cell_index: int,
    slot: int,
) -> float:
    """Per-slot SINR: RSRP + fading - (noise floor + interference margin).

    Interference from other cells is folded into the fixed margin rather than
    tracked per-transmission; the margin is part of the channel config.
    """
    signal = rsrp_dbm(cfg, cell, position) + fading_db(cfg, ue_index, cell_index, slot)
    return signal - noise_floor_dbm(cfg, cell.grid.prb_bandwidth_hz) - cfg.interference_margin_db


def mean_sinr_db(cfg: ChannelConfig, cell: Cell, position: tuple[float, float]) -> float:
    """Fading-free SINR; the stable quantity used for demand estimation."""
    return (
        rsrp_dbm(cfg, cell, position)
        - noise_floor_dbm(cfg, cell.grid.prb_bandwidth_hz)
        - cfg.interference_margin_db
    )
