"""Radio channel model: log-distance pathloss, counter-seeded fast fading,
and the fading-free SINR seen by a UE toward a cell.

Fading is replayable: the dB excursion for (ue, cell, slot) comes from a
counter-based hash, so any slot can be evaluated independently, or a block
of slots in one call, and the whole surface is a pure function of the fading
seed. The engine adds the excursion to the mean SINR for each slot's rate.
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
    #: None stands for the run seed; the engine fills it in before use.
    fading_seed: int | None = None
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


def fading_db_batch(cfg: ChannelConfig, ue_indices, cell_indices, slots) -> np.ndarray:
    """Rayleigh-style fading excursions in dB, broadcast over the UE, cell
    and slot indices: parallel pair arrays with one slot, or (pairs, 1)
    columns against a row of slots for a block of slots at once.

    The hash gives a uniform; -log(1-u) is the unit-mean exponential power of
    a Rayleigh envelope; 10*log10 of that is the dB excursion, scaled by
    fading_scale (0 disables fading exactly). The hash is integer-exact and
    every float step is elementwise, so a value does not depend on the block
    it is evaluated in.
    """
    u = kernels.counter_uniform(cfg.fading_seed, ue_indices, cell_indices, slots)
    if cfg.fading_scale == 0.0:
        return np.zeros_like(u)
    power = -np.log1p(-u)
    return cfg.fading_scale * 10.0 * np.log10(np.maximum(power, 1e-12))


def mean_sinr_db(cfg: ChannelConfig, cell: Cell, position: tuple[float, float]) -> float:
    """Fading-free SINR: RSRP - (noise floor + interference margin), the
    stable quantity used for demand estimation.

    Interference from other cells is folded into the fixed margin rather than
    tracked per-transmission; the margin is part of the channel config.
    """
    return (
        rsrp_dbm(cfg, cell, position)
        - noise_floor_dbm(cfg, cell.grid.prb_bandwidth_hz)
        - cfg.interference_margin_db
    )
