"""Radio channel model: log-distance pathloss, counter-seeded fast fading,
and the fading-free SINR seen by a UE toward a cell.

Fading is replayable: the dB excursion for (ue, cell, slot) comes from a
counter-based hash, so any slot can be evaluated independently, or a block
of slots in one call, and the whole surface is a pure function of the fading
seed. The engine adds the excursion to the mean SINR for each slot's rate.

``rsrp_estimate`` is ``rsrp_dbm`` in numpy over a block of pairs, within
``SIGNAL_ESTIMATE_TOL_DB`` of it at every SIMD dispatch level: it rules pairs out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Cell, CellClass, Config, finite_rules

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Log-distance pathloss exponents per cell class.
DEFAULT_EXPONENTS: dict[CellClass, float] = {
    CellClass.MACRO: 3.5,
    CellClass.SMALL: 2.2,
    CellClass.AP: 2.2,
}


@dataclass(frozen=True)
class ChannelConfig(Config):
    fading_scale: float = 1.0
    #: None stands for the run seed; the engine fills it in before use.
    fading_seed: int | None = None
    noise_psd_dbm_hz: float = -174.0
    interference_margin_db: float = 3.0
    min_distance_m: float = 1.0

    def rules(self):
        return (("fading_scale", self.fading_scale >= 0, "must be >= 0"),
                ("min_distance_m", self.min_distance_m > 0, "must be positive"),
                *finite_rules(self, "fading_scale", "noise_psd_dbm_hz",
                              "interference_margin_db", "min_distance_m"))


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
    n = DEFAULT_EXPONENTS[cell.cell_class]
    return reference_pathloss_db(cell.grid.carrier_hz) + 10.0 * n * math.log10(d)


def rsrp_dbm(cfg: ChannelConfig, cell: Cell, position: tuple[float, float]) -> float:
    return cell.tx_power_dbm - pathloss_db(cfg, cell, position)


#: How far ``rsrp_estimate`` may lie from ``rsrp_dbm``, in dB: 10**7 times the
#: largest gap (5.7e-14 dB) over 200,000 random pairs within 2 km, carriers of
#: 0.7-6 GHz and both exponents, numpy 2.4.6 with AVX-512 kernels on and off.
SIGNAL_ESTIMATE_TOL_DB = 1e-6


def cell_constants(cells) -> np.ndarray:
    """Rows x, y, tx power, reference pathloss and 10 * exponent, a column
    per cell: what ``rsrp_estimate`` reads of the cells."""
    return np.array([
        (*c.position, c.tx_power_dbm, reference_pathloss_db(c.grid.carrier_hz),
         10.0 * DEFAULT_EXPONENTS[c.cell_class]) for c in cells
    ]).T


def rsrp_estimate(cfg: ChannelConfig, consts: np.ndarray, positions) -> np.ndarray:
    """``rsrp_dbm`` in its operation order, positions by row and the cells of
    ``consts`` by column: within ``SIGNAL_ESTIMATE_TOL_DB`` of the exact value.
    It broadcasts: ``consts`` of shape (5, P, 1, 1) against positions of shape
    (P, S, 2) give each of P pairs its own cell's value at S positions."""
    x, y, tx, ref, ten_n = consts
    p = np.asarray(positions, dtype=float)
    if p.ndim < 2:  # no position, or one
        p = p.reshape(-1, 2)
    d = np.maximum(np.hypot(p[..., :1] - x, p[..., 1:] - y), cfg.min_distance_m)
    return tx - (ref + ten_n * np.log10(d))


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


def fading_db(cfg: ChannelConfig, ue: int, cell: int, slot: int) -> float:
    """One value of ``fading_db_batch`` in ``math``, in its operation order:
    the same hash, so within 7.1e-15 dB of it, and equal to it with numpy's
    AVX-512 kernels off."""
    u = float(kernels.counter_uniform(cfg.fading_seed, ue, cell, slot)[0])
    if cfg.fading_scale == 0.0:
        return 0.0
    power = -math.log1p(-u)
    return cfg.fading_scale * 10.0 * math.log10(max(power, 1e-12))


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
