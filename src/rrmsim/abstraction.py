"""Technology abstraction layer: capability descriptors, common measurement
units, the rate model, and the feature-plugin registry.

Coordinators above this layer never see technology names. A cell is reduced to
a CapabilityDescriptor (what it can do, in numbers and flags) and raw
measurements are converted into two common units: ``signal_db`` turns RSRP
into a dB-domain signal quality and ``load_fraction`` turns queued demand
into a dimensionless load fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import Cell, CellClass, CarrierGrid

#: Post-conversion floor for signal quality: raw RSRP is offset by this so the
#: common signal axis starts near 0 for the weakest usable signal.
RSRP_FLOOR_DBM = -140.0

#: SINR above this contributes no additional rate (hardware/MCS ceiling).
SINR_CAP_DB = 30.0


class MeasureKind(str, Enum):
    SIGNAL_DB = "signal_db"
    LOAD_FRACTION = "load_fraction"


class DuplicateIdError(ValueError):
    """Raised when a feature id is registered twice."""


@dataclass(frozen=True)
class CommonMeasure:
    """A measurement after conversion to one of the two common units."""

    kind: MeasureKind
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"common measure must be finite, got {self.value}")
        if self.kind is MeasureKind.LOAD_FRACTION and not (0.0 <= self.value <= 1.0):
            raise ValueError(f"load fraction outside [0, 1]: {self.value}")


def signal_db(rsrp_dbm: float) -> CommonMeasure:
    """Received power in dBm as signal quality in dB above the -140 dBm
    floor; like every common measure, it must be finite."""
    return CommonMeasure(MeasureKind.SIGNAL_DB, rsrp_dbm - RSRP_FLOOR_DBM)


def load_fraction(queued: float, capacity: float) -> CommonMeasure:
    """Queued amount over capacity as a load fraction, clamped to [0, 1].
    The checks are negated comparisons so that nan fails them too, rather
    than pass through the clamp as a full load."""
    if not capacity > 0:
        raise ValueError(f"load fraction requires a positive capacity, got {capacity}")
    if not queued >= 0:
        raise ValueError(f"queued amount must be >= 0, got {queued}")
    return CommonMeasure(MeasureKind.LOAD_FRACTION, min(1.0, queued / capacity))


@dataclass(frozen=True)
class CapabilityDescriptor:
    """What a cell offers, with the technology name scrubbed out.

    Coordinators and steering features see a cell only through this, which
    is fixed for a run, and through common units such as its load fraction.
    ``latency_class`` is "low" when the slot is at most 0.5 ms, else "normal";
    ``coverage_class`` is "wide" for macro cells, "local" otherwise.
    """

    cell_id: str
    capacity_score: float
    latency_class: str
    coverage_class: str
    supports_duplication: bool
    supports_secondary_attach: bool

    def __post_init__(self):
        if self.capacity_score < 0:
            raise ValueError("capacity_score must be >= 0")
        if self.latency_class not in ("low", "normal"):
            raise ValueError(f"unknown latency_class {self.latency_class!r}")
        if self.coverage_class not in ("wide", "local"):
            raise ValueError(f"unknown coverage_class {self.coverage_class!r}")


def link_rate(sinr_db: float, waveform_efficiency: float, grid: CarrierGrid) -> float:
    """Deliverable bits for one PRB in one slot at the given SINR.

    Shannon-style with an efficiency knob: bandwidth * slot * efficiency *
    log2(1 + min(sinr, cap)), floored to whole bits, so a block of PRBs
    carries exactly its size times this, and the rate is monotone in SINR.
    """
    if not (0.0 < waveform_efficiency <= 1.0):
        raise ValueError(f"waveform_efficiency must be in (0, 1], got {waveform_efficiency}")
    lin = 10.0 ** (min(sinr_db, SINR_CAP_DB) / 10.0)
    per_prb = math.floor(
        grid.prb_bandwidth_hz * grid.slot_seconds * waveform_efficiency * math.log2(1.0 + lin)
    )
    return float(per_prb)


#: Per unit of ``link_rate``'s factor k = PRB bandwidth * slot * efficiency:
#: the most it rises per dB of SINR (its derivative is k * log2(10)/10 *
#: lin/(1 + lin)), and how far numpy's rate may lie from it at one SINR. Numpy's
#: pow and log2 may each differ from libm's by a few ulps (its SIMD kernels
#: promise 4), which moves log2(1 + lin) <= log2(1001) < 10 by under 1e-14,
#: and the product with k rounds once more, 2.2e-15: 1e-12 is 40 times both.
RATE_SLOPE_PER_DB, RATE_ROUNDING = math.log2(10.0) / 10.0, 1e-12


def link_rates(sinr_db: np.ndarray, links, tol_db: float, exact_sinr) -> list[list[float]]:
    """``link_rate`` over a block of SINR estimates, as lists by row: row i
    is for ``links[i]``, a (waveform efficiency, grid) pair, and entry (i, j)
    lies within ``tol_db`` of the SINR ``exact_sinr(i, j)``. Numpy rules each
    rate in: k * log2(1 + 10**(min(sinr, cap)/10)) lies within k *
    (RATE_SLOPE_PER_DB * tol_db + RATE_ROUNDING) of the exact value, so its
    floor is the rate unless a whole number lies that close; such an entry
    takes ``link_rate`` at ``exact_sinr(i, j)``. An estimate ``tol_db`` or
    more above the cap is surely capped, so both rates are taken at the cap
    itself and its margin is k * RATE_ROUNDING alone."""
    k = np.array([g.prb_bandwidth_hz * g.slot_seconds * eff for eff, g in links])[:, None]
    est = k * np.log2(1.0 + 10.0 ** (np.minimum(sinr_db, SINR_CAP_DB) / 10.0))
    rates = np.floor(est)
    slack = np.where(sinr_db >= SINR_CAP_DB + tol_db, 0.0, RATE_SLOPE_PER_DB * tol_db)
    for i, j in np.argwhere(np.abs(est - np.rint(est)) <= k * (slack + RATE_ROUNDING)).tolist():
        rates[i, j] = link_rate(exact_sinr(i, j), *links[i])
    return rates.tolist()


#: Reference SINR used when scoring a cell's standing capacity.
CAPACITY_REF_SINR_DB = 10.0


def capacity_score(grid: CarrierGrid, waveform_efficiency: float = 1.0) -> float:
    """Bits per slot the whole grid could carry at the reference SINR."""
    return grid.prbs_per_slot * link_rate(CAPACITY_REF_SINR_DB, waveform_efficiency, grid)


def describe_cell(cell: Cell, waveform_efficiency: float = 1.0) -> CapabilityDescriptor:
    """Reduce a cell to its technology-neutral descriptor.

    Deterministic in its inputs; reads the grid geometry and structural flags
    but never the cell's rat_tag.
    """
    return CapabilityDescriptor(
        cell_id=cell.cell_id,
        capacity_score=capacity_score(cell.grid, waveform_efficiency),
        latency_class="low" if cell.grid.slot_seconds <= 0.5e-3 else "normal",
        coverage_class="wide" if cell.cell_class is CellClass.MACRO else "local",
        supports_duplication=cell.supports_duplication,
        supports_secondary_attach=cell.supports_secondary,
    )


class PluginLocation(str, Enum):
    BELOW_UTS = "below_uts"
    ABOVE_UTS = "above_uts"


@dataclass(frozen=True)
class FeatureRecord:
    """Registration card for a pluggable feature.

    A feature must answer four questions to join the registry: what data it
    consumes and produces, where it sits relative to the steering layer, which
    other features it interacts with, and which scenarios it applies to.
    """

    feature_id: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    location: PluginLocation
    interacts_with: tuple[str, ...]
    scenarios: tuple[str, ...]

    def __post_init__(self):
        if not self.feature_id:
            raise ValueError("feature_id must be non-empty")
        for name, val in (
            ("inputs", self.inputs),
            ("outputs", self.outputs),
            ("interacts_with", self.interacts_with),
            ("scenarios", self.scenarios),
        ):
            if not val or any(not x for x in val):
                raise ValueError(f"{name} must be a non-empty tuple of non-empty strings")


class PluginRegistry:
    """Feature records plus optional evaluator callables, keyed by id."""

    def __init__(self):
        self._records: dict[str, FeatureRecord] = {}
        self._evaluators: dict[str, Callable] = {}

    def register(self, record: FeatureRecord, evaluator: Callable | None = None) -> "PluginRegistry":
        if record.feature_id in self._records:
            raise DuplicateIdError(f"feature {record.feature_id!r} already registered")
        self._records[record.feature_id] = record
        if evaluator is not None:
            self._evaluators[record.feature_id] = evaluator
        return self

    def get(self, feature_id: str) -> FeatureRecord:
        try:
            return self._records[feature_id]
        except KeyError:
            raise KeyError(f"unknown feature {feature_id!r}") from None

    def evaluator_for(self, feature_id: str) -> Callable | None:
        self.get(feature_id)  # raise on unknown id
        return self._evaluators.get(feature_id)

    def records(self) -> list[FeatureRecord]:
        return list(self._records.values())
