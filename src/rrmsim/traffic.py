"""Per-flow traffic sources.

Three generator kinds: a saturated source that keeps a queue topped up, a
sporadic small-packet source with Poisson arrivals, and a strictly periodic
source with a delivery deadline. Each step returns the packet sizes (bits)
arriving in that slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FullBuffer:
    """Keeps at least ``watermark_bits`` queued by emitting fixed packets."""

    packet_bits: int = 1500 * 8
    watermark_bits: int = 10 * 1500 * 8

    def step(self, slot: int, rng: np.random.Generator, queued_bits: float) -> list[int]:
        out = []
        level = queued_bits
        while level < self.watermark_bits:
            out.append(self.packet_bits)
            level += self.packet_bits
        return out


@dataclass
class PoissonSporadic:
    """Small packets with Poisson-distributed arrivals per slot."""

    rate_per_slot: float = 0.01
    packet_bits: int = 256

    def step(self, slot: int, rng: np.random.Generator, queued_bits: float) -> list[int]:
        k = int(rng.poisson(self.rate_per_slot))
        return [self.packet_bits] * k


@dataclass
class PeriodicDeadline:
    """One packet every ``period_slots``, due within ``deadline_slots``."""

    period_slots: int = 10
    packet_bits: int = 2000
    deadline_slots: int = 10
    offset_slots: int = 0

    def step(self, slot: int, rng: np.random.Generator, queued_bits: float) -> list[int]:
        if slot >= self.offset_slots and (slot - self.offset_slots) % self.period_slots == 0:
            return [self.packet_bits]
        return []


GENERATOR_KINDS = {
    "full_buffer": FullBuffer,
    "poisson_sporadic": PoissonSporadic,
    "periodic_deadline": PeriodicDeadline,
}


def make_generator(kind: str, params: dict | None = None):
    try:
        cls = GENERATOR_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown generator kind {kind!r}") from None
    return cls(**(params or {}))
