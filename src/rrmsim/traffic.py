"""Per-flow traffic sources.

Three generator kinds: a saturated source that keeps a queue topped up, a
sporadic small-packet source with Poisson arrivals, and a strictly periodic
source with a delivery deadline. Every packet of a generator has the same
size, so each step returns ``(count, bits)``: how many packets arrive in that
slot and the size of each.

A flow's config holds its generator, one of these frozen objects, which
every World built from that config shares: ``step`` keeps no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Config, finite_rules


# a size in bits must be below 2**53, or run arithmetic rounds it
_AT_LEAST_0, _AT_LEAST_1 = "must be >= 0, got {}", "must be >= 1, got {}"
_BELOW = "must be below 2**53, got {}"


@dataclass(frozen=True)
class FullBuffer(Config):
    """Keeps at least ``watermark_bits`` queued by emitting fixed packets."""

    packet_bits: int = 1500 * 8
    watermark_bits: int = 10 * 1500 * 8

    def rules(self):
        p, w = self.packet_bits, self.watermark_bits
        return (("packet_bits", p >= 1, _AT_LEAST_1), ("watermark_bits", w >= 0, _AT_LEAST_0),
                ("packet_bits", p < 2**53, _BELOW), ("watermark_bits", w < 2**53, _BELOW))

    def step(self, slot: int, rng: np.random.Generator, queued_bits: float) -> tuple[int, int]:
        # the fewest packets that lift the queue to the watermark; bit
        # amounts are whole numbers, so the float floor division is exact
        deficit = self.watermark_bits - queued_bits
        return (int(-(-deficit // self.packet_bits)) if deficit > 0 else 0), self.packet_bits


@dataclass(frozen=True)
class PoissonSporadic(Config):
    """Small packets with Poisson-distributed arrivals per slot."""

    rate_per_slot: float = 0.01
    packet_bits: int = 256

    def rules(self):
        p = self.packet_bits
        return (("rate_per_slot", self.rate_per_slot >= 0, _AT_LEAST_0),
                *finite_rules(self, "rate_per_slot"),
                ("packet_bits", p >= 1, _AT_LEAST_1), ("packet_bits", p < 2**53, _BELOW))

    def step(self, slot: int, rng: np.random.Generator, queued_bits: float) -> tuple[int, int]:
        return int(rng.poisson(self.rate_per_slot)), self.packet_bits


@dataclass(frozen=True)
class PeriodicDeadline(Config):
    """One packet every ``period_slots``, due within ``deadline_slots``."""

    period_slots: int = 10
    packet_bits: int = 2000
    deadline_slots: int = 10
    offset_slots: int = 0

    def rules(self):
        # a URLLC reservation takes its period and offset from this generator
        p = self.packet_bits
        return (("period_slots", self.period_slots >= 1, _AT_LEAST_1),
                ("offset_slots", self.offset_slots >= 0, _AT_LEAST_0),
                ("deadline_slots", self.deadline_slots >= 0, _AT_LEAST_0),
                ("packet_bits", p >= 1, _AT_LEAST_1), ("packet_bits", p < 2**53, _BELOW))

    def step(self, slot: int, rng: np.random.Generator, queued_bits: float) -> tuple[int, int]:
        due = slot >= self.offset_slots and (slot - self.offset_slots) % self.period_slots == 0
        return int(due), self.packet_bits


GENERATOR_KINDS = {
    "full_buffer": FullBuffer,
    "poisson_sporadic": PoissonSporadic,
    "periodic_deadline": PeriodicDeadline,
}
