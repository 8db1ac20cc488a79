"""Physical-resource domain model: carrier grids, exclusive PRB grants,
cells, traffic classes, events, and the Jain fairness metric.

Everything downstream (MAC coordinators, flow control, steering) is built on
these types; they deliberately know nothing about scheduling policy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum, EnumMeta
from numbers import Integral, Real
from operator import itemgetter
from typing import Iterable, Sequence

# Carrier frequencies the model accepts, in Hz (sub-GHz through mmWave).
CARRIER_HZ_MIN = 450e6
CARRIER_HZ_MAX = 52.6e9

NUMEROLOGY_MIN = 0
NUMEROLOGY_MAX = 4


class TrafficClass(str, Enum):
    """Service categories a flow may belong to."""

    EMBB = "eMBB"
    MMTC = "mMTC"
    URLLC = "URLLC"
    LEGACY_MBB = "legacy_MBB"


#: Canonical ordering used whenever traffic classes key a partition. The
#: deadline class comes first so its reserved columns sit at the low PRB
#: indices and stay put while queue-driven partitions grow and shrink.
CLASS_ORDER: tuple[TrafficClass, ...] = (
    TrafficClass.URLLC,
    TrafficClass.EMBB,
    TrafficClass.LEGACY_MBB,
    TrafficClass.MMTC,
)


class CellClass(str, Enum):
    MACRO = "macro"
    SMALL = "small"
    AP = "ap"


class OverlapError(Exception):
    """Raised when a grant would reuse a PRB already granted in the slot."""

    def __init__(self, prb: int, holder: str, claimant: str):
        super().__init__(
            f"PRB {prb} already granted to {holder!r}; refused for {claimant!r}"
        )
        self.prb = prb
        self.holder = holder
        self.claimant = claimant


class OutOfRangeError(Exception):
    """Raised when a grant references a PRB index outside the grid."""

    def __init__(self, prb: int, n_prbs: int):
        super().__init__(f"PRB {prb} outside grid of {n_prbs} PRBs")
        self.prb = prb
        self.n_prbs = n_prbs


class DegenerateInputError(ValueError):
    """Raised by metrics when the input carries no information (empty/all-zero)."""


class ValidationError(ValueError):
    """Config values that failed their rules, as (path, reason) pairs."""

    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = failures
        lines = "; ".join(f"{p}: {r}" for p, r in failures)
        super().__init__(f"{len(failures)} config error(s): {lines}")


def check_rules(obj, *rules: tuple[str, bool, str]) -> None:
    """Raise ValidationError naming each ``(field, ok, reason)`` rule of ``obj``
    that fails; an empty field marks a rule over the whole value. A reason is
    formatted only on failure, with the field's value in place of ``{}``, unless
    its name picks an entry or a part (``flows[2].ue_id``, ``mac.demand_sinr_db``)."""
    for _, ok, _ in rules:
        if not ok:
            raise ValidationError([(f, r.format(getattr(obj, f)) if f.isidentifier() else r)
                                   for f, ok, r in rules if not ok])


class KindError(ValidationError):
    """Config values not of their field's kind; the value rules did not run."""


#: the kinds of an [x, y] pair of numbers and of a list of names
PAIR, NAMES = tuple[float, float], tuple[str, ...]


@functools.cache
def field_kinds(cls) -> tuple[tuple[str, object, bool, object], ...]:
    """Each field of config dataclass ``cls`` that has a kind, as (name, kind,
    optional, default): ``kind`` is int, float, bool, str (non-empty), an Enum
    class, ``PAIR`` or ``NAMES``, and ``optional`` if None is allowed too. Type
    hints cost far more to resolve than a check, so each table is built once."""
    hints, kinds = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if optional := isinstance(hint, types.UnionType):  # X | None
            (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
        # the kind itself, so a kind is told by identity (``kind is PAIR``)
        kind = next((k for k in (int, float, bool, str, PAIR, NAMES) if k == hint), None)
        if kind is not None or isinstance(hint, EnumMeta):
            kinds.append((f.name, kind or hint, optional, f.default))
    return tuple(kinds)


def number_refusal(v, finite: bool = False) -> str | None:
    """Why ``v`` is not a number a float holds (nor, if ``finite``, nan or ±inf),
    or None: a bool is not one, nor is a whole number too large for a float."""
    if type(v) is not float and (isinstance(v, bool) or not isinstance(v, Real)):
        return f"expected a number, got {v!r}"
    try:
        x = float(v)
    except OverflowError:
        return f"expected a number a float can hold, got {v!r}"
    return f"must be finite, got {v!r}" if finite and not math.isfinite(x) else None


def _refusals(field: str, kind, v) -> list[tuple[str, str]]:
    """The (field, reason) refusals of ``v`` for a field of ``kind``; a list
    of names is refused at each entry that is not a name (``features[1]``)."""
    if kind is NAMES and isinstance(v, tuple):
        return [r for i, e in enumerate(v) for r in _refusals(f"{field}[{i}]", str, e)]
    if kind is float:
        return [(field, why)] if (why := number_refusal(v)) else []
    if kind is PAIR:
        ok = isinstance(v, tuple) and len(v) == 2 and not any(map(number_refusal, v))
        want, v = "[x, y] numbers", list(v) if isinstance(v, (tuple, list)) else v  # list form
    elif kind is NAMES:
        ok, want = False, "a list of names"
    elif kind is int:
        ok, want = isinstance(v, Integral) and not isinstance(v, bool), "an integer"
    elif kind is bool:
        ok, want = isinstance(v, bool), "a boolean"
    elif kind is str:
        ok, want = isinstance(v, str) and v != "", "a non-empty string"
    else:
        ok, want = isinstance(v, kind), f"one of ({', '.join(e.value for e in kind)})"
    return [] if ok else [(field, f"expected {want}, got {v!r}")]


def check_kinds(obj) -> None:
    """Raise KindError naming each field of config dataclass ``obj`` whose value
    is not of its kind (``field_kinds``); None passes where allowed, and so does
    the field's default. Any non-bool ``numbers.Integral`` is an int, and a float
    field takes one too. ``Config`` runs this first, before a type's value rules."""
    failures = []
    for name, kind, optional, default in field_kinds(type(obj)):
        v = getattr(obj, name)
        # a value of the exact type passes at once, but a str only if not empty
        if v is default or (type(v) is kind and v != "") or (v is None and optional):
            continue
        if kind is PAIR and type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is float:
            continue
        failures += _refusals(name, kind, v)
    if failures:
        raise KindError(failures)


class Config:
    """The one check protocol of every config type, a frozen dataclass that
    states its value rules once, as ``check_rules`` rules, in ``rules()``: on
    construction each field's kind is judged first (``check_kinds``), then the
    value rules run, so a rule never sees a value of the wrong kind."""

    def __post_init__(self):
        check_kinds(self)
        check_rules(self, *self.rules())


def repeat_rules(field: str, names) -> list:
    """A failed rule ``field[i]`` for each entry ``i`` of ``names`` an earlier one holds."""
    return [(f"{field}[{i}]", False, f"repeats {n!r}")
            for i, n in enumerate(names) if n in names[:i]]


def finite_rules(obj, *fields: str, prefix: str = ""):
    """A failed ``check_rules`` rule ``prefix + field`` for each named field of
    ``obj`` that is not finite: a number, or either coordinate of an [x, y]
    pair (shown in list form); None passes."""
    for f in fields:
        v = getattr(obj, f)
        pair = isinstance(v, (tuple, list))
        if not (v is None or (all(map(math.isfinite, v)) if pair else math.isfinite(v))):
            yield prefix + f, False, f"must be finite, got {list(v) if pair else v}"


@dataclass(frozen=True)
class CarrierGrid(Config):
    """One carrier's resource plane: PRBs across frequency, slots along time.

    ``numerology`` follows the usual scalable-slot convention: slot duration is
    1 ms / 2**numerology, so a 10 ms frame always holds a whole number of slots.
    """

    carrier_hz: float
    prbs_per_slot: int
    numerology: int
    prb_bandwidth_hz: float

    def rules(self):
        """The grid's rules over ``self``, or anything with the grid's four
        fields: a ``CellConfig`` states them on its own fields of the same names."""
        return (
            ("carrier_hz", CARRIER_HZ_MIN <= self.carrier_hz <= CARRIER_HZ_MAX,
             f"carrier_hz {{:g}} outside [{CARRIER_HZ_MIN:g}, {CARRIER_HZ_MAX:g}]"),
            ("prbs_per_slot", self.prbs_per_slot >= 1, "prbs_per_slot must be >= 1, got {}"),
            ("numerology", NUMEROLOGY_MIN <= self.numerology <= NUMEROLOGY_MAX,
             f"numerology must be in [{NUMEROLOGY_MIN}, {NUMEROLOGY_MAX}], got {{}}"),
            ("prb_bandwidth_hz", self.prb_bandwidth_hz > 0, "prb_bandwidth_hz must be positive"),
            *finite_rules(self, "prb_bandwidth_hz"),
        )

    @property
    def slot_seconds(self) -> float:
        return 1e-3 / (2 ** self.numerology)


@dataclass(frozen=True)
class Grant:
    """Exclusive use of one PRB in one slot by one owner, for one purpose."""

    prb: int
    owner: str
    purpose: str


_block_start = itemgetter(0)


class AllocationMap:
    """Grants for a single slot on a single grid; at most one owner per PRB.

    Held as sorted, pairwise-disjoint half-open blocks ``(start, stop, owner,
    purpose)``. ``add_block`` is the one exclusivity check: it refuses a block
    that leaves the grid or touches a held PRB, in O(log blocks), before
    anything lands. ``grants()`` expands the blocks to one Grant per PRB in
    PRB order.
    """

    def __init__(self, grid: CarrierGrid, slot: int):
        self.grid = grid
        self.slot = slot
        self._blocks: list[tuple[int, int, str, str]] = []
        self._count = 0

    def add_block(self, start: int, stop: int, owner: str, purpose: str) -> None:
        """Grant the half-open PRB range [start, stop) to one owner, all or
        nothing."""
        if stop <= start:
            raise ValueError(f"empty block [{start}, {stop})")
        n = self.grid.prbs_per_slot
        if not (0 <= start < n):
            raise OutOfRangeError(start, n)
        if stop > n:
            raise OutOfRangeError(stop - 1, n)
        blocks = self._blocks
        if not blocks or blocks[-1][1] <= start:  # past every held block
            blocks.append((start, stop, owner, purpose))
        else:
            i = bisect_right(blocks, start, key=_block_start)
            if i > 0 and blocks[i - 1][1] > start:
                raise OverlapError(start, blocks[i - 1][2], owner)
            if i < len(blocks) and blocks[i][0] < stop:
                raise OverlapError(blocks[i][0], blocks[i][2], owner)
            blocks.insert(i, (start, stop, owner, purpose))
        self._count += stop - start

    def blocks(self) -> list[tuple[int, int, str, str]]:
        return list(self._blocks)

    def grants(self) -> list[Grant]:
        return [
            Grant(prb=p, owner=owner, purpose=purpose)
            for start, stop, owner, purpose in self._blocks
            for p in range(start, stop)
        ]

    def __len__(self) -> int:
        return self._count


@dataclass(frozen=True)
class Violation:
    """One broken exclusivity/bounds rule found by validate_blocks."""

    prb: int
    kind: str  # "overlap" | "out_of_range"
    detail: str


def validate_blocks(
    grid: CarrierGrid, blocks: Iterable[tuple[int, int, str, str]]
) -> list[Violation]:
    """Check ``(start, stop, owner, purpose)`` blocks against a grid; returns
    [] when clean.

    Each block must be a non-empty range inside the grid, and no two may share
    a PRB. A broken block is reported at its first PRB. Unlike
    AllocationMap.add_block, which refuses such a block before it lands, this
    never raises: it audits blocks from elsewhere, in O(blocks log blocks).
    """
    n = grid.prbs_per_slot
    violations: list[Violation] = []
    reach, holder = 0, ""
    for start, stop, owner, _ in sorted(blocks):
        if not (0 <= start < stop <= n):
            violations.append(
                Violation(start, "out_of_range", f"prbs [{start}, {stop}) outside 0..{n - 1}")
            )
            continue
        if start < reach:
            violations.append(
                Violation(start, "overlap", f"prb {start} held by {holder!r} and {owner!r}")
            )
        if stop > reach:
            reach, holder = stop, owner
    return violations


def validate_allocation_map(
    grid: CarrierGrid, grants: Iterable[Grant]
) -> list[Violation]:
    """Check a raw grant list against a grid; returns [] when clean.

    The per-PRB form of validate_blocks, used by tests on ``grants()``.
    """
    return validate_blocks(grid, ((g.prb, g.prb + 1, g.owner, g.purpose) for g in grants))


@dataclass(frozen=True)
class Cell(Config):
    """A transmission point: macro, small cell, or access point.

    ``rat_tag`` is a label carried for reporting only; no scheduling or
    steering decision in this package reads it.
    """

    cell_id: str
    cell_class: CellClass
    grid: CarrierGrid
    position: tuple[float, float]
    tx_power_dbm: float
    rat_tag: str = "nr"
    supports_duplication: bool = True
    supports_secondary: bool = True

    def rules(self):
        return finite_rules(self, "tx_power_dbm")


def compute_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    Raises DegenerateInputError for empty or all-zero input.
    """
    vals = list(values)
    if not vals:
        raise DegenerateInputError("fairness undefined for empty input")
    if any(v < 0 for v in vals):
        raise ValueError("fairness inputs must be non-negative")
    total = math.fsum(vals)
    sq = math.fsum(v * v for v in vals)
    if sq == 0.0:
        raise DegenerateInputError("fairness undefined when all values are zero")
    return (total * total) / (len(vals) * sq)


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, Enum):
        return str(v.value)
    return str(v)


@dataclass(frozen=True)
class Event:
    """One line in the run's event log.

    Rendering is fully deterministic: fields keep insertion order and floats
    are formatted with a fixed precision.
    """

    slot: int
    subsystem: str
    kind: str
    fields: tuple[tuple[str, str], ...] = ()

    @classmethod
    def make(cls, slot: int, subsystem: str, kind: str, **fields) -> "Event":
        return cls(
            slot=slot,
            subsystem=subsystem,
            kind=kind,
            fields=tuple((k, _fmt_value(v)) for k, v in fields.items()),
        )

    def format(self) -> str:
        parts = [str(self.slot), self.subsystem, self.kind]
        parts.extend(f"{k}={v}" for k, v in self.fields)
        return " ".join(parts)

    def get(self, key: str) -> str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return None
