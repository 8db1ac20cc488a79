"""Span tracer that wraps rrmsim's public functions from outside the package.

Nothing in ``src/`` is edited: ``install`` replaces each traced function in
every namespace it is looked up from, and ``uninstall`` puts the originals
back. A module-level function is replaced wherever a layer module (or the
package) binds it, so ``engine.link_rate``, ``engine.validate_allocation_map``
and ``mac.schedule_dynamic`` are caught where they are called, and
``kernels.pf_fill`` through the ``kernels`` module attribute. Methods of the
classes in ``CLASSES`` are replaced on the class.

Each call records one span: function, slot, start, duration, the time of the
traced calls nested inside it, an optional size (candidates per
``schedule_dynamic`` call, pairs per ``counter_uniform`` call, candidates
returned by ``evaluate_features``) and its nesting depth. Self time is the
duration minus the nested spans and minus the wrappers' own cost, measured
once per tracer. Spans stay in memory in a flat array and are written out at
the end.

Discovery runs against whatever the package holds, so a function that a later
change deletes or renames is reported as absent instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

#: Classes whose public methods are traced as well as module functions.
CLASSES = {
    "engine": ("World",),
    "mac": ("MacInstance",),
    "uts": ("UtsController",),
    "core": ("AllocationMap",),
}


def _len_arg(index: int, name: str):
    def size(args, kwargs, result):
        seq = args[index] if len(args) > index else kwargs[name]
        return int(np.size(seq))

    return size


def _len_result(args, kwargs, result):
    return len(result)


#: Span name -> how to measure the size of one call, for the per-call sizes
#: the benchmark reports.
SIZES = {
    "mac.schedule_dynamic": _len_arg(1, "candidates"),
    "kernels.counter_uniform": _len_arg(1, "a"),
    "uts.evaluate_features": _len_result,
}


def _measure(size_of, args, kwargs, result) -> int:
    """The call's size, or -1 when the call no longer has the shape
    ``size_of`` expects."""
    try:
        return size_of(args, kwargs, result)
    except (IndexError, KeyError, TypeError):
        return -1


def discover(package: str, layers) -> tuple[dict, list]:
    """Map span name -> (owner, attribute, function) for every traced function
    of the modules ``<package>.<layer>``.

    Module functions are keyed ``<layer>.<name>`` and owned by their module;
    a function bound under several names in its module (the kernel backend
    aliases) is traced under the last binding, the one the package calls.
    Methods are keyed ``<layer>.<Class>.<name>``. Also returns the layer
    modules that could be imported.
    """
    targets: dict[str, tuple] = {}
    modules = []
    for layer in layers:
        try:
            mod = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            continue
        modules.append(mod)
        seen: dict[int, str] = {}
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            old = seen.get(id(obj))
            if old is not None:
                del targets[old]
            seen[id(obj)] = f"{layer}.{name}"
            targets[f"{layer}.{name}"] = (mod, name, obj)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name, None)
            if cls is None:
                continue
            for name, obj in vars(cls).items():
                if not name.startswith("_") and inspect.isfunction(obj):
                    targets[f"{layer}.{cls_name}.{name}"] = (cls, name, obj)
    return targets, modules


def _direct_children(depth: np.ndarray) -> np.ndarray:
    """Direct traced children of each span. Spans are stored as they end,
    so a span's parent is the first later span one level up."""
    children = np.zeros(len(depth))
    for level in range(int(depth.max(initial=0))):
        parents = np.flatnonzero(depth == level)
        kids = np.flatnonzero(depth == level + 1)
        pos = np.searchsorted(parents, kids)
        children += np.bincount(parents[pos[pos < len(parents)]], minlength=len(depth))
    return children


class Tracer:
    """Collects spans of every traced call while installed."""

    def __init__(self, package: str, layers):
        self.targets, self._modules = discover(package, layers)
        self._package = importlib.import_module(package)
        self.names = list(self.targets)
        self.slot = -1
        self._stack: list[int] = []
        self._spans = array("q")
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {
            id(fn): self._wrap(i, fn, SIZES.get(name))
            for i, (name, (_, _, fn)) in enumerate(self.targets.items())
        }
        self.call_bias_ns = self._calibrate()

    #: Fields of one span, in the order they are stored. ``depth`` counts
    #: the traced calls open around it.
    FIELDS = ("fid", "slot", "start_ns", "dur_ns", "child_ns", "size", "depth")

    def clear(self) -> None:
        del self._spans[:]

    def _wrap(self, fid: int, fn, size_of):
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter_ns
        tracer = self

        if size_of is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dur
                    spans.extend((fid, tracer.slot, t0, dur, child, 0, len(stack)))

            return traced

        @functools.wraps(fn)
        def traced_sized(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            size = 0
            try:
                result = fn(*args, **kwargs)
                size = _measure(size_of, args, kwargs, result)
                return result
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                spans.extend((fid, tracer.slot, t0, dur, child, size, len(stack)))

        return traced_sized

    def _calibrate(self, calls: int = 20000, samples: int = 5) -> float:
        """ns that one traced call adds to its caller's self time, outside
        its own span: the wrapper's work before it reads the start and after
        it reads the end. Subtracted per direct child in ``totals``."""

        def noop():
            pass

        def loop(fn):
            for _ in range(calls):
                fn()

        outer = self._wrap(-1, loop, None)
        inner = self._wrap(-1, noop, None)
        width = len(self.FIELDS)
        bias = []
        for _ in range(samples):
            self.clear()
            outer(noop)
            outer(inner)
            plain, traced = self._spans[3:5], self._spans[-width + 3 : -width + 5]
            bias.append(((traced[0] - traced[1]) - (plain[0] - plain[1])) / calls)
        self.clear()
        return float(np.median(bias))

    def install(self) -> None:
        """Replace every traced function in each namespace that binds it."""
        if self._patches:
            return
        for owner, name, fn in self.targets.values():
            if inspect.isclass(owner):
                self._patch(owner, name, self._wrappers[id(fn)])
        for mod in (self._package, *self._modules):
            for name, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()
        self._stack.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, len(self.FIELDS))
        return {name: table[:, i].copy() for i, name in enumerate(self.FIELDS)}

    def totals(self) -> dict[str, np.ndarray]:
        """Per traced function over spans inside a slot: calls, inclusive
        ns, self ns, summed size and calls whose size could not be taken.

        Self time is a span's duration minus its traced children's spans and
        minus ``call_bias_ns`` per direct child, so the wrappers' own cost is
        not charged to the caller.
        """
        a = self.arrays()
        children = _direct_children(a["depth"])
        keep = a["slot"] >= 0
        fid = a["fid"][keep].astype(np.intp)
        n = len(self.names)
        dur = a["dur_ns"][keep].astype(np.float64)
        self_ns = dur - a["child_ns"][keep] - children[keep] * self.call_bias_ns
        size = a["size"][keep]
        return {
            "calls": np.bincount(fid, minlength=n).astype(np.float64),
            "dur_ns": np.bincount(fid, weights=dur, minlength=n),
            "self_ns": np.bincount(fid, weights=self_ns, minlength=n),
            "size": np.bincount(fid, weights=np.maximum(size, 0).astype(np.float64), minlength=n),
            "size_bad": np.bincount(fid[size < 0], minlength=n).astype(np.float64),
        }

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans held now, with the function names and ``meta``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(repr(meta)), **self.arrays())
