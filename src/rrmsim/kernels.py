"""Hot numeric kernels, kept to integer and basic IEEE arithmetic.

Three inner loops dominate run time: proportional-fair PRB filling, the
counter-based hash behind random-access-reproducible fading, and contention
outcome classification. There is one implementation of each, in numpy and
plain Python; ``backend_name()`` names it (``"numpy"``), and the run summary
records that name so output stays byte-stable.

The hash broadcasts over its index arguments, so a block of (pair, slot)
values, such as a MAC epoch of fading, is one call. Its fixed cost is the
numpy calls themselves: it mixes in place on arrays it made, in uint64
arithmetic that wraps without a warning, so it needs no ``np.errstate``.
"""

from __future__ import annotations

import numpy as np

# splitmix64 constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = float(2.0 ** -53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place over a fresh uint64 array. Integer
    array arithmetic wraps modulo 2**64 and raises no warning."""
    z += _GAMMA
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return z


def counter_uniform(seed: int, a, b, c) -> np.ndarray:
    """Uniforms in [0, 1) from the hash of (seed, a, b, c), broadcast over
    the three index arguments (so ``c`` may be an array of slots); the
    result is at least one-dimensional.

    Pure counter-based: any (seed, a, b, c) tuple can be evaluated in any
    order, alone or in any block, and yields the same value, which is what
    makes fading replayable without storing state. The inputs are left as
    they are: every step mixes an array made for it.
    """
    h = np.array(a, dtype=np.uint64, ndmin=1)  # a copy, mixed in place
    h ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    h = _mix64(_mix64(h) ^ np.asarray(b, dtype=np.uint64))
    h = _mix64(h ^ np.asarray(c, dtype=np.uint64))
    h >>= _S11
    return h.astype(np.float64) * _INV_2_53


def pf_fill(metric, per_prb_bits, backlog_bits, n_prbs: int):
    """Sequential proportional-fair PRB fill, one contiguous run per winner.

    Each PRB in index order goes to the backlogged candidate with the highest
    metric (ties -> lowest index), whose remaining backlog then drops by its
    per-PRB rate. The metric is fixed for the fill and only the winner's
    backlog changes, so a winner keeps every PRB until its backlog is drained:
    the fill visits the backlogged candidates in stable order of decreasing
    metric and drains each in turn, with the same ``take``/``served``/``rem``
    float steps per PRB as the per-PRB argmax, so the result is bit-identical
    to it. A candidate with zero rate and some backlog keeps every PRB left.
    Cost is O(n_prbs + n log n). It reads its inputs as given, lists or
    float64 arrays, and copies none of them.

    Returns (runs, served): runs lists (candidate index, PRB count) in PRB
    order, starting at PRB 0; served[i] is the bits drained from candidate i
    (capped at its backlog). PRBs past the last run stay idle.
    """
    served = [0.0] * len(metric)
    # metric > -1.0 mirrors the argmax's starting best, which no lower
    # (or NaN) metric can beat.
    order = sorted(
        (i for i, m in enumerate(metric) if backlog_bits[i] > 0.0 and m > -1.0),
        key=lambda i: -metric[i],
    )
    runs: list[tuple[int, int]] = []
    p = 0
    for i in order:
        if p >= n_prbs:
            break
        rate, r, s, first = per_prb_bits[i], backlog_bits[i], 0.0, p
        while p < n_prbs and r > 0.0:
            take = rate if rate < r else r
            s += take
            r -= take
            p += 1
        served[i] = s
        runs.append((i, p - first))
    return runs, served


def classify_picks(picks, n_resources: int) -> np.ndarray:
    """True where picks[i] was chosen by more than one contender."""
    picks = np.asarray(picks, dtype=np.int64)
    counts = np.bincount(picks, minlength=n_resources)
    return counts[picks] > 1


def backend_name() -> str:
    """Name of the kernel implementation; written to ``summary.json``."""
    return "numpy"
