"""The numpy calls that output bytes rest on, pinned by digest at the shapes
the engine uses them. NumPy keeps a bit generator's raw stream fixed across
releases, but not the algorithms of ``Generator``'s methods (NEP 19), nor
``np.percentile``'s. When one of these changes, its case here fails by the
method's name, where the golden digests would only show that output bytes
moved."""

import hashlib

import numpy as np
import pytest


def _streams(seed):
    """A World's four streams for run seed ``seed``: traffic, access, backoff, loss."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def _poisson():
    # PoissonSporadic.step: one scalar draw per flow and slot; a zero rate
    # draws nothing, and rates of 10 and above take numpy's other algorithm
    rng = _streams(7)[0]
    rates = [0.0, 0.01, 0.1, 0.5, 1.0, 0.0, 3.0, 9.99, 10.0, 40.0, 300.0]
    return [int(rng.poisson(r)) for _ in range(40) for r in rates]


def _integers_access():
    # schedule_one_shot: one pick per contender over the interval's resources
    rng = _streams(7)[1]
    return [int(x) for _ in range(20) for m in (1, 2, 5, 12, 50) for n in (1, 3, 8)
            for x in rng.integers(0, m, size=n)]


def _integers_backoff():
    # MacInstance._run_contention: one backoff per collided attempt, in
    # [backoff_min_epochs, backoff_max_epochs]
    rng = _streams(7)[2]
    bounds = ((1, 8), (1, 1), (2, 16))
    return [int(rng.integers(lo, hi + 1)) for _ in range(60) for lo, hi in bounds]


def _random():
    # World._drain_flow: one loss draw per packet of a run taken off a leg
    rng = _streams(7)[3]
    return [x for _ in range(10) for k in (1, 2, 7, 64, 300) for x in rng.random(k).tolist()]


def _percentile():
    # build_report: percentiles over each delivered packet's latency in ms,
    # from a histogram of whole-slot latencies
    out = []
    for i, slot_seconds in enumerate((1e-3, 0.5e-3, 0.25e-3) * 4):
        lat = range(i % 3, i % 3 + 2 + 3 * i)
        counts = [(7 * j + 3 * i) % 11 + (j == 0) for j in range(len(lat))]
        values_ms = np.array([l * slot_seconds * 1e3 for l in lat])
        out += np.percentile(np.repeat(values_ms, counts), [50, 95, 99]).tolist()
    return out


PINS = {
    "Generator.poisson": (_poisson, "b535ceef42c0adaf"),
    "Generator.integers[access]": (_integers_access, "fe86c97304f57860"),
    "Generator.integers[backoff]": (_integers_backoff, "393000c19af832bd"),
    "Generator.random": (_random, "0c0e9fbabe29623b"),
    "np.percentile": (_percentile, "49985c58d144b6c4"),
}


@pytest.mark.parametrize("method", PINS)
def test_a_numpy_call_the_outputs_rest_on_gives_its_pinned_values(method):
    draw, pinned = PINS[method]
    values = draw()
    dtype = np.int64 if isinstance(values[0], int) else np.float64
    digest = hashlib.sha256(np.asarray(values, dtype=dtype).tobytes()).hexdigest()[:16]
    assert digest == pinned, f"{method} gives other values under numpy {np.__version__}"
