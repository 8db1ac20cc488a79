"""Kernels: the counter hash, and the PF fill against a per-PRB argmax."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import kernels


def pf_fill_per_prb(metric, per_prb, backlog, n_prbs):
    """Reference PF fill: for each PRB in order, argmax over the backlogged
    candidates (ties to the lowest index). Returns per-PRB owners (-1 idle)
    and served bits."""
    n = len(metric)
    rem = [float(b) for b in backlog]
    owner = [-1] * max(n_prbs, 0)
    served = [0.0] * n
    for p in range(n_prbs):
        best, best_m = -1, -1.0
        for i in range(n):
            if rem[i] > 0.0 and metric[i] > best_m:
                best_m, best = metric[i], i
        if best < 0:
            break
        owner[p] = best
        take = per_prb[best] if per_prb[best] < rem[best] else rem[best]
        served[best] += take
        rem[best] -= take
    return owner, served


def expand(runs, n_prbs):
    owner = []
    for idx, k in runs:
        owner.extend([idx] * k)
    return owner + [-1] * (max(n_prbs, 0) - len(owner))


def test_counter_uniform_is_stateless_and_in_range():
    a = np.arange(1000)
    b = np.arange(1000)[::-1].copy()
    u1 = kernels.counter_uniform(42, a, b, 9)
    u2 = kernels.counter_uniform(42, a, b, 9)
    assert np.array_equal(u1, u2)
    assert (u1 >= 0.0).all() and (u1 < 1.0).all()
    # evaluation order independence: a permuted query gives the permuted answer
    perm = np.random.default_rng(5).permutation(1000)
    assert np.array_equal(kernels.counter_uniform(42, a[perm], b[perm], 9), u1[perm])


def test_counter_uniform_decorrelates_across_each_input():
    a = np.arange(512)
    base = kernels.counter_uniform(1, a, a, 3)
    assert not np.array_equal(base, kernels.counter_uniform(2, a, a, 3))
    assert not np.array_equal(base, kernels.counter_uniform(1, a + 1, a, 3))
    assert not np.array_equal(base, kernels.counter_uniform(1, a, a, 4))
    # roughly uniform: mean near 1/2 on a decent sample
    assert abs(float(base.mean()) - 0.5) < 0.05


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=50),
    n_slots=st.integers(min_value=1, max_value=12),
    first=st.integers(min_value=0, max_value=2**40),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_counter_uniform_leaves_its_inputs_as_they_were(n, n_slots, first, seed):
    """The kernel mixes in place, but only on arrays it made: the index
    arrays come back unchanged, and a block equals one call per slot."""
    rng = np.random.default_rng(n)
    a = rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64)
    b = rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64)
    c = np.arange(first, first + n_slots, dtype=np.uint64)
    kept = a.copy(), b.copy(), c.copy()
    block = kernels.counter_uniform(seed, a, b, c)
    assert all(np.array_equal(x, y) for x, y in zip((a, b, c), kept))
    assert block.shape == (n, n_slots)
    for j, s in enumerate(c.tolist()):
        u = kernels.counter_uniform(seed, a[:, 0], b[:, 0], s)
        assert np.array_equal(block[:, j].view(np.uint64), u.view(np.uint64))
    assert all(np.array_equal(x, y) for x, y in zip((a, b, c), kept))


def test_pf_fill_owner_semantics():
    # highest metric with backlog wins; ties break to the lowest index
    runs, served = kernels.pf_fill([2.0, 2.0], [10.0, 10.0], [25.0, 25.0], 3)
    assert runs == [(0, 3)]
    assert served == [25.0, 0.0]  # third PRB drains the 5-bit tail
    runs, served = kernels.pf_fill([1.0, 3.0], [10.0, 10.0], [0.0, 15.0], 4)
    assert runs == [(1, 2)]  # PRBs 2 and 3 stay idle
    assert served == [0.0, 15.0]
    # a drained winner hands the next PRBs to the runner-up
    runs, served = kernels.pf_fill([1.0, 3.0], [10.0, 10.0], [40.0, 15.0], 4)
    assert runs == [(1, 2), (0, 2)]
    assert served == [20.0, 15.0]
    # zero rate with backlog keeps every PRB left
    runs, served = kernels.pf_fill([5.0, 1.0], [0.0, 10.0], [7.0, 70.0], 3)
    assert runs == [(0, 3)]
    assert served == [0.0, 0.0]


def test_pf_fill_accepts_arrays_and_lists_alike():
    args = ([0.5, 1.5, 1.5], [120.0, 80.0, 95.5], [300.0, 90.0, 1e4], 9)
    from_lists = kernels.pf_fill(*args)
    from_arrays = kernels.pf_fill(*(np.asarray(a, dtype=np.float64) for a in args[:3]), 9)
    assert from_lists == from_arrays


_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def pf_cases(draw):
    n = draw(st.integers(1, 8))
    metric = draw(st.lists(_floats, min_size=n, max_size=n))
    per_prb = draw(st.lists(_floats, min_size=n, max_size=n))
    backlog = draw(st.lists(_floats, min_size=n, max_size=n))
    # exact ties, zero backlogs and zero rates, the interesting edge shapes
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        metric[i] = metric[draw(st.integers(0, n - 1))]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        backlog[i] = 0.0
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        per_prb[i] = 0.0
    return metric, per_prb, backlog, draw(st.integers(0, 300))


@settings(max_examples=400, deadline=None)
@given(pf_cases())
def test_pf_fill_runs_equal_per_prb_argmax_exactly(case):
    metric, per_prb, backlog, n_prbs = case
    runs, served = kernels.pf_fill(metric, per_prb, backlog, n_prbs)
    ref_owner, ref_served = pf_fill_per_prb(metric, per_prb, backlog, n_prbs)
    assert all(k > 0 for _, k in runs)
    assert expand(runs, n_prbs) == ref_owner
    assert served == ref_served  # exact: same float steps in the same order
