"""Tests for stack-distance computation against slow LRU-stack oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cachesim.stack import COLD, distance_histogram, stack_distances
from repro.locality.reuse import previous_occurrence
from repro.workloads import cyclic, phased, sawtooth, uniform_random, zipf

traces = st.lists(st.integers(0, 9), min_size=0, max_size=80).map(
    lambda xs: np.array(xs, dtype=np.int64)
)

long_traces = st.integers(1, 600).flatmap(
    lambda m: arrays(np.int64, st.integers(0, 2048), elements=st.integers(0, m - 1))
)


def naive_stack_distances(blocks: np.ndarray) -> np.ndarray:
    """Maintain the literal LRU stack; distance = 1-based depth of the hit."""
    stack: list[int] = []
    out = np.full(blocks.size, COLD, dtype=np.int64)
    for i, b in enumerate(blocks.tolist()):
        if b in stack:
            depth = stack.index(b) + 1  # stack[0] is most recent
            out[i] = depth
            stack.remove(b)
        stack.insert(0, b)
    return out


def fenwick_stack_distances(blocks: np.ndarray) -> np.ndarray:
    """The classic offline Fenwick-tree (binary indexed tree) method.

    A position holds a 1 in the tree iff it is currently the most recent
    access of its block; the distance of an access at ``j`` whose previous
    occurrence is ``p`` is then the number of marked positions in ``(p, j)``
    plus one.  O(n log n), one Python loop iteration per access.
    """
    n = int(blocks.size)
    dist = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return dist
    prev = previous_occurrence(blocks)
    tree = np.zeros(n + 1, dtype=np.int64)  # Fenwick over positions 1..n

    def add(pos: int, delta: int) -> None:
        i = pos + 1
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(pos: int) -> int:
        # sum of marks at positions 0..pos
        i = pos + 1
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return int(s)

    for j in range(n):
        p = int(prev[j])
        if p >= 0:
            # marked positions strictly between p and j, plus the block itself
            dist[j] = prefix(j - 1) - prefix(p) + 1
            add(p, -1)
        add(j, 1)
    return dist


def assert_bit_identical(blocks: np.ndarray) -> None:
    got = stack_distances(blocks)
    assert got.dtype == np.int64
    assert np.array_equal(got, fenwick_stack_distances(blocks))


@given(traces)
@settings(max_examples=200)
def test_matches_naive_lru_stack(blocks):
    assert np.array_equal(stack_distances(blocks), naive_stack_distances(blocks))


@given(long_traces)
@settings(max_examples=60, deadline=None)
def test_matches_fenwick_oracle_on_long_traces(blocks):
    assert_bit_identical(blocks)


def test_fenwick_oracle_matches_naive_stack():
    rng = np.random.default_rng(0)
    for m in (1, 3, 17, 200):
        blocks = rng.integers(0, m, 1500)
        assert np.array_equal(fenwick_stack_distances(blocks), naive_stack_distances(blocks))


def test_example_trace():
    # a b a  ->  [-1, -1, 2]
    assert list(stack_distances(np.array([0, 1, 0]))) == [COLD, COLD, 2]


def test_repeated_single_block():
    d = stack_distances(np.zeros(5, dtype=np.int64))
    assert list(d) == [COLD, 1, 1, 1, 1]


def test_cyclic_distances_equal_loop_size():
    m = 7
    blocks = np.arange(70) % m
    d = stack_distances(blocks)
    assert np.all(d[m:] == m)


def test_distance_histogram():
    hist, n_cold = distance_histogram(np.array([0, 1, 0, 1]))
    assert n_cold == 2
    assert hist[2] == 2


def test_empty():
    assert stack_distances(np.array([], dtype=np.int64)).size == 0


@pytest.mark.parametrize(
    "blocks, expected",
    [
        ([], []),
        ([4], [COLD]),
        ([4, 4], [COLD, 1]),
        ([4, 5], [COLD, COLD]),
    ],
)
def test_tiny_traces(blocks, expected):
    assert stack_distances(np.array(blocks, dtype=np.int64)).tolist() == expected


@pytest.mark.parametrize("n", [2**k + d for k in range(1, 12) for d in (-1, 0, 1)])
def test_lengths_around_powers_of_two(n):
    """The level loop stops at the first width >= n; check both sides of it."""
    rng = np.random.default_rng(n)
    for m in (2, max(2, n // 3), n):
        assert_bit_identical(rng.integers(0, m, n))


def test_all_distinct_blocks_are_all_cold():
    for n in (1, 2, 5, 64, 1000):
        blocks = np.random.default_rng(n).permutation(n)
        assert np.all(stack_distances(blocks) == COLD)


def test_one_repeated_block_long():
    d = stack_distances(np.full(4097, 3, dtype=np.int64))
    assert d[0] == COLD
    assert np.all(d[1:] == 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic(200_000, 1500),
        lambda: sawtooth(200_000, 1200),
        lambda: uniform_random(200_000, 4000, seed=11),
        lambda: zipf(200_000, 20_000, alpha=0.9, seed=12),
        lambda: phased(
            [uniform_random(20_000, 600, seed=13), zipf(25_000, 5000, seed=14),
             cyclic(22_000, 900)],
            repeats=3,
        ),
    ],
    ids=["cyclic", "sawtooth", "uniform_random", "zipf", "phased"],
)
def test_long_generated_traces_match_fenwick_oracle(make):
    tr = make()
    assert len(tr) >= 200_000
    got = stack_distances(tr)
    assert np.array_equal(got, fenwick_stack_distances(tr.blocks))


def test_trace_and_array_inputs_agree():
    tr = zipf(5000, 300, seed=5)
    assert np.array_equal(stack_distances(tr), stack_distances(tr.blocks))
    assert np.array_equal(stack_distances(tr.blocks.astype(np.int32)), stack_distances(tr))


def test_rejects_non_integer_dtype():
    # an int64 cast would truncate 0.2 and 0.7 into the same block 0
    with pytest.raises(ValueError, match="float64"):
        stack_distances(np.array([0.2, 0.7, 1.9]))


def test_rejects_non_1d_input():
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        stack_distances(np.zeros((2, 3), dtype=np.int64))
