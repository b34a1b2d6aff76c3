"""Unit and property tests for reuse-time analysis (paper §III definitions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.stack import stack_distances
from repro.locality.footprint import (
    average_footprint,
    footprint_from_gaps,
    windowed_wss,
    wss_curve_direct,
)
from repro.locality.reuse import (
    as_block_ids,
    first_last_positions,
    gap_histogram,
    previous_occurrence,
    reuse_intervals,
    reuse_profile,
    reuse_time_histogram,
)

traces = st.lists(st.integers(0, 9), min_size=0, max_size=60).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


def naive_previous(blocks: np.ndarray) -> np.ndarray:
    last: dict[int, int] = {}
    out = np.full(blocks.size, -1, dtype=np.int64)
    for i, b in enumerate(blocks.tolist()):
        if b in last:
            out[i] = last[b]
        last[b] = i
    return out


@given(traces)
@settings(max_examples=200)
def test_previous_occurrence_matches_naive(blocks):
    assert np.array_equal(previous_occurrence(blocks), naive_previous(blocks))


def test_previous_occurrence_example():
    # paper Figure 3 trace: a a x b b y a a x b b y
    sym = "a a x b b y a a x b b y".split()
    ids = {s: i for i, s in enumerate(dict.fromkeys(sym))}
    blocks = np.array([ids[s] for s in sym])
    prev = previous_occurrence(blocks)
    assert prev[1] == 0  # second a
    assert prev[6] == 1  # a after gap
    assert prev[0] == prev[2] == prev[3] == prev[5] == -1


def test_figure3_trace_metrics():
    """The Figure 3 trace: its annotation "- 1 - - 1 - 4 1 4 4 1 4" is the
    LRU *stack distance* of each access; reuse times follow Eq. 4."""
    from repro.cachesim.stack import COLD, stack_distances

    sym = "a a x b b y a a x b b y".split()
    ids = {s: i for i, s in enumerate(dict.fromkeys(sym))}
    blocks = np.array([ids[s] for s in sym])

    dist = stack_distances(blocks)
    expect = [COLD, 1, COLD, COLD, 1, COLD, 4, 1, 4, 4, 1, 4]
    assert dist.tolist() == expect

    # reuse intervals j - i: a:(1,5,1)  x:(6)  b:(1,5,1)  y:(6)
    intervals = reuse_intervals(blocks)
    assert sorted(intervals.tolist()) == [1, 1, 1, 1, 5, 5, 6, 6]
    hist = reuse_time_histogram(blocks)  # rt = interval + 1 (Eq. 4)
    assert hist[2] == 4 and hist[6] == 2 and hist[7] == 2
    assert hist[:2].sum() == 0


@given(traces)
@settings(max_examples=200)
def test_reuse_pair_count(blocks):
    """Number of reuse pairs is n - m (every non-first access closes one)."""
    intervals = reuse_intervals(blocks)
    m = np.unique(blocks).size
    assert intervals.size == blocks.size - m


@given(traces)
@settings(max_examples=200)
def test_gap_histogram_mass(blocks):
    """Total gap length = sum over data of (n - occurrences of that datum)."""
    hist = gap_histogram(blocks)
    total_gap = int(np.dot(np.arange(hist.size), hist))
    n = blocks.size
    if n == 0:
        assert total_gap == 0
        return
    _, counts = np.unique(blocks, return_counts=True)
    assert total_gap == int(np.sum(n - counts))


def test_first_last_positions():
    blocks = np.array([5, 3, 5, 7, 3])
    first, last = first_last_positions(blocks)
    # unique order: 3, 5, 7
    assert list(first) == [1, 0, 3]
    assert list(last) == [4, 2, 3]


def test_reuse_profile_bundle():
    blocks = np.array([1, 2, 1, 3])
    prof = reuse_profile(blocks)
    assert prof.n == 4
    assert prof.m == 3
    assert prof.n_reuses == 1
    assert prof.n_cold == 3


def test_empty_inputs():
    empty = np.array([], dtype=np.int64)
    assert previous_occurrence(empty).size == 0
    assert reuse_intervals(empty).size == 0
    assert gap_histogram(empty).sum() == 0
    prof = reuse_profile(empty)
    assert prof.n == prof.m == 0


def test_single_element():
    one = np.array([42])
    assert list(previous_occurrence(one)) == [-1]
    assert reuse_intervals(one).size == 0


# ----------------------------------------------------------------------
# oracle: one sort per statistic (np.unique, separate stable argsorts,
# ufunc.at scatters), the way the statistics were first computed
# ----------------------------------------------------------------------
def oracle_previous(blocks: np.ndarray) -> np.ndarray:
    n = blocks.size
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    same_as_left = np.empty(n, dtype=bool)
    same_as_left[0] = False
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=same_as_left[1:])
    prev[order[same_as_left]] = order[np.flatnonzero(same_as_left) - 1]
    return prev


def oracle_intervals(blocks: np.ndarray) -> np.ndarray:
    prev = oracle_previous(blocks)
    idx = np.flatnonzero(prev >= 0)
    return idx - prev[idx]


def oracle_first_last(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if blocks.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    _, inverse = np.unique(blocks, return_inverse=True)
    m = int(inverse.max()) + 1
    positions = np.arange(blocks.size, dtype=np.int64)
    first = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    last = np.full(m, -1, dtype=np.int64)
    np.minimum.at(first, inverse, positions)
    np.maximum.at(last, inverse, positions)
    return first, last


def oracle_reuse_time_hist(blocks: np.ndarray) -> np.ndarray:
    rts = oracle_intervals(blocks) + 1
    size = int(rts.max()) + 1 if rts.size else 2
    return np.bincount(rts, minlength=max(size, 2))


def oracle_gap_hist(blocks: np.ndarray) -> np.ndarray:
    n = blocks.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    internal = oracle_intervals(blocks) - 1
    first, last = oracle_first_last(blocks)
    gaps = np.concatenate([internal, first, (n - 1) - last])
    gaps = gaps[gaps > 0]
    size = int(gaps.max()) + 1 if gaps.size else 1
    return np.bincount(gaps, minlength=size)


def oracle_footprint_values(blocks: np.ndarray) -> np.ndarray:
    n = blocks.size
    if n == 0:
        return np.zeros(1)
    m = int(np.unique(blocks).size)
    return footprint_from_gaps(oracle_gap_hist(blocks), n, m)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def assert_matches_oracle(blocks: np.ndarray) -> None:
    assert_same_array(previous_occurrence(blocks), oracle_previous(blocks))
    assert_same_array(reuse_intervals(blocks), oracle_intervals(blocks))
    for got, want in zip(first_last_positions(blocks), oracle_first_last(blocks)):
        assert_same_array(got, want)
    prof = reuse_profile(blocks)
    assert prof.n == blocks.size
    assert prof.m == np.unique(blocks).size
    assert_same_array(prof.reuse_time_hist, oracle_reuse_time_hist(blocks))
    assert_same_array(prof.gap_hist, oracle_gap_hist(blocks))
    assert_same_array(reuse_time_histogram(blocks), prof.reuse_time_hist)
    assert_same_array(gap_histogram(blocks), prof.gap_hist)
    assert_same_array(
        average_footprint(blocks).values.view(np.int64),
        oracle_footprint_values(blocks).view(np.int64),
    )


I64 = np.iinfo(np.int64)
#: id spans on both sides of the uint16 radix cut-off (span < 65,536),
#: up to the whole int64 range
SPANS = (0, 1, 9, 65_534, 65_535, 65_536, 65_537, 2**40, 2**64 - 1)


@st.composite
def spanned_traces(draw) -> np.ndarray:
    """Traces over a few ids drawn from ``[low, low + span]``, ids negative or not.

    When drawn, both ends of the range occur, so the span is exact.
    """
    span = draw(st.sampled_from(SPANS))
    low = draw(st.integers(int(I64.min), int(I64.max) - span))
    pool = draw(st.lists(st.integers(0, span), min_size=1, max_size=8))
    offsets = draw(st.lists(st.sampled_from(pool), max_size=60))
    if draw(st.booleans()):
        offsets = draw(st.permutations(offsets + [0, span]))
    return np.array([low + o for o in offsets], dtype=np.int64)


@given(spanned_traces())
@settings(max_examples=400, deadline=None)
def test_one_sort_matches_sort_per_statistic_oracle(blocks):
    assert_matches_oracle(blocks)


@pytest.mark.parametrize(
    "blocks",
    [
        np.array([], dtype=np.int64),
        np.array([-3], dtype=np.int64),
        np.full(17, 5, dtype=np.int64),
        np.arange(-40, 40, dtype=np.int64),
        np.arange(70_000, dtype=np.int64)[::-1].copy(),
        np.array([I64.min, I64.max, I64.min, 0, I64.max, -1], dtype=np.int64),
        np.array([0, 65_535, 7, 0, 65_535], dtype=np.int64),
        np.array([0, 65_536, 7, 0, 65_536], dtype=np.int64),
        np.array([-65_537, 0, -65_537, 3, 0], dtype=np.int64),
    ],
    ids=[
        "empty", "one-access", "one-block", "all-distinct-negative",
        "all-distinct-wide", "int64-extremes", "span-65535", "span-65536",
        "span-65537-negative",
    ],
)
def test_edge_traces_match_oracle(blocks):
    assert_matches_oracle(blocks)


BAD_IDS = {
    "float": np.array([1.5, 2.5, 1.2]),
    "float-integral": np.array([1.0, 2.0, 1.0]),
    "bool": np.array([True, False, True]),
    "2-D": np.zeros((2, 3), dtype=np.int64),
    "0-D": np.array(4),
}
ENTRY_POINTS = {
    "as_block_ids": as_block_ids,
    "previous_occurrence": previous_occurrence,
    "reuse_intervals": reuse_intervals,
    "reuse_time_histogram": reuse_time_histogram,
    "first_last_positions": first_last_positions,
    "gap_histogram": gap_histogram,
    "reuse_profile": reuse_profile,
    "average_footprint": average_footprint,
    "windowed_wss": lambda b: windowed_wss(b, 1),
    "wss_curve_direct": wss_curve_direct,
    "stack_distances": stack_distances,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
@pytest.mark.parametrize("bad", BAD_IDS, ids=str)
def test_bare_arrays_must_be_1d_integer_ids(entry, bad):
    with pytest.raises(ValueError, match="trace must"):
        ENTRY_POINTS[entry](BAD_IDS[bad])


def test_integer_dtypes_and_lists_are_accepted():
    want = reuse_profile(np.array([3, 1, 3, 2], dtype=np.int64))
    for ids in ([3, 1, 3, 2], np.array([3, 1, 3, 2], dtype=np.uint8),
                np.array([3, 1, 3, 2], dtype=np.int32)):
        got = reuse_profile(ids)
        assert (got.n, got.m) == (want.n, want.m)
        assert_same_array(got.gap_hist, want.gap_hist)
        assert_same_array(got.reuse_time_hist, want.reuse_time_hist)
