"""Cross-simulator differential tests at long trace lengths.

Each test pits a stack-distance fast path against an independent
step-by-step simulator on seeded traces of tens to hundreds of thousands
of accesses; every pair must agree exactly.
"""

import numpy as np
import pytest

from repro.cachesim.lru import LRUCache, lru_miss_counts
from repro.cachesim.partitioned import simulate_partitioned
from repro.cachesim.setassoc import set_assoc_miss_count
from repro.cachesim.shared import simulate_shared
from repro.cachesim.stack import COLD, stack_distances
from repro.locality.mrc import MissRatioCurve
from repro.workloads import cyclic, hot_cold, phased, sawtooth, uniform_random, zipf
from repro.workloads.interleave import interleave


def _stepwise_misses(blocks: np.ndarray, capacity: int) -> np.ndarray:
    """Per-access miss mask of a step-by-step LRU cache."""
    return ~LRUCache(capacity).run(blocks)


@pytest.mark.parametrize("ways", [1, 64, 1024])
def test_one_set_cache_equals_fully_associative_lru(ways):
    tr = phased([zipf(12_000, 3000, seed=21), cyclic(8_000, 700)], repeats=2)
    assert set_assoc_miss_count(tr, 1, ways) == lru_miss_counts(tr, [ways])[0]


def test_partitioned_equals_private_lru_caches():
    traces = [
        zipf(80_000, 9000, alpha=0.8, seed=31, name="z"),
        uniform_random(60_000, 2500, seed=32, name="u"),
        sawtooth(50_000, 1800, name="s"),
        hot_cold(60_000, 200, 6000, seed=33, name="h"),
    ]
    alloc = np.array([1500, 2000, 1799, 700])
    with_cold = simulate_partitioned(traces, alloc, include_cold=True)
    without = simulate_partitioned(traces, alloc, include_cold=False)
    for i, (tr, c) in enumerate(zip(traces, alloc.tolist())):
        stepwise = int(_stepwise_misses(tr.blocks, c).sum())
        assert with_cold.misses[i] == stepwise
        assert without.misses[i] == stepwise - tr.data_size


@pytest.mark.parametrize(
    "make",
    [
        lambda: zipf(150_000, 30_000, alpha=0.7, seed=41),
        lambda: hot_cold(120_000, 400, 9000, seed=42),
    ],
    ids=["zipf", "hot_cold"],
)
def test_mrc_from_stack_distances_equals_lru_miss_counts(make):
    tr = make()
    dist = stack_distances(tr)
    reuse = dist[dist != COLD]
    capacity = int(reuse.max()) + 2  # past the largest distance: the curve hits zero
    sizes = np.arange(capacity + 1)
    n = len(tr)
    exact = MissRatioCurve.from_stack_distances(reuse, capacity, n)
    assert np.array_equal(exact.ratios, lru_miss_counts(tr, sizes, include_cold=False) / n)
    cold = MissRatioCurve.from_stack_distances(
        reuse, capacity, n, include_cold=True, data_size=tr.data_size
    )
    assert np.array_equal(cold.ratios, lru_miss_counts(tr, sizes) / n)


@pytest.mark.parametrize("mode", ["proportional", "random"])
def test_shared_attribution_equals_stepwise_lru(mode):
    traces = [
        zipf(60_000, 8000, seed=51, name="z"),
        cyclic(40_000, 1200, name="c", access_rate=0.5),
        uniform_random(50_000, 3000, seed=52, name="u", access_rate=2.0),
    ]
    inter = interleave(traces, mode=mode, rng=np.random.default_rng(53))
    blocks, owner = inter.trace.blocks, inter.owner
    n_prog = len(traces)
    _, first = np.unique(blocks, return_index=True)
    expected_cold = np.bincount(owner[first], minlength=n_prog)
    for cache_size in (900, 4000):
        res = simulate_shared(traces, cache_size, interleaved=inter)
        stepwise = np.bincount(owner[_stepwise_misses(blocks, cache_size)], minlength=n_prog)
        assert np.array_equal(res.cold_misses, expected_cold)
        assert np.array_equal(res.misses + res.cold_misses, stepwise)
        assert np.array_equal(res.accesses, np.bincount(owner, minlength=n_prog))
