"""Tests for the streaming SHARDS-sampled footprint/MRC profiler.

The two contracts under test, as documented in README.md §Online
operation:

* at ``sampling_rate=1.0`` the streaming snapshot is *identical* to the
  offline full-trace analysis, regardless of batching;
* at 10% (and even 1%) sampling the MRC estimate converges to the
  full-trace MRC within a mean-L1 tolerance of 0.03 (0.10).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality.footprint import average_footprint, footprint_from_gaps
from repro.locality.mrc import MissRatioCurve
from repro.locality.reuse import ReuseCarry, batch_previous_positions, previous_occurrence
from repro.online.profiler import StreamingProfiler, _hash64
from repro.workloads.generators import cyclic, uniform_random, zipf

# documented convergence tolerances (mean |Δmr| over the size grid)
MRC_L1_TOL_10PCT = 0.03
MRC_L1_TOL_1PCT = 0.10


# ----------------------------------------------------- incremental hooks
def test_batch_previous_positions_matches_offline():
    tr = uniform_random(2000, 50, seed=0)
    ref = previous_occurrence(tr.blocks)
    carry = ReuseCarry()
    got = np.concatenate([
        batch_previous_positions(
            tr.blocks[s : s + 333], np.arange(s, min(s + 333, 2000)), carry
        )
        for s in range(0, 2000, 333)
    ])
    assert np.array_equal(got, ref)


def test_batch_previous_positions_records_first_seen():
    carry = ReuseCarry()
    batch_previous_positions(np.array([7, 8, 7, 9]), np.arange(4), carry)
    keys, last, first = carry.rows()
    assert keys.tolist() == [7, 8, 9]
    assert first.tolist() == [0, 1, 3]
    assert last.tolist() == [2, 1, 3]


# ------------------------------------------------- the dict-carry oracle
def oracle_batch_previous_positions(blocks, positions, last_seen, first_seen):
    """The per-distinct-block dict loop the array carry replaced.

    Same contract as :func:`batch_previous_positions`, with the carry
    held as ``block -> position`` dicts and visited one block at a time.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    k = blocks.size
    prev = np.full(k, -1, dtype=np.int64)
    if k == 0:
        return prev
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    same_as_left = np.empty(k, dtype=bool)
    same_as_left[0] = False
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=same_as_left[1:])
    prev[order[same_as_left]] = positions[order[np.flatnonzero(same_as_left) - 1]]
    for i in order[~same_as_left]:
        b = int(blocks[i])
        carried = last_seen.get(b, -1)
        if carried >= 0:
            prev[i] = carried
        else:
            first_seen[b] = int(positions[i])
    is_last = np.empty(k, dtype=bool)
    is_last[-1] = True
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=is_last[:-1])
    for i in order[is_last]:
        last_seen[int(blocks[i])] = int(positions[i])
    return prev


class OracleProfiler(StreamingProfiler):
    """:class:`StreamingProfiler` on the dict carry: the snapshot oracle."""

    def reset(self):
        super().reset()
        self._last_seen = {}
        self._first_seen = {}

    @property
    def distinct_sampled(self):
        return len(self._last_seen)

    def observe(self, accesses):
        blocks = np.ascontiguousarray(accesses, dtype=np.int64)
        start = self._n
        self._n += blocks.size
        if self._exact:
            keep = np.ones(blocks.size, dtype=bool)
        else:
            keep = _hash64(blocks, self.seed) < self._threshold
        sampled = blocks[keep]
        positions = start + np.flatnonzero(keep)
        self._kept += sampled.size
        prev = oracle_batch_previous_positions(
            sampled, positions, self._last_seen, self._first_seen
        )
        gaps = positions[prev >= 0] - prev[prev >= 0] - 1
        self._accumulate(gaps[gaps > 0])
        return int(sampled.size)

    def _full_gap_hist(self):
        n = self._n
        prefix = np.fromiter(self._first_seen.values(), dtype=np.int64)
        suffix = (n - 1) - np.fromiter(self._last_seen.values(), dtype=np.int64)
        open_gaps = np.concatenate([prefix[prefix > 0], suffix[suffix > 0]])
        size = max(self._gap_hist.size, int(open_gaps.max()) + 1 if open_gaps.size else 1)
        hist = np.zeros(size, dtype=np.float64)
        hist[: self._gap_hist.size] = self._gap_hist
        if open_gaps.size:
            hist[: int(open_gaps.max()) + 1] += np.bincount(open_gaps)
        return hist


_INT64 = st.integers(-(2**63), 2**63 - 1)
_EDGE_IDS = st.sampled_from(
    [0, 1, -1, 2**62, -(2**62), 2**62 + 1, -(2**62) - 1, 2**63 - 1, -(2**63)]
)
#: a step is a batch (indices into the id pool, so blocks recur) or a reset
_STEPS = st.lists(
    st.one_of(
        st.lists(st.integers(0, 15), min_size=0, max_size=40),
        st.lists(st.integers(0, 15), min_size=1, max_size=1),
        st.just("reset"),
    ),
    min_size=1,
    max_size=12,
)


@given(
    pool=st.lists(st.one_of(_EDGE_IDS, _INT64), min_size=16, max_size=16),
    steps=_STEPS,
)
@settings(max_examples=150, deadline=None)
def test_reuse_carry_matches_dict_oracle(pool, steps):
    """Every batch's ``prev`` and the final per-block first/last positions
    equal the dict loop's, and so does every profiler snapshot, bitwise."""
    carry, last_seen, first_seen, clock = ReuseCarry(), {}, {}, 0
    profilers = [
        (StreamingProfiler(sampling_rate=r), OracleProfiler(sampling_rate=r))
        for r in (1.0, 0.1)
    ]
    for step in steps:
        if step == "reset":
            carry, last_seen, first_seen, clock = ReuseCarry(), {}, {}, 0
            for pair in profilers:
                for prof in pair:
                    prof.reset()
            continue
        blocks = np.array([pool[i] for i in step], dtype=np.int64)
        positions = clock + np.arange(blocks.size, dtype=np.int64)
        clock += blocks.size
        got = batch_previous_positions(blocks, positions, carry)
        want = oracle_batch_previous_positions(blocks, positions, last_seen, first_seen)
        assert got.tobytes() == want.tobytes()
        keys, last, first = carry.rows()
        assert keys.tolist() == sorted(last_seen)
        assert last.tolist() == [last_seen[b] for b in sorted(last_seen)]
        assert first.tolist() == [first_seen[b] for b in sorted(first_seen)]
        for prof, oracle in profilers:
            assert prof.observe(blocks) == oracle.observe(blocks)
            assert prof.distinct_sampled == oracle.distinct_sampled
            fp, want_fp = prof.footprint(), oracle.footprint()
            assert (fp is None) == (want_fp is None)
            if fp is not None:
                assert fp.values.tobytes() == want_fp.values.tobytes()
                assert prof.mrc(24).ratios.tobytes() == oracle.mrc(24).ratios.tobytes()


def test_footprint_from_gaps_truncation():
    tr = uniform_random(500, 30, seed=1)
    full = average_footprint(tr)
    from repro.locality.reuse import reuse_profile

    prof = reuse_profile(tr)
    head = footprint_from_gaps(prof.gap_hist, prof.n, prof.m, max_window=100)
    assert head.size == 101
    assert np.allclose(head, full.values[:101])


# ------------------------------------------------- exact mode (rate 1.0)
def test_exact_profiler_matches_average_footprint():
    tr = zipf(4000, 300, seed=5)
    prof = StreamingProfiler()
    prof.observe(tr)
    fp = prof.footprint()
    ref = average_footprint(tr)
    assert fp.n == ref.n and fp.m == ref.m
    assert np.array_equal(fp.values, ref.values)


def test_exact_profiler_batch_invariance():
    """Snapshots must not depend on how the stream was chunked."""
    tr = uniform_random(3000, 120, seed=7)
    whole = StreamingProfiler()
    whole.observe(tr)
    chunked = StreamingProfiler()
    start = 0
    for step in (1, 7, 311, 1000, 3000):
        chunked.observe(tr.blocks[start : start + step])
        start += step
    assert np.array_equal(whole.footprint().values, chunked.footprint().values)
    assert whole.accesses_seen == chunked.accesses_seen == 3000


def test_exact_mrc_matches_offline_pipeline():
    tr = cyclic(2000, 64)
    prof = StreamingProfiler()
    prof.observe(tr)
    got = prof.mrc(128)
    ref = MissRatioCurve.from_footprint(average_footprint(tr), 128)
    assert np.array_equal(got.ratios, ref.ratios)
    assert got.n_accesses == ref.n_accesses


def test_max_window_caps_snapshot_cost():
    tr = uniform_random(10_000, 400, seed=2)
    prof = StreamingProfiler(max_window=500)
    prof.observe(tr)
    fp = prof.footprint()
    assert fp.n == 500
    assert np.allclose(fp.values, average_footprint(tr).values[:501])


# -------------------------------------------------------- sampled mode
@pytest.mark.parametrize(
    "rate,tol", [(0.1, MRC_L1_TOL_10PCT), (0.01, MRC_L1_TOL_1PCT)]
)
def test_sampled_mrc_converges_to_full_trace(rate, tol):
    """Acceptance: streaming MRC at <=10% sampling within documented L1."""
    tr = zipf(100_000, 2000, seed=2)
    prof = StreamingProfiler(sampling_rate=rate, max_window=20_000)
    for s in range(0, len(tr), 4096):
        prof.observe(tr.blocks[s : s + 4096])
    full = MissRatioCurve.from_footprint(average_footprint(tr), 2200)
    est = prof.mrc(2200)
    l1 = float(np.abs(est.ratios - full.ratios).mean())
    assert l1 < tol, f"L1 {l1:.4f} exceeds {tol} at rate {rate}"
    # the spatial filter keeps ~rate of the *blocks* (access-level rates
    # run higher on skewed traces: hot blocks bring all their accesses)
    block_rate = prof.distinct_sampled / 2000
    assert 0.5 * rate < block_rate < 2.0 * rate


def test_shards_spatial_filter_boundary_is_strict(monkeypatch):
    """SHARDS (FAST'15) keeps a block iff hash < rate·2^64 — *strict*.

    Regression for the off-by-one where ``observe`` kept ``hash <=
    threshold``: at ``sampling_rate=0.5`` the threshold is exactly 2^63
    and a block hashing right onto it must be dropped.
    """
    from repro.online import profiler as profiler_mod

    prof = StreamingProfiler(sampling_rate=0.5)
    assert prof._threshold == np.uint64(1 << 63)  # pin the boundary value

    # make the hash controllable: block id b hashes to b · 2^62, so block
    # 1 lands below the threshold, block 2 exactly on it, block 3 above
    monkeypatch.setattr(
        profiler_mod,
        "_hash64",
        lambda blocks, seed: blocks.astype(np.uint64) * np.uint64(1 << 62),
    )
    kept = prof.observe(np.array([1, 2, 3], dtype=np.int64))
    assert kept == 1  # only block 1; the boundary hash 2^63 is excluded
    assert prof.distinct_sampled == 1


def test_sampled_working_set_estimate():
    tr = uniform_random(50_000, 1000, seed=9)
    prof = StreamingProfiler(sampling_rate=0.1, seed=4)
    prof.observe(tr)
    assert abs(prof.footprint().m - 1000) < 150


def test_sampling_is_deterministic_per_seed():
    tr = uniform_random(5000, 300, seed=1)
    a, b = (StreamingProfiler(sampling_rate=0.2, seed=3) for _ in range(2))
    a.observe(tr)
    b.observe(tr)
    assert np.array_equal(a.footprint().values, b.footprint().values)
    c = StreamingProfiler(sampling_rate=0.2, seed=4)
    c.observe(tr)
    assert c.samples_seen != a.samples_seen or not np.array_equal(
        c.footprint().values, a.footprint().values
    )


# ------------------------------------------------------------- lifecycle
def test_empty_and_reset():
    prof = StreamingProfiler(sampling_rate=0.5)
    assert prof.footprint() is None and prof.mrc(10) is None
    prof.observe(np.array([], dtype=np.int64))
    assert prof.footprint() is None
    prof.observe(cyclic(100, 10))
    assert prof.footprint() is not None
    prof.reset()
    assert prof.accesses_seen == 0 and prof.footprint() is None


def test_profiler_validation():
    with pytest.raises(ValueError):
        StreamingProfiler(sampling_rate=0.0)
    with pytest.raises(ValueError):
        StreamingProfiler(sampling_rate=1.5)
    with pytest.raises(ValueError):
        StreamingProfiler(max_window=0)
    with pytest.raises(ValueError):
        StreamingProfiler().observe(np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize("batch", [np.array([1.7, 2.2]), np.array([True, False])])
def test_profiler_rejects_non_integer_block_ids(batch):
    # an int64 cast would profile 1.7 and 2.2 as blocks 1 and 2
    prof = StreamingProfiler()
    with pytest.raises(ValueError, match=str(batch.dtype)):
        prof.observe(batch)
    assert prof.accesses_seen == 0 and prof.distinct_sampled == 0


@pytest.mark.parametrize("batch", [[], np.array([], dtype=np.float32)])
def test_profiler_accepts_empty_batch_of_any_dtype(batch):
    # as OnlineController.ingest does: an empty batch holds no bad id
    prof = StreamingProfiler()
    assert prof.observe(batch) == 0
    assert prof.accesses_seen == 0 and prof.distinct_sampled == 0
