"""Incremental footprint/MRC profiling with SHARDS-style spatial sampling.

The offline pipeline needs the whole trace to build a gap histogram and
from it the average footprint (Eq. 5).  The streaming profiler maintains
the same histogram *incrementally*: each batch of accesses updates a
per-block carry of sorted ids with first/last positions
(:class:`repro.locality.reuse.ReuseCarry`, advanced by
:func:`repro.locality.reuse.batch_previous_positions`) and a running
histogram of closed gaps; prefix and suffix gaps are reconstructed from
the carry at snapshot time.  Nothing proportional
to the stream length is ever stored.

Spatial sampling follows SHARDS (Waldspurger et al., FAST'15): a block is
profiled iff ``hash(block) < rate · 2^64``, so either *all* accesses to a
block are observed or none are.  A block's gap multiset is therefore kept
or dropped atomically, making the sampled gap histogram (scaled by
``1/rate``) an unbiased estimator of the full one — and the closed-form
footprint of the scaled histogram an estimator of the full-trace
footprint.  Positions are counted in full-stream time (the filter drops
accesses from the histogram, not from the clock).

At ``sampling_rate=1.0`` the snapshot is bit-for-bit identical to
:func:`repro.locality.footprint.average_footprint` on the same accesses —
the equivalence the test-suite pins down.
"""

from __future__ import annotations

import numpy as np

from repro.locality.footprint import FootprintCurve, footprint_from_gaps
from repro.locality.mrc import MissRatioCurve
from repro.locality.reuse import ReuseCarry, batch_previous_positions
from repro.workloads.trace import Trace

__all__ = ["StreamingProfiler"]

# splitmix64 finalizer: a cheap, well-mixed 64-bit hash for the spatial filter
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)


def _hash64(blocks: np.ndarray, seed: int) -> np.ndarray:
    v = blocks.astype(np.uint64) + np.uint64(seed)
    v ^= v >> _SHIFT
    v *= _MIX1
    v ^= v >> _SHIFT
    v *= _MIX2
    v ^= v >> _SHIFT
    return v


class StreamingProfiler:
    """Per-tenant incremental reuse/footprint profiler.

    Parameters
    ----------
    sampling_rate:
        Fraction of the block address space profiled (``1.0`` = every
        access, exact).  Estimates are scaled by ``1/sampling_rate``.
    max_window:
        Longest window length materialized by :meth:`footprint`.  Snapshots
        cost O(max_window + longest gap); cap it near the cache fill time
        for long streams.  ``None`` evaluates the curve out to the full
        stream length.
    seed:
        Perturbs the spatial hash, decorrelating profilers (and letting a
        rerun sample a different block subset).
    """

    def __init__(
        self,
        *,
        sampling_rate: float = 1.0,
        max_window: int | None = None,
        seed: int = 0,
        name: str = "tenant",
    ) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        if max_window is not None and max_window < 1:
            raise ValueError("max_window must be >= 1")
        self.sampling_rate = float(sampling_rate)
        self.max_window = max_window
        self.seed = int(seed)
        self.name = name
        self._exact = sampling_rate >= 1.0
        # strict SHARDS predicate: keep iff hash < rate·2^64.  The exact
        # path bypasses the filter, so for filtered rates (< 1.0) the
        # product is < 2^64 and fits uint64 without clamping.
        if self._exact:
            self._threshold = np.uint64(2**64 - 1)
        else:
            self._threshold = np.uint64(int(sampling_rate * 2**64))
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all observations (start a fresh profiling window)."""
        self._n = 0
        self._kept = 0
        self._carry = ReuseCarry()
        self._gap_hist = np.zeros(1, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def accesses_seen(self) -> int:
        """Stream length so far (sampled or not — the global clock)."""
        return self._n

    @property
    def samples_seen(self) -> int:
        """Accesses that passed the spatial filter."""
        return self._kept

    @property
    def distinct_sampled(self) -> int:
        return len(self._carry)

    # ------------------------------------------------------------------
    def observe(self, accesses: Trace | np.ndarray) -> int:
        """Ingest one batch of accesses; returns how many were sampled.

        Block ids must have an integer dtype: a non-empty float or bool
        batch raises ``ValueError`` rather than being truncated onto other
        ids.
        """
        blocks = np.asarray(accesses.blocks if isinstance(accesses, Trace) else accesses)
        if blocks.ndim != 1:
            raise ValueError("a batch must be a 1-D block array")
        if blocks.size and not np.issubdtype(blocks.dtype, np.integer):
            raise ValueError(f"a batch must hold integer block ids, got dtype {blocks.dtype}")
        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        start = self._n
        self._n += blocks.size
        if blocks.size == 0:
            return 0
        if self._exact:
            sampled = blocks
            positions = start + np.arange(blocks.size, dtype=np.int64)
        else:
            keep = _hash64(blocks, self.seed) < self._threshold
            sampled = blocks[keep]
            positions = start + np.flatnonzero(keep)
        self._kept += sampled.size
        if sampled.size == 0:
            return 0
        prev = batch_previous_positions(sampled, positions, self._carry)
        reused = prev >= 0
        gaps = positions[reused] - prev[reused] - 1
        self._accumulate(gaps[gaps > 0])
        return int(sampled.size)

    def _accumulate(self, gaps: np.ndarray) -> None:
        if gaps.size == 0:
            return
        hist = np.bincount(gaps)
        if hist.size > self._gap_hist.size:
            grown = np.zeros(max(hist.size, 2 * self._gap_hist.size), dtype=np.int64)
            grown[: self._gap_hist.size] = self._gap_hist
            self._gap_hist = grown
        self._gap_hist[: hist.size] += hist

    # ------------------------------------------------------------------
    def _full_gap_hist(self) -> np.ndarray:
        """Closed gaps + open prefix/suffix gaps of the live blocks."""
        _, last, prefix = self._carry.rows()
        suffix = (self._n - 1) - last
        open_gaps = np.concatenate([prefix[prefix > 0], suffix[suffix > 0]])
        size = max(self._gap_hist.size, int(open_gaps.max()) + 1 if open_gaps.size else 1)
        hist = np.zeros(size, dtype=np.float64)
        hist[: self._gap_hist.size] = self._gap_hist
        if open_gaps.size:
            hist[: int(open_gaps.max()) + 1] += np.bincount(open_gaps)
        return hist

    def footprint(self, max_window: int | None = None) -> FootprintCurve | None:
        """Current average-footprint estimate, or ``None`` before any sample.

        The returned curve covers windows ``0 .. min(max_window, n)`` and
        behaves like a (shorter) full profile downstream, exactly as the
        bursty sampler's output does.
        """
        if self._n == 0 or self.distinct_sampled == 0:
            return None
        scale = 1.0 / self.sampling_rate
        m_hat = self.distinct_sampled * scale
        w_cap = max_window if max_window is not None else self.max_window
        values = footprint_from_gaps(
            self._full_gap_hist() * scale, self._n, m_hat, max_window=w_cap
        )
        return FootprintCurve(
            values,
            n=values.size - 1,
            m=max(int(round(m_hat)), 1),
            name=f"{self.name}~shards" if not self._exact else self.name,
        )

    def mrc(self, capacity: int) -> MissRatioCurve | None:
        """Miss-ratio-curve estimate on sizes ``0..capacity`` (HOTL, Eq. 10).

        ``n_accesses`` is the true stream length, so DP miss-count costs
        stay correctly weighted even under sampling.
        """
        fp = self.footprint()
        if fp is None:
            return None
        return MissRatioCurve.from_footprint(fp, capacity, n_accesses=self._n)
