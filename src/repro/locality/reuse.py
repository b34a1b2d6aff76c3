"""Reuse-time analysis (paper §III).

Definitions follow the Higher Order Theory of Locality (HOTL, Xiang et al.
ASPLOS'13) as restated in the paper:

* a **reuse pair** is two accesses to the same datum with no intervening
  access to that datum;
* the **reuse time** of the pair at positions ``i < j`` (1-based in the
  paper) is ``rt = j - i + 1`` (Eq. 4), i.e. the length of the smallest
  window containing both accesses;
* the **reuse interval** used internally here is ``r = j - i`` so that the
  *gap* of non-access positions strictly between the pair is ``r - 1``.

All functions are vectorized; no per-access Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.trace import Trace

__all__ = [
    "as_block_ids",
    "previous_occurrence",
    "ReuseCarry",
    "batch_previous_positions",
    "reuse_intervals",
    "reuse_time_histogram",
    "first_last_positions",
    "gap_histogram",
    "ReuseProfile",
    "reuse_profile",
]

#: an id span below this is sorted as ``uint16`` keys, which NumPy's
#: stable sort orders with an O(n) radix sort
_RADIX_SPAN = 1 << 16


def as_block_ids(trace: Trace | np.ndarray) -> np.ndarray:
    """Block ids of ``trace`` as a contiguous 1-D ``int64`` array.

    A :class:`Trace` hands over its (already validated) ids.  A bare
    array must be 1-D and of an integer dtype: float ids would be
    truncated silently and bools are not block ids, so anything else
    raises :class:`ValueError`.
    """
    if isinstance(trace, Trace):
        return trace.blocks
    arr = np.asarray(trace)
    if arr.ndim != 1:
        raise ValueError(f"trace must be 1-D block ids, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"trace must hold integer block ids, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _group(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal ids with one stable sort: ``(order, head)``.

    ``order`` lists the positions by ascending id and, within an id (the
    sort is stable), in access order.  ``head`` has ``n + 1`` entries:
    ``head[j]`` marks sorted slot ``j`` as its id's first access and
    ``head[n]`` is set, so ``head[j + 1]`` marks slot ``j`` as its id's
    last.  Every reuse statistic of this module is read off these two
    arrays.  An id span under :data:`_RADIX_SPAN` (taken in Python ints,
    so ids spanning all of ``int64`` cannot overflow it) sorts the ids
    offset by their minimum as ``uint16``: same order, O(n) radix sort.
    """
    n = blocks.size
    head = np.ones(n + 1, dtype=bool)
    if n == 0:
        return np.empty(0, dtype=np.int64), head
    low = blocks.min()
    keys = blocks
    if int(blocks.max()) - int(low) < _RADIX_SPAN:
        keys = (blocks - low).astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:n])
    return order, head


def previous_occurrence(trace: Trace | np.ndarray) -> np.ndarray:
    """Index of the previous access to the same block, or -1 for a first access.

    One stable sort groups equal ids with access order kept inside each
    group (:func:`_group`): O(n) radix when the id span is under 65,536,
    O(n log n) otherwise.
    """
    order, head = _group(as_block_ids(trace))
    n = order.size
    prev = np.full(n, -1, dtype=np.int64)
    # within each id-group, order[] is increasing by position (stable sort),
    # so the left neighbour in the sorted view is the previous occurrence.
    repeat = ~head[1:n]
    prev[order[1:][repeat]] = order[:-1][repeat]
    return prev


class ReuseCarry:
    """Per-block state a stream carries from one batch to the next.

    Each block seen so far has a column in one ``(3, ·)`` int64 table:
    row 0 its id (ascending), row 1 its last global position, row 2 its
    first global position (the prefix-gap input of the footprint
    formula).  A sorted table instead of dicts lets
    :func:`batch_previous_positions` look a whole batch up with one
    ``searchsorted``, update ``last`` in place and merge the batch's new
    blocks in with one copy of the table.
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table = np.empty((3, 0), dtype=np.int64)

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, last, first)`` of every carried block, keys ascending.

        The rows are views of the carry's table: read them only.
        """
        keys, last, first = self.table
        return keys, last, first

    def __len__(self) -> int:
        return int(self.table.shape[1])


def batch_previous_positions(
    blocks: np.ndarray, positions: np.ndarray, carry: ReuseCarry
) -> np.ndarray:
    """Previous global position of each access, carrying state across batches.

    The incremental-update hook behind the streaming profiler
    (:mod:`repro.online.profiler`): ``blocks[i]`` was accessed at global
    stream position ``positions[i]`` (non-negative, increasing across
    batches); the returned array holds the global position of the
    previous access to the same block, or ``-1`` for a stream-first
    access.  ``carry`` is updated in place so the next batch continues
    seamlessly: each carried block's ``last`` moves to its batch-last
    position and a stream-first block is merged in with its ``first``.

    Reuses within the batch are resolved vectorized (the stable-argsort
    trick of :func:`previous_occurrence`); the batch's distinct blocks
    meet the carry in one ``searchsorted``, so there is no per-block
    Python work.  Merging new blocks copies the whole table, so a batch
    that brings any costs O(carried blocks).
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    if blocks.shape != positions.shape or blocks.ndim != 1:
        raise ValueError("blocks and positions must be 1-D and of equal length")
    k = blocks.size
    prev = np.full(k, -1, dtype=np.int64)
    if k == 0:
        return prev
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    sorted_positions = positions[order]
    # head[j]: sorted slot j is its block's batch-first occurrence, so
    # head[j + 1] marks slot j as the batch-last one
    head = np.empty(k + 1, dtype=bool)
    head[0] = head[k] = True
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=head[1:k])
    repeat = ~head[1:k]
    prev[order[1:][repeat]] = sorted_positions[:-1][repeat]
    uniq = sorted_blocks[head[:k]]
    firsts = order[head[:k]]
    lasts = sorted_positions[head[1:]]
    # batch-first occurrences consult (and seed) the carry
    table = carry.table
    loc = np.searchsorted(table[0], uniq)
    if table.shape[1]:
        found = table[0].take(loc, mode="clip") == uniq
    else:
        found = np.zeros(uniq.size, dtype=bool)
    at = loc[found]
    prev[firsts[found]] = table[1, at]
    table[1, at] = lasts[found]
    fresh = ~found
    if fresh.any():
        # the j-th new key lands after the carried keys below it and the
        # j new keys before it
        dest = loc[fresh] + np.arange(int(fresh.sum()))
        merged = np.empty((3, table.shape[1] + dest.size), dtype=np.int64)
        old = np.ones(merged.shape[1], dtype=bool)
        old[dest] = False
        merged[:, old] = table
        merged[0, dest] = uniq[fresh]
        merged[1, dest] = lasts[fresh]
        merged[2, dest] = positions[firsts[fresh]]
        carry.table = merged
    return prev


def reuse_intervals(trace: Trace | np.ndarray) -> np.ndarray:
    """Reuse interval ``r = j - i`` for every non-first access (compact array).

    The paper's reuse *time* (Eq. 4) is ``r + 1``.
    """
    prev = previous_occurrence(trace)
    idx = np.flatnonzero(prev >= 0)
    return idx - prev[idx]


def reuse_time_histogram(trace: Trace | np.ndarray) -> np.ndarray:
    """Histogram ``freq[rt]`` of paper-style reuse times (Eq. 4 definition).

    ``freq[rt]`` counts reuse pairs whose reuse time is ``rt``; indices 0
    and 1 are always zero (a reuse time is at least 2: the pair occupies a
    window of at least two accesses).
    """
    return reuse_profile(trace).reuse_time_hist


def first_last_positions(trace: Trace | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-datum first and last access positions (0-based), in datum order.

    Returns ``(first, last)`` aligned with ``numpy.unique`` order of ids.
    """
    order, head = _group(as_block_ids(trace))
    return order[head[:-1]], order[head[1:]]


def gap_histogram(trace: Trace | np.ndarray) -> np.ndarray:
    """Histogram of *gap* lengths: maximal runs of positions not touching a datum.

    For each datum the trace splits into a prefix gap (before its first
    access), internal gaps (between consecutive accesses, length
    ``r - 1``), and a suffix gap (after its last access).  These gaps are
    exactly what the linear-time footprint formula needs
    (:func:`repro.locality.footprint.average_footprint`): a window avoids a
    datum iff it fits inside one of its gaps.

    Returns ``G`` with ``G[g]`` = number of gaps of length ``g`` (``g >= 1``;
    zero-length gaps are dropped as they never contain a window).
    """
    return reuse_profile(trace).gap_hist


@dataclass(frozen=True)
class ReuseProfile:
    """Bundled single-pass reuse statistics of one trace."""

    n: int
    m: int
    reuse_time_hist: np.ndarray
    gap_hist: np.ndarray

    @property
    def n_reuses(self) -> int:
        return int(self.reuse_time_hist.sum())

    @property
    def n_cold(self) -> int:
        """Number of first (compulsory-miss) accesses."""
        return self.m


def reuse_profile(trace: Trace | np.ndarray) -> ReuseProfile:
    """Compute all reuse statistics needed by the footprint analysis.

    One grouping sort (:func:`_group`) yields both histograms and ``m``.
    """
    blocks = as_block_ids(trace)
    n = int(blocks.size)
    order, head = _group(blocks)
    # consecutive sorted slots of one id are a reuse pair: r = j - i
    intervals = np.diff(order)[~head[1:n]]
    rt_hist = np.bincount(intervals + 1, minlength=2)
    if n == 0:
        return ReuseProfile(0, 0, rt_hist, np.zeros(1, dtype=np.int64))
    first = order[head[:n]]
    suffix = (n - 1) - order[head[1:]]
    # an internal gap is r - 1 = rt - 2 long, so its counts are
    # rt_hist[2:]; the prefix (first) and suffix gaps are counted here
    gap_hist = np.bincount(
        np.concatenate([first, suffix]), minlength=rt_hist.size - 2
    )
    gap_hist[: rt_hist.size - 2] += rt_hist[2:]
    gap_hist[0] = 0  # a zero-length gap holds no window
    return ReuseProfile(n=n, m=int(first.size), reuse_time_hist=rt_hist, gap_hist=gap_hist)
