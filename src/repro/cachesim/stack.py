"""LRU stack-distance computation.

The stack distance (reuse distance) of an access is the number of distinct
blocks touched since the previous access to the same block, inclusive.  An
access hits in a fully-associative LRU cache of ``c`` blocks iff its stack
distance is ``<= c`` — so one pass yields the exact miss count for *every*
cache size at once (the ground truth against which HOTL is validated,
§VII-C).

Algorithm: with ``p = prev[j]`` the previous access to the block accessed
at ``j``, a position ``r`` in ``(p, j)`` repeats a block already seen in
the window iff ``prev[r] > p``, and no ``r <= p`` can satisfy that, so

    dist[j] = j - p - #{r < j : prev[r] > p}.

Only reuse accesses (``prev >= 0``) can satisfy the predicate, so the
count runs over them alone.  The dominating pairs ``(r, j)`` are counted
bottom-up by divide and conquer over positions: at the level of width
``w``, every aligned window of ``2w`` positions pairs its left half with
its right half.  The left halves are sorted once, keyed by
``window * n + prev``, and two ``searchsorted`` calls count, for every
right-half access, the left-half accesses of its window with a larger
``prev``.  Every pair ``r < j`` is split at exactly one level, so the
per-level counts sum to the full count.  ``ceil(log2 n)`` levels of an
O(n log n) sort give O(n log² n) time and O(n) extra memory, with no
Python loop per access.
"""

from __future__ import annotations

import numpy as np

from repro.locality.reuse import previous_occurrence
from repro.workloads.trace import Trace

__all__ = ["stack_distances", "COLD"]

COLD: int = -1
"""Sentinel stack distance for a first (compulsory-miss) access."""


def _blocks(trace: Trace | np.ndarray) -> np.ndarray:
    if isinstance(trace, Trace):
        return trace.blocks
    arr = np.asarray(trace)
    if arr.ndim != 1:
        raise ValueError(f"trace must be 1-D block ids, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"trace must hold integer block ids, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def stack_distances(trace: Trace | np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access; first accesses get :data:`COLD`.

    Example: for the trace ``a b a`` the distances are ``[-1, -1, 2]``
    (the second ``a`` re-touches its block past one other distinct block).
    Raises :class:`ValueError` for an array that is not 1-D or not of an
    integer dtype.
    """
    blocks = _blocks(trace)
    n = int(blocks.size)
    prev = previous_occurrence(blocks)
    dist = np.full(n, COLD, dtype=np.int64)
    pos = np.flatnonzero(prev >= 0)  # reuse accesses, in trace order
    p = prev[pos]
    dominated = np.zeros(pos.size, dtype=np.int64)
    w = 1
    while w < n:
        window = pos // (2 * w) * n  # key offset of each access's window
        right = (pos & w) != 0
        keys = np.sort(window[~right] + p[~right])
        lo = np.searchsorted(keys, window[right] + p[right], side="right")
        hi = np.searchsorted(keys, window[right] + n, side="left")
        dominated[right] += hi - lo
        w *= 2
    dist[pos] = pos - p - dominated
    return dist


def distance_histogram(trace: Trace | np.ndarray) -> tuple[np.ndarray, int]:
    """Histogram of reuse stack distances and the cold-miss count.

    Returns ``(hist, n_cold)`` where ``hist[d]`` counts reuse accesses at
    distance ``d`` (``d >= 1``).
    """
    dist = stack_distances(trace)
    reuse = dist[dist != COLD]
    n_cold = int(dist.size - reuse.size)
    size = int(reuse.max()) + 1 if reuse.size else 2
    return np.bincount(reuse, minlength=size), n_cold
