"""Stone–Thiebaut–Turek–Wolf (1992) cache partitioning (paper §V-B, Eqs. 12–14).

STTW allocates the next cache unit to the process with the highest
miss-count derivative, stopping when derivatives are "as equal as
possible" — optimal **iff** every miss-ratio curve is convex and
decreasing.  The paper uses it as the classic comparison point (Fig. 7,
Table I last row) and shows the convexity assumption failing in ≥34% of
groups.

This implementation is the faithful greedy: it is *meant* to inherit the
convexity flaw — on a plateau-then-cliff curve the one-step marginal gain
is zero before the cliff, so the greedy never invests there and can end up
worse than free-for-all sharing, exactly as the paper reports.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["sttw_partition"]


def sttw_partition(costs: Sequence[np.ndarray], budget: int) -> np.ndarray:
    """Greedy marginal-gain allocation of ``budget`` units.

    Each step gives one unit to the program whose cost drops the most for
    that unit (Eq. 14 with the access-fraction weights already folded into
    the cost curves, which are miss *counts*).  Ties go to the
    lowest-index program; exhausted programs (at grid end) read ``-inf``.
    A ``NaN`` gain wins the step the way ``np.argmax`` picks it, and like
    any non-finite winner it ends the loop.

    O(P · C) time.  The per-step first-max scan runs over plain Python
    floats: with a handful of programs, NumPy's per-call overhead on a
    P-element argmax would cost more than the scan itself.
    """
    curves = [np.ascontiguousarray(c, dtype=np.float64) for c in costs]
    if not curves:
        raise ValueError("need at least one cost curve")
    if any(c.ndim != 1 for c in curves):
        shapes = [c.shape for c in curves]
        raise ValueError(f"cost curves must be 1-D, got shapes {shapes}")
    size = curves[0].size
    if any(c.size != size for c in curves):
        raise ValueError("all cost curves must have equal length")
    if not 0 <= budget < size:
        raise ValueError(f"budget must be within the curves' grid [0, {size - 1}]")
    n_prog = len(curves)
    inf = math.inf
    # marginal gain of the next unit for program i at allocation c:
    #   gains[i][c] = cost_i(c) - cost_i(c + 1)
    gains: list[list[float]] = [(c[:-1] - c[1:]).tolist() for c in curves]
    n_gains = size - 1
    alloc = [0] * n_prog
    current = [g[0] if n_gains else -inf for g in gains]
    for _ in range(budget):
        # first maximum, a NaN winning outright (np.argmax's order)
        i, best = 0, current[0]
        if best == best:
            for j in range(1, n_prog):
                v = current[j]
                if v > best:
                    i, best = j, v
                elif v != v:
                    i, best = j, v
                    break
        if not -inf < best < inf:
            break  # all exhausted (or a NaN/inf gain); leftover units stay unused
        c = alloc[i] + 1
        alloc[i] = c
        current[i] = gains[i][c] if c < n_gains else -inf
    return np.array(alloc, dtype=np.int64)
