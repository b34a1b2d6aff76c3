"""Average footprint analysis (paper §III, Eq. 5).

The average footprint ``fp(w)`` is the mean number of distinct blocks
accessed over *all* windows of length ``w`` in the trace:

    fp(w) = (1 / (n - w + 1)) * sum_i WSS(i, w)            (Eq. 5)

Computing it directly is O(n^2).  This module implements the linear-time
formula of Xiang et al. (PACT'11), restated through *gaps* (see
:func:`repro.locality.reuse.gap_histogram`):

A window of length ``w`` fails to touch datum ``d`` exactly when it fits
inside one of ``d``'s gaps (a maximal run of positions not accessing
``d``).  A gap of length ``g`` contains ``max(g - w + 1, 0)`` windows of
length ``w``.  Therefore

    sum_i WSS(i, w) = m * (n - w + 1) - sum_over_gaps max(g - w + 1, 0)

and with the gap histogram ``G`` and its suffix sums the whole curve
``fp(1..n)`` falls out in O(n + max_gap) time.

The module also ships a direct sliding-window reference
(:func:`windowed_wss`) used by the test-suite to validate the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.locality.reuse import as_block_ids, previous_occurrence, reuse_profile
from repro.workloads.trace import Trace

__all__ = [
    "FootprintCurve",
    "average_footprint",
    "footprint_from_gaps",
    "windowed_wss",
    "wss_curve_direct",
]


@dataclass(frozen=True)
class FootprintCurve:
    """The average footprint function of one program.

    Attributes
    ----------
    values:
        ``values[w] = fp(w)`` for ``w = 0 .. n`` (``values[0] == 0``).
    n:
        Trace length (number of accesses).
    m:
        Number of distinct blocks; ``fp(n) == m``.
    access_rate:
        Accesses per unit time of the profiled program (copied from the
        trace; used by composition, Eq. 9).
    name:
        Program name, for reporting.
    """

    values: np.ndarray
    n: int
    m: int
    access_rate: float = 1.0
    name: str = "trace"

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size != self.n + 1:
            raise ValueError("values must have length n + 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # ------------------------------------------------------------------
    def __call__(self, w: np.ndarray | float) -> np.ndarray | float:
        """Evaluate ``fp`` at (possibly fractional) window lengths.

        Linear interpolation between integer window lengths; clamped to
        ``fp(n) = m`` beyond the trace length (the footprint saturates once
        every datum has been seen).  A ``NaN`` window raises ``ValueError``.

        A ``float`` (Python or ``np.float64``) or ``int`` is evaluated in
        plain-float arithmetic in the array path's operation order, so both
        give IEEE-identical results; the scalar path skips NumPy's per-call
        0-d overhead, which dominates the co-run fill-window bisection.
        """
        if isinstance(w, (float, int)):
            x = float(w)
            if x != x:
                raise ValueError("footprint window length is NaN")
            n = self.n
            if x < 0.0:
                x = 0.0
            elif x > n:
                x = float(n)
            lo = int(x)
            hi = min(lo + 1, n)
            v_lo = self.values.item(lo)
            return v_lo + (x - lo) * (self.values.item(hi) - v_lo)
        w_arr = np.clip(np.asarray(w, dtype=np.float64), 0.0, float(self.n))
        if np.isnan(w_arr).any():
            raise ValueError("footprint window lengths contain NaN")
        lo = w_arr.astype(np.int64)
        hi = np.minimum(lo + 1, self.n)
        frac = w_arr - lo
        v_lo = self.values[lo]
        out = v_lo + frac * (self.values[hi] - v_lo)
        return float(out) if out.ndim == 0 else out

    def inverse(self, target: np.ndarray | float) -> np.ndarray | float:
        """Fill time ``ft = fp^{-1}`` (Eq. 6): window length reaching a footprint.

        Values above ``m`` are mapped to ``n`` (the footprint never exceeds
        the total working set).  Piecewise-linear inverse of the monotone
        curve.  A scalar takes a plain-float path, IEEE-identical to the
        array path (see :meth:`__call__`).
        """
        if isinstance(target, (float, int)):
            t = float(target)
            if t <= 0.0:
                return 0.0
            n = self.n
            if t >= self.m:
                return float(n)
            lo = max(min(int(self.values.searchsorted(t)), n) - 1, 0)
            f_lo = self.values.item(lo)
            run = self.values.item(min(lo + 1, n)) - f_lo
            exact = lo + ((t - f_lo) / run if run > 0 else 0.0)
            if exact < 0.0:
                return 0.0
            return float(n) if exact > n else exact
        target = np.asarray(target, dtype=np.float64)
        # np.interp needs strictly usable x; fp is non-decreasing, possibly
        # with flat segments — take the earliest window achieving the target.
        w = np.searchsorted(self.values, target, side="left").astype(np.float64)
        w = np.minimum(w, self.n)
        lo = np.maximum(w.astype(np.int64) - 1, 0)
        hi = lo + 1
        f_lo = self.values[lo]
        f_hi = self.values[np.minimum(hi, self.n)]
        run = f_hi - f_lo
        frac = np.where(run > 0, (target - f_lo) / np.where(run > 0, run, 1.0), 0.0)
        exact = np.clip(lo + frac, 0.0, float(self.n))
        out = np.where(target <= 0, 0.0, np.where(target >= self.m, float(self.n), exact))
        return float(out) if out.ndim == 0 else out

    @property
    def saturated(self) -> float:
        """``fp(n) = m``, the total working-set size."""
        return float(self.values[-1])


def footprint_from_gaps(
    gap_hist: np.ndarray, n: int, m: float, *, max_window: int | None = None
) -> np.ndarray:
    """Average footprint ``fp(0..w_max)`` from a gap histogram (the Eq. 5 kernel).

    This is the closed form shared by the offline full-trace path
    (:func:`average_footprint`) and the online streaming profiler
    (:mod:`repro.online.profiler`), whose histogram is scaled up from a
    spatial sample — hence fractional counts and a fractional ``m`` are
    accepted.  ``max_window`` truncates the curve (a snapshot only needs
    windows up to the cache fill time, not the whole stream length).
    """
    w_max = int(n if max_window is None else min(max_window, n))
    values = np.zeros(w_max + 1, dtype=np.float64)
    if n == 0 or w_max == 0:
        return values
    gap_hist = np.asarray(gap_hist, dtype=np.float64)
    max_gap = gap_hist.size - 1
    # suffix sums over the gap histogram:
    #   S1(w) = sum_{g >= w} G[g]          (number of gaps at least w long)
    #   S2(w) = sum_{g >= w} g * G[g]
    # then T(w) = sum_g G[g] * max(g - w + 1, 0) = S2(w) - (w - 1) * S1(w).
    s1 = np.zeros(n + 2, dtype=np.float64)
    s2 = np.zeros(n + 2, dtype=np.float64)
    upto = min(max_gap, n)
    if upto >= 1:
        counts = np.zeros(n + 1, dtype=np.float64)
        weights = np.zeros(n + 1, dtype=np.float64)
        counts[1 : upto + 1] = gap_hist[1 : upto + 1]
        weights[1 : upto + 1] = gap_hist[1 : upto + 1] * np.arange(1, upto + 1)
        s1[:-1] = np.cumsum(counts[::-1])[::-1]
        s2[:-1] = np.cumsum(weights[::-1])[::-1]

    w = np.arange(1, w_max + 1, dtype=np.float64)
    avoiding = s2[1 : w_max + 1] - (w - 1.0) * s1[1 : w_max + 1]
    windows = n - w + 1.0
    values[1:] = m - avoiding / windows
    return values


def average_footprint(trace: Trace | np.ndarray, name: str | None = None) -> FootprintCurve:
    """Linear-time average footprint of a trace (Eq. 5 via the gap formula)."""
    profile = reuse_profile(trace)
    n, m = profile.n, profile.m
    rate = trace.access_rate if isinstance(trace, Trace) else 1.0
    if name is None:
        name = trace.name if isinstance(trace, Trace) else "trace"
    if n == 0:
        return FootprintCurve(np.zeros(1), n=0, m=0, access_rate=rate, name=name)
    values = footprint_from_gaps(profile.gap_hist, n, m)
    return FootprintCurve(values, n=n, m=m, access_rate=rate, name=name)


def windowed_wss(trace: Trace | np.ndarray, w: int) -> np.ndarray:
    """Distinct-block count ``WSS(i, w)`` for every window of length ``w``.

    O(n) sliding-window computation used as the ground-truth reference in
    tests.  An element at position ``i`` is *new* in the window starting at
    ``s`` iff its previous occurrence is before ``s``; summing the new
    elements per window with a difference array gives all counts at once.
    """
    blocks = as_block_ids(trace)
    n = blocks.size
    if not 1 <= w <= n:
        raise ValueError(f"window length must be in [1, {n}], got {w}")
    prev = previous_occurrence(blocks)
    # position i is counted in window s iff s in (prev[i], i] and s in
    # [i - w + 1, i]  =>  s in [max(prev[i] + 1, i - w + 1), i].
    i = np.arange(n, dtype=np.int64)
    lo = np.maximum(prev + 1, i - w + 1)
    hi = np.minimum(i, n - w)  # windows start at 0 .. n - w
    valid = lo <= hi
    diff = np.zeros(n - w + 2, dtype=np.int64)
    np.add.at(diff, lo[valid], 1)
    np.add.at(diff, hi[valid] + 1, -1)
    return np.cumsum(diff[:-1])


def wss_curve_direct(trace: Trace | np.ndarray) -> np.ndarray:
    """Reference O(n^2) average footprint: ``fp[w]`` for ``w = 0..n``.

    Only for testing on small traces.
    """
    blocks = as_block_ids(trace)
    n = blocks.size
    out = np.zeros(n + 1, dtype=np.float64)
    for w in range(1, n + 1):
        out[w] = windowed_wss(blocks, w).mean()
    return out
