"""HOTL metric conversions (paper §III, Eqs. 6–8 and 10).

Starting from the average footprint ``fp`` the higher-order theory of
locality derives, for a fully-associative LRU cache of size ``c`` blocks:

* fill time        ``ft(c) = fp^{-1}(c)``                  (Eq. 6)
* inter-miss time  ``im(c) = ft(c + 1) - ft(c)``           (Eq. 7)
* miss ratio       ``mr(c) = 1 / im(c)``                   (Eq. 8)

which collapses (for the piecewise-linear measured curve) to the form the
paper uses directly:

* ``mr(c) = fp(w + 1) - c``  where ``w`` satisfies ``fp(w) = c``  (Eq. 10)

The derived miss ratio is the *steady-state capacity* miss ratio: cold
(compulsory) misses are excluded, matching the paper's slowdown-free model.
"""

from __future__ import annotations

import numpy as np

from repro.locality.footprint import FootprintCurve

__all__ = ["fill_time", "inter_miss_time", "miss_ratio"]


def fill_time(fp: FootprintCurve, c: np.ndarray | float) -> np.ndarray | float:
    """Expected number of accesses to touch ``c`` distinct blocks (Eq. 6)."""
    return fp.inverse(c)


def inter_miss_time(fp: FootprintCurve, c: np.ndarray | float) -> np.ndarray | float:
    """Average accesses between consecutive misses at cache size ``c`` (Eq. 7).

    Infinite once the cache holds the whole working set (``c >= m``).
    """
    c = np.asarray(c, dtype=np.float64)
    ft_c = np.asarray(fp.inverse(c), dtype=np.float64)
    ft_c1 = np.asarray(fp.inverse(c + 1.0), dtype=np.float64)
    gap = ft_c1 - ft_c
    out = np.where(c >= fp.m, np.inf, np.where(gap > 0, gap, np.inf))
    return float(out) if out.ndim == 0 else out


def miss_ratio(fp: FootprintCurve, c: np.ndarray | float) -> np.ndarray | float:
    """Steady-state miss ratio at cache size ``c`` blocks (Eqs. 8 and 10).

    Implemented as Eq. 10: ``mr(c) = fp(w + 1) - c`` with ``fp(w) = c``,
    clipped to ``[0, 1]``.  Zero once ``c >= m``.  A scalar ``c`` is
    evaluated in plain floats, IEEE-identical to the array path.
    """
    if isinstance(c, (float, int)):
        x = float(c)
        if x >= fp.m:
            return 0.0
        mr = fp(fp.inverse(x) + 1.0) - x
        if mr < 0.0:
            return 0.0
        return 1.0 if mr > 1.0 else mr
    c_arr = np.asarray(c, dtype=np.float64)
    w = np.asarray(fp.inverse(c_arr), dtype=np.float64)
    mr = np.asarray(fp(w + 1.0), dtype=np.float64) - c_arr
    mr = np.clip(mr, 0.0, 1.0)
    out = np.where(c_arr >= fp.m, 0.0, mr)
    return float(out) if out.ndim == 0 else out
