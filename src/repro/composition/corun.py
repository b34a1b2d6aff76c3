"""Co-run miss-ratio prediction and the Natural Cache Partition (§IV–§V-A).

Given the composed group footprint (Eq. 9), a shared cache of ``C`` blocks
fills over the unique combined window ``w*`` with ``fp(w*) = C``.  At that
steady state:

* program ``i`` holds ``c_i = fp_i(w* · ratio_i)`` blocks — the ordered
  set ``(c_1, c_2, ...)`` is the **Natural Cache Partition** (Fig. 4);
* each program's miss ratio in the shared cache equals its *solo* miss
  ratio at ``c_i`` (Eq. 11 restated per program) — the Natural Partition
  Assumption.

When the cache is larger than the combined working set the window search
saturates and every program simply keeps all of its data (zero steady-state
misses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.composition.stretch import ComposedFootprint, compose_footprints
from repro.locality.footprint import FootprintCurve
from repro.locality.hotl import miss_ratio

__all__ = [
    "CoRunPrediction",
    "CorunSolver",
    "solve_fill_window",
    "natural_partition",
    "predict_corun",
    "group_miss_ratio_eq11",
]


@dataclass(frozen=True)
class CoRunPrediction:
    """HOTL prediction for one co-run group in a shared cache."""

    names: tuple[str, ...]
    cache_size: int
    fill_window: float
    occupancies: np.ndarray  # natural partition, fractional blocks
    miss_ratios: np.ndarray  # per-program shared-cache miss ratios
    n_accesses: np.ndarray

    @property
    def group_miss_ratio(self) -> float:
        """Access-weighted group miss ratio (total misses / total accesses)."""
        total = float(self.n_accesses.sum())
        return float(np.dot(self.miss_ratios, self.n_accesses)) / total


def solve_fill_window(composed: ComposedFootprint, cache_size: float) -> float:
    """Combined window length ``w*`` with ``fp(w*) = cache_size``.

    The composed footprint is continuous, non-decreasing and piecewise
    linear, so bisection converges unconditionally.  Returns
    ``composed.max_window`` when the cache exceeds the combined data size
    (the group never fills it).  A ``NaN`` cache size raises ``ValueError``.
    """
    if math.isnan(cache_size):
        raise ValueError("cache_size is NaN")
    if cache_size <= 0:
        return 0.0
    hi = composed.max_window
    if composed.total_data <= cache_size or composed(hi) <= cache_size:
        return hi
    lo = 0.0
    # bisection to sub-access precision (the curve is linear between
    # integer stretched windows, so 64 iterations are far beyond enough)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if composed(mid) < cache_size:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def natural_partition(
    footprints: Sequence[FootprintCurve], cache_size: int
) -> np.ndarray:
    """The Natural Cache Partition ``(c_1, .., c_P)`` in fractional blocks.

    Occupancies sum to ``cache_size`` when the group can fill the cache,
    and to the combined working set otherwise.
    """
    composed = compose_footprints(footprints)
    w_star = solve_fill_window(composed, cache_size)
    return composed.components(w_star)


_KNOTS_PER_PROGRAM: int = 4096
"""Grid-size cap per component in :class:`CorunSolver` (accuracy/speed knob)."""


class CorunSolver:
    """Fast repeated co-run prediction for one program group.

    The composed footprint (Eq. 9) is piecewise linear with knots where any
    *stretched* component hits an integer window.  Precomputing the curve on
    the union of those knots (up to the largest cache size of interest)
    turns every subsequent fill-window solve into one interpolation lookup —
    the workhorse behind the 1820-group sweep and the partition-sharing
    group-curve construction.

    The sweep reads ``w*`` at ``max_cache`` only, and that lookup reads
    just the segment bracketing it; so the max-cache solve evaluates the
    curve on the few knots at or above the largest knot below
    ``w_cap - 1e-9 · max(w_cap, 1)``, and the full union grid is built on
    the first query at any other size.
    """

    def __init__(self, footprints: Sequence[FootprintCurve], max_cache: int):
        if max_cache < 1:
            raise ValueError("max_cache must be >= 1")
        self.footprints = tuple(footprints)
        self.composed = compose_footprints(footprints)
        self.max_cache = int(max_cache)
        # window reaching the largest cache size of interest (one bisection)
        w_cap = solve_fill_window(self.composed, float(max_cache))
        ratios = self.composed.ratios
        knots = [np.array([0.0, w_cap])]
        for fp, r in zip(self.footprints, ratios):
            if r <= 0:
                continue
            v_max = min(fp.n, int(np.ceil(w_cap * r)) + 1)
            if v_max <= _KNOTS_PER_PROGRAM:
                v = np.arange(v_max + 1, dtype=np.float64)
            else:
                # footprints are near-concave: a dense-near-zero log grid
                # approximates the piecewise-linear curve to high accuracy
                # (its rounding duplicates go in the union's np.unique)
                v = np.round(np.geomspace(1.0, v_max, _KNOTS_PER_PROGRAM))
                v = np.concatenate([[0.0], v])
            knots.append(v / r)
        self._w_cap = w_cap
        self._knots = knots
        self._grid: tuple[np.ndarray, np.ndarray] | None = None
        self._n_accesses = np.array([fp.n for fp in self.footprints], dtype=np.int64)
        # w* at max_cache, solved on first use: the sweep asks for it three
        # times per group (prediction, its fill window, natural units)
        self._w_at_max: float | None = None

    def _knot_grid(self, floor: float) -> tuple[np.ndarray, np.ndarray]:
        """Union knots in ``[floor, w_cap + 1e-9]`` and the composed curve on them."""
        grid = np.unique(np.concatenate([k[k >= floor] for k in self._knots]))
        grid = grid[grid <= self._w_cap + 1e-9]
        return grid, np.asarray(self.composed(grid), dtype=np.float64)

    def _max_cache_bracket(self) -> tuple[np.ndarray, np.ndarray]:
        """The knots the interpolation at ``max_cache`` can read.

        The bisection stops with ``hi - lo <= 1e-9 · max(hi, 1)`` and
        returns the midpoint ``w_cap``, so every knot below
        ``t = w_cap - 1e-9 · max(w_cap, 1)`` lies below its final ``lo``
        and, the composed curve being non-decreasing, has a footprint below
        ``max_cache``.  The search therefore lands at or above the largest
        such knot, and dropping the knots under it leaves the bracketing
        segment, the saturation test and the result unchanged, bit for bit.
        """
        t = self._w_cap - 1e-9 * max(self._w_cap, 1.0)
        floor = max(float(np.max(k, where=k < t, initial=-np.inf)) for k in self._knots)
        return self._knot_grid(floor)

    def fill_windows(self, cache_sizes: np.ndarray | float) -> np.ndarray | float:
        """Vectorized ``w*`` solve: combined window filling each cache size."""
        if isinstance(cache_sizes, (float, int)) and cache_sizes == self.max_cache:
            if self._w_at_max is None:
                self._w_at_max = float(
                    self._solve_windows(float(cache_sizes), *self._max_cache_bracket())
                )
            return self._w_at_max
        if self._grid is None:
            self._grid = self._knot_grid(-np.inf)
        return self._solve_windows(cache_sizes, *self._grid)

    def _solve_windows(
        self, cache_sizes: np.ndarray | float, w_grid: np.ndarray, fp_vals: np.ndarray
    ) -> np.ndarray | float:
        c = np.asarray(cache_sizes, dtype=np.float64)
        if np.isnan(c).any():
            raise ValueError("cache sizes contain NaN")
        if np.any(c > self.max_cache + 1e-9):
            raise ValueError("cache size exceeds the solver's max_cache")
        idx = np.searchsorted(fp_vals, c, side="left")
        idx = np.clip(idx, 1, fp_vals.size - 1)
        f_lo, f_hi = fp_vals[idx - 1], fp_vals[idx]
        w_lo, w_hi = w_grid[idx - 1], w_grid[idx]
        run = f_hi - f_lo
        frac = np.where(run > 0, (c - f_lo) / np.where(run > 0, run, 1.0), 0.0)
        w = w_lo + np.clip(frac, 0.0, 1.0) * (w_hi - w_lo)
        # saturate: cache bigger than the group's data never fills
        w = np.where(c >= fp_vals[-1], w_grid[-1], w)
        w = np.where(c <= 0, 0.0, w)
        return float(w) if w.ndim == 0 else w

    def occupancies(self, cache_size: float) -> np.ndarray:
        """Natural Cache Partition at one cache size (fractional blocks)."""
        w = float(self.fill_windows(cache_size))
        return self.composed.components(w)

    def predict(self, cache_size: int) -> CoRunPrediction:
        """Equivalent of :func:`predict_corun`, using the precomputed grid."""
        occ = self.occupancies(cache_size)
        ratios = np.array(
            [float(miss_ratio(fp, c)) for fp, c in zip(self.footprints, occ)],
            dtype=np.float64,
        )
        return CoRunPrediction(
            names=tuple(fp.name for fp in self.footprints),
            cache_size=int(cache_size),
            fill_window=float(self.fill_windows(cache_size)),
            occupancies=occ,
            miss_ratios=ratios,
            n_accesses=self._n_accesses,
        )

    def group_miss_counts(self, cache_sizes: np.ndarray) -> np.ndarray:
        """Expected group miss count at each cache size (vectorized).

        Used to build partition-sharing group cost curves: for each size,
        the sum over members of ``mr_i(c_i) * n_i`` at the natural
        occupancies.
        """
        sizes = np.asarray(cache_sizes, dtype=np.float64)
        w = np.atleast_1d(np.asarray(self.fill_windows(sizes), dtype=np.float64))
        total = np.zeros(w.size, dtype=np.float64)
        for fp, r, n in zip(self.footprints, self.composed.ratios, self._n_accesses):
            occ = np.asarray(fp(w * r), dtype=np.float64)
            mrs = np.asarray(miss_ratio(fp, occ), dtype=np.float64)
            total += mrs * float(n)
        zero_sized = np.atleast_1d(sizes) <= 0
        if np.any(zero_sized):
            total[zero_sized] = float(self._n_accesses.sum())
        return total


def predict_corun(
    footprints: Sequence[FootprintCurve], cache_size: int
) -> CoRunPrediction:
    """Full shared-cache prediction: NCP occupancies and per-program miss ratios.

    Each program's shared miss ratio is its solo HOTL miss ratio at its
    natural occupancy — the reduction at the heart of the paper (§V-A).
    """
    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    composed = compose_footprints(footprints)
    w_star = solve_fill_window(composed, cache_size)
    occ = composed.components(w_star)
    ratios = np.array(
        [float(miss_ratio(fp, c)) for fp, c in zip(footprints, occ)], dtype=np.float64
    )
    return CoRunPrediction(
        names=tuple(fp.name for fp in footprints),
        cache_size=int(cache_size),
        fill_window=float(w_star),
        occupancies=occ,
        miss_ratios=ratios,
        n_accesses=np.array([fp.n for fp in footprints], dtype=np.int64),
    )


def group_miss_ratio_eq11(
    footprints: Sequence[FootprintCurve], cache_size: int
) -> float:
    """The paper's Eq. 11, literally: misses per *combined* access.

    ``mr(c) = fp1((w+1) * r1/R) + fp2((w+1) * r2/R) - c`` with ``fp(w) = c``
    — the composed footprint's forward slope at the fill window,
    generalized to any number of programs.  Equivalent to weighting each
    program's natural-occupancy miss ratio by its access-rate share (the
    per-program form used by :func:`predict_corun`); the equivalence is
    checked in the test-suite.
    """
    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    composed = compose_footprints(footprints)
    w_star = solve_fill_window(composed, cache_size)
    if w_star >= composed.max_window:
        return 0.0  # the group never fills the cache: no steady misses
    return float(np.clip(composed(w_star + 1.0) - cache_size, 0.0, 1.0))
