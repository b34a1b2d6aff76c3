"""Footprint composition (paper §IV, Eq. 9).

When non-data-sharing programs interleave, each program's footprint
function is *horizontally stretched* by its share of the merged access
stream: in a combined window of ``w`` accesses, program ``i`` issues
``w * r_i / R`` of them (``r_i`` its access rate, ``R`` the group total).
The combined footprint is the sum of the stretched individual footprints:

    fp(w) = sum_i fp_i(w * r_i / R)                         (Eq. 9)

This composability is what lets the whole study work from 16 solo profiles
instead of 1820 co-run measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.locality.footprint import FootprintCurve

__all__ = ["ComposedFootprint", "compose_footprints"]


@dataclass(frozen=True)
class ComposedFootprint:
    """The group footprint of a set of co-run programs (Eq. 9).

    Evaluates ``fp(w)`` for combined window lengths ``w`` and exposes the
    per-program stretched components needed by the natural partition.
    """

    footprints: tuple[FootprintCurve, ...]
    ratios: np.ndarray  # r_i / R, summing to 1
    # the same ratios as Python floats, for the scalar evaluation path
    _ratio_list: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = np.ascontiguousarray(self.ratios, dtype=np.float64)
        if r.size != len(self.footprints):
            raise ValueError("one ratio per footprint required")
        if not np.isclose(r.sum(), 1.0):
            raise ValueError("ratios must sum to 1")
        r.setflags(write=False)
        object.__setattr__(self, "ratios", r)
        object.__setattr__(self, "_ratio_list", r.tolist())

    # ------------------------------------------------------------------
    @property
    def n_programs(self) -> int:
        return len(self.footprints)

    @property
    def total_data(self) -> float:
        """Combined working set: the saturation value of the group footprint."""
        return float(sum(fp.m for fp in self.footprints))

    @property
    def max_window(self) -> float:
        """Combined window beyond which every component has saturated."""
        return max(fp.n / r if r > 0 else 0.0 for fp, r in zip(self.footprints, self.ratios))

    def components(self, w: float) -> np.ndarray:
        """Per-program stretched footprints ``fp_i(w * ratio_i)`` at window ``w``."""
        w = float(w)
        return np.array(
            [fp(w * r) for fp, r in zip(self.footprints, self._ratio_list)],
            dtype=np.float64,
        )

    def __call__(self, w: np.ndarray | float) -> np.ndarray | float:
        """Group footprint ``fp(w)`` (Eq. 9).

        A scalar ``w`` sums the stretched components left to right from
        ``0.0`` in plain floats — the array path's order, so the result is
        bit-identical to evaluating ``np.array([w])``.
        """
        if isinstance(w, (float, int)):
            x = float(w)
            total = 0.0
            for fp, r in zip(self.footprints, self._ratio_list):
                total = total + fp(x * r)
            return total
        w_arr = np.asarray(w, dtype=np.float64)
        total = np.zeros_like(w_arr)
        for fp, r in zip(self.footprints, self.ratios):
            total = total + np.asarray(fp(w_arr * r), dtype=np.float64)
        return float(total) if total.ndim == 0 else total


def compose_footprints(footprints: Sequence[FootprintCurve]) -> ComposedFootprint:
    """Build the group footprint from solo profiles, using their access rates."""
    if not footprints:
        raise ValueError("need at least one footprint")
    rates = np.array([fp.access_rate for fp in footprints], dtype=np.float64)
    if np.any(rates <= 0):
        raise ValueError("access rates must be positive")
    return ComposedFootprint(tuple(footprints), rates / rates.sum())
