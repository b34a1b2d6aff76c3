"""(min, +) convolution — the inner kernel of the partitioning DP (Eq. 16).

Combining two programs' cost curves under a shared budget is exactly a
min-plus convolution:

    out[k] = min_{i = 0..k} a[i] + b[k - i]

Folding all programs' curves this way *is* the paper's dynamic program;
keeping the kernel separate lets the experiment driver share intermediate
pair curves across the 1820 co-run groups (DESIGN.md §5 ablation).

The convolution itself lives in :mod:`repro.core.kernels` — a registry
of interchangeable, bit-exact backends selected via ``REPRO_KERNEL`` /
``repro-cps --kernel``.  :func:`fold_curves` dispatches through the
active backend; the re-exported :func:`minplus_convolve` always runs the
tiled kernel, for callers that must not vary with the selection (tests,
goldens — repro-lint RL009 keeps it out of production paths).

Costs are ``float64``; ``+inf`` marks infeasible sizes (used by the
baseline-constrained optimization, §VI) and propagates correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kernels import convolve, minplus_convolve

__all__ = ["minplus_convolve", "MinPlusFold", "fold_curves", "fold_curves_stages"]


@dataclass(frozen=True)
class MinPlusFold:
    """A left fold of P cost curves with full backtracking state.

    ``total[k]`` is the optimal combined cost with budget ``k``;
    :meth:`allocate` recovers the per-program budgets realizing it.
    """

    total: np.ndarray
    splits: tuple[np.ndarray, ...]  # splits[j][k]: budget kept by curves 0..j at stage j

    @property
    def n_programs(self) -> int:
        return len(self.splits) + 1

    def cost(self, budget: int) -> float:
        return float(self.total[budget])

    def allocate(self, budget: int) -> np.ndarray:
        """Optimal allocation ``(c_1..c_P)`` summing to ``budget`` (Eq. 15)."""
        if not 0 <= budget < self.total.size:
            raise ValueError(f"budget must be in [0, {self.total.size - 1}]")
        if not np.isfinite(self.total[budget]):
            raise ValueError(f"no feasible allocation at budget {budget}")
        alloc = np.zeros(self.n_programs, dtype=np.int64)
        k = int(budget)
        for j in range(len(self.splits) - 1, -1, -1):
            prefix_share = int(self.splits[j][k])
            alloc[j + 1] = k - prefix_share
            k = prefix_share
        alloc[0] = k
        return alloc


def fold_curves(costs: Sequence[np.ndarray]) -> MinPlusFold:
    """Fold P cost curves program-by-program (Eq. 16).

    Stage ``j`` adds program ``j + 1`` to the running optimum of the first
    ``j + 1`` programs — exactly the paper's recurrence; total time
    O(P · C²), space O(P · C).  Convolutions run on the active kernel
    backend (:mod:`repro.core.kernels`).
    """
    fold, _ = fold_curves_stages(costs)
    return fold


def fold_curves_stages(
    costs: Sequence[np.ndarray],
) -> tuple[MinPlusFold, list[np.ndarray]]:
    """:func:`fold_curves`, also returning the per-stage running totals.

    ``prefixes[j]`` is the optimum over curves ``0..j`` (so
    ``prefixes[-1] is fold.total``) — the state the engine's warm-start
    re-solve resumes from when only a suffix of the curves changed.
    """
    if not costs:
        raise ValueError("need at least one cost curve")
    running = np.ascontiguousarray(costs[0], dtype=np.float64)
    prefixes: list[np.ndarray] = [running]
    splits: list[np.ndarray] = []
    for curve in costs[1:]:
        running, split = convolve(running, curve)
        prefixes.append(running)
        splits.append(split)
    return MinPlusFold(total=running, splits=tuple(splits)), prefixes
