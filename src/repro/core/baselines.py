"""Baseline (fairness) optimization (paper §VI).

Fairness by *sharing incentive*: improve the group only if no member ends
up worse than it would be under an agreed baseline partition.  The paper
studies two baselines —

* **equal baseline**: the baseline is the equal partition (each of P
  programs gets C/P units; the "socialist" allocation);
* **natural baseline**: the baseline is the natural partition, i.e. the
  performance of free-for-all sharing (the "capitalist" allocation).

Both reduce to the unconstrained DP run on cost curves whose infeasible
sizes (cost above the program's baseline cost) are masked to ``+inf``
(:func:`repro.core.objectives.constrained_costs`).  The baseline partition
itself is always feasible, so the constrained DP can only improve on it.

Masking leaves each curve ``+inf`` below its first feasible size, so the
DP folds only the budget left over once every program has that floor
(:func:`_floor_shifted_partition`) — bit for bit the unshifted result.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dp import PartitionResult, validate_instance
from repro.core.minplus import MinPlusFold, fold_curves_stages
from repro.core.objectives import constrained_costs

__all__ = [
    "equal_allocation",
    "baseline_partition",
    "equal_baseline_partition",
    "natural_baseline_partition",
]


def equal_allocation(n_programs: int, budget: int) -> np.ndarray:
    """The equal partition: ``budget / P`` each, remainder to the first programs."""
    if n_programs < 1:
        raise ValueError("need at least one program")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    base, extra = divmod(budget, n_programs)
    alloc = np.full(n_programs, base, dtype=np.int64)
    alloc[:extra] += 1
    return alloc


def baseline_partition(
    costs: Sequence[np.ndarray], budget: int, baseline_alloc: np.ndarray
) -> PartitionResult:
    """Constrained optimum: no program worse than at ``baseline_alloc`` (§VI).

    ``baseline_alloc`` must be a feasible allocation (integral, non-negative,
    summing to at most ``budget``); its per-program costs become the
    thresholds.  The result equals ``optimal_partition(masked, budget)``
    on the masked curves bit for bit: allocation, total cost, cost curve
    and ``fold.allocate(k)`` at every feasible ``k``.
    """
    raw = np.asarray(baseline_alloc)
    if raw.dtype.kind not in "iu" and not (
        raw.dtype.kind == "f" and np.isfinite(raw).all() and (raw == np.round(raw)).all()
    ):
        raise ValueError(f"baseline allocation must be integral, got {raw.tolist()}")
    baseline_alloc = raw.astype(np.int64)
    if baseline_alloc.size != len(costs):
        raise ValueError("baseline allocation must cover every program")
    if baseline_alloc.min() < 0 or int(baseline_alloc.sum()) > budget:
        raise ValueError("baseline allocation must be feasible within the budget")
    thresholds = [float(c[a]) for c, a in zip(costs, baseline_alloc.tolist())]
    masked = constrained_costs(costs, thresholds)
    return _floor_shifted_partition(masked, budget)


def _floor_shifted_partition(masked: list[np.ndarray], budget: int) -> PartitionResult:
    """The DP over ``masked`` at ``budget``, folding only the spare budget.

    Curve ``i`` is ``+inf`` below its floor ``f_i`` (its first feasible
    size), so every feasible allocation spends ``F = sum f_i`` on floors.
    Folding the shifted curves ``masked_i[f_i : f_i + size - F]`` makes
    the same ``a[i] + b[j]`` additions in the same candidate order as the
    full fold, so its values and first-occurrence ties are unchanged.  The
    result is re-embedded on the full grid: ``total`` is ``+inf`` below
    ``F``; stage ``j``'s split at ``k`` is the shifted split at
    ``k - F_{j+1}`` plus ``F_j`` (``F_j`` the floors of curves ``0..j``),
    and ``0`` where no allocation reaches ``k``, as the kernel reports it.
    """
    size = validate_instance(masked, budget)
    floors: list[int] = []
    for curve in masked:
        feasible = curve < np.inf
        if not feasible.any():
            raise ValueError(f"no feasible allocation at budget {budget}")
        floors.append(int(feasible.argmax()))
    span = size - sum(floors)
    if span < 1:
        raise ValueError(f"no feasible allocation at budget {budget}")
    shifted, prefixes = fold_curves_stages(
        [c[f : f + span] for c, f in zip(masked, floors)]
    )
    total = np.full(size, np.inf)
    total[size - span :] = shifted.total
    splits: list[np.ndarray] = []
    below = floors[0]
    for split, prefix, floor in zip(shifted.splits, prefixes[1:], floors[1:]):
        above = below + floor
        full = np.zeros(size, dtype=np.int64)
        full[above : above + span] = np.where(prefix < np.inf, split + below, 0)
        splits.append(full)
        below = above
    fold = MinPlusFold(total=total, splits=tuple(splits))
    return PartitionResult(
        allocation=fold.allocate(budget), total_cost=fold.cost(budget), fold=fold
    )


def equal_baseline_partition(costs: Sequence[np.ndarray], budget: int) -> PartitionResult:
    """§VI equal-baseline optimization."""
    return baseline_partition(costs, budget, equal_allocation(len(costs), budget))


def natural_baseline_partition(
    costs: Sequence[np.ndarray], budget: int, natural_units: np.ndarray
) -> PartitionResult:
    """§VI natural-baseline optimization.

    ``natural_units`` is the unit-rounded Natural Cache Partition
    (:func:`repro.core.natural.natural_partition_units`).
    """
    return baseline_partition(costs, budget, natural_units)
