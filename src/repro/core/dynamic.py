"""Epoch-based dynamic repartitioning (the Figure-1 fence, taken down on time).

The paper's motivating example shows that *static* partitioning loses to
partition-sharing when programs have synchronized, phase-opposed working
sets.  The online counterpart of partition-sharing is *repartitioning*:
re-profile per epoch, re-run the DP, and move the walls.  The intro's
"monitor performance on-line" remark points exactly here.

Pipeline:

* :func:`plan_static` — one DP over whole-trace profiles (the paper's
  §VII setting);
* :func:`plan_dynamic` — per-epoch profiles → per-epoch DP allocations;
* :func:`simulate_plan` / :func:`simulate_plans` — exact trace-driven
  evaluation of one epoch plan, or of several from one stack-distance
  pass per trace.  An access hits iff its LRU stack distance fits the
  allocation of *its* epoch — the standard variable-capacity LRU
  semantics (a shrinking partition evicts from the LRU end; a growing
  one fills).

On phase-opposed workloads the dynamic plan recovers (and with fine
epochs exceeds) the partition-sharing advantage, while on steady
workloads it matches the static optimum — the quantitative version of
"don't take a fence down until you know why it was put up".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cachesim.stack import COLD, stack_distances
from repro.engine import FoldCache
from repro.locality.mrc import MissRatioCurve
from repro.locality.phases import epoch_profiles
from repro.workloads.trace import Trace

__all__ = ["EpochPlan", "plan_static", "plan_dynamic", "simulate_plan", "simulate_plans"]


@dataclass(frozen=True)
class EpochPlan:
    """A repartitioning schedule.

    ``allocations[e, p]`` is program ``p``'s partition in *blocks* during
    epoch ``e``; ``epoch_length`` is in per-program accesses (the programs
    advance in lockstep, one epoch at a time).
    """

    allocations: np.ndarray
    epoch_length: int

    def __post_init__(self) -> None:
        alloc = np.ascontiguousarray(self.allocations, dtype=np.int64)
        if alloc.ndim != 2:
            raise ValueError("allocations must be epochs x programs")
        if alloc.size and alloc.min() < 0:
            raise ValueError("allocations must be non-negative")
        if self.epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        alloc.setflags(write=False)
        object.__setattr__(self, "allocations", alloc)

    @property
    def n_epochs(self) -> int:
        return int(self.allocations.shape[0])

    @property
    def n_programs(self) -> int:
        return int(self.allocations.shape[1])


def _epoch_count(traces: Sequence[Trace], epoch_length: int) -> int:
    longest = max(len(t) for t in traces)
    return (longest + epoch_length - 1) // epoch_length


def plan_static(
    traces: Sequence[Trace],
    cache_blocks: int,
    epoch_length: int,
    *,
    cache: FoldCache | None = None,
) -> EpochPlan:
    """The §VII baseline: one whole-trace DP, held for every epoch.

    ``cache`` lets a caller solving many plans (oracle sweeps, the replay
    scorer) share one engine :class:`~repro.engine.foldcache.FoldCache`.
    """
    from repro.locality.footprint import average_footprint

    costs = [
        MissRatioCurve.from_footprint(average_footprint(t), cache_blocks).miss_counts()
        for t in traces
    ]
    solver = cache if cache is not None else FoldCache()
    alloc = solver.solve(costs, cache_blocks).allocation
    n_epochs = _epoch_count(traces, epoch_length)
    return EpochPlan(np.tile(alloc, (n_epochs, 1)), epoch_length)


def plan_dynamic(
    traces: Sequence[Trace],
    cache_blocks: int,
    epoch_length: int,
    *,
    cache: FoldCache | None = None,
) -> EpochPlan:
    """Phase-aware plan: profile each epoch, re-run the DP, move the walls.

    Epochs where a program is already finished cost it nothing (its cost
    curve is zero), so the DP hands its share to the survivors.  Epoch
    solves go through an engine :class:`~repro.engine.foldcache.FoldCache`
    (pass ``cache`` to share one across calls): revisited phases produce
    byte-identical cost sets and skip the O(P·C²) fold.
    """
    per_program = [epoch_profiles(t, epoch_length) for t in traces]
    n_epochs = _epoch_count(traces, epoch_length)
    allocations = np.zeros((n_epochs, len(traces)), dtype=np.int64)
    solver = cache if cache is not None else FoldCache(max_entries=max(128, n_epochs))
    for e in range(n_epochs):
        costs: list[np.ndarray] = []
        for profiles in per_program:
            if e < len(profiles):
                fp = profiles[e].footprint
                costs.append(
                    MissRatioCurve.from_footprint(fp, cache_blocks).miss_counts()
                )
            else:  # program finished: any allocation costs nothing
                costs.append(np.zeros(cache_blocks + 1))
        allocations[e] = solver.solve(costs, cache_blocks).allocation
    return EpochPlan(allocations, epoch_length)


@dataclass(frozen=True)
class PlanResult:
    """Exact simulation outcome of an epoch plan."""

    names: tuple[str, ...]
    misses: np.ndarray
    cold_misses: np.ndarray
    accesses: np.ndarray

    def total_misses(self, *, include_cold: bool = False) -> int:
        total = int(self.misses.sum())
        return total + int(self.cold_misses.sum()) if include_cold else total

    def group_miss_ratio(self, *, include_cold: bool = False) -> float:
        m = self.misses + (self.cold_misses if include_cold else 0)
        return float(m.sum()) / float(max(self.accesses.sum(), 1))


def simulate_plan(traces: Sequence[Trace], plan: EpochPlan) -> PlanResult:
    """Exact per-access evaluation of one repartitioning schedule."""
    return simulate_plans(traces, [plan])[0]


def simulate_plans(
    traces: Sequence[Trace], plans: Sequence[EpochPlan]
) -> tuple[PlanResult, ...]:
    """Exact per-access evaluation of several schedules over the same traces.

    Each program's stack distances are computed once and every plan is
    scored from them; an access at position ``i`` (epoch
    ``i // epoch_length``) hits iff its distance is at most that epoch's
    allocation.  Every plan is checked before any distance is computed.
    """
    for plan in plans:
        if plan.n_programs != len(traces):
            raise ValueError("plan must cover every program")
        if any(len(t) > plan.n_epochs * plan.epoch_length for t in traces):
            raise ValueError("plan has fewer epochs than the traces need")
    shape = (len(plans), len(traces))
    misses = np.zeros(shape, dtype=np.int64)
    cold = np.zeros(shape, dtype=np.int64)
    accesses = np.zeros(shape, dtype=np.int64)
    for p, tr in enumerate(traces):
        dist = stack_distances(tr)
        reuse = np.flatnonzero(dist != COLD)
        cold[:, p] = dist.size - reuse.size
        accesses[:, p] = dist.size
        for k, plan in enumerate(plans):
            caps = plan.allocations[reuse // plan.epoch_length, p]
            misses[k, p] = int(np.count_nonzero(dist[reuse] > caps))
    names = tuple(t.name for t in traces)
    return tuple(
        PlanResult(names=names, misses=misses[k], cold_misses=cold[k], accesses=accesses[k])
        for k in range(len(plans))
    )
