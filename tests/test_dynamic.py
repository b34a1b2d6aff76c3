"""Tests for epoch-based dynamic repartitioning."""

import numpy as np
import pytest

from repro.cachesim.partitioned import simulate_partitioned
from repro.cachesim.stack import COLD, stack_distances
from repro.core import simulate_plans
from repro.core.dynamic import EpochPlan, plan_dynamic, plan_static, simulate_plan
from repro.workloads import cyclic, phased, uniform_random


def test_epoch_plan_validation():
    with pytest.raises(ValueError):
        EpochPlan(np.zeros((2, 2)) - 1, 10)
    with pytest.raises(ValueError):
        EpochPlan(np.zeros(4), 10)
    with pytest.raises(ValueError):
        EpochPlan(np.zeros((2, 2)), 0)
    plan = EpochPlan(np.array([[3, 5], [4, 4]]), 10)
    assert plan.n_epochs == 2 and plan.n_programs == 2


def test_simulate_plan_matches_static_partitioned_sim():
    """A constant plan must agree with the static partitioned simulator."""
    traces = [uniform_random(600, 40, seed=1), cyclic(600, 25)]
    alloc = np.array([20, 30])
    plan = EpochPlan(np.tile(alloc, (6, 1)), 100)
    res = simulate_plan(traces, plan)
    ref = simulate_partitioned(traces, alloc, include_cold=False)
    assert np.array_equal(res.misses, ref.misses)
    assert res.cold_misses.tolist() == [t.data_size for t in traces]


def test_simulate_plan_epoch_capacity_changes():
    """Capacity toggling: a loop of 20 hits only in generous epochs."""
    tr = cyclic(400, 20)
    generous = np.array([[20]] * 2)
    stingy = np.array([[10]] * 2)
    hit_plan = EpochPlan(np.vstack([generous, generous]), 100)
    miss_plan = EpochPlan(np.vstack([generous, stingy]), 100)
    full = simulate_plan([tr], hit_plan)
    half = simulate_plan([tr], miss_plan)
    assert full.misses[0] == 0
    assert half.misses[0] == pytest.approx(200, abs=21)  # ~all of epochs 3-4


def test_plan_requires_enough_epochs():
    tr = cyclic(500, 10)
    plan = EpochPlan(np.array([[10]]), 100)  # 1 epoch for a 5-epoch trace
    with pytest.raises(ValueError):
        simulate_plan([tr], plan)
    with pytest.raises(ValueError):
        simulate_plan([tr, tr], plan)


def _phase_opposed_pair(loops: int = 6, big: int = 48, small: int = 4):
    """Two programs alternating big/small working sets in opposite phase."""
    seg = 240
    a_parts = []
    b_parts = []
    for i in range(loops):
        if i % 2 == 0:
            a_parts.append(cyclic(seg, big))
            b_parts.append(cyclic(seg, small))
        else:
            a_parts.append(cyclic(seg, small))
            b_parts.append(cyclic(seg, big))
    # phased() relabels segments into disjoint id spaces; reuse across
    # same-phase segments is not needed for this test
    a = phased(a_parts, repeats=1, name="a")
    b = phased(b_parts, repeats=1, name="b")
    return a, b, seg


def test_dynamic_beats_static_on_phase_opposed_programs():
    """The Figure-1 effect at scale: repartitioning per phase recovers the
    cache that a static split wastes."""
    a, b, seg = _phase_opposed_pair()
    cache = 56  # fits one big (48) + one small (4) set, not two bigs
    static = plan_static([a, b], cache, epoch_length=seg)
    dynamic = plan_dynamic([a, b], cache, epoch_length=seg)
    static_res = simulate_plan([a, b], static)
    dynamic_res = simulate_plan([a, b], dynamic)
    assert dynamic_res.total_misses() < static_res.total_misses()
    # the dynamic plan actually moves the walls between epochs
    assert not np.all(dynamic.allocations == dynamic.allocations[0])


def test_dynamic_matches_static_on_steady_programs():
    traces = [uniform_random(1200, 60, seed=3), uniform_random(1200, 40, seed=4)]
    cache = 64
    static = simulate_plan(traces, plan_static(traces, cache, 300))
    dynamic = simulate_plan(traces, plan_dynamic(traces, cache, 300))
    # no phases to exploit: within a small tolerance of each other
    assert dynamic.total_misses() <= static.total_misses() * 1.10


def test_plan_handles_uneven_lengths():
    traces = [cyclic(500, 10, name="long"), cyclic(200, 30, name="short")]
    plan = plan_dynamic(traces, 40, epoch_length=100)
    assert plan.n_epochs == 5
    res = simulate_plan(traces, plan)
    # once the short program ends, the long one at least keeps its whole
    # working set (any allocation of the leftover is cost-free)
    assert np.all(plan.allocations[2:, 0] >= traces[0].data_size)
    assert res.misses[0] == 0
    assert res.accesses.tolist() == [500, 200]


def test_group_miss_ratio_accounting():
    traces = [cyclic(300, 10), cyclic(300, 10)]
    plan = plan_static(traces, 40, 100)
    res = simulate_plan(traces, plan)
    assert res.group_miss_ratio() == 0.0
    assert res.group_miss_ratio(include_cold=True) == pytest.approx(20 / 600)


def _reference_misses(traces, plan):
    """Per-plan scoring straight from the definition, one trace at a time."""
    out = []
    for p, tr in enumerate(traces):
        dist = stack_distances(tr)
        caps = plan.allocations[np.arange(dist.size) // plan.epoch_length, p]
        out.append(int(np.sum((dist != COLD) & (dist > caps))))
    return out


def test_simulate_plans_matches_one_plan_at_a_time():
    rng = np.random.default_rng(7)
    traces = [
        uniform_random(2400, 90, seed=1, name="u"),
        cyclic(1700, 35, name="c"),
        phased([cyclic(300, 50), uniform_random(300, 12, seed=2)], repeats=3, name="p"),
    ]
    plans = []
    for epoch_length in (1, 97, 250, 2400):
        n_epochs = -(-max(len(t) for t in traces) // epoch_length) + int(rng.integers(0, 3))
        plans.append(EpochPlan(rng.integers(0, 100, (n_epochs, len(traces))), epoch_length))
    results = simulate_plans(traces, plans)
    assert len(results) == len(plans)
    for plan, res in zip(plans, results):
        alone = simulate_plan(traces, plan)
        assert res.names == alone.names == ("u", "c", "p")
        for field in ("misses", "cold_misses", "accesses"):
            assert np.array_equal(getattr(res, field), getattr(alone, field))
        assert res.misses.tolist() == _reference_misses(traces, plan)
        assert res.accesses.tolist() == [len(t) for t in traces]
        assert res.cold_misses.tolist() == [t.data_size for t in traces]


def test_simulate_plans_no_plans():
    assert simulate_plans([cyclic(100, 10)], []) == ()


@pytest.mark.parametrize(
    "plan, message",
    [
        (EpochPlan(np.full((5, 1), 10), 100), "plan must cover every program"),
        (EpochPlan(np.full((4, 2), 10), 100), "plan has fewer epochs than the traces need"),
    ],
)
def test_simulate_plans_raises_like_simulate_plan(plan, message):
    traces = [cyclic(500, 10), cyclic(300, 10)]
    good = EpochPlan(np.full((5, 2), 10), 100)
    with pytest.raises(ValueError, match=message):
        simulate_plan(traces, plan)
    for plans in ([plan], [good, plan], [plan, good]):
        with pytest.raises(ValueError, match=message):
            simulate_plans(traces, plans)
