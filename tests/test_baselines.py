"""Tests for §VI baseline (fairness) optimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    baseline_partition,
    equal_allocation,
    equal_baseline_partition,
    natural_baseline_partition,
)
from repro.core.dp import brute_force_partition, optimal_partition
from repro.core.objectives import constrained_costs


def test_equal_allocation_remainder():
    assert equal_allocation(4, 10).tolist() == [3, 3, 2, 2]
    assert equal_allocation(3, 9).tolist() == [3, 3, 3]
    with pytest.raises(ValueError):
        equal_allocation(0, 10)
    assert equal_allocation(3, 0).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="non-negative"):
        equal_allocation(2, -3)  # was [-1, -2]


@given(st.integers(2, 4), st.integers(6, 14), st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_baseline_never_hurts_anyone(n_prog, size, seed):
    """The §VI guarantee: every program at least matches its baseline cost,
    and the group total can only improve."""
    rng = np.random.default_rng(seed)
    costs = [np.sort(rng.random(size))[::-1] * rng.uniform(1, 20) for _ in range(n_prog)]
    # inject plateaus so there is actual slack to exploit
    for c in costs:
        c[size // 2 :] = c[size // 2]
    budget = size - 1
    base = equal_allocation(n_prog, budget)
    res = baseline_partition(costs, budget, base)
    assert res.allocation.sum() == budget
    for c, a, b in zip(costs, res.allocation, base):
        assert c[a] <= c[b] + 1e-9
    base_total = sum(float(c[b]) for c, b in zip(costs, base))
    assert res.total_cost <= base_total + 1e-9


def test_equal_baseline_between_equal_and_optimal():
    rng = np.random.default_rng(5)
    size = 16
    costs = []
    for i in range(4):
        c = np.sort(rng.random(size))[::-1] * 10
        c[8:] = c[8]  # plateau: slack for reallocation
        costs.append(c)
    budget = size - 1
    eq = equal_allocation(4, budget)
    eq_total = sum(float(c[a]) for c, a in zip(costs, eq))
    eb = equal_baseline_partition(costs, budget)
    opt = optimal_partition(costs, budget)
    assert opt.total_cost - 1e-9 <= eb.total_cost <= eq_total + 1e-9


def test_natural_baseline_uses_given_units():
    costs = [np.array([10.0, 5.0, 5.0, 5.0]), np.array([8.0, 8.0, 2.0, 1.0])]
    natural = np.array([1, 2])
    res = natural_baseline_partition(costs, 3, natural)
    # program 0's threshold is 5 (any c>=1 ok); program 1's is 2 (needs c>=2)
    assert res.allocation[1] >= 2
    assert costs[0][res.allocation[0]] <= 5.0


def test_strictly_decreasing_curves_pin_the_baseline():
    """With strictly decreasing costs the only fair allocation is the
    baseline itself — the reason the paper's Natural Baseline barely
    improves on Natural (§VII-B)."""
    rng = np.random.default_rng(9)
    costs = [np.sort(rng.random(12))[::-1] * 7 for _ in range(3)]
    base = np.array([4, 4, 3])
    res = baseline_partition(costs, 11, base)
    assert res.allocation.tolist() == base.tolist()


def test_baseline_validation():
    costs = [np.zeros(5), np.zeros(5)]
    with pytest.raises(ValueError):
        baseline_partition(costs, 4, np.array([1]))  # wrong length
    with pytest.raises(ValueError):
        baseline_partition(costs, 4, np.array([3, 3]))  # exceeds budget
    with pytest.raises(ValueError):
        baseline_partition(costs, 4, np.array([-1, 2]))
    for fractional in ([1.7, 2.2], [1.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="integral"):
            baseline_partition(costs, 4, fractional)  # was truncated to [1, 2]
    res = baseline_partition(costs, 4, [1.0, 2.0])  # integral floats are fine
    assert res.allocation.sum() == 4


def test_baseline_allows_sub_budget_baseline():
    """A baseline summing below the budget (e.g. saturated natural
    partition) still works — extra units go wherever they help."""
    costs = [np.array([4.0, 2.0, 1.0, 1.0]), np.array([6.0, 3.0, 3.0, 3.0])]
    res = baseline_partition(costs, 3, np.array([1, 1]))
    assert res.allocation.sum() == 3
    assert costs[0][res.allocation[0]] <= 2.0
    assert costs[1][res.allocation[1]] <= 3.0


# ------------------------------------- floor-shifted DP vs the unshifted fold
def _unshifted(costs, budget, baseline):
    """The §VI DP exactly as defined: mask, then fold the full curves."""
    thresholds = [float(c[a]) for c, a in zip(costs, baseline)]
    return optimal_partition(constrained_costs(costs, thresholds), budget)


def _assert_same_partition(got, want):
    assert np.array_equal(got.allocation, want.allocation)
    assert np.float64(got.total_cost).tobytes() == np.float64(want.total_cost).tobytes()
    assert got.cost_curve().tobytes() == want.cost_curve().tobytes()
    for k, cost in enumerate(want.cost_curve().tolist()):
        if cost < np.inf:
            assert np.array_equal(got.fold.allocate(k), want.fold.allocate(k)), k
        else:
            with pytest.raises(ValueError, match="no feasible allocation"):
                got.fold.allocate(k)


@st.composite
def _baseline_instances(draw):
    """Curves with ties, holes and +inf entries, a budget, a baseline."""
    n_prog = draw(st.integers(1, 5))
    size = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["any", "decreasing", "strict"]))
    costs = []
    for _ in range(n_prog):
        c = np.array(
            draw(st.lists(st.integers(0, 6), min_size=size, max_size=size)),
            dtype=np.float64,
        ) * draw(st.sampled_from([0.5, 1.0, 0.1]))
        if shape == "decreasing":
            c = np.sort(c)[::-1].copy()
        elif shape == "strict":  # only the baseline itself is fair
            c = np.arange(size, 0, -1, dtype=np.float64) * draw(st.floats(0.5, 3.0))
        holes = draw(st.lists(st.integers(0, size - 1), max_size=3))
        c[holes] = np.inf
        costs.append(c)
    budget = draw(st.integers(0, size - 1))
    # a baseline of any total up to the budget; == budget gives F == budget
    # under strictly decreasing curves
    spend = draw(st.sampled_from([budget, draw(st.integers(0, budget))]))
    cuts = sorted(draw(st.lists(st.integers(0, spend), min_size=n_prog - 1, max_size=n_prog - 1)))
    baseline = np.diff([0, *cuts, spend]).astype(np.int64)
    return costs, budget, baseline


@given(_baseline_instances())
@settings(max_examples=400, deadline=None)
def test_floor_shifted_dp_bit_identical_to_unshifted_fold(instance):
    costs, budget, baseline = instance
    try:
        want = _unshifted(costs, budget, baseline)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            baseline_partition(costs, budget, baseline)
        return
    got = baseline_partition(costs, budget, baseline)
    _assert_same_partition(got, want)
    if len(costs) <= 3:
        masked = constrained_costs(costs, [float(c[a]) for c, a in zip(costs, baseline)])
        _, bf_cost = brute_force_partition(masked, budget)
        assert np.float64(got.total_cost).tobytes() == np.float64(bf_cost).tobytes()


def test_floor_shifted_dp_when_floors_spend_the_whole_budget():
    """Strictly decreasing curves pin every program to its baseline: the
    floors sum to the budget and the shifted fold has one cell."""
    costs = [np.arange(9, 0, -1, dtype=np.float64) * s for s in (1.0, 2.0, 0.5)]
    baseline = np.array([3, 4, 1])
    got = baseline_partition(costs, 8, baseline)
    _assert_same_partition(got, _unshifted(costs, 8, baseline))
    assert got.allocation.tolist() == [3, 4, 1]
    assert np.isinf(got.cost_curve()[:8]).all()


def test_floor_shifted_dp_on_a_sub_grid_budget():
    """budget < C: the cost curve still covers the whole grid."""
    rng = np.random.default_rng(31)
    costs = [np.round(rng.random(20) * 5, 1) for _ in range(4)]
    costs[1][3] = np.inf
    baseline = np.array([2, 4, 1, 3])
    got = baseline_partition(costs, 13, baseline)
    _assert_same_partition(got, _unshifted(costs, 13, baseline))
    assert got.cost_curve().size == 20


def test_infeasible_baseline_raises_like_the_unshifted_fold():
    """A baseline at an infeasible (+inf) size allows everything, and a
    curve with no finite entry leaves no feasible allocation."""
    costs = [np.array([np.inf, np.inf, np.inf]), np.array([1.0, 0.5, 0.0])]
    with pytest.raises(ValueError, match="no feasible allocation at budget 2"):
        _unshifted(costs, 2, [1, 1])
    with pytest.raises(ValueError, match="no feasible allocation at budget 2"):
        baseline_partition(costs, 2, [1, 1])
