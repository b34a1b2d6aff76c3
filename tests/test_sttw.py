"""Tests for the Stone–Thiebaut–Turek–Wolf greedy (Eqs. 12–14)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import optimal_partition
from repro.core.sttw import sttw_partition


def _sttw_oracle(costs, budget):
    """The original ``np.argmax`` greedy loop, kept as the reference."""
    curves = [np.ascontiguousarray(c, dtype=np.float64) for c in costs]
    size = curves[0].size
    if any(c.size != size for c in curves):
        raise ValueError("all cost curves must have equal length")
    if not 0 <= budget < size:
        raise ValueError(f"budget must be within the curves' grid [0, {size - 1}]")
    n_prog = len(curves)
    # marginal gain of the next unit for program i at allocation c:
    #   gains[i][c] = cost_i(c) - cost_i(c + 1)
    gains = [c[:-1] - c[1:] for c in curves]
    alloc = np.zeros(n_prog, dtype=np.int64)
    current = np.array([g[0] if g.size else -np.inf for g in gains], dtype=np.float64)
    for _ in range(budget):
        i = int(np.argmax(current))
        if not np.isfinite(current[i]):
            break  # every program fully grown; leftover units stay unused
        alloc[i] += 1
        c = alloc[i]
        current[i] = gains[i][c] if c < gains[i].size else -np.inf
    return alloc


def _convex_costs(rng, n_prog, size):
    out = []
    for _ in range(n_prog):
        gains = np.sort(rng.random(size))[::-1]
        start = gains.sum() * 1.5
        out.append(np.concatenate([[start], start - np.cumsum(gains)]))
    return out


@given(st.integers(2, 4), st.integers(4, 16), st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_optimal_on_convex_curves(n_prog, size, seed):
    """On convex decreasing curves the greedy equals the DP (Stone's theorem)."""
    rng = np.random.default_rng(seed)
    costs = _convex_costs(rng, n_prog, size)
    budget = size
    greedy = sttw_partition(costs, budget)
    assert greedy.sum() == budget
    greedy_cost = sum(float(c[a]) for c, a in zip(costs, greedy))
    dp_cost = optimal_partition(costs, budget).total_cost
    assert greedy_cost == pytest.approx(dp_cost, rel=1e-9, abs=1e-9)


@given(st.integers(2, 4), st.integers(4, 12), st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_never_better_than_dp(n_prog, size, seed):
    rng = np.random.default_rng(seed)
    costs = [rng.random(size) * 10 for _ in range(n_prog)]
    budget = size - 1
    greedy = sttw_partition(costs, budget)
    greedy_cost = sum(float(c[a]) for c, a in zip(costs, greedy))
    assert greedy_cost >= optimal_partition(costs, budget).total_cost - 1e-9


def test_misses_plateau_cliff():
    """The convexity flaw: zero marginal gain hides a future cliff."""
    cliff = np.array([10.0, 10.0, 10.0, 0.0])
    slope = np.array([5.0, 4.9, 4.8, 4.7])
    greedy = sttw_partition([cliff, slope], 3)
    assert greedy.tolist() == [0, 3]  # all units chase the tiny slope
    dp = optimal_partition([cliff, slope], 3)
    assert dp.allocation.tolist() == [3, 0]


def test_allocates_full_budget():
    costs = [np.linspace(8, 0, 9), np.linspace(4, 0, 9)]
    alloc = sttw_partition(costs, 8)
    assert alloc.sum() == 8


def test_equal_derivative_split():
    """Two identical strictly-convex curves: derivative equalization (Eq. 13)
    splits the budget evenly."""
    c = (10.0 - np.arange(11)) ** 2
    alloc = sttw_partition([c, c.copy()], 10)
    assert sorted(alloc.tolist()) == [5, 5]


def test_validation():
    with pytest.raises(ValueError):
        sttw_partition([np.zeros(4), np.zeros(3)], 2)
    with pytest.raises(ValueError):
        sttw_partition([np.zeros(4)], 4)


def test_zero_budget():
    assert sttw_partition([np.zeros(3), np.zeros(3)], 0).tolist() == [0, 0]


def test_validation_names_the_problem():
    with pytest.raises(ValueError, match="at least one cost curve"):
        sttw_partition([], 0)
    with pytest.raises(ValueError, match="1-D"):
        sttw_partition([np.zeros((3, 2))], 1)


@st.composite
def _curve(draw, size):
    """One cost curve: quantized (frequent ties), plateau-then-cliff, with
    NaN/±inf entries, or plain floats."""
    kind = draw(st.sampled_from(["quantized", "cliff", "special", "float"]))
    if kind == "quantized":
        vals = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        return np.array(vals, dtype=np.float64) * 0.5
    if kind == "cliff":
        at = draw(st.integers(0, size))
        high, low = draw(st.integers(1, 20)), draw(st.integers(0, 5))
        return np.array([float(high)] * at + [float(low)] * (size - at))
    if kind == "special":
        elems = st.sampled_from([0.0, 1.0, 2.5, 4.0, np.nan, np.inf, -np.inf])
        return np.array(draw(st.lists(elems, min_size=size, max_size=size)))
    floats = st.floats(-1e6, 1e6, allow_nan=False)
    return np.array(draw(st.lists(floats, min_size=size, max_size=size)))


@st.composite
def _sttw_case(draw):
    n_prog = draw(st.integers(1, 6))
    size = draw(st.integers(1, 12))
    costs = [draw(_curve(size)) for _ in range(n_prog)]
    budget = draw(st.one_of(st.just(0), st.just(size - 1), st.integers(0, size - 1)))
    return costs, budget


@given(_sttw_case())
@settings(max_examples=500, deadline=None)
def test_matches_argmax_oracle(case):
    costs, budget = case
    with np.errstate(invalid="ignore"):  # inf - inf gains are NaN
        got = sttw_partition(costs, budget)
        want = _sttw_oracle(costs, budget)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
