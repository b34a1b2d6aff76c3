"""Tests for footprint composition and the Natural Cache Partition (§IV, §V-A)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.composition.corun import (
    _KNOTS_PER_PROGRAM,
    CorunSolver,
    natural_partition,
    predict_corun,
    solve_fill_window,
)
from repro.composition.stretch import ComposedFootprint, compose_footprints
from repro.experiments.methodology import ExperimentConfig, build_suite_profile
from repro.locality.footprint import FootprintCurve, average_footprint
from repro.workloads import cyclic, sawtooth, uniform_random, zipf


def _fps(*traces):
    return [average_footprint(t) for t in traces]


def test_compose_ratios_from_rates():
    fps = _fps(
        cyclic(200, 10).with_rate(3.0),
        cyclic(200, 10).with_rate(1.0),
    )
    comp = compose_footprints(fps)
    assert np.allclose(comp.ratios, [0.75, 0.25])


def test_composed_is_sum_of_stretched():
    fps = _fps(cyclic(300, 15), uniform_random(300, 20, seed=0))
    comp = compose_footprints(fps)
    for w in (0.0, 10.0, 55.5, 200.0):
        expect = sum(float(fp(w * r)) for fp, r in zip(fps, comp.ratios))
        assert comp(w) == pytest.approx(expect)


def test_composed_saturates_at_total_data():
    fps = _fps(cyclic(300, 15), cyclic(300, 25))
    comp = compose_footprints(fps)
    assert comp.total_data == 40
    assert comp(comp.max_window) == pytest.approx(40, abs=0.5)


def test_components_sum_to_composed():
    fps = _fps(cyclic(400, 30), sawtooth(400, 20), zipf(400, 25, seed=1))
    comp = compose_footprints(fps)
    for w in (5.0, 50.0, 350.0):
        assert comp.components(w).sum() == pytest.approx(float(comp(w)))


def test_fill_window_hits_target():
    fps = _fps(cyclic(600, 30), uniform_random(600, 40, seed=2))
    comp = compose_footprints(fps)
    for c in (5, 20, 45, 60):
        w = solve_fill_window(comp, c)
        assert comp(w) == pytest.approx(c, abs=1e-4)


def test_fill_window_saturated_cache():
    fps = _fps(cyclic(200, 10), cyclic(200, 12))
    comp = compose_footprints(fps)
    w = solve_fill_window(comp, 100)  # cache exceeds 22 total blocks
    assert comp(w) == pytest.approx(22, abs=0.5)


def test_natural_partition_sums_to_cache():
    fps = _fps(
        cyclic(2000, 100).with_rate(2.0),
        uniform_random(2000, 150, seed=3),
        zipf(2000, 80, alpha=1.0, seed=4),
    )
    for C in (50, 120, 200):
        occ = natural_partition(fps, C)
        assert occ.sum() == pytest.approx(C, rel=1e-3)
        assert np.all(occ >= 0)


def test_equal_programs_get_equal_shares():
    a = cyclic(1000, 60, name="a")
    b = cyclic(1000, 60, name="b")
    occ = natural_partition(_fps(a, b), 50)
    assert occ[0] == pytest.approx(occ[1], rel=1e-6)


def test_faster_program_gets_more_cache():
    """Higher access rate stretches the footprint less -> larger occupancy."""
    a = uniform_random(4000, 100, seed=5).with_rate(3.0)
    b = uniform_random(4000, 100, seed=6).with_rate(1.0)
    occ = natural_partition(_fps(a, b), 80)
    assert occ[0] > occ[1]


def test_predict_corun_structure():
    fps = _fps(cyclic(500, 40, name="x"), zipf(500, 30, seed=7, name="y"))
    pred = predict_corun(fps, 32)
    assert pred.names == ("x", "y")
    assert pred.occupancies.shape == (2,)
    assert np.all((pred.miss_ratios >= 0) & (pred.miss_ratios <= 1))
    assert 0 <= pred.group_miss_ratio <= 1
    with pytest.raises(ValueError):
        predict_corun(fps, 0)


def test_corun_prediction_group_weighting():
    fps = _fps(cyclic(900, 50), cyclic(300, 50))
    pred = predict_corun(fps, 40)
    expect = float(np.dot(pred.miss_ratios, [900, 300]) / 1200)
    assert pred.group_miss_ratio == pytest.approx(expect)


def test_solver_matches_bisection_path():
    fps = _fps(
        uniform_random(3000, 200, seed=8),
        zipf(3000, 150, alpha=1.2, seed=9),
        sawtooth(3000, 120),
    )
    solver = CorunSolver(fps, max_cache=400)
    for C in (10, 100, 250, 400):
        fast = solver.predict(C)
        slow = predict_corun(fps, C)
        assert np.allclose(fast.occupancies, slow.occupancies, atol=0.5)
        assert np.allclose(fast.miss_ratios, slow.miss_ratios, atol=1e-3)


def test_solver_rejects_oversized_query():
    fps = _fps(cyclic(100, 10))
    solver = CorunSolver(fps, max_cache=8)
    with pytest.raises(ValueError):
        solver.fill_windows(50.0)


def test_solver_group_miss_counts_monotone():
    fps = _fps(uniform_random(2000, 120, seed=10), cyclic(2000, 80))
    solver = CorunSolver(fps, max_cache=256)
    sizes = np.arange(0, 257, 16, dtype=np.float64)
    counts = solver.group_miss_counts(sizes)
    assert counts[0] == pytest.approx(4000)  # no cache: everything misses
    assert np.all(np.diff(counts) <= 1e-6)  # more cache never hurts a group


def test_compose_validates_input():
    with pytest.raises(ValueError):
        compose_footprints([])
    fps = _fps(cyclic(50, 5))
    with pytest.raises(ValueError):
        ComposedFootprint(tuple(fps), np.array([0.4, 0.6]))
    with pytest.raises(ValueError):
        ComposedFootprint(tuple(fps), np.array([0.7]))


# ------------------------------------------- scalar vs array bit-identity
def _bits(x) -> int:
    """The IEEE-754 bit pattern of one float64."""
    return int(np.array([x], dtype=np.float64).view(np.int64)[0])


_COMP = compose_footprints(
    _fps(
        zipf(300, 40, alpha=0.9, seed=12).with_rate(1.7),
        uniform_random(500, 70, seed=13),
        cyclic(200, 25).with_rate(0.6),
    )
)
_W_MAX = _COMP.max_window


@given(
    st.one_of(
        st.floats(allow_nan=False),
        st.floats(min_value=-10.0 * _W_MAX, max_value=0.0),
        st.floats(min_value=_W_MAX, max_value=1e12),
        st.integers(0, int(_W_MAX)).map(float),
        st.just(_W_MAX),
        st.tuples(
            st.integers(0, int(_W_MAX)), st.floats(min_value=5e-324, max_value=1e-9)
        ).map(lambda t: t[0] + t[1]),
        st.floats(min_value=0.0, max_value=_W_MAX),
    )
)
@settings(max_examples=400)
def test_composed_scalar_bit_identical_to_array_path(w):
    ref = _COMP(np.array([w], dtype=np.float64))[0]
    for scalar in (float(w), np.float64(w)):
        out = _COMP(scalar)
        assert type(out) is float
        assert _bits(out) == _bits(ref)


def _numpy_fill_window(composed, cache_size):
    """The fill-window bisection with every probe evaluated as a 1-element
    array, i.e. on the NumPy path only."""

    def fp(w):
        return composed(np.array([w], dtype=np.float64))[0]

    if cache_size <= 0:
        return 0.0
    hi = composed.max_window
    if composed.total_data <= cache_size or fp(hi) <= cache_size:
        return hi
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if fp(mid) < cache_size:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def test_fill_window_bit_identical_to_numpy_bisection(mini_profile):
    cfg = mini_profile.config
    sizes = range(0, cfg.cache_blocks + 1, cfg.unit_blocks)
    for group in combinations(mini_profile.footprints, cfg.group_size):
        composed = compose_footprints(group)
        for c in sizes:
            got = solve_fill_window(composed, float(c))
            assert _bits(got) == _bits(_numpy_fill_window(composed, float(c)))


def test_solver_reuses_its_max_cache_window():
    fps = _fps(uniform_random(2000, 120, seed=14), cyclic(2000, 80))
    solver = CorunSolver(fps, max_cache=256)
    w = solver.fill_windows(256)
    assert _bits(w) == _bits(solver.fill_windows(np.array([256.0]))[0])
    assert solver.fill_windows(256.0) == w
    assert solver.predict(256).fill_window == w


def test_nan_cache_size_raises_value_error():
    fps = _fps(cyclic(300, 15), uniform_random(300, 20, seed=0))
    with pytest.raises(ValueError, match="NaN"):
        solve_fill_window(compose_footprints(fps), float("nan"))
    solver = CorunSolver(fps, max_cache=30)
    for bad in (float("nan"), np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            solver.fill_windows(bad)


# ------------------------------- max-cache bracket vs the full knot grid
def _full_grid_window(fps, max_cache):
    """``w*`` at ``max_cache`` the long way: the composed curve on the whole
    union knot grid, then one interpolation over it."""
    composed = compose_footprints(fps)
    w_cap = solve_fill_window(composed, float(max_cache))
    knots = [np.array([0.0, w_cap])]
    for fp, r in zip(fps, composed.ratios):
        v_max = min(fp.n, int(np.ceil(w_cap * r)) + 1)
        if v_max <= _KNOTS_PER_PROGRAM:
            v = np.arange(v_max + 1, dtype=np.float64)
        else:
            v = np.round(np.geomspace(1.0, v_max, _KNOTS_PER_PROGRAM))
            v = np.concatenate([[0.0], v])
        knots.append(v / r)
    grid = np.unique(np.concatenate(knots))
    grid = grid[grid <= w_cap + 1e-9]
    fp_vals = composed(grid)
    c = float(max_cache)
    if c >= fp_vals[-1]:
        return float(grid[-1])
    i = int(np.clip(np.searchsorted(fp_vals, c, side="left"), 1, grid.size - 1))
    run = fp_vals[i] - fp_vals[i - 1]
    frac = (c - fp_vals[i - 1]) / run if run > 0 else 0.0
    return float(grid[i - 1] + np.clip(frac, 0.0, 1.0) * (grid[i] - grid[i - 1]))


def _assert_bracket_exact(fps, max_cache):
    solver = CorunSolver(fps, max_cache=max_cache)
    w = solver.fill_windows(max_cache)
    assert _bits(w) == _bits(_full_grid_window(fps, max_cache))
    # the lazily built full grid agrees at max_cache too
    assert _bits(w) == _bits(solver.fill_windows(np.array([float(max_cache)]))[0])


def test_max_cache_bracket_matches_full_grid_on_mini_profile(mini_profile):
    cfg = mini_profile.config
    for group in combinations(mini_profile.footprints, cfg.group_size):
        _assert_bracket_exact(group, cfg.cache_blocks)


def test_max_cache_bracket_matches_full_grid_on_every_default_group():
    """All 1820 groups of the §VII-A sweep at its default scale."""
    cfg = ExperimentConfig()
    profile = build_suite_profile(cfg)
    for group in combinations(profile.footprints, cfg.group_size):
        _assert_bracket_exact(group, cfg.cache_blocks)


@st.composite
def _long_footprints(draw):
    """Synthetic near-concave footprints, long enough for the log grid."""
    out = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from([50, 3000, 8000, 20000]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        decay = draw(st.floats(1e-5, 1e-3))
        steps = np.exp(-decay * np.arange(n)) * rng.random(n)
        steps[rng.random(n) < 0.3] = 0.0  # plateaus
        values = np.concatenate([[0.0], np.cumsum(steps)])
        m = max(1, int(round(values[-1])))
        values = values * (m / values[-1]) if values[-1] > 0 else values
        rate = draw(st.floats(0.2, 5.0))
        out.append(FootprintCurve(values, n=n, m=m, access_rate=rate, name=f"p{i}"))
    return out


@given(
    _long_footprints(),
    st.one_of(st.floats(0.0, 0.999), st.floats(1.0, 1.3), st.just(0.9999), st.just(None)),
)
@settings(max_examples=80, deadline=None)
def test_max_cache_bracket_matches_full_grid_on_long_footprints(fps, fill):
    """Long curves take the geomspace path; ``fill >= 1`` saturates the
    cache (it exceeds the combined data) and ``None`` pins max_cache = 1."""
    total = sum(fp.m for fp in fps)
    max_cache = 1 if fill is None else max(1, int(fill * total))
    _assert_bracket_exact(fps, max_cache)


def test_max_cache_bracket_cases_are_reached():
    """The long-footprint strategy's corners, pinned deterministically."""
    values = np.concatenate([[0.0], np.cumsum(np.exp(-1e-4 * np.arange(20000)))])
    m = int(round(values[-1]))
    long_fp = FootprintCurve(values * (m / values[-1]), n=20000, m=m, name="long")
    short = _fps(uniform_random(3000, 200, seed=4))
    for fps, max_cache in (
        ([long_fp], m - 1),  # geomspace knots, unsaturated
        ([long_fp, *short], m + 250),  # saturated: more cache than data
        ([long_fp, *short], 1),
    ):
        _assert_bracket_exact(fps, max_cache)
