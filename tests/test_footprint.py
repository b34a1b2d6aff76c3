"""Tests for the linear-time average footprint (Eq. 5) and its inverse."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality.footprint import (
    average_footprint,
    windowed_wss,
    wss_curve_direct,
)
from repro.locality.hotl import miss_ratio
from repro.workloads import cyclic, sawtooth, uniform_random, zipf
from repro.workloads.trace import Trace

traces = st.lists(st.integers(0, 7), min_size=1, max_size=50).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


def naive_wss(blocks: np.ndarray, w: int) -> np.ndarray:
    n = blocks.size
    return np.array(
        [np.unique(blocks[s : s + w]).size for s in range(n - w + 1)], dtype=np.int64
    )


@given(traces, st.integers(1, 50))
@settings(max_examples=200)
def test_windowed_wss_matches_naive(blocks, w):
    if w > blocks.size:
        w = blocks.size
    assert np.array_equal(windowed_wss(blocks, w), naive_wss(blocks, w))


@given(traces)
@settings(max_examples=150)
def test_footprint_matches_direct_average(blocks):
    fast = average_footprint(blocks).values
    ref = wss_curve_direct(blocks)
    assert np.allclose(fast, ref, atol=1e-9)


@given(traces)
@settings(max_examples=150)
def test_footprint_invariants(blocks):
    fp = average_footprint(blocks)
    vals = fp.values
    n, m = fp.n, fp.m
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0)
    assert vals[-1] == pytest.approx(m)
    assert np.all(np.diff(vals) >= -1e-12), "fp must be non-decreasing"
    w = np.arange(n + 1)
    assert np.all(vals <= np.minimum(w, m) + 1e-9), "fp(w) <= min(w, m)"


def test_footprint_known_small_case():
    # trace "aba": fp(1)=1, fp(2)=2, fp(3)=2
    fp = average_footprint(np.array([0, 1, 0]))
    assert np.allclose(fp.values, [0.0, 1.0, 2.0, 2.0])


def test_footprint_cyclic_linear_then_flat():
    """Cyclic sweep: fp(w) = w up to m, then exactly m (steady state)."""
    m = 16
    fp = average_footprint(cyclic(640, m))
    w = np.arange(fp.n + 1)
    expect = np.minimum(w, m)
    # windows overlapping the trace tail are slightly smaller on average;
    # with n >> m the deviation is tiny
    assert np.allclose(fp.values, expect, atol=0.3)


def test_call_interpolates_and_clamps():
    fp = average_footprint(cyclic(100, 10))
    assert fp(0) == 0.0
    assert fp(0.5) == pytest.approx(0.5)
    assert fp(1e9) == pytest.approx(fp.m)  # clamped past n
    arr = fp(np.array([1.0, 2.5, 3.0]))
    assert arr.shape == (3,)


def test_inverse_roundtrip():
    fp = average_footprint(sawtooth(500, 40))
    for target in (0.5, 1.0, 7.3, 25.0, 39.9):
        w = fp.inverse(target)
        assert fp(w) == pytest.approx(target, abs=1e-6)


def test_inverse_saturation_and_zero():
    fp = average_footprint(cyclic(200, 10))
    assert fp.inverse(0.0) == 0.0
    assert fp.inverse(10.0) <= fp.n
    assert fp.inverse(1e9) == pytest.approx(fp.n)  # beyond m -> full trace


def test_inverse_vectorized():
    fp = average_footprint(uniform_random(300, 25, seed=0))
    targets = np.array([0.0, 1.0, 5.5, 20.0])
    ws = fp.inverse(targets)
    assert ws.shape == targets.shape
    assert np.all(np.diff(ws) >= 0), "inverse of a monotone curve is monotone"


def test_windowed_wss_validates_input():
    with pytest.raises(ValueError):
        windowed_wss(np.array([1, 2, 3]), 0)
    with pytest.raises(ValueError):
        windowed_wss(np.array([1, 2, 3]), 4)


def test_footprint_carries_trace_metadata():
    t = Trace(np.array([1, 2, 1]), name="prog", access_rate=2.5)
    fp = average_footprint(t)
    assert fp.name == "prog"
    assert fp.access_rate == 2.5


def test_empty_trace_footprint():
    fp = average_footprint(np.array([], dtype=np.int64))
    assert fp.n == 0 and fp.m == 0
    assert fp.values.size == 1


def test_footprint_zipf_nearly_concave():
    """Measured zipf footprints are near-concave (HOTL's working assumption).

    Sampling noise produces occasional tiny convex kinks, so the check is
    statistical: almost all second differences are non-positive and none
    is large.
    """
    fp = average_footprint(zipf(4000, 100, alpha=1.0, seed=5))
    coarse = fp.values[::32]  # unit-granularity view
    second = np.diff(coarse, 2)
    assert float(np.mean(second > 1e-6)) < 0.10
    assert second.max() < 0.5


# ------------------------------------------- scalar vs array bit-identity
def _bits(x) -> int:
    """The IEEE-754 bit pattern of one float64."""
    return int(np.array([x], dtype=np.float64).view(np.int64)[0])


_FP = average_footprint(zipf(400, 60, alpha=0.9, seed=11))
_N = _FP.n


def _grid_values(hi: float):
    """Windows (or targets) over ``[0, hi]`` and past both ends: negative,
    beyond ``hi``, integral, exactly ``hi``, tiny fractions, infinities."""
    return st.one_of(
        st.floats(allow_nan=False),
        st.floats(min_value=-10.0 * hi, max_value=0.0),
        st.floats(min_value=hi, max_value=1e12),
        st.integers(0, int(hi)).map(float),
        st.just(float(hi)),
        st.tuples(
            st.integers(0, int(hi)), st.floats(min_value=5e-324, max_value=1e-9)
        ).map(lambda t: t[0] + t[1]),
        st.floats(min_value=0.0, max_value=float(hi)),
    )


@given(_grid_values(_N))
@settings(max_examples=400)
def test_scalar_call_bit_identical_to_array_path(w):
    ref = _FP(np.array([w], dtype=np.float64))[0]
    for scalar in (float(w), np.float64(w)):
        out = _FP(scalar)
        assert type(out) is float
        assert _bits(out) == _bits(ref)


@given(_grid_values(_FP.m))
@settings(max_examples=400)
def test_scalar_inverse_and_miss_ratio_bit_identical(target):
    inv = _FP.inverse(np.array([target], dtype=np.float64))[0]
    mr = miss_ratio(_FP, np.array([target], dtype=np.float64))[0]
    for scalar in (float(target), np.float64(target)):
        assert _bits(_FP.inverse(scalar)) == _bits(inv)
        assert _bits(miss_ratio(_FP, scalar)) == _bits(mr)


def test_nan_window_raises_value_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        for bad in (float("nan"), np.float64("nan"), np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                _FP(bad)


#: blake2b-128 over ``mini_profile``'s footprints, in suite order: each
#: curve's ``values`` (int64 view) followed by ``n`` and ``m`` as int64.
#: A bit of drift anywhere in the footprint path changes it, before any
#: MRC resampling could hide or blur the change.
MINI_FOOTPRINT_DIGEST = "c4f6038d6bc746b22090357fd83a33ec"


def test_mini_profile_footprints_are_pinned(mini_profile):
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for fp in mini_profile.footprints:
        h.update(np.ascontiguousarray(fp.values).view(np.int64).tobytes())
        h.update(np.array([fp.n, fp.m], dtype=np.int64).tobytes())
    assert h.hexdigest() == MINI_FOOTPRINT_DIGEST
