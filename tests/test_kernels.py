"""The kernel-backend contract: every backend is bit-exact vs the oracle.

Bit-exact means byte-identical ``out`` values AND byte-identical
``split`` tie-breaks — including ``+inf`` constraint entries and
tie-heavy plateaus, where an argmin that scans in a different order
would still produce equal *values* but different *splits*.  The
FoldCache treats results from different backends as interchangeable
entries, which is only sound under this contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.dp import optimal_partition
from repro.core.kernels import (
    active_kernel,
    convolve,
    detect_kernel,
    get_kernel,
    kernel_names,
    minplus_convolve,
    oracle_convolve,
    register_kernel,
    register_kernel_metric,
    set_kernel,
)
from repro.core.minplus import fold_curves

BACKENDS = kernel_names()
#: every registered backend, plus the registry-bypassing pinned entry point
SUBJECTS = {name: get_kernel(name) for name in BACKENDS}
SUBJECTS["minplus_convolve"] = minplus_convolve


def _random_instance(rng, size, inf_fraction, tie_quantum):
    """A curve pair with controllable ties and +inf plateaus."""
    a = rng.random(size) * 8
    b = rng.random(size) * 8
    if tie_quantum:
        # snapping to a coarse grid manufactures ties, stressing the
        # first-occurrence argmin rule rather than just the min values
        a = np.round(a / tie_quantum) * tie_quantum
        b = np.round(b / tie_quantum) * tie_quantum
    for c in (a, b):
        mask = rng.random(size) < inf_fraction
        c[mask] = np.inf
    return a, b


# --------------------------------------------------------------- registry
def test_catalog_contains_the_builtin_backends():
    names = kernel_names()
    assert names[:2] == ("blocked", "oracle")
    assert set(names) <= {"blocked", "oracle"}


def test_get_kernel_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_kernel("fft")  # famously NOT how min-plus works


def test_register_kernel_rejects_duplicates_and_empty_names():
    with pytest.raises(ValueError, match="already registered"):
        register_kernel("blocked")(oracle_convolve)
    with pytest.raises(ValueError, match="non-empty"):
        register_kernel("")(oracle_convolve)


def test_set_kernel_switches_and_returns_previous():
    before = active_kernel()
    try:
        prev = set_kernel("oracle")
        assert prev == before
        assert active_kernel() == "oracle"
        with pytest.raises(ValueError):
            set_kernel("not-a-kernel")
        assert active_kernel() == "oracle"  # failed switch changes nothing
    finally:
        set_kernel(before)


def test_detect_kernel_explicit_name_wins_and_typos_raise():
    assert detect_kernel("blocked") == "blocked"
    assert detect_kernel("oracle") == "oracle"
    with pytest.raises(ValueError, match="unknown kernel backend"):
        detect_kernel("blokced")  # a typo must not silently fall back
    with pytest.raises(ValueError, match="unknown kernel backend"):
        detect_kernel("reference")  # the per-row kernel is gone
    # with no explicit choice the default is blocked, never the oracle
    assert detect_kernel(None) == "blocked"
    assert detect_kernel("") == "blocked"


def test_convolve_validates_shapes():
    with pytest.raises(ValueError, match="equal length"):
        convolve(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="1-D"):
        convolve(np.zeros((2, 2)), np.zeros((2, 2)))


def test_minplus_convolve_is_pinned_to_the_tiled_kernel(monkeypatch):
    """The historical name must not follow the active-backend selection."""
    a = np.array([3.0, 1.0, 0.5])
    b = np.array([4.0, 2.0, 1.0])
    want_out, want_split = kernels._blocked_convolve_impl(a, b, tile=256)
    before = active_kernel()
    try:
        set_kernel("oracle")
        # a backend swapped in under the active name is bypassed too
        monkeypatch.setitem(kernels._KERNELS, "oracle", None)
        out, split = minplus_convolve(a, b)
        assert out.tobytes() == want_out.tobytes()
        assert split.tobytes() == want_split.tobytes()
    finally:
        set_kernel(before)


@pytest.mark.parametrize("entry", [convolve, minplus_convolve])
def test_nan_operands_raise_in_every_entry_point(entry):
    """NaN has no min-plus order: argmin picks it, a strict < scan skips
    it, so backends would disagree — both entry points refuse it."""
    with pytest.raises(ValueError, match="cost curve a is NaN at index 0"):
        entry(np.array([np.nan, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="cost curve b is NaN at index 2"):
        entry(np.zeros(3), np.array([0.0, 1.0, np.nan]))


def test_nan_cost_curve_raises_instead_of_infeasible():
    with pytest.raises(ValueError, match="NaN"):
        optimal_partition([np.array([np.nan, 1.0, 0.0]), np.array([0.0, 1.0, 2.0])], 2)


def test_kernel_backend_info_metric():
    from repro.obs import Registry, parse_exposition

    registry = register_kernel_metric(Registry())
    families = parse_exposition(registry.render())
    fam = families["repro_kernel_backend_info"]
    assert fam["type"] == "gauge"
    key = ("repro_kernel_backend_info", (("backend", active_kernel()),))
    assert fam["samples"] == {key: 1.0}


# ----------------------------------------------------------------- parity
@pytest.mark.parametrize("backend", SUBJECTS)
@given(
    st.integers(1, 48),
    st.integers(0, 10**9),
    st.floats(0.0, 0.4),
    st.sampled_from([0.0, 2.0, 8.0]),
)
@settings(max_examples=60, deadline=None)
def test_backend_bit_exact_vs_oracle(backend, size, seed, inf_fraction, tie_quantum):
    """Satellite (d): byte-identical totals AND argmin tie-breaks."""
    rng = np.random.default_rng(seed)
    a, b = _random_instance(rng, size, inf_fraction, tie_quantum)
    want_out, want_split = oracle_convolve(a, b)
    got_out, got_split = SUBJECTS[backend](a, b)
    assert got_out.tobytes() == want_out.tobytes(), backend
    assert got_split.tobytes() == want_split.tobytes(), backend


@pytest.mark.parametrize("backend", SUBJECTS)
def test_backend_all_inf_rows_report_split_zero(backend):
    """An all-infeasible output cell reports split 0 in every backend."""
    a = np.array([np.inf, np.inf, np.inf])
    b = np.array([np.inf, 1.0, np.inf])
    out, split = SUBJECTS[backend](a, b)
    assert np.all(np.isinf(out))
    assert split.tolist() == [0, 0, 0]


@pytest.mark.parametrize("backend", SUBJECTS)
def test_backend_constant_curves_tie_everywhere(backend):
    """Flat curves tie at every i; the split must always be 0."""
    a = np.full(16, 2.5)
    b = np.full(16, 2.5)
    out, split = SUBJECTS[backend](a, b)
    assert np.all(out == 5.0)
    assert np.all(split == 0)


def test_blocked_kernel_tile_boundaries():
    """Tiny tiles force every merge path: partial tiles, cross-tile ties."""
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 7, 8, 9, 17):
        a, b = _random_instance(rng, size, 0.2, 2.0)
        want_out, want_split = oracle_convolve(a, b)
        for tile in (1, 2, 3, 5):
            got_out, got_split = kernels._blocked_convolve_impl(a, b, tile=tile)
            assert got_out.tobytes() == want_out.tobytes(), (size, tile)
            assert got_split.tobytes() == want_split.tobytes(), (size, tile)


def _production_instances(n):
    """Curve pairs that stress the 256-wide tiles at grid ``n``.

    Quantized values tie across tile edges (a sawtooth of period 256
    repeats each minimum in every ``i``-tile), ``+inf`` prefixes make the
    first output rows all-``+inf`` (split 0), and scattered ``+inf``
    cells put infeasible candidates inside otherwise finite rows.
    """
    rng = np.random.default_rng(n)
    a, b = _random_instance(rng, n, 0.1, 2.0)
    a[:3] = np.inf
    b[:5] = np.inf
    saw = (np.arange(n) % 256 // 64).astype(np.float64)
    flat = np.where(rng.random(n) < 0.05, np.inf, 1.0)
    return [(a, b), (saw, saw[::-1].copy()), (saw, flat)]


@pytest.mark.parametrize("n", [255, 256, 257, 511, 513, 1025])
def test_production_tile_parity_with_oracle(n):
    """The 256 tile, bit for bit, incl. 1025's one-row trailing k-tile."""
    subjects = {
        "blocked": lambda a, b: kernels._blocked_convolve_impl(a, b, tile=256),
        "convolve": convolve,
    }
    for a, b in _production_instances(n):
        a_in, b_in = a.copy(), b.copy()
        want_out, want_split = oracle_convolve(a, b)
        if np.isinf(a[0]) and np.isinf(b[0]):
            assert np.isinf(want_out[0]) and want_split[0] == 0
        for name, fn in subjects.items():
            out, split = fn(a, b)
            assert out.tobytes() == want_out.tobytes(), (n, name)
            assert split.tobytes() == want_split.tobytes(), (n, name)
            # the operands are read, never written
            assert a.tobytes() == a_in.tobytes() and b.tobytes() == b_in.tobytes()
            # a second call, whose results differ, must not write into
            # the first call's
            kept_out, kept_split = out.tobytes(), split.tobytes()
            fn(a + 1.0, b[::-1].copy())
            assert out.tobytes() == kept_out and split.tobytes() == kept_split, (n, name)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fold_curves_identical_under_every_backend(backend):
    """The whole DP — totals, splits, allocation — is backend-invariant."""
    rng = np.random.default_rng(23)
    costs = [np.round(rng.random(33) * 4, 1) for _ in range(5)]
    costs[2][5:] = np.inf  # a constraint plateau in the middle program
    before = active_kernel()
    try:
        set_kernel("oracle")
        want = fold_curves(costs)
        set_kernel(backend)
        got = fold_curves(costs)
    finally:
        set_kernel(before)
    assert got.total.tobytes() == want.total.tobytes()
    for gs, ws in zip(got.splits, want.splits):
        assert gs.tobytes() == ws.tobytes()
    assert np.array_equal(got.allocate(20), want.allocate(20))
