"""The benchmark's statistics helpers and probes."""

import numpy as np
import pytest

from perfbench.stats import (
    best_of_passes,
    entry_calls,
    layer_self_times,
    other_time,
    percentile,
    self_times,
    tail_level,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))  # 1..200, shuffled order must not matter
    samples.reverse()
    assert percentile(samples, 0.5) == 100
    assert percentile(samples, 0.95) == 190
    assert percentile(samples, 1.0) == 200
    assert percentile([7.0], 0.5) == 7.0


def test_p95_needs_ten_samples_beyond_it():
    assert percentile(list(range(200)), 0.95, min_beyond=10) == 189
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(199)), 0.95, min_beyond=10)


def test_tail_level_is_p95_unless_fewer_than_ten_lie_beyond():
    assert tail_level(1820) == 0.95
    assert tail_level(200) == pytest.approx(0.95)
    assert tail_level(199) == pytest.approx(189 / 199)  # lint's 199 files
    for n in (199, 200, 240, 1820):
        samples = list(range(n))
        assert n - 1 - percentile(samples, tail_level(n), min_beyond=10) >= 10
    with pytest.raises(ValueError):
        tail_level(10)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_self_time_is_span_minus_children():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),  # grandchild: counts against a, not root
        ("c", 0, 6.0, 7.5),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_overlapping_children_are_covered_once_and_clipped():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 5.0),
        ("b", 0, 3.0, 6.0),  # overlaps a: union 1..6
        ("c", 0, 9.0, 12.0),  # sticks out: only 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_and_other_partition_the_wall():
    layer_of = {"run": "study", "solve": "dp", "conv": "kernels", "conv2": "kernels"}
    spans = [
        ("run", -1, 1.0, 9.0),
        ("solve", 0, 2.0, 6.0),
        ("conv", 1, 3.0, 5.0),
        ("conv2", 2, 3.5, 4.0),  # same layer nested: one entry call
        ("conv", -1, 9.5, 10.0),
    ]
    totals = layer_self_times(spans, layer_of)
    assert totals == pytest.approx({"study": 4.0, "dp": 2.0, "kernels": 2.5})
    wall = 12.0
    assert other_time(wall, totals) == pytest.approx(wall - 8.5)
    # other + every layer's self time is exactly the wall
    assert other_time(wall, totals) + sum(totals.values()) == pytest.approx(wall)
    assert entry_calls(spans, layer_of) == {"study": 1, "dp": 1, "kernels": 2}


def test_span_probes_record_nesting_and_undo_cleanly():
    import repro.core.kernels as kernels
    import repro.core.minplus as minplus
    from perfbench.probes import SpanRecorder, install_spans

    original = minplus.convolve
    rec = SpanRecorder("test")
    undo = install_spans(rec)
    try:
        curves = [np.linspace(5.0, 0.0, 9) for _ in range(3)]
        minplus.fold_curves(curves)
    finally:
        undo()
    assert minplus.convolve is original and kernels.convolve is original
    names = [(name, parent) for name, parent, *_ in rec.spans]
    assert names == [("fold_curves", -1), ("fold_curves_stages", 0),
                     ("kernel_convolve", 1), ("kernel_convolve", 1)]
    assert rec.counts["core.kernels.cells"] == 2 * 9 * 9
    assert all(end >= start for _n, _p, start, end in rec.spans)


def test_best_of_passes_takes_each_units_fastest_repeat():
    passes = [
        (10.0, [("f", 2.0, False), ("g", 3.0, True), ("f", 1.0, False)]),
        (9.0, [("f", 1.5, False), ("g", 4.0, True), ("f", 2.5, False)]),
    ]
    total, units = best_of_passes(passes)
    assert units == {("f", 0): (1.5, False), ("g", 0): (3.0, True), ("f", 1): (1.0, False)}
    # untimed remainder: min(10 - 6, 9 - 8) = 1
    assert total == pytest.approx(1.5 + 3.0 + 1.0 + 1.0)
    assert best_of_passes(passes[:1])[0] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        best_of_passes([])


def test_host_clock_scales_by_the_bracketing_probes():
    from perfbench.hostclock import REF_S, HostClock

    clock = HostClock()
    clock.times = [0.0, 1.0, 2.0]
    clock.refs = [REF_S, 2 * REF_S, REF_S]
    # between probes 0 and 1: the host ran the reference 1.5x slow on average
    assert clock.scale(0.1, 0.9) == pytest.approx(1 / 1.5)
    assert clock.normalize(0.1, 0.9) == pytest.approx(0.8 / 1.5)
    # past the last probe only the earlier side brackets it
    assert clock.scale(2.5, 3.0) == pytest.approx(1.0)
    assert clock.scale(-1.0, -0.5) == pytest.approx(1.0)


def test_host_clock_probes_record_the_best_of_three_loops(monkeypatch):
    import perfbench.hostclock as hostclock

    monkeypatch.setattr(hostclock, "PROBE_GAP_S", 3600.0)
    clock = hostclock.HostClock()
    clock.maybe_probe()
    clock.maybe_probe()  # within the gap: no second probe
    assert len(clock.refs) == 1 and len(clock.times) == 1
    assert 0 < 3 * clock.refs[0] <= clock.spent
    with pytest.raises(ValueError):
        hostclock.HostClock().scale(0.0, 1.0)


def test_host_clock_flags_a_run_slowed_past_the_slack():
    from perfbench.hostclock import HOST_SLACK, REF_S, HostClock

    clock = HostClock()
    clock.refs = [REF_S, 3 * REF_S, 1.1 * REF_S]
    assert clock.slowdown() == pytest.approx(1.1)
    assert not clock.slowed()
    clock.refs = [(1 + HOST_SLACK) * 1.01 * REF_S] * 3
    assert clock.slowed()
