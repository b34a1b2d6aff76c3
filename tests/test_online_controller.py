"""Tests for the online controller, replay harness, and serve CLI.

Acceptance anchors (ISSUE 1 + ISSUE 2):

* with full sampling and zero thresholds the controller's epoch plan is
  *identical* to :func:`repro.core.dynamic.plan_dynamic` on the
  phase-opposed Figure-1 workload — for any batching, aligned or not;
* a lagging tenant holds an epoch open instead of having its accesses
  misattributed to a later epoch (the ISSUE 2 reproducer);
* with sampling enabled the group miss ratio stays within noise of the
  dynamic oracle on the same workload.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.dynamic import plan_dynamic, plan_static, simulate_plan
from repro.online.controller import (
    AllocationDecision,
    BackpressureError,
    ControllerConfig,
    OnlineController,
)
from repro.online.replay import phase_opposed_pair, replay, steady_pair
from repro.workloads.generators import cyclic
from repro.workloads.trace import Trace


def _exact_config(cache: int, epoch: int, **kw) -> ControllerConfig:
    return ControllerConfig(cache_blocks=cache, epoch_length=epoch, **kw)


# ----------------------------------------------------- oracle equivalence
def test_controller_matches_plan_dynamic_exactly_on_phase_opposed():
    """Full sampling + zero thresholds == plan_dynamic, epoch for epoch."""
    traces, seg = phase_opposed_pair()
    report = replay(traces, _exact_config(56, seg), batch_size=97)
    oracle = plan_dynamic(traces, 56, seg)
    assert np.array_equal(report.plan.allocations, oracle.allocations)
    assert report.online_miss_ratio == pytest.approx(report.oracle_miss_ratio)
    # and the Figure-1 effect survives the streaming path: online beats static
    assert report.online.total_misses() < report.static.total_misses()


def test_controller_matches_plan_dynamic_on_uneven_lengths():
    traces = [cyclic(500, 10, name="long"), cyclic(200, 30, name="short")]
    report = replay(traces, _exact_config(40, 100))
    oracle = plan_dynamic(traces, 40, 100)
    assert np.array_equal(report.plan.allocations, oracle.allocations)
    assert report.plan.n_epochs == 5


def test_sampled_controller_within_noise_of_oracle():
    """Acceptance: sampling-driven decisions match the oracle within noise.

    Smooth-MRC (zipf) phases: on cliff (cyclic) phases any working-set
    underestimate costs the whole epoch, so sampled operation targets the
    production-shaped curves; the cyclic case is pinned exactly at full
    sampling above.
    """
    traces, seg = phase_opposed_pair(
        loops=6, big=480, small=40, segment=2400, pattern="zipf"
    )
    cache = 400
    config = ControllerConfig(
        cache_blocks=cache, epoch_length=seg, sampling_rate=0.1, seed=1
    )
    report = replay(traces, config)
    oracle = simulate_plan(traces, plan_dynamic(traces, cache, seg))
    static = simulate_plan(traces, plan_static(traces, cache, seg))
    assert report.online_miss_ratio == pytest.approx(
        oracle.group_miss_ratio(), abs=0.02
    )
    # and still far better than the static optimum on this workload
    assert report.online_miss_ratio < 0.5 * static.group_miss_ratio()


# ----------------------------------------------------------- drift damper
def test_drift_skip_on_steady_workload():
    traces, epoch = steady_pair()
    config = ControllerConfig(
        cache_blocks=64, epoch_length=epoch, drift_threshold=0.5
    )
    report = replay(traces, config)
    m = report.metrics
    assert m["resolves"] == 1  # only the bootstrap epoch solved
    assert m["drift_skips"] == report.plan.n_epochs - 1
    assert np.all(report.plan.allocations == report.plan.allocations[0])
    # a skipped epoch still emits a decision, marked unresolved
    assert [d.resolved for d in report.decisions] == [True] + [False] * (
        report.plan.n_epochs - 1
    )


def test_drift_zero_threshold_always_resolves():
    traces, epoch = steady_pair()
    report = replay(traces, ControllerConfig(cache_blocks=64, epoch_length=epoch))
    assert report.metrics["resolves"] == report.plan.n_epochs
    assert report.metrics["drift_skips"] == 0


# ------------------------------------------------------ hysteresis damper
def test_hysteresis_freezes_walls():
    traces, seg = phase_opposed_pair()
    config = ControllerConfig(cache_blocks=56, epoch_length=seg, hysteresis=10.0)
    report = replay(traces, config)
    assert np.all(report.plan.allocations == report.plan.allocations[0])
    assert report.metrics["walls_moved"] == 0
    assert report.metrics["blocks_moved"] == 0
    assert report.metrics["hysteresis_holds"] > 0


def test_churn_accounting():
    traces, seg = phase_opposed_pair()
    report = replay(traces, _exact_config(56, seg))
    alloc = report.plan.allocations
    churn = int(np.abs(np.diff(alloc, axis=0)).sum() // 2)
    assert report.metrics["blocks_moved"] == churn
    assert report.metrics["walls_moved"] == int(
        np.any(np.diff(alloc, axis=0) != 0, axis=1).sum()
    )


# ------------------------------------------------------- solver amortization
def test_solver_cache_amortizes_repeating_phases():
    """Phase-opposed epochs repeat two cost profiles: later epochs hit."""
    traces, seg = phase_opposed_pair(loops=8)
    report = replay(traces, _exact_config(56, seg))
    m = report.metrics
    assert m["solver_cache_hits"] >= 4
    assert m["solver_cache_hit_ratio"] > 0.4


# ------------------------------------------------------------- streaming API
@pytest.mark.parametrize("workload", ["phase-opposed", "steady"])
def test_ingest_batch_size_invariance_property(workload):
    """Decisions are identical across batch sizes on both canonical pairs."""
    if workload == "phase-opposed":
        traces, seg = phase_opposed_pair()
    else:
        traces, seg = steady_pair()
    base = replay(traces, _exact_config(56, seg)).plan.allocations
    for bs in (1, 3, seg, 2 * seg + 1):
        other = replay(traces, _exact_config(56, seg), batch_size=bs).plan.allocations
        assert np.array_equal(base, other), f"batch size {bs} changed the plan"


def test_ingest_invariant_under_uneven_per_tenant_batches():
    """The ISSUE 2 guarantee: invariance holds for *unaligned* splits too —
    tenants streaming at different speeds see the same per-epoch plan."""
    traces, seg = phase_opposed_pair()
    base = replay(traces, _exact_config(56, seg)).plan.allocations
    for steps in ((1, seg), (3, 2 * seg + 1), (seg // 2 + 1, 5)):
        got = replay(traces, _exact_config(56, seg), batch_size=steps)
        assert np.array_equal(base, got.plan.allocations), (
            f"per-tenant batch sizes {steps} changed the plan"
        )


def test_uneven_batch_reproducer_exact_epoch_attribution():
    """ISSUE 2 reproducer: tenant 1's second epoch arrives one ingest late.

    The old controller finalized epoch 1 as soon as tenant 0 reached the
    boundary, solving it with a zero curve for tenant 1 and re-surfacing
    tenant 1's accesses as a spurious third epoch.  Now the epoch stays
    open until every live tenant reaches the boundary: exactly 2 epochs,
    every access attributed to its true epoch, plan bit-identical to
    plan_dynamic.
    """
    L = 4
    t0 = np.array([0, 1, 2, 0, 0, 1, 2, 0])
    t1 = np.array([10, 11, 10, 11, 12, 13, 12, 13])
    ctrl = OnlineController(2, _exact_config(6, L))
    done = ctrl.ingest([t0, t1[:L]])  # tenant 0 sends 2 epochs, tenant 1 one
    assert len(done) == 1  # epoch 1 stays open for the laggard
    assert ctrl.metrics.tenant_lag == {"tenant0": 0, "tenant1": 4}
    done += ctrl.ingest([np.empty(0, dtype=np.int64), t1[L:]])
    assert len(done) == 2
    assert ctrl.metrics.late_batches == 1
    done += ctrl.finish()
    assert len(done) == 2  # exactly 2 epochs, no spurious third
    oracle = plan_dynamic([Trace(t0, name="a"), Trace(t1, name="b")], 6, L)
    assert np.array_equal(ctrl.plan().allocations, oracle.allocations)
    # the laggard's epoch-1 accesses were profiled in epoch 1: it is not
    # starved by a zero cost curve
    assert ctrl.plan().allocations[1, 1] > 0


def test_ingest_cross_boundary_batches_finalize_epochs():
    config = _exact_config(16, 50)
    ctrl = OnlineController(2, config)
    tr = [cyclic(130, 8).blocks, cyclic(130, 4).blocks]
    done = ctrl.ingest([tr[0][:120], tr[1][:120]])  # spans 2 full epochs
    assert len(done) == 2 and all(isinstance(d, AllocationDecision) for d in done)
    done += ctrl.ingest([tr[0][120:], tr[1][120:]])
    done += ctrl.finish()  # trailing 30-access partial epoch
    assert len(done) == 3
    assert ctrl.plan().n_epochs == 3


def test_finish_idempotent_and_empty_plan_rejected():
    ctrl = OnlineController(1, _exact_config(8, 10))
    with pytest.raises(ValueError):
        ctrl.plan()
    ctrl.ingest([cyclic(25, 4).blocks])
    assert len(ctrl.finish()) == 1
    assert ctrl.finish() == []
    assert ctrl.plan().n_epochs == 3
    # finish closes the stream: further data is a lifecycle error
    with pytest.raises(ValueError, match="closed"):
        ctrl.ingest([cyclic(5, 4).blocks])
    ctrl.ingest([np.empty(0, dtype=np.int64)])  # empty batches stay legal


# ------------------------------------------------------------ tenant lifecycle
def test_close_unblocks_epochs_gated_on_the_laggard():
    L = 4
    ctrl = OnlineController(2, _exact_config(6, L))
    t0 = np.array([0, 1, 2, 0, 0, 1, 2, 0])
    t1 = np.array([10, 11])
    assert ctrl.ingest([t0, t1]) == []  # tenant 1 mid-epoch: nothing closes
    done = ctrl.close(1)  # its 2 accesses are final: epochs 0 and 1 close
    assert [d.epoch for d in done] == [0, 1]
    assert ctrl.live_tenants == ("tenant0",)
    assert ctrl.closed_tenants == ("tenant1",)
    oracle = plan_dynamic([Trace(t0, name="a"), Trace(t1, name="b")], 6, L)
    assert np.array_equal(ctrl.plan().allocations, oracle.allocations)


def test_close_by_name_and_idempotence():
    ctrl = OnlineController(2, _exact_config(8, 10), names=("web", "batch"))
    ctrl.ingest([np.arange(10), np.empty(0, dtype=np.int64)])
    done = ctrl.close("batch")
    assert [d.epoch for d in done] == [0]
    assert ctrl.close("batch") == []  # no-op, not an error
    assert ctrl.close(1) == []
    with pytest.raises(ValueError, match="unknown tenant"):
        ctrl.close("nope")
    with pytest.raises(ValueError, match="out of range"):
        ctrl.close(5)
    with pytest.raises(ValueError, match="closed"):
        ctrl.ingest([np.empty(0, dtype=np.int64), np.arange(3)])


# ------------------------------------------------------------- backpressure
def test_backpressure_bounds_epoch_alignment_buffers():
    cfg = ControllerConfig(cache_blocks=4, epoch_length=4, max_buffered=6)
    ctrl = OnlineController(2, cfg)
    # tenant 0 runs one epoch ahead: surplus is fed, nothing buffered
    ctrl.ingest([np.arange(8), np.arange(4)])
    assert ctrl.buffered_accesses == 0
    # two more epochs of surplus: 8 accesses past the open epoch boundary
    with pytest.raises(BackpressureError, match="tenant0"):
        ctrl.ingest([np.arange(8), np.empty(0, dtype=np.int64)])
    # the data was accepted, not dropped: feeding the laggard drains it
    assert ctrl.buffered_accesses == 8
    assert ctrl.metrics.snapshot()["buffered_accesses"] == 8
    done = ctrl.ingest([np.empty(0, dtype=np.int64), np.arange(12)])
    assert [d.epoch for d in done] == [1, 2, 3]
    assert ctrl.buffered_accesses == 0


def test_backpressure_disabled_by_default():
    ctrl = OnlineController(2, _exact_config(4, 4))
    ctrl.ingest([np.arange(400), np.empty(0, dtype=np.int64)])  # no limit
    assert ctrl.buffered_accesses == 400 - 4  # current epoch fed, rest waits


# ---------------------------------------------------------------- validation
def test_controller_validation():
    with pytest.raises(ValueError):
        OnlineController(0, _exact_config(8, 10))
    with pytest.raises(ValueError):
        OnlineController(2, _exact_config(8, 10), names=("only-one",))
    with pytest.raises(ValueError):
        ControllerConfig(cache_blocks=0, epoch_length=10)
    with pytest.raises(ValueError):
        ControllerConfig(cache_blocks=8, epoch_length=0)
    with pytest.raises(ValueError):
        ControllerConfig(cache_blocks=8, epoch_length=10, hysteresis=-1)
    with pytest.raises(ValueError):
        ControllerConfig(cache_blocks=8, epoch_length=10, max_buffered=0)
    ctrl = OnlineController(2, _exact_config(8, 10))
    with pytest.raises(ValueError, match="expected 2 batches"):
        ctrl.ingest([np.zeros(3, dtype=np.int64)])


def test_ingest_strict_input_validation():
    ctrl = OnlineController(1, _exact_config(8, 10))
    with pytest.raises(ValueError, match="1-D"):
        ctrl.ingest([np.zeros((2, 2), dtype=np.int64)])
    with pytest.raises(ValueError, match="integer block ids"):
        ctrl.ingest([np.array([1.5, 2.5])])
    with pytest.raises(ValueError, match="negative"):
        ctrl.ingest([np.array([3, -1])])
    # a uint64 id past 2^63 - 1 would wrap negative in the int64 cast;
    # the fault is the range, not the sign
    with pytest.raises(ValueError, match=r"block id 9223372036854775808, beyond the int64 range"):
        ctrl.ingest([np.array([3, 2**63], dtype=np.uint64)])
    ctrl.ingest([np.array([3, 2**63 - 1], dtype=np.uint64)])
    assert ctrl.metrics.accesses_seen == 2
    ctrl = OnlineController(1, _exact_config(8, 10))
    with pytest.raises(ValueError, match="bool"):
        ctrl.ingest([np.array([True, False])])
    # a rejected batch must not have mutated any state
    assert ctrl.metrics.accesses_seen == 0 and ctrl.buffered_accesses == 0


def test_metrics_snapshot_contents():
    traces, seg = phase_opposed_pair()
    report = replay(
        traces,
        ControllerConfig(cache_blocks=56, epoch_length=seg, sampling_rate=0.5),
    )
    m = report.metrics
    assert m["accesses_seen"] == sum(len(t) for t in traces)
    assert 0 < m["samples_seen"] < m["accesses_seen"]
    assert 0.2 < m["effective_sampling_rate"] < 0.8
    assert m["epochs"] == report.plan.n_epochs
    assert m["resolve_latency_total_s"] > 0
    assert m["resolve_latency_mean_s"] > 0


# ---------------------------------------------------------------- serve CLI
def test_serve_cli_phase_opposed(capsys):
    assert main(["serve", "--batch", "50"]) == 0
    out = capsys.readouterr().out
    assert "online" in out and "dynamic oracle" in out
    assert "Per-epoch decisions" in out
    assert "late batches" in out and "max tenant lag" in out


def test_serve_cli_max_buffer_knob(capsys):
    assert main(["serve", "--batch", "50", "--max-buffer", "1000"]) == 0
    out = capsys.readouterr().out
    assert "buffering" in out
    rc = main(["serve", "--max-buffer", "0"])
    assert rc == 2
    assert "max_buffered" in capsys.readouterr().err


def test_serve_cli_steady_with_knobs(capsys):
    rc = main([
        "serve", "--workload", "steady", "--rate", "0.5",
        "--drift", "0.01", "--hysteresis", "0.005", "--quantum", "0.001",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cache hit ratio" in out


def test_optimize_rejects_indivisible_units(capsys):
    rc = main([
        "optimize", "--programs", "lbm,mcf",
        "--cache-blocks", "500", "--unit-blocks", "16",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "divisible" in err


# ------------------------------------------------------------- observability
def test_closed_tenants_pruned_from_tenant_lag():
    """A closed tenant must stop exporting a lag series — and must not
    drag the lag reference front for the survivors."""
    ctrl = OnlineController(2, _exact_config(8, 4), names=("web", "batch"))
    ctrl.ingest([np.arange(8), np.arange(4)])
    assert set(ctrl.metrics.tenant_lag) == {"web", "batch"}
    assert ctrl.metrics.tenant_lag["batch"] == 4
    ctrl.close("batch")
    # dead series gone; live tenant measured against live streams only
    assert set(ctrl.metrics.tenant_lag) == {"web"}
    assert ctrl.metrics.tenant_lag["web"] == 0
    assert ctrl.metrics.max_tenant_lag == 0
    snap = ctrl.metrics.snapshot()
    assert "lag[batch]" not in snap and snap["lag[web]"] == 0
    ctrl.close("web")
    assert ctrl.metrics.tenant_lag == {}


def test_controller_timeseries_records_every_epoch():
    traces, seg = phase_opposed_pair(loops=4)
    report = replay(traces, _exact_config(56, seg))
    ts = report.timeseries
    assert ts["tenants"] == [t.name for t in traces]
    assert len(ts["rows"]) == len(report.decisions) > 0
    for row, d in zip(ts["rows"], report.decisions):
        assert row["epoch"] == d.epoch
        assert row["allocation"] == [float(a) for a in d.allocation]
        assert row["resolved"] == d.resolved and row["moved"] == d.moved
        assert sum(row["allocation"]) == 56
        assert all(0.0 <= m <= 1.0 for m in row["miss_ratio"])
        assert row["resolve_s"] >= 0.0
    # resolve_s is the actual solve latency on resolved epochs, 0 on skips
    resolved_rows = [r for r in ts["rows"] if r["resolved"]]
    assert sum(r["resolve_s"] for r in resolved_rows) == pytest.approx(
        report.metrics["resolve_latency_total_s"]
    )


def test_controller_tracer_spans_cover_epochs_and_resolves():
    from repro.obs import Tracer

    tracer = Tracer()
    traces, seg = phase_opposed_pair(loops=4)
    replay(traces, _exact_config(56, seg), tracer=tracer)
    epochs = [s for s in tracer.spans() if s.name == "controller.epoch"]
    resolves = [s for s in tracer.spans() if s.name == "controller.resolve"]
    assert [s.attrs["epoch"] for s in epochs] == list(range(len(epochs)))
    epoch_ids = {s.span_id for s in epochs}
    assert resolves and all(s.parent_id in epoch_ids for s in resolves)
    # wall-move events mirror the walls_moved counter: the initial
    # allocation is "moved" but not a wall move, so epoch 0 carries none
    moved = [s for s in epochs if s.attrs.get("moved") and s.attrs["epoch"] > 0]
    assert moved and all(
        any(ev["name"] == "walls_moved" for ev in s.events) for s in moved
    )
    assert not any(ev["name"] == "walls_moved" for ev in epochs[0].events)


# ---------------------------------------------------------- warm start
def test_warm_start_equivalent_to_cold_on_phase_opposed():
    """warm_start changes resolve *work*, never resolve *results*."""
    traces, seg = phase_opposed_pair()
    warm = replay(traces, _exact_config(56, seg, warm_start=True), batch_size=97)
    cold = replay(traces, _exact_config(56, seg, warm_start=False), batch_size=97)
    assert np.array_equal(warm.plan.allocations, cold.plan.allocations)
    assert cold.metrics["warm_resolves"] == 0


def _drifting_trio(epochs: int = 4, seg: int = 240):
    """Two steady tenants plus one whose phase shifts every epoch.

    Each epoch is a *new* DP instance (the drifter's curve moved), so
    the memo misses — but the steady tenants' curves fingerprint
    identically, which is exactly the prefix a warm re-solve reuses.
    """
    rng = np.random.default_rng(5)
    steady_a = np.tile(rng.integers(0, 12, seg), epochs)
    steady_b = np.tile(rng.integers(100, 108, seg), epochs)
    drift = np.concatenate(
        [rng.integers(200 + 40 * e, 230 + 40 * e, seg) for e in range(epochs)]
    )
    return [
        Trace(steady_a.astype(np.int64), name="steady_a"),
        Trace(steady_b.astype(np.int64), name="steady_b"),
        Trace(drift.astype(np.int64), name="drifter"),
    ]


def test_warm_start_fires_when_only_a_suffix_tenant_drifts():
    traces = _drifting_trio()
    seg = 240
    warm = replay(traces, _exact_config(24, seg, warm_start=True))
    cold = replay(traces, _exact_config(24, seg, warm_start=False))
    assert np.array_equal(warm.plan.allocations, cold.plan.allocations)
    assert cold.metrics["warm_resolves"] == 0
    # epoch 1 is cold (no prior solve), epoch 2 warms but has no state
    # yet (the cold path keeps none) — epochs 3..N miss the memo (the
    # drifter moved) and resume the fold past both steady tenants
    assert warm.metrics["warm_resolves"] == warm.metrics["epochs"] - 2
    assert warm.metrics["warm_resolves"] > 0


def test_warm_start_first_epoch_is_always_cold():
    """No prior drift verdict yet => the first solve must not warm-start."""
    traces, seg = steady_pair()
    ctrl = OnlineController(2, _exact_config(56, seg, warm_start=True))
    ctrl.ingest([t.blocks[:seg] for t in traces])
    assert ctrl.metrics.resolves == 1
    assert ctrl.metrics.warm_resolves == 0
