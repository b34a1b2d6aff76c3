"""Replay a workload through the online controller and score it.

The end-to-end harness behind ``repro-cps serve``: streams co-run traces
into an :class:`~repro.online.controller.OnlineController` in lockstep
batches, turns its decisions into an :class:`~repro.core.dynamic.EpochPlan`,
and evaluates that plan with the exact simulator next to two offline
references — the static whole-trace optimum (what the paper's §VII
pipeline would pick once) and the dynamic oracle
(:func:`~repro.core.dynamic.plan_dynamic`, full-trace per-epoch re-solves).

Also ships the two canonical serving workloads: a steady pair (nothing to
exploit — online should match static) and the scaled Figure-1
phase-opposed pair (everything to exploit — online should approach the
dynamic oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.dynamic import PlanResult, EpochPlan, plan_dynamic, plan_static, simulate_plans
from repro.core.policy import ObjectivePolicy
from repro.online.controller import AllocationDecision, ControllerConfig, OnlineController
from repro.workloads.generators import cyclic, phased, uniform_random, zipf
from repro.workloads.trace import Trace

__all__ = [
    "ReplayReport",
    "replay",
    "stream",
    "phase_opposed_pair",
    "steady_pair",
]


def phase_opposed_pair(
    *,
    loops: int = 6,
    big: int = 48,
    small: int = 4,
    segment: int = 240,
    pattern: str = "cyclic",
) -> tuple[list[Trace], int]:
    """Figure 1 at streaming scale: two tenants alternating working sets.

    Tenant ``a`` works over a ``big``-block set while ``b`` works over a
    ``small`` one, swapping every ``segment`` accesses — the synchronized
    phase-opposed pattern that static partitioning cannot serve.  Returns
    the traces and the natural epoch length (one phase segment).

    ``pattern`` picks the per-phase access behaviour: ``"cyclic"`` is the
    paper's loop archetype (a cliff MRC — maximally punishing, one block
    short of the working set means missing every access), ``"zipf"`` a
    hot-data knee (the smooth curves of production key-value tenants,
    where allocation noise degrades gracefully).
    """
    if pattern not in ("cyclic", "zipf"):
        raise ValueError("pattern must be 'cyclic' or 'zipf'")

    def _phase(m: int, seed: int) -> Trace:
        if pattern == "cyclic":
            return cyclic(segment, m)
        return zipf(segment, m, seed=seed)

    a_parts, b_parts = [], []
    for i in range(loops):
        big_first = i % 2 == 0
        a_parts.append(_phase(big if big_first else small, seed=2 * i))
        b_parts.append(_phase(small if big_first else big, seed=2 * i + 1))
    a = phased(a_parts, repeats=1, name="a")
    b = phased(b_parts, repeats=1, name="b")
    return [a, b], segment


def steady_pair(
    *, n: int = 1440, m_a: int = 60, m_b: int = 40, seed: int = 3
) -> tuple[list[Trace], int]:
    """Two stationary tenants (uniform random): no phases to exploit."""
    a = uniform_random(n, m_a, seed=seed, name="steady-a")
    b = uniform_random(n, m_b, seed=seed + 1, name="steady-b")
    return [a, b], max(n // 6, 1)


@dataclass(frozen=True)
class ReplayReport:
    """Online run vs. its offline references, plus service metrics.

    ``timeseries`` is the controller's epoch ring exported as a JSON-able
    dict (see :meth:`repro.obs.timeseries.EpochTimeSeries.to_dict`): one
    row per epoch with per-tenant allocation/miss-ratio/lag and the
    epoch's resolve latency — the history behind the ``metrics``
    snapshot's point-in-time counters.
    """

    plan: EpochPlan
    decisions: tuple[AllocationDecision, ...]
    online: PlanResult
    static: PlanResult
    oracle: PlanResult
    metrics: dict[str, float | int]
    timeseries: dict = field(default_factory=dict)
    alerts: dict | None = None

    @property
    def online_miss_ratio(self) -> float:
        return self.online.group_miss_ratio()

    @property
    def static_miss_ratio(self) -> float:
        return self.static.group_miss_ratio()

    @property
    def oracle_miss_ratio(self) -> float:
        return self.oracle.group_miss_ratio()

    def summary(self) -> str:
        m = self.metrics
        lines = [
            f"epochs {self.plan.n_epochs}, tenants {self.plan.n_programs}, "
            f"epoch length {self.plan.epoch_length}",
            f"  group miss ratio  online {self.online_miss_ratio:.4f}  "
            f"static {self.static_miss_ratio:.4f}  "
            f"dynamic oracle {self.oracle_miss_ratio:.4f}",
            f"  sampling          {m['samples_seen']:,}/{m['accesses_seen']:,} accesses "
            f"({m['effective_sampling_rate']:.1%} effective)",
            f"  buffering         {m['buffered_accesses']} buffered, "
            f"{m['late_batches']} late batches, "
            f"max tenant lag {m['max_tenant_lag']} accesses",
            f"  solver            {m['resolves']} re-solves, {m['drift_skips']} drift skips, "
            f"cache hit ratio {m['solver_cache_hit_ratio']:.1%}",
            f"  re-solve latency  mean {m['resolve_latency_mean_s'] * 1e3:.2f} ms "
            f"(last {m['resolve_latency_last_s'] * 1e3:.2f} ms)",
            f"  churn             {m['walls_moved']} wall moves, "
            f"{m['blocks_moved']} blocks moved, {m['hysteresis_holds']} hysteresis holds",
        ]
        violations = m.get("slo_violations", 0)
        infeasible = m.get("slo_infeasible_epochs", 0)
        if violations or infeasible:
            lines.append(
                f"  slo               {violations} cap violations, "
                f"{infeasible} infeasible epochs"
            )
        return "\n".join(lines)


def stream(
    traces: list[Trace],
    controller: OnlineController,
    *,
    batch_size: int | Sequence[int] | None = None,
) -> Iterator[AllocationDecision]:
    """Drive ``controller`` with ``traces``, yielding decisions as epochs close.

    The streaming loop shared by :func:`replay` and ``repro-cps top``:
    batches are sent per tenant at the requested granularity, each trace
    is closed as soon as its last access has been sent (so shorter
    tenants stop gating epoch finalization), and a trailing partial
    epoch is flushed at the end.  Decisions are yielded in epoch order
    the moment the controller finalizes them — a live consumer (the
    ``top`` dashboard) sees each epoch as it happens.
    """
    if batch_size is None:
        steps = [controller.config.epoch_length] * len(traces)
    elif isinstance(batch_size, int):
        steps = [batch_size] * len(traces)
    else:
        steps = [int(s) for s in batch_size]
        if len(steps) != len(traces):
            raise ValueError("need one batch size per trace")
    if any(s < 1 for s in steps):
        raise ValueError("batch_size must be >= 1")
    sent = [0] * len(traces)
    empty = np.empty(0, dtype=np.int64)
    while any(s < len(t) for s, t in zip(sent, traces)):
        batches = []
        for i, t in enumerate(traces):
            if sent[i] < len(t):
                batches.append(t.blocks[sent[i] : sent[i] + steps[i]])
            else:
                batches.append(empty)
        yield from controller.ingest(batches)
        for i, t in enumerate(traces):
            if sent[i] < len(t):
                sent[i] = min(sent[i] + steps[i], len(t))
                if sent[i] >= len(t):
                    yield from controller.close(i)
    yield from controller.finish()


def replay(
    traces: list[Trace],
    config: ControllerConfig,
    *,
    batch_size: int | Sequence[int] | None = None,
    registry=None,
    tracer=None,
    policy: ObjectivePolicy | None = None,
    flight=None,
    alerts=None,
) -> ReplayReport:
    """Stream ``traces`` through a fresh controller and evaluate the result.

    ``batch_size`` is the ingestion granularity — one int for every
    tenant, or one per tenant to stream them at different speeds
    (defaults to one epoch each).  The controller's per-tenant buffering
    makes its output invariant to the batching, aligned or not; batching
    exists to exercise the streaming path, not to change results.

    ``registry`` (a :class:`~repro.obs.prom.Registry`) gets the
    controller's metrics registered before the stream starts, so a
    scraper watching ``/metrics`` sees the run live; ``tracer`` records
    the controller's epoch/resolve spans.  ``policy`` carries per-tenant
    weights/SLO caps/baseline constraints into the controller's epoch
    objective (default: the plain group miss-count objective).

    ``flight`` (a :class:`~repro.obs.flight.FlightRecorder`) journals
    every decision's provenance — the input of ``repro-cps explain`` —
    closing with one ``replay_summary`` event carrying the *realized*
    group miss ratios next to the plan's predictions; ``alerts`` (a
    :class:`~repro.obs.alerts.BurnRateAlerts`) is fed each epoch's SLO
    violation flags and its final per-tenant state lands in
    :attr:`ReplayReport.alerts`.
    """
    controller = OnlineController(
        len(traces),
        config,
        names=tuple(t.name for t in traces),
        tracer=tracer,
        policy=policy,
        flight=flight,
        alerts=alerts,
    )
    if registry is not None:
        controller.register_metrics(registry)
    for _ in stream(traces, controller, batch_size=batch_size):
        pass

    plan = controller.plan()
    cb, L = config.cache_blocks, config.epoch_length
    online, static, oracle = simulate_plans(
        traces, (plan, plan_static(traces, cb, L), plan_dynamic(traces, cb, L))
    )
    controller.flight.set_epoch(None)
    controller.flight.emit(
        "replay_summary",
        online_miss_ratio=float(online.group_miss_ratio()),
        static_miss_ratio=float(static.group_miss_ratio()),
        oracle_miss_ratio=float(oracle.group_miss_ratio()),
        epochs=plan.n_epochs,
    )
    return ReplayReport(
        plan=plan,
        decisions=controller.decisions,
        online=online,
        static=static,
        oracle=oracle,
        metrics=controller.metrics.snapshot(),
        timeseries=controller.timeseries.to_dict(),
        alerts=None if alerts is None else alerts.states(),
    )
