"""Per-layer metrics of a traced pass: self times plus boundary counts."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from perfbench.probes import LAYER_OF, LAYERS, SpanRecorder
from perfbench.stats import entry_calls, layer_self_times, other_time

#: (metric, unit) in report order, as ``BENCHMARK.json`` lists them; every
#: traced run reports all of them, 0 where the workload bypasses the layer
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    (m["name"], m["unit"])
    for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )["per_layer"]
)


def _inclusive(spans, *names: str, when=None) -> float:
    """Summed duration of the outermost spans called ``names``."""
    total = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        if name in names and (when is None or when(i)):
            # a span nested in another of the same set is already counted
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][1]
            if p < 0:
                total += end - start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, traced_wall: float, untraced_wall: float) -> dict:
    spans = rec.spans
    self_s = layer_self_times(spans, LAYER_OF)
    calls = entry_calls(spans, LAYER_OF)
    names = Counter(name for name, *_ in spans)
    c = rec.counts
    v: dict[str, float] = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    for layer in ("composition.corun", "core.sttw", "core.baselines", "cachesim.stack"):
        v[f"{layer}.calls"] = calls.get(layer, 0)

    caches = rec.fold_caches
    hits = sum(fc.hits for fc in caches)
    lookups = sum(fc.lookups for fc in caches)
    v["engine.foldcache.lookups"] = lookups
    v["engine.foldcache.hit_ratio"] = _ratio(hits, lookups)
    v["engine.foldcache.evictions"] = sum(fc.evictions for fc in caches)

    v["core.kernels.calls"] = names["kernel_convolve"] + names["kernel_minplus_convolve"]
    v["core.kernels.cells"] = c["core.kernels.cells"]
    v["core.kernels.cells_per_s"] = _ratio(c["core.kernels.cells"], v["core.kernels.self_s"])
    v["core.kernels.grid"] = c["core.kernels.grid"]

    v["online.profiler.accesses"] = c["online.profiler.accesses"]
    v["online.profiler.samples"] = c["online.profiler.samples"]
    v["online.profiler.observe_s"] = _inclusive(spans, "profiler_observe")
    v["online.profiler.mrc_s"] = _inclusive(spans, "profiler_mrc")

    snaps = [ctl.metrics.snapshot() for ctl in rec.controllers]
    for key in ("epochs", "resolves", "warm_resolves", "drift_skips"):
        v[f"online.controller.{key}"] = sum(s[key] for s in snaps)
    sc_hits = sum(s["solver_cache_hits"] for s in snaps)
    sc_lookups = sc_hits + sum(s["solver_cache_misses"] for s in snaps)
    v["online.solver_cache.hit_ratio"] = _ratio(sc_hits, sc_lookups)
    solver_caches = {id(ctl.solver_cache) for ctl in rec.controllers}
    solve_owner = rec.solve_owner
    v["online.solver_cache.solve_s"] = _inclusive(
        spans, "foldcache_solve", when=lambda i: solve_owner.get(i) in solver_caches
    )

    v["obs.flight.events"] = names["flight_emit"]
    v["cachesim.stack.accesses"] = c["cachesim.stack.accesses"]
    v["cachesim.stack.accesses_per_s"] = _ratio(
        c["cachesim.stack.accesses"], v["cachesim.stack.self_s"]
    )
    v["cachesim.stack.reuse_ratio"] = _ratio(
        len(rec.stack_traces), v["cachesim.stack.calls"]
    )
    v["core.dynamic.plan_static_s"] = _inclusive(spans, "plan_static")
    v["core.dynamic.plan_dynamic_s"] = _inclusive(spans, "plan_dynamic")

    v["analysis.graph_s"] = _inclusive(spans, "module_info", "project_graph")
    v["analysis.rules_s"] = _inclusive(spans, "lint_source")
    v["analysis.files"] = sum(r.files for r in rec.lint_runs)
    v["analysis.findings"] = sum(len(r.findings) for r in rec.lint_runs)

    v["other.self_s"] = other_time(traced_wall, self_s)
    v["trace.wall_s"] = traced_wall
    v["trace.overhead_s"] = traced_wall - untraced_wall
    v["trace.spans"] = len(spans)
    return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER}


def layer_table(metrics: dict, wall: float) -> str:
    """Self time by layer, largest first, with its share of the traced wall."""
    rows = sorted(
        ((name[: -len(".self_s")], m["value"]) for name, m in metrics.items()
         if name.endswith(".self_s")),
        key=lambda r: -r[1],
    )
    lines = [f"{'layer':24s} {'self_s':>10s} {'share':>7s}"]
    lines += [f"{layer:24s} {t:10.4f} {t / wall:7.1%}" for layer, t in rows if t]
    lines.append(f"{'(traced wall)':24s} {wall:10.4f}")
    bypassed = [layer for layer, t in rows if not t]
    if bypassed:
        lines.append("bypassed: " + ", ".join(bypassed))
    return "\n".join(lines)
