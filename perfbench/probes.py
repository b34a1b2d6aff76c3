"""Probes the benchmark puts around the program's public entry points.

Two kinds, both installed from this directory only (the program is not
edited) and both removed again when the measured pass ends:

* :class:`SpanRecorder` + :func:`install_spans` — the traced run.  Every
  call into a probed function records one span ``(name, parent, start,
  end)``; spans are kept in memory and written out when the run ends.
  Counts are taken at the same boundaries (kernel cells, stack-distance
  accesses, FoldCache instances to read ``stats()`` from).
* :func:`install_timers` — the untraced run's only probe: one
  ``perf_counter`` pair around each call of a few non-nesting entry
  points, so a pass splits into units of work that repeat identically
  from pass to pass, with host reference probes between them (see
  :mod:`perfbench.hostclock` and ``perfbench/README.md``, "Host noise").

Functions imported by name elsewhere (``from repro.core.kernels import
convolve``) are replaced in every loaded ``repro`` module that holds the
same object, so a probe sees every caller.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

from perfbench.hostclock import HostClock

#: (layer, span name, target).  A target is ``module:function`` or
#: ``module:Class.method``.  Span self times are summed by layer.
PROBES: tuple[tuple[str, str, str], ...] = (
    ("workloads.gen", "make_suite", "repro.workloads.spec:make_suite"),
    *(
        ("workloads.gen", fn, f"repro.workloads.generators:{fn}")
        for fn in (
            "cyclic", "sawtooth", "uniform_random", "zipf", "hot_cold",
            "gaussian_walk", "phased", "pointer_chase", "with_bursts", "mix",
        )
    ),
    ("locality.profile", "average_footprint", "repro.locality.footprint:average_footprint"),
    ("locality.profile", "mrc_from_footprint", "repro.locality.mrc:MissRatioCurve.from_footprint"),
    ("locality.profile", "mrc_resample", "repro.locality.mrc:MissRatioCurve.resample"),
    ("experiments.study", "run_study", "repro.experiments.methodology:run_study"),
    ("engine.solver", "evaluate", "repro.engine.solver:GroupSolver.evaluate"),
    ("composition.corun", "corun_build", "repro.composition.corun:CorunSolver.__init__"),
    ("composition.corun", "corun_predict", "repro.composition.corun:CorunSolver.predict"),
    ("composition.corun", "corun_occupancies", "repro.composition.corun:CorunSolver.occupancies"),
    ("composition.corun", "predict_corun", "repro.composition.corun:predict_corun"),
    ("core.sttw", "sttw_partition", "repro.core.sttw:sttw_partition"),
    *(
        ("core.baselines", fn, f"repro.core.baselines:{fn}")
        for fn in (
            "equal_allocation", "baseline_partition",
            "equal_baseline_partition", "natural_baseline_partition",
        )
    ),
    ("engine.foldcache", "foldcache_convolve", "repro.engine.foldcache:FoldCache.convolve"),
    ("engine.foldcache", "foldcache_solve", "repro.engine.foldcache:FoldCache.solve"),
    ("core.dp", "optimal_partition", "repro.core.dp:optimal_partition"),
    ("core.dp", "fold_curves", "repro.core.minplus:fold_curves"),
    ("core.dp", "fold_curves_stages", "repro.core.minplus:fold_curves_stages"),
    ("core.kernels", "kernel_convolve", "repro.core.kernels:convolve"),
    ("core.kernels", "kernel_minplus_convolve", "repro.core.kernels:minplus_convolve"),
    ("online.profiler", "profiler_observe", "repro.online.profiler:StreamingProfiler.observe"),
    ("online.profiler", "profiler_mrc", "repro.online.profiler:StreamingProfiler.mrc"),
    ("online.controller", "controller_ingest", "repro.online.controller:OnlineController.ingest"),
    ("online.controller", "controller_close", "repro.online.controller:OnlineController.close"),
    ("online.controller", "controller_finish", "repro.online.controller:OnlineController.finish"),
    ("online.controller", "controller_plan", "repro.online.controller:OnlineController.plan"),
    ("online.replay", "replay", "repro.online.replay:replay"),
    ("obs.flight", "flight_emit", "repro.obs.flight:FlightRecorder.emit"),
    ("cachesim.stack", "stack_distances", "repro.cachesim.stack:stack_distances"),
    ("core.dynamic", "plan_static", "repro.core.dynamic:plan_static"),
    ("core.dynamic", "plan_dynamic", "repro.core.dynamic:plan_dynamic"),
    ("core.dynamic", "simulate_plan", "repro.core.dynamic:simulate_plan"),
    ("analysis", "lint_project", "repro.analysis.engine:lint_project"),
    ("analysis", "module_info", "repro.analysis.graph:module_info"),
    ("analysis", "project_graph", "repro.analysis.graph:ProjectGraph.__init__"),
    ("analysis", "lint_source", "repro.analysis.engine:lint_source"),
)

#: span name -> layer
LAYER_OF: dict[str, str] = {name: layer for layer, name, _ in PROBES}
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in PROBES))


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``module:attr`` / ``module:Class.attr`` -> (owner, attr, raw value)."""
    mod_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(mod_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def patch(target: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``target`` by ``make(original)``; returns the undo function.

    A module-level function is swapped in every loaded ``repro`` module
    that bound the same object; a method is swapped on its class (keeping
    ``classmethod``/``staticmethod`` wrappers intact).
    """
    owner, attr, raw = _resolve(target)
    if isinstance(owner, type):
        if isinstance(raw, (classmethod, staticmethod)):
            new: Any = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        return lambda: setattr(owner, attr, raw)
    wrapped = make(raw)
    holders = [
        mod
        for name, mod in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and mod is not None
        and getattr(mod, attr, None) is raw
    ]
    for mod in holders:
        setattr(mod, attr, wrapped)

    def undo() -> None:
        for mod in holders:
            setattr(mod, attr, raw)

    return undo


class SpanRecorder:
    """In-memory span journal of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, parent, start, end]`` per span, in start order
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.stack_traces: set[str] = set()
        self.fold_caches: list[Any] = []
        self.controllers: list[Any] = []
        self.lint_runs: list[Any] = []
        #: foldcache_solve span index -> id() of the FoldCache that ran it
        self.solve_owner: dict[int, int] = {}

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def write_jsonl(self, path: str, t0: float) -> None:
        """One JSON object per span; times in seconds since ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": i,
                            "parent": parent,
                            "name": name,
                            "layer": LAYER_OF[name],
                            "start": round(start - t0, 9),
                            "end": round(end - t0, 9),
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    # -------------------------------------------------- boundary counts
    def _count_kernel(self, _idx: int, args: tuple, _result: Any) -> None:
        a, b = args[0], args[1]
        self.counts["core.kernels.cells"] += int(a.size) * int(b.size)
        self.counts["core.kernels.grid"] = max(self.counts["core.kernels.grid"], int(a.size))

    def _count_stack(self, _idx: int, args: tuple, result: Any) -> None:
        blocks = np.ascontiguousarray(getattr(args[0], "blocks", args[0]))
        self.counts["cachesim.stack.accesses"] += int(result.size)
        self.stack_traces.add(hashlib.blake2b(blocks.tobytes()).hexdigest())

    def _count_observe(self, _idx: int, args: tuple, result: Any) -> None:
        batch = args[1]
        self.counts["online.profiler.accesses"] += int(getattr(batch, "blocks", batch).size)
        self.counts["online.profiler.samples"] += int(result)

    def _note_solve(self, idx: int, args: tuple, _result: Any) -> None:
        self.solve_owner[idx] = id(args[0])

    def _keep_lint_run(self, _idx: int, _args: tuple, result: Any) -> None:
        self.lint_runs.append(result)


def install_spans(rec: SpanRecorder) -> Callable[[], None]:
    """Put a span probe on every :data:`PROBES` target; returns the undo."""
    after: dict[str, Callable] = {
        "kernel_convolve": rec._count_kernel,
        "kernel_minplus_convolve": rec._count_kernel,
        "stack_distances": rec._count_stack,
        "profiler_observe": rec._count_observe,
        "foldcache_solve": rec._note_solve,
        "lint_project": rec._keep_lint_run,
    }
    undos = [
        patch(target, lambda fn, name=name: rec.wrap(name, fn, after.get(name)))
        for _layer, name, target in PROBES
    ]
    # instances are collected at construction so their stats() can be read
    # when the pass ends (a constructor is not a span: it does no work)
    for target, sink in (
        ("repro.engine.foldcache:FoldCache.__init__", rec.fold_caches),
        ("repro.online.controller:OnlineController.__init__", rec.controllers),
    ):
        undos.append(patch(target, lambda fn, sink=sink: _collect(fn, sink)))

    def undo() -> None:
        for u in reversed(undos):
            u()

    return undo


def _collect(init: Callable, sink: list) -> Callable:
    @functools.wraps(init)
    def collected(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        sink.append(self)

    return collected


def install_timers(
    targets: tuple[str, ...], sink: list[tuple[str, float, float, bool]], clock: HostClock
) -> Callable[[], None]:
    """Append ``(target, start, end, returned)`` to ``sink`` for each call.

    ``returned`` is True when the call returned a non-empty list (an
    ``ingest`` that finalized epochs).  After each call ``clock`` may run
    a reference probe, outside the timed interval.  The targets must not
    call one another, so the timed calls never nest.
    """

    def make(target: str) -> Callable[[Callable], Callable]:
        def wrap(fn: Callable) -> Callable:
            now = time.perf_counter

            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                t = now()
                result = fn(*args, **kwargs)
                sink.append((target, t, now(), isinstance(result, list) and bool(result)))
                clock.maybe_probe()
                return result

            return timed

        return wrap

    undos = [patch(target, make(target)) for target in targets]

    def undo() -> None:
        for u in reversed(undos):
            u()

    return undo
