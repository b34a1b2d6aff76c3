"""The repository's benchmark: one workload per run, one JSON line at the end.

    python3 perfbench/run.py --workload {sweep,serve,replay,lint} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no span probes: the
set-up is repeated (median reported), then identical passes run until
``--seconds`` have elapsed (at least :data:`MIN_PASSES`), and each unit of
work is taken at its fastest host-normalized repeat (see
``perfbench/hostclock.py`` and ``stats.best_of_passes``).  The host's
slowdown is printed beside the metrics, and a run on a host slowed past
``hostclock.HOST_SLACK`` warns that its times are not comparable.
``--trace 1`` runs one untraced set-up + pass, then the same traced, and
reports the per-layer table.  Every pass's
outputs are checked either way; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Spans, the layer
table and host facts are written under ``perfbench/out/``.

Run from the repository root; the program is imported from ``src/``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: an untraced run sets up at least this many times and for at least
#: this long; ``setup_s`` is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: measured passes per untraced run at the least, however short ``--seconds``
MIN_PASSES = 2


def _die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def calibrate() -> float:
    """Seconds for a fixed NumPy loop: tells one host's baseline from another's."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random((192, 192))
    x = rng.random(200_000)
    t = time.perf_counter()
    for _ in range(20):
        a = (a @ a) / 192.0
        np.sort(x)
        np.minimum.accumulate(x)
    return time.perf_counter() - t


def host_facts(workload) -> dict:
    import numpy as np

    from repro.core.kernels import active_kernel

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "processes": 1,
        "threads": threading.active_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernel": active_kernel(),
        "grid": workload.grid,
        "calibration_s": calibrate(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Checks and operations attempted vs. failed, over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, workload, state, result) -> None:
        self.attempted += result.ops
        for name, ok in workload.check(state, result):
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(
    workload, seed: int, seconds: float, work: Path, tally: Tally, facts: dict
) -> dict:
    from perfbench.hostclock import HOST_SLACK, HostClock
    from perfbench.probes import install_timers
    from perfbench.stats import MIN_BEYOND, best_of_passes, percentile, tail_level

    clock = HostClock()
    raw_setups: list[float] = []
    setups: list[float] = []
    state = None
    while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_SECONDS:
        state = None  # one set of inputs alive at a time, for peak_rss_mb
        clock.probe()
        t = time.perf_counter()
        state = workload.setup(seed, work)
        t1 = time.perf_counter()
        clock.probe()
        raw_setups.append(t1 - t)
        setups.append(clock.normalize(t, t1))

    passes = []
    walls = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        result = None
        calls: list = []
        undo = install_timers(workload.TIMED, calls, clock)
        clock.probe()
        spent = clock.spent
        t = time.perf_counter()
        try:
            result = workload.run(state)
        finally:
            wall = time.perf_counter() - t
            undo()
        clock.probe()
        # untimed remainder: the pass minus its timed calls and probes
        rest = wall - sum(t1 - t0 for _, t0, t1, _f in calls) - (clock.spent - spent)
        units = [(target, clock.normalize(t0, t1), flag) for target, t0, t1, flag in calls]
        rest_norm = rest * clock.scale(t, t + wall)
        passes.append((rest_norm + sum(dt for _, dt, _f in units), units))
        walls.append(wall)
        tally.record(workload, state, result)

    quiet_s, units = best_of_passes(passes)
    latencies = [
        dt for (target, _k), (dt, flag) in units.items()
        if target == workload.LATENCY and (flag or not workload.LATENCY_IF_RESULT)
    ]
    tail = tail_level(len(latencies))
    print(
        f"{workload.name}: {len(passes)} passes of {result.items:,} {workload.item}; "
        f"raw walls {', '.join(f'{w:.3f}' for w in walls)} s; host-normalized "
        f"fastest-unit sum {quiet_s:.3f} s = {result.items / quiet_s:,.1f} "
        f"{workload.item}_per_s"
    )
    print(
        f"{workload.name}: setup_s is the median of {len(setups)} set-ups "
        f"(raw median {statistics.median(raw_setups):.4f} s)"
    )
    print(
        f"{workload.name}: latency over {len(latencies)} samples, each "
        f"{workload.latency_of}; tail = p{tail * 100:.2f}"
    )
    facts["reference_slowdown"] = clock.slowdown()
    facts["host_slowed"] = clock.slowed()
    facts["raw_pass_walls_s"] = walls
    facts["raw_setup_median_s"] = statistics.median(raw_setups)
    print(
        f"{workload.name}: host reference loop at {clock.slowdown():.3f}x REF_S "
        f"(median of {len(clock.refs)} probes); flag at {1 + HOST_SLACK:.2f}x"
    )
    if clock.slowed():
        print(
            f"warning: the host ran more than {HOST_SLACK:.0%} slow during this run, so "
            "host-normalized times may over-correct NumPy-bound work by more than "
            "that; they are not comparable with a quiet host's",
            file=sys.stderr,
        )
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "items_per_s": _metric(result.items / quiet_s, "1/s"),
        "latency_ms_p50": _metric(percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_ms_tail": _metric(
            percentile(latencies, tail, min_beyond=MIN_BEYOND) * 1e3, "ms"
        ),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def run_traced(workload, seed: int, work: Path, tally: Tally, run_id: str) -> dict:
    from perfbench.layers import layer_metrics, layer_table
    from perfbench.probes import SpanRecorder, install_spans

    t = time.perf_counter()
    state = workload.setup(seed, work)
    result = workload.run(state)
    untraced_wall = time.perf_counter() - t
    tally.record(workload, state, result)
    state = result = None

    rec = SpanRecorder(run_id)
    undo = install_spans(rec)
    t0 = time.perf_counter()
    try:
        state = workload.setup(seed, work)
        result = workload.run(state)
    finally:
        traced_wall = time.perf_counter() - t0
        undo()
    tally.record(workload, state, result)

    metrics = layer_metrics(rec, traced_wall, untraced_wall)
    stem = OUT / f"{workload.name}-seed{seed}"
    rec.write_jsonl(f"{stem}-spans.jsonl", t0)
    table = layer_table(metrics, traced_wall)
    Path(f"{stem}-layers.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    print(f"wrote {len(rec.spans):,} spans to {stem}-spans.jsonl")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _die(f"no program source under {ROOT / 'src'}; run from a full checkout")
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        _die("--seconds must be > 0")
    workload = WORKLOADS[args.workload]()
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)

    facts = host_facts(workload)
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    tally = Tally()
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    try:
        if args.trace:
            metrics = run_traced(workload, args.seed, work, tally, run_id)
        else:
            metrics = run_untraced(workload, args.seed, args.seconds, work, tally, facts)
    except Exception:  # a crashed pass is a failed run, not a result
        traceback.print_exc()
        return 1

    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    for name in tally.failures:
        print(f"  CHECK FAILED: {name}")
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"run": run_id, "host": facts, "metrics": metrics,
                    "failures": tally.failures}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
