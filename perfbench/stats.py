"""Statistics helpers of the benchmark: percentiles, span self time, ``other``.

Everything here is pure and small so that ``perfbench/tests`` can pin it
down exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

#: The reported tail percentile, and how many samples it must leave beyond it.
TAIL_Q = 0.95
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float, *, min_beyond: int = 0) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``.

    The selected sample is the ``ceil(q·n)``-th smallest.  With
    ``min_beyond`` set, at least that many samples must rank above the
    selected one, else ``ValueError``: a tail percentile resting on fewer
    samples is noise, not a measurement.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(math.ceil(q * n - 1e-9), 1)
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return sorted(samples)[rank - 1]


def tail_level(n: int) -> float:
    """``TAIL_Q``, lowered to the highest level that keeps ``MIN_BEYOND`` samples above it."""
    if n <= MIN_BEYOND:
        raise ValueError(f"need more than {MIN_BEYOND} samples, got {n}")
    return min(TAIL_Q, (n - MIN_BEYOND) / n)


def _covered(parent: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``children`` intervals clipped to ``parent``."""
    lo, hi = parent
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in children if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple[str, int, float, float]]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans[i] = (name, parent, start, end)`` with ``parent`` the index of
    the enclosing span or ``-1``.  Children that overlap each other (or
    stick out of the parent) are counted once and only inside the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, _parent, start, end) in enumerate(spans):
        out.append((end - start) - _covered((start, end), children.get(i, ())))
    return out


def layer_self_times(
    spans: Sequence[tuple[str, int, float, float]], layer_of: dict[str, str]
) -> dict[str, float]:
    """Sum span self times by layer (``layer_of`` maps span name → layer)."""
    totals: dict[str, float] = defaultdict(float)
    for (name, *_rest), t in zip(spans, self_times(spans)):
        totals[layer_of[name]] += t
    return dict(totals)


def other_time(wall_s: float, layer_self: dict[str, float]) -> float:
    """Wall time that no span's self time accounts for.

    Because self times partition the covered time, ``wall - Σ self`` is
    exactly the time spent outside every span: the benchmark's own code
    and whatever the probes do not reach.
    """
    return wall_s - sum(layer_self.values())


def entry_calls(
    spans: Sequence[tuple[str, int, float, float]], layer_of: dict[str, str]
) -> dict[str, int]:
    """Calls *into* each layer: spans whose parent lies in another layer.

    A layer function calling another of the same layer is one entry, not
    two, so ``calls`` counts what the rest of the program asked of it.
    """
    counts: dict[str, int] = defaultdict(int)
    for name, parent, _start, _end in spans:
        layer = layer_of[name]
        if parent < 0 or layer_of[spans[parent][0]] != layer:
            counts[layer] += 1
    return dict(counts)


def best_of_passes(
    passes: Sequence[tuple[float, Sequence[tuple[str, float, bool]]]],
) -> tuple[float, dict[tuple[str, int], tuple[float, bool]]]:
    """Quiet-host pass time from repeated identical passes.

    Each pass is ``(wall, calls)`` where ``calls`` lists ``(target,
    seconds, flag)`` in call order.  A unit of work is the ``k``-th call
    of a target; the same inputs make the same units every pass.  Noise
    from other tenants of the host only ever slows a unit down, so each
    unit's fastest repeat is its cost, and the untimed remainder of a
    pass (``wall - Σ calls``) is taken at its fastest too.  Returns the
    summed estimate and every unit's ``(fastest seconds, flag)``.
    """
    if not passes:
        raise ValueError("no passes")
    best: dict[tuple[str, int], tuple[float, bool]] = {}
    rest = math.inf
    for wall, calls in passes:
        seen: dict[str, int] = defaultdict(int)
        for target, dt, flag in calls:
            key = (target, seen[target])
            seen[target] += 1
            if key not in best or dt < best[key][0]:
                best[key] = (dt, best[key][1] if key in best else flag)
        rest = min(rest, wall - sum(dt for _t, dt, _f in calls))
    return sum(dt for dt, _f in best.values()) + rest, best
