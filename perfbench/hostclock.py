"""Host-normalized time: each timed interval scaled by a reference loop run next to it.

Shared machines change speed by tens of percent within seconds and for
minutes at a time (other tenants contend for the core), and pure-Python
code slows the most.  Timed alone, the same pass then reads 2x apart from
run to run.  A :class:`HostClock` runs a fixed pure-Python reference loop
between units of timed work, at most every :attr:`HostClock.gap_s`, and
converts a raw interval to *normalized seconds*: raw × ``REF_S`` / (the
mean reference time of the probes bracketing it).  Normalized seconds read
as seconds on a host whose reference loop takes ``REF_S``; the program's
own speed-ups and slow-downs pass through unchanged, because the reference
loop is the benchmark's code, not the program's.  Probe time is never part
of a timed interval.

The scale assumes the program slows like the reference loop.  NumPy-bound
code slows less than pure Python on a contended host, so while the host
runs slow its normalized time reads too fast, by up to the host's
slowdown.  The run therefore reports :meth:`HostClock.slowdown` beside its
metrics and flags itself (:meth:`HostClock.slowed`) when the slowdown
exceeds ``1 + HOST_SLACK``: such a run's normalized times may be off by
more than the slack and are not comparable with a quiet host's.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: the reference loop's best time on the 2-vCPU 2.1 GHz Xeon VM the
#: benchmark was developed on; a fixed scale, so runs stay comparable
REF_S = 320e-6
#: the least time between two probes
PROBE_GAP_S = 0.02
#: a run whose probes' median exceeds ``REF_S`` by more than this share is
#: flagged: from there the scale may over-correct NumPy-bound work by more
HOST_SLACK = 0.25


def reference_loop() -> int:
    """Fixed interpreter work: dict, list, tuple and integer operations."""
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(2000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        items.append((key, total))
        total += len(items) % 7
    return total


class HostClock:
    """Reference probes interleaved with timed work, and the scale they give."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each probe ran
        self.refs: list[float] = []  # its reference time: best of three loops
        self.spent = 0.0  # seconds spent probing

    def probe(self) -> None:
        clock = time.perf_counter
        marks = [clock()]
        for _ in range(3):
            reference_loop()
            marks.append(clock())
        self.times.append(marks[2])
        self.refs.append(min(b - a for a, b in zip(marks, marks[1:])))
        self.spent += marks[-1] - marks[0]

    def maybe_probe(self) -> None:
        """Probe unless the last probe is more recent than ``PROBE_GAP_S``."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_GAP_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the mean reference time of the probes around [start, end].

        The bracketing probes are the last one before ``start`` and the
        first one after ``end``; an interval with probes on one side only
        uses that side.
        """
        if not self.refs:
            raise ValueError("no reference probe taken")
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        around = [self.refs[k] for k in (i, j) if 0 <= k < len(self.refs)]
        return REF_S / (sum(around) / len(around))

    def normalize(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)

    def slowdown(self) -> float:
        """The probes' median reference time over ``REF_S``."""
        return statistics.median(self.refs) / REF_S

    def slowed(self) -> bool:
        return self.slowdown() > 1.0 + HOST_SLACK
