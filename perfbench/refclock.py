"""A same-process reference clock for timing on a shared, noisy host.

On the two-core box this benchmark was built on, the host's speed
swings by 20-30% over seconds to tens of seconds (other tenants), so
raw wall times of the same work differ by that much between runs.  The
benchmark therefore interleaves short slices of a fixed reference
computation with the timed operations and reports each operation's wall
time divided by the reference's wall time at that moment: a cost in
*reference units* that the host's speed cancels out of.  The reference
uses nothing from the ``repro`` package, so no change to the package
can move it.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, List, Optional, Tuple

import numpy as np

#: Wall seconds of reference work per slice.
SLICE_S = 0.05


#: Large enough (8 MB) that the NumPy half of the reference streams from
#: memory, as the cold suite's kernels do.
_ARRAY = np.arange(1_000_000, dtype=np.float64)


def reference_work() -> float:
    """A fixed mix of interpreter and NumPy work (2-3 ms on a Xeon core).

    Half is interpreter-bound (dictionary updates, a keyed sort, small
    arrays), like the warm, chaos and fleet workloads; half streams large
    arrays from memory, like the cold suite's kernels.
    """
    counts: dict = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    order = sorted(range(1000), key=lambda v: (v * 7919) % 1009)
    small = np.arange(20_000, dtype=np.float64)
    for _ in range(4):
        small = np.sqrt(small * small + 1.0)
    scaled = _ARRAY * 1.5 + 2.0
    return float(scaled[-1] + small[-1]) + len(order) + len(counts)


class RefClock:
    """Reference slices on the benchmark's timeline, and costs in their unit."""

    def __init__(self) -> None:
        #: (start, end, wall seconds per reference call), in time order.
        self.slices: List[Tuple[float, float, float]] = []
        self._mids: List[float] = []
        self._last_end = float("-inf")
        #: A :class:`~perfbench.tracing.SpanRecorder` that should see
        #: slices as ``bench.reference`` spans (traced runs only).
        self.recorder: Optional[Any] = None

    def slice(self) -> None:
        """Run the reference for :data:`SLICE_S` and record its speed."""
        if not self.slices:
            # The first calls in a process run slower (page faults on the
            # fresh arrays), which would bias the first slice.
            for _ in range(20):
                reference_work()
        if self.recorder is not None:
            self.recorder.enter("bench.reference")
        calls = 0
        start = time.perf_counter()
        while True:
            reference_work()
            calls += 1
            end = time.perf_counter()
            if end - start >= SLICE_S:
                break
        if self.recorder is not None:
            self.recorder.exit()
        self.slices.append((start, end, (end - start) / calls))
        self._mids.append((start + end) / 2)
        self._last_end = time.perf_counter()

    def maybe_slice(self, gap_s: float) -> bool:
        """Slice if ``gap_s`` seconds passed since the last slice ended."""
        if time.perf_counter() - self._last_end < gap_s:
            return False
        self.slice()
        return True

    def unit_at(self, t: float) -> float:
        """Seconds per reference call at ``t``, interpolated between slices."""
        if not self.slices:
            raise RuntimeError("no reference slice recorded")
        i = bisect.bisect_left(self._mids, t)
        if i == 0:
            return self.slices[0][2]
        if i == len(self.slices):
            return self.slices[-1][2]
        t0, t1 = self._mids[i - 1], self._mids[i]
        u0, u1 = self.slices[i - 1][2], self.slices[i][2]
        return u0 + (u1 - u0) * (t - t0) / (t1 - t0)

    def cost(self, start: float, end: float) -> float:
        """Wall seconds ``start..end`` in reference units."""
        return (end - start) / ((self.unit_at(start) + self.unit_at(end)) / 2)

    def median_unit_s(self) -> float:
        units = sorted(u for _, _, u in self.slices)
        return units[len(units) // 2]
