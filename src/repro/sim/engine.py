"""The simulator loop: one heapq of scheduled events over a shared clock.

:class:`Simulator` owns the shared :class:`~repro.sim.clock.SimClock`
and runs scheduled callbacks in ``(time, seq)`` order.  Hardware models
use it for asynchronous behaviour — background garbage collection, CSE
availability changes, injected faults — while straight-line execution
cost is accounted synchronously via ``clock.advance``.

Real traffic is tiny: a greedy run schedules no events at all, and a
chaos run a handful with at most three pending.  So the engine is the
plain heap idiom: ``(time, seq, handle)`` tuples, where the
:class:`~repro.sim.handle.EventHandle` is the event record itself and a
cancel just flips its state (the heap skips it when it surfaces).
Snapshots copy the pending entries eagerly.

When the simulator carries an enabled :class:`~repro.obs.Observability`
handle it counts scheduled and fired events (``sim.events_scheduled``,
``sim.events_fired``); metric recording never advances the clock, so
results are identical with observability on or off.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..obs import Observability
from .clock import SimClock
from .handle import FIRED, PENDING, EventHandle

__all__ = ["EventHandle", "SimSnapshot", "Simulator"]


@dataclass(frozen=True)
class SimSnapshot:
    """Frozen event + clock state captured by :meth:`Simulator.snapshot`.

    ``entries`` holds ``(time, seq, label, action)`` for every pending
    event in firing order.  A snapshot can be restored any number of
    times (:meth:`Simulator.restore`).
    """

    clock_now: float
    next_seq: int
    fired: int
    entries: Tuple[Tuple[float, int, str, Callable[[], None]], ...] = field(repr=False)

    @property
    def pending_events(self) -> int:
        """Live events captured in the snapshot (diagnostics)."""
        return len(self.entries)


class Simulator:
    """Owns the clock and the event heap; runs events in time order.

    Construction is keyword-only::

        sim = Simulator(clock=..., obs=...)
    """

    def __init__(
        self,
        *,
        clock: Optional[SimClock] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.obs = obs if obs is not None else Observability.disabled()
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._next_seq = 0
        #: Pending (scheduled, neither fired nor cancelled) count; the
        #: handles decrement it on cancel.
        self._live = 0
        self._fired = 0

    # --- introspection ------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for tests/diagnostics)."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Live (scheduled, not fired, not cancelled) events — O(1)."""
        return self._live

    # --- scheduling ---------------------------------------------------------

    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule ``action`` at an absolute simulated time."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time}")
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < {self.clock.now})"
            )
        return self._push(time, action, label)

    def schedule_after(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule ``action`` ``delay`` seconds from now."""
        if not math.isfinite(delay):
            raise SimulationError(f"cannot schedule event with non-finite delay {delay}")
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        return self._push(self.clock.now + delay, action, label)

    def _push(self, time: float, action: Callable[[], None], label: str) -> EventHandle:
        if self.obs.enabled:
            self.obs.metrics.counter("sim.events_scheduled").inc()
        time = float(time)
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(time, seq, label, action, self)
        heapq.heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    # --- running ------------------------------------------------------------

    def _drain(
        self, deadline: Optional[float], advance: bool, limit: float = math.inf
    ) -> int:
        """Fire pending events due at or before ``deadline``, in order.

        ``deadline`` None means "the clock's current reading", re-read
        per event because a callback may advance the clock.  ``advance``
        moves the clock to each event's time before its callback runs.
        Fires at most ``limit`` events; returns the number fired.
        """
        heap = self._heap
        clock = self.clock
        counter = (
            self.obs.metrics.counter("sim.events_fired") if self.obs.enabled else None
        )
        fired = 0
        while heap and fired < limit:
            time, _, handle = heap[0]
            if handle._state != PENDING:
                heapq.heappop(heap)  # cancelled: drop it lazily
                continue
            if time > (clock.now if deadline is None else deadline):
                break
            heapq.heappop(heap)
            handle._state = FIRED
            action = handle._action
            handle._action = None
            self._live -= 1
            if advance:
                now = clock.now
                clock.advance_to(time if time > now else now)
            action()
            self._fired += 1
            fired += 1
            if counter is not None:
                counter.inc()
        return fired

    def fire_due_events(self) -> int:
        """Run every event due at or before the current time.

        Used by synchronous execution paths after advancing the clock:
        the executor consumes compute time, then lets any background
        events (availability changes, GC) that became due take effect.
        Never moves the clock itself.  Returns the number of events fired.
        """
        return self._drain(None, advance=False)

    def run_until(self, deadline: float) -> None:
        """Advance to ``deadline``, firing all events on the way."""
        if deadline < self.clock.now:
            raise SimulationError(
                f"deadline {deadline} is before current time {self.clock.now}"
            )
        self._drain(deadline, advance=True)
        self.clock.advance_to(deadline)

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Fire every scheduled event in order until the queue drains.

        Raises :class:`~repro.errors.SimulationError` only when events
        remain *beyond* the budget — draining exactly ``max_events``
        events is a successful run.
        """
        self._drain(math.inf, advance=True, limit=max_events)
        if self._live > 0:
            raise SimulationError(
                f"run_all exceeded {max_events} events; likely a scheduling loop"
            )

    # --- snapshot / fork ----------------------------------------------------

    def snapshot(self) -> SimSnapshot:
        """Capture pending events, the next seq, the fired count and the clock.

        Pending events are copied eagerly (callbacks by reference).
        Callbacks close over live model objects; a snapshot freezes
        *scheduling* state, not the state those callbacks mutate.
        """
        entries = sorted(
            (time, seq, handle._label, handle._action)
            for time, seq, handle in self._heap
            if handle._state == PENDING
        )
        return SimSnapshot(
            clock_now=self.clock.now,
            next_seq=self._next_seq,
            fired=self._fired,
            entries=tuple(entries),
        )

    def restore(self, snapshot: SimSnapshot) -> None:
        """Rewind this simulator to a snapshot (clock may move backwards).

        Handles obtained before the restore are detached from this
        simulator.  An attached time attributor is *not* rewound —
        restore inside attribution-free search loops.
        """
        for _, _, handle in self._heap:
            handle._sim = None
        # The sorted entries already form a valid heap.  Rebuild in
        # place so a drain in progress keeps reading the live list.
        self._heap[:] = [
            (time, seq, EventHandle(time, seq, label, action, self))
            for time, seq, label, action in snapshot.entries
        ]
        self._next_seq = snapshot.next_seq
        self._live = len(snapshot.entries)
        self._fired = snapshot.fired
        self.clock.restore(snapshot.clock_now)

    def fork(self, *, obs: Optional[Observability] = None) -> "Simulator":
        """A new independent simulator continuing from this one's state.

        The fork gets its own clock (at the same reading, without the
        parent's attributor) and its own copy of the pending events;
        callbacks are shared by reference, so forked branches exploring
        different futures should reschedule against their own model
        state.  ``obs`` defaults to sharing the parent's handle — pass
        ``Observability.disabled()`` to keep search branches out of the
        parent's metrics.
        """
        branch = Simulator(
            clock=SimClock(), obs=obs if obs is not None else self.obs
        )
        branch.restore(self.snapshot())
        return branch
