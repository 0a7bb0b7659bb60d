"""The event record returned by ``Simulator.schedule_at``/``schedule_after``.

An :class:`EventHandle` *is* the scheduled event: the simulator's heap
holds ``(time, seq, handle)`` tuples, and firing or cancelling flips
the handle's state in place.  Callers see the timestamp, sequence
number and label read-only, plus :meth:`EventHandle.cancel`.

Cancellation is idempotent and safe at any point in the event's life:
cancelling twice, or cancelling after the event already fired, is a
no-op, and a fired event never reads as cancelled.  Handles do not
survive :meth:`Simulator.restore`: after a restore, use only handles
obtained since that restore (an older handle is detached, so cancelling
it no longer touches the simulator).
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["EventHandle"]

#: Lifecycle states of an event.
PENDING, FIRED, CANCELLED = 0, 1, 2


class EventHandle:
    """One scheduled event and the caller's cancellable reference to it."""

    __slots__ = ("_time", "_seq", "_label", "_action", "_state", "_sim")

    def __init__(
        self, time: float, seq: int, label: str,
        action: Callable[[], None], sim,
    ) -> None:
        self._time = time
        self._seq = seq
        self._label = label
        self._action: Optional[Callable[[], None]] = action
        self._state = PENDING
        #: The owning simulator while pending; None once detached by a
        #: restore, so a stale cancel cannot skew its live count.
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event if it is still pending (idempotent)."""
        if self._state != PENDING:
            return
        self._state = CANCELLED
        self._action = None
        if self._sim is not None:
            self._sim._live -= 1

    @property
    def time(self) -> float:
        """Absolute simulated time the event fires (or would have)."""
        return self._time

    @property
    def seq(self) -> int:
        """Scheduling order; ties at one timestamp fire in seq order."""
        return self._seq

    @property
    def label(self) -> str:
        """The diagnostic label passed at scheduling time."""
        return self._label

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` took effect (not set by firing)."""
        return self._state == CANCELLED

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "scheduled"
        return (
            f"EventHandle(time={self._time!r}, seq={self._seq}, "
            f"label={self._label!r}, {state})"
        )
