"""Discrete-event simulation substrate.

A heapq event loop behind a small public surface: a :class:`Simulator`
owning the monotonic :class:`SimClock`, the :class:`EventHandle`
records returned by the scheduling calls, and :class:`SimSnapshot`
state for ``snapshot()`` / ``restore()`` / ``fork()``.  All hardware
models in :mod:`repro.hw` and :mod:`repro.storage` advance time through
this engine, so an end-to-end ActivePy run is fully deterministic.
"""

from .clock import SimClock
from .engine import SimSnapshot, Simulator
from .handle import EventHandle

__all__ = [
    "EventHandle",
    "SimClock",
    "SimSnapshot",
    "Simulator",
]
