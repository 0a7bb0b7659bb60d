"""Deterministic fan-out over a process pool.

:func:`ordered_pool_imap` and :func:`ordered_pool_map` run a pure
function over a list of items on a
:class:`~concurrent.futures.ProcessPoolExecutor` and return results in
input order, so for a deterministic function the result equals the
serial comprehension.  Chaos campaigns (``run_campaign(...,
workers=N)``, ``run_fleet_campaign(..., workers=N)``) and the plan
search's step table run on them; the sampling phase forks its one
child through :func:`fork_context`.

Workers are started with ``fork`` where the platform has it, so state
the parent installs in a module global before the pool starts (a warm
campaign harness, a speculative machine) is inherited for free; where
only ``spawn`` is available the caller's ``initializer`` rebuilds it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

from .errors import ChaosError

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

__all__ = [
    "default_workers",
    "fork_context",
    "merge_metric_snapshots",
    "ordered_pool_imap",
    "ordered_pool_map",
]


def default_workers() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _pool_context() -> BaseContext:
    """Prefer ``fork`` (inherits parent state); fall back to spawn."""
    # multiprocessing and concurrent.futures are imported only when a
    # process starts: the chaos runner, plan search and sampling phase
    # import this module, and most processes that do never start one.
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def fork_context() -> Optional[BaseContext]:
    """The ``fork`` context when fork is this process's start method.

    That is the method set with ``multiprocessing.set_start_method``, or
    the platform's default when none was set; None otherwise.
    """
    import multiprocessing

    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    return multiprocessing.get_context("fork") if method == "fork" else None


def ordered_pool_imap(
    fn: Callable[[Any], Any],
    items: List[Any],
    *,
    workers: int,
    initializer: Optional[Callable[[], None]] = None,
) -> Iterator[Any]:
    """Yield ``fn(x)`` for each ``x`` in ``items``, in input order.

    Results stream back as they complete, in submission order (via
    ``Executor.map``), so for a ``fn`` that is a pure function of its
    item (given worker state the parent installs before the pool
    forks) the stream is bit-identical to the serial one.

    ``fn`` (and ``initializer``, used to rebuild worker state under
    ``spawn``) must pickle: module-level callables or partials of them.
    ``workers <= 1`` or fewer than two items runs serially in this
    process without touching multiprocessing at all.
    """
    if workers < 1:
        raise ChaosError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(items) < 2:
        if initializer is not None:
            initializer()
        for item in items:
            yield fn(item)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)),
        mp_context=_pool_context(),
        initializer=initializer,
    ) as pool:
        yield from pool.map(fn, items)


def ordered_pool_map(
    fn: Callable[[Any], Any],
    items: List[Any],
    *,
    workers: int,
    initializer: Optional[Callable[[], None]] = None,
) -> List[Any]:
    """``[fn(x) for x in items]`` across a pool, results in input order.

    The list form of :func:`ordered_pool_imap`; the plan search's
    ``workers=N == workers=1`` guarantee rests on it.
    """
    return list(ordered_pool_imap(fn, items, workers=workers,
                                  initializer=initializer))


def merge_metric_snapshots(
    snapshots: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold per-run observability snapshots into one campaign envelope.

    Counters and histogram tallies sum across runs; a gauge keeps the
    value from the *last* snapshot that set it (gauges are point-in-time
    readings, so "sum" would be meaningless — last-write matches what a
    single registry would hold after a serial campaign).  Histograms
    must agree on bucket bounds, which they do by construction (bounds
    are fixed at creation from shared defaults).
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = value
        for name, histogram in snapshot.get("histograms", {}).items():
            base = merged["histograms"].get(name)
            if base is None:
                merged["histograms"][name] = {
                    "buckets": list(histogram["buckets"]),
                    "counts": list(histogram["counts"]),
                    "sum": histogram["sum"],
                    "count": histogram["count"],
                }
                continue
            if base["buckets"] != list(histogram["buckets"]):
                raise ChaosError(
                    f"histogram {name!r} bucket bounds differ across runs"
                )
            base["counts"] = [
                a + b for a, b in zip(base["counts"], histogram["counts"])
            ]
            base["sum"] += histogram["sum"]
            base["count"] += histogram["count"]
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    return merged
