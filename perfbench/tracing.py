"""Wall-clock spans around calls into each layer's public functions.

The traced run wraps public functions where they are looked up: class
attributes for methods (and the ``Dataset.payload`` property), and every
module attribute that holds a module-level function, because callers
import those with ``from ... import`` (``repro.runtime.activepy`` holds
its own ``build_estimates``).  A ``Program``'s statement kernels are never
replaced: the profile-cache key hashes them.

Spans stay in memory.  Self time (a span minus its child spans) and
inclusive time are aggregated as spans close; the raw spans are written
once, at exit, as a Chrome trace.  :meth:`Patcher.restore` puts every
original back, and :func:`leftover_wrappers` proves it did.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marker attribute on every wrapper, so a leftover can be found.
WRAPPED_MARK = "__perfbench_span__"

#: Spans beyond this many are aggregated but not written to the trace
#: file (the recorder-on fleet pass alone records ~2 x 10^5 spans).
MAX_EXPORTED_SPANS = 50_000

After = Callable[["SpanRecorder", tuple, dict, Any, Any, float], None]
Before = Callable[[tuple, dict], Any]


class SpanRecorder:
    """Nested wall-clock spans with online self/inclusive aggregation."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: Open spans: [name, start, child_seconds].
        self._stack: List[list] = []
        #: How many open spans carry each name (recursion guard for
        #: inclusive time).
        self._open: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Layer counters recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Wall seconds covered by outermost spans.
        self.top_level_s = 0.0
        self.spans: List[Tuple[str, float, float, int]] = []
        self.dropped = 0

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._open[name] == 0:
            self.inclusive_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level_s += duration
        if len(self.spans) < MAX_EXPORTED_SPANS:
            self.spans.append((name, start, end, len(self._stack)))
        else:
            self.dropped += 1
        return duration

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def to_chrome_trace(self, meta: Dict[str, Any]) -> Dict[str, Any]:
        """The spans as Chrome ``trace_event`` JSON (host wall clock)."""
        events: List[Dict[str, Any]] = [{
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "benchmark caller"},
        }]
        for name, start, end, depth in self.spans:
            events.append({
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            })
        other = {"clock": "host wall (perf_counter)",
                 "dropped_spans": self.dropped}
        other.update(meta)
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}


def _span_wrapper(fn: Callable, name: str, recorder: SpanRecorder,
                  before: Optional[Before], after: Optional[After]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = recorder.exit()
        if after is not None:
            after(recorder, args, kwargs, result, state, duration)
        return result

    setattr(wrapper, WRAPPED_MARK, name)
    return wrapper


def _patchable_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith(("repro.", "perfbench")))
    ]


class Patcher:
    """Installs span wrappers and restores every original afterwards."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str,
               before: Optional[Before] = None,
               after: Optional[After] = None) -> None:
        """Wrap a plain method or a property getter on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            wrapped = property(_span_wrapper(raw.fget, name, self.recorder,
                                             before, after))
        else:
            wrapped = _span_wrapper(raw, name, self.recorder, before, after)
        self._set(cls, attr, wrapped)

    def function(self, fn: Callable, name: str,
                 before: Optional[Before] = None,
                 after: Optional[After] = None) -> None:
        """Wrap a module-level function under every name that holds it."""
        wrapped = _span_wrapper(fn, name, self.recorder, before, after)
        sites = [(module, attr) for module in _patchable_modules()
                 for attr, value in list(vars(module).items()) if value is fn]
        if not sites:
            raise RuntimeError(f"no module holds {fn.__qualname__}")
        for module, attr in sites:
            self._set(module, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Every span wrapper still installed in a repro or benchmark module."""
    found = []
    for module in _patchable_modules():
        for attr, value in list(vars(module).items()):
            targets = [value]
            if isinstance(value, type):
                targets = [
                    v.fget if isinstance(v, property) else v
                    for v in vars(value).values()
                ]
            for target in targets:
                if getattr(target, WRAPPED_MARK, None) is not None:
                    found.append(f"{module.__name__}.{attr}")
    return sorted(set(found))


# --- the layer hooks --------------------------------------------------------

def _factor_label(n_records: int, full_records: int) -> str:
    return f"2-{round(-math.log2(n_records / full_records))}"


def _after_profile(rec, args, kwargs, result, state, duration) -> None:
    dataset = args[2] if len(args) > 2 else kwargs["dataset"]
    label = _factor_label(dataset.n_records, dataset.full_records)
    rec.add(f"runtime.profiler.factor.{label}_s", duration)


def _after_sampling(rec, args, kwargs, result, state, duration) -> None:
    program = args[1] if len(args) > 1 else kwargs["program"]
    rec.add(f"runtime.sampling.{program.name}_s", duration)


def _after_search(rec, args, kwargs, result, state, duration) -> None:
    rec.add("runtime.plansearch.nodes_expanded", result.metrics.nodes_expanded)
    rec.add("runtime.plansearch.nodes_pruned", result.metrics.nodes_pruned)


def _after_cache_get(rec, args, kwargs, result, state, duration) -> None:
    rec.add("runtime.profcache.hits" if result is not None
            else "runtime.profcache.misses")


def _before_execute(args, kwargs) -> int:
    return args[0].machine.simulator.events_fired


def _after_execute(rec, args, kwargs, result, state, duration) -> None:
    rec.add("sim.events_fired", args[0].machine.simulator.events_fired - state)


#: Executor and integrity counters a chaos run's metrics snapshot carries.
_CHAOS_COUNTERS = {
    "integrity.verified_bytes": "integrity.verified_bytes",
    "integrity.detected": "integrity.detected",
    "executor.host_fallbacks": "runtime.executor.host_fallbacks",
    "executor.chunk_replays": "runtime.executor.chunk_replays",
}


def _after_chaos_run(rec, args, kwargs, result, state, duration) -> None:
    rec.add("faults.events", result.fault_event_count)
    rec.add("chaos.degraded_runs", bool(result.degraded))
    counters = (result.metrics or {}).get("counters", {})
    for source, metric in _CHAOS_COUNTERS.items():
        rec.add(metric, counters.get(source, 0))


def _after_fleet_run(rec, args, kwargs, result, state, duration) -> None:
    rec.add("fleet.jobs", result.job_count)
    rec.add("fleet.shed", result.shed)


def install_layer_spans(patcher: Patcher) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.chaos import campaign, invariants, shrink
    from repro.fleet import chaos as fleet_chaos
    from repro.fleet import fleet, profiles, traffic
    from repro.hw import topology
    from repro.lang import dataset
    from repro.obs import timeseries
    from repro.runtime import (
        activepy, codegen, estimator, executor, explain, fitting, planner,
        plansearch, profcache, profiler, sampling,
    )

    m, f = patcher.method, patcher.function
    m(dataset.Dataset, "payload", "workloads.payload")
    m(profiler.LineProfiler, "profile", "runtime.profiler.profile",
      after=_after_profile)
    f(profiler.payload_nbytes, "runtime.profiler.nbytes")
    m(sampling.SamplingPhase, "run", "runtime.sampling.run",
      after=_after_sampling)
    f(fitting.fit_curve, "runtime.fitting.fit_curve")
    f(plansearch.search_plan, "runtime.plansearch.search",
      after=_after_search)
    m(profcache.ProfileCache, "key_for", "runtime.profcache.key")
    m(profcache.ProfileCache, "get", "runtime.profcache.get",
      after=_after_cache_get)
    m(profcache.ProfileCache, "put", "runtime.profcache.put")
    f(topology.build_machine, "hw.topology.build_machine")
    f(estimator.build_estimates, "runtime.estimator.build_estimates")
    f(planner.assign_csd_code, "runtime.planner.assign_csd_code")
    m(codegen.CodeGenerator, "generate", "runtime.codegen.generate")
    f(explain.explain_plan, "runtime.explain.explain_plan")
    m(executor.PlanExecutor, "execute", "runtime.executor.execute",
      before=_before_execute, after=_after_execute)
    m(activepy.ActivePy, "run", "runtime.activepy.run")
    f(campaign.run_campaign, "chaos.run_campaign")
    m(campaign.ChaosHarness, "run_plan", "chaos.run_plan",
      after=_after_chaos_run)
    f(invariants.check_invariants, "chaos.check_invariants")
    f(shrink.shrink_plan, "chaos.shrink")
    f(fleet_chaos.run_fleet_campaign, "fleet.chaos.run_campaign")
    m(fleet_chaos.FleetHarness, "run_plan", "fleet.chaos.run_plan")
    f(fleet_chaos.check_fleet_invariants, "fleet.chaos.check_invariants")
    m(fleet.Fleet, "run", "fleet.run", after=_after_fleet_run)
    m(profiles.ProfileStore, "profile", "fleet.profiles")
    m(traffic.TrafficGenerator, "schedule", "fleet.traffic")
    m(timeseries.FlightRecorder, "window_percentile",
      "obs.timeseries.window_percentile")
    m(timeseries.FlightRecorder, "window_values",
      "obs.timeseries.window_values")
    for attr in ("gauge", "observe", "count", "finalize"):
        m(timeseries.FlightRecorder, attr, "obs.timeseries.record")
    f(timeseries.evaluate_alerts, "obs.timeseries.alerts")


def write_trace(recorder: SpanRecorder, path: Path,
                meta: Dict[str, Any]) -> List[str]:
    """Write the Chrome trace; returns the validator's problems (none = ok)."""
    from repro.obs import validate_chrome_trace

    trace = recorder.to_chrome_trace(meta)
    problems = validate_chrome_trace(trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return problems
