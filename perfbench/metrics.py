"""The benchmark's metric catalogue and the statistics behind it.

``BENCHMARK.json`` at the repository root lists exactly these metrics;
``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: (name, unit, better, bound).  Every workload reports every metric;
#: what one operation, one pass and the two arms are on each workload is
#: tabulated in README.md.  Times in unit ``ref`` are wall times divided
#: by the same-process reference clock (:mod:`perfbench.refclock`).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_ref", "ref", "lower", 0.25),
    ("op_mean_ref", "ref", "lower", 0.25),
    ("alt_op_mean_ref", "ref", "lower", 0.25),
]

#: The ten paper programs (``repro.workload_names()``).
PROGRAMS = (
    "blackscholes", "kmeans", "lightgbm", "matrixmul", "mixedgemm",
    "pagerank", "sparsemv", "tpch_q1", "tpch_q6", "tpch_q14",
)

#: The simulated-time components ``TimeAttributor`` attributes.
COMPONENTS = (
    "host", "cse", "pcie", "nvme", "nand", "ftl", "checkpoint", "migration",
    "integrity",
)

#: Spans whose self time is reported as ``<span>_s`` (seconds, lower).
SELF_TIME_SPANS = (
    "workloads.payload",
    "runtime.activepy.run",
    "runtime.sampling.run",
    "runtime.profiler.profile",
    "runtime.profiler.nbytes",
    "runtime.fitting.fit_curve",
    "runtime.plansearch.search",
    "runtime.profcache.key",
    "runtime.profcache.get",
    "runtime.profcache.put",
    "hw.topology.build_machine",
    "runtime.estimator.build_estimates",
    "runtime.planner.assign_csd_code",
    "runtime.codegen.generate",
    "runtime.explain.explain_plan",
    "runtime.executor.execute",
    "chaos.run_campaign",
    "chaos.run_plan",
    "chaos.check_invariants",
    "chaos.shrink",
    "fleet.chaos.run_campaign",
    "fleet.chaos.run_plan",
    "fleet.chaos.check_invariants",
    "fleet.run",
    "fleet.profiles",
    "fleet.traffic",
    "obs.timeseries.window_percentile",
    "obs.timeseries.window_values",
    "obs.timeseries.record",
    "obs.timeseries.alerts",
)

#: Self-time metrics whose name is not simply ``<span>_s``.
SELF_TIME_NAMES = {"fleet.run": "fleet.run_self_s"}


def self_time_metric(span: str) -> str:
    return SELF_TIME_NAMES.get(span, f"{span}_s")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [(self_time_metric(span), "s", "lower") for span in SELF_TIME_SPANS]
    rows += [(f"runtime.profiler.factor.2-{k}_s", "s", "lower")
             for k in (10, 9, 8, 7)]
    rows += [(f"runtime.sampling.{p}_s", "s", "lower") for p in PROGRAMS]
    rows += [
        ("runtime.sampling.share", "ratio", "lower"),
        ("runtime.fitting.calls", "count", "lower"),
        ("runtime.plansearch.nodes_expanded", "count", "lower"),
        ("runtime.plansearch.nodes_pruned", "count", "higher"),
        ("runtime.profcache.hits", "count", "higher"),
        ("runtime.profcache.misses", "count", "lower"),
        ("runtime.profcache.hit_ratio", "ratio", "higher"),
        ("sim.events_fired", "count", "lower"),
        ("runtime.executor.us_per_event", "us", "lower"),
        ("faults.events", "count", "lower"),
        ("integrity.verified_bytes", "bytes", "lower"),
        ("integrity.detected", "count", "higher"),
        ("runtime.executor.host_fallbacks", "count", "lower"),
        ("runtime.executor.chunk_replays", "count", "lower"),
        ("chaos.degraded_runs", "count", "lower"),
        ("fleet.jobs", "count", "higher"),
        ("fleet.shed", "count", "lower"),
        ("obs.timeseries.window_percentile_calls", "count", "lower"),
        ("obs.timeseries.share", "ratio", "lower"),
    ]
    rows += [(f"sim.total_s.{p}", "s", "lower") for p in PROGRAMS]
    rows += [(f"sim.attrib.{c}_s", "s", "lower") for c in COMPONENTS]
    rows += [(f"sim.speedup_vs_c.{p}", "ratio", "higher") for p in PROGRAMS]
    rows += [
        ("fleet.sim.makespan_s", "s", "lower"),
        ("fleet.sim.p99_e2e_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.uncovered_s", "s", "lower"),
        ("trace.uncovered_share", "ratio", "lower"),
        ("bench.op_samples", "count", "higher"),
        ("bench.op_p50_ref", "ref", "lower"),
        ("bench.op_p90_ref", "ref", "lower"),
        ("bench.op_p99_ref", "ref", "lower"),
        ("bench.ref_unit_ms", "ms", "lower"),
        ("bench.raw_pass_s", "s", "lower"),
        ("bench.raw_op_p50_ms", "ms", "lower"),
        ("bench.raw_op_p90_ms", "ms", "lower"),
        ("bench.raw_op_p99_ms", "ms", "lower"),
        ("bench.raw_ops_per_s", "1/s", "higher"),
        ("bench.raw_alt_ops_per_s", "1/s", "higher"),
    ]
    return rows


#: (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(q) - 1] if q < 100 else max(samples)


def with_units(values: Dict[str, float], catalogue) -> Dict[str, Dict]:
    """``{name: {"value": v, "unit": u}}`` in catalogue order."""
    return {row[0]: {"value": values[row[0]], "unit": row[1]}
            for row in catalogue}
