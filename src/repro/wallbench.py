"""Wall-clock benchmark of the performance layer (``BENCH_wall.json``).

Everything else under ``benchmarks/`` reports **simulated** seconds,
which are deterministic and machine-independent.  This module measures
the opposite thing: how long the *host* takes to produce those results,
and how much of that time the performance layer (profile/plan cache,
vectorised kernels, parallel campaign runner) removes.

Two scenarios:

``warm_run``
    ``ActivePy.run`` on a cold profile cache vs. the same run again
    warm.  The warm run skips sampling + curve fitting — the dominant
    wall cost — while charging identical simulated time, which the
    benchmark asserts.

``parallel_campaign``
    A chaos campaign with the performance layer on (profile cache +
    ``run_campaign(..., workers=N)``) vs. the pre-layer baseline (cache
    disabled, serial loop).  Outcomes are asserted identical.

Wall numbers vary machine to machine, so the perf gate checks the
dimensionless *fractions* (warm/cold, layer/baseline) with generous
tolerances rather than the raw seconds.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .chaos.campaign import CampaignConfig, run_campaign
from .config import DEFAULT_CONFIG, config_hash
from .errors import ReproError
from .hw.topology import build_machine
from .runtime.activepy import ActivePy
from .runtime.profcache import ProfileCache
from .workloads import get_workload

__all__ = [
    "bench_parallel_campaign",
    "bench_warm_run",
    "run_wall_bench",
    "write_wall_bench",
]

_SCHEMA_VERSION = 2

#: Defaults sized so the whole benchmark stays under ~a minute while
#: the cache/runner effects dominate process-start noise.
WARM_WORKLOADS = ("kmeans", "tpch_q6")
WARM_SCALE = 2 ** -6
CAMPAIGN_RUNS = 24
CAMPAIGN_SCALE = 2 ** -3
CAMPAIGN_WORKERS = 4


@contextmanager
def _environ(name: str, value: str):
    """Run a block with one environment variable set, then restore it."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[name]
        else:
            os.environ[name] = previous


def bench_warm_run(
    workload_name: str = "kmeans",
    scale: float = WARM_SCALE,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Cold-cache vs. warm-cache ``ActivePy.run`` wall time (best-of)."""
    workload = get_workload(workload_name, scale=scale)
    with tempfile.TemporaryDirectory(prefix="repro-wallbench-") as tmp:
        cache = ProfileCache(Path(tmp))
        runtime = ActivePy(profile_cache=cache)

        def one_run():
            machine = build_machine(DEFAULT_CONFIG)
            start = time.perf_counter()
            report = runtime.run(
                workload.program, workload.dataset, machine=machine,
            )
            return time.perf_counter() - start, report

        cold_s = float("inf")
        cold_report = None
        for _ in range(repeats):
            cache.clear()
            elapsed, cold_report = one_run()
            cold_s = min(cold_s, elapsed)
        warm_s = float("inf")
        warm_report = None
        for _ in range(repeats):
            elapsed, warm_report = one_run()
            warm_s = min(warm_s, elapsed)

    assert cold_report is not None and warm_report is not None
    if warm_report.total_seconds != cold_report.total_seconds:
        raise ReproError(
            f"warm run changed simulated time for {workload_name}: "
            f"{cold_report.total_seconds!r} -> {warm_report.total_seconds!r}"
        )
    if warm_report.plan.assignments != cold_report.plan.assignments:
        raise ReproError(f"warm run changed the plan for {workload_name}")
    if not warm_report.sampling_cached:
        raise ReproError(f"warm run missed the cache for {workload_name}")
    return {
        "workload": workload_name,
        "scale": scale,
        "cold_wall_seconds": cold_s,
        "warm_wall_seconds": warm_s,
        "speedup": cold_s / warm_s,
        "fraction_of_cold": warm_s / cold_s,
        "sim_seconds": cold_report.total_seconds,
    }


def bench_parallel_campaign(
    runs: int = CAMPAIGN_RUNS,
    scale: float = CAMPAIGN_SCALE,
    workers: int = CAMPAIGN_WORKERS,
) -> Dict[str, Any]:
    """Performance layer on (cache + workers) vs. the serial baseline.

    The baseline arm is the pre-layer behaviour: profile cache disabled
    and the serial campaign loop.  The layer arm runs the same campaign
    through :func:`~repro.chaos.campaign.run_campaign` on ``workers``
    processes with a fresh cache directory.  Both arms skip per-run
    metric snapshots so the comparison is runner vs. runner, not
    snapshot cost.
    """
    config = CampaignConfig(runs=runs, scale=scale, collect_metrics=False)

    with _environ("REPRO_PROFCACHE", "0"):
        start = time.perf_counter()
        serial = run_campaign(config)
        serial_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-wallbench-") as tmp, \
            _environ("REPRO_CACHE_DIR", tmp):
        start = time.perf_counter()
        parallel = run_campaign(config, workers=workers)
        parallel_s = time.perf_counter() - start

    serial_outcomes = [outcome.summary() for outcome in serial.outcomes]
    parallel_outcomes = [outcome.summary() for outcome in parallel.outcomes]
    if serial_outcomes != parallel_outcomes:
        raise ReproError(
            "parallel campaign outcomes differ from the serial baseline"
        )
    return {
        "runs": runs,
        "scale": scale,
        "workers": workers,
        "serial_wall_seconds": serial_s,
        "parallel_wall_seconds": parallel_s,
        "speedup": serial_s / parallel_s,
        "fraction_of_serial": parallel_s / serial_s,
        "outcomes_identical": True,
        "campaign_ok": parallel.ok,
    }


def run_wall_bench(
    workers: int = CAMPAIGN_WORKERS,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Run all scenarios and assemble the BENCH_wall payload."""
    warm_runs = {
        name: bench_warm_run(name, repeats=repeats) for name in WARM_WORKLOADS
    }
    headline = warm_runs[WARM_WORKLOADS[0]]
    campaign = bench_parallel_campaign(workers=workers)
    return {
        "warm_run": {
            **headline,
            "per_workload": warm_runs,
        },
        "parallel_campaign": campaign,
    }


def write_wall_bench(
    payload: Dict[str, Any],
    root: Optional[Path] = None,
    workers: int = CAMPAIGN_WORKERS,
    merge: bool = False,
) -> Tuple[Path, Path]:
    """Write the dual BENCH_wall.json files (root + ``bench_results/``).

    Mirrors the benchmark harness convention: the root copy keeps the
    bare payload, the canonical ``bench_results/`` copy wraps it in the
    schema-v2 envelope with run metadata.  ``merge`` folds ``payload``
    into whatever the root copy already holds, so bench tests that each
    produce one section accumulate into a single valid file.
    """
    from . import __version__

    root = Path(root) if root is not None else Path.cwd()
    root_path = root / "BENCH_wall.json"
    if merge and root_path.exists():
        try:
            existing = json.loads(root_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = {}
        for key in ("schema_version", "meta"):
            existing.pop(key, None)
        existing.update(payload)
        payload = existing
    root_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    results_dir = root / "bench_results"
    results_dir.mkdir(parents=True, exist_ok=True)
    canonical = results_dir / "BENCH_wall.json"
    envelope = {
        "schema_version": _SCHEMA_VERSION,
        "meta": {
            "bench": "wall",
            "config_hash": config_hash(),
            "repro_version": __version__,
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "note": (
                "wall-clock host timings; raw seconds vary by machine, "
                "the perf gate checks only the dimensionless fractions"
            ),
        },
        **payload,
    }
    canonical.write_text(
        json.dumps(envelope, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return root_path, canonical
