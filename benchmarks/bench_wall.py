"""The performance layer's wall-clock wins (``BENCH_wall.json``).

Unlike the other bench modules, this one reports **host** wall time,
not simulated seconds: it proves the profile/plan cache and the
parallel campaign runner actually remove wall-clock work while leaving
simulated results bit-identical (the wallbench drivers raise if a warm
or parallel run changes a simulated number or an outcome).

Raw wall seconds are machine-dependent, so the perf gate checks only
the dimensionless fractions (warm/cold, layer/baseline) with generous
tolerances.  The assertions here enforce the headline claims directly:
a warm ``ActivePy.run`` and a campaign under the full layer are each
at least ~3x faster than the pre-layer baseline.
"""

from pathlib import Path

from repro.wallbench import (
    WARM_WORKLOADS,
    bench_parallel_campaign,
    bench_warm_run,
    write_wall_bench,
)

from .conftest import run_once

_REPO_ROOT = Path(__file__).resolve().parents[1]


def test_warm_run_speedup(benchmark):
    warm_runs = {}
    for name in WARM_WORKLOADS[1:]:
        warm_runs[name] = bench_warm_run(name)
    headline_name = WARM_WORKLOADS[0]
    warm_runs[headline_name] = run_once(
        benchmark, lambda: bench_warm_run(headline_name)
    )
    headline = warm_runs[headline_name]

    print("\n\nprofile cache: repeat ActivePy.run, best-of-3 wall time")
    for name, row in warm_runs.items():
        print(f"{name:<14} {row['cold_wall_seconds'] * 1e3:7.1f} ms cold -> "
              f"{row['warm_wall_seconds'] * 1e3:7.1f} ms warm "
              f"({row['speedup']:.2f}x)")

    write_wall_bench(
        {"warm_run": {**headline, "per_workload": warm_runs}},
        root=_REPO_ROOT, merge=True,
    )
    # The tentpole claim: a warm run skips sampling+fitting entirely.
    assert headline["speedup"] >= 3.0


def test_parallel_campaign_speedup(benchmark):
    campaign = run_once(benchmark, bench_parallel_campaign)

    print(f"\n\nchaos campaign: {campaign['runs']} run(s), "
          f"workers={campaign['workers']} + profile cache "
          f"vs. serial, cache off")
    print(f"serial baseline : {campaign['serial_wall_seconds']:.2f} s")
    print(f"perf layer      : {campaign['parallel_wall_seconds']:.2f} s "
          f"({campaign['speedup']:.2f}x)")

    write_wall_bench({"parallel_campaign": campaign},
                     root=_REPO_ROOT, merge=True)
    assert campaign["outcomes_identical"]
    assert campaign["campaign_ok"]
    # The layer (cache + workers) must beat the pre-layer serial loop.
    assert campaign["speedup"] >= 3.0

