#!/usr/bin/env python3
"""Watching a migration happen, step by step.

A KMeans job offloads its Lloyd loop to the CSD; halfway through, a
co-tenant takes 90% of the engine.  The status updates flowing through
the completion queue show the IPC collapse, the monitor re-estimates,
and the task breaks at a line boundary and finishes on the host.

Run::

    python examples/adaptive_migration.py
"""

from repro import ActivePy, RunOptions, build_machine, get_workload, run_c_baseline
from repro.units import format_seconds


def run_scenario(migration_enabled: bool):
    workload = get_workload("kmeans")
    machine = build_machine()
    runtime = ActivePy(migration_enabled=migration_enabled)
    report = runtime.run(
        workload.program, workload.dataset, machine=machine,
        # Stress at 50% ISP progress.
        options=RunOptions(progress_triggers=((0.5, 0.1),)),
    )
    return report


def main() -> None:
    workload = get_workload("kmeans")
    baseline = run_c_baseline(workload.program, workload.dataset)
    print(f"no-ISP baseline: {format_seconds(baseline.total_seconds)}")

    stranded = run_scenario(migration_enabled=False)
    print(f"\nActivePy w/o migration under stress: "
          f"{format_seconds(stranded.total_seconds)} "
          f"({baseline.total_seconds / stranded.total_seconds:.2f}x vs baseline)")
    print("the static assignment is stuck on a 10%-available engine.")

    adaptive = run_scenario(migration_enabled=True)
    print(f"\nfull ActivePy under the same stress:  "
          f"{format_seconds(adaptive.total_seconds)} "
          f"({baseline.total_seconds / adaptive.total_seconds:.2f}x vs baseline)")

    for event in adaptive.result.migrations:
        print(f"\nmigration at sim time {format_seconds(event.sim_time)}:")
        print(f"  line            : {event.line_name} "
              f"(dynamic instance {event.chunk})")
        print(f"  trigger         : {event.reason}")
        print(f"  staying costs   : "
              f"{format_seconds(event.projected_device_seconds)} (re-estimated)")
        print(f"  migrating costs : "
              f"{format_seconds(event.projected_host_seconds)} "
              f"(regen + state save + host finish)")
        print(f"  migration cost  : {format_seconds(event.cost_seconds)}")

    print("\nper-line outcome:")
    for timing in adaptive.result.line_timings:
        note = " (migrated mid-line)" if timing.migrated_mid_line else ""
        print(f"  {timing.name:<18} planned {timing.planned_location:<5} "
              f"ran {timing.actual_location:<5} "
              f"{format_seconds(timing.seconds)}{note}")

    gain = stranded.total_seconds / adaptive.total_seconds
    print(f"\nmigration gain: {gain:.2f}x "
          f"(the paper reports 2.82x at 10% availability)")


if __name__ == "__main__":
    main()
