"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_suite --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it times untraced passes and prints the end-to-end
metrics; with ``--trace 1`` it times untraced passes, repeats them with
a span around every layer's public entry points, prints the per-layer
metrics and writes ``.perfbench/traces/<workload>-seed<seed>.json`` as a
Chrome trace.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any correctness check failed.  Run it from the repository
root; it imports the package from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space: per-process profile caches (removed at exit) and traces.
WORK_ROOT = ROOT / ".perfbench"
#: Fresh processes set up per untraced run; setup_s is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail loudly."""
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro was imported from {source}, not {ROOT / 'src'}")


def _setup_samples(args) -> List[float]:
    """Wall seconds from spawning a fresh process to its first timed call."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{child.stderr}")
        ready = json.loads(child.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - spawned)
    return samples


def _run_passes(workload, budget_s: float, count: int = 0) -> List[Any]:
    """Run ``count`` passes, or as many as the budget fits (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes)))
        if count:
            if len(passes) == count:
                return passes
            continue
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes


def _digest(passes) -> str:
    payload = json.dumps([p.outputs for p in passes], sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _timing(passes, clock) -> Dict[str, float]:
    """Raw and reference-normalised timings of the passes' operations."""
    from perfbench.metrics import percentile

    def raw(ops):
        return [end - start for start, end in ops]

    def ref(ops):
        return [clock.cost(start, end) for start, end in ops]

    primary = [op for p in passes for op in p.primary]
    alt = [op for p in passes for op in p.alt]
    units = sum(p.primary_units for p in passes)
    alt_units = sum(p.alt_units for p in passes)
    primary_ref, primary_raw = ref(primary), raw(primary)
    return {
        "pass_ref": statistics.mean(sum(ref(p.primary + p.alt)) for p in passes),
        "op_p50_ref": percentile(primary_ref, 50),
        "op_p90_ref": percentile(primary_ref, 90),
        "op_p99_ref": percentile(primary_ref, 99),
        "op_mean_ref": sum(primary_ref) / units,
        "alt_op_mean_ref": sum(ref(alt)) / alt_units,
        "total_ref": sum(primary_ref) + sum(ref(alt)),
        "raw_pass_s": statistics.mean(sum(raw(p.primary + p.alt)) for p in passes),
        "raw_op_p50_ms": percentile(primary_raw, 50) * 1e3,
        "raw_op_p90_ms": percentile(primary_raw, 90) * 1e3,
        "raw_op_p99_ms": percentile(primary_raw, 99) * 1e3,
        "raw_ops_per_s": units / sum(primary_raw),
        "raw_alt_ops_per_s": alt_units / sum(raw(alt)),
        "op_samples": len(primary),
        "ref_unit_ms": clock.median_unit_s() * 1e3,
    }


def _op_seconds(passes) -> float:
    """Raw wall seconds inside the timed operations of both arms."""
    return sum(end - start for p in passes for start, end in p.primary + p.alt)


def _end_to_end(timing: Dict[str, float], setup: List[float]) -> Dict[str, float]:
    values = {name: timing[name] for name in (
        "pass_ref", "op_mean_ref", "alt_op_mean_ref")}
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return values


def _per_layer(recorder, clock, untraced: Dict[str, float], traced,
               sim: Dict[str, float]) -> Dict[str, float]:
    from perfbench.metrics import PER_LAYER, SELF_TIME_SPANS, self_time_metric

    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for span in SELF_TIME_SPANS:
        values[self_time_metric(span)] = recorder.self_s.get(span, 0.0)
    values.update(recorder.counts)
    # The wall is the time inside the timed operations.  Reference slices
    # (which chaos campaigns run between their runs, inside the campaign
    # span) are recorded as spans so that layer self times exclude them,
    # and are taken out of the covered time here.
    wall = _op_seconds(traced)
    covered = recorder.top_level_s - recorder.inclusive_s.get("bench.reference", 0.0)
    values["runtime.sampling.share"] = (
        recorder.inclusive_s.get("runtime.sampling.run", 0.0) / wall)
    values["runtime.fitting.calls"] = recorder.calls.get(
        "runtime.fitting.fit_curve", 0)
    values["obs.timeseries.window_percentile_calls"] = recorder.calls.get(
        "obs.timeseries.window_percentile", 0)
    lookups = values["runtime.profcache.hits"] + values["runtime.profcache.misses"]
    values["runtime.profcache.hit_ratio"] = (
        values["runtime.profcache.hits"] / lookups if lookups else 0.0)
    # The flight recorder runs only in fleet_serve's second arm (the
    # recorder-on runs), so its share is taken of that arm's wall.
    recorder_s = sum(recorder.self_s.get(span, 0.0) for span in SELF_TIME_SPANS
                     if span.startswith("obs.timeseries."))
    alt_wall = sum(end - start for p in traced for start, end in p.alt)
    values["obs.timeseries.share"] = recorder_s / alt_wall if recorder_s else 0.0
    events = values["sim.events_fired"]
    values["runtime.executor.us_per_event"] = (
        values["runtime.executor.execute_s"] * 1e6 / events if events else 0.0)
    values.update(sim)
    traced_timing = _timing(traced, clock)
    untraced_wall = untraced["untraced_wall_s"]
    values.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.overhead_share":
            traced_timing["total_ref"] / untraced["total_ref"] - 1.0,
        "trace.uncovered_s": wall - covered,
        "trace.uncovered_share": (wall - covered) / wall,
    })
    for name in ("op_samples", "op_p50_ref", "op_p90_ref", "op_p99_ref",
                 "ref_unit_ms", "raw_pass_s",
                 "raw_op_p50_ms", "raw_op_p90_ms", "raw_op_p99_ms",
                 "raw_ops_per_s", "raw_alt_ops_per_s"):
        values[f"bench.{name}"] = untraced[name]
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise RuntimeError(f"uncatalogued per-layer metrics: {sorted(unknown)}")
    return values


def _traced_run(args, workload, untraced,
                timing: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
    """Repeat the untraced passes under spans; per-layer metrics + failures."""
    from perfbench.machine import machine_info
    from perfbench.tracing import (
        Patcher, SpanRecorder, install_layer_spans, leftover_wrappers,
        write_trace,
    )

    recorder = SpanRecorder()
    patcher = Patcher(recorder)
    workload.clock.recorder = recorder
    try:
        install_layer_spans(patcher)
        traced = _run_passes(workload, 0.0, count=len(untraced))
    finally:
        patcher.restore()
        workload.clock.recorder = None
    failures = [f for p in traced for f in p.failures]
    leftovers = leftover_wrappers()
    if leftovers:
        failures.append(f"span wrappers left installed: {leftovers}")
    if _digest(traced) != _digest(untraced):
        failures.append("traced passes changed the simulated results")
    trace_path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
    problems = write_trace(recorder, trace_path, {
        "workload": args.workload, "seed": args.seed,
        "machine": machine_info(),
    })
    failures += [f"invalid Chrome trace: {p}" for p in problems[:5]]
    print(f"trace: {trace_path.relative_to(ROOT)} "
          f"({len(recorder.spans)} spans, {recorder.dropped} not exported)")
    timing = dict(timing, untraced_wall_s=_op_seconds(untraced))
    sim = workload.sim_layers(traced)
    return _per_layer(recorder, workload.clock, timing, traced, sim), failures


def main(argv=None) -> int:
    args = _parse(argv)
    # One caller, one BLAS thread: on a shared two-core box a second
    # OpenBLAS thread mostly adds run-to-run noise.  Set before NumPy
    # loads; setup processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.machine import machine_info
    from perfbench.metrics import END_TO_END, PER_LAYER, with_units
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, work_dir).setup()
            print(json.dumps({"ready": time.time()}))
            return 0
        setup = [] if args.trace else _setup_samples(args)
        workload = make_workload(args.workload, args.seed, work_dir)
        workload.setup()
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = _run_passes(workload, budget)
        failures = [f for p in untraced for f in p.failures]
        attempted = sum(p.attempted for p in untraced)
        final = workload.final_checks(untraced)
        failures += final
        attempted += 1
        timing = _timing(untraced, workload.clock)
        if args.trace:
            values, traced_failures = _traced_run(args, workload, untraced,
                                                  timing)
            failures += traced_failures
            attempted += 1
            catalogue = PER_LAYER
        else:
            values = _end_to_end(timing, setup)
            catalogue = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(untraced)} ops={timing['op_samples']}")
    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"sim digest: {_digest(untraced)}")
    print("raw wall: " + ", ".join(
        f"{name}={timing[name]:.6g}" for name in sorted(timing)))
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}")
    metrics = with_units(values, catalogue)
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
