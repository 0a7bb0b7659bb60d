"""The benchmark's own tests: ``python -m pytest perfbench -q``.

Tiny-scale smokes of every workload, traced-equals-untraced simulated
results, wrapper removal after a traced run, and the contract between
the metric catalogue and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import metrics, tracing, workloads
from perfbench.run import ROOT, _digest

TINY = 2 ** -6


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Workloads shrunk to seconds, with caches under ``tmp_path``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
    monkeypatch.setattr(workloads, "COLD_SCALE", TINY)
    monkeypatch.setattr(workloads, "CHAOS_RUNS", 4)
    monkeypatch.setattr(workloads, "FLEET_CAMPAIGN",
                        replace(workloads.FLEET_CAMPAIGN, runs=2))
    monkeypatch.setattr(workloads, "FLEET_JOBS_OFF", 300)
    monkeypatch.setattr(workloads, "FLEET_CALLS_OFF", 2)
    monkeypatch.setattr(workloads, "FLEET_JOBS_ON", 200)

    def make(name: str, seed: int = 3):
        workload = workloads.make_workload(name, seed, tmp_path / name)
        workload.setup()
        return workload

    return make


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_every_check(tiny, name):
    workload = tiny(name)
    first, second = workload.run_pass(0), workload.run_pass(1)
    for done in (first, second):
        assert done.failures == []
        assert done.attempted > 0 and done.primary and done.alt
        assert done.primary_units > 0 and done.alt_units > 0
        assert all(start < end for start, end in done.primary + done.alt)
    if name != "cold_suite":  # the selfcheck pins hold at scale 1.0 only
        assert workload.final_checks([first, second]) == []


def test_pass_index_fixes_the_simulated_work(tiny):
    workload = tiny("chaos_campaign")
    assert _digest([workload.run_pass(0)]) == _digest([workload.run_pass(0)])
    assert _digest([workload.run_pass(0)]) != _digest([workload.run_pass(1)])


@pytest.mark.parametrize("name", ["cold_suite", "fleet_serve"])
def test_traced_pass_matches_untraced_and_unwraps(tiny, name):
    import repro.runtime.activepy as activepy
    from repro.hw import topology
    from repro.runtime import estimator

    workload = tiny(name)
    untraced = workload.run_pass(0)
    recorder = tracing.SpanRecorder()
    patcher = tracing.Patcher(recorder)
    try:
        tracing.install_layer_spans(patcher)
        assert tracing.leftover_wrappers()  # installed, and detectable
        traced = workload.run_pass(0)
    finally:
        patcher.restore()
    assert _digest([traced]) == _digest([untraced])
    assert traced.failures == []
    assert recorder.calls["runtime.activepy.run"] > 0
    assert tracing.leftover_wrappers() == []
    assert activepy.build_estimates is estimator.build_estimates
    assert activepy.build_machine is topology.build_machine


def test_self_times_and_uncovered_time_add_up_to_the_wall():
    recorder = tracing.SpanRecorder()
    for _ in range(3):
        recorder.enter("outer")
        recorder.enter("inner")
        recorder.enter("inner")  # recursion: inclusive time counted once
        recorder.exit()
        recorder.exit()
        recorder.exit()
    assert sum(recorder.self_s.values()) == pytest.approx(recorder.top_level_s)
    assert recorder.inclusive_s["inner"] <= recorder.inclusive_s["outer"]
    assert recorder.calls == {"outer": 3, "inner": 6}
    trace = recorder.to_chrome_trace({"workload": "unit"})
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(trace) == []


def test_catalogue_matches_benchmark_json_and_the_package():
    from repro import workload_names
    from repro.obs.attribution import COMPONENTS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.PER_LAYER
    assert sorted(metrics.PROGRAMS) == sorted(workload_names())
    assert metrics.COMPONENTS == COMPONENTS


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
