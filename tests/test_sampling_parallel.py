"""Parallel sampling factors: a forked child changes no report.

``SamplingPhase.run`` profiles the smallest factor inline as a probe
and, when the probe predicts enough work, forks one child for the
middle factors while this process profiles the largest.  These tests
force each path through the module's gate constant
(``FORK_MIN_CHILD_S``: 0 always forks, infinity never does) and check
that both reproduce the golden digests, the serial noise stream and the
serial error text.  A spy on ``_profile_with_child`` records every
fork, so a test that needs one proves it happened.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import time

import pytest

from repro.config import SystemConfig
from repro.errors import SamplingError
from repro.lang.program import Program
from repro.parallel import fork_context
from repro.runtime import sampling
from repro.runtime.activepy import ActivePy
from repro.runtime.profiler import LineRecord, payload_nbytes
from repro.runtime.sampling import SampleSeries, SamplingPhase
from repro.workloads import get_workload

from .conftest import _k_scan, make_toy_dataset, make_toy_program
from .test_sampling_golden import GOLDEN, SCALE, report_digest

ALWAYS, NEVER = 0.0, math.inf


@pytest.fixture
def forks(monkeypatch):
    """Child-run lists of every fork the sampling phase makes."""
    seen = []
    real = sampling._profile_with_child

    def spy(context, profile, child_runs, parent_run, factors):
        seen.append(list(child_runs))
        return real(context, profile, child_runs, parent_run, factors)

    monkeypatch.setattr(sampling, "_profile_with_child", spy)
    return seen


def require_fork():
    if fork_context() is None or threading.active_count() != 1:
        pytest.skip("this process may not fork (no fork start method, "
                    "or a second thread is alive)")


@pytest.mark.parametrize("gate", [ALWAYS, NEVER], ids=["fork", "inline"])
def test_both_paths_reproduce_the_golden_digests(gate, forks, monkeypatch):
    if gate == ALWAYS:
        require_fork()
    monkeypatch.setattr(sampling, "FORK_MIN_CHILD_S", gate)
    for name in sorted(GOLDEN):
        assert report_digest(name) == GOLDEN[name], name
    assert forks == ([[1, 2]] * len(GOLDEN) if gate == ALWAYS else [])


def _serial_oracle(profiler, program, dataset):
    """The serial phase's series and cost, one scalar jitter draw at a time."""
    config = profiler.config
    rng = profiler._noise_rng

    def jitter():
        return max(0.1, 1.0 + rng.normal(0.0, config.profiler_noise))

    series = [SampleSeries(index=i, name=s.name) for i, s in enumerate(program)]
    total = 0.0
    for factor in config.sampling_factors:
        sample = dataset.sample(factor)
        n, payload, previous = sample.n_records, sample.payload, 0.0
        records = []
        for index, statement in enumerate(program):
            payload = statement.kernel(payload)
            output = payload_nbytes(payload)
            storage = statement.storage_bytes(n)
            compute = statement.instructions(n) / config.host_ips * jitter()
            data = storage / config.bw_host_storage * jitter()
            records.append(LineRecord(index, statement.name, n, compute, data,
                                      previous, output, storage))
            previous = output
        total += sum(r.compute_seconds + r.data_access_seconds for r in records)
        for record in records:
            series[record.index].add(record)
    return series, total


@pytest.mark.parametrize("gate", [ALWAYS, NEVER], ids=["fork", "inline"])
def test_noisy_runs_equal_the_serial_stream(gate, forks, monkeypatch):
    if gate == ALWAYS:
        require_fork()
    monkeypatch.setattr(sampling, "FORK_MIN_CHILD_S", gate)
    config = SystemConfig(profiler_noise=0.05)
    workload = get_workload("kmeans", scale=SCALE)
    runtime = ActivePy(config)
    oracle = SamplingPhase(config).profiler
    for _ in range(2):
        report = runtime.run(workload.program, workload.dataset).sampling
        series, total = _serial_oracle(oracle, workload.program, workload.dataset)
        assert report.series == series
        assert report.sampling_seconds == total
    # The generator ends where the serial draws left it.
    profiler = runtime._sampling_phase.profiler
    assert (profiler._noise_rng.bit_generator.state
            == oracle._noise_rng.bit_generator.state)
    assert len(forks) == (2 if gate == ALWAYS else 0)


DATASET = make_toy_dataset()


def _sample_size(factor: float) -> int:
    return round(DATASET.full_records * factor)


def _failing_program(fail_factors, action="raise") -> Program:
    """The toy program with a scan that fails at the given factors' sizes."""
    sizes = {_sample_size(f) for f in fail_factors}

    def scan(p):
        if p["x"].size in sizes:
            if action == "exit":
                os._exit(3)
            raise ValueError(f"bad sample of {p['x'].size}")
        return _k_scan(p)

    statements = list(make_toy_program())
    statements[0] = dataclasses.replace(statements[0], kernel=scan)
    return Program("toy-failing", statements)


def _error_text(program) -> str:
    with pytest.raises(SamplingError) as info:
        SamplingPhase(SystemConfig()).run(program, DATASET)
    return str(info.value)


@pytest.mark.parametrize("fail_factors", [
    (2**-8,), (2**-8, 2**-7), (2**-7,),
], ids=["child", "child-and-parent", "parent"])
def test_a_failing_factor_raises_the_serial_error(fail_factors, forks,
                                                  monkeypatch):
    require_fork()
    program = _failing_program(fail_factors)
    monkeypatch.setattr(sampling, "FORK_MIN_CHILD_S", NEVER)
    serial = _error_text(program)
    monkeypatch.setattr(sampling, "FORK_MIN_CHILD_S", ALWAYS)
    assert _error_text(program) == serial
    assert f"{_sample_size(min(fail_factors))}-record sample" in serial
    assert forks == [[1, 2]]


def test_a_dead_child_raises_naming_its_factors(forks, monkeypatch):
    require_fork()
    monkeypatch.setattr(sampling, "FORK_MIN_CHILD_S", ALWAYS)
    text = _error_text(_failing_program((2**-9,), action="exit"))
    assert "2^-9, 2^-8" in text and "died" in text and "exit code 3" in text
    assert forks == [[1, 2]]


def test_the_default_gate_keeps_small_scales_inline():
    # The probe is the wall time of profiling the smallest factor, so
    # take each program's best of five: one stall on a loaded host must
    # not decide the test.  The first run in a process also pays one-off
    # warm-ups inside the kernels (lightgbm trains its model on first
    # use), which the warm-up run below absorbs.
    factors = SystemConfig().sampling_factors
    profiler = SamplingPhase(SystemConfig()).profiler
    for name in sorted(GOLDEN):
        workload = get_workload(name, scale=SCALE)
        timings = []
        for _ in range(6):
            start = time.perf_counter()
            profiler.profile(workload.program, workload.dataset.sample(factors[0]))
            timings.append(time.perf_counter() - start)
        assert sampling._fork_context(min(timings[1:]), factors) is None, name


def test_no_fork_while_another_thread_is_alive(forks, monkeypatch):
    monkeypatch.setattr(sampling, "FORK_MIN_CHILD_S", ALWAYS)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        workload = get_workload("pagerank", scale=SCALE)
        report = SamplingPhase(SystemConfig()).run(workload.program,
                                                   workload.dataset)
    finally:
        release.set()
        other.join()
    assert forks == []
    assert len(report.series[0].n_values) == 4
