"""Failure injection: the stack must fail loudly and stay consistent."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import (
    AllocationError,
    FlashError,
    SamplingError,
)
from repro.hw.topology import build_machine
from repro.lang.dataset import Dataset
from repro.lang.program import Program, Statement, constant, per_record
from repro.runtime.activepy import ActivePy, RunOptions
from repro.storage.ftl import PageMappingFTL
from repro.storage.nand import FlashArray, FlashGeometry
from repro.units import MIB

from .conftest import make_toy_dataset, make_toy_program


class TestSamplingFailures:
    def test_kernel_crash_on_one_factor_aborts_cleanly(self, config):
        calls = {"count": 0}

        def flaky(p):
            calls["count"] += 1
            if calls["count"] == 3:  # dies on the third sample run
                raise RuntimeError("segfault in native kernel")
            return {"x": p["x"]}

        program = Program("flaky", [
            Statement("flaky", flaky, per_record(1), per_record(8),
                      storage_bytes=per_record(8)),
        ])
        with pytest.raises(SamplingError, match="flaky"):
            ActivePy(config).run(program, make_toy_dataset())

    def test_kernel_returning_garbage_rejected(self, config):
        program = Program("bad", [
            Statement("bad", lambda p: None, per_record(1), constant(8)),
        ])
        with pytest.raises(SamplingError):
            ActivePy(config).run(program, make_toy_dataset())


class TestDeviceMemoryExhaustion:
    def test_bar_window_exhaustion_surfaces_as_allocation_error(self, config):
        # A device with almost no DRAM cannot receive the binaries.
        tiny = config.replace(device_dram_bytes=0.05 * MIB)
        machine = build_machine(tiny)
        with pytest.raises(AllocationError):
            ActivePy(tiny).run(
                make_toy_program(), make_toy_dataset(), machine=machine
            )

    def test_machine_survives_failed_run(self, config):
        tiny = config.replace(device_dram_bytes=0.05 * MIB)
        machine = build_machine(tiny)
        with pytest.raises(AllocationError):
            ActivePy(tiny).run(
                make_toy_program(), make_toy_dataset(), machine=machine
            )
        # The same machine still executes a host-only baseline.
        from repro.baselines import run_c_baseline

        result = run_c_baseline(
            make_toy_program(), make_toy_dataset(), config=tiny, machine=machine
        )
        assert result.total_seconds > 0


class TestFlashExhaustion:
    def test_ftl_without_overprovision_eventually_fails_loudly(self):
        array = FlashArray(FlashGeometry(
            channels=1, blocks_per_channel=2, pages_per_block=4,
        ))
        # Zero overprovision and a full logical space: churn must end in
        # a FlashError, never silent corruption.
        ftl = PageMappingFTL(array, gc_threshold_blocks=1,
                             overprovision_fraction=0.0)
        with pytest.raises(FlashError):
            for i in range(100):
                ftl.write(i % ftl.logical_pages)

    def test_mappings_stay_consistent_up_to_the_failure(self):
        array = FlashArray(FlashGeometry(
            channels=1, blocks_per_channel=2, pages_per_block=4,
        ))
        ftl = PageMappingFTL(array, gc_threshold_blocks=1,
                             overprovision_fraction=0.0)
        written = []
        try:
            for i in range(100):
                ftl.write(i % ftl.logical_pages)
                written.append(i % ftl.logical_pages)
        except FlashError:
            pass
        for lpn in set(written[:-1]):
            if ftl.is_mapped(lpn):
                ftl.read(lpn)  # must not raise


class TestDegenerateInputs:
    def test_single_line_program_runs(self, config):
        program = Program("one", [
            Statement(
                "only",
                lambda p: {"s": float(np.sum(p["x"]))},
                per_record(10), constant(8), storage_bytes=per_record(64),
            ),
        ])
        report = ActivePy(config).run(program, make_toy_dataset())
        assert report.result.total_seconds > 0

    def test_pure_compute_program_stays_on_host(self, config):
        # No storage access anywhere: ISP has nothing to offer, and the
        # plan must say so.
        program = Program("compute", [
            Statement("a", lambda p: p, per_record(100), per_record(64)),
            Statement("b", lambda p: p, per_record(100), per_record(64)),
        ])
        report = ActivePy(config).run(program, make_toy_dataset())
        assert report.plan.assignments == ["host", "host"]

    def test_extremely_skewed_chunk_counts(self, config):
        program = Program("chunky", [
            Statement(
                "scan",
                lambda p: {"y": p["x"][:1]},
                per_record(40), constant(8),
                storage_bytes=per_record(64), chunks=500,
            ),
        ])
        report = ActivePy(config).run(program, make_toy_dataset())
        assert report.result.status_updates in (0, 500)

    def test_stress_while_everything_on_host_is_harmless(self, config):
        program = Program("compute", [
            Statement("a", lambda p: p, per_record(100), per_record(64)),
        ])
        report = ActivePy(config).run(
            program, make_toy_dataset(), options=RunOptions(progress_triggers=((0.5, 0.01),))
        )
        assert not report.result.migrated
