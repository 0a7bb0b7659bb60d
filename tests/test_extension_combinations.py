"""Extensions composed together: the features must not fight.

Each extension (multi-CSD, tenant loads, NVMe-oF, overlap, readmission,
noise) is tested alone elsewhere; these scenarios stack them.
"""

import pytest

from repro.config import SystemConfig
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions
from repro.storage.tenant import BackgroundLoad
from repro.baselines import run_c_baseline
from repro.workloads import get_workload

from .conftest import make_toy_dataset, make_toy_program


class TestStackedExtensions:
    def test_nvmeof_with_overlap_and_noise(self):
        config = SystemConfig(
            attachment="nvmeof",
            overlap_io_compute=True,
            profiler_noise=0.02,
        )
        workload = get_workload("tpch_q6")
        baseline = run_c_baseline(workload.program, workload.dataset, config=config)
        report = ActivePy(config).run(workload.program, workload.dataset)
        assert baseline.total_seconds / report.total_seconds > 1.1

    def test_multi_csd_with_tenant_on_the_other_device(self, config):
        machine = build_machine(config, num_csds=2)
        dataset = make_toy_dataset()
        machine.csds[1].store_dataset(dataset.name, dataset.raw_bytes)
        # A heavy tenant thrashes the *primary* device forever.
        BackgroundLoad(
            machine.csds[0].cse, period_s=0.5, busy_fraction=0.9,
            available_during=0.05,
        ).start()
        report = ActivePy(config).run(
            make_toy_program(), dataset, machine=machine
        )
        # Our run on csd1 neither migrates nor slows down.
        assert not report.result.migrated
        clean = ActivePy(config).run(make_toy_program(), make_toy_dataset())
        assert report.total_seconds == pytest.approx(
            clean.total_seconds, rel=1e-9
        )

    def test_readmission_with_tenant_bursts(self):
        # A burst hits mid-scan, then the tenant leaves; with
        # readmission the later planned-CSD work may return, and the
        # run must always complete sanely either way.
        config = SystemConfig(readmission_enabled=True)
        machine = build_machine(config)
        load = BackgroundLoad(
            machine.csd.cse, period_s=10.0, busy_fraction=0.04,
            available_during=0.05, start_at=0.2,
        ).start()
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        assert report.result.total_seconds > 0
        assert load.bursts_started >= 1

    def test_overlap_with_migration(self):
        config = SystemConfig(overlap_io_compute=True)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(),
            options=RunOptions(progress_triggers=((0.3, 0.05),)),
        )
        assert report.result.migrated
        baseline = run_c_baseline(
            make_toy_program(), make_toy_dataset(), config=config
        )
        # Migration still rescues the run to near-baseline.
        assert report.total_seconds < 2.0 * baseline.total_seconds

    def test_trace_with_everything_on(self):
        config = SystemConfig(
            overlap_io_compute=True, readmission_enabled=True,
            profiler_noise=0.01,
        )
        machine = build_machine(config, num_csds=2)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine,
            options=RunOptions(trace=True, progress_triggers=((0.5, 0.3),)),
        )
        assert report.timeline is not None
        assert report.timeline.makespan > 0

    def test_selfcheck_unaffected_by_extension_defaults(self):
        # All extensions default off; the pinned numbers must hold.
        from repro.analysis.selfcheck import run_selfcheck

        assert run_selfcheck().ok
