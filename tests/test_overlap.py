"""Overlapped I/O-and-compute execution model."""

import pytest

from repro.config import SystemConfig
from repro.hw.compute import ComputeUnit
from repro.hw.interconnect import Link
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions
from repro.sim.clock import SimClock
from repro.baselines import run_c_baseline

from .conftest import make_toy_dataset, make_toy_program


class TestPrimitives:
    def test_link_account_keeps_time_still(self):
        link = Link("l", bandwidth=1e9, clock=SimClock())
        link.account(5e8)
        assert link.clock.now == 0.0
        assert link.bytes_transferred == 5e8
        assert link.transfers == 1

    def test_unit_charge_books_counters_without_clock(self):
        unit = ComputeUnit("host", ips=8e9, clock=SimClock(), clock_hz=4e9)
        unit.charge(8e9, elapsed=2.0)
        assert unit.clock.now == 0.0
        assert unit.counters.retired_instructions == 8e9
        assert unit.counters.busy_seconds == 2.0

    def test_charge_validates(self):
        unit = ComputeUnit("host", ips=8e9, clock=SimClock())
        with pytest.raises(Exception):
            unit.charge(-1, 1.0)


class TestOverlappedExecution:
    def test_overlap_never_slower(self):
        sequential = run_c_baseline(
            make_toy_program(), make_toy_dataset(),
            config=SystemConfig(overlap_io_compute=False),
        )
        overlapped = run_c_baseline(
            make_toy_program(), make_toy_dataset(),
            config=SystemConfig(overlap_io_compute=True),
        )
        assert overlapped.total_seconds <= sequential.total_seconds

    def test_overlap_bounded_by_dominant_term(self, config):
        # For the io-dominated scan line, overlapping hides the whole
        # compute term: the line costs ~the storage streaming time.
        overlap = SystemConfig(overlap_io_compute=True)
        result = run_c_baseline(
            make_toy_program(), make_toy_dataset(), config=overlap,
        )
        n = make_toy_dataset().n_records
        io_seconds = 64.0 * n / overlap.bw_host_storage
        assert result.seconds_for("scan") == pytest.approx(io_seconds, rel=0.02)

    def test_traffic_accounting_identical_either_way(self, config):
        seq_machine = build_machine(SystemConfig(overlap_io_compute=False))
        run_c_baseline(make_toy_program(), make_toy_dataset(),
                       config=seq_machine.config, machine=seq_machine)
        ovl_machine = build_machine(SystemConfig(overlap_io_compute=True))
        run_c_baseline(make_toy_program(), make_toy_dataset(),
                       config=ovl_machine.config, machine=ovl_machine)
        assert (
            ovl_machine.host_storage_link.bytes_transferred
            == seq_machine.host_storage_link.bytes_transferred
        )

    def test_activepy_still_profits_with_overlap(self):
        # Overlap helps both sides; the bandwidth asymmetry that powers
        # ISP remains, so the win shrinks but survives.
        overlap = SystemConfig(overlap_io_compute=True)
        baseline = run_c_baseline(
            make_toy_program(), make_toy_dataset(), config=overlap,
        )
        report = ActivePy(overlap).run(make_toy_program(), make_toy_dataset())
        assert baseline.total_seconds / report.total_seconds > 1.0

    def test_migration_still_works_with_overlap(self):
        overlap = SystemConfig(overlap_io_compute=True)
        report = ActivePy(overlap).run(
            make_toy_program(), make_toy_dataset(),
            options=RunOptions(progress_triggers=((0.3, 0.05),)),
        )
        assert report.result.total_seconds > 0  # completes either way
