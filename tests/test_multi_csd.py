"""Multiple CSDs on one machine: placement-aware offload."""

import pytest

from repro.config import SystemConfig
from repro.errors import HardwareError, StorageError
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.planner import CSD

from .conftest import make_toy_dataset, make_toy_program


class TestTopology:
    def test_devices_named_distinctly(self):
        machine = build_machine(num_csds=3)
        assert [d.name for d in machine.csds] == ["csd", "csd1", "csd2"]
        assert machine.csd is machine.csds[0]

    def test_each_device_has_own_bar_window(self):
        machine = build_machine(num_csds=2)
        assert machine.space.region_named("csd.bar").location == "csd"
        assert machine.space.region_named("csd1.bar").location == "csd1"

    def test_unit_named_resolves_all_devices(self):
        machine = build_machine(num_csds=2)
        assert machine.unit_named("csd1") is machine.csds[1].cse
        assert machine.device_named("csd1") is machine.csds[1]
        with pytest.raises(KeyError):
            machine.device_named("csd9")

    def test_device_holding(self):
        machine = build_machine(num_csds=2)
        machine.csds[1].store_dataset("edges", 1e9)
        assert machine.device_holding("edges") is machine.csds[1]
        with pytest.raises(StorageError):
            machine.device_holding("nope")

    def test_zero_devices_rejected(self):
        with pytest.raises(HardwareError):
            build_machine(num_csds=0)

    def test_reset_counters_covers_all_devices(self):
        machine = build_machine(num_csds=2)
        machine.csds[1].cse.execute(1e9)
        machine.reset_counters()
        assert machine.csds[1].cse.counters.retired_instructions == 0


class TestPlacementAwareOffload:
    def test_offload_targets_the_device_holding_the_data(self, config):
        machine = build_machine(config, num_csds=2)
        dataset = make_toy_dataset()
        machine.csds[1].store_dataset(dataset.name, dataset.raw_bytes)
        report = ActivePy(config).run(make_toy_program(), dataset, machine=machine)
        assert CSD in report.plan.assignments
        # Work landed on csd1's engine, not the primary's.
        assert machine.csds[1].cse.counters.retired_instructions > 0
        assert machine.csds[0].cse.counters.retired_instructions == 0
        # And the binaries live in csd1's BAR.
        assert "toy.scan" in machine.csds[1].bar.installed_binaries
        assert "toy.scan" not in machine.csds[0].bar.installed_binaries

    def test_unplaced_dataset_defaults_to_primary(self, config):
        machine = build_machine(config, num_csds=2)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        assert machine.csds[0].cse.counters.retired_instructions > 0
        del report

    def test_congestion_on_one_device_leaves_the_other_alone(self, config):
        # Two programs, two devices: throttling csd leaves csd1's run
        # unaffected — the isolation multi-device deployments buy.
        machine_a = build_machine(config, num_csds=2)
        machine_a.csds[1].store_dataset("toy.data", make_toy_dataset().raw_bytes)
        healthy = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine_a
        )

        machine_b = build_machine(config, num_csds=2)
        machine_b.csds[1].store_dataset("toy.data", make_toy_dataset().raw_bytes)
        machine_b.csds[0].cse.set_availability(0.05)  # other tenant's device
        unaffected = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine_b
        )
        assert unaffected.total_seconds == pytest.approx(
            healthy.total_seconds, rel=1e-9
        )

    def test_migration_still_works_on_secondary_device(self, config):
        machine = build_machine(config, num_csds=2)
        dataset = make_toy_dataset()
        machine.csds[1].store_dataset(dataset.name, dataset.raw_bytes)
        report = ActivePy(config).run(
            make_toy_program(), dataset, machine=machine,
            options=RunOptions(progress_triggers=((0.3, 0.05),)),
        )
        if CSD in report.plan.assignments:
            assert report.result.migrated
