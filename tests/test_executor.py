"""Plan execution: timing fidelity, transfers, migration paths."""

import pytest

from repro.errors import ConfigError, MigrationError, ProgramError
from repro.hw.topology import build_machine
from repro.runtime.activepy import run_plan
from repro.runtime.codegen import CodeGenerator, ExecutionMode
from repro.runtime.executor import PlanExecutor
from repro.runtime.planner import CSD, HOST, Plan, assign_csd_code, host_only_plan
from repro.baselines import ground_truth_estimates

from .conftest import make_toy_dataset, make_toy_program

N = 2_000_000


def compiled_for(machine, assignments, config, mode=ExecutionMode.C):
    program = make_toy_program()
    estimates = ground_truth_estimates(program, N, config)
    plan = Plan(
        assignments=assignments,
        t_host=sum(e.ct_host for e in estimates),
        t_csd=0.0,
        estimates=tuple(estimates),
    )
    return CodeGenerator(config).generate(machine, program, plan, mode)


class TestHostOnlyTiming:
    def test_matches_analytic_time(self, config, machine):
        compiled = compiled_for(machine, [HOST, HOST, HOST], config)
        result = PlanExecutor(machine, migration_enabled=False).execute(compiled, N)
        program = make_toy_program()
        expected = sum(
            s.instructions(N) / config.host_ips for s in program
        ) + program[0].storage_bytes(N) / config.bw_host_storage
        # Chunked storage reads add per-chunk link latency.
        slack = 70 * config.link_latency_s
        assert result.total_seconds == pytest.approx(expected, abs=slack + 1e-6)

    def test_line_timings_cover_program(self, config, machine):
        compiled = compiled_for(machine, [HOST, HOST, HOST], config)
        result = PlanExecutor(machine, migration_enabled=False).execute(compiled, N)
        assert [t.name for t in result.line_timings] == ["scan", "crunch", "reduce"]
        assert all(t.actual_location == HOST for t in result.line_timings)
        assert result.total_seconds == pytest.approx(
            sum(t.seconds for t in result.line_timings)
        )


class TestCsdExecution:
    def test_offload_beats_host_for_reducing_scan(self, config):
        host_machine = build_machine(config)
        host_result = PlanExecutor(host_machine, migration_enabled=False).execute(
            compiled_for(host_machine, [HOST, HOST, HOST], config), N
        )
        csd_machine = build_machine(config)
        csd_result = PlanExecutor(csd_machine, migration_enabled=False).execute(
            compiled_for(csd_machine, [CSD, CSD, CSD], config), N
        )
        assert csd_result.total_seconds < host_result.total_seconds

    def test_boundary_transfer_charged(self, config, machine):
        compiled = compiled_for(machine, [CSD, HOST, HOST], config)
        result = PlanExecutor(machine, migration_enabled=False).execute(compiled, N)
        # The scan's 4 B/record output crosses back to the host.
        assert result.d2h_bytes >= 4.0 * N

    def test_final_csd_value_returns_to_host(self, config, machine):
        compiled = compiled_for(machine, [CSD, CSD, CSD], config)
        result = PlanExecutor(machine, migration_enabled=False).execute(compiled, N)
        assert result.d2h_bytes >= 8.0  # the reduce scalar

    def test_status_updates_posted_per_chunk(self, config, machine):
        compiled = compiled_for(machine, [CSD, HOST, HOST], config)
        result = PlanExecutor(machine, migration_enabled=False).execute(compiled, N)
        assert result.status_updates == make_toy_program()[0].chunks

    def test_cse_counters_charged(self, config, machine):
        compiled = compiled_for(machine, [CSD, HOST, HOST], config)
        PlanExecutor(machine, migration_enabled=False).execute(compiled, N)
        assert machine.csd.cse.counters.retired_instructions == pytest.approx(
            40.0 * N, rel=1e-9
        )


class TestMigration:
    def test_degraded_cse_triggers_migration(self, config, machine):
        compiled = compiled_for(machine, [CSD, CSD, HOST], config)
        executor = PlanExecutor(machine, migration_enabled=True)
        result = executor.execute(
            compiled, N, progress_triggers=[(0.25, 0.05)]
        )
        assert result.migrated
        event = result.migrations[0]
        assert event.projected_host_seconds < event.projected_device_seconds
        # Everything after the break point ran on the host.
        migrated_line = result.line_timings[event.line_index]
        assert migrated_line.migrated_mid_line
        for timing in result.line_timings[event.line_index + 1:]:
            assert timing.actual_location == HOST

    def test_migration_beats_staying(self, config):
        stay_machine = build_machine(config)
        stay = PlanExecutor(stay_machine, migration_enabled=False).execute(
            compiled_for(stay_machine, [CSD, CSD, HOST], config),
            N, progress_triggers=[(0.25, 0.05)],
        )
        move_machine = build_machine(config)
        move = PlanExecutor(move_machine, migration_enabled=True).execute(
            compiled_for(move_machine, [CSD, CSD, HOST], config),
            N, progress_triggers=[(0.25, 0.05)],
        )
        assert move.total_seconds < stay.total_seconds

    def test_healthy_run_never_migrates(self, config, machine):
        compiled = compiled_for(machine, [CSD, CSD, HOST], config)
        result = PlanExecutor(machine, migration_enabled=True).execute(compiled, N)
        assert not result.migrated

    def test_mild_degradation_stays_on_csd(self, config, machine):
        # At 90% availability, finishing on the device is still cheaper
        # than paying compile + state + remote access.
        compiled = compiled_for(machine, [CSD, CSD, HOST], config)
        result = PlanExecutor(machine, migration_enabled=True).execute(
            compiled, N, progress_triggers=[(0.25, 0.9)]
        )
        assert not result.migrated

    def test_high_priority_request_forces_migration(self, config, machine):
        compiled = compiled_for(machine, [CSD, CSD, HOST], config)
        machine.csd.cse.schedule_high_priority_request(at_time=0.05)
        result = PlanExecutor(machine, migration_enabled=True).execute(compiled, N)
        assert result.migrated
        assert "high-priority" in result.migrations[0].reason
        assert not machine.csd.cse.high_priority_pending  # acknowledged

    def test_remote_access_charged_after_migration(self, config, machine):
        compiled = compiled_for(machine, [CSD, CSD, HOST], config)
        result = PlanExecutor(machine, migration_enabled=True).execute(
            compiled, N, progress_triggers=[(0.3, 0.05)]
        )
        assert result.migrated
        if result.migrations[0].line_index == 1:
            # crunch's device-resident input read over the BAR path.
            assert result.remote_access_bytes > 0

    def test_migration_requires_estimates(self, config, machine):
        program = make_toy_program()
        plan = Plan(assignments=[CSD, HOST, HOST], t_host=1.0, t_csd=1.0)
        compiled = CodeGenerator(config).generate(
            machine, program, plan, ExecutionMode.C
        )
        with pytest.raises(MigrationError):
            PlanExecutor(machine, migration_enabled=True).execute(compiled, N)


class TestValidation:
    def test_zero_records_rejected(self, config, machine):
        compiled = compiled_for(machine, [HOST, HOST, HOST], config)
        with pytest.raises(ProgramError):
            PlanExecutor(machine, migration_enabled=False).execute(compiled, 0)

    def test_bad_progress_trigger_rejected_before_any_line(self, config, machine):
        compiled = compiled_for(machine, [CSD, CSD, HOST], config)
        executor = PlanExecutor(machine, migration_enabled=False)
        before = machine.now
        with pytest.raises(ConfigError):
            executor.execute(compiled, N, progress_triggers=((0.5, 0.0),))
        assert machine.now == before
        assert executor.dispatcher.status_updates == 0
        assert machine.csd.cse.availability == 1.0

    def test_run_plan_helper(self, config, machine):
        program = make_toy_program()
        dataset = make_toy_dataset()
        machine.csd.store_dataset(dataset.name, dataset.raw_bytes)
        estimates = ground_truth_estimates(program, dataset.n_records, config)
        result = run_plan(
            machine=machine, program=program, plan=host_only_plan(estimates),
            dataset=dataset, mode=ExecutionMode.C,
        )
        assert result.total_seconds > 0
