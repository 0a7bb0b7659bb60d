"""Migration resume correctness against the checkpoint protocol.

The paper resumes a migrated line "at a Python-line boundary from
shared memory".  These tests pin what that means under PR 2's protocol:
the break chunk comes from the BAR checkpoint record when one is valid,
from the surviving generation when the newest write was torn, and from
a whole-line restart when nothing trustworthy covers the line — never
from a value that skips work.
"""

from __future__ import annotations

import dataclasses

from repro.config import SystemConfig
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions

from .conftest import make_toy_dataset, make_toy_program

#: Throttle the CSE to 5% once the offloaded work is half done — the
#: congestion scenario that reliably drives a mid-line migration.
CONGESTION = [(0.5, 0.05)]


def _run(config: SystemConfig, fault_plan=None, triggers=CONGESTION):
    machine = build_machine(config)
    report = ActivePy(config).run(
        make_toy_program(), make_toy_dataset(), machine=machine,
        options=RunOptions(progress_triggers=tuple(triggers)),
        fault_plan=fault_plan,
    )
    return report


def _assert_work_conserved(result):
    for index, statement in enumerate(make_toy_program()):
        assert result.chunks_executed[index] >= statement.chunks, (
            f"line {index} executed {result.chunks_executed[index]} of "
            f"{statement.chunks} chunks"
        )


class TestResumeWithValidCheckpoint:
    def test_congestion_migration_resumes_from_the_record(self, config):
        report = _run(config)
        result = report.result
        assert result.migrated
        event = result.migrations[0]
        # the record and the host counter agree in the clean case, and
        # the event carries the checkpoint-read cursor
        assert event.resume_chunk == event.chunk
        assert result.checkpoint_stats["restores"] >= 1
        assert result.checkpoint_stats["restarts"] == 0
        _assert_work_conserved(result)

    def test_migration_outcome_matches_checkpointing_disabled(self, config):
        """With no faults the record equals the host counter, so the
        migrated run's timing must be identical either way."""
        with_ckpt = _run(config)
        without = _run(dataclasses.replace(config, checkpoint_enabled=False))
        assert with_ckpt.result.migrated and without.result.migrated
        assert without.result.migrations[0].resume_chunk == -1
        assert without.total_seconds == with_ckpt.total_seconds


class TestResumeWithoutValidCheckpoint:
    def _migration_time(self, config):
        baseline = _run(config)
        assert baseline.result.migrated
        return baseline, baseline.result.migrations[0].sim_time

    def test_torn_record_falls_back_to_previous_generation(self, config):
        """A torn newest record costs one replayed chunk, nothing more."""
        baseline, _ = self._migration_time(config)
        event = baseline.result.migrations[0]
        # The break-boundary save happens one status-message latency
        # before the migration decision, which itself precedes the
        # event's (post-cost) timestamp; arm the tear just before it.
        save_at = (
            event.sim_time - event.cost_seconds
            - config.effective_link_latency_s
        )
        plan = FaultPlan(specs=(
            FaultSpec(kind=FaultKind.CHECKPOINT_TORN_WRITE,
                      at_time=save_at - 1e-9, count=1),
        ))
        report = _run(config, fault_plan=plan)
        result = report.result
        assert result.migrated
        stats = result.checkpoint_stats
        assert stats["torn_writes"] == 1
        assert stats["fallbacks"] >= 1
        # the surviving generation is one chunk behind the host counter
        faulted = result.migrations[0]
        assert faulted.resume_chunk == faulted.chunk - 1
        _assert_work_conserved(result)
        # resuming from the older generation replays work, so the total
        # chunk count can only grow vs the clean migrated run
        assert sum(result.chunks_executed.values()) >= sum(
            baseline.result.chunks_executed.values()
        )

    def test_both_slots_torn_restarts_the_line(self, config):
        """With every write torn, resume degrades to chunk 0 — the
        line replays wholesale rather than trusting garbage."""
        _, migrate_at = self._migration_time(config)
        plan = FaultPlan(specs=(
            FaultSpec(kind=FaultKind.CHECKPOINT_TORN_WRITE,
                      at_time=0.0, count=10_000),
        ))
        report = _run(config, fault_plan=plan)
        result = report.result
        stats = result.checkpoint_stats
        assert stats["torn_writes"] > 0
        if result.migrated:
            assert result.migrations[0].resume_chunk == 0
            assert stats["restarts"] >= 1
        _assert_work_conserved(result)

    def test_restart_resume_is_never_later_than_the_counter(self, config):
        """The checkpoint path may replay chunks the host thinks are
        done, never skip ahead of them."""
        plan = FaultPlan(specs=(
            FaultSpec(kind=FaultKind.CHECKPOINT_TORN_WRITE,
                      at_time=0.0, count=10_000),
        ))
        report = _run(config, fault_plan=plan)
        for event in report.result.migrations:
            assert 0 <= event.resume_chunk <= event.chunk
