"""The executor's two rarest host fallbacks, end to end.

A queue pair that stalls for far longer than the command deadline
halfway through line 0 of ``tpch_q6`` drives the executor into two
recovery branches nothing else reaches:

* with plan ``[host, csd]`` the device refuses line 1's dispatch, so
  the whole line runs on the host (``host-fallback``);
* with plan ``[csd, csd]`` line 0's final completion never arrives, so
  after three retries the host declares the device lost and replays
  the line itself (``line-replay-host``).
"""

from __future__ import annotations

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.hw.topology import build_machine
from repro.runtime.activepy import run_plan
from repro.runtime.codegen import ExecutionMode
from repro.runtime.planner import CSD, HOST, Plan
from repro.workloads import get_workload

SCALE = 0.01


def stalled_run(assignments):
    """Run ``tpch_q6`` under ``assignments`` with a 100 s queue stall
    armed halfway through line 0 of the fault-free run."""
    workload = get_workload("tpch_q6", scale=SCALE)
    plan = Plan(
        assignments=list(assignments), t_host=0.0, t_csd=0.0,
        origin="external",
    )

    def run(fault_plan=None):
        return run_plan(
            build_machine(), workload.program, plan, workload.dataset,
            ExecutionMode.ACTIVEPY, fault_plan=fault_plan,
        )

    clean = run()
    stall_at = clean.started_at + 0.5 * clean.line_timings[0].seconds
    stall = FaultSpec(
        kind=FaultKind.NVME_QUEUE_STALL, at_time=stall_at, duration_s=100.0,
    )
    return workload, run(FaultPlan(specs=(stall,)))


def recovery_actions(result):
    return [e.action for e in result.fault_events if e.kind == "recovery"]


def assert_full_chunk_counts(workload, result):
    for index, statement in enumerate(workload.program):
        assert result.chunks_executed[index] >= statement.chunks


class TestDispatchRefused:
    def test_line_runs_on_the_host(self):
        workload, result = stalled_run([HOST, CSD])
        assert result.degraded
        fallbacks = [
            e for e in result.fault_events if e.action == "host-fallback"
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0].detail.startswith(
            "revenue_sum could not be dispatched"
        )
        assert recovery_actions(result) == ["host-fallback"]
        assert_full_chunk_counts(workload, result)
        assert result.chunks_executed == {0: 64, 1: 32}
        assert [t.actual_location for t in result.line_timings] == [HOST, HOST]
        assert not any(t.migrated_mid_line for t in result.line_timings)


class TestCompletionNeverAcknowledged:
    def test_line_is_replayed_on_the_host(self):
        workload, result = stalled_run([CSD, CSD])
        assert result.degraded
        assert recovery_actions(result) == [
            "retry", "retry", "retry", "device-dead", "line-replay-host",
        ]
        replay = result.fault_events[-1]
        assert replay.detail.startswith("scan_filter_q6 unacknowledged")
        assert_full_chunk_counts(workload, result)
        # Line 0 ran in full on the device, then again on the host.
        assert result.chunks_executed == {0: 128, 1: 32}
        assert [t.actual_location for t in result.line_timings] == [HOST, HOST]
        assert [t.migrated_mid_line for t in result.line_timings] == [
            True, False,
        ]

