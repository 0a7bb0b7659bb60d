"""The chaos campaign subsystem: invariants, shrinking, campaigns.

The expensive end-to-end facts (200-run campaign clean, planted bug
caught at a specific seed) are exercised at small scale here; CI's
chaos smoke job runs the CLI on fixed seeds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import (
    CampaignConfig,
    ChaosHarness,
    check_invariants,
    run_campaign,
    shrink_plan,
)
from repro.chaos.campaign import replay_command
from repro.config import DEFAULT_CONFIG
from repro.faults import FaultKind, FaultPlan, FaultSpec

#: Small scale so each seeded run is milliseconds.
SCALE = 2 ** -7

#: The planted-bug reproduction discovered by the acceptance campaign:
#: seed 157 on kmeans (at the default campaign scale 2**-6) tears three
#: checkpoint writes and permanently crashes the CSE two chunks later.
PLANTED_WORKLOAD = "kmeans"
PLANTED_SEED = 157
PLANTED_SCALE = 2 ** -6

BUGGED_CONFIG = dataclasses.replace(DEFAULT_CONFIG, checkpoint_validate=False)


@pytest.fixture(scope="module")
def harness():
    return ChaosHarness(CampaignConfig(scale=SCALE, fault_count=3,
                                       collect_metrics=False))


class TestInvariants:
    def test_fault_free_run_has_no_violations(self, harness):
        baseline = harness.baseline("tpch_q6")
        from repro.workloads import get_workload

        program = get_workload("tpch_q6", scale=SCALE).program
        assert check_invariants(baseline, baseline, program) == []

    def test_seeded_run_judged_against_baseline(self, harness):
        outcome = harness.run_seed("tpch_q6", 3)
        assert outcome.ok
        assert len(outcome.plan) == 3

    def test_work_conservation_catches_a_doctored_ledger(self, harness):
        import copy

        from repro.workloads import get_workload

        baseline = harness.baseline("tpch_q6")
        program = get_workload("tpch_q6", scale=SCALE).program
        doctored = copy.deepcopy(baseline)
        doctored.result.chunks_executed[0] = 1
        violations = check_invariants(doctored, baseline, program)
        assert any(v.name == "work-conservation" for v in violations)

    def test_legal_degradation_catches_unflagged_fallback(self, harness):
        import copy

        from repro.workloads import get_workload

        baseline = harness.baseline("tpch_q6")
        program = get_workload("tpch_q6", scale=SCALE).program
        doctored = copy.deepcopy(baseline)
        doctored.result.degraded = False
        doctored.result.fault_events = list(doctored.result.fault_events)
        from repro.faults.log import FaultEvent

        doctored.result.fault_events.append(FaultEvent(
            time=0.0, kind="recovery", target="csd",
            action="host-fallback", detail="doctored",
        ))
        violations = check_invariants(doctored, baseline, program)
        assert any(v.name == "legal-degradation" for v in violations)


class TestDeterminism:
    def test_same_seed_same_outcome(self, harness):
        first = harness.run_seed("blackscholes", 11)
        second = harness.run_seed("blackscholes", 11)
        assert first.plan == second.plan
        assert first.violations == second.violations
        assert first.degraded == second.degraded
        assert first.fault_event_count == second.fault_event_count


class TestShrink:
    def _predicate(self, marker_kinds):
        """Reproduces iff the plan still contains every marker kind."""
        def reproduces(plan):
            kinds = [spec.kind for spec in plan.specs]
            return all(kind in kinds for kind in marker_kinds)
        return reproduces

    def _plan(self, *kinds):
        return FaultPlan(specs=tuple(
            FaultSpec(kind=kind, at_time=float(index + 1),
                      duration_s=1.0 if kind in (
                          FaultKind.NVME_QUEUE_STALL,
                          FaultKind.NVME_COMPLETION_DELAY,
                      ) else 0.0)
            for index, kind in enumerate(kinds)
        ), seed=42)

    def test_shrinks_to_the_single_culprit(self):
        plan = self._plan(
            FaultKind.NAND_READ_CORRECTABLE,
            FaultKind.CSE_CRASH,
            FaultKind.NVME_COMPLETION_LOSS,
            FaultKind.NVME_QUEUE_STALL,
        )
        result = shrink_plan(plan, self._predicate([FaultKind.CSE_CRASH]))
        assert [spec.kind for spec in result.minimal.specs] == [FaultKind.CSE_CRASH]
        assert not result.budget_exhausted

    def test_shrunk_plan_is_one_minimal(self):
        markers = [FaultKind.CSE_CRASH, FaultKind.NVME_COMPLETION_LOSS]
        plan = self._plan(
            FaultKind.NAND_READ_CORRECTABLE,
            FaultKind.CSE_CRASH,
            FaultKind.NAND_READ_UNCORRECTABLE,
            FaultKind.NVME_COMPLETION_LOSS,
            FaultKind.NVME_COMPLETION_DELAY,
        )
        predicate = self._predicate(markers)
        result = shrink_plan(plan, predicate)
        assert sorted(spec.kind.value for spec in result.minimal.specs) == sorted(
            kind.value for kind in markers
        )
        # removing any single remaining fault stops reproduction
        specs = result.minimal.specs
        for drop in range(len(specs)):
            smaller = FaultPlan(specs=specs[:drop] + specs[drop + 1:])
            assert not predicate(smaller)

    def test_refuses_a_non_reproducing_plan(self):
        plan = self._plan(FaultKind.NAND_READ_CORRECTABLE)
        with pytest.raises(ValueError):
            shrink_plan(plan, lambda candidate: False)

    def test_probe_budget_is_respected(self):
        plan = self._plan(*([FaultKind.NAND_READ_CORRECTABLE] * 8))
        result = shrink_plan(plan, lambda candidate: len(candidate) >= 1,
                             max_probes=3)
        assert result.probes <= 3
        assert result.budget_exhausted


class TestCampaign:
    def test_small_clean_campaign_holds(self):
        config = CampaignConfig(
            runs=6, workloads=("tpch_q6", "blackscholes"), scale=SCALE,
        )
        result = run_campaign(config)
        assert result.ok
        assert result.runs == 6
        assert result.violations == 0
        assert "all invariants held" in result.render()

    def test_campaign_rotation_and_seeds(self):
        config = CampaignConfig(
            runs=4, workloads=("tpch_q6", "blackscholes"), base_seed=10,
            scale=SCALE,
        )
        result = run_campaign(config)
        assert [o.workload for o in result.outcomes] == [
            "tpch_q6", "blackscholes", "tpch_q6", "blackscholes",
        ]
        assert [o.seed for o in result.outcomes] == [10, 11, 12, 13]

    def test_planted_bug_is_caught_and_shrunk(self):
        """The acceptance demo: with CRC validation off, the campaign
        seed containing torn-write + permanent-crash produces a
        work-conservation violation, and shrinking reduces the 3-fault
        plan to the reproducing core."""
        config = CampaignConfig(
            runs=1,
            workloads=(PLANTED_WORKLOAD,),
            base_seed=PLANTED_SEED,
            scale=PLANTED_SCALE,
            system_config=BUGGED_CONFIG,
        )
        result = run_campaign(config)
        assert not result.ok
        failure = result.failures[0]
        assert any(
            v.name == "work-conservation" for v in failure.outcome.violations
        )
        kinds = {spec.kind for spec in failure.shrink.minimal.specs}
        assert FaultKind.CHECKPOINT_TORN_WRITE in kinds
        assert len(failure.shrink.minimal) < len(failure.outcome.plan)
        assert f"--seed {PLANTED_SEED}" in failure.replay_command
        assert "--no-validate" in failure.replay_command

    def test_planted_seed_is_clean_with_validation_on(self):
        harness = ChaosHarness(CampaignConfig(
            scale=PLANTED_SCALE, fault_count=3, collect_metrics=False,
        ))
        outcome = harness.run_seed(PLANTED_WORKLOAD, PLANTED_SEED)
        assert outcome.ok
        assert outcome.degraded  # the crash still demotes the run

    def test_replay_command_round_trips_the_failure(self):
        harness = ChaosHarness(CampaignConfig(
            system_config=BUGGED_CONFIG, scale=PLANTED_SCALE, fault_count=3,
            collect_metrics=False,
        ))
        outcome = harness.run_seed(PLANTED_WORKLOAD, PLANTED_SEED)
        assert not outcome.ok
        command = replay_command(
            outcome,
            CampaignConfig(scale=PLANTED_SCALE, system_config=BUGGED_CONFIG),
        )
        assert command == (
            f"python -m repro chaos --workload {PLANTED_WORKLOAD} "
            f"--seed {PLANTED_SEED} --fault-count 3 --no-validate"
        )
