"""End-to-end data integrity: silent faults, digests, and the guarantee.

Three layers under test:

* the **fault surface** — the silent-corruption kinds, their specs, and
  the hardware taint hooks they arm;
* the **integrity layer** (`repro.integrity`) — verify costs, detection
  bookkeeping, and the taint-ledger digest;
* the **guarantee** — with the layer on, every corrupted run either
  matches the fault-free baseline or records a detection; with it off,
  corruption demonstrably reaches the report (and the chaos invariant
  `corruption-detected-before-report` says so).
"""

import dataclasses

import pytest

from repro.chaos import CampaignConfig, ChaosHarness
from repro.chaos.invariants import check_invariants, run_signature
from repro.config import DEFAULT_CONFIG
from repro.errors import FaultError, IntegrityError
from repro.faults.spec import (
    FAULT_KIND_INFO,
    FLEET_KINDS,
    LOUD_KINDS,
    SILENT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.hw.topology import build_machine
from repro.integrity import CLEAN_DIGEST, IntegrityChecker
from repro.obs import Observability
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.checkpoint import CheckpointRecord, decode_record, encode_record
from repro.workloads import get_workload

SCALE = 2 ** -7

INTEGRITY_ON = dataclasses.replace(DEFAULT_CONFIG, integrity_enabled=True)
NO_VERIFY = dataclasses.replace(
    DEFAULT_CONFIG, integrity_enabled=True, integrity_verify=False
)


def _run(config, workload_name="tpch_q6", plan=None, obs=None):
    workload = get_workload(workload_name, scale=SCALE)
    machine = build_machine(config, obs=obs)
    return ActivePy(config).run(
        workload.program, workload.dataset, machine=machine,
        options=RunOptions(fault_plan=plan, obs=obs),
    )


def _harness(config):
    return ChaosHarness(CampaignConfig(system_config=config, scale=SCALE,
                                       fault_count=1, collect_metrics=False))


def _silent_nand_plan(baseline, count=2, persistent=False):
    return FaultPlan(seed=1, specs=(FaultSpec(
        kind=FaultKind.NAND_SILENT_CORRUPTION,
        at_time=0.5 * baseline.total_seconds,
        count=count,
        persistent=persistent,
    ),))


# --- the fault catalogue ----------------------------------------------------

class TestFaultCatalogue:
    def test_info_covers_every_kind(self):
        assert set(FAULT_KIND_INFO) == set(FaultKind)
        for description, target in FAULT_KIND_INFO.values():
            assert description and target

    def test_kind_classes_partition_the_enum(self):
        classes = (set(LOUD_KINDS), set(SILENT_KINDS), set(FLEET_KINDS))
        union = set()
        for kinds in classes:
            assert not union & kinds
            union |= kinds
        assert union == set(FaultKind)

    def test_loud_and_silent_pools_are_frozen(self):
        """Growing the enum must never reshuffle pre-existing seeds.

        These two tuples are the historical plan pools; new kinds (the
        fleet-level ones included) must land in their own class, never
        here.  The exact contents are pinned on purpose.
        """
        assert tuple(k.value for k in LOUD_KINDS) == (
            "nand-read-correctable", "nand-read-uncorrectable",
            "nvme-completion-loss", "nvme-completion-delay",
            "nvme-queue-stall", "cse-crash", "link-degrade",
            "checkpoint-torn-write",
        )
        assert tuple(k.value for k in SILENT_KINDS) == (
            "nand-silent-corruption", "bar-transfer-corruption",
            "checkpoint-silent-bitrot",
        )

    def test_default_random_pool_excludes_silent_kinds(self):
        """Growing the enum must never reshuffle plans from old seeds."""
        for seed in range(20):
            plan = FaultPlan.random(seed=seed, horizon_s=1.0, count=4)
            assert all(spec.kind in LOUD_KINDS for spec in plan)

    def test_widened_pool_reaches_silent_kinds(self):
        kinds = set()
        for seed in range(40):
            plan = FaultPlan.random(
                seed=seed, horizon_s=1.0, count=4,
                kinds=LOUD_KINDS + SILENT_KINDS,
            )
            kinds.update(spec.kind for spec in plan)
        assert kinds >= set(SILENT_KINDS)

    def test_bar_corruption_requires_link_target(self):
        with pytest.raises(FaultError, match="BAR_TRANSFER_CORRUPTION"):
            FaultSpec(kind=FaultKind.BAR_TRANSFER_CORRUPTION, at_time=0.1,
                      target="csd")


#: One representative, valid spec per kind — every field exercised
#: somewhere across the set.
_ROUND_TRIP_SPECS = {
    FaultKind.NAND_READ_CORRECTABLE: FaultSpec(
        kind=FaultKind.NAND_READ_CORRECTABLE, at_time=0.25, retries=5),
    FaultKind.NAND_READ_UNCORRECTABLE: FaultSpec(
        kind=FaultKind.NAND_READ_UNCORRECTABLE, at_time=0.5, persistent=True),
    FaultKind.NVME_COMPLETION_LOSS: FaultSpec(
        kind=FaultKind.NVME_COMPLETION_LOSS, at_time=0.75, count=2),
    FaultKind.NVME_COMPLETION_DELAY: FaultSpec(
        kind=FaultKind.NVME_COMPLETION_DELAY, at_time=1.0, duration_s=0.02),
    FaultKind.NVME_QUEUE_STALL: FaultSpec(
        kind=FaultKind.NVME_QUEUE_STALL, at_time=1.25, duration_s=0.1),
    FaultKind.CSE_CRASH: FaultSpec(
        kind=FaultKind.CSE_CRASH, at_time=1.5, duration_s=0.3),
    FaultKind.LINK_DEGRADE: FaultSpec(
        kind=FaultKind.LINK_DEGRADE, at_time=1.75, target="remote-access",
        duration_s=0.4, factor=0.25),
    FaultKind.CHECKPOINT_TORN_WRITE: FaultSpec(
        kind=FaultKind.CHECKPOINT_TORN_WRITE, at_time=2.0, count=3),
    FaultKind.NAND_SILENT_CORRUPTION: FaultSpec(
        kind=FaultKind.NAND_SILENT_CORRUPTION, at_time=2.25, count=2,
        persistent=True),
    FaultKind.BAR_TRANSFER_CORRUPTION: FaultSpec(
        kind=FaultKind.BAR_TRANSFER_CORRUPTION, at_time=2.5, target="d2h",
        count=2),
    FaultKind.CHECKPOINT_SILENT_BITROT: FaultSpec(
        kind=FaultKind.CHECKPOINT_SILENT_BITROT, at_time=2.75, count=2),
    FaultKind.DEVICE_LOST_MID_JOB: FaultSpec(
        kind=FaultKind.DEVICE_LOST_MID_JOB, at_time=3.0, target="csd1",
        duration_s=0.5),
    FaultKind.TENANT_FAULT_INJECTION: FaultSpec(
        kind=FaultKind.TENANT_FAULT_INJECTION, at_time=3.25,
        target="tenant-a", duration_s=0.4, count=2),
}


class TestSpecRoundTrip:
    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
    def test_every_kind_round_trips(self, kind):
        spec = _ROUND_TRIP_SPECS[kind]
        assert FaultSpec.from_jsonable(spec.to_jsonable()) == spec

    def test_round_trip_specs_cover_the_enum(self):
        assert set(_ROUND_TRIP_SPECS) == set(FaultKind)

    def test_plan_round_trips_with_seed(self):
        plan = FaultPlan(
            seed=99, specs=tuple(_ROUND_TRIP_SPECS.values()),
        )
        clone = FaultPlan.from_jsonable(plan.to_jsonable())
        assert clone == plan
        assert clone.seed == 99

    def test_jsonable_is_json_safe(self):
        import json

        plan = FaultPlan(seed=7, specs=tuple(_ROUND_TRIP_SPECS.values()))
        assert FaultPlan.from_jsonable(
            json.loads(json.dumps(plan.to_jsonable()))
        ) == plan


# --- hardware taint hooks ---------------------------------------------------

class TestHardwareHooks:
    def test_flash_silent_corruption_counts_down(self):
        flash = build_machine().csd.flash
        flash.arm_silent_corruption(count=2)
        assert flash.consume_silent_corruption()
        assert flash.consume_silent_corruption()
        assert not flash.consume_silent_corruption()
        assert flash.silent_corrupted_reads == 2

    def test_flash_persistent_corruption_never_drains(self):
        flash = build_machine().csd.flash
        flash.arm_silent_corruption(count=1, persistent=True)
        assert all(flash.consume_silent_corruption() for _ in range(5))
        flash.clear_silent_corruption()
        assert not flash.consume_silent_corruption()

    def test_link_transfer_corruption_counts_down(self):
        link = build_machine().d2h_link
        link.arm_transfer_corruption(2)
        assert link.transfer_corruption_armed
        assert link.consume_transfer_corruption()
        assert link.consume_transfer_corruption()
        assert not link.consume_transfer_corruption()
        assert link.corrupted_transfers == 2

    def test_bitrot_defeats_crc_but_not_no_validate(self):
        area = build_machine().csd.checkpoints
        record = CheckpointRecord(
            generation=0, line_index=1, next_chunk=4,
            live_vars=("acc",), sim_time=0.5,
        )
        area.write(0, encode_record(record), None)
        area.next_generation = 1
        assert area.rot_committed(1) == 1
        blob = area.read(0)
        # CRC validation rejects the rotted record outright...
        assert decode_record(blob, validate=True) is None
        # ...while the planted no-validate bug trusts a scrambled cursor.
        trusted = decode_record(blob, validate=False)
        assert trusted is not None
        assert trusted.next_chunk != record.next_chunk

    def test_bitrot_with_no_committed_record(self):
        area = build_machine().csd.checkpoints
        assert area.rot_committed(1) == 0


# --- the IntegrityChecker ---------------------------------------------------

class TestIntegrityChecker:
    def _checker(self, config):
        machine = build_machine(config)
        return machine, IntegrityChecker(
            config=config, clock=machine.simulator.clock,
        )

    def test_disabled_charges_nothing(self):
        machine, checker = self._checker(DEFAULT_CONFIG)
        before = machine.simulator.now
        assert checker.charge_verify(10 ** 9) == 0.0
        assert machine.simulator.now == before
        assert checker.verified_bytes == 0.0

    def test_enabled_charges_bandwidth_cost(self):
        machine, checker = self._checker(INTEGRITY_ON)
        nbytes = 2.0 * INTEGRITY_ON.integrity_verify_bandwidth
        seconds = checker.charge_verify(nbytes)
        assert seconds == pytest.approx(2.0)
        assert machine.simulator.now == pytest.approx(2.0)
        assert checker.verified_bytes == nbytes

    def test_digest_ledger_is_last_writer_wins(self):
        _, checker = self._checker(INTEGRITY_ON)
        assert checker.digest() == CLEAN_DIGEST
        checker.record_unit("line0.chunk1", tainted=True)
        dirty = checker.digest()
        assert dirty != CLEAN_DIGEST
        # Another unit's taint changes the digest again...
        checker.record_unit("final.output", tainted=True)
        assert checker.digest() not in (CLEAN_DIGEST, dirty)
        # ...and healing both returns exactly to clean.
        checker.record_unit("line0.chunk1", tainted=False)
        checker.record_unit("final.output", tainted=False)
        assert checker.digest() == CLEAN_DIGEST
        assert checker.missed == 2  # taints were ground-truth misses

    def test_raise_mismatch_raises_and_logs(self):
        _, checker = self._checker(INTEGRITY_ON)
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            checker.raise_mismatch("csd", "line0.chunk0: content digest mismatch")
        assert checker.detected == 1
        events = checker.fault_log.events
        assert any(e.action == "integrity-detected" for e in events)


# --- end to end: the guarantee ---------------------------------------------

class TestEndToEnd:
    def test_unprotected_corruption_reaches_the_report_for_free(self):
        """Integrity off: the digest changes, the simulated time does not."""
        baseline = _run(DEFAULT_CONFIG)
        faulted = _run(DEFAULT_CONFIG, plan=_silent_nand_plan(baseline))
        assert baseline.result.output_digest == CLEAN_DIGEST
        assert faulted.result.output_digest != CLEAN_DIGEST
        # The defining property of a *silent* fault — and of the
        # disabled integrity layer: zero simulated overhead, exactly.
        assert faulted.total_seconds == baseline.total_seconds
        assert faulted.result.integrity_stats["missed"] == 2
        assert faulted.result.integrity_stats["detected"] == 0

    def test_protected_corruption_is_detected_and_healed(self):
        baseline = _run(INTEGRITY_ON)
        faulted = _run(INTEGRITY_ON, plan=_silent_nand_plan(baseline))
        stats = faulted.result.integrity_stats
        assert stats["detected"] == 2
        assert stats["missed"] == 0
        assert faulted.result.output_digest == CLEAN_DIGEST
        assert faulted.result.chunk_replays >= 2
        actions = [e.action for e in faulted.result.fault_events]
        assert "integrity-detected" in actions
        assert "chunk-replay" in actions

    def test_persistent_corruption_escalates_to_host_fallback(self):
        baseline = _run(INTEGRITY_ON)
        faulted = _run(
            INTEGRITY_ON,
            plan=_silent_nand_plan(baseline, count=1, persistent=True),
        )
        # Replays keep re-reading flipped bits; the host replica is clean.
        assert faulted.result.degraded
        assert faulted.result.output_digest == CLEAN_DIGEST
        actions = [e.action for e in faulted.result.fault_events]
        assert "host-fallback" in actions

    def test_link_corruption_is_reread_inline(self):
        baseline = _run(INTEGRITY_ON)
        plan = FaultPlan(seed=2, specs=(FaultSpec(
            kind=FaultKind.BAR_TRANSFER_CORRUPTION,
            at_time=0.5 * baseline.total_seconds,
            target="d2h",
        ),))
        faulted = _run(INTEGRITY_ON, plan=plan)
        assert faulted.result.output_digest == CLEAN_DIGEST
        assert faulted.result.integrity_stats["detected"] >= 1
        # The re-read costs link time: the run is strictly slower.
        assert faulted.total_seconds > baseline.total_seconds

    def test_no_verify_pays_for_digests_it_never_compares(self):
        baseline = _run(NO_VERIFY)
        faulted = _run(NO_VERIFY, plan=_silent_nand_plan(baseline))
        stats = faulted.result.integrity_stats
        assert stats["verified_bytes"] > 0          # the cost is still paid
        assert stats["detected"] == 0               # nothing is caught
        assert faulted.result.output_digest != CLEAN_DIGEST

    def test_verify_cost_lands_in_the_integrity_component(self):
        obs = Observability.with_attribution()
        report = _run(INTEGRITY_ON, obs=obs)
        attribution = obs.attribution_report()
        integrity_s = attribution.seconds_by_component.get("integrity", 0.0)
        assert integrity_s > 0.0
        expected = report.result.integrity_stats["verify_seconds"]
        assert integrity_s == pytest.approx(expected)

    def test_disabled_layer_emits_no_metrics(self):
        obs = Observability()
        _run(DEFAULT_CONFIG, obs=obs)
        counters = obs.snapshot()["counters"]
        assert not any(name.startswith("integrity.") for name in counters)


# --- the chaos invariant ----------------------------------------------------

class TestCorruptionInvariant:
    def test_signature_includes_the_output_digest(self):
        report = _run(DEFAULT_CONFIG)
        signature = run_signature(report)
        assert signature[-1] == report.result.output_digest

    def test_undetected_corruption_violates(self):
        harness = _harness(DEFAULT_CONFIG)
        baseline = harness.baseline("tpch_q6")
        plan = _silent_nand_plan(baseline)
        outcome = harness.run_plan("tpch_q6", plan)
        names = {violation.name for violation in outcome.violations}
        assert "corruption-detected-before-report" in names
        assert "result-equality" in names

    def test_detected_corruption_does_not_violate(self):
        harness = _harness(INTEGRITY_ON)
        baseline = harness.baseline("tpch_q6")
        plan = _silent_nand_plan(baseline)
        outcome = harness.run_plan("tpch_q6", plan)
        assert outcome.ok, "; ".join(v.render() for v in outcome.violations)

    def test_loud_faults_keep_matching_the_baseline_signature(self):
        """Recovered loud runs still match — the digest never perturbs
        result-equality for runs whose data stayed clean."""
        harness = _harness(DEFAULT_CONFIG)
        baseline = harness.baseline("tpch_q6")
        plan = FaultPlan(seed=3, specs=(FaultSpec(
            kind=FaultKind.CSE_CRASH,
            at_time=0.5 * baseline.total_seconds,
            duration_s=0.0,
        ),))
        outcome = harness.run_plan("tpch_q6", plan)
        assert outcome.ok, "; ".join(v.render() for v in outcome.violations)

    def test_baseline_satisfies_invariants_with_integrity_on(self):
        workload = get_workload("tpch_q6", scale=SCALE)
        harness = _harness(INTEGRITY_ON)
        baseline = harness.baseline("tpch_q6")
        assert check_invariants(baseline, baseline, workload.program) == []


# --- the CLI ----------------------------------------------------------------

class TestCli:
    def test_faults_list_prints_every_kind(self, capsys):
        from repro.cli import main

        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for kind in FaultKind:
            assert kind.value in out

    def test_chaos_replay_no_verify_fails_and_sdc_passes(self, capsys):
        from repro.cli import main

        argv = ["chaos", "--workload", "kmeans", "--seed", "5",
                "--fault-count", "3", "--scale", str(SCALE), "--sdc"]
        assert main(argv + ["--no-verify"]) == 1
        out = capsys.readouterr().out
        assert "corruption-detected-before-report" in out
        assert main(argv) == 0
        assert "all invariants held" in capsys.readouterr().out
