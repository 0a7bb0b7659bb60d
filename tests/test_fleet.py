"""The fleet scheduler end to end: placement, failover, degradation."""

import json

import pytest

from repro.analysis.export import dumps
from repro.config import DEFAULT_CONFIG
from repro.errors import FaultError, FleetError
from repro.faults import FaultInjector
from repro.faults.spec import FLEET_KINDS, FaultKind, FaultPlan, FaultSpec
from repro.fleet import (
    Fleet,
    FleetConfig,
    ProfileStore,
    TenantSpec,
    device_names,
)
from repro.fleet.admission import (
    SHED_NO_DEVICES,
    SHED_OVERLOAD,
    SHED_RATE_LIMITED,
    SHED_RETRY_BUDGET,
)
from repro.hw.topology import build_machine

_SCALE = 2 ** -6


@pytest.fixture(scope="module")
def store():
    """One profile store for the whole module: inner runs paid once."""
    return ProfileStore(system_config=DEFAULT_CONFIG, scale=_SCALE)


def _tenant(name="t", rate=8.0, **overrides):
    fields = dict(name=name, rate_jobs_per_s=rate, admission_rate=1000.0,
                  admission_burst=64, queue_limit=256)
    fields.update(overrides)
    return TenantSpec(**fields)


def _config(**overrides):
    fields = dict(
        device_count=2,
        tenants=(_tenant(),),
        job_count=12,
        seed=0,
        scale=_SCALE,
        overload_watermark=1000,
    )
    fields.update(overrides)
    return FleetConfig(**fields)


class TestFaultFreeFleet:
    def test_every_job_completes(self, store):
        report = Fleet(_config(), profiles=store).run()
        assert report.completed == 12
        assert report.degraded == 0
        assert report.shed == 0
        assert all(o.status == "completed" for o in report.outcomes)
        assert all(o.device in device_names(2) for o in report.outcomes)

    def test_deterministic_end_to_end(self, store):
        first = Fleet(_config(seed=5), profiles=store).run()
        second = Fleet(_config(seed=5), profiles=store).run()
        assert dumps(first) == dumps(second)

    def test_signatures_match_fault_free_baselines(self, store):
        report = Fleet(_config(), profiles=store).run()
        for outcome in report.outcomes:
            expected = store.baseline(outcome.workload).signature
            assert tuple(outcome.signature) == tuple(expected)

    def test_auto_resolved_tenants_get_weighted_rates(self, store):
        config = _config(tenants=(
            TenantSpec(name="big", weight=3.0),
            TenantSpec(name="small", weight=1.0),
        ))
        resolved = Fleet(config, profiles=store).resolve_tenants()
        by_name = {t.name: t for t in resolved}
        assert by_name["big"].rate_jobs_per_s == pytest.approx(
            3.0 * by_name["small"].rate_jobs_per_s
        )


class TestDeviceLossFailover:
    def _loss_config(self, store, max_retries=3):
        # Aim the loss at the midpoint of a job observed on a clean run,
        # so the device is guaranteed to be busy when it dies.
        clean = Fleet(_config(), profiles=store).run()
        victim = clean.outcomes[0]
        midpoint = (victim.first_dispatch_time + victim.finish_time) / 2.0
        plan = FaultPlan(specs=(FaultSpec(
            kind=FaultKind.DEVICE_LOST_MID_JOB,
            at_time=midpoint,
            target=victim.device,
        ),))
        return _config(plan=plan, max_retries=max_retries), victim

    def test_interrupted_job_fails_over_and_degrades(self, store):
        config, victim = self._loss_config(store)
        report = Fleet(config, profiles=store).run()
        outcome = next(o for o in report.outcomes
                       if o.job_id == victim.job_id)
        assert outcome.status == "degraded"
        assert outcome.retries == 1
        assert outcome.device != victim.device  # survivor, not the corpse
        # Failover preserves the result: baseline signature, always.
        assert tuple(outcome.signature) == tuple(
            store.baseline(outcome.workload).signature
        )
        assert report.shed == 0
        assert ("fleet.failovers" in json.loads(dumps(report))
                .get("metrics", {}).get("counters", {}))

    def test_resume_uses_checkpoint_boundaries(self, store):
        config, victim = self._loss_config(store)
        report = Fleet(config, profiles=store).run()
        outcome = next(o for o in report.outcomes
                       if o.job_id == victim.job_id)
        baseline = store.baseline(outcome.workload)
        # The victim had passed its first line boundary by the midpoint
        # iff a boundary <= progress exists; either way the recorded
        # resume offset must be one of the durable boundaries (or 0).
        assert outcome.resumed_from_s in (0.0, *baseline.checkpoint_boundaries)

    def test_retry_budget_exhaustion_sheds_typed(self, store):
        config, victim = self._loss_config(store, max_retries=0)
        report = Fleet(config, profiles=store).run()
        outcome = next(o for o in report.outcomes
                       if o.job_id == victim.job_id)
        assert outcome.status == "shed"
        assert outcome.reason == SHED_RETRY_BUDGET
        assert outcome.error == "FleetError"

    def test_losing_the_only_device_sheds_survivors_typed(self, store):
        clean = Fleet(_config(device_count=1), profiles=store).run()
        victim = clean.outcomes[0]
        midpoint = (victim.first_dispatch_time + victim.finish_time) / 2.0
        plan = FaultPlan(specs=(FaultSpec(
            kind=FaultKind.DEVICE_LOST_MID_JOB,
            at_time=midpoint, target="csd",
        ),))
        report = Fleet(
            _config(device_count=1, plan=plan), profiles=store,
        ).run()
        assert report.completed + report.degraded + report.shed == 12
        sheds = [o for o in report.outcomes if o.status == "shed"]
        assert sheds, "no live devices left; queued jobs must shed loudly"
        assert all(o.reason in (SHED_NO_DEVICES, SHED_RETRY_BUDGET)
                   for o in sheds)
        assert all(o.error is not None for o in sheds)

    def test_rejoin_restores_capacity(self, store):
        clean = Fleet(_config(device_count=1), profiles=store).run()
        victim = clean.outcomes[0]
        midpoint = (victim.first_dispatch_time + victim.finish_time) / 2.0
        plan = FaultPlan(specs=(FaultSpec(
            kind=FaultKind.DEVICE_LOST_MID_JOB,
            at_time=midpoint, target="csd", duration_s=0.5,
        ),))
        report = Fleet(
            _config(device_count=1, plan=plan), profiles=store,
        ).run()
        assert report.shed == 0  # everything eventually ran on the rejoin
        assert ("rejoined" in {what for _, _, what in report.device_events})


class TestGracefulDegradation:
    def test_overload_sheds_lowest_priority_first(self, store):
        config = _config(
            device_count=1,
            tenants=(
                _tenant(name="gold", rate=6.0, priority=3),
                _tenant(name="bronze", rate=6.0, priority=1),
            ),
            job_count=30,
            overload_watermark=2,
        )
        report = Fleet(config, profiles=store).run()
        overloaded = [o for o in report.outcomes
                      if o.reason == SHED_OVERLOAD]
        assert overloaded, "watermark 2 with 30 jobs on 1 device must shed"
        assert all(o.error == "AdmissionError" for o in overloaded)
        # The premium tenant is shed last: bronze absorbs the brunt of
        # the overload (gold sheds only once no bronze is queued), so
        # gold's completion rate must dominate bronze's.
        def rate(tenant, status):
            mine = [o for o in report.outcomes if o.tenant == tenant]
            hits = [o for o in mine if o.status == status]
            return len(hits) / len(mine)

        assert rate("bronze", "shed") > rate("gold", "shed")
        assert rate("gold", "completed") > rate("bronze", "completed")
        shed_tenants = [o.tenant for o in overloaded]
        assert shed_tenants.count("bronze") > shed_tenants.count("gold")

    def test_rate_limited_tenant_sheds_at_the_front_door(self, store):
        config = _config(tenants=(
            _tenant(rate=50.0, admission_rate=1.0, admission_burst=1),
        ))
        report = Fleet(config, profiles=store).run()
        limited = [o for o in report.outcomes
                   if o.reason == SHED_RATE_LIMITED]
        assert limited
        assert all(not o.admitted and o.error == "AdmissionError"
                   for o in limited)

    def test_termination_is_total_under_stress(self, store):
        config = _config(
            device_count=1,
            tenants=(_tenant(rate=40.0, queue_limit=4),),
            job_count=40,
            overload_watermark=3,
        )
        report = Fleet(config, profiles=store).run()
        assert len(report.outcomes) == 40
        statuses = {o.status for o in report.outcomes}
        assert statuses <= {"completed", "degraded", "shed"}
        for outcome in report.outcomes:
            if outcome.status == "shed":
                assert outcome.reason is not None
                assert outcome.error is not None


class TestScaleOut:
    def test_four_devices_beat_one_by_3x(self, store):
        # Same offered traffic (explicit rates), saturating arrival
        # burst: throughput scales near-linearly with devices.
        def run(devices):
            config = _config(
                device_count=devices,
                tenants=(_tenant(rate=60.0),),
                job_count=24,
            )
            return Fleet(config, profiles=store).run()

        one = run(1)
        four = run(4)
        assert one.shed == 0 and four.shed == 0
        assert (four.throughput_jobs_per_s
                >= 3.0 * one.throughput_jobs_per_s)


class TestConfigValidation:
    def test_machine_level_kinds_rejected_in_fleet_plans(self):
        plan = FaultPlan(specs=(FaultSpec(
            kind=FaultKind.CSE_CRASH, at_time=1.0,
        ),))
        with pytest.raises(FleetError, match="machine-level"):
            FleetConfig(plan=plan)

    def test_unknown_device_target_rejected(self):
        plan = FaultPlan(specs=(FaultSpec(
            kind=FaultKind.DEVICE_LOST_MID_JOB, at_time=1.0, target="csd9",
        ),))
        with pytest.raises(FleetError, match="not one of this fleet's"):
            FleetConfig(device_count=2, plan=plan)

    def test_unknown_workload_rejected_on_every_lookup(self, store):
        # The name check sits on the cache-miss path; an unknown name
        # never becomes a cache key, so a repeat lookup still raises.
        for _ in range(2):
            with pytest.raises(FleetError, match="unknown workload"):
                store.profile("no_such_workload")
        with pytest.raises(FleetError, match="unknown workload"):
            store.baseline("no_such_workload")

    def test_device_names_shape(self):
        assert device_names(3) == ("csd", "csd1", "csd2")
        with pytest.raises(FleetError):
            device_names(0)


class TestFleetKindsStayOffSingleMachines:
    @pytest.mark.parametrize("kind", FLEET_KINDS)
    def test_injector_rejects_fleet_kinds(self, kind):
        machine = build_machine()
        spec = FaultSpec(
            kind=kind, at_time=1.0,
            target="csd" if kind is FaultKind.DEVICE_LOST_MID_JOB else "t",
            duration_s=1.0,
        )
        injector = FaultInjector(machine, FaultPlan(specs=(spec,)))
        with pytest.raises(FaultError, match="fleet-level fault"):
            injector.arm()
