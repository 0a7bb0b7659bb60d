"""The common report protocol: summary()/to_jsonable() everywhere."""

import json

import pytest

from repro.analysis.export import ReportLike, dumps, to_jsonable
from repro.analysis.timeline import ExecutionTimeline
from repro.chaos import ChaosRunOutcome
from repro.chaos.campaign import CampaignConfig, CampaignResult
from repro.faults import FaultPlan
from repro.fleet import (
    Fleet,
    FleetCampaignConfig,
    FleetCampaignResult,
    FleetChaosOutcome,
    FleetConfig,
    SloSnapshot,
    TenantSpec,
)
from repro.runtime.activepy import ActivePy
from repro.workloads import get_workload

_SCALE = 2 ** -7


def _report():
    workload = get_workload("tpch_q6", scale=_SCALE)
    return ActivePy().run(workload.program, workload.dataset)


def _outcome(**overrides):
    fields = dict(
        workload="tpch_q6",
        seed=7,
        plan=FaultPlan(()),
        violations=(),
        degraded=False,
        fault_event_count=3,
    )
    fields.update(overrides)
    return ChaosRunOutcome(**fields)


class TestProtocolSpeakers:
    def test_report_types_satisfy_protocol(self):
        report = _report()
        assert isinstance(report, ReportLike)
        assert isinstance(report.result, ReportLike)
        assert isinstance(_outcome(), ReportLike)
        assert isinstance(CampaignResult(config=CampaignConfig()), ReportLike)

    def test_timeline_keeps_its_dedicated_branch(self):
        # ExecutionTimeline has summary() but no to_jsonable(); it must
        # keep hitting its own export branch, not the protocol.
        assert not isinstance(ExecutionTimeline(), ReportLike)
        timeline = ExecutionTimeline()
        timeline.record(0.0, 1.0, "host", "compute", "scan")
        assert to_jsonable(timeline)["experiment"] == "timeline"

    def test_dispatch_uses_protocol_and_serialises(self):
        report = _report()
        data = to_jsonable(report)
        assert data["experiment"] == "activepy-run"
        assert data["result"]["experiment"] == "execution-result"
        # summary() keys are a subset of the full view.
        assert set(report.summary()) <= set(data)
        json.loads(dumps(report))  # round-trips through real JSON

    def test_outcome_and_campaign_serialise(self):
        outcome = _outcome(metrics={"counters": {"x": 1.0}})
        data = to_jsonable(outcome)
        assert data["experiment"] == "chaos-run"
        assert data["fault_event_count"] == 3
        assert data["metrics"]["counters"]["x"] == 1.0
        campaign = CampaignResult(config=CampaignConfig(), outcomes=[outcome])
        payload = json.loads(dumps(campaign))
        assert payload["experiment"] == "chaos-campaign"
        assert payload["outcomes"][0]["seed"] == 7


class TestFleetReportsSpeakTheProtocol:
    @pytest.fixture(scope="class")
    def fleet_report(self):
        config = FleetConfig(
            device_count=2,
            tenants=(TenantSpec(name="t", rate_jobs_per_s=8.0,
                                admission_rate=1000.0, admission_burst=64,
                                queue_limit=256),),
            job_count=6,
            scale=2 ** -6,
        )
        return Fleet(config).run()

    def test_fleet_report_satisfies_protocol(self, fleet_report):
        assert isinstance(fleet_report, ReportLike)
        data = to_jsonable(fleet_report)
        assert data["experiment"] == "fleet-run"
        assert set(fleet_report.summary()) <= set(data)
        payload = json.loads(dumps(fleet_report))
        assert payload["device_count"] == 2
        assert len(payload["outcomes"]) == 6

    def test_slo_snapshots_round_trip(self, fleet_report):
        assert fleet_report.slos
        for snapshot in fleet_report.slos:
            assert isinstance(snapshot, ReportLike)
            payload = json.loads(dumps(snapshot))
            assert payload["experiment"] == "fleet-tenant-slo"
            assert payload["tenant"] == snapshot.tenant
            assert payload["queue_wait_p99_s"] == pytest.approx(
                snapshot.queue_wait_p99_s
            )

    def test_chaos_outcome_and_campaign_satisfy_protocol(self):
        outcome = FleetChaosOutcome(
            seed=3, plan=FaultPlan(()), violations=(),
            completed=5, degraded=1, shed=0, makespan_s=1.5,
        )
        assert isinstance(outcome, ReportLike)
        assert to_jsonable(outcome)["experiment"] == "fleet-chaos-run"
        result = FleetCampaignResult(
            config=FleetCampaignConfig(runs=1), outcomes=[outcome],
        )
        assert isinstance(result, ReportLike)
        payload = json.loads(dumps(result))
        assert payload["experiment"] == "fleet-chaos-campaign"
        assert payload["outcomes"][0]["seed"] == 3


class TestRenamedAttributeShim:
    def test_new_name_does_not_warn(self, recwarn):
        assert _outcome().fault_event_count == 3
        assert not [w for w in recwarn if w.category is DeprecationWarning]
