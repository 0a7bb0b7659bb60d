"""Golden digests of a fleet run, with and without the flight recorder.

``Fleet.run`` turns a config into outcomes, SLO snapshots, device
events and, when a recorder is attached, a timeline and its alerts.
Reworking the fleet loop or the recorder must leave every one of those
bit-identical, so the scripted device-loss run (csd1 lost at 60 s,
rejoining at 180 s, 1000 jobs on four devices) is pinned by the
SHA-256 of its canonical ``FleetReport.to_jsonable()`` in four cases:

* ``off``: no recorder;
* ``on``: a recorder at the default ring capacity;
* ``ring64``: a 64-point ring, so the ``fleet.e2e.*`` sample rings
  wrap and evict;
* ``ring4``: a 4-point ring, so the 2 s sample horizon often reaches
  past the oldest point kept.

The digests were recorded before the recorder's per-completion window
was changed to scan back from the newest point, then re-pinned when
``makespan_s`` stopped counting the scheduled device rejoin (only the
makespan, the throughput and their two gauges moved).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.fleet import Fleet, FleetConfig
from repro.obs import Observability

JOBS = 1000
WINDOW_S = 0.25
LOSS = FaultSpec(
    kind=FaultKind.DEVICE_LOST_MID_JOB, target="csd1",
    at_time=60.0, duration_s=120.0,
)

#: Ring capacity per case; ``None`` runs without a recorder.
CAPACITY = {"off": None, "on": 4096, "ring64": 64, "ring4": 4}

GOLDEN = {
    "off": "03f214d67e47673bd2d83364758668cfaa64b57b74ff391ba41a78c4b69048e5",
    "on": "29c1e79f6fe3d797b173ca465df2e6833be72a1ba3bb3553c5cee6181ea7dc44",
    "ring64": "5873d93f93a1e4efc4fd13034b5429a1b0420c2a11c2c081ae640567a6c0329c",
    "ring4": "eb2ca0f3f7c84deca8125574fbec37c039b7b860d5b1d78dffbacca4995e45ab",
}


def canonical_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_report(case: str, jobs: int = JOBS):
    capacity = CAPACITY[case]
    obs = (
        Observability.with_timeseries(window_s=WINDOW_S, capacity=capacity)
        if capacity is not None else None
    )
    config = FleetConfig(
        job_count=jobs, seed=0, plan=FaultPlan(specs=(LOSS,), seed=0),
    )
    return Fleet(config, obs=obs).run()


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CAPACITY)


@pytest.mark.parametrize("case", sorted(CAPACITY))
def test_fleet_report_is_bit_identical(case):
    report = run_report(case)
    assert canonical_digest(report.to_jsonable()) == GOLDEN[case]
    # Each case exercises what it is named for.
    if case == "on":
        assert report.alerts
    elif case.startswith("ring"):
        for name, series in report.timeline["series"].items():
            if name.startswith("fleet.e2e."):
                assert len(series["points"]) == CAPACITY[case], name


def test_makespan_ends_at_the_last_terminal_event():
    # Both runs end long before csd1 rejoins at 180 s, so the rejoin
    # event the loop still pops must not set their makespans.
    makespans = []
    for jobs in (600, JOBS):
        report = run_report("off", jobs)
        first_arrival = min(o.arrival_time for o in report.outcomes)
        last_finish = max(o.finish_time for o in report.outcomes)
        assert report.makespan_s == last_finish - first_arrival
        assert last_finish < LOSS.at_time + LOSS.duration_s
        makespans.append(report.makespan_s)
    assert makespans[0] < makespans[1]
