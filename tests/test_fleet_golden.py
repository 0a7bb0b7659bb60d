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
was changed to scan back from the newest point.
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
    "off": "dae06202ff8d3eb6de45703a7c58e4cb2a7e0951c18f259fc35284ecd9cd51fe",
    "on": "e2950128f8f9b7d18010a93f8ff0dbe505d6ad6d7b79b6a3efc080e2e11080e2",
    "ring64": "68c271d7adc18199e0f1453e699744f7c6f7039c1b173a7b4c0b25a01d9c987b",
    "ring4": "b9283cca3324f810c2eaf72d0290048ce0c5866f4db2cb36c751c6a439c06528",
}


def canonical_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_report(case: str):
    capacity = CAPACITY[case]
    obs = (
        Observability.with_timeseries(window_s=WINDOW_S, capacity=capacity)
        if capacity is not None else None
    )
    config = FleetConfig(
        job_count=JOBS, seed=0, plan=FaultPlan(specs=(LOSS,), seed=0),
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
