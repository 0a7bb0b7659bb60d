"""Property-style sweep: every workload survives every fault kind.

For each registered workload and each fault kind, a seeded single-fault
run must end with a result whose ``degraded`` flag is a bool — an
unhandled exception is never a legal outcome — and must honour the
chaos invariants (work conservation, clock monotonicity, legal
degradation) against its fault-free baseline.
"""

from __future__ import annotations

import pytest

import dataclasses

from repro.chaos import CampaignConfig, ChaosHarness, check_invariants
from repro.config import DEFAULT_CONFIG
from repro.faults import FaultKind, FaultPlan
from repro.faults.spec import FLEET_KINDS, SILENT_KINDS
from repro.workloads import get_workload, workload_names

#: Tiny inputs: a full (workload x kind) sweep stays in seconds.
SCALE = 2 ** -7

def _harness(**knobs) -> ChaosHarness:
    return ChaosHarness(CampaignConfig(scale=SCALE, collect_metrics=False,
                                       **knobs))


_HARNESS = _harness(fault_count=1)

#: Silent-corruption kinds are only survivable with the integrity layer
#: on — that pairing is the product contract (chaos --sdc enables both).
_INTEGRITY_HARNESS = _harness(
    system_config=dataclasses.replace(DEFAULT_CONFIG, integrity_enabled=True),
    fault_count=1,
)


def _harness_for(kind: FaultKind) -> ChaosHarness:
    return _INTEGRITY_HARNESS if kind in SILENT_KINDS else _HARNESS


def _single_fault_plan(workload_name: str, kind: FaultKind, seed: int) -> FaultPlan:
    harness = _harness_for(kind)
    baseline = harness.baseline(workload_name)
    offset = 0.8 * baseline.overhead_seconds
    return FaultPlan.random(
        seed=seed,
        horizon_s=baseline.total_seconds - offset,
        count=1,
        kinds=(kind,),
        offset_s=offset,
    )


#: Fleet-level kinds are interpreted by the repro.fleet scheduler; the
#: single-machine injector refuses to arm them (tested in test_fleet),
#: so the machine-level survival sweep excludes them.
_MACHINE_KINDS = [kind for kind in FaultKind if kind not in FLEET_KINDS]


@pytest.mark.parametrize("kind", _MACHINE_KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("workload_name", workload_names())
def test_single_fault_never_escapes(workload_name, kind):
    plan = _single_fault_plan(workload_name, kind, seed=1234)
    outcome = _harness_for(kind).run_plan(workload_name, plan)
    # run_plan converts an unhandled exception into a violation; any
    # violation here is a bug in the fault-tolerant runtime
    assert outcome.ok, "; ".join(v.render() for v in outcome.violations)
    assert outcome.degraded in (True, False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_multi_fault_seeds_hold_invariants(seed):
    """A few denser plans on one representative workload."""
    harness = _harness(fault_count=4)
    outcome = harness.run_seed("tpch_q6", seed)
    assert outcome.ok, "; ".join(v.render() for v in outcome.violations)


def test_baseline_reports_satisfy_their_own_invariants():
    for name in workload_names():
        baseline = _HARNESS.baseline(name)
        program = get_workload(name, scale=SCALE).program
        assert check_invariants(baseline, baseline, program) == []
