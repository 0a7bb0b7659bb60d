"""Fleet chaos: seeded rack-level fault campaigns and their invariants.

The single-machine chaos layer (:mod:`repro.chaos`) hardens one run on
one machine.  This module does the same one level up: a campaign of
seeded fleet runs, each under a random **fleet-level** fault plan
(device losses, per-tenant fault storms), judged against two
rack-level guarantees:

* **Termination** — every admitted job terminates in *exactly one* of
  {completed, degraded, shed-with-error}; a shed is always typed
  (reason + error class), never silent; nothing is double-counted or
  lost.
* **Tenant isolation** — faults aimed at tenant A never perturb tenant
  B's run signatures.  Every tenant that no
  ``TENANT_FAULT_INJECTION`` targeted must receive exactly the
  fault-free signature for each job that ran.

:func:`run_fleet_campaign` drives a :class:`FleetHarness` through the
same run-and-shrink loop as the single-machine campaign
(:mod:`repro.chaos.campaign`): violating plans are ddmin-shrunk and
reported with the exact CLI command that replays them, and
``workers=N`` spreads the runs over processes with an identical
result.  Profiles are cached across the whole campaign, so shrink
probes re-run only the cheap outer DES.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..chaos.campaign import BaseCampaignResult, _run_and_shrink
from ..chaos.invariants import InvariantViolation
from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import FleetError
from ..faults.spec import FaultKind, FaultPlan, FaultSpec
from .fleet import (
    DEFAULT_FLEET_SCALE,
    Fleet,
    FleetConfig,
    FleetReport,
    device_names,
)
from .profiles import ProfileStore
from .traffic import TenantSpec, default_tenants

__all__ = [
    "FleetCampaignConfig",
    "FleetCampaignResult",
    "FleetChaosOutcome",
    "FleetHarness",
    "check_fleet_invariants",
    "fleet_replay_command",
    "random_fleet_plan",
    "run_fleet_campaign",
]

#: The terminal statuses the termination invariant admits.
_TERMINAL_STATUSES = ("completed", "degraded", "shed")


def random_fleet_plan(
    seed: int,
    horizon_s: float,
    device_count: int,
    tenant_names: Tuple[str, ...],
    count: int = 2,
) -> FaultPlan:
    """A deterministic fleet-level fault plan from a seed.

    Draws only :data:`~repro.faults.spec.FLEET_KINDS`: device losses
    (sometimes rejoining, sometimes gone for good) and per-tenant fault
    windows wide enough to catch dispatches.  A private
    :class:`random.Random` keyed on the seed alone makes the same
    arguments always yield the same plan.
    """
    if horizon_s <= 0:
        raise FleetError(f"horizon_s must be positive, got {horizon_s}")
    if count < 1:
        raise FleetError(f"count must be at least 1, got {count}")
    if not tenant_names:
        raise FleetError("tenant_names must not be empty")
    rng = random.Random(f"fleet-plan:{seed}")
    devices = device_names(device_count)
    specs: List[FaultSpec] = []
    for _ in range(count):
        if rng.random() < 0.5:
            # Half of rack faults are device losses; half of those
            # rejoin after a window (a reboot), the rest never return.
            rejoins = rng.random() < 0.5
            specs.append(FaultSpec(
                kind=FaultKind.DEVICE_LOST_MID_JOB,
                at_time=rng.uniform(0.05, 0.8) * horizon_s,
                target=rng.choice(devices),
                duration_s=(
                    rng.uniform(0.1, 0.3) * horizon_s if rejoins else 0.0
                ),
            ))
        else:
            specs.append(FaultSpec(
                kind=FaultKind.TENANT_FAULT_INJECTION,
                at_time=rng.uniform(0.05, 0.6) * horizon_s,
                target=rng.choice(sorted(tenant_names)),
                duration_s=rng.uniform(0.2, 0.5) * horizon_s,
                count=rng.randint(1, 3),
            ))
    return FaultPlan(specs=tuple(specs), seed=seed)


def check_fleet_invariants(
    report: FleetReport,
    plan: FaultPlan,
    profiles: ProfileStore,
) -> List[InvariantViolation]:
    """All rack-level invariant violations of one fleet run."""
    violations: List[InvariantViolation] = []

    # 1. Termination: every arrival has exactly one outcome (the report
    #    builder already guarantees at-least/at-most once; re-check the
    #    universe of statuses and the typed-shed rule here, where the
    #    campaign can see it).
    seen_ids = [outcome.job_id for outcome in report.outcomes]
    if len(seen_ids) != len(set(seen_ids)):
        violations.append(InvariantViolation(
            "job-termination", "an arrival owns more than one outcome",
        ))
    if len(seen_ids) != report.job_count:
        violations.append(InvariantViolation(
            "job-termination",
            f"{report.job_count} job(s) arrived but "
            f"{len(seen_ids)} outcome(s) were recorded",
        ))
    for outcome in report.outcomes:
        if outcome.status not in _TERMINAL_STATUSES:
            violations.append(InvariantViolation(
                "job-termination",
                f"job {outcome.job_id} ended in unknown status "
                f"{outcome.status!r}",
            ))
        if outcome.status == "shed" and (
            outcome.reason is None or outcome.error is None
        ):
            violations.append(InvariantViolation(
                "job-termination",
                f"job {outcome.job_id} was shed silently "
                f"(reason={outcome.reason!r}, error={outcome.error!r})",
            ))
        if outcome.status != "shed" and outcome.signature is None:
            violations.append(InvariantViolation(
                "job-termination",
                f"job {outcome.job_id} finished without a run signature",
            ))

    # 2. Tenant isolation: tenants no fault targeted get the fault-free
    #    signature on every job that ran.  (Device losses may delay or
    #    degrade a bystander's jobs — resume/replay relocates work —
    #    but the *result* must be the baseline result.)
    targeted = {
        spec.target for spec in plan
        if spec.kind is FaultKind.TENANT_FAULT_INJECTION
    }
    for outcome in report.outcomes:
        if outcome.tenant in targeted or outcome.signature is None:
            continue
        expected = profiles.baseline(outcome.workload).signature
        if tuple(outcome.signature) != tuple(expected):
            violations.append(InvariantViolation(
                "tenant-isolation",
                f"tenant {outcome.tenant!r} was not targeted by any fault "
                f"but job {outcome.job_id} ({outcome.workload}) returned "
                f"signature {outcome.signature} instead of the fault-free "
                f"{expected}",
            ))

    # 3. Clock sanity: the outer DES must be as monotone as the inner
    #    sim — finishes after arrivals, non-negative waits.
    for outcome in report.outcomes:
        if outcome.finish_time < outcome.arrival_time:
            violations.append(InvariantViolation(
                "fleet-clock-monotonic",
                f"job {outcome.job_id} finished at {outcome.finish_time} "
                f"before arriving at {outcome.arrival_time}",
            ))
        wait = outcome.queue_wait_s
        if wait is not None and wait < 0:
            violations.append(InvariantViolation(
                "fleet-clock-monotonic",
                f"job {outcome.job_id} has negative queue wait {wait}",
            ))

    return violations


@dataclass(frozen=True)
class FleetChaosOutcome:
    """One seeded fleet experiment, judged."""

    seed: int
    plan: FaultPlan
    violations: Tuple[InvariantViolation, ...]
    completed: int
    degraded: int
    shed: int
    makespan_s: float

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failure_title(self) -> str:
        return f"FLEET FAILURE: seed={self.seed}"

    def run_id(self) -> Dict[str, Any]:
        """The fields that name this run in a failure report."""
        return {"seed": self.seed}

    def summary(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "fleet_faults": len(self.plan),
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "makespan_s": self.makespan_s,
            "violations": [v.render() for v in self.violations],
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "fleet-chaos-run"}
        payload.update(self.summary())
        return payload


@dataclass(frozen=True)
class FleetCampaignConfig:
    """What to throw at the rack, and how hard."""

    runs: int = 100
    device_count: int = 4
    tenants: Tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    job_count: int = 24
    base_seed: int = 0
    #: Fleet-level faults per run.
    fault_count: int = 2
    target_load: float = 0.7
    scale: float = DEFAULT_FLEET_SCALE
    system_config: SystemConfig = DEFAULT_CONFIG
    shrink_failures: bool = True
    max_shrink_probes: int = 128
    #: Plant the cross-tenant residue bug the campaign must catch.
    no_isolation: bool = False

    def __post_init__(self) -> None:
        # "0 runs, all invariants held" must never gate anything green.
        if self.runs < 1:
            raise FleetError(f"runs must be at least 1, got {self.runs}")
        if self.fault_count < 1:
            raise FleetError(
                f"fault_count must be at least 1, got {self.fault_count}"
            )


class FleetCampaignResult(BaseCampaignResult):
    """Every fleet outcome plus the shrunk failures, ready to render."""

    experiment = "fleet-chaos-campaign"
    subject = "fleet "

    def headline(self) -> List[str]:
        return [
            f"fleet chaos campaign: {self.runs} run(s), "
            f"{self.config.device_count} device(s), "
            f"{len(self.config.tenants)} tenant(s), "
            f"seeds {self.config.base_seed}.."
            f"{self.config.base_seed + max(self.runs - 1, 0)}",
            f"  jobs/run        : {self.config.job_count}",
            f"  completed       : "
            f"{sum(o.completed for o in self.outcomes)}",
            f"  degraded        : {sum(o.degraded for o in self.outcomes)}",
            f"  shed            : {sum(o.shed for o in self.outcomes)}",
            f"  violations      : {self.violations}",
        ]

    def summary(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "ok": self.ok,
            "violations": self.violations,
            "failures": len(self.failures),
            "device_count": self.config.device_count,
            "tenants": [t.name for t in self.config.tenants],
            "job_count": self.config.job_count,
            "base_seed": self.config.base_seed,
            "completed": sum(o.completed for o in self.outcomes),
            "degraded": sum(o.degraded for o in self.outcomes),
            "shed": sum(o.shed for o in self.outcomes),
        }


class FleetHarness:
    """Builds and judges seeded fleet runs for one campaign setting.

    One :class:`~repro.fleet.profiles.ProfileStore` is shared across
    every run and every shrink probe, so each distinct (workload,
    inner-plan) ActivePy run is paid for once and replays hit only the
    outer discrete-event simulation.
    """

    def __init__(self, config: FleetCampaignConfig) -> None:
        self.config = config
        self.profiles = ProfileStore(
            system_config=config.system_config, scale=config.scale,
        )
        self._horizon: Optional[float] = None

    def run_list(self) -> List[Tuple[int]]:
        """Run ``r`` is ``(base_seed + r,)``."""
        return [(self.config.base_seed + run,)
                for run in range(self.config.runs)]

    def replay_command(self, outcome: FleetChaosOutcome) -> str:
        return fleet_replay_command(outcome, self.config)

    def fleet_config(self, seed: int, plan: FaultPlan) -> FleetConfig:
        return FleetConfig(
            device_count=self.config.device_count,
            tenants=self.config.tenants,
            job_count=self.config.job_count,
            seed=seed,
            target_load=self.config.target_load,
            scale=self.config.scale,
            system_config=self.config.system_config,
            plan=plan,
            no_isolation=self.config.no_isolation,
        )

    def horizon_s(self) -> float:
        """The expected arrival span — where fleet faults are aimed.

        ``job_count / aggregate arrival rate``, padded 20%: losses and
        windows land while traffic is still flowing, not after the rack
        has gone quiet.
        """
        if self._horizon is None:
            probe = Fleet(
                self.fleet_config(seed=0, plan=FaultPlan()),
                profiles=self.profiles,
            )
            aggregate = sum(t.rate_jobs_per_s
                            for t in probe.resolve_tenants())
            self._horizon = 1.2 * self.config.job_count / aggregate
        return self._horizon

    def plan_for(self, seed: int) -> FaultPlan:
        """The deterministic fleet plan run ``seed`` uses."""
        return random_fleet_plan(
            seed=seed,
            horizon_s=self.horizon_s(),
            device_count=self.config.device_count,
            tenant_names=tuple(t.name for t in self.config.tenants),
            count=self.config.fault_count,
        )

    def run_plan(self, plan: FaultPlan,
                 seed: Optional[int] = None) -> FleetChaosOutcome:
        """Run one fleet under one plan and judge the rack invariants."""
        used_seed = plan.seed if seed is None else seed
        fleet = Fleet(
            self.fleet_config(seed=used_seed, plan=plan),
            profiles=self.profiles,
        )
        try:
            report = fleet.run()
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            return FleetChaosOutcome(
                seed=used_seed,
                plan=plan,
                violations=(InvariantViolation(
                    "no-unhandled-exception",
                    f"{type(exc).__name__}: {exc}",
                ),),
                completed=0,
                degraded=0,
                shed=0,
                makespan_s=0.0,
            )
        violations = check_fleet_invariants(report, plan, self.profiles)
        return FleetChaosOutcome(
            seed=used_seed,
            plan=plan,
            violations=tuple(violations),
            completed=report.completed,
            degraded=report.degraded,
            shed=report.shed,
            makespan_s=report.makespan_s,
        )

    def run_seed(self, seed: int) -> FleetChaosOutcome:
        """One fully seeded fleet experiment (the replay entry point)."""
        return self.run_plan(self.plan_for(seed), seed=seed)

    def reproducer(
        self, outcome: FleetChaosOutcome
    ) -> Callable[[FaultPlan], bool]:
        """Predicate for the shrinker: does this fleet plan still violate?

        Shrink probes keep the run's own traffic seed fixed so only the
        plan varies — the predicate is a pure function of the plan.
        """
        def reproduces(candidate: FaultPlan) -> bool:
            return not self.run_plan(candidate, seed=outcome.seed).ok
        return reproduces


def fleet_replay_command(
    outcome: FleetChaosOutcome, config: FleetCampaignConfig
) -> str:
    parts = [
        "python -m repro chaos --fleet",
        "--runs 1",
        f"--seed {outcome.seed}",
        f"--devices {config.device_count}",
        f"--tenants {len(config.tenants)}",
        f"--jobs {config.job_count}",
        f"--fault-count {config.fault_count}",
    ]
    if config.scale != DEFAULT_FLEET_SCALE:
        parts.append(f"--scale {config.scale}")
    if config.no_isolation:
        parts.append("--no-isolation")
    return " ".join(parts)


def run_fleet_campaign(
    config: FleetCampaignConfig,
    on_outcome: Optional[Callable[[FleetChaosOutcome], None]] = None,
    workers: int = 1,
) -> FleetCampaignResult:
    """Run a full fleet campaign; shrink and report every violating run.

    ``workers`` processes share the runs; the result is the same for
    any worker count.
    """
    return _run_and_shrink(config, FleetHarness,
                           FleetCampaignResult(config=config), on_outcome,
                           workers)
