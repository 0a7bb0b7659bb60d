"""The fleet: N simulated CSD machines behind one front-end scheduler.

A :class:`Fleet` is a deterministic two-level simulation.  The inner
level is the real single-machine stack — every job's service time,
checkpoint boundaries, degradation verdict, and run signature are
measured by actually running its workload through
:class:`~repro.runtime.activepy.ActivePy` (see
:mod:`~repro.fleet.profiles`).  The outer level is a discrete-event
loop over those measured profiles: seeded open-loop arrivals
(:mod:`~repro.fleet.traffic`) flow through per-tenant admission control
(:mod:`~repro.fleet.admission`), get placed on free devices, and
terminate — **every admitted job, exactly once** — as completed,
degraded, or shed-with-a-typed-error.

Fleet-level faults (:data:`~repro.faults.spec.FLEET_KINDS`) land here,
not on any machine's injector:

* ``DEVICE_LOST_MID_JOB`` drains the victim device; its in-flight job
  fails over to a survivor, resuming from the largest line-boundary
  checkpoint it had reached (replanning from scratch when checkpointing
  is off or no boundary was reached), under a retry budget with
  seeded exponential backoff + jitter.
* ``TENANT_FAULT_INJECTION`` makes the targeted tenant's jobs
  dispatched inside the window run under a derived inner
  :class:`~repro.faults.spec.FaultPlan` — the single-machine recovery
  stack absorbs those faults, and the isolation invariant checks the
  blast radius stayed inside the targeted tenant.

``no_isolation=True`` plants a deliberate bug for the chaos campaign
to catch: the scheduler stops scrubbing per-job device state between
tenants, so a device that just served a faulted job leaks *residue*
into the next job's output digest — a cross-tenant signature
perturbation the tenant-isolation invariant must detect and the
shrinker must reduce to a 1-minimal plan.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import AdmissionError, FleetError
from ..faults.spec import FLEET_KINDS, FaultKind, FaultPlan, FaultSpec
from ..obs import AlertEvent, AlertRule, Observability, evaluate_alerts
from .admission import (
    SHED_NO_DEVICES,
    SHED_OVERLOAD,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_RETRY_BUDGET,
    AdmissionController,
    QueuedJob,
)
from .profiles import JobProfile, ProfileStore
from .slo import SloSnapshot, sorted_percentile
from .traffic import JobArrival, TenantSpec, TrafficGenerator, default_tenants

__all__ = [
    "DEFAULT_ALERT_CONSECUTIVE",
    "DEFAULT_FLEET_SCALE",
    "DEFAULT_SLO_MULTIPLE",
    "SLO_ERROR_BUDGET",
    "FleetConfig",
    "FleetReport",
    "Fleet",
    "JobOutcome",
    "device_names",
]

#: Default fleet scale — matches the single-machine chaos campaign's
#: DEFAULT_SCALE so profiles are real but a 100-seed campaign is cheap.
DEFAULT_FLEET_SCALE = 2 ** -6

#: Terminal job statuses — the termination invariant's universe.
STATUS_COMPLETED = "completed"
STATUS_DEGRADED = "degraded"
STATUS_SHED = "shed"

#: Default end-to-end SLO target, as a multiple of the tenant's slowest
#: baseline service time.  A clean, un-overloaded fleet keeps queue
#: waits well under one service time, so the sliding-window p99 stays
#: below this; sustained breaches mean real contention (a lost device,
#: a hot tenant), which is exactly what the default alert rules watch.
DEFAULT_SLO_MULTIPLE = 3.0

#: Consecutive breaching points before the default SLO alert fires.
DEFAULT_ALERT_CONSECUTIVE = 4

#: The SLO error budget the burn-rate series is normalised against: a
#: p99 target tolerates 1% of samples over it, so ``burn = fraction
#: over target / 0.01`` — burn > 1.0 means the budget is being spent
#: faster than it accrues.
SLO_ERROR_BUDGET = 0.01


def device_names(count: int) -> Tuple[str, ...]:
    """The fleet's device names: ``csd``, ``csd1``, ``csd2``, ...

    The same naming :func:`~repro.hw.topology.build_machine` uses for
    multi-CSD platforms, so fleet fault targets read like device names
    everywhere else in the stack.
    """
    if count < 1:
        raise FleetError(f"device count must be at least 1, got {count}")
    return tuple("csd" if i == 0 else f"csd{i}" for i in range(count))


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet run is derived from.  Same config, same run."""

    device_count: int = 4
    tenants: Tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    #: Jobs drawn from the traffic generator (arrivals, pre-admission).
    job_count: int = 24
    seed: int = 0
    #: Aggregate offered load as a fraction of fleet service capacity;
    #: used to resolve tenant rates left ``None``.
    target_load: float = 0.7
    #: Fleet-wide queued-job ceiling before graceful degradation sheds
    #: best-effort work.  ``None`` = ``4 * device_count``.
    overload_watermark: Optional[int] = None
    #: Failover resubmissions a job may consume before it is shed.
    max_retries: int = 3
    #: Exponential backoff base for failover retries (simulated s).
    backoff_base_s: float = 0.05
    #: Uniform jitter fraction applied on top of the backoff.
    backoff_jitter: float = 0.25
    #: Workload scale factor for the inner profiling runs.
    scale: float = DEFAULT_FLEET_SCALE
    system_config: SystemConfig = DEFAULT_CONFIG
    #: Fleet-level faults only (:data:`FLEET_KINDS`); machine-level
    #: kinds belong in an inner plan, not here.
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Inner faults per job inside a TENANT_FAULT_INJECTION window
    #: (overridden by the spec's own ``count``).
    tenant_fault_count: int = 2
    #: Plant the cross-tenant residue bug (``--no-isolation``).
    no_isolation: bool = False

    def __post_init__(self) -> None:
        if self.device_count < 1:
            raise FleetError(
                f"device_count must be at least 1, got {self.device_count}"
            )
        if self.job_count < 1:
            raise FleetError(f"job_count must be at least 1, got {self.job_count}")
        if not 0 < self.target_load:
            raise FleetError(
                f"target_load must be positive, got {self.target_load}"
            )
        if self.max_retries < 0:
            raise FleetError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_base_s <= 0:
            raise FleetError(
                f"backoff_base_s must be positive, got {self.backoff_base_s}"
            )
        if self.backoff_jitter < 0:
            raise FleetError(
                f"backoff_jitter must be non-negative, got {self.backoff_jitter}"
            )
        if self.overload_watermark is not None and self.overload_watermark < 1:
            raise FleetError(
                f"overload_watermark must be at least 1, "
                f"got {self.overload_watermark}"
            )
        names = set(device_names(self.device_count))
        for spec in self.plan:
            if spec.kind not in FLEET_KINDS:
                raise FleetError(
                    f"{spec.kind.value} is a machine-level fault; a fleet "
                    f"plan takes fleet kinds only "
                    f"({', '.join(k.value for k in FLEET_KINDS)})"
                )
            if (
                spec.kind is FaultKind.DEVICE_LOST_MID_JOB
                and spec.target not in names
            ):
                raise FleetError(
                    f"DEVICE_LOST_MID_JOB target {spec.target!r} is not one "
                    f"of this fleet's devices {sorted(names)}"
                )

    @property
    def watermark(self) -> int:
        return (
            self.overload_watermark
            if self.overload_watermark is not None
            else 4 * self.device_count
        )


@dataclass(frozen=True)
class JobOutcome:
    """One job's terminal state — exactly one per arrival, always typed.

    ``status`` is one of ``completed`` / ``degraded`` / ``shed``.  Shed
    outcomes always carry ``reason`` and ``error`` (the typed error's
    class name); they are never silent.
    """

    job_id: int
    tenant: str
    workload: str
    priority: int
    status: str
    arrival_time: float
    finish_time: float
    admitted: bool
    reason: Optional[str] = None
    error: Optional[str] = None
    device: Optional[str] = None
    first_dispatch_time: Optional[float] = None
    retries: int = 0
    resumed_from_s: float = 0.0
    inner_faults: int = 0
    signature: Optional[Tuple] = None

    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.first_dispatch_time is None:
            return None
        return self.first_dispatch_time - self.arrival_time

    @property
    def end_to_end_s(self) -> float:
        return self.finish_time - self.arrival_time

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "workload": self.workload,
            "priority": self.priority,
            "status": self.status,
            "arrival_time": self.arrival_time,
            "finish_time": self.finish_time,
            "admitted": self.admitted,
            "reason": self.reason,
            "error": self.error,
            "device": self.device,
            "first_dispatch_time": self.first_dispatch_time,
            "retries": self.retries,
            "resumed_from_s": self.resumed_from_s,
            "inner_faults": self.inner_faults,
            "signature": list(self.signature) if self.signature else None,
        }


@dataclass(frozen=True)
class FleetReport:
    """What a fleet run did, end to end.  JSON-ready and renderable."""

    device_count: int
    tenant_names: Tuple[str, ...]
    seed: int
    job_count: int
    outcomes: Tuple[JobOutcome, ...]
    slos: Tuple[SloSnapshot, ...]
    #: Simulated time from first arrival to last terminal event.
    makespan_s: float
    #: Jobs that finished (completed or degraded) per simulated second.
    throughput_jobs_per_s: float
    shed_by_reason: Dict[str, int]
    device_events: Tuple[Tuple[float, str, str], ...]
    #: Inner ActivePy runs actually executed (profile cache misses).
    profile_runs: int
    metrics: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: Flight-recorder dump (``FlightRecorder.to_jsonable()``) when the
    #: run carried one; empty otherwise.
    timeline: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: Alerts the default SLO rules raised over the recorded series.
    alerts: Tuple[AlertEvent, ...] = ()
    #: Per-tenant end-to-end SLO targets the alerts were judged against.
    slo_targets: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Chrome-trace raw material, collected only when a recorder or
    #: tracer was attached: completed/interrupted dispatches as spans
    #: and failover/retry/shed/device-loss moments as instants.
    trace_spans: Tuple[Dict[str, Any], ...] = field(default=(), repr=False)
    trace_instants: Tuple[Dict[str, Any], ...] = field(default=(), repr=False)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_COMPLETED)

    @property
    def degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_DEGRADED)

    @property
    def shed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_SHED)

    def slo_for(self, tenant: str) -> SloSnapshot:
        for snapshot in self.slos:
            if snapshot.tenant == tenant:
                return snapshot
        raise FleetError(f"no SLO snapshot for tenant {tenant!r}")

    def summary(self) -> Dict[str, Any]:
        """The fleet run's headline, JSON-ready."""
        return {
            "device_count": self.device_count,
            "tenants": list(self.tenant_names),
            "seed": self.seed,
            "job_count": self.job_count,
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "makespan_s": self.makespan_s,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "profile_runs": self.profile_runs,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "fleet-run"}
        payload.update(self.summary())
        payload["outcomes"] = [o.to_jsonable() for o in self.outcomes]
        payload["slos"] = [s.to_jsonable() for s in self.slos]
        payload["device_events"] = [list(e) for e in self.device_events]
        if self.metrics:
            payload["metrics"] = self.metrics
        if self.timeline:
            payload["timeline"] = self.timeline
        if self.alerts:
            payload["alerts"] = [a.to_jsonable() for a in self.alerts]
        if self.slo_targets:
            payload["slo_targets"] = dict(sorted(self.slo_targets.items()))
        return payload

    def render(self) -> str:
        lines = [
            f"fleet: {self.device_count} device(s), "
            f"{len(self.tenant_names)} tenant(s), seed {self.seed}",
            f"  jobs      {self.job_count} arrived  "
            f"{self.completed} completed  {self.degraded} degraded  "
            f"{self.shed} shed",
            f"  makespan  {self.makespan_s:.3f}s  "
            f"throughput {self.throughput_jobs_per_s:.3f} jobs/s",
        ]
        for reason, count in sorted(self.shed_by_reason.items()):
            lines.append(f"  shed[{reason}] {count}")
        for at_time, device, what in self.device_events:
            lines.append(f"  device    t={at_time:.3f}s {device} {what}")
        for snapshot in self.slos:
            lines.append("  " + snapshot.render())
        for alert in self.alerts:
            lines.append("  " + alert.render())
        return "\n".join(lines)


class _Device:
    """One logical CSD machine slot in the fleet scheduler."""

    __slots__ = ("name", "live", "job", "dispatch_id", "dispatched_at", "residue")

    def __init__(self, name: str) -> None:
        self.name = name
        self.live = True
        self.job: Optional[QueuedJob] = None
        #: Monotone token — a stale completion event (for a dispatch
        #: interrupted by device loss) no-ops instead of double-finishing.
        self.dispatch_id = 0
        self.dispatched_at = 0.0
        #: Tenant whose faulted job last ran here without a scrub —
        #: only ever non-None under the planted ``no_isolation`` bug.
        self.residue: Optional[str] = None

    @property
    def free(self) -> bool:
        return self.live and self.job is None


class Fleet:
    """The front-end scheduler: admission, placement, failover, SLOs."""

    def __init__(
        self,
        config: FleetConfig = FleetConfig(),
        profiles: Optional[ProfileStore] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.profiles = profiles if profiles is not None else ProfileStore(
            system_config=config.system_config, scale=config.scale,
        )
        if (
            self.profiles.system_config is not config.system_config
            or self.profiles.scale != config.scale
        ):
            raise FleetError(
                "profile store was built for a different (config, scale) "
                "than this fleet"
            )
        self.obs = obs if obs is not None else Observability()

    # --- tenant resolution --------------------------------------------------

    def resolve_tenants(self) -> Tuple[TenantSpec, ...]:
        """Tenants with concrete arrival rates.

        A tenant declared without ``rate_jobs_per_s`` gets its share
        (by ``weight``) of the fleet's derived aggregate rate::

            aggregate = target_load * device_count / mean_service_s

        i.e. the open-loop stream offers ``target_load`` of the fleet's
        measured service capacity.  Rates given explicitly pass through.
        """
        unresolved = [t for t in self.config.tenants if t.rate_jobs_per_s is None]
        if not unresolved:
            return self.config.tenants
        mean_service = self.profiles.mean_service_seconds(
            tuple(sorted({w for t in unresolved for w in t.workloads}))
        )
        aggregate = self.config.target_load * self.config.device_count / mean_service
        total_weight = sum(t.weight for t in unresolved)
        resolved = []
        for tenant in self.config.tenants:
            if tenant.rate_jobs_per_s is None:
                tenant = replace(
                    tenant,
                    rate_jobs_per_s=aggregate * tenant.weight / total_weight,
                )
            resolved.append(tenant)
        return tuple(resolved)

    # --- SLO targets and alert rules ----------------------------------------

    def slo_targets(
        self, tenants: Tuple[TenantSpec, ...]
    ) -> Dict[str, float]:
        """Each tenant's end-to-end SLO target, in simulated seconds.

        An explicit ``TenantSpec.slo_e2e_s`` wins; otherwise the target
        is :data:`DEFAULT_SLO_MULTIPLE` times the tenant's slowest
        measured baseline service time — generous enough that a healthy
        fleet never breaches it, tight enough that losing a device under
        load does.
        """
        targets: Dict[str, float] = {}
        for tenant in tenants:
            if tenant.slo_e2e_s is not None:
                targets[tenant.name] = tenant.slo_e2e_s
            else:
                slowest = max(
                    self.profiles.baseline(workload).service_seconds
                    for workload in tenant.workloads
                )
                targets[tenant.name] = DEFAULT_SLO_MULTIPLE * slowest
        return targets

    def alert_rules(
        self,
        tenants: Tuple[TenantSpec, ...],
        targets: Dict[str, float],
    ) -> Tuple[AlertRule, ...]:
        """The default rule set: one sliding-window p99 rule per tenant."""
        return tuple(
            AlertRule(
                name=f"slo-burn:{tenant.name}",
                series=f"fleet.slo_window.{tenant.name}.e2e_p99_s",
                threshold=targets[tenant.name],
                op=">",
                consecutive=DEFAULT_ALERT_CONSECUTIVE,
            )
            for tenant in tenants
        )

    # --- the event loop -----------------------------------------------------

    def run(self) -> FleetReport:
        """Run the fleet to completion and report every job's fate."""
        cfg = self.config
        tenants = self.resolve_tenants()
        arrivals = TrafficGenerator(tenants, seed=cfg.seed).schedule(cfg.job_count)
        controller = AdmissionController(tenants, overload_watermark=cfg.watermark)
        devices = {name: _Device(name) for name in device_names(cfg.device_count)}
        backoff_rng = random.Random(f"fleet-backoff:{cfg.seed}")

        # The flight recorder, when one is attached.  `rec is None` is
        # the default fast path: every instrumented site below guards on
        # it, so a recorder-less run does zero extra wall work — and no
        # site ever touches simulated time, so enabling the recorder
        # leaves the schedule bit-identical (bench_obs pins both).
        rec = self.obs.timeseries if self.obs.enabled else None
        targets = self.slo_targets(tenants) if rec is not None else {}
        collect_trace = rec is not None or self.obs.tracing
        trace_spans: List[Dict[str, Any]] = []
        trace_instants: List[Dict[str, Any]] = []

        outcomes: Dict[int, JobOutcome] = {}
        device_events: List[Tuple[float, str, str]] = []
        first_dispatch: Dict[int, float] = {}
        now = 0.0

        heap: List[Tuple[float, int, str, Any]] = []
        seq = 0

        def push(at_time: float, kind: str, payload: Any) -> None:
            nonlocal seq
            heapq.heappush(heap, (at_time, seq, kind, payload))
            seq += 1

        for arrival in arrivals:
            push(arrival.arrival_time, "arrival", arrival)
        for index, spec in enumerate(cfg.plan.sorted_specs()):
            if spec.kind is FaultKind.DEVICE_LOST_MID_JOB:
                push(spec.at_time, "device-lost", spec)
                if spec.duration_s > 0:
                    push(spec.at_time + spec.duration_s, "device-rejoin", spec)
            # TENANT_FAULT_INJECTION needs no event: windows are
            # consulted at dispatch time (below).

        tenant_windows = tuple(
            spec for spec in cfg.plan.sorted_specs()
            if spec.kind is FaultKind.TENANT_FAULT_INJECTION
        )

        def record(outcome: JobOutcome) -> None:
            if outcome.job_id in outcomes:
                raise FleetError(
                    f"job {outcome.job_id} terminated twice — "
                    f"{outcomes[outcome.job_id].status} then {outcome.status}"
                )
            outcomes[outcome.job_id] = outcome
            self.obs.count(f"fleet.jobs.{outcome.status}")
            if outcome.status == STATUS_SHED:
                self.obs.count(f"fleet.shed.{outcome.reason}")
                if rec is not None:
                    rec.count("fleet.rate.shed", now)
                if collect_trace:
                    trace_instants.append({
                        "t": now,
                        "name": f"shed job {outcome.job_id} [{outcome.reason}]",
                        "resource": "fleet",
                    })
            else:
                self.obs.observe("fleet.end_to_end_s", outcome.end_to_end_s)
                if outcome.queue_wait_s is not None:
                    self.obs.observe("fleet.queue_wait_s", outcome.queue_wait_s)
                if rec is not None:
                    tenant = outcome.tenant
                    rec.count("fleet.rate.finished", now)
                    rec.observe(f"fleet.e2e.{tenant}", now, outcome.end_to_end_s)
                    # One sorted horizon feeds p50, p99 and the burn
                    # count; it holds at least the sample just observed.
                    window = sorted(rec.window_values(f"fleet.e2e.{tenant}", now))
                    rec.gauge(
                        f"fleet.slo_window.{tenant}.e2e_p50_s", now,
                        sorted_percentile(window, 50.0),
                    )
                    rec.gauge(
                        f"fleet.slo_window.{tenant}.e2e_p99_s", now,
                        sorted_percentile(window, 99.0),
                    )
                    over = len(window) - bisect_right(window, targets[tenant])
                    rec.gauge(
                        f"fleet.burn.{tenant}", now,
                        (over / len(window)) / SLO_ERROR_BUDGET,
                    )

        def shed(job: QueuedJob, reason: str, error: Exception) -> None:
            arrival = job.arrival
            record(JobOutcome(
                job_id=arrival.job_id,
                tenant=arrival.tenant,
                workload=arrival.workload,
                priority=arrival.priority,
                status=STATUS_SHED,
                arrival_time=arrival.arrival_time,
                finish_time=now,
                admitted=True,
                reason=reason,
                error=type(error).__name__,
                first_dispatch_time=first_dispatch.get(arrival.job_id),
                retries=job.retries,
            ))

        def window_for(job: QueuedJob) -> Optional[Tuple[int, FaultSpec]]:
            for index, spec in enumerate(tenant_windows):
                if (
                    spec.target == job.arrival.tenant
                    and spec.at_time <= now <= spec.at_time + spec.duration_s
                ):
                    return index, spec
            return None

        def dispatch_all() -> None:
            while True:
                free = [d for d in sorted(devices) if devices[d].free]
                if not free:
                    return
                job = controller.next_job()
                if job is None:
                    return
                device = devices[free[0]]
                arrival = job.arrival
                first_dispatch.setdefault(arrival.job_id, now)
                window = window_for(job)
                inner_plan: Optional[FaultPlan] = None
                if window is not None:
                    index, spec = window
                    # Deterministic inner seed: pure arithmetic over the
                    # fleet seed, the window index, and the job id —
                    # never hash(), which is salted per process.
                    inner_seed = (
                        cfg.seed * 1_000_003 + index * 8_191 + arrival.job_id
                    )
                    inner_plan = self.profiles.inner_plan(
                        arrival.workload, seed=inner_seed, count=spec.count,
                    )
                profile = self.profiles.profile(arrival.workload, inner_plan)
                device.job = job
                device.dispatch_id += 1
                device.dispatched_at = now
                remaining = max(
                    0.0, profile.service_seconds - job.resume_offset_s
                )
                self.obs.count("fleet.dispatches")
                if rec is not None:
                    rec.gauge(f"fleet.util.{device.name}", now, 1.0)
                push(
                    now + remaining,
                    "job-done",
                    (device.name, device.dispatch_id, profile, inner_plan),
                )

        def finish(device: _Device, profile: JobProfile,
                   inner_plan: Optional[FaultPlan]) -> None:
            job = device.job
            assert job is not None
            arrival = job.arrival
            signature = profile.signature
            tainted_by = device.residue
            if cfg.no_isolation:
                # The planted bug: the previous faulted job's state was
                # never scrubbed, and it bleeds into this job's output.
                if tainted_by is not None and tainted_by != arrival.tenant:
                    signature = (
                        signature[0],
                        signature[1],
                        f"{signature[2]}+residue:{tainted_by}",
                    )
                device.residue = (
                    arrival.tenant if inner_plan is not None else device.residue
                )
            else:
                # Correct scheduler: per-job device state is scrubbed
                # between jobs, faulted or not.
                device.residue = None
            degraded = (
                profile.degraded
                or job.retries > 0
                or (tainted_by is not None and cfg.no_isolation
                    and tainted_by != arrival.tenant)
            )
            status = STATUS_DEGRADED if degraded else STATUS_COMPLETED
            record(JobOutcome(
                job_id=arrival.job_id,
                tenant=arrival.tenant,
                workload=arrival.workload,
                priority=arrival.priority,
                status=status,
                arrival_time=arrival.arrival_time,
                finish_time=now,
                admitted=True,
                device=device.name,
                first_dispatch_time=first_dispatch.get(arrival.job_id),
                retries=job.retries,
                resumed_from_s=job.resume_offset_s,
                inner_faults=len(inner_plan) if inner_plan else 0,
                signature=signature,
            ))
            if rec is not None:
                rec.gauge(f"fleet.util.{device.name}", now, 0.0)
            if collect_trace:
                trace_spans.append({
                    "device": device.name,
                    "name": f"{arrival.workload}#{arrival.job_id}",
                    "cat": "job",
                    "start": device.dispatched_at,
                    "end": now,
                    "args": {
                        "tenant": arrival.tenant,
                        "status": status,
                        "retries": job.retries,
                        "resumed_from_s": job.resume_offset_s,
                    },
                })
            device.job = None

        def fail_over(device: _Device) -> None:
            job = device.job
            assert job is not None
            if collect_trace:
                trace_spans.append({
                    "device": device.name,
                    "name": (
                        f"{job.arrival.workload}#{job.arrival.job_id} "
                        f"(interrupted)"
                    ),
                    "cat": "job-interrupted",
                    "start": device.dispatched_at,
                    "end": now,
                    "args": {
                        "tenant": job.arrival.tenant,
                        "retry": job.retries + 1,
                    },
                })
                trace_instants.append({
                    "t": now,
                    "name": f"failover job {job.arrival.job_id}",
                    "resource": device.name,
                })
            device.job = None
            # Invalidate the in-flight completion: if this device later
            # rejoins, its pre-loss "job-done" event must stay stale.
            device.dispatch_id += 1
            job.retries += 1
            if job.retries > cfg.max_retries:
                shed(job, SHED_RETRY_BUDGET, FleetError(
                    f"job {job.arrival.job_id} exhausted its retry budget "
                    f"({cfg.max_retries}) after losing {device.name}"
                ))
                return
            # Resume from the furthest durable checkpoint the run had
            # reached; with no boundary (or checkpointing off) the
            # failover replans from scratch on the surviving device.
            # Progress made this dispatch, measured on the service axis.
            progress = job.resume_offset_s + (now - device.dispatched_at)
            baseline = self.profiles.baseline(job.arrival.workload)
            job.resume_offset_s = baseline.resume_point(progress)
            backoff = (
                cfg.backoff_base_s
                * (2 ** (job.retries - 1))
                * (1.0 + cfg.backoff_jitter * backoff_rng.random())
            )
            self.obs.count("fleet.failovers")
            self.obs.observe("fleet.failover_backoff_s", backoff)
            push(now + backoff, "retry-ready", job)

        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == "arrival":
                arrival: JobArrival = payload
                self.obs.count("fleet.jobs.arrived")
                if rec is not None:
                    rec.count("fleet.rate.arrived", now)
                reason = controller.admit(arrival, now)
                if reason is not None:
                    record(JobOutcome(
                        job_id=arrival.job_id,
                        tenant=arrival.tenant,
                        workload=arrival.workload,
                        priority=arrival.priority,
                        status=STATUS_SHED,
                        arrival_time=arrival.arrival_time,
                        finish_time=now,
                        admitted=False,
                        reason=reason,
                        error=AdmissionError.__name__,
                    ))
                else:
                    self.obs.count("fleet.jobs.admitted")
                    if rec is not None:
                        rec.count("fleet.rate.admitted", now)
                    for victim in controller.shed_overload():
                        shed(victim, SHED_OVERLOAD, AdmissionError(
                            f"fleet backlog exceeded the overload watermark "
                            f"({cfg.watermark}); lowest-priority work shed"
                        ))
                    dispatch_all()
            elif kind == "job-done":
                name, dispatch_id, profile, inner_plan = payload
                device = devices[name]
                if not device.live or device.dispatch_id != dispatch_id:
                    continue  # stale completion from an interrupted dispatch
                finish(device, profile, inner_plan)
                dispatch_all()
            elif kind == "device-lost":
                spec: FaultSpec = payload
                device = devices[spec.target]
                if not device.live:
                    continue
                device.live = False
                device_events.append((now, spec.target, "lost"))
                self.obs.count("fleet.device_lost")
                if rec is not None:
                    rec.gauge(f"fleet.util.{spec.target}", now, 0.0)
                if collect_trace:
                    trace_instants.append({
                        "t": now, "name": "device lost",
                        "resource": spec.target,
                    })
                if device.job is not None:
                    fail_over(device)
            elif kind == "device-rejoin":
                spec = payload
                device = devices[spec.target]
                if device.live:
                    continue
                device.live = True
                device.residue = None  # a rejoin is a clean boot
                device_events.append((now, spec.target, "rejoined"))
                self.obs.count("fleet.device_rejoined")
                if collect_trace:
                    trace_instants.append({
                        "t": now, "name": "device rejoined",
                        "resource": spec.target,
                    })
                dispatch_all()
            elif kind == "retry-ready":
                job: QueuedJob = payload
                controller.requeue(job)
                if rec is not None:
                    rec.count("fleet.rate.retries", now)
                if collect_trace:
                    trace_instants.append({
                        "t": now,
                        "name": f"retry job {job.arrival.job_id}",
                        "resource": "fleet",
                    })
                dispatch_all()
            else:  # pragma: no cover - defensive
                raise FleetError(f"unknown fleet event kind {kind!r}")
            if rec is not None:
                rec.gauge(
                    "fleet.queue_depth", now, float(controller.total_queued)
                )

        # The heap is dry.  Anything still queued can never run (no
        # live device will ever free up or rejoin) — shed it loudly so
        # the termination invariant stays honest rather than vacuous.
        for job in controller.drain():
            shed(job, SHED_NO_DEVICES, FleetError(
                f"job {job.arrival.job_id} was admitted but no live device "
                f"remains to run it"
            ))

        alerts: Tuple[AlertEvent, ...] = ()
        if rec is not None:
            rec.finalize(now)
            alerts = evaluate_alerts(rec, self.alert_rules(tenants, targets))
            # Counters land before _build_report snapshots the registry.
            for event in alerts:
                self.obs.count("obs.alerts.fired")
                self.obs.count(f"obs.alerts.{event.rule}")

        return self._build_report(
            tenants, arrivals, outcomes, device_events,
            recorder=rec, alerts=alerts, targets=targets,
            trace_spans=tuple(trace_spans),
            trace_instants=tuple(trace_instants),
        )

    # --- reporting ----------------------------------------------------------

    def _build_report(
        self,
        tenants: Tuple[TenantSpec, ...],
        arrivals: Tuple[JobArrival, ...],
        outcomes: Dict[int, JobOutcome],
        device_events: List[Tuple[float, str, str]],
        recorder=None,
        alerts: Tuple[AlertEvent, ...] = (),
        targets: Optional[Dict[str, float]] = None,
        trace_spans: Tuple[Dict[str, Any], ...] = (),
        trace_instants: Tuple[Dict[str, Any], ...] = (),
    ) -> FleetReport:
        missing = [a.job_id for a in arrivals if a.job_id not in outcomes]
        if missing:
            raise FleetError(
                f"fleet run ended with job(s) {missing} unaccounted for — "
                f"the termination guarantee is broken in the scheduler itself"
            )
        ordered = tuple(outcomes[a.job_id] for a in arrivals)
        shed_by_reason: Dict[str, int] = {}
        for outcome in ordered:
            if outcome.status == STATUS_SHED:
                shed_by_reason[outcome.reason] = (
                    shed_by_reason.get(outcome.reason, 0) + 1
                )
        slos = []
        for tenant in tenants:
            mine = [o for o in ordered if o.tenant == tenant.name]
            finished = [o for o in mine if o.status != STATUS_SHED]
            snapshot = SloSnapshot.from_samples(
                tenant=tenant.name,
                priority=tenant.priority,
                arrived=len(mine),
                admitted=sum(1 for o in mine if o.admitted),
                completed=sum(1 for o in mine if o.status == STATUS_COMPLETED),
                degraded=sum(1 for o in mine if o.status == STATUS_DEGRADED),
                shed=sum(1 for o in mine if o.status == STATUS_SHED),
                queue_waits=[
                    o.queue_wait_s for o in finished
                    if o.queue_wait_s is not None
                ],
                end_to_ends=[o.end_to_end_s for o in finished],
            )
            slos.append(snapshot)
            self.obs.gauge(
                f"fleet.slo.{tenant.name}.queue_wait_p99_s",
                snapshot.queue_wait_p99_s,
            )
            self.obs.gauge(
                f"fleet.slo.{tenant.name}.end_to_end_p99_s",
                snapshot.end_to_end_p99_s,
            )
        # From the first arrival to the last job's terminal event: events
        # the loop pops after it (a scheduled device rejoin) do not count.
        first_arrival = arrivals[0].arrival_time
        last_finish = max(o.finish_time for o in ordered)
        makespan = max(last_finish - first_arrival, 0.0)
        finished_jobs = sum(1 for o in ordered if o.status != STATUS_SHED)
        throughput = finished_jobs / makespan if makespan > 0 else 0.0
        self.obs.gauge("fleet.makespan_s", makespan)
        self.obs.gauge("fleet.throughput_jobs_per_s", throughput)
        return FleetReport(
            device_count=self.config.device_count,
            tenant_names=tuple(t.name for t in tenants),
            seed=self.config.seed,
            job_count=len(arrivals),
            outcomes=ordered,
            slos=tuple(slos),
            makespan_s=makespan,
            throughput_jobs_per_s=throughput,
            shed_by_reason=shed_by_reason,
            device_events=tuple(device_events),
            profile_runs=self.profiles.runs,
            metrics=self.obs.snapshot() if self.obs.enabled else {},
            timeline=recorder.to_jsonable() if recorder is not None else {},
            alerts=alerts,
            slo_targets=dict(targets) if targets else {},
            trace_spans=trace_spans,
            trace_instants=trace_instants,
        )
