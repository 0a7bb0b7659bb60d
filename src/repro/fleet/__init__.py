"""Rack-scale fleet serving: many CSD machines behind one front-end.

The paper's single-machine story — ActivePy programs compiled onto one
computational-storage device — scales out here: a :class:`Fleet` of N
simulated machines takes a seeded open-loop job stream
(:class:`TrafficGenerator`) through per-tenant admission control
(token buckets + bounded queues), places jobs on free devices, fails
them over on device loss (resuming from line-boundary checkpoints),
degrades gracefully under overload, and accounts per-tenant SLOs
(queue-wait / end-to-end p50 and p99).

Chaos campaigns over the fleet (:func:`run_fleet_campaign`, or
``python -m repro chaos --fleet [--workers N]``) enforce the two
rack-level guarantees — every admitted job terminates exactly once, in
a typed state; tenant A's faults never perturb tenant B's run
signatures — and ddmin-shrink any violating fleet plan to a minimal
repro.  They run on the same campaign runner as single-machine chaos,
so ``workers=N`` gives the same result as a serial campaign.
"""

from .admission import (
    AdmissionController,
    QueuedJob,
    SHED_NO_DEVICES,
    SHED_OVERLOAD,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_RETRY_BUDGET,
    TokenBucket,
)
from .chaos import (
    FleetCampaignConfig,
    FleetCampaignResult,
    FleetChaosOutcome,
    FleetHarness,
    check_fleet_invariants,
    fleet_replay_command,
    random_fleet_plan,
    run_fleet_campaign,
)
from .fleet import (
    DEFAULT_ALERT_CONSECUTIVE,
    DEFAULT_FLEET_SCALE,
    DEFAULT_SLO_MULTIPLE,
    Fleet,
    FleetConfig,
    FleetReport,
    JobOutcome,
    device_names,
)
from .profiles import JobProfile, ProfileStore
from .slo import SloSnapshot, percentile
from .trace import to_fleet_chrome_trace, write_fleet_chrome_trace
from .traffic import (
    DEFAULT_FLEET_WORKLOADS,
    JobArrival,
    TenantSpec,
    TrafficGenerator,
    default_tenants,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_ALERT_CONSECUTIVE",
    "DEFAULT_FLEET_SCALE",
    "DEFAULT_FLEET_WORKLOADS",
    "DEFAULT_SLO_MULTIPLE",
    "Fleet",
    "FleetCampaignConfig",
    "FleetCampaignResult",
    "FleetChaosOutcome",
    "FleetConfig",
    "FleetHarness",
    "FleetReport",
    "JobArrival",
    "JobOutcome",
    "JobProfile",
    "ProfileStore",
    "QueuedJob",
    "SHED_NO_DEVICES",
    "SHED_OVERLOAD",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_RETRY_BUDGET",
    "SloSnapshot",
    "TenantSpec",
    "TokenBucket",
    "TrafficGenerator",
    "check_fleet_invariants",
    "default_tenants",
    "device_names",
    "fleet_replay_command",
    "percentile",
    "random_fleet_plan",
    "run_fleet_campaign",
    "to_fleet_chrome_trace",
    "write_fleet_chrome_trace",
]
