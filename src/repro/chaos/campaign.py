"""The chaos campaign runner, for one machine and for the fleet.

A campaign is a loop of seeded experiments: run ``r`` picks workload
``workloads[r % len(workloads)]`` and seed ``base_seed + r``, generates
a random :class:`FaultPlan` over the workload's fault-free horizon,
runs the workload on a **fresh machine** under that plan, and checks
the :mod:`~repro.chaos.invariants`.  On a violation the plan is shrunk
(:mod:`~repro.chaos.shrink`) and the failure is reported with the exact
CLI command that replays it.

Everything is derived from ``(workload, seed, fault_count, scale,
config)``, so a reported failure replays bit-for-bit on any machine.

The loop itself is generic: :func:`run_campaign` drives a
:class:`ChaosHarness` and :func:`repro.fleet.run_fleet_campaign` drives
a :class:`~repro.fleet.FleetHarness` through the same run-and-shrink
loop, serially or over a process pool (``workers=N``), with the same
result for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (Any, Callable, ClassVar, Dict, Iterable, List, Optional,
                    Protocol, Tuple, Type, TypeVar)

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import ChaosError
from ..faults.spec import LOUD_KINDS, SILENT_KINDS, FaultPlan
from ..hw.topology import build_machine
from ..obs import Observability
from ..parallel import ordered_pool_imap
from ..runtime.activepy import ActivePy, ActivePyReport, RunOptions
from ..workloads import get_workload
from .invariants import InvariantViolation, check_invariants
from .shrink import ShrinkResult, render_plan, shrink_plan

#: Default campaign scale: big enough that plans/migrations are real,
#: small enough that a 200-run campaign finishes in tens of seconds.
DEFAULT_SCALE = 2 ** -6

#: The default campaign rotation — diverse plan shapes (all-device,
#: mixed, migration-prone) without paying for the whole suite.
DEFAULT_WORKLOADS = ("tpch_q6", "kmeans", "blackscholes", "pagerank")


@dataclass(frozen=True)
class ChaosRunOutcome:
    """One seeded experiment, judged.

    ``fault_event_count`` counts every :class:`~repro.faults.FaultEvent`
    the run logged — injected faults *and* the runtime's recovery
    actions.  ``metrics`` is the run's final observability snapshot
    when the campaign collects one.
    """

    workload: str
    seed: int
    plan: FaultPlan
    violations: Tuple[InvariantViolation, ...]
    degraded: Optional[bool]
    fault_event_count: int
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failure_title(self) -> str:
        return f"FAILURE: {self.workload} seed={self.seed}"

    def run_id(self) -> Dict[str, Any]:
        """The fields that name this run in a failure report."""
        return {"workload": self.workload, "seed": self.seed}

    def summary(self) -> Dict[str, Any]:
        """The judged outcome, JSON-ready (metrics omitted)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "ok": self.ok,
            "degraded": self.degraded,
            "fault_event_count": self.fault_event_count,
            "violations": [v.render() for v in self.violations],
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "chaos-run"}
        payload.update(self.summary())
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload


@dataclass(frozen=True)
class ShrunkFailure:
    """A violating run distilled to its minimal reproducing plan."""

    outcome: Any
    shrink: ShrinkResult
    replay_command: str

    def render(self) -> str:
        lines = [self.outcome.failure_title]
        for violation in self.outcome.violations:
            lines.append(f"  violated  {violation.render()}")
        lines.append(
            f"  shrunk    {len(self.outcome.plan)} fault(s) -> "
            f"{len(self.shrink.minimal)} ({self.shrink.probes} probe(s))"
        )
        for text in render_plan(self.shrink.minimal):
            lines.append(f"    - {text}")
        lines.append(f"  replay    {self.replay_command}")
        return "\n".join(lines)

    def to_jsonable(self) -> Dict[str, Any]:
        payload = self.outcome.run_id()
        payload.update({
            "minimal_plan": list(render_plan(self.shrink.minimal)),
            "shrink_probes": self.shrink.probes,
            "replay": self.replay_command,
        })
        return payload


@dataclass(frozen=True)
class CampaignConfig:
    """What to throw at the stack, and how hard."""

    runs: int = 25
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    base_seed: int = 0
    fault_count: int = 3
    scale: float = DEFAULT_SCALE
    system_config: SystemConfig = DEFAULT_CONFIG
    shrink_failures: bool = True
    max_shrink_probes: int = 128
    #: Widen the fault-plan kind pool to include the silent-corruption
    #: kinds (:data:`~repro.faults.spec.SILENT_KINDS`).  Off by default:
    #: silent faults are only survivable with the integrity layer on, so
    #: campaigns opt in together with ``integrity_enabled``.
    silent_corruption: bool = False
    #: Attach a per-run metrics snapshot to every outcome — the numbers
    #: a violation repro needs (retries, fallbacks, torn writes) without
    #: re-running under a debugger.
    collect_metrics: bool = True

    def __post_init__(self) -> None:
        # "0 runs, all invariants held" is the kind of vacuous green a
        # CI gate must never report.
        if self.runs < 1:
            raise ChaosError(f"runs must be at least 1, got {self.runs}")
        if self.fault_count < 1:
            raise ChaosError(
                f"fault_count must be at least 1, got {self.fault_count}"
            )
        if not self.workloads:
            raise ChaosError("workloads must not be empty")


@dataclass
class BaseCampaignResult:
    """Every outcome plus the shrunk failures; subjects add a headline.

    A subclass sets ``experiment`` (the JSON tag) and ``subject`` (the
    word before "invariants held") and writes ``summary()`` and
    ``headline()`` over its own outcome type.
    """

    config: Any
    outcomes: List[Any] = field(default_factory=list)
    failures: List[ShrunkFailure] = field(default_factory=list)

    experiment: ClassVar[str]
    subject: ClassVar[str] = ""

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> int:
        return sum(len(outcome.violations) for outcome in self.outcomes)

    @property
    def ok(self) -> bool:
        return not self.failures and all(o.ok for o in self.outcomes)

    def render(self) -> str:
        lines = self.headline()
        for failure in self.failures:
            lines.append("")
            lines.append(failure.render())
        if self.ok:
            lines.append(f"  all {self.subject}invariants held")
        return "\n".join(lines)

    # --- the common report protocol (see analysis/export.py) ---------------

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": self.experiment}
        payload.update(self.summary())
        payload["outcomes"] = [o.to_jsonable() for o in self.outcomes]
        payload["failures"] = [f.to_jsonable() for f in self.failures]
        return payload


class CampaignResult(BaseCampaignResult):
    """Every machine outcome plus the shrunk failures, ready to render."""

    experiment = "chaos-campaign"

    def headline(self) -> List[str]:
        degraded = sum(1 for o in self.outcomes if o.degraded)
        return [
            f"chaos campaign: {self.runs} run(s) across "
            f"{len(self.config.workloads)} workload(s), "
            f"seeds {self.config.base_seed}.."
            f"{self.config.base_seed + max(self.runs - 1, 0)}",
            f"  fault events    : "
            f"{sum(o.fault_event_count for o in self.outcomes)}",
            f"  degraded runs   : {degraded}/{self.runs}",
            f"  violations      : {self.violations}",
        ]

    def summary(self) -> Dict[str, Any]:
        """Campaign headline: pass/fail counts, JSON-ready."""
        return {
            "runs": self.runs,
            "ok": self.ok,
            "violations": self.violations,
            "failures": len(self.failures),
            "fault_event_count": sum(
                o.fault_event_count for o in self.outcomes
            ),
            "degraded_runs": sum(1 for o in self.outcomes if o.degraded),
            "workloads": list(self.config.workloads),
            "base_seed": self.config.base_seed,
        }


class CampaignHarness(Protocol):
    """What the campaign loop needs from a subject (machine or fleet).

    A harness is built from its campaign config alone, which is how
    pool workers started with ``spawn`` rebuild theirs.  A run is the
    argument tuple of ``plan_for`` and ``run_seed``, and ``run_seed``
    is ``run_plan`` (build, run, judge) on the run's ``plan_for`` plan.
    """

    def __init__(self, config: Any) -> None: ...
    def run_list(self) -> List[Tuple[Any, ...]]: ...
    def plan_for(self, *run: Any) -> FaultPlan: ...
    def run_seed(self, *run: Any) -> Any: ...
    def reproducer(self, outcome: Any) -> Callable[[FaultPlan], bool]: ...
    def replay_command(self, outcome: Any) -> str: ...


class ChaosHarness:
    """Builds and judges seeded fault runs for one campaign setting.

    The fault-free baseline per workload is computed once and cached:
    it supplies both the invariant reference (result signature) and the
    time horizon random fault plans are drawn over.
    """

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self._baselines: Dict[str, ActivePyReport] = {}

    def run_list(self) -> List[Tuple[str, int]]:
        """Run ``r`` is ``(workloads[r % len(workloads)], base_seed + r)``."""
        workloads = self.config.workloads
        return [(workloads[run % len(workloads)], self.config.base_seed + run)
                for run in range(self.config.runs)]

    def replay_command(self, outcome: ChaosRunOutcome) -> str:
        return replay_command(outcome, self.config)

    # --- building blocks --------------------------------------------------

    def baseline(self, workload_name: str) -> ActivePyReport:
        """The cached fault-free run of a workload at this setting."""
        if workload_name not in self._baselines:
            config = self.config.system_config
            workload = get_workload(workload_name, scale=self.config.scale)
            self._baselines[workload_name] = ActivePy(config).run(
                workload.program, workload.dataset,
                machine=build_machine(config),
            )
        return self._baselines[workload_name]

    def plan_for(self, workload_name: str, seed: int) -> FaultPlan:
        """The deterministic fault plan run ``(workload, seed)`` uses.

        Fault times are aimed past most of the sampling/compile prefix
        (where they would all collapse onto the first chunk boundary)
        into the window where chunks are actually in flight.
        """
        baseline = self.baseline(workload_name)
        offset = 0.8 * baseline.overhead_seconds
        # LOUD_KINDS is the historical pool; appending the silent kinds
        # (rather than replacing) keeps loud plans for a given seed
        # related to their silent-campaign counterparts.
        kinds = (LOUD_KINDS + SILENT_KINDS if self.config.silent_corruption
                 else None)
        return FaultPlan.random(
            seed=seed,
            horizon_s=baseline.total_seconds - offset,
            count=self.config.fault_count,
            offset_s=offset,
            kinds=kinds,
        )

    def run_plan(self, workload_name: str, plan: FaultPlan,
                 seed: Optional[int] = None) -> ChaosRunOutcome:
        """Run one workload under one plan on a fresh machine and judge it."""
        baseline = self.baseline(workload_name)
        config = self.config.system_config
        workload = get_workload(workload_name, scale=self.config.scale)
        obs = Observability() if self.config.collect_metrics else None
        machine = build_machine(config, obs=obs)
        try:
            report = ActivePy(config).run(
                workload.program, workload.dataset, machine=machine,
                options=RunOptions(fault_plan=plan, obs=obs),
            )
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            return ChaosRunOutcome(
                workload=workload_name,
                seed=plan.seed if seed is None else seed,
                plan=plan,
                violations=(InvariantViolation(
                    "no-unhandled-exception",
                    f"{type(exc).__name__}: {exc}",
                ),),
                degraded=None,
                fault_event_count=0,
                # The snapshot matters *most* here: it shows what the
                # machine was doing when the run blew up.
                metrics=obs.snapshot() if obs is not None else None,
            )
        violations = check_invariants(report, baseline, workload.program)
        return ChaosRunOutcome(
            workload=workload_name,
            seed=plan.seed if seed is None else seed,
            plan=plan,
            violations=tuple(violations),
            degraded=report.result.degraded,
            fault_event_count=len(report.result.fault_events),
            metrics=obs.snapshot() if obs is not None else None,
        )

    def run_seed(self, workload_name: str, seed: int) -> ChaosRunOutcome:
        """One fully seeded experiment (the replay entry point)."""
        return self.run_plan(workload_name, self.plan_for(workload_name, seed),
                             seed=seed)

    def reproducer(
        self, outcome: ChaosRunOutcome
    ) -> Callable[[FaultPlan], bool]:
        """Predicate for the shrinker: does this plan still violate?"""
        def reproduces(candidate: FaultPlan) -> bool:
            return not self.run_plan(outcome.workload, candidate).ok
        return reproduces


def replay_command(outcome: ChaosRunOutcome, config: CampaignConfig) -> str:
    parts = [
        "python -m repro chaos",
        f"--workload {outcome.workload}",
        f"--seed {outcome.seed}",
        f"--fault-count {config.fault_count}",
    ]
    if config.scale != DEFAULT_SCALE:
        parts.append(f"--scale {config.scale}")
    if not config.system_config.checkpoint_validate:
        parts.append("--no-validate")
    if config.silent_corruption:
        parts.append("--sdc")
    if (config.system_config.integrity_enabled
            and not config.system_config.integrity_verify):
        parts.append("--no-verify")
    return " ".join(parts)


#: The harness pool workers run on.  The parent sets it before the pool
#: forks, so children inherit its warm caches; under ``spawn`` each
#: worker's initializer rebuilds it from the campaign config.
_pool_harness: Optional[CampaignHarness] = None


def _adopt_harness(harness_type: Type[CampaignHarness], config: Any) -> None:
    global _pool_harness
    if _pool_harness is None:
        _pool_harness = harness_type(config)


def _run_pooled(run: Tuple[Any, ...]) -> Any:
    if _pool_harness is None:  # pragma: no cover - initializer always ran
        raise ChaosError("campaign worker started without a harness")
    return _pool_harness.run_seed(*run)


_Result = TypeVar("_Result", bound=BaseCampaignResult)


def _run_and_shrink(
    config: Any,
    harness_type: Type[CampaignHarness],
    result: _Result,
    on_outcome: Optional[Callable[[Any], None]],
    workers: int,
) -> _Result:
    """The one campaign loop: run, report, shrink each failure in order.

    ``workers > 1`` runs the seeded experiments on a process pool.
    Every run is a pure function of its config and run tuple, and the
    pool yields results in run order, so the outcomes are the serial
    ones.  ``on_outcome`` and shrinking stay in this process, in run
    order, so failures, probe counts and replay commands match too.
    """
    global _pool_harness
    if workers < 1:
        raise ChaosError(f"workers must be at least 1, got {workers}")
    harness = harness_type(config)
    runs = harness.run_list()
    outcomes: Iterable[Any]
    if workers == 1 or len(runs) < 2:
        outcomes = (harness.run_seed(*run) for run in runs)
    else:
        # Drawing every plan warms the baselines they are drawn over,
        # so forked workers inherit them instead of recomputing them.
        for run in runs:
            harness.plan_for(*run)
        _pool_harness = harness
        outcomes = ordered_pool_imap(
            _run_pooled, runs, workers=workers,
            initializer=partial(_adopt_harness, harness_type, config),
        )
    try:
        for outcome in outcomes:
            result.outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
            if outcome.ok:
                continue
            if config.shrink_failures and len(outcome.plan) > 0:
                shrunk = shrink_plan(
                    outcome.plan,
                    harness.reproducer(outcome),
                    max_probes=config.max_shrink_probes,
                )
            else:
                shrunk = ShrinkResult(
                    minimal=outcome.plan, probes=0, budget_exhausted=False,
                )
            result.failures.append(ShrunkFailure(
                outcome=outcome,
                shrink=shrunk,
                replay_command=harness.replay_command(outcome),
            ))
    finally:
        _pool_harness = None
    return result


def run_campaign(
    config: CampaignConfig,
    on_outcome: Optional[Callable[[ChaosRunOutcome], None]] = None,
    workers: int = 1,
) -> CampaignResult:
    """Run a full campaign; shrink and report every violating run.

    ``workers`` processes share the runs; the result is the same for
    any worker count.
    """
    return _run_and_shrink(config, ChaosHarness,
                           CampaignResult(config=config), on_outcome, workers)
