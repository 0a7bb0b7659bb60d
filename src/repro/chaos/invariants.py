"""The contract a faulted run must honour, checkable after the fact.

Each invariant inspects one :class:`~repro.runtime.activepy.ActivePyReport`
against the fault-free run of the same workload.  Violations are data,
not exceptions: the campaign collects them, and the shrinker uses
"produces at least one violation" as its reproduction predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Recovery actions that imply the run must be flagged degraded.
_DEGRADING_ACTIONS = ("host-fallback", "line-replay-host", "device-dead")


@dataclass(frozen=True)
class InvariantViolation:
    """One broken guarantee, with enough detail to read the story."""

    name: str
    detail: str

    def render(self) -> str:
        return f"{self.name}: {self.detail}"


def run_signature(report) -> Tuple[str, Tuple[str, ...], str]:
    """The logical outcome of a run: program, lines in order, content digest.

    The simulator charges costs rather than computing values, so two
    runs are "result-equal" when they executed the same program lines
    in the same order to completion — a faulted run may relocate work,
    never drop or reorder it.  The trailing ``output_digest``
    (:mod:`repro.integrity`) is the content signature of the reported
    result: silent corruption that survives into the report perturbs the
    digest even though every line still "ran", which is what makes
    undetected corruption visible to result-equality at all.
    """
    result = report.result
    digest = getattr(result, "output_digest", "")
    return (result.program_name, tuple(t.name for t in result.line_timings), digest)


def check_invariants(report, baseline, program) -> List[InvariantViolation]:
    """All invariant violations of ``report`` vs the fault-free ``baseline``."""
    violations: List[InvariantViolation] = []
    result = report.result

    # 1. Legal degradation: degraded is a bool, and any recovery that
    #    moved work off its planned unit must have set it.
    if not isinstance(result.degraded, bool):
        violations.append(InvariantViolation(
            "legal-degradation", f"degraded is {result.degraded!r}, not a bool",
        ))
    else:
        actions = {event.action for event in result.fault_events}
        demoted = actions.intersection(_DEGRADING_ACTIONS)
        if demoted and not result.degraded:
            violations.append(InvariantViolation(
                "legal-degradation",
                f"recovery action(s) {sorted(demoted)} occurred but the run "
                f"is not flagged degraded",
            ))

    # 2. Result equality: same program, same lines, same order.
    expected = run_signature(baseline)
    actual = run_signature(report)
    if actual != expected:
        violations.append(InvariantViolation(
            "result-equality", f"expected {expected}, got {actual}",
        ))

    # 2b. Corruption detected before report: a run whose signature
    #     differs from the fault-free baseline without a single
    #     ``integrity-detected`` event means corrupted data flowed into
    #     the report with nothing in the machine noticing — the exact
    #     failure mode end-to-end checksums exist to rule out.
    if actual != expected:
        detections = [
            event for event in result.fault_events
            if event.action == "integrity-detected"
        ]
        if not detections:
            violations.append(InvariantViolation(
                "corruption-detected-before-report",
                "report signature differs from the fault-free baseline "
                "but no integrity-detected event was recorded — silent "
                "corruption reached the report undetected",
            ))

    # 3. Sim-clock monotonicity: the run occupies a well-formed time
    #    span and every fault event falls inside it, in order.
    if not (0.0 <= result.started_at <= result.finished_at):
        violations.append(InvariantViolation(
            "clock-monotonic",
            f"run span [{result.started_at}, {result.finished_at}] is invalid",
        ))
    if any(t.seconds < 0 for t in result.line_timings):
        violations.append(InvariantViolation(
            "clock-monotonic", "a line reports negative duration",
        ))
    times = [event.time for event in result.fault_events]
    if any(later < earlier for earlier, later in zip(times, times[1:])):
        violations.append(InvariantViolation(
            "clock-monotonic", "fault events are not in time order",
        ))
    eps = 1e-9
    if any(t < -eps or t > result.finished_at + eps for t in times):
        violations.append(InvariantViolation(
            "clock-monotonic", "a fault event lies outside the run's time span",
        ))

    # 4. Work conservation ("byte conservation" at chunk granularity):
    #    every line must execute at least its chunk count across device
    #    and host — replays may repeat work, nothing may skip it.  A
    #    corrupt resume point trusted blindly fails exactly here.
    for index, statement in enumerate(program):
        executed = result.chunks_executed.get(index, 0)
        if executed < statement.chunks:
            violations.append(InvariantViolation(
                "work-conservation",
                f"line {index} ({statement.name}) executed {executed} of "
                f"{statement.chunks} chunks — work was skipped",
            ))
    if result.d2h_bytes < 0 or result.remote_access_bytes < 0:
        violations.append(InvariantViolation(
            "work-conservation", "negative transfer byte accounting",
        ))

    return violations
