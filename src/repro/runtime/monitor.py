"""Runtime monitoring (paper §III-D).

ActivePy watches the throughput of code running on the CSD through the
status updates each line posts.  It re-estimates the remaining CSD time
when either

1. the observed IPC is *decreasing* across consecutive updates, or
2. the observed IPC falls significantly below the estimated instruction
   throughput (estimated instructions / estimated time).

The monitor never sees the simulator's availability knob — it infers
congestion purely from the architectural counters, exactly as the real
system must.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..config import SystemConfig
from .dispatch import StatusUpdate


@dataclass
class MonitorDecision:
    """What the monitor concluded after an observation."""

    reestimate: bool
    reason: str = ""
    #: Device availability inferred from IPC (observed / expected).
    inferred_availability: float = 1.0
    #: How far observed IPC has drifted below expectation, in [0, 1]:
    #: 0.0 = on prediction, 0.9 = running at a tenth of the predicted
    #: rate.  Surfaced so migration decisions are auditable against the
    #: planner's assumptions, not just a boolean trigger.
    ipc_drift: float = 0.0


@dataclass
class RuntimeMonitor:
    """Tracks CSD execution rate and flags degradation."""

    config: SystemConfig
    #: IPC the device should deliver when healthy (from the estimate).
    expected_ipc: float
    #: Number of consecutive strictly decreasing updates that counts
    #: as a downward trend.
    trend_window: int = 3
    _history: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.expected_ipc <= 0:
            raise ValueError(f"expected_ipc must be positive, got {self.expected_ipc}")
        if self.trend_window < 2:
            raise ValueError("trend_window must be at least 2")

    # --- observation ----------------------------------------------------------

    def observe(self, update: StatusUpdate) -> MonitorDecision:
        """Ingest one status update and decide whether to re-estimate."""
        ipc = max(0.0, update.ipc)
        self._history.append(ipc)
        inferred = min(1.0, ipc / self.expected_ipc) if self.expected_ipc else 1.0
        drift = max(0.0, 1.0 - inferred)

        if update.high_priority_pending:
            return MonitorDecision(
                reestimate=True,
                reason="device raised a high-priority request",
                inferred_availability=inferred,
                ipc_drift=drift,
            )
        if ipc < self.config.ipc_degradation_threshold * self.expected_ipc:
            return MonitorDecision(
                reestimate=True,
                reason=(
                    f"IPC {ipc:.3f} below "
                    f"{self.config.ipc_degradation_threshold:.0%} of expected "
                    f"{self.expected_ipc:.3f}"
                ),
                inferred_availability=inferred,
                ipc_drift=drift,
            )
        if self._is_decreasing():
            return MonitorDecision(
                reestimate=True,
                reason=f"IPC decreasing over the last {self.trend_window} updates",
                inferred_availability=inferred,
                ipc_drift=drift,
            )
        return MonitorDecision(
            reestimate=False, inferred_availability=inferred, ipc_drift=drift
        )

    def _is_decreasing(self) -> bool:
        if len(self._history) < self.trend_window:
            return False
        tail = self._history[-self.trend_window:]
        return all(later < earlier for earlier, later in zip(tail, tail[1:]))

    # --- re-estimation --------------------------------------------------------

    # NOTE: after a device-side chunk replay the executor calls
    # :meth:`reset` — IPC samples spanning a crash/replay boundary are
    # fault noise, and a "decreasing trend" assembled across one must
    # not trigger a spurious migration.

    def reestimate_remaining_seconds(
        self,
        remaining_device_compute_s: float,
        remaining_device_access_s: float,
        inferred_availability: float,
    ) -> float:
        """Project the remaining CSD time at the degraded rate.

        The estimated compute time stretches by the inferred
        availability; internal data access is DMA-driven and assumed
        unaffected by engine contention.
        """
        availability = max(1e-3, min(1.0, inferred_availability))
        return remaining_device_compute_s / availability + remaining_device_access_s

    def reset(self) -> None:
        self._history.clear()

    @property
    def observations(self) -> int:
        return len(self._history)

    @property
    def last_ipc(self) -> Optional[float]:
        return self._history[-1] if self._history else None
