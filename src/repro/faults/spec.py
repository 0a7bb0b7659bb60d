"""Fault descriptions: what breaks, where, and when.

A :class:`FaultSpec` is a single timed failure; a :class:`FaultPlan` is
an ordered collection of them.  Plans are plain data — arming them on a
machine is the :class:`~repro.faults.injector.FaultInjector`'s job — so
the same plan can be replayed against fresh machines and must produce
byte-identical fault logs (the determinism guarantee the tests pin).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import FaultError


class FaultKind(str, enum.Enum):
    """The failure modes the simulated stack can inject."""

    #: A NAND read needs ECC re-read retries (extra latency, data fine).
    NAND_READ_CORRECTABLE = "nand-read-correctable"
    #: A NAND read fails beyond the ECC budget
    #: (:class:`~repro.errors.UncorrectableMediaError`).
    NAND_READ_UNCORRECTABLE = "nand-read-uncorrectable"
    #: The device drops the next completion(s) it would post.
    NVME_COMPLETION_LOSS = "nvme-completion-loss"
    #: The next completion becomes visible to the host late.
    NVME_COMPLETION_DELAY = "nvme-completion-delay"
    #: The queue pair stops making progress for a window.
    NVME_QUEUE_STALL = "nvme-queue-stall"
    #: The CSE crashes mid-task; optionally resets after ``duration_s``.
    CSE_CRASH = "cse-crash"
    #: A link runs at ``factor`` of its bandwidth for ``duration_s``.
    LINK_DEGRADE = "link-degrade"
    #: The next ``count`` line-boundary checkpoint writes are torn
    #: mid-DMA (head lands, tail scrambled) — the power-event hazard
    #: the double-buffer/CRC protocol exists to survive.
    CHECKPOINT_TORN_WRITE = "checkpoint-torn-write"
    #: Bits flip on the next ``count`` NAND reads *without* an error
    #: completion — the data is wrong and nobody is told (the silent
    #: hazard the :mod:`repro.integrity` checksum layer exists to catch).
    NAND_SILENT_CORRUPTION = "nand-silent-corruption"
    #: The next ``count`` payloads crossing a link are garbled in
    #: flight; the transfer itself completes normally.
    BAR_TRANSFER_CORRUPTION = "bar-transfer-corruption"
    #: A committed checkpoint record decays in BAR memory *after* its
    #: CRC was written — bitrot, not a torn DMA.
    CHECKPOINT_SILENT_BITROT = "checkpoint-silent-bitrot"
    #: Fleet-level: the machine named by ``target`` drops out of the
    #: rack at ``at_time`` with jobs in flight; ``duration_s`` > 0 means
    #: it rejoins after that window, 0 means it never comes back.  Only
    #: the :mod:`repro.fleet` scheduler interprets this kind — arming it
    #: on a single machine's injector is an error.
    DEVICE_LOST_MID_JOB = "device-lost-mid-job"
    #: Fleet-level: jobs of the tenant named by ``target`` dispatched
    #: during the ``duration_s`` window run under a derived inner
    #: :class:`FaultPlan` of ``count`` loud faults each — the per-tenant
    #: blast the isolation invariant must confine to that tenant.
    TENANT_FAULT_INJECTION = "tenant-fault-injection"


#: Link-shaped targets understood by the injector (LINK_DEGRADE and
#: BAR_TRANSFER_CORRUPTION name a link, not a device).
LINK_TARGETS = ("d2h", "host-storage", "remote-access", "internal")

#: Faults that surface through the normal error machinery: a failed
#: completion, a crash, extra latency, a CRC-detectable tear.  This is
#: the default kind pool for generated plans, so pre-existing seeds
#: keep producing byte-identical plans.
LOUD_KINDS = (
    FaultKind.NAND_READ_CORRECTABLE,
    FaultKind.NAND_READ_UNCORRECTABLE,
    FaultKind.NVME_COMPLETION_LOSS,
    FaultKind.NVME_COMPLETION_DELAY,
    FaultKind.NVME_QUEUE_STALL,
    FaultKind.CSE_CRASH,
    FaultKind.LINK_DEGRADE,
    FaultKind.CHECKPOINT_TORN_WRITE,
)

#: Faults that corrupt data without any error completion.  Only the
#: end-to-end integrity layer (:mod:`repro.integrity`) can catch them;
#: campaigns opt in via ``silent_corruption`` / ``--sdc``.
SILENT_KINDS = (
    FaultKind.NAND_SILENT_CORRUPTION,
    FaultKind.BAR_TRANSFER_CORRUPTION,
    FaultKind.CHECKPOINT_SILENT_BITROT,
)

#: Faults that land on the rack, not on one machine's hardware: the
#: :mod:`repro.fleet` scheduler interprets them (device loss with
#: failover, per-tenant fault storms).  Kept out of both LOUD_KINDS and
#: SILENT_KINDS so every pre-existing campaign seed keeps producing
#: byte-identical plans.
FLEET_KINDS = (
    FaultKind.DEVICE_LOST_MID_JOB,
    FaultKind.TENANT_FAULT_INJECTION,
)

#: One-line description and default target per kind, for the
#: ``repro faults list`` CLI and the docs table.  Every member of
#: :class:`FaultKind` must have an entry (pinned by a test).
FAULT_KIND_INFO = {
    FaultKind.NAND_READ_CORRECTABLE: (
        "a NAND read needs ECC re-read retries (extra latency, data fine)",
        "csd",
    ),
    FaultKind.NAND_READ_UNCORRECTABLE: (
        "a NAND read fails beyond the ECC budget (UncorrectableMediaError)",
        "csd",
    ),
    FaultKind.NVME_COMPLETION_LOSS: (
        "the device drops the next completion(s) it would post",
        "csd",
    ),
    FaultKind.NVME_COMPLETION_DELAY: (
        "the next completion becomes visible to the host late",
        "csd",
    ),
    FaultKind.NVME_QUEUE_STALL: (
        "the queue pair stops making progress for a window",
        "csd",
    ),
    FaultKind.CSE_CRASH: (
        "the CSE crashes mid-task; optionally resets after duration_s",
        "csd",
    ),
    FaultKind.LINK_DEGRADE: (
        "a link runs at `factor` of its bandwidth for duration_s",
        "link (" + "|".join(LINK_TARGETS) + ")",
    ),
    FaultKind.CHECKPOINT_TORN_WRITE: (
        "the next count checkpoint writes are torn mid-DMA",
        "csd",
    ),
    FaultKind.NAND_SILENT_CORRUPTION: (
        "bits flip on the next count NAND reads with no error completion",
        "csd",
    ),
    FaultKind.BAR_TRANSFER_CORRUPTION: (
        "the next count payloads crossing a link are garbled in flight",
        "link (" + "|".join(LINK_TARGETS) + ")",
    ),
    FaultKind.CHECKPOINT_SILENT_BITROT: (
        "a committed checkpoint record decays after its CRC was written",
        "csd",
    ),
    FaultKind.DEVICE_LOST_MID_JOB: (
        "a fleet machine drops out mid-job; duration_s > 0 means it rejoins",
        "fleet machine (csd|csd1|...)",
    ),
    FaultKind.TENANT_FAULT_INJECTION: (
        "a tenant's jobs in the window each run under count inner faults",
        "tenant",
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault.

    ``target`` names the device the fault lands on (``"csd"`` by
    default), except for :attr:`FaultKind.LINK_DEGRADE` and
    :attr:`FaultKind.BAR_TRANSFER_CORRUPTION` where it names a link
    (one of :data:`LINK_TARGETS`).
    """

    kind: FaultKind
    #: Absolute simulated time the fault is injected.
    at_time: float
    target: str = "csd"
    #: Crash-recovery delay / stall window / degradation window /
    #: completion delay, in simulated seconds.  For CSE_CRASH a zero
    #: duration means the engine never comes back on its own.
    duration_s: float = 0.0
    #: Completions to drop (NVME_COMPLETION_LOSS) or reads to fail
    #: (NAND faults).
    count: int = 1
    #: ECC re-read attempts charged for a correctable NAND fault.
    retries: int = 3
    #: Remaining bandwidth fraction during a LINK_DEGRADE window.
    factor: float = 1.0
    #: A NAND fault (uncorrectable or silent-corruption) that survives
    #: chunk replays — forces the executor's host fallback instead of a
    #: successful re-read.
    persistent: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise FaultError(f"kind must be a FaultKind, got {self.kind!r}")
        if not (math.isfinite(self.at_time) and self.at_time >= 0):
            raise FaultError(
                f"at_time must be finite and non-negative, got {self.at_time}"
            )
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise FaultError(
                f"duration_s must be finite and non-negative, got {self.duration_s}"
            )
        if self.count < 1:
            raise FaultError(f"count must be at least 1, got {self.count}")
        if self.retries < 1:
            raise FaultError(f"retries must be at least 1, got {self.retries}")
        if not 0 < self.factor <= 1:
            raise FaultError(f"factor must lie in (0, 1], got {self.factor}")
        if self.kind is FaultKind.LINK_DEGRADE:
            if self.target not in LINK_TARGETS:
                raise FaultError(
                    f"LINK_DEGRADE target must be one of {LINK_TARGETS}, "
                    f"got {self.target!r}"
                )
            if self.duration_s <= 0:
                raise FaultError("LINK_DEGRADE needs a positive duration_s")
            if self.factor >= 1:
                raise FaultError("LINK_DEGRADE needs factor < 1 to degrade anything")
        if self.kind is FaultKind.NVME_QUEUE_STALL and self.duration_s <= 0:
            raise FaultError("NVME_QUEUE_STALL needs a positive duration_s")
        if self.kind is FaultKind.NVME_COMPLETION_DELAY and self.duration_s <= 0:
            raise FaultError("NVME_COMPLETION_DELAY needs a positive duration_s")
        if self.kind is FaultKind.TENANT_FAULT_INJECTION and self.duration_s <= 0:
            raise FaultError(
                "TENANT_FAULT_INJECTION needs a positive duration_s window"
            )
        if (
            self.kind is FaultKind.BAR_TRANSFER_CORRUPTION
            and self.target not in LINK_TARGETS
        ):
            raise FaultError(
                f"BAR_TRANSFER_CORRUPTION target must be one of {LINK_TARGETS}, "
                f"got {self.target!r}"
            )

    # --- replay serialisation ---------------------------------------------

    def to_jsonable(self) -> dict:
        """A JSON-safe dict that round-trips through :meth:`from_jsonable`."""
        return {
            "kind": self.kind.value,
            "at_time": self.at_time,
            "target": self.target,
            "duration_s": self.duration_s,
            "count": self.count,
            "retries": self.retries,
            "factor": self.factor,
            "persistent": self.persistent,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_jsonable` output.

        Every field is restored — dropping one here is exactly the kind
        of replay-path bug that makes a shrunk repro non-reproducible.
        """
        return cls(
            kind=FaultKind(payload["kind"]),
            at_time=float(payload["at_time"]),
            target=str(payload.get("target", "csd")),
            duration_s=float(payload.get("duration_s", 0.0)),
            count=int(payload.get("count", 1)),
            retries=int(payload.get("retries", 3)),
            factor=float(payload.get("factor", 1.0)),
            persistent=bool(payload.get("persistent", False)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, replayable set of faults plus the seed that made it.

    ``seed`` is purely provenance for generated plans; hand-written
    plans may leave it at its default.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultError(f"plan entries must be FaultSpec, got {spec!r}")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def sorted_specs(self) -> Tuple[FaultSpec, ...]:
        """Specs in injection order (stable for equal timestamps)."""
        return tuple(sorted(self.specs, key=lambda spec: spec.at_time))

    def to_jsonable(self) -> dict:
        """A JSON-safe dict that round-trips through :meth:`from_jsonable`."""
        return {
            "seed": self.seed,
            "specs": [spec.to_jsonable() for spec in self.specs],
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec.from_jsonable(entry) for entry in payload.get("specs", ())
            ),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def random(
        cls,
        seed: int,
        horizon_s: float,
        count: int = 4,
        kinds: Optional[Sequence[FaultKind]] = None,
        target: str = "csd",
        offset_s: float = 0.0,
    ) -> "FaultPlan":
        """Generate a deterministic plan from a seed.

        Fault times are drawn uniformly over the middle 90% of
        ``horizon_s``, shifted by ``offset_s``, so callers can aim
        faults at the window where work is actually in flight (e.g.
        past a known sampling/compile prefix).  The same (seed,
        horizon, count, kinds, offset) always yields the same plan —
        the stream is a private :class:`random.Random`.
        """
        if horizon_s <= 0:
            raise FaultError(f"horizon_s must be positive, got {horizon_s}")
        if offset_s < 0:
            raise FaultError(f"offset_s must be non-negative, got {offset_s}")
        if count < 1:
            raise FaultError(f"count must be at least 1, got {count}")
        rng = random.Random(seed)
        # Default pool = LOUD_KINDS, not tuple(FaultKind): growing the
        # enum must never reshuffle plans generated from old seeds.
        chosen_kinds = tuple(kinds) if kinds else LOUD_KINDS
        specs = []
        for _ in range(count):
            kind = rng.choice(chosen_kinds)
            at_time = offset_s + rng.uniform(0.05, 0.95) * horizon_s
            duration = rng.uniform(0.005, 0.05) * horizon_s
            if kind is FaultKind.LINK_DEGRADE:
                specs.append(FaultSpec(
                    kind=kind,
                    at_time=at_time,
                    target=rng.choice(LINK_TARGETS),
                    duration_s=duration,
                    factor=rng.uniform(0.1, 0.6),
                ))
            elif kind is FaultKind.CSE_CRASH:
                # A quarter of generated crashes never self-reset, so
                # random campaigns exercise the host-fallback/restore
                # path, not only the in-place replay path.
                permanent = rng.random() < 0.25
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target,
                    duration_s=0.0 if permanent
                    else rng.uniform(0.2, 1.5) * duration,
                ))
            elif kind in (FaultKind.NVME_QUEUE_STALL, FaultKind.NVME_COMPLETION_DELAY):
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target, duration_s=duration,
                ))
            elif kind is FaultKind.NVME_COMPLETION_LOSS:
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target,
                    count=rng.randint(1, 2),
                ))
            elif kind is FaultKind.CHECKPOINT_TORN_WRITE:
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target,
                    count=rng.randint(1, 6),
                ))
            elif kind is FaultKind.NAND_READ_CORRECTABLE:
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target,
                    retries=rng.randint(1, 8),
                ))
            elif kind is FaultKind.NAND_SILENT_CORRUPTION:
                # A quarter of generated corruptions are persistent —
                # replaying the read keeps returning flipped bits, so
                # detection must escalate to the host fallback.
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target,
                    count=rng.randint(1, 3),
                    persistent=rng.random() < 0.25,
                ))
            elif kind is FaultKind.BAR_TRANSFER_CORRUPTION:
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time,
                    target=rng.choice(LINK_TARGETS),
                    count=rng.randint(1, 2),
                ))
            elif kind is FaultKind.CHECKPOINT_SILENT_BITROT:
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target,
                    count=rng.randint(1, 2),
                ))
            else:  # NAND_READ_UNCORRECTABLE
                # A third of generated media faults are persistent (the
                # page is gone, not glitched), forcing the host-fallback
                # resume path random campaigns must keep honest.
                specs.append(FaultSpec(
                    kind=kind, at_time=at_time, target=target,
                    persistent=rng.random() < 0.3,
                ))
        return cls(specs=tuple(specs), seed=seed)
