"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystems define their
own narrower types below.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A :class:`repro.config.SystemConfig` value is invalid."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class HardwareError(ReproError):
    """A hardware model (compute unit, link) was used incorrectly."""


class StorageError(ReproError):
    """A storage-device model rejected an operation."""


class FlashError(StorageError):
    """A NAND-level rule was violated (e.g. programming a dirty page)."""


class FaultError(ReproError):
    """An injected fault surfaced to the runtime (see :mod:`repro.faults`)."""


class UncorrectableMediaError(FaultError, FlashError):
    """A NAND read failed beyond the ECC correction capability."""


class IntegrityError(FaultError):
    """An end-to-end checksum caught silently corrupted data.

    Raised by the verifiers in :mod:`repro.integrity` when a content
    digest computed at the producer does not match the bytes seen at the
    consumer.  It is a :class:`FaultError` so the executor's existing
    recovery machinery (chunk replay, host fallback) handles it.
    """


class CseCrashError(FaultError):
    """The computational storage engine crashed and lost its task state."""


class DeadlineError(FaultError):
    """A command exceeded its completion deadline."""


class DeviceLostError(FaultError):
    """The device stopped responding and was declared dead after retries."""


class AddressError(ReproError):
    """A shared-address-space access fell outside any mapped region."""


class AllocationError(AddressError):
    """The allocator could not satisfy a request."""


class ProgramError(ReproError):
    """A :class:`repro.lang.program.Program` is malformed."""


class DatasetError(ReproError):
    """A dataset cannot be built, sampled, or scaled as requested."""


class SamplingError(ReproError):
    """The sampling phase could not collect usable statistics."""


class FittingError(ReproError):
    """Curve fitting was given unusable observations."""


class PlanningError(ReproError):
    """Algorithm 1 was given inconsistent line estimates."""


class CodegenError(ReproError):
    """Code generation or binary placement failed."""


class DispatchError(ReproError):
    """The call/completion queue protocol was violated."""


class MigrationError(ReproError):
    """A task checkpoint/restore could not be performed."""


class CheckpointError(ReproError):
    """A line-boundary checkpoint record is malformed or misused."""


class WorkloadError(ReproError):
    """A workload definition or its dataset is inconsistent."""


class ChaosError(ReproError):
    """A chaos campaign or shrink request is malformed."""


class FleetError(ReproError):
    """A rack-scale fleet (:mod:`repro.fleet`) rule was violated.

    Raised for malformed fleet configurations and for jobs the fleet
    could not finish within policy — a retry budget exhausted after
    repeated device losses, or a queue drained with no live device
    left.  A job terminated this way is *shed with an error*: the
    failure is typed and attached to its outcome, never silent.
    """


class AdmissionError(FleetError):
    """The fleet front-end refused or shed a job, with a stated reason.

    Per-tenant admission control (token-bucket rate limits, bounded
    queues, overload shedding) rejects work instead of collapsing under
    it.  Every rejection carries the policy that fired — rate-limited,
    queue-full, or overload-shed — so a shed job's outcome names
    exactly why it never ran.
    """


class ObservabilityError(ReproError):
    """A metrics instrument or trace exporter was used incorrectly."""
