"""System-wide configuration for the simulated platform.

Every free constant in the reproduction lives here, in one frozen
dataclass, so experiments are reproducible and calibration is auditable.
The defaults model the paper's testbed (DAC'23 §IV-A):

* an octa-core host CPU (AMD Ryzen 7 3700X class),
* a CSD with an 8-core ARM Cortex-A72 CSE, 2 TB of NAND,
  9 GB/s internal bandwidth, and a 5 GB/s NVMe host link,
* a PCIe 3.0 system interconnect shared by all peripherals.

Only *ratios* of simulated times are claimed as reproduction results;
see DESIGN.md §5 for the calibration rationale of each value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .errors import ConfigError
from .units import GB, GIPS, TB


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of the simulated host + CSD platform.

    Instances are immutable; derive variants with :meth:`replace`.
    """

    # --- compute ------------------------------------------------------
    #: Effective host-CPU throughput in instructions/second.
    host_ips: float = 8.0 * GIPS
    #: Effective CSE throughput.  The paper's calibration constant C is
    #: ``host_ips / cse_ips`` (the CSE is slower than the host CPU).
    cse_ips: float = 4.0 * GIPS
    #: Number of CSE cores (ARM Cortex-A72 in the paper's prototype).
    cse_cores: int = 8
    #: Whether the CSD's compute engines accept offloaded work at all.
    #: ``False`` models a host with a plain (non-computational) SSD:
    #: every planner — greedy Algorithm 1 and the branch-and-bound
    #: search alike — must then keep all lines on the host.
    csd_enabled: bool = True

    # --- interconnect -------------------------------------------------
    #: How the CSD attaches to the host (paper §III-C0a): "pcie" maps
    #: device memory through BARs; "nvmeof" reaches the device over the
    #: network fabric, using RDMA for the memory mapping — same
    #: mechanics, higher message latency.
    attachment: str = "pcie"
    #: Extra one-way latency of the NVMe-oF fabric path, seconds.
    nvmeof_extra_latency_s: float = 15e-6
    #: Host-visible storage read bandwidth (shared PCIe 3.0 +
    #: filesystem path), bytes/second.
    bw_host_storage: float = 1.6 * GB
    #: CSE <-> NAND internal bandwidth (the paper measures 9 GB/s).
    bw_internal: float = 9.0 * GB
    #: Effective device <-> host transfer bandwidth for processed data
    #: over the 5 GB/s NVMe link.
    bw_d2h: float = 3.0 * GB
    #: One-way small-message latency over the host interconnect
    #: (doorbell/status update cost), seconds.
    link_latency_s: float = 5e-6

    # --- device geometry ----------------------------------------------
    #: Raw NAND capacity of the CSD.
    nand_capacity_bytes: float = 2.0 * TB
    #: Device DRAM capacity.
    device_dram_bytes: float = 16.0 * GB
    #: NAND page size in bytes.
    nand_page_bytes: int = 16384
    #: Pages per erase block.
    nand_pages_per_block: int = 256
    #: Independent NAND channels.  Sized so the array's aggregate read
    #: rate can actually sustain ``bw_internal`` (checked in
    #: validation): 16 channels x 16 KiB / 25 us ~ 10.5 GB/s.
    nand_channels: int = 16
    #: Single-page read latency, seconds.
    nand_read_latency_s: float = 25e-6
    #: Single-page program latency, seconds.
    nand_program_latency_s: float = 600e-6
    #: Block erase latency, seconds.
    nand_erase_latency_s: float = 3e-3

    # --- language runtime ---------------------------------------------
    #: Fractional overhead of CPython interpreter dispatch over the C
    #: kernel time.  Removed by Cython-style compilation.
    interp_dispatch_overhead: float = 0.21
    #: Fractional overhead of redundant cross-language memory copies.
    #: Removed by ActivePy's mutable-memory copy elimination.
    copy_overhead: float = 0.20
    #: One-time code-generation (Cython compile) cost, seconds.  The
    #: paper reports "typically 0.1 sec".
    compile_overhead_s: float = 0.1
    #: Residual overhead of generated code vs hand-written C.
    codegen_residual_overhead: float = 0.005

    # --- ActivePy runtime policy --------------------------------------
    #: Sampling scaling factors (paper §III-A: tiny/small/medium/large).
    sampling_factors: tuple = (2**-10, 2**-9, 2**-8, 2**-7)
    #: Relative standard deviation of profiler measurement noise.  Zero
    #: (the default) makes every experiment exactly reproducible; real
    #: line profilers jitter by a few percent, which is what pushes the
    #: paper's prediction error to its reported 9%.
    profiler_noise: float = 0.0
    #: Seed for the (deterministic) noise stream.
    profiler_noise_seed: int = 42
    #: Overlap stored-data streaming with compute inside each chunk
    #: (double-buffered engines pay max(io, compute) per chunk rather
    #: than the sum).  Off by default: the calibration and the paper's
    #: Equation 1 assume the sequential model; the ablation bench
    #: quantifies the difference.
    overlap_io_compute: bool = False
    #: Interval between status updates from CSD code, in executed lines.
    status_update_every_lines: int = 1
    #: IPC must fall below this fraction of the estimate before the
    #: monitor re-estimates the remaining CSD time.
    ipc_degradation_threshold: float = 0.7
    #: Cost of checkpointing/restoring task-local state on migration,
    #: seconds (saving locals into the shared address space).
    migration_state_cost_s: float = 0.05
    #: Bandwidth at which the host accesses live data still resident in
    #: CSD memory after a migration (remote load/store over the BAR
    #: mapping is slower than a streaming read).
    bw_remote_access: float = 1.2 * GB
    #: After a host-ward migration, let *later* lines planned for the
    #: CSD return to it once its status page reports recovery.  An
    #: extension beyond the paper's prototype (which only migrates
    #: host-ward); off by default.
    readmission_enabled: bool = False
    #: Device availability (from its self-reported rate) required
    #: before re-admitting offloaded lines.
    readmission_threshold: float = 0.9
    #: Quiet period after a migration before re-admission is considered
    #: again — keeps an oscillating co-tenant from ping-ponging the
    #: task between units.
    readmission_cooldown_s: float = 0.2

    # --- fault tolerance ----------------------------------------------
    #: Seed for deterministic fault-plan generation
    #: (:meth:`repro.faults.FaultPlan.random`).
    fault_seed: int = 42
    #: How long (simulated seconds) the host waits for a command
    #: completion — or for a crashed device to come back — before one
    #: retry attempt is charged.
    command_deadline_s: float = 0.05
    #: Bounded retries (re-submissions / chunk replays) before the host
    #: gives up on the device for the current command.
    command_max_retries: int = 3
    #: First retry backoff, simulated seconds; subsequent waits grow by
    #: ``retry_backoff_factor`` (exponential backoff, all in sim time).
    retry_backoff_base_s: float = 0.002
    #: Multiplier applied to the backoff between consecutive retries.
    retry_backoff_factor: float = 2.0
    #: Bounded wait (simulated seconds) for space in a full NVMe
    #: submission queue before giving up with a dispatch error.
    queue_full_wait_s: float = 0.02
    #: Chunk replays the executor attempts on the device after a fault
    #: before falling back to the host for the rest of the line.
    chunk_replay_limit: int = 2

    # --- line-boundary checkpointing ----------------------------------
    #: Write a versioned, CRC-protected resume record into BAR shared
    #: memory at every chunk (dynamic line-instance) boundary, so a
    #: crash recovery or migration resumes "at a Python-line boundary
    #: from shared memory" even when a fault tears the write itself.
    checkpoint_enabled: bool = True
    #: Alternate between two BAR slots so a torn write can only ever
    #: corrupt the newest generation, never the last committed one.
    #: Disabling this is only useful for demonstrating the failure mode
    #: the protocol exists to prevent.
    checkpoint_double_buffer: bool = True
    #: Validate the stored CRC before trusting a record on restore.
    #: ``False`` is a deliberately planted bug the chaos harness must
    #: catch (a torn record is then trusted verbatim).
    checkpoint_validate: bool = True
    #: Simulated seconds one checkpoint write costs the device.  The
    #: record rides the status-update page the device already posts, so
    #: the calibrated default charges nothing; the overhead bench
    #: sweeps nonzero values.
    checkpoint_write_cost_s: float = 0.0

    # --- end-to-end data integrity ------------------------------------
    #: Compute content digests where data is produced (NAND streams,
    #: chunk outputs, checkpoint records, transfer payloads) and verify
    #: them where it is consumed (executor result assembly, BAR
    #: readback, checkpoint restore).  Off by default with exactly zero
    #: simulated and metric overhead — the same discipline as obs and
    #: checkpointing.
    integrity_enabled: bool = False
    #: Actually *check* the digests at consumers.  ``False`` while
    #: ``integrity_enabled`` is the deliberately planted bug the chaos
    #: harness must catch: digests are computed and paid for but never
    #: compared, so silent corruption flows into the report.
    integrity_verify: bool = True
    #: Bytes/second one verifier sustains (hardware CRC32C runs near
    #: memory speed).  Every protected byte is charged ``1 / bandwidth``
    #: seconds to the ``integrity`` attribution component, which is what
    #: makes protection a planner-visible tradeoff.
    integrity_verify_bandwidth: float = 64.0 * GB

    def __post_init__(self) -> None:
        positive_fields = (
            "host_ips", "cse_ips", "bw_host_storage", "bw_internal",
            "bw_d2h", "nand_capacity_bytes", "device_dram_bytes",
            "nand_page_bytes", "nand_pages_per_block", "nand_channels",
            "nand_read_latency_s", "nand_program_latency_s",
            "nand_erase_latency_s", "bw_remote_access", "cse_cores",
            "integrity_verify_bandwidth",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        non_negative_fields = (
            "link_latency_s", "interp_dispatch_overhead", "copy_overhead",
            "compile_overhead_s", "codegen_residual_overhead",
            "migration_state_cost_s",
        )
        for name in non_negative_fields:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.sampling_factors:
            raise ConfigError("sampling_factors must not be empty")
        if any(not 0 < f < 1 for f in self.sampling_factors):
            raise ConfigError("sampling factors must lie in (0, 1)")
        if list(self.sampling_factors) != sorted(self.sampling_factors):
            raise ConfigError("sampling factors must be sorted ascending")
        if not 0 < self.ipc_degradation_threshold <= 1:
            raise ConfigError("ipc_degradation_threshold must lie in (0, 1]")
        if not 0 <= self.profiler_noise < 0.5:
            raise ConfigError(
                f"profiler_noise must lie in [0, 0.5), got {self.profiler_noise}"
            )
        if not 0 < self.readmission_threshold <= 1:
            raise ConfigError(
                "readmission_threshold must lie in (0, 1], got "
                f"{self.readmission_threshold}"
            )
        if self.readmission_cooldown_s < 0:
            raise ConfigError("readmission_cooldown_s must be non-negative")
        if self.command_deadline_s <= 0:
            raise ConfigError(
                f"command_deadline_s must be positive, got {self.command_deadline_s}"
            )
        if self.command_max_retries < 0:
            raise ConfigError(
                f"command_max_retries must be non-negative, got {self.command_max_retries}"
            )
        if self.retry_backoff_base_s <= 0:
            raise ConfigError(
                f"retry_backoff_base_s must be positive, got {self.retry_backoff_base_s}"
            )
        if self.retry_backoff_factor < 1:
            raise ConfigError(
                f"retry_backoff_factor must be >= 1, got {self.retry_backoff_factor}"
            )
        if self.queue_full_wait_s < 0:
            raise ConfigError(
                f"queue_full_wait_s must be non-negative, got {self.queue_full_wait_s}"
            )
        if self.chunk_replay_limit < 0:
            raise ConfigError(
                f"chunk_replay_limit must be non-negative, got {self.chunk_replay_limit}"
            )
        if self.checkpoint_write_cost_s < 0:
            raise ConfigError(
                f"checkpoint_write_cost_s must be non-negative, "
                f"got {self.checkpoint_write_cost_s}"
            )
        if self.attachment not in ("pcie", "nvmeof"):
            raise ConfigError(
                f"attachment must be 'pcie' or 'nvmeof', got {self.attachment!r}"
            )
        if self.nvmeof_extra_latency_s < 0:
            raise ConfigError("nvmeof_extra_latency_s must be non-negative")
        if self.cse_ips > self.host_ips:
            raise ConfigError(
                "the CSE must not be faster than the host CPU "
                f"(cse_ips={self.cse_ips}, host_ips={self.host_ips})"
            )
        # The device's internal bandwidth must be physically deliverable
        # by its flash array: channels x page / read-latency.
        nand_peak = (
            self.nand_channels * self.nand_page_bytes / self.nand_read_latency_s
        )
        if nand_peak < self.bw_internal:
            raise ConfigError(
                f"bw_internal ({self.bw_internal:.3g} B/s) exceeds what the "
                f"NAND geometry can sustain ({nand_peak:.3g} B/s); add "
                f"channels or lower the read latency"
            )

    @property
    def device_speed_ratio(self) -> float:
        """The paper's calibration constant C = host speed / CSE speed."""
        return self.host_ips / self.cse_ips

    @property
    def effective_link_latency_s(self) -> float:
        """One-way message latency including any fabric hop."""
        if self.attachment == "nvmeof":
            return self.link_latency_s + self.nvmeof_extra_latency_s
        return self.link_latency_s

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


#: Default platform used by tests, examples and benchmarks.
DEFAULT_CONFIG = SystemConfig()


def config_hash() -> str:
    """A short fingerprint of the default platform's parameters.

    Benchmark results stamp it in their envelope: two results with the
    same hash were produced by the same simulated platform, so their
    simulated seconds compare exactly, and a changed hash flags a
    deliberate model change.
    """
    payload = json.dumps(
        dataclasses.asdict(DEFAULT_CONFIG), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
