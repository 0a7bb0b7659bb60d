"""Plan execution on the simulated machine.

The executor is the simulator-side counterpart of the ActivePy runtime:
it charges *ground-truth* costs (instruction counts, byte volumes) to
the machine — compute on the assigned unit, stored-data streaming over
the appropriate path, inter-unit value transfers over the NVMe link —
while the runtime's decisions (monitoring, re-estimation, migration)
consume only what a real host could observe: status updates carrying
IPC, and the plan's own fitted estimates.

Each line executes in ``chunks`` pieces (its dynamic instances).  After
every CSD chunk the device posts a status update, the simulator fires
any due background events (availability changes, GC), and the monitor
gets a chance to trigger re-estimation and migration.  Migration breaks
at a chunk boundary — "the end of the currently executing line" in the
paper's terms — saves locals, regenerates host code, and finishes the
remaining work on the host with live device-resident data accessed over
the remote BAR path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import (
    ConfigError, CseCrashError, FaultError, MigrationError, ProgramError,
)
from ..faults import FaultEvent, FaultLog
from ..hw.topology import Machine
from ..integrity import CLEAN_DIGEST, IntegrityChecker
from ..lang.program import Statement
from .checkpoint import CheckpointManager
from .codegen import CompiledProgram
from .dispatch import CallQueueDispatcher, StatusUpdate
from .estimator import LineEstimate
from .migration import MigrationEvent, migration_cost_estimate, perform_migration
from .monitor import MonitorDecision, RuntimeMonitor
from .planner import CSD, HOST

#: IPC drift lives in [0, 1]; the time-decade default buckets would
#: collapse it into two bins.
_DRIFT_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@dataclass
class LineTiming:
    """Where one line actually ran and how long it took."""

    index: int
    name: str
    planned_location: str
    actual_location: str
    seconds: float
    migrated_mid_line: bool = False


@dataclass
class ExecutionResult:
    """Outcome of one end-to-end plan execution."""

    program_name: str
    total_seconds: float
    line_timings: List[LineTiming]
    migrations: List[MigrationEvent] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    d2h_bytes: float = 0.0
    remote_access_bytes: float = 0.0
    status_updates: int = 0
    #: Every injected fault and recovery action, in sim-time order.
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: True when a fault forced work off its planned unit (the run
    #: still completed, host-side, instead of raising).
    degraded: bool = False
    #: Device chunks replayed after a transient fault.
    chunk_replays: int = 0
    #: Chunks actually executed per line index (device + host, replays
    #: included).  A correct run never executes fewer chunks than a
    #: line has — the chaos harness's work-conservation invariant.
    chunks_executed: Dict[int, int] = field(default_factory=dict)
    #: Line-boundary checkpoint counters (saves/restores/fallbacks/
    #: restarts/torn_writes) from the :class:`CheckpointManager`.
    checkpoint_stats: Dict[str, int] = field(default_factory=dict)
    #: Content signature of the reported output: :data:`CLEAN_DIGEST`
    #: unless silently corrupted bytes survived into the result (the
    #: chaos harness compares this against the fault-free baseline).
    output_digest: str = CLEAN_DIGEST
    #: Integrity-layer counters (detected/missed/verified_bytes/...)
    #: from the :class:`~repro.integrity.IntegrityChecker`.
    integrity_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def migrated(self) -> bool:
        return bool(self.migrations)

    def seconds_for(self, name: str) -> float:
        for timing in self.line_timings:
            if timing.name == name:
                return timing.seconds
        raise KeyError(f"no line named {name!r}")

    # --- the common report protocol (see analysis/export.py) ---------------

    def summary(self) -> Dict[str, Any]:
        """The headline numbers of the execution, JSON-ready."""
        return {
            "program": self.program_name,
            "total_seconds": self.total_seconds,
            "migrations": len(self.migrations),
            "degraded": self.degraded,
            "chunk_replays": self.chunk_replays,
            "status_updates": self.status_updates,
            "d2h_bytes": self.d2h_bytes,
            "remote_access_bytes": self.remote_access_bytes,
            "output_digest": self.output_digest,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        """Full JSON-ready view of the execution."""
        payload: Dict[str, Any] = {"experiment": "execution-result"}
        payload.update(self.summary())
        payload["line_timings"] = [asdict(t) for t in self.line_timings]
        payload["migration_events"] = [asdict(m) for m in self.migrations]
        payload["fault_events"] = [asdict(e) for e in self.fault_events]
        payload["chunks_executed"] = {
            str(index): count for index, count in sorted(self.chunks_executed.items())
        }
        payload["checkpoint_stats"] = dict(self.checkpoint_stats)
        payload["integrity_stats"] = dict(self.integrity_stats)
        return payload


#: Experiment hook: throttle the CSE when offloaded work crosses a
#: progress fraction — the paper stresses the device "right after each
#: application's ISP tasks make 50% of their progress".
ProgressTrigger = Tuple[float, float]  # (csd-progress fraction, new availability)


def check_progress_triggers(triggers: Sequence[ProgressTrigger]) -> None:
    """Reject triggers that could never fire or that the CSE would refuse.

    Offloaded progress runs from 0 to 1, so a fraction outside [0, 1]
    (or NaN) never fires; the CSE accepts availabilities in (0, 1].
    """
    for fraction, availability in triggers:
        if not (0.0 <= fraction <= 1.0 and 0.0 < availability <= 1.0):
            raise ConfigError(
                f"progress trigger ({fraction}, {availability}) needs a "
                "finite fraction in [0, 1] and an availability in (0, 1]"
            )


class _LineWork(NamedTuple):
    """One line's ground-truth work at the run's input size."""

    index: int
    statement: Statement
    d_in: float
    storage_total: float
    instr_total: float
    chunks: int
    multiplier: float


#: Trace resource of a line that started on the CSD and finished on
#: the host (migrated or fell back mid-line).
_MIXED = f"{CSD}+host"


class PlanExecutor:
    """Runs a compiled program under a plan, with optional migration.

    One executor serves one run: :meth:`execute` drives :meth:`run_line`
    over every line and then :meth:`read_back`, keeping the run's state
    (where the live value is, whether the run migrated or degraded) on
    the instance.  Plan search calls :meth:`run_line` and
    :meth:`read_back` directly to measure one step on a forked machine.
    """

    def __init__(
        self,
        machine: Machine,
        migration_enabled: bool = True,
        device=None,
        fault_log: Optional[FaultLog] = None,
    ) -> None:
        self.machine = machine
        self.migration_enabled = migration_enabled
        self.device = device if device is not None else machine.csd
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.dispatcher = CallQueueDispatcher(
            machine, device=self.device, fault_log=self.fault_log
        )
        self.checkpoints = CheckpointManager(
            device=self.device, config=machine.config, fault_log=self.fault_log
        )
        self.obs = machine.obs
        self.integrity = IntegrityChecker(
            config=machine.config,
            clock=machine.simulator.clock,
            fault_log=self.fault_log,
            obs=self.obs,
        )
        self.chunk_replays = 0
        self._reset({})

    def _reset(
        self,
        estimates: Dict[int, LineEstimate],
        triggers: Sequence[ProgressTrigger] = (),
        total_csd_instr: float = 1.0,
    ) -> None:
        """Start a run: the live value on the host, nothing migrated."""
        self.estimates = estimates
        self.value_location = HOST
        #: Once true, every remaining line runs on the host.
        self.migrated = False
        #: A fault forced work off its planned unit.
        self.degraded = False
        self.last_migration_at = -float("inf")
        self.timings: List[LineTiming] = []
        self.migrations: List[MigrationEvent] = []
        #: Chunks executed per line index, replays included.
        self._chunk_ledger: Dict[int, int] = {}
        #: Progress triggers not yet fired, in firing order.
        self._triggers = list(triggers)
        self._total_csd_instr = total_csd_instr
        self.csd_instr_done = 0.0

    # --- public entry ----------------------------------------------------

    def execute(
        self,
        compiled: CompiledProgram,
        n_records: int,
        progress_triggers: Sequence[ProgressTrigger] = (),
    ) -> ExecutionResult:
        check_progress_triggers(progress_triggers)
        if n_records <= 0:
            raise ProgramError(f"n_records must be positive, got {n_records}")
        machine = self.machine
        program = compiled.program
        plan = compiled.plan
        estimates = {e.index: e for e in plan.estimates}
        if self.migration_enabled and not estimates:
            raise MigrationError(
                "migration needs the plan's line estimates for re-estimation"
            )
        n = float(n_records)
        total_csd_instr = sum(
            statement.instructions(n)
            for statement, where in zip(program, plan.assignments)
            if where == CSD
        ) or 1.0
        self._reset(estimates, sorted(progress_triggers), total_csd_instr)
        started = machine.now
        d2h_before = machine.d2h_link.bytes_transferred
        remote_before = machine.remote_access_link.bytes_transferred
        for index in range(len(program)):
            self.run_line(compiled, n, index, plan.assignments[index])
        self.read_back(compiled, n)

        finished = machine.now
        if self.obs.enabled:
            self.obs.metrics.counter("executor.lines").inc(len(self.timings))
        return ExecutionResult(
            program_name=program.name,
            total_seconds=finished - started,
            line_timings=self.timings,
            migrations=self.migrations,
            started_at=started,
            finished_at=finished,
            d2h_bytes=machine.d2h_link.bytes_transferred - d2h_before,
            remote_access_bytes=(
                machine.remote_access_link.bytes_transferred - remote_before
            ),
            status_updates=self.dispatcher.status_updates,
            fault_events=list(self.fault_log.events),
            degraded=self.degraded,
            chunk_replays=self.chunk_replays,
            chunks_executed=dict(self._chunk_ledger),
            checkpoint_stats=self.checkpoints.stats(),
            output_digest=self.integrity.digest(),
            integrity_stats=self.integrity.stats(),
        )

    # --- one line ----------------------------------------------------------

    def run_line(
        self, compiled: CompiledProgram, n: float, index: int, planned: str
    ) -> None:
        """Run line ``index``, planned for ``planned``, and record its timing.

        After a migration or host fallback the line runs on the host
        unless re-admission sends it back to the device.  The line's
        input is shipped over the D2H link when it lives on the other
        unit; ``value_location`` then follows the line's output.
        """
        machine = self.machine
        program = compiled.program
        statement = program[index]
        location = HOST if self.migrated else planned
        if self.migrated and planned == CSD and self._readmissible(index):
            # Re-admission (extension beyond the paper).
            location = CSD
            self.migrated = False
        line_start = machine.now
        line = _LineWork(
            index=index,
            statement=statement,
            d_in=program.input_bytes(index, n),
            storage_total=statement.storage_bytes(n),
            instr_total=statement.instructions(n) * compiled.multiplier,
            chunks=statement.chunks,
            multiplier=compiled.multiplier,
        )
        self._chunk_ledger.setdefault(index, 0)

        if location != self.value_location and line.d_in > 0:
            self._ship(line.d_in, line.multiplier, key=f"input.line{index}",
                       label=f"{statement.name}.input")

        if location == CSD:
            resource = self._run_csd_line(compiled, line)
        else:
            self._host_chunks(line, 0, remote_input=False)
            resource = HOST
        self.value_location = CSD if resource == CSD else HOST
        self.obs.record_span(
            statement.name, "compute", resource, line_start, machine.now
        )
        self.timings.append(
            LineTiming(
                index=index,
                name=statement.name,
                planned_location=planned,
                actual_location=self.value_location,
                seconds=machine.now - line_start,
                migrated_mid_line=resource == _MIXED,
            )
        )

    def read_back(self, compiled: CompiledProgram, n: float) -> None:
        """Bring the program's final value to the host if it is on the CSD.

        The BAR readback of the result is the last place a garbled
        transfer could still slip into the report.
        """
        if self.value_location != CSD:
            return
        program = compiled.program
        self._ship(
            program[len(program) - 1].output_bytes(n), compiled.multiplier,
            key="final.output", label="final.output",
        )

    def _run_csd_line(self, compiled: CompiledProgram, line: _LineWork) -> str:
        """Dispatch a line to the device and run its chunks there.

        Returns the line's trace resource: :data:`CSD` when it finished
        on the device, :data:`_MIXED` when it migrated or fell back
        mid-line, and :data:`HOST` when the device refused the call.
        """
        machine = self.machine
        name = line.statement.name
        try:
            command_id = self.dispatcher.invoke(
                name, compiled.device_binaries.get(name)
            )
        except FaultError as exc:
            # The device would not even accept the call (stalled queue
            # pair beyond the deadline): run the whole line on the host.
            self._fall_back_to_host(
                line, "host-fallback", f"{name} could not be dispatched: {exc}",
                first_chunk=0, remote_input=self.value_location == CSD,
            )
            return HOST
        # The monitor's only readers are migration and the drift
        # histogram; without either, status updates go unread.
        monitor = None
        if self.migration_enabled or self.obs.enabled:
            monitor = RuntimeMonitor(
                config=machine.config,
                expected_ipc=self.device.cse.expected_ipc(),
            )
        resource = CSD
        replays_left = machine.config.chunk_replay_limit
        index, chunks = line.index, line.chunks
        live_vars = line.statement.live_vars
        chunk_instr = line.instr_total / chunks
        cse = self.device.cse
        chunk = 0
        # Commit the line's entry checkpoint so a crash during the very
        # first chunk still restores to *this* line.
        self.checkpoints.save(index, 0, live_vars, machine.now)
        while chunk < chunks:
            fault: Optional[FaultError] = None
            try:
                self._run_chunk_on_csd(line, chunk)
            except FaultError as exc:
                fault = exc
            machine.simulator.fire_due_events()
            if fault is None and cse.crashed:
                # The crash event fired inside this chunk's time span:
                # its partial work is lost.
                fault = CseCrashError(
                    f"CSE {self.device.name!r} crashed mid-chunk"
                )
            if fault is not None:
                if self._try_chunk_replay(line.statement, chunk, fault, replays_left):
                    replays_left -= 1
                    self.chunk_replays += 1
                    self.obs.count("executor.chunk_replays")
                    # The IPC trend across the fault is noise, not
                    # congestion; start the monitor fresh.
                    if monitor is not None:
                        monitor.reset()
                    continue
                # Retries exhausted (or the device is beyond saving):
                # resume host-side at a Python-line boundary.  The
                # resume point comes from the BAR checkpoint record,
                # not from host-side bookkeeping — the record survives
                # the crash (and, double-buffered, a torn write).
                resume = self.checkpoints.resume_chunk(
                    index, chunks, fallback=chunk
                )
                self._fall_back_to_host(
                    line, "host-fallback",
                    f"{name} resumes on the host at chunk {resume}",
                    first_chunk=resume, remote_input=line.d_in > 0,
                    command_id=command_id,
                )
                return _MIXED
            self.csd_instr_done += chunk_instr
            self._chunk_ledger[index] += 1
            chunk += 1
            self.checkpoints.save(index, chunk, live_vars, machine.now)
            if self._triggers:
                self._apply_progress_triggers()
            update = self._post_status(line.statement, chunk, chunks)
            if monitor is not None and self._monitor(
                compiled, line, chunk, monitor, update
            ):
                resource = _MIXED
                break
        return resource if self._complete(line, command_id) else _MIXED

    def _complete(self, line: _LineWork, command_id: int) -> bool:
        """Post and reap a device line's final completion; False if the
        host had to replay the line."""
        self.dispatcher.complete(command_id)
        try:
            self.dispatcher.reap_completion(command_id)
        except FaultError as exc:
            # The work ran but its final acknowledgement never arrived
            # and retries exhausted: the host cannot trust it, so it
            # replays the whole line itself (lines are idempotent).
            self._fall_back_to_host(
                line, "line-replay-host",
                f"{line.statement.name} unacknowledged ({exc}); "
                "replayed on the host",
                first_chunk=0, remote_input=line.d_in > 0,
                command_id=command_id,
            )
            return False
        return True

    def _monitor(
        self,
        compiled: CompiledProgram,
        line: _LineWork,
        chunk: int,
        monitor: RuntimeMonitor,
        update: StatusUpdate,
    ) -> bool:
        """Feed one status update to the monitor; migrate if it pays.

        Returns True when the line's remaining chunks moved to the host.
        """
        decision = monitor.observe(update)
        if self.obs.enabled:
            # Drift of observed vs planner-predicted IPC per status
            # update, so migration triggers can be audited against the
            # estimate after the fact.
            self.obs.metrics.histogram(
                "monitor.ipc_drift", buckets=_DRIFT_BUCKETS
            ).observe(decision.ipc_drift)
        if not (self.migration_enabled and decision.reestimate):
            return False
        event = self._consider_migration(
            plan=compiled.plan,
            line=line,
            chunk=chunk,
            monitor=monitor,
            decision=decision,
            forced=update.high_priority_pending,
        )
        if event is None:
            return False
        self.migrations.append(event)
        self.obs.count("executor.migrations")
        # The drift that tipped this migration, for audits.
        self.obs.gauge("monitor.migration_trigger_drift", decision.ipc_drift)
        self.last_migration_at = self.machine.now
        if update.high_priority_pending:
            self.device.cse.acknowledge_high_priority()
        # Finish this line's remaining chunks on the host, reading the
        # unconsumed input remotely.  The break chunk is re-read from
        # the checkpoint record the device left in shared memory (paper
        # §III-D).
        self._host_chunks(
            line,
            event.resume_chunk if event.resume_chunk >= 0 else chunk,
            remote_input=line.d_in > 0,
        )
        self.migrated = True
        return True

    def _fall_back_to_host(
        self,
        line: _LineWork,
        action: str,
        detail: str,
        first_chunk: int,
        remote_input: bool,
        command_id: Optional[int] = None,
    ) -> None:
        """Finish a device line on the host after a fault.

        The three triggers are a dispatch the device refused, chunk
        replays exhausted mid-line, and a final completion that never
        arrived; each logs its own recovery ``action``.
        """
        self.fault_log.record(
            self.machine.now, "recovery", self.device.name, action, detail
        )
        if command_id is not None:
            self.dispatcher.abandon(command_id)
        self._host_chunks(line, first_chunk, remote_input)
        self.migrated = True
        self.degraded = True
        self.obs.count("executor.host_fallbacks")

    # --- chunk mechanics ----------------------------------------------------

    def _move(self, link, nbytes: float, multiplier: float) -> None:
        """Transfer data, with the runtime mode's data-path overhead.

        Interpreted and Cython runtimes move data through boxed
        buffers, so their I/O path stretches by the same factor as
        their compute; ActivePy's copy elimination is what removes it.
        """
        elapsed = link.transfer(nbytes)
        if multiplier > 1.0 and elapsed > 0:
            # The boxed-buffer stretch is still time on the same wire.
            self.machine.simulator.clock.advance(
                elapsed * (multiplier - 1.0), component=link.component
            )

    def _ship(self, nbytes: float, multiplier: float, key: str, label: str) -> None:
        """Move a value over the D2H link, then check its digest.

        Used for the standalone payload moves (shipping a line's input,
        the final BAR readback of the result) where recovery is an
        inline retransmit rather than a chunk replay.
        """
        link = self.machine.d2h_link
        start = self.machine.now
        self._move(link, nbytes, multiplier)
        self._ingest(
            [(link, nbytes)], multiplier,
            tainted=False, key=key, target=link.name, raise_on_detect=False,
        )
        self.obs.record_span(label, "transfer", "d2h", start, self.machine.now)

    def _ingest(
        self,
        moves,
        multiplier: float,
        tainted: bool,
        key: Optional[str],
        target: str,
        raise_on_detect: bool,
    ) -> None:
        """Consumer-side integrity handling for freshly ingested bytes.

        Consumes any armed in-flight corruption on the traversed links
        (the bits flip whether or not anyone checks), charges the
        simulated verify cost when the layer is enabled, and on a
        detected mismatch either raises :class:`IntegrityError` (device
        chunks — the caller's replay machinery recovers) or re-reads
        the garbled payloads inline (host-side transfers).  With the
        layer disabled this touches neither the clock nor any metric.
        """
        integ = self.integrity
        dirty = [
            (link, nbytes)
            for link, nbytes in moves
            if nbytes > 0 and link.consume_transfer_corruption()
        ]
        tainted = tainted or bool(dirty)
        if integ.enabled:
            integ.charge_verify(
                sum(nbytes for _, nbytes in moves if nbytes > 0)
            )
            if tainted and integ.verify:
                if raise_on_detect:
                    integ.raise_mismatch(target, f"{key}: content digest mismatch")
                while dirty:
                    integ.record_detected(
                        target, f"{key}: payload digest mismatch; re-reading"
                    )
                    redo, dirty = dirty, []
                    for link, nbytes in redo:
                        self._move(link, nbytes, multiplier)
                        integ.charge_verify(nbytes)
                        if link.consume_transfer_corruption():
                            dirty.append((link, nbytes))
                tainted = False
        if key is not None:
            integ.record_unit(key, tainted)

    def _chunk(
        self,
        unit,
        moves,
        instructions: float,
        multiplier: float,
        key: Optional[str] = None,
        tainted: bool = False,
        raise_on_detect: bool = False,
    ) -> None:
        """One chunk of data movement + compute on ``unit``.

        ``moves`` is a list of (link, nbytes) pairs.  Sequential by
        default; with ``config.overlap_io_compute`` the chunk costs
        max(io, compute), modelling a double-buffered engine.  ``key``
        names the logical unit in the integrity taint ledger;
        ``tainted`` carries producer-side corruption already consumed
        by the caller (a silently corrupted NAND stream).
        """
        machine = self.machine
        chunk_started = machine.now
        if not machine.config.overlap_io_compute:
            for link, nbytes in moves:
                if nbytes > 0:
                    self._move(link, nbytes, multiplier)
            unit.execute(instructions)
            self._record_chunk(unit, chunk_started)
            self._ingest(
                moves, multiplier,
                tainted=tainted, key=key, target=unit.name,
                raise_on_detect=raise_on_detect,
            )
            return
        io_seconds = sum(
            link.transfer_time(nbytes) * multiplier
            for link, nbytes in moves if nbytes > 0
        )
        compute_seconds = unit.execution_time(instructions)
        elapsed = max(io_seconds, compute_seconds)
        # Overlapped chunks advance once by the binding side; attributing
        # the whole advance to that side is critical-path accounting —
        # the hidden, shorter resource contributes zero path time.
        if io_seconds >= compute_seconds and moves:
            binding = moves[0][0].component
        else:
            binding = unit.component
        machine.simulator.clock.advance(elapsed, component=binding)
        for link, nbytes in moves:
            if nbytes > 0:
                link.account(nbytes)
        unit.charge(instructions, elapsed)
        self._record_chunk(unit, chunk_started)
        self._ingest(
            moves, multiplier,
            tainted=tainted, key=key, target=unit.name,
            raise_on_detect=raise_on_detect,
        )

    def _record_chunk(self, unit, chunk_started: float) -> None:
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter(f"executor.chunks.{unit.name}").inc()
            metrics.histogram("executor.chunk_seconds").observe(
                self.machine.now - chunk_started
            )

    def _run_chunk_on_csd(self, line: _LineWork, chunk: int) -> None:
        tainted = False
        if line.storage_total > 0:
            # The chunk's streamed NAND access may hit an armed media
            # fault: ECC re-reads cost time here, an uncorrectable
            # error aborts the chunk before any work is charged.
            extra = self.device.consume_media_fault()
            if extra > 0:
                self.fault_log.record(
                    self.machine.now, "nand-read-correctable", self.device.name,
                    "ecc-corrected",
                    f"{line.statement.name}: {extra:.6f}s of ECC re-reads",
                )
            # A silently corrupted stream costs nothing and raises
            # nothing here: the flipped bits ride into the chunk and
            # only the end-of-chunk digest check can notice.
            tainted = self.device.flash.consume_silent_corruption()
        self._chunk(
            self.device.cse,
            [(self.device.internal_link, line.storage_total / line.chunks)],
            line.instr_total / line.chunks,
            line.multiplier,
            key=f"line{line.index}.chunk{chunk}",
            tainted=tainted,
            raise_on_detect=True,
        )

    def _host_chunks(
        self, line: _LineWork, first_chunk: int, remote_input: bool
    ) -> None:
        """Run chunks ``first_chunk..chunks`` of a line on the host.

        ``remote_input`` reads the line's device-resident input over
        the BAR path instead of expecting it in host memory.
        """
        machine = self.machine
        index, chunks, multiplier = line.index, line.chunks, line.multiplier
        chunk_storage = line.storage_total / chunks
        chunk_input = line.d_in / chunks
        chunk_instr = line.instr_total / chunks
        for chunk in range(first_chunk, chunks):
            moves = [(machine.host_storage_link, chunk_storage)]
            if remote_input:
                moves.append((machine.remote_access_link, chunk_input))
            self._chunk(
                machine.host, moves, chunk_instr, multiplier,
                key=f"line{index}.chunk{chunk}",
            )
            self._chunk_ledger[index] += 1
            machine.simulator.fire_due_events()

    def _try_chunk_replay(
        self,
        statement: Statement,
        chunk: int,
        fault: FaultError,
        replays_left: int,
    ) -> bool:
        """Decide whether a failed device chunk is worth replaying.

        Transient faults (a consumed NAND read error, a crash the
        firmware resets within the deadline budget) are replayed on the
        device; persistent media faults and crashes that outlast the
        deadline are not — the caller then falls back to the host.
        All waiting happens in sim time so scheduled recovery events
        (the CSE reset) can fire while the host backs off.
        """
        machine = self.machine
        config = machine.config
        self.fault_log.record(
            machine.now, "recovery", self.device.name, "chunk-failed",
            f"{statement.name} chunk {chunk}: {fault}",
        )
        if replays_left <= 0:
            return False
        if self.device.flash.has_persistent_fault:
            # The page is unreadable on-device no matter how often we
            # retry; only the host path (replicated data) can finish.
            return False
        if self.device.cse.crashed:
            waited = 0.0
            delay = config.retry_backoff_base_s
            while waited < config.command_deadline_s and self.device.cse.crashed:
                step = min(delay, config.command_deadline_s - waited)
                # Backoff time is spent waiting on the engine's firmware
                # reset, so it belongs to the CSE, not the host.
                with self.obs.attr_scope("cse"):
                    machine.simulator.run_until(machine.now + step)
                waited += step
                delay *= config.retry_backoff_factor
            if self.device.cse.crashed:
                self.fault_log.record(
                    machine.now, "recovery", self.device.name, "device-dead",
                    f"CSE still down after backing off {waited:.6f}s",
                )
                return False
        self.fault_log.record(
            machine.now, "recovery", self.device.name, "chunk-replay",
            f"{statement.name} chunk {chunk} replayed on the device",
        )
        return True

    def _readmissible(self, index: int) -> bool:
        """Whether a migrated run may send line ``index`` back to its
        planned home on the CSD (an extension beyond the paper).

        The cooldown since the last migration must have passed, the
        device must report a healthy rate again (the host reads the
        rate the device publishes, the same channel as the status
        updates, never the simulator's availability knob), and the
        line's Equation-1 delta must still favour the device.  The
        line's input now lives on the host, so the move pays both
        transfers.
        """
        config = self.machine.config
        if not config.readmission_enabled or not self.device.healthy:
            return False
        if self.machine.now - self.last_migration_at < config.readmission_cooldown_s:
            return False
        cse = self.device.cse
        reported_rate = cse.expected_ipc() * cse.availability
        if reported_rate < config.readmission_threshold * cse.expected_ipc():
            return False
        estimate = self.estimates.get(index)
        if estimate is None:
            return False
        bw = config.bw_d2h
        delta = (
            -estimate.ct_host + estimate.ct_device
            + estimate.d_in / bw + estimate.d_out / bw
        )
        return delta < 0

    def _post_status(self, statement: Statement, chunk: int, chunks: int) -> StatusUpdate:
        """Device side: report this line's execution rate (paper §III-C0b).

        The status-update code patched into the CSD binary measures its
        own recent rate; under contention the foreground task retires
        fewer instructions per wall cycle, so the reported IPC is the
        expected IPC scaled by the cycles the engine actually got.
        """
        cse = self.device.cse
        observed_ipc = cse.expected_ipc() * cse.availability
        update = StatusUpdate(
            line_name=statement.name,
            chunk=chunk,
            ipc=observed_ipc,
            progress=chunk / chunks,
            high_priority_pending=cse.high_priority_pending,
        )
        self.dispatcher.post_status(update)
        self.dispatcher.drain_status()
        return update

    # --- migration decision ----------------------------------------------------

    def _consider_migration(
        self,
        plan,
        line: _LineWork,
        chunk: int,
        monitor: RuntimeMonitor,
        decision: MonitorDecision,
        forced: bool,
    ) -> Optional[MigrationEvent]:
        """Re-estimate and migrate if the host now wins (paper §III-D)."""
        machine = self.machine
        config = machine.config
        estimates = self.estimates
        index, chunks = line.index, line.chunks
        est = estimates.get(index)
        if est is None:
            return None
        remaining_frac = (chunks - chunk) / chunks
        later_csd = [
            estimates[i]
            for i in range(index + 1, len(plan.assignments))
            if plan.assignments[i] == CSD and i in estimates
        ]
        c_factor = config.device_speed_ratio

        device_compute = est.compute_host * c_factor * remaining_frac
        device_access = est.d_storage * remaining_frac / config.bw_internal
        for later in later_csd:
            device_compute += later.compute_host * c_factor
            device_access += later.d_storage / config.bw_internal
        device_projection = monitor.reestimate_remaining_seconds(
            device_compute, device_access, decision.inferred_availability
        )
        # The region's final output still crosses back to the host.
        tail = later_csd[-1] if later_csd else est
        device_projection += tail.d_out / config.bw_d2h

        host_compute = est.compute_host * remaining_frac + sum(
            later.compute_host for later in later_csd
        )
        storage_bytes = est.d_storage * remaining_frac + sum(
            later.d_storage for later in later_csd
        )
        live_input = est.d_in * remaining_frac
        host_projection = migration_cost_estimate(
            config,
            remaining_host_compute_s=host_compute,
            remaining_storage_bytes=storage_bytes,
            live_input_bytes=live_input,
        )

        if not forced and host_projection >= device_projection:
            return None
        # The break chunk the host resumes at is read back from the
        # checkpoint record in BAR memory — with checkpointing off the
        # event carries -1 and the caller trusts its own counter.
        resume = (
            self.checkpoints.resume_chunk(index, chunks, fallback=chunk)
            if self.checkpoints.enabled else -1
        )
        event = perform_migration(
            machine=machine,
            line_index=index,
            line_name=line.statement.name,
            chunk=chunk,
            reason=(
                decision.reason if not forced
                else f"high-priority request; {decision.reason}"
            ),
            projected_device_seconds=device_projection,
            projected_host_seconds=host_projection,
            resume_chunk=resume,
        )
        self.obs.record_span(
            f"migrate.{line.statement.name}", "migration", HOST,
            event.sim_time - event.cost_seconds, machine.now,
        )
        return event

    # --- helpers -----------------------------------------------------------

    def _apply_progress_triggers(self) -> None:
        triggers = self._triggers
        while triggers and self.csd_instr_done / self._total_csd_instr >= triggers[0][0]:
            self.device.cse.set_availability(triggers.pop(0)[1])
