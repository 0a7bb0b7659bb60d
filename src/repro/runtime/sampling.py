"""The sampling phase (paper §III-A).

ActivePy heuristically selects prefixes of the raw stored input at four
exponentially growing scaling factors (tiny 2^-10, small 2^-9, medium
2^-8, large 2^-7), runs the program on each sample under the line
profiler, and aggregates per-line observation series that the curve
fitter consumes.

Sampling is not free: each sample run reads its (small) input and
executes every kernel, and the phase's simulated cost is charged to the
machine clock by the caller — this is the overhead the paper measures
at "typically 0.1 sec".

The factors' wall-clock work (ratio 1:2:4:8) is spread over two cores.
The smallest factor runs inline first and doubles as a probe: when its
wall time predicts that the middle factors will outlast a fork, one
forked child profiles them while this process profiles the largest.
Every time a record holds comes from the cost model and every byte
count from the real payload, so where a factor runs cannot change the
report.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..errors import SamplingError
from ..lang.dataset import Dataset
from ..lang.program import Program
from ..parallel import fork_context
from .fitting import FittedCurve, fit_curve
from .profiler import LineProfiler, LineRecord

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

#: Fork a child for the middle factors only when the probe predicts
#: their profiling takes at least this many wall seconds.  A fork, the
#: child's start-up and the pipe back cost 6-13 ms on a 2-core Xeon, and
#: the probe over-predicts small samples (fixed per-kernel costs), so
#: the gate sits well above both: every program at scale 2^-6 predicts
#: at most ~60 ms and stays inline.
FORK_MIN_CHILD_S = 0.1


@dataclass
class SampleSeries:
    """Observations for one line across all sample runs."""

    index: int
    name: str
    n_values: List[int] = field(default_factory=list)
    compute_seconds: List[float] = field(default_factory=list)
    data_access_seconds: List[float] = field(default_factory=list)
    input_bytes: List[float] = field(default_factory=list)
    output_bytes: List[float] = field(default_factory=list)
    storage_bytes: List[float] = field(default_factory=list)

    def add(self, record: LineRecord) -> None:
        self.n_values.append(record.n_records)
        self.compute_seconds.append(record.compute_seconds)
        self.data_access_seconds.append(record.data_access_seconds)
        self.input_bytes.append(record.input_bytes)
        self.output_bytes.append(record.output_bytes)
        self.storage_bytes.append(record.storage_bytes)


@dataclass
class LineFits:
    """Fitted curves for every per-line metric."""

    index: int
    name: str
    compute: FittedCurve
    data_access: FittedCurve
    output_bytes: FittedCurve
    storage_bytes: FittedCurve


@dataclass
class SamplingReport:
    """Everything the sampling phase learned, plus what it cost."""

    series: List[SampleSeries]
    fits: List[LineFits]
    #: Simulated seconds the sample runs consumed.
    sampling_seconds: float
    factors: tuple

    def fit_for(self, name: str) -> LineFits:
        for fit in self.fits:
            if fit.name == name:
                return fit
        raise SamplingError(f"no fitted line named {name!r}")


class SamplingPhase:
    """Drives sample-input creation, profiling, and curve fitting."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.profiler = LineProfiler(config)

    def run(self, program: Program, dataset: Dataset) -> SamplingReport:
        """Profile the program at every scaling factor and fit curves."""
        if dataset.is_sample:
            raise SamplingError("sampling must start from the full dataset")
        sizes = {
            max(1, round(dataset.full_records * f))
            for f in self.config.sampling_factors
        }
        if len(sizes) < len(self.config.sampling_factors):
            raise SamplingError(
                f"dataset {dataset.name!r} has too few records "
                f"({dataset.full_records}) for the sampling factors to "
                f"produce distinct sample sizes"
            )
        factors = self.config.sampling_factors
        jitters = self.profiler.draw_jitters(len(factors), len(program))

        def profile(run: int) -> List[LineRecord]:
            sample = dataset.sample(factors[run])
            return self.profiler.profile(program, sample, jitters=jitters[run])

        start = time.perf_counter()
        runs = [profile(0)]
        context = _fork_context(time.perf_counter() - start, factors)
        rest = list(range(1, len(factors)))
        if context is None:
            runs += [profile(run) for run in rest]
        else:
            runs += _profile_with_child(context, profile, rest[:-1], rest[-1],
                                        factors)

        series: Dict[int, SampleSeries] = {
            i: SampleSeries(index=i, name=s.name) for i, s in enumerate(program)
        }
        total_seconds = 0.0
        for records in runs:
            total_seconds += self.profiler.run_seconds(records)
            for record in records:
                series[record.index].add(record)

        fits = [self._fit_line(s) for s in series.values()]
        return SamplingReport(
            series=list(series.values()),
            fits=fits,
            sampling_seconds=total_seconds,
            factors=tuple(self.config.sampling_factors),
        )

    def _fit_line(self, s: SampleSeries) -> LineFits:
        ns = [float(n) for n in s.n_values]
        return LineFits(
            index=s.index,
            name=s.name,
            compute=fit_curve(ns, s.compute_seconds),
            data_access=fit_curve(ns, s.data_access_seconds),
            output_bytes=fit_curve(ns, s.output_bytes),
            storage_bytes=fit_curve(ns, s.storage_bytes),
        )


def _fork_context(probe_s: float, factors: Sequence[float]) -> Optional[BaseContext]:
    """The fork context when a child for the middle factors pays, else None.

    The probe profiled ``factors[0]`` in ``probe_s`` wall seconds; the
    middle factors are predicted to take that times their size ratio.
    Forking a process with a second thread alive can deadlock the child
    (and warns on Python 3.12+), so then everything runs inline.  NumPy's
    OpenBLAS threads do not count: OpenBLAS joins them in a
    ``pthread_atfork`` handler before every fork.
    """
    if len(factors) < 3:
        return None
    if probe_s * sum(factors[1:-1]) / factors[0] < FORK_MIN_CHILD_S:
        return None
    if threading.active_count() != 1:
        return None
    context = fork_context()
    if context is None or context.current_process().daemon:
        # A daemonic process may not start children.
        return None
    return context


def _profile_with_child(
    context: BaseContext,
    profile: Callable[[int], List[LineRecord]],
    child_runs: List[int],
    parent_run: int,
    factors: Sequence[float],
) -> List[List[LineRecord]]:
    """Profile ``child_runs`` in a forked child and ``parent_run`` here.

    Returns the records in run order.  This process keeps the largest
    sample, so its own peak RSS stays what the serial phase's was.  A
    failure is raised as the serial phase would raise it.
    """
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_child_main, args=(sender, profile, child_runs), daemon=True
    )
    child.start()
    sender.close()
    try:
        # Hold this process's failure until the child has answered: the
        # child's runs come first, so its failure is the serial one.
        own_error: Optional[Exception] = None
        try:
            own = profile(parent_run)
        except Exception as exc:
            own_error = exc
        try:
            status, payload = receiver.recv()
        except EOFError:
            child.join()
            names = ", ".join(
                f"2^{math.log2(factors[run]):g}" for run in child_runs
            )
            raise SamplingError(
                f"the sampling child profiling factors {names} died "
                f"(exit code {child.exitcode})"
            ) from own_error
        if status == "error":
            raise payload
        if own_error is not None:
            raise own_error
    except BaseException:
        child.terminate()
        raise
    finally:
        receiver.close()
        child.join()
    return payload + [own]


def _child_main(
    sender: Connection,
    profile: Callable[[int], List[LineRecord]],
    runs: List[int],
) -> None:
    """Forked child: profile ``runs`` and send back their records."""
    try:
        result = ("ok", [profile(run) for run in runs])
    except Exception as exc:
        result = ("error", exc)
    sender.send(result)
    sender.close()
