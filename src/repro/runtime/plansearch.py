"""Branching plan search: branch-and-bound over forked simulator states.

The paper's Algorithm 1 is a single greedy pass over Equation 1's
*fitted* per-line estimates, and it inherits every extrapolation error
the sampling phase makes: §V's CSR case study (``pagerank``,
``sparsemv``) over-predicts an output volume ~2.4x because power-law
sample prefixes genuinely look denser than the population, so greedy
conservatively keeps the conversion on the host while the oracle
offloads it.  No amount of re-fitting at sample scale recovers this —
the bend in the volume curve is simply not observable from prefixes.

Instead of *modelling* a candidate assignment, this module
**speculatively executes it on a forked simulator state**
(:meth:`~repro.sim.Simulator.snapshot` /
:meth:`~repro.sim.Simulator.restore`) and reads the clock.  The search
is a priority-queue branch-and-bound over partial host/CSD assignments:

* every node extension is simulated exactly once on a fork of the
  speculative machine, through the executor's own per-line path
  (:meth:`~repro.runtime.executor.PlanExecutor.run_line`), never
  re-run — the (line, location, input-crossing) step space is shared
  by all branches, which is the transposition table's currency;
* nodes are ordered by ``elapsed + lower_bound(remaining)`` where the
  remaining-work bound folds each remaining line's cheapest measured
  step — admissible by construction (transfers are nonnegative and
  float addition is monotone), the invariant
  ``tests/test_plansearch.py`` re-checks with Hypothesis;
* dominance pruning runs on (depth, value-location): two prefixes that
  leave the live value on the same unit are interchangeable for the
  future, so only the cheaper one survives (``memo_hits``);
* the incumbent is seeded with greedy's leaf, so the search **provably
  never returns a worse speculative makespan than Algorithm 1** —
  improvements must be strict, ties keep greedy's plan bit-for-bit;
* ``beam_width`` caps expansions per depth and ``workers > 1``
  evaluates the speculative step space on
  :mod:`repro.parallel`'s deterministic order-preserving pool —
  bit-identical plan *and* metrics to ``workers == 1``, since the pool
  only changes who runs the (deterministic) simulations.

The cost-callable firewall stays intact: nothing here reads a
statement's ground-truth cost model.  The search *measures* candidate
prefixes by dry-running them in the simulator — the in-simulation
analogue of speculative execution on the real device — which is
precisely how it escapes the §V extrapolation trap.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import PlanningError
from ..hw.topology import Machine, build_machine
from ..lang.dataset import Dataset
from ..lang.program import Program
from ..obs import Observability
from ..parallel import ordered_pool_map
from .codegen import CodeGenerator, ExecutionMode
from .estimator import LineEstimate
from .executor import PlanExecutor
from .planner import CSD, HOST, Plan, assign_csd_code, host_only_plan

__all__ = [
    "SearchMetrics",
    "SearchOptions",
    "SearchReport",
    "estimate_priority",
    "search_plan",
]

#: A speculative step: line ``index`` runs at ``location`` with the
#: live value currently on ``value_location``.
_StepKey = Tuple[int, str, str]

#: Sentinel index for the final device→host readback steps.
_FINAL = -1

#: Hard cap on expanded nodes (a 2^k tree for k lines never gets near
#: this; the cap bounds adversarial inputs).
_NODE_CAP = 65536


@dataclass(frozen=True)
class SearchOptions:
    """Knobs of one branch-and-bound search."""

    #: Maximum nodes expanded per depth (``None`` = unbounded).  The
    #: greedy incumbent is independent of the beam, so any width still
    #: returns a plan no worse than Algorithm 1.
    beam_width: Optional[int] = None
    #: Worker processes evaluating the speculative step space.  The
    #: search itself is sequential arithmetic over the (deterministic)
    #: step costs, so any worker count returns bit-identical results.
    workers: int = 1

    def digest_token(self) -> str:
        """A canonical token for cache keys (wall-clock knobs excluded)."""
        return f"beam={self.beam_width!r}"


@dataclass
class SearchMetrics:
    """What the search did, for ``plansearch.*`` observability."""

    nodes_expanded: int = 0
    nodes_pruned: int = 0
    memo_hits: int = 0
    #: Distinct speculative line-steps simulated (the step space).
    steps_simulated: int = 0
    #: Host wall-clock seconds the search took (excluded from the
    #: workers=N == workers=1 identity — it is the one field that
    #: legitimately differs).
    wall_seconds: float = 0.0
    #: Every incumbent improvement: (nodes_expanded_at, makespan,
    #: assignments) — seeded with greedy's leaf at node 0.
    incumbent_trajectory: List[Tuple[int, float, Tuple[str, ...]]] = field(
        default_factory=list
    )

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "nodes_expanded": self.nodes_expanded,
            "nodes_pruned": self.nodes_pruned,
            "memo_hits": self.memo_hits,
            "steps_simulated": self.steps_simulated,
            "wall_seconds": self.wall_seconds,
            "incumbent_trajectory": [
                {
                    "nodes_expanded": at,
                    "makespan_s": makespan,
                    "assignments": list(assignments),
                }
                for at, makespan, assignments in self.incumbent_trajectory
            ],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "SearchMetrics":
        return cls(
            nodes_expanded=int(payload["nodes_expanded"]),
            nodes_pruned=int(payload["nodes_pruned"]),
            memo_hits=int(payload["memo_hits"]),
            steps_simulated=int(payload["steps_simulated"]),
            wall_seconds=float(payload["wall_seconds"]),
            incumbent_trajectory=[
                (
                    int(entry["nodes_expanded"]),
                    float(entry["makespan_s"]),
                    tuple(str(a) for a in entry["assignments"]),
                )
                for entry in payload["incumbent_trajectory"]
            ],
        )


@dataclass
class SearchReport:
    """Outcome of one plan search, greedy baseline included."""

    plan: Plan
    greedy_plan: Plan
    #: Speculative (fault-free simulated) makespan of the chosen plan.
    makespan_s: float
    #: Speculative makespan of greedy's plan — the seeded incumbent.
    greedy_makespan_s: float
    metrics: SearchMetrics
    #: True when the plan came from the profile cache and the search
    #: itself was skipped entirely.
    cache_hit: bool = False

    @property
    def beat_greedy(self) -> bool:
        return self.plan.assignments != self.greedy_plan.assignments

    @property
    def improvement_fraction(self) -> float:
        """How much of greedy's makespan the search shaved off."""
        if self.greedy_makespan_s <= 0:
            return 0.0
        return 1.0 - self.makespan_s / self.greedy_makespan_s

    def changed_lines(self) -> List[Tuple[int, str, str, str]]:
        """(index, name, greedy_location, search_location) per diff."""
        out = []
        names = {e.index: e.name for e in self.plan.estimates}
        for i, (a, b) in enumerate(
            zip(self.greedy_plan.assignments, self.plan.assignments)
        ):
            if a != b:
                out.append((i, names.get(i, f"line{i}"), a, b))
        return out

    def publish(self, obs: Observability) -> None:
        """Emit ``plansearch.*`` metrics onto an observability handle."""
        if not obs.enabled:
            return
        metrics = obs.metrics
        metrics.counter("plansearch.nodes_expanded").inc(
            self.metrics.nodes_expanded
        )
        metrics.counter("plansearch.nodes_pruned").inc(self.metrics.nodes_pruned)
        metrics.counter("plansearch.memo_hits").inc(self.metrics.memo_hits)
        metrics.counter("plansearch.steps_simulated").inc(
            self.metrics.steps_simulated
        )
        if self.cache_hit:
            metrics.counter("plansearch.cache_hit").inc()
        metrics.counter("plansearch.incumbent_improvements").inc(
            max(0, len(self.metrics.incumbent_trajectory) - 1)
        )
        metrics.gauge("plansearch.makespan_s").set(self.makespan_s)
        metrics.gauge("plansearch.greedy_makespan_s").set(self.greedy_makespan_s)
        metrics.gauge("plansearch.improvement_fraction").set(
            self.improvement_fraction
        )

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.to_jsonable(),
            "greedy_plan": self.greedy_plan.to_jsonable(),
            "makespan_s": self.makespan_s,
            "greedy_makespan_s": self.greedy_makespan_s,
            "beat_greedy": self.beat_greedy,
            "improvement_fraction": self.improvement_fraction,
            "cache_hit": self.cache_hit,
            "metrics": self.metrics.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "SearchReport":
        """Rebuild a report serialised by :meth:`to_jsonable`.

        Floats round-trip exactly through JSON ``repr``, so a
        cache-served report carries the same makespans bit for bit —
        what lets warm runs skip the search without changing any
        simulated outcome.
        """
        try:
            return cls(
                plan=Plan.from_jsonable(payload["plan"]),
                greedy_plan=Plan.from_jsonable(payload["greedy_plan"]),
                makespan_s=float(payload["makespan_s"]),
                greedy_makespan_s=float(payload["greedy_makespan_s"]),
                metrics=SearchMetrics.from_jsonable(payload["metrics"]),
                cache_hit=bool(payload.get("cache_hit", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanningError(
                f"malformed search report payload: {exc}"
            ) from exc


def estimate_priority(estimates: Sequence[LineEstimate], depth: int) -> float:
    """Equation-1 optimistic remaining work from ``depth`` onward.

    The fitted-estimate heuristic that orders node expansion before
    measured steps exist: each remaining line costs at least its
    cheaper location, transfers optimistically free.  Ordering only —
    pruning always uses the measured bound, so a misfitted estimate
    (the §V trap) can delay exploration but never exclude the optimum.
    """
    return sum(
        min(e.ct_host, e.ct_device) for e in estimates[depth:]
    )


class _SpeculativeMachine:
    """A private machine the search dry-runs candidate prefixes on.

    Built once per search (and once per pool worker): a fresh
    fault-free machine with a disabled observability handle, every
    line's device binary installed, and a base snapshot taken after
    setup.  Each speculative step restores the base snapshot (cheap:
    setup leaves no pending events), executes exactly one line through
    the executor's own per-line path with migration off, and reads the
    elapsed simulated time off the clock.
    """

    def __init__(
        self, program: Program, dataset: Dataset, config: SystemConfig
    ) -> None:
        self.config = config
        self.n = float(dataset.n_records)
        self.machine: Machine = build_machine(
            config, obs=Observability.disabled()
        )
        self.machine.csd.store_dataset(dataset.name, dataset.raw_bytes)
        k = len(program)
        # Install binaries for every line so any assignment is runnable;
        # with the CSD disabled nothing is ever dispatched to it.
        codegen_assignments = [CSD if config.csd_enabled else HOST] * k
        scaffold = Plan(
            assignments=codegen_assignments, t_host=0.0, t_csd=0.0,
            origin="external",
        )
        self.compiled = CodeGenerator(config).generate(
            self.machine, program, scaffold, mode=ExecutionMode.ACTIVEPY,
        )
        self.base = self.machine.simulator.snapshot()

    def step_seconds(self, key: _StepKey) -> float:
        """Simulated seconds of one line-step, measured on a fork."""
        index, location, value_location = key
        simulator = self.machine.simulator
        simulator.restore(self.base)
        executor = PlanExecutor(self.machine, migration_enabled=False)
        executor.value_location = value_location
        started = simulator.now
        if index == _FINAL:
            executor.read_back(self.compiled, self.n)
        else:
            executor.run_line(self.compiled, self.n, index, location)
        return simulator.now - started


#: Worker-side speculative machine for parallel step evaluation.  Set
#: by the parent before the pool forks (children inherit it) and by
#: the initializer otherwise — the same pattern as the campaign
#: runner's pool harness in :mod:`repro.chaos.campaign`.
_WORKER_SPEC: Optional[_SpeculativeMachine] = None
_WORKER_CONTEXT: Optional[Tuple[Program, Dataset, SystemConfig]] = None


def _init_step_worker() -> None:
    global _WORKER_SPEC
    if _WORKER_SPEC is None:
        if _WORKER_CONTEXT is None:  # pragma: no cover - parent always set it
            raise PlanningError("step worker started without a search context")
        _WORKER_SPEC = _SpeculativeMachine(*_WORKER_CONTEXT)


def _eval_step(key: _StepKey) -> float:
    if _WORKER_SPEC is None:  # pragma: no cover - initializer always ran
        raise PlanningError("step worker has no speculative machine")
    return _WORKER_SPEC.step_seconds(key)


def _step_space(k: int, locations: Sequence[str]) -> List[_StepKey]:
    """Every step the search could need, in canonical order."""
    keys: List[_StepKey] = []
    for index in range(k):
        for location in locations:
            for value_location in (HOST, CSD):
                keys.append((index, location, value_location))
    # Final readback only matters when the last line ends on the CSD.
    keys.append((_FINAL, HOST, CSD))
    return keys


def _measure_steps(
    spec: _SpeculativeMachine,
    keys: Sequence[_StepKey],
    workers: int,
    program: Program,
    dataset: Dataset,
    config: SystemConfig,
) -> Dict[_StepKey, float]:
    """Evaluate the step space, optionally across worker processes.

    The values are deterministic functions of (program, dataset,
    config) — every worker builds an identical speculative machine and
    simulations share no state — so the table, and with it the whole
    search, is bit-identical for any worker count.
    """
    global _WORKER_SPEC, _WORKER_CONTEXT
    if workers <= 1 or len(keys) < 2:
        return {key: spec.step_seconds(key) for key in keys}
    _WORKER_SPEC = spec
    _WORKER_CONTEXT = (program, dataset, config)
    try:
        values = ordered_pool_map(
            _eval_step,
            list(keys),
            workers=workers,
            initializer=_init_step_worker,
        )
    finally:
        _WORKER_SPEC = None
        _WORKER_CONTEXT = None
    return dict(zip(keys, values))


def _fold_bound(
    elapsed: float, cheapest: Sequence[float], depth: int
) -> float:
    """``elapsed`` plus the measured optimistic remainder from ``depth``.

    A left fold in line order, matching how leaf makespans accumulate:
    float addition is monotone, so term-wise ``cheapest[i] <= actual
    step`` makes the fold a true lower bound — exactly, not just to
    tolerance (the Hypothesis admissibility test asserts ``<=`` with no
    epsilon).
    """
    bound = elapsed
    for i in range(depth, len(cheapest)):
        bound += cheapest[i]
    return bound


def search_plan(
    program: Program,
    dataset: Dataset,
    estimates: Sequence[LineEstimate],
    config: SystemConfig,
    *,
    options: Optional[SearchOptions] = None,
    greedy: Optional[Plan] = None,
) -> SearchReport:
    """Branch-and-bound over host/CSD assignments; never worse than greedy.

    Returns a :class:`SearchReport` whose ``plan`` carries
    ``origin="search"`` and whose ``t_host``/``t_csd`` are *measured*
    speculative makespans (all-host, and the winner) rather than the
    fitted model's projections — the search's projection is a
    measurement, which is the whole point.
    """
    opts = options if options is not None else SearchOptions()
    if opts.workers < 1:
        raise PlanningError(f"workers must be at least 1, got {opts.workers}")
    if opts.beam_width is not None and opts.beam_width < 1:
        raise PlanningError(
            f"beam_width must be at least 1, got {opts.beam_width}"
        )
    if len(estimates) != len(program):
        raise PlanningError(
            f"{len(estimates)} estimates for a {len(program)}-line program"
        )
    wall_started = time.perf_counter()
    metrics = SearchMetrics()
    greedy_plan = greedy if greedy is not None else (
        assign_csd_code(estimates, config) if estimates
        else host_only_plan(estimates)
    )
    k = len(program)
    if k == 0:
        plan = Plan(
            assignments=[], t_host=0.0, t_csd=0.0, estimates=tuple(estimates),
            origin="search",
        )
        metrics.wall_seconds = time.perf_counter() - wall_started
        return SearchReport(
            plan=plan, greedy_plan=greedy_plan,
            makespan_s=0.0, greedy_makespan_s=0.0, metrics=metrics,
        )

    locations: Tuple[str, ...] = (HOST, CSD) if config.csd_enabled else (HOST,)
    spec = _SpeculativeMachine(program, dataset, config)
    keys = _step_space(k, locations)
    steps = _measure_steps(
        spec, keys, opts.workers, program, dataset, config,
    )
    metrics.steps_simulated = len(steps)
    final_csd = steps[(_FINAL, HOST, CSD)]

    def leaf_tail(last_location: str) -> float:
        return final_csd if last_location == CSD else 0.0

    def walk(assignments: Sequence[str]) -> float:
        """Speculative makespan of a complete assignment."""
        elapsed = 0.0
        value_location = HOST
        for index, location in enumerate(assignments):
            elapsed += steps[(index, location, value_location)]
            value_location = location
        return elapsed + leaf_tail(value_location) if assignments else 0.0

    # The measured optimistic cost of each line, for the admissible
    # bound: its cheapest location, input optimistically in place.
    cheapest = [
        min(
            steps[(index, location, value_location)]
            for location in locations
            for value_location in (HOST, CSD)
        )
        for index in range(k)
    ]

    # Incumbent: greedy's leaf.  Improvements must be strict, so on a
    # workload where greedy is optimal the returned assignment is
    # greedy's, bit for bit.
    incumbent_assignments: Tuple[str, ...] = tuple(greedy_plan.assignments)
    greedy_makespan = walk(incumbent_assignments)
    incumbent_makespan = greedy_makespan
    metrics.incumbent_trajectory.append(
        (0, incumbent_makespan, incumbent_assignments)
    )

    # Priority queue of partial assignments.  The priority leads with
    # the measured admissible bound; the fitted-estimate heuristic and
    # the assignment tuple break ties deterministically.
    root = (
        _fold_bound(0.0, cheapest, 0),
        estimate_priority(estimates, 0),
        (),  # assignments so far
        0.0,  # elapsed
        HOST,  # value location
    )
    frontier: List[Tuple[float, float, Tuple[str, ...], float, str]] = [root]
    expanded_at_depth = [0] * (k + 1)
    best_at_state: Dict[Tuple[int, str], float] = {}

    while frontier and metrics.nodes_expanded < _NODE_CAP:
        bound, _, assignments, elapsed, value_location = heapq.heappop(frontier)
        depth = len(assignments)
        if bound >= incumbent_makespan:
            # The heap never shrinks its keys: every remaining node is
            # at least this bad, so the incumbent is optimal (within
            # the beam) and the search is done.
            metrics.nodes_pruned += len(frontier) + 1
            break
        state = (depth, value_location)
        seen = best_at_state.get(state)
        if seen is not None and elapsed >= seen:
            # Transposition: an interchangeable prefix already got here
            # at least as fast.
            metrics.memo_hits += 1
            continue
        best_at_state[state] = elapsed
        if opts.beam_width is not None:
            if expanded_at_depth[depth] >= opts.beam_width:
                metrics.nodes_pruned += 1
                continue
            expanded_at_depth[depth] += 1
        metrics.nodes_expanded += 1
        if depth == k:
            makespan = elapsed + leaf_tail(value_location)
            if makespan < incumbent_makespan:
                incumbent_makespan = makespan
                incumbent_assignments = assignments
                metrics.incumbent_trajectory.append(
                    (metrics.nodes_expanded, makespan, assignments)
                )
            continue
        for location in locations:
            child_elapsed = elapsed + steps[(depth, location, value_location)]
            child_bound = _fold_bound(child_elapsed, cheapest, depth + 1)
            if child_bound >= incumbent_makespan:
                metrics.nodes_pruned += 1
                continue
            heapq.heappush(frontier, (
                child_bound,
                estimate_priority(estimates, depth + 1),
                assignments + (location,),
                child_elapsed,
                location,
            ))

    t_host = walk((HOST,) * k)
    plan = Plan(
        assignments=list(incumbent_assignments),
        t_host=t_host,
        t_csd=incumbent_makespan,
        estimates=tuple(estimates),
        origin="search",
    )
    metrics.wall_seconds = time.perf_counter() - wall_started
    return SearchReport(
        plan=plan,
        greedy_plan=greedy_plan,
        makespan_s=incumbent_makespan,
        greedy_makespan_s=greedy_makespan,
        metrics=metrics,
    )
