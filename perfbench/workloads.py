"""The four benchmark workloads, driven only through the public API.

Each workload is one caller in a closed loop: it issues the next call
when the previous one returns, from a single process with no worker
pool.  ``setup`` does everything before the first timed call; each
``run_pass`` performs one fixed unit of timed work in two arms (the
primary operations and a second kind), checks every output it produced,
and returns the operations' wall-clock intervals together with the
simulated outputs, which feed the run's digest.  Between operations the
workload runs slices of the reference clock (:mod:`perfbench.refclock`).
Two passes with the same index do the same simulated work, so a traced
pass can be compared bit for bit with an untraced one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.chaos as chaos
import repro.fleet as fleet
from repro import ActivePy, get_workload, workload_names
from repro.analysis.compare import diff_results
from repro.analysis.expected import EXPECTED_SELFCHECK
from repro.analysis.selfcheck import DEFAULT_TOLERANCE, SELFCHECK_WORKLOADS
from repro.baselines import StaticIspBaseline, run_c_baseline
from repro.chaos.campaign import DEFAULT_SCALE as CHAOS_SCALE
from repro.chaos.campaign import DEFAULT_WORKLOADS as CHAOS_WORKLOADS
from repro.config import DEFAULT_CONFIG
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.obs import Observability
from repro.obs.attribution import COMPONENTS
from repro.runtime.profcache import ProfileCache

from perfbench.refclock import RefClock

#: Scale of the cold suite: the paper's Table I sizes.
COLD_SCALE = 1.0
#: Search runs per program in the cold suite's second arm.  One search
#: takes about 25 ms, too short to time once against the host's noise.
SEARCH_REPEATS = 5

#: Scale of the warm suite: warm wall time does not depend on scale,
#: filling the cache does (14.5 s at 1.0, about 2 s here).
WARM_SCALE = 2 ** -6

#: Runs per machine chaos campaign; a default-config fleet campaign
#: (100 runs) follows each one.
CHAOS_RUNS = 200
FLEET_CAMPAIGN = fleet.FleetCampaignConfig()

#: Fleet traffic: the recorder-off arm serves a large job count; the
#: recorder-on arm a smaller one, still large enough that the flight
#: recorder's per-completion window rescans dominate it.
FLEET_JOBS_OFF = 20_000
FLEET_CALLS_OFF = 4
FLEET_JOBS_ON = 5_000
FLEET_CALLS_ON = 3
#: One scripted device loss and rejoin, in simulated seconds.
FLEET_LOSS = dict(target="csd1", at_time=60.0, duration_s=120.0)
#: Flight-recorder window, as ``fleet run --timeline`` uses by default.
FLEET_WINDOW_S = 0.25

#: Seconds between reference slices inside a pass.
SLICE_GAP_S = 0.5

Interval = Tuple[float, float]


@dataclass
class Pass:
    """One pass of timed work and what it produced."""

    #: Wall-clock (start, end) of each operation, per arm.  The primary
    #: intervals are also the latency samples.
    primary: List[Interval] = field(default_factory=list)
    alt: List[Interval] = field(default_factory=list)
    #: Units of work per arm: runs, or jobs for fleet_serve.
    primary_units: float = 0.0
    alt_units: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: JSON-ready simulated outputs, digested by the runner.
    outputs: List[Any] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _report_output(report) -> Dict[str, Any]:
    return {
        "program": report.program_name,
        "total_s": report.total_seconds,
        "plan": list(report.plan.assignments),
        "signature": repr(chaos.run_signature(report)),
    }


class Workload:
    """Base: a named, seeded closed loop with fixed passes."""

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.clock = RefClock()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> Pass:
        """One pass, bracketed by reference slices."""
        self.clock.slice()
        out = self._pass(index)
        self.clock.slice()
        return out

    def _pass(self, index: int) -> Pass:
        raise NotImplementedError

    def _call(self, intervals: List[Interval], fn, *args, **kwargs):
        """Time one operation into ``intervals``, then maybe slice."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        intervals.append((start, time.perf_counter()))
        self.clock.maybe_slice(SLICE_GAP_S)
        return result

    def final_checks(self, passes: List[Pass]) -> List[str]:
        """Checks on the whole run, made after the timed passes."""
        return []

    def sim_layers(self, passes: List[Pass]) -> Dict[str, float]:
        """Exact simulated-clock numbers for the per-layer report."""
        return {}


class ColdSuite(Workload):
    """All ten programs at scale 1.0 against an empty profile cache."""

    name = "cold_suite"

    def setup(self) -> None:
        self.caches: List[ProfileCache] = []

    def _pass(self, index: int) -> Pass:
        out = Pass()
        # Every pass, traced or not, starts from its own empty cache.
        cache = ProfileCache(self.work_dir / f"cold-cache-{len(self.caches)}")
        self.caches.append(cache)
        greedy = ActivePy(profile_cache=cache)
        search = ActivePy(profile_cache=cache, plan_mode="search")
        # A fixed order: the first run pays the process's one-time
        # warm-up, and which program that is should not vary by seed.
        for name in workload_names():
            workload = get_workload(name, COLD_SCALE)
            cold = self._call(out.primary, greedy.run, workload.program,
                              workload.dataset)
            out.primary_units += 1
            out.check(cold.sampling_cache_status == "miss",
                      f"{name}: cold run was not a cache miss")
            searched = []
            for _ in range(SEARCH_REPEATS):
                # Drop the cached plan so that every search is computed.
                shutil.rmtree(cache.root / "plans", ignore_errors=True)
                found = self._call(out.alt, search.run, workload.program,
                                   workload.dataset)
                out.alt_units += 1
                out.check(
                    found.sampling_cache_status == "hit"
                    and found.search is not None and not found.search.cache_hit,
                    f"{name}: search run did not reuse sampling and search afresh",
                )
                out.check(found.total_seconds <= cold.total_seconds,
                          f"{name}: search plan slower than greedy")
                searched.append(_report_output(found))
            out.check(all(s == searched[0] for s in searched),
                      f"{name}: repeated searches disagree")
            out.outputs.append([_report_output(cold), searched[0]])
        return out

    def final_checks(self, passes: List[Pass]) -> List[str]:
        """The selfcheck-pinned values of the programs this suite runs."""
        greedy = {entry[0]["program"]: entry[0] for entry in passes[0].outputs}
        measured: Dict[str, float] = {}
        for name in SELFCHECK_WORKLOADS:
            workload = get_workload(name, COLD_SCALE)
            c_total = run_c_baseline(workload.program, workload.dataset).total_seconds
            static = StaticIspBaseline().run(workload.program, workload.dataset)
            measured[f"{name}.baseline_seconds"] = round(c_total, 4)
            measured[f"{name}.static_speedup"] = round(
                c_total / static.total_seconds, 4)
            measured[f"{name}.activepy_speedup"] = round(
                c_total / greedy[name]["total_s"], 4)
            measured[f"{name}.csd_lines"] = float(greedy[name]["plan"].count("csd"))
        expected = {key: value for key, value in EXPECTED_SELFCHECK.items()
                    if key in measured}
        return [f"selfcheck drift: {change}"
                for change in diff_results(expected, measured,
                                           threshold=DEFAULT_TOLERANCE)]

    def sim_layers(self, passes: List[Pass]) -> Dict[str, float]:
        return _suite_sim_layers(passes, COLD_SCALE, self.caches[-1])


class WarmSuite(Workload):
    """The ten programs at 2^-6, served from a cache filled in setup."""

    name = "warm_suite"

    def setup(self) -> None:
        self.greedy = ActivePy()
        self.search = ActivePy(plan_mode="search")
        self.programs = []
        for name in workload_names():
            workload = get_workload(name, WARM_SCALE)
            filled = self.greedy.run(workload.program, workload.dataset)
            searched = self.search.run(workload.program, workload.dataset)
            self.programs.append((workload, _report_output(filled),
                                  _report_output(searched)))

    def _pass(self, index: int) -> Pass:
        out = Pass()
        for workload, filled, searched in self.programs:
            name = workload.name
            warm = self._call(out.primary, self.greedy.run, workload.program,
                              workload.dataset)
            out.primary_units += 1
            out.check(warm.sampling_cache_status == "hit",
                      f"{name}: warm run missed the cache")
            out.check(_report_output(warm) == filled,
                      f"{name}: warm result differs from the cold fill")
            served = self._call(out.alt, self.search.run, workload.program,
                                workload.dataset)
            out.alt_units += 1
            out.check(served.search is not None and served.search.cache_hit,
                      f"{name}: warm search run missed the plan cache")
            out.check(_report_output(served) == searched,
                      f"{name}: warm search result differs from the fill")
            out.outputs.append([_report_output(warm), _report_output(served)])
        return out

    def sim_layers(self, passes: List[Pass]) -> Dict[str, float]:
        return _suite_sim_layers(passes, WARM_SCALE, None)


def _suite_sim_layers(passes: List[Pass], scale: float,
                      cache: Optional[ProfileCache]) -> Dict[str, float]:
    """Simulated totals, C-baseline speedups and the component attribution.

    The attribution comes from one more (cache-served) run per program
    with an attributing observability handle; simulated time does not
    depend on the handle, which the total check below confirms.
    """
    layers: Dict[str, float] = {f"sim.attrib.{c}_s": 0.0 for c in COMPONENTS}
    for greedy, _ in passes[0].outputs:
        name = greedy["program"]
        workload = get_workload(name, scale)
        obs = Observability.with_attribution(tracing=False)
        report = ActivePy(profile_cache=cache).run(
            workload.program, workload.dataset, obs=obs)
        if report.total_seconds != greedy["total_s"]:
            raise RuntimeError(f"{name}: attributed run changed simulated time")
        attribution = obs.attribution_report()
        for component, seconds in attribution.seconds_by_component.items():
            layers[f"sim.attrib.{component}_s"] += seconds
        c_total = run_c_baseline(workload.program, workload.dataset).total_seconds
        layers[f"sim.total_s.{name}"] = greedy["total_s"]
        layers[f"sim.speedup_vs_c.{name}"] = c_total / greedy["total_s"]
    return layers


class ChaosCampaign(Workload):
    """A silent-corruption machine campaign, then a default fleet campaign."""

    name = "chaos_campaign"

    def setup(self) -> None:
        self.system_config = replace(DEFAULT_CONFIG, integrity_enabled=True)
        # Prefill the fault-free profiles both campaigns start from.
        for config in (self.system_config, DEFAULT_CONFIG):
            for name in CHAOS_WORKLOADS:
                workload = get_workload(name, CHAOS_SCALE)
                ActivePy(config).run(workload.program, workload.dataset)

    def _base_seed(self, index: int, runs: int) -> int:
        return self.seed * 1_000_000 + index * runs

    def _campaign(self, intervals: List[Interval], run, config):
        """Run a campaign; each run's interval ends at its outcome callback.

        The intervals tile the campaign call except for reference slices.
        """
        mark = [time.perf_counter()]

        def on_outcome(_outcome) -> None:
            now = time.perf_counter()
            intervals.append((mark[0], now))
            sliced = self.clock.maybe_slice(SLICE_GAP_S)
            mark[0] = time.perf_counter() if sliced else now

        result = run(config, on_outcome=on_outcome)
        intervals[-1] = (intervals[-1][0], time.perf_counter())
        return result

    def _pass(self, index: int) -> Pass:
        out = Pass()
        result = self._campaign(out.primary, chaos.run_campaign, chaos.CampaignConfig(
            runs=CHAOS_RUNS,
            base_seed=self._base_seed(index, CHAOS_RUNS),
            silent_corruption=True,
            system_config=self.system_config,
            collect_metrics=True,
        ))
        fleet_result = self._campaign(out.alt, fleet.run_fleet_campaign, replace(
            FLEET_CAMPAIGN,
            base_seed=self._base_seed(index, FLEET_CAMPAIGN.runs),
        ))
        out.primary_units, out.alt_units = result.runs, fleet_result.runs
        for outcome in result.outcomes:
            out.check(outcome.ok, f"chaos {outcome.workload} seed "
                                  f"{outcome.seed}: {outcome.violations}")
        for outcome in fleet_result.outcomes:
            out.check(outcome.ok, f"fleet chaos seed {outcome.seed}: "
                                  f"{outcome.violations}")
        out.check(result.violations == 0 and fleet_result.violations == 0,
                  "a campaign reported violations")
        out.outputs.append([o.summary() for o in result.outcomes])
        out.outputs.append([o.summary() for o in fleet_result.outcomes])
        return out


class FleetServe(Workload):
    """Fleet.run with a device loss: recorder off, then recorder on."""

    name = "fleet_serve"

    def setup(self) -> None:
        self.plan = FaultPlan(
            specs=(FaultSpec(kind=FaultKind.DEVICE_LOST_MID_JOB, **FLEET_LOSS),),
            seed=self.seed,
        )
        # Profile the fleet's programs into the profile cache, as the
        # first `fleet run` on a machine would.
        fleet.Fleet(self._config(FLEET_JOBS_ON)).resolve_tenants()

    def _config(self, job_count: int) -> "fleet.FleetConfig":
        return fleet.FleetConfig(job_count=job_count, seed=self.seed,
                                 plan=self.plan)

    def _serve(self, job_count: int, recorder: bool):
        """What ``repro fleet run`` does, with ``--timeline`` if recording."""
        obs = (Observability.with_timeseries(window_s=FLEET_WINDOW_S)
               if recorder else None)
        return fleet.Fleet(self._config(job_count), obs=obs).run()

    def _pass(self, index: int) -> Pass:
        out = Pass()
        reports = [self._call(out.primary, self._serve, FLEET_JOBS_OFF, False)
                   for _ in range(FLEET_CALLS_OFF)]
        recorded = [self._call(out.alt, self._serve, FLEET_JOBS_ON, True)
                    for _ in range(FLEET_CALLS_ON)]
        out.primary_units = sum(r.job_count for r in reports)
        out.alt_units = sum(r.job_count for r in recorded)
        for report in reports + recorded:
            out.check(len(report.outcomes) == report.job_count
                      and report.completed + report.degraded + report.shed
                      == report.job_count,
                      f"fleet run of {report.job_count} jobs lost a job")
        for runs in (reports, recorded):
            outputs = [_fleet_output(r) for r in runs]
            out.check(all(o == outputs[0] for o in outputs),
                      "repeated fleet runs of one configuration differ")
            out.outputs.append(outputs[0])
        return out

    def final_checks(self, passes: List[Pass]) -> List[str]:
        """The recorder must not change a single fleet outcome."""
        unrecorded = self._serve(FLEET_JOBS_ON, recorder=False)
        if _fleet_output(unrecorded) != passes[0].outputs[1]:
            return ["fleet outcomes differ with the flight recorder on"]
        return []

    def sim_layers(self, passes: List[Pass]) -> Dict[str, float]:
        summary = passes[0].outputs[0]
        return {"fleet.sim.makespan_s": summary["makespan_s"],
                "fleet.sim.p99_e2e_s": summary["worst_tenant_p99_e2e_s"]}


def _fleet_output(report) -> Dict[str, Any]:
    output = report.summary()
    outcomes = json.dumps([o.to_jsonable() for o in report.outcomes],
                          sort_keys=True)
    output["outcomes_sha256"] = hashlib.sha256(outcomes.encode()).hexdigest()
    output["worst_tenant_p99_e2e_s"] = max(s.end_to_end_p99_s
                                           for s in report.slos)
    return output


WORKLOADS = {cls.name: cls for cls in (ColdSuite, WarmSuite, ChaosCampaign,
                                       FleetServe)}


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    """The workload called ``name``, with its profile cache in ``work_dir``."""
    os.environ["REPRO_CACHE_DIR"] = str(work_dir / "profile-cache")
    os.environ.pop("REPRO_PROFCACHE", None)
    return WORKLOADS[name](seed, work_dir)
