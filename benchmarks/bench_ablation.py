"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these quantify why the reproduction (and the
paper's design) is shaped the way it is:

* **planner policy** — Algorithm 1's greedy vs the exhaustive oracle vs
  a naive offload-everything policy;
* **sampling factors** — fewer/smaller sample runs trade prediction
  accuracy against sampling cost;
* **interconnect bandwidth** — sweep the device-to-host link to expose
  the Equation-1 regimes (ISP profit grows as the link narrows);
* **attachment** — PCIe BARs vs NVMe-oF/RDMA;
* **monitor threshold** — how aggressively the IPC watchdog fires.
"""

import pytest

from repro.analysis.metrics import geometric_mean
from repro.analysis.report import format_table
from repro.baselines import run_c_baseline
from repro.baselines.static_isp import exhaustive_best_plan, ground_truth_estimates
from repro.config import SystemConfig
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions, run_plan
from repro.runtime.codegen import ExecutionMode
from repro.runtime.planner import CSD, Plan, assign_csd_code, projected_time
from repro.units import GB
from repro.workloads import get_workload

from .conftest import run_once

ABLATION_WORKLOADS = ("blackscholes", "lightgbm", "mixedgemm", "tpch_q6")


def test_ablation_planner_policy(benchmark):
    """Greedy (Algorithm 1) vs exhaustive vs offload-everything."""

    def run():
        config = SystemConfig()
        rows = []
        for name in ABLATION_WORKLOADS:
            workload = get_workload(name)
            estimates = ground_truth_estimates(
                workload.program, workload.n_records, config
            )
            t_host = sum(e.ct_host for e in estimates)
            greedy = assign_csd_code(estimates, config).t_csd
            oracle = exhaustive_best_plan(estimates, config).t_csd
            all_csd = projected_time([CSD] * len(estimates), estimates, config)
            rows.append([name, t_host / greedy, t_host / oracle, t_host / all_csd])
        return rows

    rows = run_once(benchmark, run)
    print("\n\nABLATION — planner policy (speedup over host-only)")
    print(format_table(
        ["workload", "greedy (Alg. 1)", "exhaustive", "offload-all"],
        [[r[0], f"{r[1]:.3f}x", f"{r[2]:.3f}x", f"{r[3]:.3f}x"] for r in rows],
    ))
    for _, greedy, oracle, all_csd in rows:
        assert greedy == pytest.approx(oracle, rel=1e-6)  # greedy finds it
        assert all_csd <= oracle + 1e-9  # naive offload never beats it


def test_ablation_sampling_factors(benchmark):
    """Two coarse factors vs the paper's four exponential ones."""

    def run():
        results = {}
        for label, factors in (
            ("paper 4x", (2**-10, 2**-9, 2**-8, 2**-7)),
            ("two-point", (2**-10, 2**-7)),
            ("larger", (2**-8, 2**-7, 2**-6, 2**-5)),
        ):
            config = SystemConfig(sampling_factors=factors)
            workload = get_workload("tpch_q6")
            report = ActivePy(config).run(workload.program, workload.dataset)
            results[label] = (
                report.plan.assignments,
                report.sampling.sampling_seconds,
            )
        return results

    results = run_once(benchmark, run)
    print("\n\nABLATION — sampling factors")
    print(format_table(
        ["factors", "plan", "sampling cost (s)"],
        [[label, "".join("C" if a == CSD else "h" for a in plan),
          f"{cost:.4f}"] for label, (plan, cost) in results.items()],
    ))
    plans = {tuple(plan) for plan, _ in results.values()}
    assert len(plans) == 1  # the decision is robust to the factor set
    assert results["larger"][1] > results["paper 4x"][1]  # but not free


def test_ablation_link_bandwidth(benchmark):
    """Equation-1 regimes: the narrower the link, the bigger the win."""

    def run():
        speedups = []
        for bw in (1.0 * GB, 3.0 * GB, 16.0 * GB):
            config = SystemConfig(
                bw_d2h=bw,
                bw_host_storage=min(1.6 * GB, bw),
            )
            workload = get_workload("tpch_q6")
            baseline = run_c_baseline(workload.program, workload.dataset, config=config)
            report = ActivePy(config).run(workload.program, workload.dataset)
            speedups.append((bw, baseline.total_seconds / report.total_seconds))
        return speedups

    speedups = run_once(benchmark, run)
    print("\n\nABLATION — device-to-host bandwidth vs ISP profit")
    print(format_table(
        ["bw_d2h", "ActivePy speedup"],
        [[f"{bw / GB:.0f} GB/s", f"{s:.3f}x"] for bw, s in speedups],
    ))
    # Narrow link -> big win; a link as rich as the internal bus erases
    # the data-movement advantage and the profit shrinks toward 1.
    ordered = [s for _, s in speedups]
    assert ordered[0] >= ordered[-1]
    assert ordered[0] > 1.25


def test_ablation_attachment(benchmark):
    """PCIe BAR mapping vs NVMe-oF/RDMA fabric attachment."""

    def run():
        rows = []
        for attachment in ("pcie", "nvmeof"):
            config = SystemConfig(attachment=attachment)
            speedups = []
            for name in ABLATION_WORKLOADS:
                workload = get_workload(name)
                baseline = run_c_baseline(
                    workload.program, workload.dataset, config=config
                )
                report = ActivePy(config).run(workload.program, workload.dataset)
                speedups.append(baseline.total_seconds / report.total_seconds)
            rows.append((attachment, geometric_mean(speedups)))
        return rows

    rows = run_once(benchmark, run)
    print("\n\nABLATION — attachment")
    print(format_table(
        ["attachment", "geomean speedup"],
        [[name, f"{value:.3f}x"] for name, value in rows],
    ))
    pcie, nvmeof = rows[0][1], rows[1][1]
    assert nvmeof <= pcie          # the fabric hop costs something
    assert nvmeof > 0.95 * pcie    # but bulk bandwidth dominates


def test_ablation_execution_model(benchmark):
    """Sequential vs overlapped (double-buffered) chunk execution."""

    def run():
        rows = []
        for overlap in (False, True):
            config = SystemConfig(overlap_io_compute=overlap)
            speedups = []
            for name in ABLATION_WORKLOADS:
                workload = get_workload(name)
                baseline = run_c_baseline(
                    workload.program, workload.dataset, config=config
                )
                report = ActivePy(config).run(workload.program, workload.dataset)
                speedups.append(baseline.total_seconds / report.total_seconds)
            rows.append((
                "overlapped" if overlap else "sequential",
                geometric_mean(speedups),
            ))
        return rows

    rows = run_once(benchmark, run)
    print("\n\nABLATION — execution model (ISP speedup)")
    print(format_table(
        ["chunk model", "geomean speedup"],
        [[name, f"{value:.3f}x"] for name, value in rows],
    ))
    sequential, overlapped = rows[0][1], rows[1][1]
    # Overlap hides compute behind I/O on *both* sides; the host hides
    # more (its I/O is slower), so the ISP margin narrows but holds.
    assert overlapped > 1.0
    assert overlapped <= sequential + 0.05


def test_ablation_monitor_threshold(benchmark):
    """IPC watchdog sensitivity under the Fig. 5 stress scenario."""

    def run():
        rows = []
        workload_name = "tpch_q6"
        for threshold in (0.5, 0.7, 0.95):
            config = SystemConfig(ipc_degradation_threshold=threshold)
            workload = get_workload(workload_name)
            baseline = run_c_baseline(
                workload.program, workload.dataset, config=config
            )
            report = ActivePy(config).run(
                workload.program, workload.dataset,
                options=RunOptions(progress_triggers=((0.5, 0.1),)),
            )
            rows.append((
                threshold,
                baseline.total_seconds / report.total_seconds,
                len(report.result.migrations),
            ))
        return rows

    rows = run_once(benchmark, run)
    print("\n\nABLATION — monitor IPC threshold (10% stress at 50% progress)")
    print(format_table(
        ["threshold", "speedup vs baseline", "migrations"],
        [[f"{t:.2f}", f"{s:.3f}x", m] for t, s, m in rows],
    ))
    # A 90% availability drop trips every threshold; all recover.
    assert all(m >= 1 for _, _, m in rows)
    assert all(s > 0.8 for _, s, _ in rows)
