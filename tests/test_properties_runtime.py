"""Property-based tests over the whole runtime pipeline.

Hypothesis generates random-but-well-formed programs (random per-line
instruction densities, reduction ratios and storage footprints); for
every one, the full pipeline — sampling, fitting, planning, compiled
execution — must satisfy the structural invariants the figures rest on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.hw.topology import build_machine
from repro.lang.dataset import Dataset
from repro.lang.program import Program, Statement, constant, per_record
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.codegen import ExecutionMode
from repro.runtime.planner import HOST, host_only_plan
from repro.runtime.activepy import run_plan
from repro.baselines import ground_truth_estimates

CONFIG = SystemConfig()


def _payload(n: int, full: int) -> dict:
    return {"x": np.ones(n)}


def _make_kernel(out_per_record: float):
    def kernel(payload: dict) -> dict:
        x = payload["x"]
        width = max(1, int(out_per_record // 8))
        return {"x": np.repeat(x[: max(1, x.size // 1)], 1)[: x.size],
                "pad": np.zeros((x.size, width - 1))} if width > 1 else {"x": x}

    return kernel


@st.composite
def random_programs(draw):
    """A 1-4 line chain with a storage-reading head."""
    k = draw(st.integers(min_value=1, max_value=4))
    statements = []
    for i in range(k):
        instr = draw(st.floats(min_value=1.0, max_value=400.0))
        out_bytes = draw(st.sampled_from([8.0, 16.0, 32.0, 64.0]))
        storage = 64.0 if i == 0 else 0.0
        statements.append(Statement(
            name=f"line{i}",
            kernel=_make_kernel(out_bytes),
            instructions=per_record(instr),
            output_bytes=per_record(out_bytes) if i < k - 1 else constant(8.0),
            storage_bytes=per_record(storage),
            chunks=8,
        ))
    return Program("random", statements)


@given(random_programs(), st.integers(min_value=1, max_value=20))
@settings(max_examples=25, deadline=None)
def test_pipeline_invariants_hold_for_random_programs(program, millions):
    dataset = Dataset(
        "random.data", n_records=millions * 1_000_000, record_bytes=64.0,
        builder=_payload,
    )
    machine = build_machine(CONFIG)
    report = ActivePy(CONFIG).run(program, dataset, machine=machine)

    # 1. The plan never projects worse than host-only.
    assert report.plan.t_csd <= report.plan.t_host + 1e-9

    # 2. Execution tracks the projection when nothing degrades
    #    (mode multiplier, chunk latencies and final transfers allow a
    #    few percent of slack).
    assert report.result.total_seconds <= report.plan.t_csd * 1.10 + 0.01

    # 3. Per-line timings tile the execution exactly.
    covered = sum(t.seconds for t in report.result.line_timings)
    tail = report.result.total_seconds - covered
    assert -1e-9 <= tail <= 0.2 * report.result.total_seconds + 1e-9

    # 4. No migration without degradation.
    assert not report.result.migrated


@given(random_programs())
@settings(max_examples=15, deadline=None)
def test_mode_ladder_order_for_random_programs(program):
    dataset = Dataset(
        "random.data", n_records=5_000_000, record_bytes=64.0, builder=_payload,
    )
    times = {}
    for mode in (ExecutionMode.C, ExecutionMode.CYTHON, ExecutionMode.PYTHON):
        machine = build_machine(CONFIG)
        machine.csd.store_dataset(dataset.name, dataset.raw_bytes)
        estimates = ground_truth_estimates(program, dataset.n_records, CONFIG)
        result = run_plan(
            machine=machine, program=program, plan=host_only_plan(estimates),
            dataset=dataset, mode=mode, config=CONFIG,
        )
        times[mode] = result.total_seconds
    assert times[ExecutionMode.C] <= times[ExecutionMode.CYTHON]
    assert times[ExecutionMode.CYTHON] <= times[ExecutionMode.PYTHON]


@given(
    availability=st.floats(min_value=0.02, max_value=0.2),
    trigger_at=st.floats(min_value=0.1, max_value=0.8),
)
@settings(max_examples=15, deadline=None)
def test_migration_never_loses_to_staying(availability, trigger_at):
    """With migration enabled, heavy degradation never ends up slower
    than the no-migration ablation by more than the decision slack."""
    from .conftest import make_toy_dataset, make_toy_program

    stay_machine = build_machine(CONFIG)
    stay = ActivePy(CONFIG, migration_enabled=False).run(
        make_toy_program(), make_toy_dataset(), machine=stay_machine,
        options=RunOptions(progress_triggers=((trigger_at, availability),)),
    )
    move_machine = build_machine(CONFIG)
    move = ActivePy(CONFIG, migration_enabled=True).run(
        make_toy_program(), make_toy_dataset(), machine=move_machine,
        options=RunOptions(progress_triggers=((trigger_at, availability),)),
    )
    assert move.total_seconds <= stay.total_seconds * 1.05
