"""Shared fixtures for the test suite.

The toy program/dataset pair is small enough that every stage of the
ActivePy pipeline (sampling, fitting, planning, execution, migration)
runs in milliseconds, while still having a clear offload structure: a
volume-reducing scan followed by a compute-heavy stage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.hw.topology import Machine, build_machine
from repro.lang.dataset import Dataset
from repro.lang.program import Program, Statement, constant, per_record
from repro.sim import Simulator


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig()


@pytest.fixture
def machine(config) -> Machine:
    return build_machine(config)


class _ArrayTimeSimulator(Simulator):
    """A :class:`Simulator` whose every timestamp is a numpy ``float64``.

    Callers often take event times out of numpy arrays, so the engine
    must order, compare and validate numpy scalars exactly as it does
    Python floats.
    """

    def schedule_at(self, time, action, label=""):
        return super().schedule_at(np.float64(time), action, label)

    def schedule_after(self, delay, action, label=""):
        return super().schedule_after(np.float64(delay), action, label)

    def run_until(self, deadline):
        super().run_until(np.float64(deadline))


@pytest.fixture(params=("array", "object"))
def sim(request) -> Simulator:
    """A fresh simulator fed numpy-array times or Python float objects."""
    if request.param == "array":
        return _ArrayTimeSimulator()
    return Simulator()


def _toy_payload(n: int, full: int) -> dict:
    rng = np.random.default_rng(5)
    return {"x": rng.uniform(0.0, 1.0, size=n)}


def _k_scan(p: dict) -> dict:
    return {"y": (p["x"] * 2.0).astype(np.float32)}


def _k_crunch(p: dict) -> dict:
    return {"z": np.sqrt(p["y"].astype(np.float64))}


def _k_reduce(p: dict) -> dict:
    return {"total": float(np.sum(p["z"]))}


def make_toy_program(
    scan_instr: float = 40.0,
    crunch_instr: float = 200.0,
    record_bytes: float = 64.0,
) -> Program:
    """A scan (reducing 64 B -> 4 B) + crunch + reduce pipeline."""
    return Program(
        "toy",
        [
            Statement(
                "scan", _k_scan,
                instructions=per_record(scan_instr),
                output_bytes=per_record(4.0),
                storage_bytes=per_record(record_bytes),
                chunks=16,
            ),
            Statement(
                "crunch", _k_crunch,
                instructions=per_record(crunch_instr),
                output_bytes=per_record(8.0),
                chunks=16,
            ),
            Statement(
                "reduce", _k_reduce,
                instructions=per_record(1.0),
                output_bytes=constant(8.0),
            ),
        ],
    )


def make_toy_dataset(n_records: int = 20_000_000, record_bytes: float = 64.0) -> Dataset:
    return Dataset(
        name="toy.data",
        n_records=n_records,
        record_bytes=record_bytes,
        builder=_toy_payload,
    )


@pytest.fixture
def toy_program() -> Program:
    return make_toy_program()


@pytest.fixture
def toy_dataset() -> Dataset:
    return make_toy_dataset()
