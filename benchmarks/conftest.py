"""Shared machinery for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper:
it runs the experiment driver under ``pytest-benchmark`` (one round —
the simulator is deterministic, so repetition only measures the
harness) and prints the same rows/series the paper reports.

Run everything with::

    pytest benchmarks/ --benchmark-only

Expensive experiment results are cached per session so a figure that
several benchmarks share is computed once.

Results are emitted twice: the canonical copy under ``bench_results/``
carries a ``schema_version`` 2 envelope with run metadata (config
hash, seed/workload details the module supplies), and a root-level
``BENCH_<name>.json`` keeps the pre-schema layout readable for older
scripts.  The perf gate (:mod:`repro.perfgate`) reads either.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro import __version__
from repro.config import config_hash

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: Canonical results directory (schema v2, with metadata envelope).
_RESULTS_DIR = _REPO_ROOT / "bench_results"

#: Root-level ``BENCH_<name>.json`` files predate the schema and stay
#: byte-compatible for scripts that read them in place.
_BENCH_DIR = _REPO_ROOT

_SCHEMA_VERSION = 2

#: Envelope keys stripped before merging so a v1 file upgrades cleanly.
_ENVELOPE_KEYS = ("schema_version", "meta")


def run_once(benchmark, fn):
    """Benchmark a deterministic experiment with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def _merge_existing(path: Path, payload: dict) -> dict:
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            merged = {}
    for key in _ENVELOPE_KEYS:
        merged.pop(key, None)
    merged.update(payload)
    return merged


def write_bench_json(name: str, payload: dict, meta: Optional[dict] = None) -> Path:
    """Write one benchmark module's results.

    Modules accumulate into the same files across their tests (read,
    merge, rewrite), so a partial run still leaves valid JSON behind.
    ``meta`` carries run metadata (seed, workloads, scale...) into the
    schema-v2 envelope; identity metadata (config hash, version) is
    stamped automatically.  Returns the canonical (``bench_results/``)
    path.
    """
    root_path = _BENCH_DIR / f"BENCH_{name}.json"
    merged = _merge_existing(root_path, payload)
    root_path.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    canonical = _RESULTS_DIR / f"BENCH_{name}.json"
    previous_meta: dict = {}
    if canonical.exists():
        try:
            previous_meta = json.loads(
                canonical.read_text(encoding="utf-8")
            ).get("meta", {})
        except (OSError, ValueError):
            previous_meta = {}
    envelope = {
        "schema_version": _SCHEMA_VERSION,
        "meta": {
            **previous_meta,
            "bench": name,
            "config_hash": config_hash(),
            "repro_version": __version__,
            **(meta or {}),
        },
        **merged,
    }
    canonical.write_text(
        json.dumps(envelope, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return canonical
