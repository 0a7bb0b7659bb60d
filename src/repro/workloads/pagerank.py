"""PageRank: rank a stored web-scale edge list.

Table I: 7.7 GB.  The program parses the stored edge records, converts
them to an (unweighted) CSR adjacency structure, runs power iteration,
and normalises the ranks.  The CSR-conversion line is the paper's §V
accuracy case study: the stored edge list is fringe-first, so sample
prefixes look much sparser than the population and ActivePy
over-estimates the CSR output volume (by ~2.4x here), conservatively
keeping the conversion on the host while the oracle offloads it.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..graph.csr import CSRMatrix
from ..graph.generators import (
    power_law_prefix,
    power_law_true_csr_bytes,
    vertices_for_edges,
)
from ..graph.pagerank_core import pagerank
from ..lang.dataset import Dataset
from ..lang.program import Program, Statement, constant, per_record
from ..units import GB
from .base import Workload, register, scaled_records

#: Stored bytes per edge record (text-ish framing around two ids).
RECORD_BYTES = 24.0
TABLE1_BYTES = 7.7 * GB
FULL_RECORDS = int(TABLE1_BYTES / RECORD_BYTES)

AVG_DEGREE = 8.0
ITERATIONS = 20

# Ground-truth per-edge instruction counts.
_INSTR_PARSE = 26.0
_INSTR_CSR = 15.0
_INSTR_SPMV_PER_ITER = 3.2
_INSTR_NORMALISE = 0.2


def _build_payload(n: int, full: int) -> Dict[str, Any]:
    src, dst, _ = power_law_prefix(
        prefix_edges=n, full_edges=full, avg_degree=AVG_DEGREE, seed=503
    )
    return {"src": src, "dst": dst}


def _k_parse(p: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "src": np.asarray(p["src"], dtype=np.int64),
        "dst": np.asarray(p["dst"], dtype=np.int64),
    }


def _k_build_csr(p: Dict[str, Any]) -> Dict[str, Any]:
    """Relabel the observed vertices densely, then build CSR (no values).

    A program reading an edge-list file indexes exactly the vertices it
    sees — which is what makes the sample-scale footprint differ from
    the population's.
    """
    flat, n_rows = _dense_ranks(p["src"], p["dst"])
    src = flat[: p["src"].size]
    dst = flat[p["src"].size:].astype(np.int32)
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return {"indptr": indptr, "indices": dst[order]}


def _dense_ranks(*parts: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each id's rank among the distinct ids of ``parts``, and their count.

    The ranks of the concatenated ids are
    ``np.unique(ids, return_inverse=True)``'s inverse, built with about
    half its peak memory: no flattened copy of the ids, the sorted copy
    freed before the ranks are computed, and the ranks decremented in
    place.
    """
    ids = np.concatenate(parts)
    perm = np.argsort(ids)
    ids = ids[perm]
    first = np.empty(ids.size, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    del ids
    ranks = np.cumsum(first)
    ranks -= 1
    inverse = np.empty(perm.size, dtype=np.intp)
    inverse[perm] = ranks
    return inverse, int(ranks[-1]) + 1 if ranks.size else 0


def _k_power_iterate(p: Dict[str, Any]) -> Dict[str, Any]:
    matrix = CSRMatrix(
        indptr=p["indptr"],
        indices=p["indices"],
        values=np.ones(p["indices"].size),
    )
    ranks = pagerank(matrix, iterations=ITERATIONS)
    return {"ranks": ranks}


def _k_normalise(p: Dict[str, Any]) -> Dict[str, Any]:
    ranks = p["ranks"]
    return {
        "top_rank": float(np.max(ranks)),
        "rank_sum": float(np.sum(ranks)),
        "vertices": float(ranks.size),
    }


def _true_csr_bytes(n: float) -> float:
    return power_law_true_csr_bytes(int(n), avg_degree=AVG_DEGREE, weighted=False)


def _ranks_bytes(n: float) -> float:
    return 8.0 * vertices_for_edges(int(max(n, 1)), AVG_DEGREE)


def build_program() -> Program:
    return Program(
        "pagerank",
        [
            Statement(
                "parse_edges", _k_parse,
                instructions=per_record(_INSTR_PARSE),
                output_bytes=per_record(16.0),
                storage_bytes=per_record(RECORD_BYTES),
                chunks=64,
            ),
            Statement(
                "build_csr", _k_build_csr,
                instructions=per_record(_INSTR_CSR),
                output_bytes=_true_csr_bytes,
            ),
            Statement(
                "power_iterate", _k_power_iterate,
                instructions=per_record(_INSTR_SPMV_PER_ITER * ITERATIONS),
                output_bytes=_ranks_bytes,
                chunks=ITERATIONS,
            ),
            Statement(
                "normalise_ranks", _k_normalise,
                instructions=per_record(_INSTR_NORMALISE),
                output_bytes=constant(24.0),
            ),
        ],
    )


@register("pagerank")
def build(scale: float = 1.0) -> Workload:
    n = scaled_records(FULL_RECORDS, scale)
    dataset = Dataset(
        name="pagerank.edges",
        n_records=n,
        record_bytes=RECORD_BYTES,
        builder=_build_payload,
    )
    return Workload(
        name="pagerank",
        description="Power-iteration PageRank over a stored edge list",
        table1_bytes=TABLE1_BYTES,
        dataset=dataset,
        program=build_program(),
    )
