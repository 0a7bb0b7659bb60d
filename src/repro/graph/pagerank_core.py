"""PageRank and sparse matrix-vector primitives over CSR."""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from .csr import CSRMatrix


def spmv(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x for a CSR matrix (vectorised, no scipy dependency)."""
    return _spmv_coo(
        _expand_rows(matrix), matrix.indices, matrix.values, matrix.n_rows, x
    )


def _spmv_coo(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    x: np.ndarray,
) -> np.ndarray:
    """y = A x from A's COO triple; callers sweeping one matrix expand once."""
    if x.shape[0] < (cols.max(initial=-1) + 1):
        raise WorkloadError(
            f"vector of length {x.shape[0]} too short for matrix columns"
        )
    if cols.size == 0:
        return np.zeros(n_rows)
    # Weighted bincount is a scatter-add per stored element: immune to
    # the empty-row pitfalls of segment reductions (np.add.reduceat
    # mis-handles rows whose start index equals the array length or
    # the next row's start), accumulates per row in element order like
    # np.add.at (bit-identical), and runs as a single C loop.
    return np.bincount(rows, weights=values * x[cols], minlength=n_rows)


def pagerank(
    matrix: CSRMatrix,
    damping: float = 0.85,
    iterations: int = 20,
    tol: float = 0.0,
) -> np.ndarray:
    """Power iteration over the column-stochastic transition matrix.

    ``matrix`` holds out-edges row-wise; ranks are normalised each
    sweep so dangling mass is redistributed uniformly and the result
    sums to one.
    """
    if not 0 < damping < 1:
        raise WorkloadError(f"damping must lie in (0, 1), got {damping}")
    if iterations < 1:
        raise WorkloadError(f"iterations must be >= 1, got {iterations}")
    n = matrix.n_rows
    out_degree = matrix.out_degree().astype(np.float64)
    safe_degree = np.maximum(out_degree, 1.0)
    ranks = np.full(n, 1.0 / n)
    # The COO row vector is loop-invariant; expand it once, not per sweep.
    rows = _expand_rows(matrix)
    for _ in range(iterations):
        contrib = ranks / safe_degree
        # Push each vertex's share along its out-edges: y[d] += c[s].
        # Weighted bincount accumulates per destination in element
        # order, bit-identical to the former np.add.at scatter.
        incoming = np.bincount(
            matrix.indices, weights=contrib[rows], minlength=n
        )
        new_ranks = (1.0 - damping) / n + damping * incoming
        # Redistribute dangling-node mass uniformly.
        dangling = ranks[out_degree == 0].sum()
        new_ranks += damping * dangling / n
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if tol and delta < tol:
            break
    return ranks / ranks.sum()


def _expand_rows(matrix: CSRMatrix) -> np.ndarray:
    """Row index of every stored nonzero (the COO row vector)."""
    return np.repeat(
        np.arange(matrix.n_rows, dtype=np.int64), np.diff(matrix.indptr)
    )
