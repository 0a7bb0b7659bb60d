"""Byte-equality oracles for the vectorised sampling kernels.

Each oracle below is the implementation the kernel replaced, kept
verbatim.  The sampling phase runs these kernels on real data and the
profile cache, plans and ``selfcheck`` all depend on their outputs, so
every replacement must return the same bits, not merely close values:
the tests compare with ``tobytes()`` / ``np.array_equal`` on
Hypothesis-generated inputs aimed at the edge cases (ties at a bin
edge, duplicate edges, +-inf and NaN, empty CSR rows, empty clusters).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.graph.csr import CSRMatrix
from repro.graph.pagerank_core import _expand_rows, pagerank, spmv
from repro.ml.gbdt import (
    GBDTModel,
    GBDTRegressor,
    TreeNode,
    _grow_tree,
    quantise_features,
)
from repro.ml.kmeans_core import kmeans_assign, kmeans_update
from repro.workloads.pagerank import _k_build_csr
from repro.workloads.sparsemv import SWEEPS, _k_sweeps


# --- the replaced implementations ---------------------------------------------

def _predict_tree_oracle(node: TreeNode, codes: np.ndarray) -> np.ndarray:
    """Vectorised traversal of one tree over binned rows."""
    if node.is_leaf:
        return np.full(codes.shape[0], node.value)
    out = np.empty(codes.shape[0])
    goes_left = codes[:, node.feature] <= node.threshold_bin
    if node.left is not None:
        out[goes_left] = _predict_tree_oracle(node.left, codes[goes_left])
    if node.right is not None:
        out[~goes_left] = _predict_tree_oracle(node.right, codes[~goes_left])
    return out


def _predict_codes_oracle(model: GBDTModel, codes: np.ndarray) -> np.ndarray:
    out = np.full(codes.shape[0], model.base_score)
    for tree in model.trees:
        out += _predict_tree_oracle(tree, codes)
    return out


def _quantise_oracle(bin_edges: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Bin raw features with the training-time edges."""
    codes = np.empty(features.shape, dtype=np.uint8)
    for j in range(features.shape[1]):
        codes[:, j] = np.searchsorted(
            bin_edges[:, j], features[:, j]
        ).astype(np.uint8)
    return codes


def _fit_oracle(regressor: GBDTRegressor, features, targets) -> GBDTModel:
    """``GBDTRegressor.fit`` on the searchsorted bins and recursive walk."""
    quantiles = np.linspace(0.0, 1.0, regressor.n_bins + 1)[1:-1]
    edges = np.quantile(features, quantiles, axis=0)
    codes = _quantise_oracle(edges, features)
    base_score = float(np.mean(targets))
    predictions = np.full(features.shape[0], base_score)
    trees = []
    all_rows = np.ones(features.shape[0], dtype=bool)
    for _ in range(regressor.n_trees):
        residuals = targets - predictions
        tree = _grow_tree(
            codes,
            residuals,
            all_rows,
            depth_left=regressor.max_depth,
            n_bins=regressor.n_bins,
            min_samples=regressor.min_samples_leaf,
            lam=regressor.reg_lambda,
            learning_rate=regressor.learning_rate,
        )
        trees.append(tree)
        predictions += _predict_tree_oracle(tree, codes)
    return GBDTModel(
        trees=trees, bin_edges=edges, base_score=base_score,
        n_bins=regressor.n_bins,
    )


def _kmeans_update_oracle(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    d = points.shape[1]
    if points.dtype == np.float64:
        sums = np.empty((k, d), dtype=np.float64)
        for dim in range(d):
            sums[:, dim] = np.bincount(
                labels, weights=points[:, dim], minlength=k
            )
    else:
        sums = np.zeros((k, d), dtype=points.dtype)
        np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    centroids = np.divide(
        sums,
        np.maximum(counts, 1)[:, None],
        dtype=np.float64,
    )
    return centroids, counts


def _spmv_oracle(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x for a CSR matrix (vectorised, no scipy dependency)."""
    if x.shape[0] < (matrix.indices.max(initial=-1) + 1):
        raise WorkloadError(
            f"vector of length {x.shape[0]} too short for matrix columns"
        )
    if matrix.nnz == 0:
        return np.zeros(matrix.n_rows)
    products = matrix.values * x[matrix.indices]
    rows = np.repeat(
        np.arange(matrix.n_rows, dtype=np.int64), np.diff(matrix.indptr)
    )
    return np.bincount(rows, weights=products, minlength=matrix.n_rows)


def _pagerank_oracle(
    matrix: CSRMatrix,
    damping: float = 0.85,
    iterations: int = 20,
    tol: float = 0.0,
) -> np.ndarray:
    n = matrix.n_rows
    out_degree = matrix.out_degree().astype(np.float64)
    safe_degree = np.maximum(out_degree, 1.0)
    ranks = np.full(n, 1.0 / n)
    rows = _expand_rows(matrix)
    for _ in range(iterations):
        contrib = ranks / safe_degree
        incoming = np.bincount(
            matrix.indices, weights=contrib[rows], minlength=n
        )
        new_ranks = (1.0 - damping) / n + damping * incoming
        dangling = ranks[out_degree == 0].sum()
        new_ranks += damping * dangling / n
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if tol and delta < tol:
            break
    return ranks / ranks.sum()


def _kmeans_assign_oracle(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    cross = points @ centroids.T
    c_norms = np.einsum("kd,kd->k", centroids, centroids)
    return np.argmin(c_norms[None, :] - 2.0 * cross, axis=1)


def _build_csr_oracle(p):
    vertices, flat = np.unique(
        np.concatenate([p["src"], p["dst"]]), return_inverse=True
    )
    n_rows = vertices.size
    src = flat[: p["src"].size].astype(np.int64)
    dst = flat[p["src"].size:].astype(np.int32)
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return {"indptr": indptr, "indices": dst[order]}


def _sweeps_oracle(p):
    matrix = CSRMatrix(
        indptr=p["indptr"], indices=p["indices"], values=p["values"]
    )
    x = np.ones(matrix.n_rows)
    for _ in range(SWEEPS):
        y = _spmv_oracle(matrix, x)
        norm = float(np.linalg.norm(y))
        x = y / norm if norm > 0 else np.ones(matrix.n_rows)
    return {"x": x}


# --- strategies -----------------------------------------------------------------

#: Values whose order and ties stress a lower-bound search.
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e300, np.inf, -np.inf]

_finite = st.floats(min_value=-1e6, max_value=1e6)
#: Leaf values and base scores: wide magnitudes, no overflow in a sum.
_wide = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def binning_cases(draw):
    """(edges, features): sorted edges with duplicates, +-inf and NaN."""
    d = draw(st.integers(min_value=1, max_value=4))
    n_edges = draw(st.sampled_from([1, 2, 3, 7, 31, 63, 64, 127, 255]))
    pool = draw(st.lists(
        st.one_of(st.sampled_from(_SPECIAL), _finite),
        min_size=1, max_size=6,
    ))
    edge_pool = pool + ([np.nan] if draw(st.booleans()) else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # np.sort puts NaN edges last, where searchsorted expects them.
    edges = np.sort(rng.choice(edge_pool, size=(n_edges, d)), axis=0)
    n_rows = draw(st.sampled_from([0, 1, 5, 1023, 1024, 1025, 2500]))
    value_pool = np.array(pool + [np.nan, np.inf, -np.inf, 2e6, -2e6])
    features = rng.choice(value_pool, size=(n_rows, d))
    noisy = rng.random((n_rows, d)) < 0.3
    features[noisy] = rng.uniform(-2e6, 2e6, size=int(noisy.sum()))
    if draw(st.booleans()):
        with np.errstate(over="ignore"):  # +-1e300 become +-inf
            features = features.astype(np.float32)
    if draw(st.booleans()):
        features = np.asfortranarray(features)
    return edges, features


@st.composite
def trees(draw, d, depth):
    """A complete regression tree over ``d`` features, height <= depth."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return TreeNode(value=draw(_wide))
    return TreeNode(
        feature=draw(st.integers(0, d - 1)),
        threshold_bin=draw(st.integers(0, 256)),
        left=draw(trees(d, depth - 1)),
        right=draw(trees(d, depth - 1)),
    )


@st.composite
def ensembles(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    forest = draw(st.lists(trees(d, 5), min_size=1, max_size=6))
    model = GBDTModel(
        trees=forest,
        bin_edges=np.zeros((63, d)),
        base_score=draw(_wide),
        n_bins=64,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.sampled_from([0, 1, 17, 400]))
    codes = rng.integers(0, 256, size=(n_rows, d), dtype=np.uint8)
    if draw(st.booleans()):
        codes = np.asfortranarray(codes)
    return model, codes


@st.composite
def csr_cases(draw):
    """A square CSR matrix with empty rows and a vector to multiply."""
    n = draw(st.integers(min_value=1, max_value=40))
    degrees = draw(st.lists(
        st.sampled_from([0, 0, 1, 2, 5]), min_size=n, max_size=n,
    ))
    if draw(st.booleans()):
        degrees[-1] = 0  # trailing empty row
    if draw(st.booleans()):
        degrees = [0] * n  # nnz == 0
    nnz = sum(degrees)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    indices = rng.integers(0, n, size=nnz).astype(index_dtype)
    values = rng.normal(0.0, 1.0, size=nnz) * 10.0 ** rng.integers(-8, 9, nnz)
    x = rng.normal(0.0, 1.0, size=n)
    return CSRMatrix(indptr=indptr, indices=indices, values=values), x


@st.composite
def kmeans_cases(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    d = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Draw labels from a subset of clusters so some clusters stay empty.
    used = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
    labels = rng.choice(used, size=n).astype(np.intp)
    # Mixed magnitudes make the sums sensitive to accumulation order.
    points = rng.normal(0.0, 1.0, size=(n, d)) * 10.0 ** rng.integers(
        -12, 13, size=(n, d)
    )
    dtype = draw(st.sampled_from([np.float64, np.float64, np.float32, np.int64]))
    points = points.astype(dtype)
    if draw(st.booleans()):
        points = np.asfortranarray(points)
    return points, labels, k


@st.composite
def edge_lists(draw):
    """Edge lists with repeated edges, self loops and sparse, huge ids."""
    m = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, draw(st.sampled_from([1, 3, 50, 2**62])),
                        size=draw(st.integers(1, 40)))
    src = rng.choice(pool, size=m).astype(np.int64)
    dst = rng.choice(pool, size=m).astype(np.int64)
    if draw(st.booleans()):
        dst[: m // 2] = src[: m // 2]  # self loops
    return {"src": src, "dst": dst}


@st.composite
def assign_cases(draw):
    """Points and centroids with exact ties, +-inf, NaN and float32."""
    n = draw(st.integers(min_value=1, max_value=200))
    d = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(0.0, 1.0, size=(n, d)) * 10.0 ** rng.integers(
        -6, 7, size=(n, d)
    )
    centroids = rng.normal(0.0, 1.0, size=(k, d))
    if draw(st.booleans()):
        # Small integers: many points equidistant from several centroids.
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        centroids = rng.integers(-2, 3, size=(k, d)).astype(np.float64)
    if k > 1 and draw(st.booleans()):
        centroids[-1] = centroids[0]  # a duplicated centroid ties exactly
    mask = rng.random(size=(n, d)) < draw(st.sampled_from([0.0, 0.05]))
    points[mask] = rng.choice([np.inf, -np.inf, np.nan], size=int(mask.sum()))
    if draw(st.booleans()):
        centroids[rng.integers(k), rng.integers(d)] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan])
        )
    points = points.astype(draw(st.sampled_from([np.float64, np.float32])))
    centroids = centroids.astype(draw(st.sampled_from([np.float64, np.float32])))
    if draw(st.booleans()):
        points = np.asfortranarray(points)
    return points, centroids


# --- oracle equality ------------------------------------------------------------

@given(binning_cases())
@settings(max_examples=120, deadline=None)
def test_quantise_matches_searchsorted(case):
    edges, features = case
    model = GBDTModel(trees=[], bin_edges=edges, base_score=0.0, n_bins=64)
    codes = model.quantise(features)
    expected = _quantise_oracle(edges, features)
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, expected)


def test_quantise_nan_takes_the_top_code():
    edges = np.array([[-1.0], [0.0], [0.0], [2.0]])
    features = np.array([[np.nan], [0.0], [np.inf], [-np.inf], [2.0]])
    model = GBDTModel(trees=[], bin_edges=edges, base_score=0.0, n_bins=5)
    assert model.quantise(features)[:, 0].tolist() == [4, 1, 4, 0, 3]
    assert np.array_equal(
        model.quantise(features), _quantise_oracle(edges, features)
    )


def test_quantise_rejects_mismatched_columns():
    model = GBDTModel(
        trees=[], bin_edges=np.zeros((3, 2)), base_score=0.0, n_bins=4
    )
    with pytest.raises(WorkloadError):
        model.quantise(np.zeros((5, 3)))


@given(ensembles())
@settings(max_examples=80, deadline=None)
def test_predict_codes_matches_recursive_walk(case):
    model, codes = case
    assert (
        model.predict_codes(codes).tobytes()
        == _predict_codes_oracle(model, codes).tobytes()
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(min_value=40, max_value=400),
    n_trees=st.integers(min_value=1, max_value=4),
    max_depth=st.integers(min_value=1, max_value=4),
    n_bins=st.sampled_from([2, 16, 64]),
)
@settings(max_examples=25, deadline=None)
def test_fit_matches_oracle_fit(seed, n_rows, n_trees, max_depth, n_bins):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_rows, 3))
    features[:, 2] = np.round(features[:, 2])  # heavy ties at the edges
    targets = features[:, 0] - 2.0 * (features[:, 2] > 0)
    regressor = GBDTRegressor(
        n_trees=n_trees, max_depth=max_depth, n_bins=n_bins
    )
    model = regressor.fit(features, targets)
    expected = _fit_oracle(regressor, features, targets)
    assert model.trees == expected.trees
    assert model.base_score == expected.base_score
    assert np.array_equal(model.bin_edges, expected.bin_edges)
    codes, _ = quantise_features(features, n_bins)
    assert np.array_equal(codes, _quantise_oracle(expected.bin_edges, features))
    assert (
        model.predict(features).tobytes()
        == _predict_codes_oracle(expected, codes).tobytes()
    )


@given(kmeans_cases())
@settings(max_examples=120, deadline=None)
def test_kmeans_update_matches_per_column_bincount(case):
    points, labels, k = case
    centroids, counts = kmeans_update(points, labels, k)
    expected_centroids, expected_counts = _kmeans_update_oracle(points, labels, k)
    assert centroids.tobytes() == expected_centroids.tobytes()
    assert np.array_equal(counts, expected_counts)


@given(csr_cases())
@settings(max_examples=120, deadline=None)
def test_spmv_matches_per_call_expansion(case):
    matrix, x = case
    assert spmv(matrix, x).tobytes() == _spmv_oracle(matrix, x).tobytes()


@given(csr_cases())
@settings(max_examples=40, deadline=None)
def test_sparsemv_sweeps_match_oracle(case):
    matrix, _ = case
    p = {"indptr": matrix.indptr, "indices": matrix.indices,
         "values": matrix.values}
    assert _k_sweeps(p)["x"].tobytes() == _sweeps_oracle(p)["x"].tobytes()



@given(csr_cases(), st.sampled_from([0.0, 1e-12, 1e-3, 0.5]),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=80, deadline=None)
def test_pagerank_matches_per_sweep_cast(case, tol, iterations):
    # The strategy's empty rows are dangling vertices; tol > 0 covers the
    # early exit, and an all-empty matrix covers nnz == 0.
    matrix, _ = case
    with np.errstate(invalid="ignore", divide="ignore"):
        got = pagerank(matrix, iterations=iterations, tol=tol)
        expected = _pagerank_oracle(matrix, iterations=iterations, tol=tol)
    assert got.tobytes() == expected.tobytes()


def test_pagerank_tol_exits_early():
    n = 30
    indptr = np.arange(n + 1, dtype=np.int64)
    indices = ((np.arange(n) + 1) % n).astype(np.int32)  # a ring converges
    matrix = CSRMatrix(indptr=indptr, indices=indices, values=np.ones(n))
    got = pagerank(matrix, iterations=50, tol=1e-9)
    assert got.tobytes() == _pagerank_oracle(
        matrix, iterations=50, tol=1e-9).tobytes()
    assert got.tobytes() == pagerank(matrix, iterations=1).tobytes()


@given(assign_cases())
@settings(max_examples=150, deadline=None)
def test_kmeans_assign_matches_two_temporaries(case):
    points, centroids = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = kmeans_assign(points, centroids)
        expected = _kmeans_assign_oracle(points, centroids)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@given(edge_lists())
@settings(max_examples=120, deadline=None)
def test_build_csr_matches_unique_inverse(p):
    got, expected = _k_build_csr(p), _build_csr_oracle(p)
    assert sorted(got) == sorted(expected)
    for key, array in expected.items():
        assert got[key].dtype == array.dtype
        assert got[key].tobytes() == array.tobytes()
