"""Gradient-boosted decision trees, from scratch.

A histogram-based GBDT in the LightGBM style: features are quantised
into a fixed number of bins, split gains are computed from per-bin
gradient histograms, and trees grow depth-wise to a height limit.
Squared-error loss (regression) is what the evaluation workload uses:
the LightGBM application in the paper is batch *inference* over a large
stored feature table, so training happens once at model-build time and
the hot path is :meth:`GBDTModel.predict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import WorkloadError


@dataclass
class TreeNode:
    """One node of a regression tree (leaf iff ``feature`` is None)."""

    feature: Optional[int] = None
    threshold_bin: int = 0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        left_depth = self.left.depth() if self.left else 0
        right_depth = self.right.depth() if self.right else 0
        return 1 + max(left_depth, right_depth)

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        count = 1
        if self.left:
            count += self.left.node_count()
        if self.right:
            count += self.right.node_count()
        return count


def quantise_features(features: np.ndarray, n_bins: int = 64) -> tuple:
    """Bin features into uint8 codes; returns (codes, bin_edges).

    Edges come from per-feature quantiles so skewed features still
    spread across bins.  This is also the workload's "feature
    quantisation" offload step: 8 bytes per value in, 1 byte out.
    """
    if features.ndim != 2:
        raise WorkloadError(f"features must be 2-D, got shape {features.shape}")
    if not 2 <= n_bins <= 256:
        raise WorkloadError(f"n_bins must lie in [2, 256], got {n_bins}")
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.quantile(features, quantiles, axis=0)  # (n_bins-1, d)
    return _bin_codes(features, edges), edges


#: Rows binned per block: a block's index and probe temporaries stay in
#: cache however many rows the caller passes.
_BIN_BLOCK_ROWS = 1024


def _bin_codes(features: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per-column ``np.searchsorted(edges[:, j], features[:, j])`` as uint8.

    A branch-free lower-bound search over all columns at once: each
    column's sorted edges are padded with +inf to a power-of-two width,
    and every value takes the same log2(width) halving steps, adding
    ``step`` to its position whenever the probed edge is ``< x``.  That
    counts the edges strictly below ``x``, which is exactly
    ``searchsorted(side="left")`` for non-NaN ``x``, ties at an edge
    and +-inf included (the +inf padding is never ``< x``).
    ``searchsorted`` sorts NaN after every number, so a NaN value gets
    the column's count of non-NaN edges: ``len(edges)`` for finite ones.
    """
    n_edges, d = edges.shape
    if features.ndim != 2 or features.shape[1] != d:
        raise WorkloadError(
            f"features of shape {features.shape} do not match "
            f"{d} binned columns"
        )
    width = 1 << n_edges.bit_length()
    padded = np.full((d, width), np.inf)
    padded[:, :n_edges] = edges.T
    table = padded.ravel()
    base = np.arange(d) * width
    steps = []
    step = width // 2
    while step:
        steps.append((step, table[step - 1:]))
        step //= 2
    codes = np.empty(features.shape, dtype=np.uint8)
    for start in range(0, features.shape[0], _BIN_BLOCK_ROWS):
        block = features[start:start + _BIN_BLOCK_ROWS]
        pos = np.broadcast_to(base, block.shape).copy()
        for step, probe in steps:
            pos += (probe.take(pos) < block) * step
        codes[start:start + _BIN_BLOCK_ROWS] = pos - base
    nan_rows, nan_cols = np.nonzero(np.isnan(features))
    if nan_rows.size:
        codes[nan_rows, nan_cols] = (~np.isnan(edges)).sum(axis=0)[nan_cols]
    return codes


def _best_split(
    codes: np.ndarray,
    gradients: np.ndarray,
    row_mask: np.ndarray,
    n_bins: int,
    min_samples: int,
    lam: float,
) -> Optional[tuple]:
    """Best (feature, bin, gain) over histogram splits, or None."""
    rows = np.flatnonzero(row_mask)
    if rows.size < 2 * min_samples:
        return None
    g = gradients[rows]
    total_g = g.sum()
    total_n = rows.size
    parent_score = total_g * total_g / (total_n + lam)
    best = None
    for feature in range(codes.shape[1]):
        col = codes[rows, feature]
        hist_g = np.bincount(col, weights=g, minlength=n_bins)
        hist_n = np.bincount(col, minlength=n_bins)
        left_g = np.cumsum(hist_g)[:-1]
        left_n = np.cumsum(hist_n)[:-1]
        right_g = total_g - left_g
        right_n = total_n - left_n
        valid = (left_n >= min_samples) & (right_n >= min_samples)
        if not np.any(valid):
            continue
        gains = np.where(
            valid,
            left_g**2 / (left_n + lam) + right_g**2 / (right_n + lam) - parent_score,
            -np.inf,
        )
        bin_idx = int(np.argmax(gains))
        gain = float(gains[bin_idx])
        if gain > 0 and (best is None or gain > best[2]):
            best = (feature, bin_idx, gain)
    return best


def _grow_tree(
    codes: np.ndarray,
    gradients: np.ndarray,
    row_mask: np.ndarray,
    depth_left: int,
    n_bins: int,
    min_samples: int,
    lam: float,
    learning_rate: float,
) -> TreeNode:
    rows = np.flatnonzero(row_mask)
    leaf_value = float(gradients[rows].sum() / (rows.size + lam)) * learning_rate
    if depth_left == 0:
        return TreeNode(value=leaf_value)
    split = _best_split(codes, gradients, row_mask, n_bins, min_samples, lam)
    if split is None:
        return TreeNode(value=leaf_value)
    feature, threshold_bin, _ = split
    goes_left = row_mask & (codes[:, feature] <= threshold_bin)
    goes_right = row_mask & ~ (codes[:, feature] <= threshold_bin)
    return TreeNode(
        feature=feature,
        threshold_bin=threshold_bin,
        left=_grow_tree(
            codes, gradients, goes_left, depth_left - 1,
            n_bins, min_samples, lam, learning_rate,
        ),
        right=_grow_tree(
            codes, gradients, goes_right, depth_left - 1,
            n_bins, min_samples, lam, learning_rate,
        ),
    )


def _leaf_values(
    node: TreeNode,
    columns: np.ndarray,
    rows: Optional[np.ndarray],
    out: np.ndarray,
) -> None:
    """Write the leaf value each row reaches in one tree into ``out``.

    ``columns`` is the code matrix transposed (one contiguous row of
    codes per feature) and ``rows`` the indices of the rows that reached
    ``node`` (``None`` at the root: every row).  Rows are split by index,
    so no node copies the code rows it routes.
    """
    if node.is_leaf:
        if rows is None:
            out.fill(node.value)
        else:
            out[rows] = node.value
        return
    if node.left is None or node.right is None:
        raise WorkloadError(
            f"split node on feature {node.feature} is missing a child"
        )
    column = columns[node.feature]
    if rows is None:
        goes_left = column <= node.threshold_bin
        left, right = np.flatnonzero(goes_left), np.flatnonzero(~goes_left)
    else:
        goes_left = column[rows] <= node.threshold_bin
        left, right = rows[goes_left], rows[~goes_left]
    _leaf_values(node.left, columns, left, out)
    _leaf_values(node.right, columns, right, out)


def _add_trees(
    trees: List[TreeNode], columns: np.ndarray, out: np.ndarray
) -> None:
    """``out += tree(rows)`` for each tree in order: one addition per row."""
    leaves = np.empty(out.shape[0])
    for tree in trees:
        _leaf_values(tree, columns, None, leaves)
        out += leaves


@dataclass
class GBDTModel:
    """A trained boosted ensemble over quantised features."""

    trees: List[TreeNode]
    bin_edges: np.ndarray
    base_score: float
    n_bins: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def quantise(self, features: np.ndarray) -> np.ndarray:
        """Bin raw features with the training-time edges."""
        return _bin_codes(features, self.bin_edges)

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Predict from already-binned rows (the CSD-friendly hot path)."""
        out = np.full(codes.shape[0], self.base_score)
        _add_trees(self.trees, np.ascontiguousarray(codes.T), out)
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Quantise then predict — the end-to-end inference path."""
        return self.predict_codes(self.quantise(features))

    def feature_importance(self) -> np.ndarray:
        """Split counts per feature across the ensemble (normalised).

        The standard "how often did a feature decide a split" measure;
        sums to 1 for a non-trivial ensemble.
        """
        counts = np.zeros(self.bin_edges.shape[1], dtype=np.float64)

        def visit(node: TreeNode) -> None:
            if node.is_leaf:
                return
            counts[node.feature] += 1
            if node.left is not None:
                visit(node.left)
            if node.right is not None:
                visit(node.right)

        for tree in self.trees:
            visit(tree)
        total = counts.sum()
        return counts / total if total > 0 else counts


class GBDTRegressor:
    """Trainer: squared-error gradient boosting on histogram splits."""

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int = 4,
        learning_rate: float = 0.3,
        n_bins: int = 64,
        min_samples_leaf: int = 8,
        reg_lambda: float = 1.0,
    ) -> None:
        if n_trees < 1:
            raise WorkloadError(f"n_trees must be >= 1, got {n_trees}")
        if max_depth < 1:
            raise WorkloadError(f"max_depth must be >= 1, got {max_depth}")
        if not 0 < learning_rate <= 1:
            raise WorkloadError(f"learning_rate must lie in (0, 1], got {learning_rate}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.n_bins = n_bins
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda

    def fit(self, features: np.ndarray, targets: np.ndarray) -> GBDTModel:
        """Train an ensemble; returns the immutable model."""
        if features.shape[0] != targets.shape[0]:
            raise WorkloadError(
                f"{features.shape[0]} rows but {targets.shape[0]} targets"
            )
        if features.shape[0] < 2 * self.min_samples_leaf:
            raise WorkloadError("not enough rows to grow any split")
        codes, edges = quantise_features(features, self.n_bins)
        base_score = float(np.mean(targets))
        predictions = np.full(features.shape[0], base_score)
        trees: List[TreeNode] = []
        all_rows = np.ones(features.shape[0], dtype=bool)
        columns = np.ascontiguousarray(codes.T)
        for _ in range(self.n_trees):
            residuals = targets - predictions
            tree = _grow_tree(
                codes,
                residuals,
                all_rows,
                depth_left=self.max_depth,
                n_bins=self.n_bins,
                min_samples=self.min_samples_leaf,
                lam=self.reg_lambda,
                learning_rate=self.learning_rate,
            )
            trees.append(tree)
            _add_trees([tree], columns, predictions)
        return GBDTModel(
            trees=trees, bin_edges=edges, base_score=base_score, n_bins=self.n_bins
        )
