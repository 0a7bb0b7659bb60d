"""From-scratch GBDT: quantisation, training, inference."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.ml.gbdt import GBDTModel, GBDTRegressor, TreeNode, quantise_features


def make_data(n=2000, seed=9):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 6))
    targets = (
        3.0 * features[:, 0]
        + 2.0 * (features[:, 1] > 0)
        - features[:, 2] ** 2 / 4
    )
    return features, targets


class TestQuantisation:
    def test_codes_within_bins(self):
        features, _ = make_data()
        codes, edges = quantise_features(features, n_bins=32)
        assert codes.dtype == np.uint8
        assert codes.max() < 32
        assert edges.shape == (31, features.shape[1])

    def test_skewed_features_spread_over_bins(self):
        rng = np.random.default_rng(4)
        skewed = np.exp(rng.normal(size=(4000, 1)))
        codes, _ = quantise_features(skewed, n_bins=64)
        assert len(np.unique(codes)) > 48  # quantile edges, not linear

    def test_validation(self):
        with pytest.raises(WorkloadError):
            quantise_features(np.zeros(10), n_bins=8)
        with pytest.raises(WorkloadError):
            quantise_features(np.zeros((10, 2)), n_bins=1)


class TestTraining:
    def test_fit_reduces_error_over_base_score(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=30, max_depth=4).fit(features, targets)
        predictions = model.predict(features)
        base_mse = float(np.mean((targets - targets.mean()) ** 2))
        model_mse = float(np.mean((targets - predictions) ** 2))
        assert model_mse < 0.3 * base_mse

    def test_more_trees_fit_better(self):
        features, targets = make_data()
        small = GBDTRegressor(n_trees=3).fit(features, targets)
        large = GBDTRegressor(n_trees=30).fit(features, targets)
        small_mse = float(np.mean((targets - small.predict(features)) ** 2))
        large_mse = float(np.mean((targets - large.predict(features)) ** 2))
        assert large_mse < small_mse

    def test_depth_limit_respected(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=5, max_depth=3).fit(features, targets)
        assert all(tree.depth() <= 3 for tree in model.trees)

    def test_deterministic(self):
        features, targets = make_data()
        a = GBDTRegressor(n_trees=5).fit(features, targets)
        b = GBDTRegressor(n_trees=5).fit(features, targets)
        assert np.array_equal(a.predict(features), b.predict(features))

    def test_validation(self):
        features, targets = make_data(n=100)
        with pytest.raises(WorkloadError):
            GBDTRegressor(n_trees=0)
        with pytest.raises(WorkloadError):
            GBDTRegressor(max_depth=0)
        with pytest.raises(WorkloadError):
            GBDTRegressor(learning_rate=0.0)
        with pytest.raises(WorkloadError):
            GBDTRegressor().fit(features, targets[:50])


class TestInference:
    def test_predict_equals_quantise_then_predict_codes(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=10).fit(features, targets)
        codes = model.quantise(features)
        assert np.array_equal(model.predict(features), model.predict_codes(codes))

    def test_generalises_to_fresh_rows(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=30, max_depth=4).fit(features, targets)
        fresh_features, fresh_targets = make_data(seed=77)
        predictions = model.predict(fresh_features)
        base_mse = float(np.mean((fresh_targets - targets.mean()) ** 2))
        model_mse = float(np.mean((fresh_targets - predictions) ** 2))
        assert model_mse < 0.5 * base_mse

    def test_tree_accounting(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=7).fit(features, targets)
        assert model.n_trees == 7
        assert all(tree.node_count() >= 1 for tree in model.trees)

    def test_split_with_missing_child_is_rejected(self):
        # Rows routed to a missing child used to come back as
        # uninitialised memory; such a tree cannot be traversed.
        for left, right in ((TreeNode(value=1.0), None), (None, TreeNode(value=1.0))):
            tree = TreeNode(feature=0, threshold_bin=3, left=left, right=right)
            model = GBDTModel(
                trees=[tree], bin_edges=np.zeros((7, 1)), base_score=0.0, n_bins=8
            )
            with pytest.raises(WorkloadError, match="missing a child"):
                model.predict_codes(np.arange(8, dtype=np.uint8)[:, None])
