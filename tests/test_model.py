import numpy as np
import pytest

import setforest as sf
from setforest.model import (
    MART,
    RF,
    aggregate,
    count_leaves,
    forest_from_dict,
    count_nodes,
    forest_from_json,
    forest_to_json,
    leaf_depths,
    route,
    sigmoid,
)
from setforest.training import _tree_values

from helpers import build_complete_tree, one_split_document, random_mixed_dataset


def _trained(seed=0, algorithm="rf", **kw):
    ds, _ = random_mixed_dataset(seed, n=150)
    if algorithm == "rf":
        config = sf.TrainConfig.random_forest(num_trees=4, max_depth=5, seed=seed,
                                              sampling_rate=0.8, **kw)
        return ds, sf.train_random_forest(ds, config)
    config = sf.TrainConfig.mart(num_trees=6, seed=seed, sampling_rate=0.8, **kw)
    return ds, sf.train_mart(ds, config)


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ["rf", "mart"])
    def test_round_trip_is_identity(self, algorithm):
        _, forest = _trained(seed=3, algorithm=algorithm)
        text = forest_to_json(forest)
        again = forest_to_json(forest_from_json(text))
        assert text == again

    def test_round_trip_preserves_predictions(self):
        ds, forest = _trained(seed=5)
        restored = forest_from_json(forest_to_json(forest))
        for row in ds.rows()[:25]:
            assert sf.predict(restored, row) == sf.predict(forest, row)

    def test_save_and_load(self, tmp_path):
        _, forest = _trained(seed=1)
        path = tmp_path / "model.json"
        sf.save_forest(forest, path)
        restored = sf.load_forest(path)
        assert forest_to_json(restored) == forest_to_json(forest)

    def test_masks_serialized_as_sorted_arrays(self):
        _, forest = _trained(seed=7)
        doc = sf.model.forest_to_dict(forest)

        def check(node):
            if "leaf" in node:
                return
            split = node["split"]
            if split["kind"] == "set_intersects":
                assert split["mask"] == sorted(split["mask"])
            if split["kind"] == "category_in":
                assert split["values"] == sorted(split["values"])
            check(node["negative"])
            check(node["positive"])

        for tree in doc["trees"]:
            check(tree)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            forest_from_json('{"format": "other", "version": 1}')
        with pytest.raises(ValueError):
            forest_from_json(
                '{"format": "setforest-model", "version": 99, "kind": "rf",'
                ' "initial_score": 0, "features": [], "trees": []}')


class TestTreeWalkers:
    def test_complete_tree_counts(self):
        tree = build_complete_tree(3)
        assert count_leaves(tree) == 8
        assert count_nodes(tree) == 15
        assert leaf_depths(tree) == [3] * 8

    def test_tree_apply_matches_scalar_route(self):
        ds, forest = _trained(seed=2)
        idx = np.arange(ds.n_examples)
        for tree in forest.trees:
            bulk = _tree_values(tree, ds, idx)
            scalar = np.array([route(tree, ds.row(i)).value for i in idx])
            np.testing.assert_array_equal(bulk, scalar)

    def test_predict_schema_mismatch(self):
        _, forest = _trained(seed=4)
        with pytest.raises(ValueError, match="schema"):
            sf.predict(forest, (1.0,))


class TestAggregate:
    def test_rows_at_once_match_one_row_at_a_time(self):
        # 1..600 trees crosses the pairwise summation's blocks of 8 and 128
        rng = np.random.default_rng(11)
        for trees in range(1, 601):
            values = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(5, trees))
            for kind in (RF, MART):
                rows = aggregate(kind, -0.3, values)
                assert rows.dtype == np.float64 and rows.shape == (5,)
                one = np.array([aggregate(kind, -0.3, row) for row in values])
                assert rows.tobytes() == one.tobytes(), (kind, trees)

    def test_zero_trees_and_zero_rows(self):
        assert aggregate(MART, 0.5, np.empty((3, 0))).tolist() == [sigmoid(0.5)] * 3
        assert aggregate(MART, 0.5, np.empty((0, 4))).shape == (0,)
        assert aggregate(RF, 0.0, np.empty((0, 4))).shape == (0,)


class TestValidation:
    def test_unsorted_mask_rejected(self):
        # on an unsorted mask the top-down merge walk and the compiled term
        # index disagree (row {0}: 0.1 against 0.9)
        with pytest.raises(ValueError, match="strictly increasing"):
            forest_from_dict(one_split_document(
                {"kind": "set_intersects", "feature": 0, "mask": [2, 0]}))

    @pytest.mark.parametrize("feature", [2, 5, -1, 0.0, "0"])
    def test_feature_outside_schema_rejected(self, feature):
        with pytest.raises(ValueError, match="schema has 2 features"):
            forest_from_dict(one_split_document(
                {"kind": "set_intersects", "feature": feature, "mask": [0]}))

    @pytest.mark.parametrize("split", [
        {"kind": "numerical_ge", "feature": 0, "threshold": 1.0},
        {"kind": "category_in", "feature": 0, "values": [0]},
        {"kind": "set_intersects", "feature": 1, "mask": [0]},
    ])
    def test_kind_must_match_feature_type(self, split):
        with pytest.raises(ValueError, match="split on"):
            forest_from_dict(one_split_document(split))

    @pytest.mark.parametrize("ids", [[], [0, 0], [1, 0], [-1], [3], [0.0], [0, 1.5],
                                     ["a"], [None], [[0]], [2**70], [True], [False, True]])
    def test_bad_mask_rejected(self, ids):
        with pytest.raises(ValueError):
            forest_from_dict(one_split_document(
                {"kind": "set_intersects", "feature": 0, "mask": ids}))

    @pytest.mark.parametrize("values", [[], [1, 0], [2]])
    def test_bad_value_set_rejected(self, values):
        with pytest.raises(ValueError, match="strictly increasing"):
            forest_from_dict(one_split_document(
                {"kind": "category_in", "feature": 1, "values": values}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["leaf", "threshold", "initial_score"])
    def test_non_finite_numbers_rejected(self, where, value):
        document = {
            "format": "setforest-model", "version": 1, "kind": "mart", "initial_score": 0.5,
            "features": [{"name": "x", "type": "numerical", "vocabulary": None}],
            "trees": [{"split": {"kind": "numerical_ge", "feature": 0, "threshold": 1.5},
                       "negative": {"leaf": -0.25}, "positive": {"leaf": 0.75}}],
            "metadata": {},
        }
        forest_from_dict(document)
        if where == "leaf":
            document["trees"][0]["negative"]["leaf"] = value
        elif where == "threshold":
            document["trees"][0]["split"]["threshold"] = value
        else:
            document["initial_score"] = value
        with pytest.raises(ValueError, match="must be finite"):
            forest_from_dict(document)

    def test_non_finite_json_literal_rejected(self):
        text = forest_to_json(sf.DecisionForest("mart", [sf.Leaf(float("nan"))], 0.0, [], {}))
        assert '"leaf": NaN' in text
        with pytest.raises(ValueError, match="must be finite"):
            forest_from_json(text)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="forest kind"):
            forest_from_dict(one_split_document(
                {"kind": "set_intersects", "feature": 0, "mask": [0]}, kind="gbdt"))
        with pytest.raises(ValueError, match="condition kind"):
            forest_from_dict(one_split_document({"kind": "set_equals", "feature": 0}))
