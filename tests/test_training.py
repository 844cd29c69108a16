import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.dataset import FeatureType
from setforest.model import Internal, Leaf, max_depth
from setforest.rng import make_rng
from setforest.splits import find_set_mask_split
from setforest.training import (
    MAX_INITIAL_SCORE,
    _child_tokens,
    _tree_values,
    log_loss,
    log_loss_gradient,
)

from helpers import evaluate_column, random_mixed_dataset, set_dataset


def _separable_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    sets = []
    labels = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        base = set(rng.choice(np.arange(2, 10), size=3, replace=False).tolist())
        if label:
            base.add(0)
        sets.append(tuple(sorted(base)))
        labels.append(label)
    return set_dataset(sets, labels, vocab_size=10)


class TestGrowTree:
    def test_pure_node_is_single_leaf(self):
        ds = set_dataset([(0,), (1,)], [1, 1], vocab_size=2)
        tree = sf.grow_tree(ds, sf.TrainConfig.random_forest(num_trees=1))
        assert isinstance(tree, Leaf)
        assert tree.value == 1.0

    def test_separable_four_examples_depth_one(self):
        ds = set_dataset([(0,), (0,), (1,), (1,)], [1, 1, 0, 0], vocab_size=2)
        config = sf.TrainConfig.random_forest(num_trees=1, sampling_rate=1.0)
        tree = sf.grow_tree(ds, config)
        assert isinstance(tree, Internal)
        assert max_depth(tree) == 1
        preds = _tree_values(tree, ds, np.arange(4))
        assert ((preds >= 0.5) == ds.labels.astype(bool)).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_depth_limit_respected(self, seed):
        ds, _ = random_mixed_dataset(seed, n=120)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=2,
                                              sampling_rate=1.0)
        tree = sf.grow_tree(ds, config)
        assert max_depth(tree) <= 2

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_no_empty_branch_on_training_data(self, seed):
        ds, _ = random_mixed_dataset(seed, n=80)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=6,
                                              sampling_rate=1.0)
        tree = sf.grow_tree(ds, config)

        def walk(node, idx):
            if isinstance(node, Leaf):
                assert len(idx) >= 1
                return
            pos = evaluate_column(node.condition, ds, idx)
            assert 0 < pos.sum() < len(idx)
            walk(node.negative, idx[~pos])
            walk(node.positive, idx[pos])

        walk(tree, np.arange(ds.n_examples))


class TestInheritedTokens:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.sampled_from(["classification", "regression"]),
           st.sampled_from([1.0, 0.6]))
    def test_search_on_inherited_tokens_matches_a_fresh_gather(self, seed, objective, p):
        # walk from the root to a leaf along random sides; at every node the
        # inherited tokens equal a fresh gather, and the search on them
        # returns what the search that gathers its own returns
        ds, _ = random_mixed_dataset(seed % 40, n=150)
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, ds.n_examples, size=ds.n_examples)
        targets = ds.labels.astype(np.float64)
        if objective == "regression":
            targets = targets - rng.random(ds.n_examples)
        set_features = [f for f, feat in enumerate(ds.features)
                        if feat.ftype == FeatureType.CATEGORICAL_SET]
        tokens = {f: ds.set_index(f).node_tokens(indices) for f in set_features}
        for depth in range(12):
            node_t, node_w = targets[indices], ds.weights[indices]
            found = []
            for f in set_features:
                for a, b in zip(tokens[f], ds.set_index(f).node_tokens(indices)):
                    assert np.array_equal(a, b) and a.dtype == b.dtype
                inherited = find_set_mask_split(
                    ds.set_index(f), indices, node_t, node_w, f, p, make_rng(seed, depth, f),
                    objective=objective, tokens=tokens[f])
                fresh = find_set_mask_split(
                    ds.set_index(f), indices, node_t, node_w, f, p, make_rng(seed, depth, f),
                    objective=objective)
                if fresh is None:
                    assert inherited is None
                    continue
                assert inherited == fresh  # condition, gain, sizes and steps
                assert np.float64(inherited.gain).tobytes() == np.float64(fresh.gain).tobytes()
                assert np.array_equal(inherited.positive, fresh.positive)
                found.append(inherited)
            if not found:
                break
            side = found[int(rng.integers(len(found)))].positive
            if rng.random() < 0.5:
                side = ~side
            tokens = _child_tokens(tokens, side)
            indices = indices[side]


def _chain_dataset(blocks=60, size=20):
    """Blocks of ``size`` rows with alternating labels; a row of block k holds
    the terms 0..k, so every mask is a cut between blocks, and the best cut
    peels one end block off: a tree one block deep per level."""
    sets = [tuple(range(i // size + 1)) for i in range(blocks * size)]
    labels = [(i // size) % 2 for i in range(blocks * size)]
    return set_dataset(sets, labels, vocab_size=blocks)


class TestTrainingMemory:
    def test_peak_stays_near_the_roots_tokens(self):
        # 36,600 tokens at the root and a chain of 59 splits. Measured: a
        # traced peak of 2.9 MiB; 17.2 MiB when every node keeps its tokens
        # until its subtree is grown
        ds = _chain_dataset()
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=10_000,
                                              sampling_rate=1.0, seed=0)
        tracemalloc.start()
        try:
            forest = sf.train(ds, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max_depth(forest.trees[0]) > 50
        assert peak < 4.5 * 2**20


class TestRandomForest:
    def test_single_tree_separable_training_auc(self):
        ds = _separable_dataset()
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=8, seed=4,
                                              sampling_rate=1.0)
        forest = sf.train_random_forest(ds, config)
        scores = [sf.predict(forest, row) for row in ds.rows()]
        assert sf.auc(scores, ds.labels) == 1.0

    def test_same_seed_bit_identical(self):
        ds = _separable_dataset()
        config = sf.TrainConfig.random_forest(num_trees=3, max_depth=5, seed=9)
        a = sf.forest_to_json(sf.train_random_forest(ds, config))
        b = sf.forest_to_json(sf.train_random_forest(ds, config))
        assert a == b

    def test_different_seed_differs(self):
        ds = _separable_dataset()
        a = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=3, max_depth=5, seed=1))
        b = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=3, max_depth=5, seed=2))
        assert sf.forest_to_json(a) != sf.forest_to_json(b)

    def test_prediction_is_exact_mean_of_tree_outputs(self):
        ds = _separable_dataset(seed=3)
        config = sf.TrainConfig.random_forest(num_trees=3, max_depth=4, seed=7)
        forest = sf.train_random_forest(ds, config)
        for row in ds.rows()[:10]:
            v0, v1, v2 = (sf.model.route(tree, row).value
                          for tree in forest.trees)
            assert sf.predict(forest, row) == ((v0 + v1) + v2) / 3.0

    def test_defaults_match_contract(self):
        config = sf.TrainConfig.random_forest()
        assert (config.num_trees, config.max_depth) == (500, 32)
        assert config.features_per_node == "sqrt"
        assert config.min_examples_per_leaf == 1
        assert config.sampling_rate == 0.2

    def test_leaf_values_are_probabilities(self):
        ds = _separable_dataset(seed=5)
        forest = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=2, max_depth=3, seed=0))
        for tree in forest.trees:
            for value in sf.model.leaf_values(tree):
                assert 0.0 <= value <= 1.0

    def test_oob_stats_recorded_on_request(self):
        ds = _separable_dataset(seed=6)
        forest = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=2, max_depth=3, seed=0, compute_oob=True))
        assert len(forest.metadata["oob"]) == 2
        assert forest.metadata["oob"][0]["oob_examples"] > 0

    def test_empty_dataset_rejected(self):
        ds = set_dataset([], [], vocab_size=1)
        with pytest.raises(ValueError, match="empty"):
            sf.train_random_forest(ds, sf.TrainConfig.random_forest(num_trees=1))


class TestMart:
    def test_training_loss_strictly_decreases_on_separable_data(self):
        ds = _separable_dataset()
        config = sf.TrainConfig.mart(num_trees=10, seed=3,
                                     validation_fraction=0.0, sampling_rate=1.0)
        forest = sf.train_mart(ds, config)
        losses = forest.metadata["train_losses"]
        assert len(losses) == 10
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_all_positive_labels_degenerate(self):
        ds = set_dataset([(0,), (1,), (0, 1)], [1, 1, 1], vocab_size=2)
        forest = sf.train_mart(ds, sf.TrainConfig.mart(num_trees=5, seed=0))
        assert forest.trees == []
        assert forest.initial_score == MAX_INITIAL_SCORE
        assert sf.predict(forest, ((0,),)) > 0.999999

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(scale=3.0, size=100)
        labels = rng.integers(0, 2, size=100).astype(np.float64)
        h = 1e-5
        fd = (log_loss(scores + h, labels) - log_loss(scores - h, labels)) / (2 * h)
        grad = log_loss_gradient(scores, labels)
        rel = np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-12)
        assert rel.max() < 1e-6

    def test_truncates_to_best_validation_round(self):
        ds = _separable_dataset(n=80, seed=8)
        config = sf.TrainConfig.mart(num_trees=15, seed=5,
                                     validation_fraction=0.2)
        forest = sf.train_mart(ds, config)
        val = forest.metadata["validation_losses"]
        best = forest.metadata["best_round"]
        assert best == int(np.argmin(val))
        assert len(forest.trees) == best + 1
        assert min(val) == val[best]

    def test_patience_stops_early(self):
        ds = _separable_dataset(n=60, seed=9)
        config = sf.TrainConfig.mart(num_trees=50, seed=5,
                                     validation_fraction=0.2,
                                     early_stopping_patience=3)
        forest = sf.train_mart(ds, config)
        assert len(forest.metadata["validation_losses"]) < 50

    def test_shrinkage_scales_stored_leaf_values(self):
        ds = _separable_dataset(n=30, seed=2)
        base = dict(num_trees=1, seed=4, validation_fraction=0.0,
                    sampling_rate=1.0)
        full = sf.train_mart(ds, sf.TrainConfig.mart(shrinkage=1.0, **base))
        tenth = sf.train_mart(ds, sf.TrainConfig.mart(shrinkage=0.1, **base))
        v_full = np.array(sf.model.leaf_values(full.trees[0]))
        v_tenth = np.array(sf.model.leaf_values(tenth.trees[0]))
        np.testing.assert_allclose(v_tenth, 0.1 * v_full, rtol=1e-12)

    def test_defaults_match_contract(self):
        config = sf.TrainConfig.mart()
        assert (config.num_trees, config.max_depth) == (500, 6)
        assert config.features_per_node == "all"
        assert config.min_examples_per_leaf == 5
        assert config.shrinkage == 0.1
        assert config.validation_fraction == 0.1

    def test_determinism(self):
        ds = _separable_dataset(seed=1)
        config = sf.TrainConfig.mart(num_trees=5, seed=11)
        a = sf.forest_to_json(sf.train_mart(ds, config))
        b = sf.forest_to_json(sf.train_mart(ds, config))
        assert a == b


class TestWeights:
    def test_doubled_weight_equals_duplicated_example(self):
        # weighted statistics must make {x with weight 2} and {x, x} grow the
        # same tree (min_examples_per_leaf=1 so example counts do not differ)
        sets = [(0,), (0, 1), (1,), (2,), (1, 2), (2,)]
        labels = [1, 1, 0, 0, 1, 0]
        weighted = set_dataset(sets, labels, vocab_size=3,
                               weights=[2.0, 1.0, 1.0, 2.0, 1.0, 1.0])
        duplicated = set_dataset([sets[0]] + sets + [sets[3]],
                                 [labels[0]] + labels + [labels[3]],
                                 vocab_size=3)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=4,
                                              sampling_rate=1.0)
        tree_w = sf.grow_tree(weighted, config)
        tree_d = sf.grow_tree(duplicated, config)
        assert tree_w == tree_d

    def test_weighted_leaf_value_is_weighted_mean(self):
        ds = set_dataset([(0,), (0,)], [1, 0], vocab_size=1,
                         weights=[3.0, 1.0])
        tree = sf.grow_tree(ds, sf.TrainConfig.random_forest(num_trees=1))
        assert isinstance(tree, Leaf)
        assert tree.value == 0.75


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"num_trees": 0},
        {"max_depth": 0},
        {"sampling_rate": 0.0},
        {"sampling_rate": 1.5},
        {"shrinkage": 0.0},
        {"validation_fraction": 1.0},
        {"features_per_node": "half"},
        {"features_per_node": 0},
        {"algorithm": "xgb"},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            sf.TrainConfig(**kw)
