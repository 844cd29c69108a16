import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.evaluation import (
    fold_csv,
    fold_indices,
    rank_reports,
    summary_csv,
    summary_table,
)
from setforest.model import count_leaves, count_nodes, forest_to_json

from helpers import build_complete_tree, make_vocab, random_nested_tree, tree_leaf_depths


def brute_force_auc(scores, labels):
    """Oracle: concordant pairs over all positive-negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ordering(self):
        assert sf.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert sf.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_documented_example(self):
        # oracle: 4 pos-neg pairs, 3 concordant -> 0.75
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert brute_force_auc(scores, labels) == 0.75
        assert sf.auc(scores, labels) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            sf.auc([0.1, 0.2], [1, 1])

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                              st.integers(0, 1)), min_size=2, max_size=40))
    def test_matches_brute_force_with_ties(self, pairs):
        scores = [p[0] for p in pairs]
        labels = [p[1] for p in pairs]
        if len(set(labels)) < 2:
            return
        assert sf.auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 1)),
                    min_size=2, max_size=30))
    def test_invariant_under_monotone_transform(self, pairs):
        # dyadic grid keeps the transforms strictly monotone in float64 too
        scores = np.array([p[0] for p in pairs]) / 8.0
        labels = [p[1] for p in pairs]
        if len(set(labels)) < 2:
            return
        base = sf.auc(scores, labels)
        assert sf.auc(3.0 * scores + 1.0, labels) == pytest.approx(base, abs=1e-12)
        assert sf.auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_flipping_labels_complements_for_tie_free_scores(self):
        rng = np.random.default_rng(0)
        scores = rng.permutation(20) / 20.0
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        assert sf.auc(scores, labels) + sf.auc(scores, 1 - labels) == pytest.approx(
            1.0, abs=1e-12)


class TestHeadroomReduction:
    def test_anchors(self):
        assert sf.headroom_reduction(0.9, 0.9) == 0.0
        assert sf.headroom_reduction(1.0, 0.9) == 1.0

    def test_monotone_in_accuracy(self):
        values = [sf.headroom_reduction(a, 0.8) for a in (0.8, 0.85, 0.9, 0.99)]
        assert values == sorted(values) and len(set(values)) == len(values)

    def test_bad_baseline(self):
        with pytest.raises(ValueError):
            sf.headroom_reduction(0.9, 1.0)


class TestStructureStats:
    def test_complete_tree_balance_is_exactly_one(self):
        forest = sf.DecisionForest(
            kind="rf", trees=[build_complete_tree(6)], initial_score=0.0,
            features=[sf.Feature("x", sf.FeatureType.NUMERICAL)], metadata={})
        stats = sf.structure_stats(forest)
        assert stats.avg_depth == 6.0
        assert stats.nodes_per_tree == 2**7 - 1
        assert stats.leaves_per_tree == 64
        assert abs(stats.balance_ratio - 1.0) <= 1e-9

    def test_single_leaf_convention(self):
        forest = sf.DecisionForest(
            kind="rf", trees=[sf.Leaf(0.5)], initial_score=0.0,
            features=[sf.Feature("x", sf.FeatureType.NUMERICAL)], metadata={})
        stats = sf.structure_stats(forest)
        assert stats.avg_depth == 0.0
        assert stats.balance_ratio == 1.0

    def test_lopsided_tree_matches_manual_computation(self):
        # root -> (leaf, internal -> (leaf, leaf)): 5 nodes, 3 leaves,
        # leaf depths 1, 2, 2
        tree = sf.Internal(
            sf.NumericalGE(0, 0.0),
            sf.Leaf(0.0),
            sf.Internal(sf.NumericalGE(0, 1.0), sf.Leaf(0.25), sf.Leaf(0.75)),
        )
        forest = sf.DecisionForest(
            kind="rf", trees=[tree], initial_score=0.0,
            features=[sf.Feature("x", sf.FeatureType.NUMERICAL)], metadata={})
        stats = sf.structure_stats(forest)
        assert stats.avg_depth == 5 / 3
        assert stats.nodes_per_tree == 5
        assert stats.leaves_per_tree == 3
        assert stats.balance_ratio == math.log2(3) / (5 / 3)


    @settings(deadline=None, max_examples=60)
    @given(sizes=st.lists(st.integers(1, 90), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_one_pass_equals_the_per_tree_formula(self, sizes, seed):
        # the per-tree means that structure_stats took before it read the
        # forest's node arrays in one pass; single-leaf trees included
        features = [sf.Feature("x", sf.FeatureType.NUMERICAL),
                    sf.Feature("s", sf.FeatureType.CATEGORICAL_SET, make_vocab("abcde"))]
        rng = np.random.default_rng(seed)
        forest = sf.DecisionForest("rf", [random_nested_tree(rng, n, features) for n in sizes],
                                   0.0, features)
        trees = forest.trees
        avg_depth = float(np.mean([np.mean(tree_leaf_depths(tree)) for tree in trees]))
        leaves_per_tree = float(np.mean([count_leaves(tree) for tree in trees]))
        expected = sf.StructureStats(
            avg_depth, float(np.mean([count_nodes(tree) for tree in trees])), leaves_per_tree,
            1.0 if avg_depth == 0 else math.log2(leaves_per_tree) / avg_depth)
        stats = sf.structure_stats(forest)
        assert [np.float64(x).tobytes() for x in vars(stats).values()] == \
            [np.float64(x).tobytes() for x in vars(expected).values()]

    def test_forest_without_trees_raises(self):
        forest = sf.DecisionForest("mart", [], 0.5, [sf.Feature("x", sf.FeatureType.NUMERICAL)])
        with pytest.raises(ValueError, match="at least one tree"):
            sf.structure_stats(forest)


class TestFoldIndices:
    def test_disjoint_exact_cover(self):
        blocks = fold_indices(23, 5, seed=3)
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [4, 4, 5, 5, 5]
        combined = np.sort(np.concatenate(blocks))
        np.testing.assert_array_equal(combined, np.arange(23))

    def test_deterministic(self):
        a = fold_indices(50, 5, seed=9)
        b = fold_indices(50, 5, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_validation(self):
        with pytest.raises(ValueError):
            fold_indices(10, 1, seed=0)
        with pytest.raises(ValueError):
            fold_indices(3, 5, seed=0)


def _corpus(n=120, seed=0):
    tokens, labels = sf.planted_keyword_corpus(
        n=n, vocab_terms=40, signal_terms=4, seed=seed)
    return tokens, labels


def _method(**kw):
    kw.setdefault("num_trees", 3)
    kw.setdefault("max_depth", 5)
    kw.setdefault("sampling_rate", 1.0)
    return sf.MethodSpec("rf", sf.TrainConfig.random_forest(**kw))


class TestCrossValidate:
    def test_deterministic(self):
        tokens, labels = _corpus()
        a = sf.cross_validate(tokens, labels, _method(), folds=3, seed=4,
                              vocab_size=40, min_frequency=1)
        b = sf.cross_validate(tokens, labels, _method(), folds=3, seed=4,
                              vocab_size=40, min_frequency=1)
        assert a.fold_aucs == b.fold_aucs
        assert a.mean_auc == b.mean_auc

    def test_two_fold_matches_manual_split(self):
        tokens, labels = _corpus(n=60, seed=2)
        report = sf.cross_validate(tokens, labels, _method(), folds=2, seed=7,
                                   vocab_size=40, min_frequency=1,
                                   keep_models=True)
        blocks = fold_indices(60, 2, seed=7)
        from setforest.evaluation import _score_examples, fit_method, text_pipeline
        from setforest.rng import derive_seed

        for k, test_idx in enumerate(blocks):
            train_idx = blocks[1 - k]
            vocab = sf.build_vocabulary([tokens[i] for i in train_idx], 40, 1)
            train_ds = sf.dataset_from_token_sets([tokens[i] for i in train_idx], vocab,
                                                  labels[train_idx])
            chain, forest = fit_method(train_ds, _method(), text_pipeline(vocab),
                                       seed=derive_seed(7, 0x7A11, k),
                                       chain_seed=derive_seed(7, 0xC4A1, k))
            compiled = sf.compile_forest(forest)
            scores = _score_examples(compiled, vocab, chain, tokens, test_idx)
            assert sf.auc(scores, labels[test_idx]) == report.fold_aucs[k]
            assert forest_to_json(forest) == forest_to_json(report.models[k])

    def test_test_labels_never_reach_training(self):
        tokens, labels = _corpus(n=80, seed=3)
        report = sf.cross_validate(tokens, labels, _method(), folds=4, seed=1,
                                   vocab_size=40, min_frequency=1,
                                   keep_models=True)
        blocks = fold_indices(80, 4, seed=1)
        flipped = labels.copy()
        flipped[blocks[0]] = 1 - flipped[blocks[0]]
        # flipping fold-0 labels changes evaluation but not the fold-0 model
        report2 = sf.cross_validate(tokens, flipped, _method(), folds=4, seed=1,
                                    vocab_size=40, min_frequency=1,
                                    keep_models=True)
        assert forest_to_json(report.models[0]) == forest_to_json(report2.models[0])
        assert report.fold_aucs[0] != report2.fold_aucs[0]

    def test_mean_and_std_consistent_with_folds(self):
        tokens, labels = _corpus(n=90, seed=5)
        report = sf.cross_validate(tokens, labels, _method(), folds=3, seed=0,
                                   vocab_size=40, min_frequency=1)
        assert report.mean_auc == pytest.approx(np.mean(report.fold_aucs))
        assert report.std_auc == pytest.approx(np.std(report.fold_aucs))

    def test_noise_corpus_scores_near_chance(self):
        tokens, labels = sf.noise_corpus(n=400, vocab_terms=50, seed=1)
        report = sf.cross_validate(tokens, labels, _method(num_trees=5), folds=4,
                                   seed=0, vocab_size=50, min_frequency=1)
        assert 0.35 <= report.mean_auc <= 0.65

    def test_transform_method_runs(self):
        tokens, labels = _corpus(n=80, seed=6)
        spec = sf.MethodSpec(
            "rf:maxhash+targetmean",
            sf.TrainConfig.random_forest(num_trees=3, max_depth=4),
            transform=("maxhash", "targetmean"), maxhash_k=4)
        report = sf.cross_validate(tokens, labels, spec, folds=3, seed=2,
                                   vocab_size=40, min_frequency=1)
        assert len(report.fold_aucs) == 3


class TestSweep:
    def test_grid_rows(self):
        tokens, labels = _corpus(n=60, seed=8)
        rows = sf.sampling_rate_sweep(tokens, labels, _method(), grid=(0.5, 1.0),
                                      folds=2, seed=3, vocab_size=30,
                                      min_frequency=1)
        assert [r[0] for r in rows] == [0.5, 1.0]
        assert all(0.0 <= r[1] <= 1.0 for r in rows)


class TestBenchmark:
    def test_reports_both_evaluators(self):
        tokens, labels = _corpus(n=60, seed=9)
        vocab = sf.build_vocabulary(tokens, 40, 1)
        ds = sf.dataset_from_token_sets(tokens, vocab, labels)
        forest = sf.train(ds, sf.TrainConfig.random_forest(
            num_trees=2, max_depth=4, seed=0))
        compiled = sf.compile_forest(forest)
        results = sf.benchmark_inference("demo", forest, compiled,
                                         ds.rows(), runs=2, warmup=1)
        assert [r.evaluator for r in results] == ["qs", "topdown"]
        assert all(r.us_per_example > 0 for r in results)
        assert all(r.examples == 60 and r.runs == 2 for r in results)


class TestReportFormatting:
    def _reports(self):
        stats = sf.StructureStats(2.0, 7.0, 4.0, 1.0)
        return [
            sf.EvaluationReport("rf", [0.9, 0.8], 0.85, 0.05, stats),
            sf.EvaluationReport("rf:bow", [0.7, 0.8], 0.75, 0.05, stats),
        ]

    def test_rank_orders_by_mean(self):
        assert rank_reports(self._reports()) == {"rf": 1, "rf:bow": 2}

    def test_csv_shapes(self):
        reports = self._reports()
        fold_lines = fold_csv(reports).strip().split("\n")
        assert fold_lines[0] == "method,fold,auc"
        assert len(fold_lines) == 5
        summary_lines = summary_csv(reports, baseline="rf:bow").strip().split("\n")
        assert summary_lines[0].endswith("headroom_reduction")
        assert len(summary_lines) == 3
        table = summary_table(reports)
        assert "rf" in table and "rank" in table

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            summary_csv(self._reports(), baseline="nope")
