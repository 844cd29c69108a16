import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.inference import (
    _BLOCK_ROWS,
    compile_forest,
    compiled_leaf_indices,
    predict_compiled,
    predict_dataset,
    predict_top_down,
)
from setforest.model import forest_from_json, forest_to_json, route

from helpers import (
    golden_two_tree_forest,
    make_vocab,
    random_mixed_dataset,
    random_rows_for,
    set_dataset,
)


class TestCompileStructure:
    def test_single_leaf_tree(self):
        forest = sf.DecisionForest(
            kind="rf", trees=[sf.Leaf(0.5)], initial_score=0.0,
            features=[sf.Feature("x", sf.FeatureType.NUMERICAL)], metadata={})
        compiled = compile_forest(forest)
        assert compiled.num_leaves.tolist() == [1]
        assert compiled.default_masks.tolist() == [1]
        assert compiled.numerical == {} and compiled.keyed == {}
        assert predict_compiled(compiled, (np.nan,)) == 0.5

    def test_keyed_entries_tile_and_sort(self):
        ds, _ = random_mixed_dataset(21, n=150)
        config = sf.TrainConfig.random_forest(num_trees=5, max_depth=5, seed=2,
                                              sampling_rate=0.8)
        compiled = compile_forest(sf.train_random_forest(ds, config))
        for group in compiled.keyed.values():
            spans = sorted(group.index.values())
            # ranges are disjoint, sorted, and tile the arrays exactly
            assert spans[0][0] == 0
            assert spans[-1][1] == len(group.tree_ids)
            for (_, end), (begin, _) in zip(spans, spans[1:]):
                assert end == begin
            keys = sorted(group.index)
            assert [group.index[k] for k in keys] == spans
            for begin, end in spans:
                ids = group.tree_ids[begin:end]
                assert (np.diff(ids) > 0).all()  # one combined mask per tree
            for begin, end in spans:
                for tree_id, mask in zip(group.tree_ids[begin:end],
                                         group.masks[begin:end]):
                    width = int(compiled.num_leaves[tree_id])
                    assert mask != np.uint64((1 << width) - 1)  # never a no-op
                    assert mask & ~np.uint64((1 << width) - 1) == 0

    def test_numerical_entries_sorted_by_threshold(self):
        ds, _ = random_mixed_dataset(22, n=150)
        config = sf.TrainConfig.random_forest(num_trees=5, max_depth=5, seed=3,
                                              sampling_rate=0.8)
        compiled = compile_forest(sf.train_random_forest(ds, config))
        assert compiled.numerical, "expected numerical splits in this forest"
        for group in compiled.numerical.values():
            assert (np.diff(group.thresholds) >= 0).all()

    def test_compile_idempotent_through_serialization(self):
        ds, _ = random_mixed_dataset(23, n=120)
        config = sf.TrainConfig.mart(num_trees=5, seed=1, sampling_rate=0.8)
        forest = sf.train_mart(ds, config)
        a = compile_forest(forest)
        b = compile_forest(forest_from_json(forest_to_json(forest)))
        np.testing.assert_array_equal(a.default_masks, b.default_masks)
        np.testing.assert_array_equal(a.leaf_values, b.leaf_values)
        assert a.numerical.keys() == b.numerical.keys()
        for f in a.numerical:
            np.testing.assert_array_equal(a.numerical[f].masks, b.numerical[f].masks)
        assert a.keyed.keys() == b.keyed.keys()
        for f in a.keyed:
            assert a.keyed[f].index == b.keyed[f].index
            np.testing.assert_array_equal(a.keyed[f].masks, b.keyed[f].masks)


class TestGoldenForest:
    def test_term_masks(self):
        forest, (a, b, c, d) = golden_two_tree_forest()
        compiled = compile_forest(forest)
        group = compiled.keyed[0]
        # displayed left-to-right as l0 l1 l2, stored with leaf i at bit i:
        # presence of c kills l0, l1 of tree 0 ("001" -> 0b100) and l0 of
        # tree 1 ("01" -> 0b10)
        begin, end = group.index[c]
        assert group.tree_ids[begin:end].tolist() == [0, 1]
        assert group.masks[begin:end].tolist() == [0b100, 0b10]
        # presence of a is a no-op for both trees: no stored entry
        assert a not in group.index
        # b only matters for tree 0, d only for tree 1
        begin, end = group.index[b]
        assert group.tree_ids[begin:end].tolist() == [0]
        assert group.masks[begin:end].tolist() == [0b110]
        begin, end = group.index[d]
        assert group.tree_ids[begin:end].tolist() == [1]
        assert group.masks[begin:end].tolist() == [0b10]

    def test_leaf_selection_with_c(self):
        forest, (a, b, c, d) = golden_two_tree_forest()
        compiled = compile_forest(forest)
        assert compiled_leaf_indices(compiled, ((c,),)).tolist() == [2, 1]

    def test_empty_set_falls_through_to_leftmost_leaf(self):
        forest, _ = golden_two_tree_forest()
        compiled = compile_forest(forest)
        assert compiled_leaf_indices(compiled, ((),)).tolist() == [0, 0]

    def test_matches_top_down_on_all_subsets(self):
        forest, _ = golden_two_tree_forest()
        compiled = compile_forest(forest)
        for bits in range(16):
            x = tuple(t for t in range(4) if bits >> t & 1)
            row = (x,)
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed,algorithm", [(i, alg) for i in range(6)
                                                for alg in ("rf", "mart")])
    def test_random_forests_match_reference(self, seed, algorithm):
        ds, _ = random_mixed_dataset(seed, n=150)
        if algorithm == "rf":
            config = sf.TrainConfig.random_forest(
                num_trees=4, max_depth=int(np.random.default_rng(seed).integers(1, 7)),
                seed=seed, sampling_rate=0.7)
            forest = sf.train_random_forest(ds, config)
        else:
            config = sf.TrainConfig.mart(num_trees=5, seed=seed, sampling_rate=0.7)
            forest = sf.train_mart(ds, config)
        compiled = compile_forest(forest)
        for row in random_rows_for(ds, seed + 1000, n=300):
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)

    def test_mask_conservation(self):
        ds, _ = random_mixed_dataset(40, n=120)
        config = sf.TrainConfig.random_forest(num_trees=5, max_depth=6, seed=0,
                                              sampling_rate=0.8)
        compiled = compile_forest(sf.train_random_forest(ds, config))
        for row in random_rows_for(ds, 41, n=200):
            leaves = compiled_leaf_indices(compiled, row)
            assert (leaves >= 0).all()
            assert (leaves < compiled.num_leaves).all()

    def test_term_order_within_example_is_irrelevant(self):
        forest, _ = golden_two_tree_forest()
        compiled = compile_forest(forest)
        group = compiled.keyed[0]
        for terms in [(1, 2, 3), (3, 2, 1), (2, 3, 1)]:
            leafidx = compiled.default_masks.copy()
            for t in terms:
                span = group.index.get(t)
                if span:
                    np.bitwise_and.at(leafidx, group.tree_ids[span[0]:span[1]],
                                      group.masks[span[0]:span[1]])
            assert leafidx.tolist() == [0b100, 0b10]


class TestWideTrees:
    def _wide_forest(self, n_leaves):
        # left-leaning chain over one numerical feature: n_leaves leaves
        node = sf.Leaf(float(n_leaves - 1))
        for i in range(n_leaves - 1, 0, -1):
            node = sf.Internal(sf.NumericalGE(0, float(i)), sf.Leaf(float(i - 1)),
                               node)
        return sf.DecisionForest(
            kind="rf", trees=[node, sf.Leaf(0.25)], initial_score=0.0,
            features=[sf.Feature("x", sf.FeatureType.NUMERICAL)], metadata={})

    def test_wide_tree_merges_with_narrow_tree(self):
        forest = self._wide_forest(64 + 8)
        compiled = compile_forest(forest)
        for v in (np.nan, -1.0, 3.5, 70.5, 1e9):
            row = (v,)
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)

    def test_leaf_indices_beyond_one_word_and_one_byte(self):
        forest = self._wide_forest(300)
        compiled = compile_forest(forest)
        leaves = compiled_leaf_indices(compiled, (1e9,))
        assert leaves.tolist() == [299, 0]
        assert leaves.dtype == np.int64
        assert compiled_leaf_indices(compile_forest(self._wide_forest(8)), (1e9,)).dtype \
            == np.int64
        assert compiled_leaf_indices(compiled, (np.nan,)).tolist() == [0, 0]

    def test_exactly_64_leaves_still_compiles(self):
        forest = self._wide_forest(64)
        compiled = compile_forest(forest)
        assert compiled.default_masks[0] == np.uint64((1 << 64) - 1)
        row = (31.5,)
        assert predict_compiled(compiled, row) == predict_top_down(forest, row)

    VOCAB = 301  # categorical values and set terms 0..300

    @staticmethod
    def _condition(j):
        # kinds cycle with j; category 0 and term 0 satisfy every keyed node
        if j % 3 == 0:
            return sf.NumericalGE(0, float(j))
        if j % 3 == 1:
            return sf.CategoryIn(1, frozenset({0, j}))
        return sf.SetIntersects(2, (0, j))

    def _chains(self, n_leaves):
        """Two chains of ``n_leaves`` leaves whose leaf values are their
        left-to-right positions: one nests along positive branches (each
        node clears one leaf), one along negative branches behind a
        three-leaf subtree (each node clears a span that starts mid-word and
        crosses words)."""
        positive = sf.Leaf(float(n_leaves - 1))
        for j in range(n_leaves - 1, 0, -1):
            positive = sf.Internal(self._condition(j), sf.Leaf(float(j - 1)), positive)
        negative = sf.Leaf(3.0)
        for j in range(4, n_leaves):
            negative = sf.Internal(self._condition(j), negative, sf.Leaf(float(j)))
        first = sf.Internal(self._condition(1), sf.Leaf(0.0), sf.Leaf(1.0))
        negative = sf.Internal(self._condition(3), sf.Internal(self._condition(2), first,
                                                              sf.Leaf(2.0)), negative)
        small = sf.Internal(sf.SetIntersects(2, (5,)), sf.Leaf(0.5), sf.Leaf(0.75))
        features = [
            sf.Feature("x", sf.FeatureType.NUMERICAL),
            sf.Feature("c", sf.FeatureType.CATEGORICAL,
                       make_vocab([f"c{i}" for i in range(self.VOCAB)])),
            sf.Feature("s", sf.FeatureType.CATEGORICAL_SET,
                       make_vocab([f"t{i}" for i in range(self.VOCAB)])),
        ]
        return sf.DecisionForest(kind="rf", trees=[positive, negative, small],
                                 initial_score=0.0, features=features, metadata={})

    def _rows(self, n_leaves, seed):
        rng = np.random.default_rng(seed)
        rows = [(1e9, 0, (0,)), (np.nan, sf.MISSING_CATEGORY, None),
                (np.nan, sf.MISSING_CATEGORY, ()), (1e9, 0, ()),
                (float(n_leaves) / 2, 0, (0,)), (-1.0, 3, (1, 5))]
        for _ in range(200):
            x = np.nan if rng.random() < 0.2 else float(rng.uniform(-1, n_leaves + 1))
            c = (sf.MISSING_CATEGORY if rng.random() < 0.2
                 else int(rng.choice([0, int(rng.integers(0, self.VOCAB))])))
            r = rng.random()
            if r < 0.15:
                s = None
            elif r < 0.3:
                s = ()
            else:
                size = int(rng.integers(1, 8))
                s = tuple(sorted(set(rng.integers(0, self.VOCAB, size=size).tolist())))
            rows.append((x, c, s))
        return rows

    @pytest.mark.parametrize("n_leaves", [64, 65, 128, 129, 300])
    def test_mixed_chains_match_top_down(self, n_leaves):
        forest = forest_from_json(forest_to_json(self._chains(n_leaves)))
        compiled = compile_forest(forest)
        assert compiled.words_per_tree == -(-n_leaves // 64)
        for row in self._rows(n_leaves, seed=n_leaves):
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)
            expected = [route(tree, row).value for tree in forest.trees]
            leaves = compiled_leaf_indices(compiled, row).tolist()
            assert leaves[:2] == expected[:2]  # chain leaf values are positions
            assert leaves[2] == (0 if expected[2] == 0.5 else 1)


class TestHashedCategories:
    """Max-hash categorical features have no vocabulary and carry values up
    to 2**63 - 1; compiling them must not fold value, feature and slot into
    one integer that wraps."""

    @staticmethod
    def _hashed_splits(tree):
        if isinstance(tree, sf.Leaf):
            return []
        cond = tree.condition
        own = [cond] if isinstance(cond, sf.CategoryIn) and max(cond.values) >= 2**32 else []
        return own + TestHashedCategories._hashed_splits(tree.negative) \
            + TestHashedCategories._hashed_splits(tree.positive)

    @pytest.mark.parametrize("algorithm", ["rf", "mart"])
    def test_maxhash_chain_matches_top_down(self, algorithm):
        ds, _ = random_mixed_dataset(7, n=200)
        hashed = sf.make_chain(("maxhash",), seed=5, maxhash_k=3).fit_transform(ds)
        config = (sf.TrainConfig.random_forest(num_trees=3, max_depth=8, seed=1)
                  if algorithm == "rf" else sf.TrainConfig.mart(num_trees=4, seed=1))
        forest = forest_from_json(forest_to_json(sf.train(hashed, config)))
        assert any(self._hashed_splits(tree) for tree in forest.trees)
        compiled = compile_forest(forest)
        for row in hashed.rows():
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)

    def test_values_near_two_to_the_63_over_two_trees(self):
        big = [2**62 + 1, 2**62 + 7, 2**63 - 1]
        features = [sf.Feature("a", sf.FeatureType.CATEGORICAL),
                    sf.Feature("b", sf.FeatureType.CATEGORICAL)]
        trees = [
            sf.Internal(sf.CategoryIn(1, frozenset(big[:2])), sf.Leaf(0.1), sf.Leaf(0.9)),
            sf.Internal(sf.CategoryIn(1, frozenset(big[1:])), sf.Leaf(0.2),
                        sf.Internal(sf.CategoryIn(0, frozenset({big[0], 3})),
                                    sf.Leaf(0.3), sf.Leaf(0.7))),
        ]
        forest = forest_from_json(forest_to_json(sf.DecisionForest(
            kind="rf", trees=trees, initial_score=0.0, features=features, metadata={})))
        compiled = compile_forest(forest)
        assert sorted(compiled.keyed[1].index) == big
        values = [sf.MISSING_CATEGORY, 0, 3] + big
        for row in ((a, b) for a in values for b in values):
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)


class TestZeroTreeForest:
    def test_degenerate_boosted_model(self):
        ds_labels = [1, 1, 1]
        ds = sf.dataset_from_token_sets(
            [{"a"}, {"b"}, {"a", "b"}],
            sf.build_vocabulary([{"a"}, {"b"}, {"a", "b"}], 10, 1),
            ds_labels)
        forest = sf.train_mart(ds, sf.TrainConfig.mart(num_trees=3, seed=0))
        compiled = compile_forest(forest)
        row = ds.row(0)
        assert predict_compiled(compiled, row) == predict_top_down(forest, row)
        assert predict_compiled(compiled, row) > 0.999999
        assert predict_dataset(compiled, ds).tolist() == [predict_top_down(forest, row)] * 3


VOCAB = 8  # categorical values and set terms 0..7; splits use some of them
THRESHOLDS = (-1.0, 0.0, 0.5, 2.0)
HASHED = (0, 5, 2**62 + 1, 2**63 - 2, 2**63 - 1)  # max-hash values have no vocabulary


def _random_forest(rng, kind, ftypes, leaf_counts):
    def condition():
        f = int(rng.integers(0, len(ftypes)))
        if ftypes[f] == "num":
            return sf.NumericalGE(f, float(rng.choice(THRESHOLDS)))
        if ftypes[f] == "set":
            return sf.SetIntersects(f, tuple(sorted(set(
                rng.integers(0, VOCAB, size=int(rng.integers(1, 4))).tolist()))))
        pool = HASHED if ftypes[f] == "hashed" else range(VOCAB)
        return sf.CategoryIn(f, frozenset(int(v) for v in rng.choice(
            pool, size=int(rng.integers(1, 4)))))

    def tree(n_leaves):
        if n_leaves == 1:
            return sf.Leaf(float(rng.uniform(0, 1) if kind == "rf" else rng.normal()))
        k = int(rng.integers(1, n_leaves))
        return sf.Internal(condition(), tree(k), tree(n_leaves - k))

    vocab = make_vocab([f"v{i}" for i in range(VOCAB)])
    features = [sf.Feature(f"f{i}", sf.FeatureType.NUMERICAL) if t == "num" else
                sf.Feature(f"f{i}", sf.FeatureType.CATEGORICAL, None) if t == "hashed" else
                sf.Feature(f"f{i}", sf.FeatureType.CATEGORICAL_SET if t == "set"
                           else sf.FeatureType.CATEGORICAL, vocab)
                for i, t in enumerate(ftypes)]
    forest = sf.DecisionForest(
        kind=kind, trees=[tree(n) for n in leaf_counts],
        initial_score=0.0 if kind == "rf" else float(rng.normal()), features=features,
        metadata={})
    return forest_from_json(forest_to_json(forest))


def _random_column(rng, ftype, n):
    if ftype == "num":
        pool = np.array(THRESHOLDS + (np.nan, -np.inf, np.inf, 0.25, 7.0))
        return pool[rng.integers(0, len(pool), size=n)]
    if ftype == "set":
        return [None if u < 0.15 else () if u < 0.3 else
                tuple(sorted(set(rng.integers(0, VOCAB, size=int(rng.integers(1, 5))).tolist())))
                for u in rng.random(n)]
    pool = (HASHED + (3, 2**63 - 3)) if ftype == "hashed" else tuple(range(VOCAB))
    return np.array([sf.MISSING_CATEGORY if rng.random() < 0.2 else pool[i]
                     for i in rng.integers(0, len(pool), size=n)], dtype=np.int64)


class TestPredictDataset:
    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.lists(st.sampled_from(["num", "cat", "hashed", "set"]),
                           min_size=1, max_size=4),
           num_trees=st.integers(0, 4),
           widest=st.sampled_from([1, 3, 64, 65, 140]),
           n=st.sampled_from([0, 1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                              2 * _BLOCK_ROWS + 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_and_top_down(self, kind, ftypes, num_trees, widest, n, seed):
        rng = np.random.default_rng(seed)
        num_trees = max(num_trees, int(kind == "rf"))  # only a boosted forest has no trees
        leaf_counts = [widest] + rng.integers(1, widest + 1, size=num_trees).tolist()
        forest = _random_forest(rng, kind, ftypes, leaf_counts[:num_trees])
        ds = sf.Dataset.create(forest.features, [_random_column(rng, t, n) for t in ftypes],
                               np.zeros(n, dtype=np.int64))
        compiled = compile_forest(forest)
        rows = ds.rows()
        per_row = np.array([predict_compiled(compiled, row) for row in rows], dtype=np.float64)
        top_down = np.array([predict_top_down(forest, row) for row in rows], dtype=np.float64)
        batch = predict_dataset(compiled, ds)
        assert batch.dtype == np.float64 and batch.shape == (n,)
        assert batch.tobytes() == per_row.tobytes() == top_down.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.lists(st.sampled_from(["num", "cat", "hashed", "set"]),
                           min_size=1, max_size=4),
           widest=st.sampled_from([3, 65]),
           selected=st.sampled_from([0, 1, 7, _BLOCK_ROWS + 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_row_selection(self, kind, ftypes, widest, selected, seed):
        # unsorted, repeated or empty rows score as the same rows of the
        # whole dataset, across a block boundary too
        rng = np.random.default_rng(seed)
        forest = _random_forest(rng, kind, ftypes, [widest, 2])
        n = 30
        ds = sf.Dataset.create(forest.features, [_random_column(rng, t, n) for t in ftypes],
                               np.zeros(n, dtype=np.int64))
        compiled = compile_forest(forest)
        rows = rng.integers(0, n, size=selected)
        got = predict_dataset(compiled, ds, rows)
        assert got.dtype == np.float64 and got.shape == (selected,)
        assert got.tobytes() == predict_dataset(compiled, ds)[rows].tobytes()
        assert got.tolist() == [predict_top_down(forest, ds.row(i)) for i in rows]

    def test_many_numerical_entries_stay_within_the_block(self):
        # 200 complete depth-6 trees on one numerical feature: 12600 entries
        # over 200 slots, about 20 MB as one prefix table over all entries
        rng = np.random.default_rng(3)

        def tree(depth):
            if depth == 6:
                return sf.Leaf(float(rng.normal()))
            return sf.Internal(sf.NumericalGE(0, float(rng.normal())), tree(depth + 1),
                               tree(depth + 1))

        forest = sf.DecisionForest("mart", [tree(0) for _ in range(200)], 0.1,
                                   [sf.Feature("x", sf.FeatureType.NUMERICAL)], {})
        compiled = compile_forest(forest)
        values = np.append(rng.normal(size=9), np.nan)
        ds = sf.Dataset.create(forest.features, [values], np.zeros(10, dtype=np.int64))
        tracemalloc.start()
        try:
            scores = predict_dataset(compiled, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert scores.tolist() == [predict_top_down(forest, row) for row in ds.rows()]

    @staticmethod
    def _set_mart():
        ds = set_dataset([(0, 1), (1,), (2, 3), (0,), (3,), (1, 2)] * 4, [1, 0, 1, 1, 0, 0] * 4)
        forest = sf.train_mart(ds, sf.TrainConfig.mart(num_trees=5, seed=0))
        return compile_forest(forest)

    def test_feature_count_mismatch_rejected(self):
        compiled = self._set_mart()
        two = sf.Dataset.create(
            [sf.Feature("x", sf.FeatureType.NUMERICAL), compiled.features[0]],
            [np.zeros(2), [(0,), None]], [0, 1])
        with pytest.raises(ValueError, match="dataset has 2 features, model has 1"):
            predict_dataset(compiled, two)

    def test_feature_type_mismatch_rejected(self):
        compiled = self._set_mart()
        numbers = sf.Dataset.create([sf.Feature("x", sf.FeatureType.NUMERICAL)],
                                    [np.array([0.0, 1.0])], [0, 1])
        with pytest.raises(ValueError, match="numerical in the dataset and set in the model"):
            predict_dataset(compiled, numbers)
