import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.inference import (
    _BLOCK_ROWS,
    _LAYER_WORDS,
    _apply_masks,
    _leaf_positions,
    compile_forest,
    compiled_leaf_indices,
    predict_compiled,
    predict_dataset,
    predict_top_down,
)
from setforest.model import CATEGORY_IN, LEAF, forest_from_json, forest_to_json, leaf_index

from helpers import (
    forest_to_dict,
    golden_two_tree_forest,
    key_row,
    make_vocab,
    random_mixed_dataset,
    random_rows_for,
    reference_leaf_words,
    set_dataset,
)


def _assert_tables_match_the_trees(forest, compiled):
    """Every split feature's table, from the trees alone: its keys are the
    distinct thresholds, categories or terms the feature's nodes name,
    ascending; row 0 is all ones; and key row ``k``, on each tree's leaves,
    is the leaf words of a row that holds only ``keys[k - 1]``."""
    names = {}
    for tree in forest.trees:
        for i in np.flatnonzero(tree.kind != LEAF).tolist():
            condition = tree.condition(i)
            names.setdefault(condition.feature, set()).update(
                getattr(condition, "values", None) or getattr(condition, "mask", None)
                or {condition.threshold})
    assert sorted(compiled.keyed) == sorted(names)
    for f, table in compiled.keyed.items():
        keys = sorted(names[f])
        assert table.keys.tolist() == keys
        words = table.words()
        assert words.shape == (len(keys) + 1, len(compiled.default_masks))
        assert (words[0] == np.uint64(2**64 - 1)).all()
        for key, got in zip(keys, words[1:]):
            expected = reference_leaf_words(forest, key_row(forest.features, f, key),
                                            compiled.words_per_tree)
            assert (got & compiled.default_masks).tolist() == expected.tolist()
        # the batch path reads some rows of a numerical table; the row path
        # packs a term's or category's rows, and every stride-th row of a
        # numerical table from row 0
        if forest.features[f].ftype == sf.FeatureType.NUMERICAL:
            lookup_keys, prefix, stride = table.lookup
            assert table.cumulative and lookup_keys == keys
            assert len(prefix) == len(keys) // stride + 1
            assert [_words(compiled, row) for row in prefix] == words[::stride].tolist()
            for reads in (np.arange(0, len(keys) + 1, 2), np.arange(1, len(keys) + 1, 3)):
                if len(reads):
                    assert table.words(reads).tolist() == words[reads].tolist()
        else:
            assert [_words(compiled, table.lookup[key]) for key in keys] == words[1:].tolist()


class TestCompileStructure:
    def test_single_leaf_tree(self):
        forest = sf.DecisionForest(
            kind="rf", trees=[sf.Leaf(0.5)], initial_score=0.0,
            features=[sf.Feature("x", sf.FeatureType.NUMERICAL)], metadata={})
        compiled = compile_forest(forest)
        assert compiled.num_leaves.tolist() == [1]
        assert compiled.default_masks.tolist() == [1]
        assert compiled.keyed == {}
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
                # a term's or category's entries: one combined mask per slot
                assert group.cumulative or (np.diff(ids) > 0).all()
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
        forest = sf.train_random_forest(ds, config)
        compiled = compile_forest(forest)
        assert any(forest.features[f].ftype == sf.FeatureType.NUMERICAL for f in compiled.keyed), \
            "expected numerical splits in this forest"
        _assert_tables_match_the_trees(forest, compiled)

    def test_compile_idempotent_through_serialization(self):
        ds, _ = random_mixed_dataset(23, n=120)
        config = sf.TrainConfig.mart(num_trees=5, seed=1, sampling_rate=0.8)
        forest = sf.train_mart(ds, config)
        a = compile_forest(forest)
        b = compile_forest(forest_from_json(forest_to_json(forest)))
        np.testing.assert_array_equal(a.default_masks, b.default_masks)
        np.testing.assert_array_equal(a.leaf_values, b.leaf_values)
        assert (a.default_packed, a.first_bits) == (b.default_packed, b.first_bits)
        assert a.keyed.keys() == b.keyed.keys()
        for f in a.keyed:
            for field in ("keys", "ends", "tree_ids", "masks"):
                assert getattr(a.keyed[f], field).tobytes() == getattr(b.keyed[f], field).tobytes()
            assert a.keyed[f].lookup == b.keyed[f].lookup


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

    @pytest.mark.parametrize("row", [((1,), 5.0), ()])
    def test_row_length_checked_by_both_per_row_entries(self, row):
        forest, _ = golden_two_tree_forest()
        compiled = compile_forest(forest)
        for score in (compiled_leaf_indices, predict_compiled):
            with pytest.raises(ValueError, match=f"row has {len(row)} values, schema has 1"):
                score(compiled, row)


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
            expected = [tree.value[leaf_index(tree, row)] for tree in forest.trees]
            leaves = compiled_leaf_indices(compiled, row).tolist()
            assert leaves[:2] == expected[:2]  # chain leaf values are positions
            assert leaves[2] == (0 if expected[2] == 0.5 else 1)


class TestNumericalTable:
    """A numerical feature's table row ``k`` ANDs the masks of every node
    whose threshold is at most ``keys[k - 1]``; a value reads row
    ``bisect_right(keys, value)`` and NaN reads nothing."""

    @staticmethod
    def _forest():
        x = lambda t: sf.NumericalGE(0, t)  # noqa: E731
        # tree 0 splits on 1.0 twice on one path and once more beside it;
        # tree 1 on 1.0 again and on 2.0; tree 2 on a term and a category
        tree0 = sf.Internal(x(1.0), sf.Internal(x(-3.0), sf.Leaf(0.1), sf.Leaf(0.2)),
                            sf.Internal(x(2.0), sf.Internal(x(1.0), sf.Leaf(0.3), sf.Leaf(0.4)),
                                        sf.Internal(x(1.0), sf.Leaf(0.5), sf.Leaf(0.6))))
        tree1 = sf.Internal(x(2.0), sf.Internal(x(1.0), sf.Leaf(0.7), sf.Leaf(0.8)), sf.Leaf(0.9))
        tree2 = sf.Internal(sf.SetIntersects(2, (1, 3)), sf.Leaf(0.15),
                            sf.Internal(sf.CategoryIn(1, frozenset({2})), sf.Leaf(0.25),
                                        sf.Leaf(0.35)))
        features = [sf.Feature("x", sf.FeatureType.NUMERICAL),
                    sf.Feature("c", sf.FeatureType.CATEGORICAL,
                               make_vocab(["c0", "c1", "c2", "c3"])),
                    sf.Feature("s", sf.FeatureType.CATEGORICAL_SET,
                               make_vocab(["t0", "t1", "t2", "t3", "t4"]))]
        return sf.DecisionForest("mart", [tree0, tree1, tree2], 0.5, features, {})

    def test_equal_thresholds_share_one_row(self):
        forest = self._forest()
        compiled = compile_forest(forest)
        table = compiled.keyed[0]
        assert table.keys.tolist() == [-3.0, 1.0, 2.0]
        # one entry per node and word, the nodes of a threshold in tree order
        assert table.ends.tolist() == [0, 1, 5, 7]
        assert table.tree_ids.tolist() == [0, 0, 0, 0, 1, 0, 1]
        _assert_tables_match_the_trees(forest, compiled)

    def test_values_at_below_between_and_above_the_thresholds(self):
        # a value equal to a threshold holds; below the lowest reads row 0;
        # NaN applies nothing; category 3 and term 4 are no key of any node
        forest = self._forest()
        compiled = compile_forest(forest)
        values = [np.nan, -np.inf, -4.0, -3.0, 0.0, 1.0, 1.5, 2.0, 2.5, np.inf]
        rows = [(v, c, s) for v in values for c, s in ((sf.MISSING_CATEGORY, None), (3, (4,)),
                                                       (2, (0, 4)), (0, (3,)))]
        for row in rows:
            expected = reference_leaf_words(forest, row, compiled.words_per_tree)
            assert _words(compiled, _apply_masks(compiled, row)) == expected.tolist()
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)
        ds = sf.Dataset.create(forest.features, [list(column) for column in zip(*rows)],
                               np.zeros(len(rows), dtype=np.int64))
        _assert_batch_agrees(forest, ds)


class TestHashedCategories:
    """Max-hash categorical features have no vocabulary and carry values up
    to 2**63 - 1; compiling them must not fold value, feature and slot into
    one integer that wraps."""

    @staticmethod
    def _hashed_splits(tree):
        conditions = map(tree.condition, np.flatnonzero(tree.kind == CATEGORY_IN))
        return [cond for cond in conditions if max(cond.values) >= 2**32]

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


class TestSmallForests:
    @pytest.mark.parametrize("kind,trees,initial_score", [
        ("mart", [], 0.7),
        ("mart", [sf.Internal(sf.NumericalGE(0, 1.0), sf.Leaf(-0.5), sf.Leaf(2.0))], 0.1),
        ("rf", [sf.Internal(sf.NumericalGE(0, 1.0), sf.Leaf(0.25), sf.Leaf(0.75))], 0.0),
        ("rf", [sf.Leaf(0.4)], 0.0),
    ])
    def test_zero_and_one_tree(self, kind, trees, initial_score):
        forest = sf.DecisionForest(kind, trees, initial_score,
                                   [sf.Feature("x", sf.FeatureType.NUMERICAL)], {})
        compiled = compile_forest(forest)
        for row in [(np.nan,), (0.0,), (1.0,), (5.0,)]:
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)
            assert compiled_leaf_indices(compiled, row).shape == (len(trees),)


class TestCategoryLookup:
    """A category is looked up as given, by Python equality, as
    ``CategoryIn`` tests it: 2.0 and True (equal to 1) are categories of the
    split, 2.5 is none (truncating it to 2 once routed it positive)."""

    @pytest.mark.parametrize("value,holds", [
        (2, True), (2.0, True), (np.int64(2), True), (np.float64(2.0), True), (True, True),
        (1, True), (2.5, False), (np.float64(2.7), False), (1.5, False), (0, False),
        (sf.MISSING_CATEGORY, False), (float(sf.MISSING_CATEGORY), False),
    ])
    def test_row_evaluators_agree(self, value, holds):
        forest = sf.DecisionForest(
            "rf", [sf.Internal(sf.CategoryIn(0, frozenset({1, 2})), sf.Leaf(0.0), sf.Leaf(1.0))],
            0.0, [sf.Feature("c", sf.FeatureType.CATEGORICAL, make_vocab(["a", "b", "c"]))], {})
        compiled = compile_forest(forest)
        assert predict_top_down(forest, (value,)) == float(holds)
        assert predict_compiled(compiled, (value,)) == float(holds)


VOCAB = 8  # categorical values and set terms 0..7; splits use some of them
THRESHOLDS = (-1.0, 0.0, 0.5, 2.0)
HASHED = (0, 5, 2**62 + 1, 2**63 - 2, 2**63 - 1)  # max-hash values have no vocabulary


def _random_forest(rng, kind, ftypes, leaf_counts, thresholds=THRESHOLDS):
    def condition():
        f = int(rng.integers(0, len(ftypes)))
        if ftypes[f] == "num":
            return sf.NumericalGE(f, float(rng.choice(thresholds)))
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


def _words(compiled, packed: int) -> list[int]:
    """A packed int's (slots,) leaf words."""
    size = 8 * len(compiled.default_masks)
    return np.frombuffer(packed.to_bytes(size, "little"), dtype="<u8").tolist()


def _other_int_types(value):
    """The same value with numpy-integer set tokens and Python-int categories."""
    if isinstance(value, tuple):
        return tuple(np.int64(t) for t in value)
    return int(value) if isinstance(value, np.integer) else value


class TestPackedMasks:
    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.lists(st.sampled_from(["num", "cat", "hashed", "set"]),
                           min_size=1, max_size=4),
           num_trees=st.integers(0, 4),
           widest=st.sampled_from([1, 3, 64, 65, 140]),
           seed=st.integers(0, 2**32 - 1))
    def test_row_words_match_sparse_reference(self, kind, ftypes, num_trees, widest, seed):
        rng = np.random.default_rng(seed)
        num_trees = max(num_trees, int(kind == "rf"))  # only a boosted forest has no trees
        leaf_counts = [widest] + rng.integers(1, widest + 1, size=num_trees).tolist()
        forest = _random_forest(rng, kind, ftypes, leaf_counts[:num_trees])
        compiled = compile_forest(forest)
        assert _words(compiled, compiled.default_packed) == compiled.default_masks.tolist()
        _assert_tables_match_the_trees(forest, compiled)
        columns = [_random_column(rng, t, 40) for t in ftypes]
        for i in range(40):
            row = tuple(column[i] for column in columns)
            expected = reference_leaf_words(forest, row, compiled.words_per_tree)
            assert _words(compiled, _apply_masks(compiled, row)) == expected.tolist()
            other = tuple(map(_other_int_types, row))
            assert _words(compiled, _apply_masks(compiled, other)) == expected.tolist()
            assert compiled_leaf_indices(compiled, row).tolist() == \
                _leaf_positions(compiled, expected[None]).ravel().tolist()

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.lists(st.sampled_from(["num", "cat", "hashed", "set"]),
                           min_size=1, max_size=3),
           words=st.lists(st.integers(1, 5), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_leaf_positions_are_top_down_ranks(self, kind, ftypes, words, seed):
        # one-word trees mixed with trees of 2 to 5 words: a tree of w words
        # holds 64 * (w - 1) + 1 to 64 * w leaves
        rng = np.random.default_rng(seed)
        leaf_counts = [int(rng.integers(64 * (w - 1) + 1, 64 * w + 1)) for w in words]
        forest = _random_forest(rng, kind, ftypes, leaf_counts)
        compiled = compile_forest(forest)
        assert compiled.words_per_tree == max(words)
        columns = [_random_column(rng, t, 30) for t in ftypes]
        for i in range(30):
            row = tuple(column[i] for column in columns)
            leaves = compiled_leaf_indices(compiled, row)
            assert leaves.dtype == np.int64
            assert leaves.tolist() == [int(np.count_nonzero(tree.kind[:leaf_index(tree, row)]
                                                            == LEAF)) for tree in forest.trees]
            assert predict_compiled(compiled, row) == predict_top_down(forest, row)


class TestPackedNumericalRows:
    """A numerical table packs every ``stride``-th of its rows, the stride the
    least that fits them in ``_GATHER_BYTES``, and the row path ANDs the
    entries of the rows past a packed one as ints: at every stride, from 1
    to one packed row only, ``predict_compiled``, ``predict_top_down`` and
    ``predict_dataset`` agree bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.sampled_from([("num",), ("num", "num"), ("num", "cat", "set"),
                                   ("set", "num")]),
           widest=st.sampled_from([2, 20, 64, 70]),
           stride=st.sampled_from(["one", "two", "between", "all"]),
           seed=st.integers(0, 2**32 - 1))
    def test_every_stride_matches_top_down(self, kind, ftypes, widest, stride, seed):
        rng = np.random.default_rng(seed)
        # a few thresholds shared by many nodes and trees, -0.0 and 0.0 among them
        pool = (-0.0, 0.0, *np.round(rng.normal(size=int(rng.integers(1, 12))), 1).tolist())
        leaf_counts = [widest] + rng.integers(1, widest + 1, size=int(rng.integers(0, 5))).tolist()
        forest = _random_forest(rng, kind, ftypes, leaf_counts, pool)
        default = compile_forest(forest)
        # k thresholds in the forest's largest numerical table make k + 1
        # rows; the budget packs all, half, fewer or one of them
        k = max((len(table.keys) for f, table in default.keyed.items() if ftypes[f] == "num"),
                default=0)
        budget_rows = {"one": k + 1, "two": -(-(k + 1) // 2), "all": 1,
                       "between": int(rng.integers(2, max(3, -(-(k + 1) // 2))))}[stride]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("setforest.inference._GATHER_BYTES",
                          8 * len(default.default_masks) * budget_rows)
            compiled = compile_forest(forest)
            _assert_tables_match_the_trees(forest, compiled)
            if k:  # the largest table's stride
                got = {len(t.keys): t.lookup[2] for f, t in compiled.keyed.items()
                       if ftypes[f] == "num"}[k]
                assert {"one": got == 1, "two": got == 2, "all": got == k + 1,
                        "between": k < 4 or 2 < got < k + 1}[stride]
            # each threshold (the signed zeros among them) and one ulp either
            # side of it, NaN and the infinities, then values at random
            near = [v for t in pool for v in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf))]
            values = np.array(near + [np.nan, np.inf, -np.inf])
            n = len(values) + 20
            columns = [np.concatenate((rng.permutation(values), rng.choice(values, size=20)))
                       if t == "num" else _random_column(rng, t, n) for t in ftypes]
            ds = sf.Dataset.create(forest.features, columns, np.zeros(n, dtype=np.int64))
            rows = ds.rows()
            per_row = np.array([predict_compiled(compiled, row) for row in rows])
            top_down = np.array([predict_top_down(forest, row) for row in rows])
            assert per_row.tobytes() == top_down.tobytes()
            assert predict_dataset(compiled, ds).tobytes() == per_row.tobytes()


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

    @pytest.mark.parametrize("outside", [[-1], [0, -1], "n", [0, "n"]])
    def test_rows_outside_the_dataset_rejected(self, outside):
        # set, numerical and categorical columns alike: a row -1 must not read
        # the CSR offsets as an empty set and wrap the other columns to the
        # last row, and a row n is out of range too
        ds, _ = random_mixed_dataset(5, n=60)
        forest = sf.train_mart(ds, sf.TrainConfig.mart(num_trees=3, seed=0))
        compiled = compile_forest(forest)
        rows = [ds.n_examples if r == "n" else r for r in outside]
        with pytest.raises(ValueError, match=r"rows must be in \[0, 60\)"):
            predict_dataset(compiled, ds, rows)
        assert predict_dataset(compiled, ds, [0, ds.n_examples - 1]).tolist() == \
            [predict_top_down(forest, ds.row(i)) for i in (0, ds.n_examples - 1)]

    def test_many_numerical_entries_stay_within_the_block(self):
        # 200 complete depth-6 trees on one numerical feature: 12600 distinct
        # thresholds over 200 slots; one row of all slots per threshold would
        # take about 20 MB, and a table over the distinct thresholds of all
        # 2000 rows 3.2 MB, where one block's (256, 200) words take 0.4 MB
        rng = np.random.default_rng(3)

        def tree(depth):
            if depth == 6:
                return sf.Leaf(float(rng.normal()))
            return sf.Internal(sf.NumericalGE(0, float(rng.normal())), tree(depth + 1),
                               tree(depth + 1))

        forest = sf.DecisionForest("mart", [tree(0) for _ in range(200)], 0.1,
                                   [sf.Feature("x", sf.FeatureType.NUMERICAL)], {})
        values = np.append(rng.normal(size=1999), np.nan)
        ds = sf.Dataset.create(forest.features, [values], np.zeros(2000, dtype=np.int64))
        peaks = []
        tracemalloc.start()
        try:
            compiled = compile_forest(forest)
            kept, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            scores = predict_dataset(compiled, ds)
            peaks.append(tracemalloc.get_traced_memory()[1] - kept)
        finally:
            tracemalloc.stop()
        assert len(compiled.keyed[0].keys) == 12600
        assert peaks[0] < 2**22 and peaks[1] < 2**21
        assert scores.tolist() == [predict_compiled(compiled, row) for row in ds.rows()]
        assert scores[::40].tolist() == [predict_top_down(forest, row) for row in ds.rows()[::40]]

    def test_wide_set_forest_gathers_within_a_budget(self):
        # 100 chains of 70 leaves (two words per tree) over 100 terms, and 20
        # rows of 90 tokens: one gather of a key row per token of the block
        # would be 1800 x 200 words, about 2.9 MB
        rng = np.random.default_rng(5)
        sets = [tuple(sorted(rng.choice(100, size=90, replace=False).tolist()))
                for _ in range(20)]
        ds = set_dataset(sets, np.zeros(20, dtype=np.int64), vocab_size=100)

        def chain():
            node = sf.Leaf(float(rng.normal()))
            for term in rng.integers(0, 100, size=69).tolist():
                node = sf.Internal(sf.SetIntersects(0, (term,)), node,
                                   sf.Leaf(float(rng.normal())))
            return node

        forest = sf.DecisionForest("mart", [chain() for _ in range(100)], 0.1,
                                   ds.features, {})
        compiled = compile_forest(forest)
        assert compiled.words_per_tree == 2
        table_bytes = (len(compiled.keyed[0].index) + 1) * len(compiled.default_masks) * 8
        tracemalloc.start()
        try:
            scores = predict_dataset(compiled, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table_bytes < 2**20
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


def _assert_batch_agrees(forest, ds):
    """``predict_dataset`` equals per-row ``predict_compiled`` and
    ``predict_top_down`` bit for bit, over every row and a shuffled selection."""
    compiled = compile_forest(forest)
    rows = ds.rows()
    per_row = np.array([predict_compiled(compiled, row) for row in rows], dtype=np.float64)
    top_down = np.array([predict_top_down(forest, row) for row in rows], dtype=np.float64)
    batch = predict_dataset(compiled, ds)
    assert batch.tobytes() == per_row.tobytes() == top_down.tobytes()
    shuffled = np.random.default_rng(0).permutation(ds.n_examples)
    assert predict_dataset(compiled, ds, shuffled).tobytes() == per_row[shuffled].tobytes()
    return batch


class TestBatchKeyLookup:
    """``predict_dataset`` finds a value's key row by indexing one array over
    the model's keys where the feature has a vocabulary, and with
    ``searchsorted`` where it has none; a value that is no key reads the row
    of ones."""

    @staticmethod
    def _set_and_category_forest(kind, vocab_size, rng):
        vocab = make_vocab([f"v{i}" for i in range(vocab_size)])
        features = [sf.Feature("s", sf.FeatureType.CATEGORICAL_SET, vocab),
                    sf.Feature("c", sf.FeatureType.CATEGORICAL, vocab)]

        def tree(n_leaves):
            if n_leaves == 1:
                return sf.Leaf(float(rng.normal()))
            ids = tuple(sorted(set(rng.integers(0, vocab_size, size=2).tolist())))
            cond = sf.SetIntersects(0, ids) if rng.random() < 0.5 else \
                sf.CategoryIn(1, frozenset(ids))
            k = int(rng.integers(1, n_leaves))
            return sf.Internal(cond, tree(k), tree(n_leaves - k))

        return sf.DecisionForest(kind, [tree(9), tree(70), tree(3)],
                                 0.0 if kind == "rf" else 0.4, features, {})

    @pytest.mark.parametrize("kind", ["rf", "mart"])
    def test_dataset_vocabulary_larger_than_the_models(self, kind):
        # the model knows terms 0..7, the dataset's vocabulary 0..11: ids past
        # the model's largest key read the row of ones, as does a missing category
        rng = np.random.default_rng(11)
        forest = forest_from_json(forest_to_json(self._set_and_category_forest(kind, 8, rng)))
        wide = make_vocab([f"v{i}" for i in range(12)])
        features = [sf.Feature(f.name, f.ftype, wide) for f in forest.features]
        n = _BLOCK_ROWS + 40
        sets = [None if u < 0.1 else
                tuple(sorted(set(rng.integers(0, 12, size=int(rng.integers(0, 6))).tolist())))
                for u in rng.random(n)]
        categories = rng.integers(-1, 12, size=n)
        ds = sf.Dataset.create(features, [sets, categories], np.zeros(n, dtype=np.int64))
        assert max(max(s) for s in sets if s) == 11 and categories.max() == 11
        _assert_batch_agrees(forest, ds)

    def test_dataset_vocabulary_in_another_order_is_rejected(self):
        # the same rows encoded with the terms reversed: ids name other terms
        tokens, labels = sf.planted_keyword_corpus(n=400, vocab_terms=40, signal_terms=4,
                                                   seed=6)
        vocab = sf.build_vocabulary(tokens, min_frequency=1)
        train = sf.dataset_from_token_sets(tokens, vocab, labels)
        compiled = compile_forest(sf.train(train, sf.TrainConfig.mart(num_trees=20, seed=1)))
        reversed_vocab = sf.Vocabulary(vocab.terms[::-1], vocab.frequencies[::-1])
        with pytest.raises(ValueError, match="does not begin with the model's 40 terms"):
            predict_dataset(compiled, sf.dataset_from_token_sets(tokens, reversed_vocab, labels))
        without = [sf.Feature("text", sf.FeatureType.CATEGORICAL_SET, None)]
        with pytest.raises(ValueError, match="vocabulary"):
            predict_dataset(compiled, sf.Dataset.create(without, train.columns, labels))
        # an equal vocabulary in another object, or one that extends it, scores alike
        wider = sf.Vocabulary(vocab.terms + ("new",), vocab.frequencies + (1,))
        for other in (sf.Vocabulary(vocab.terms, vocab.frequencies), wider):
            ds = sf.dataset_from_token_sets(tokens, other, labels)
            assert np.array_equal(predict_dataset(compiled, ds), predict_dataset(compiled, train))

    def test_set_feature_without_a_vocabulary(self):
        # hashed-style ids up to 2**62: one array indexed by id would not fit
        big = [3, 2**40 + 1, 2**61, 2**62 - 5, 2**62]
        feature = sf.Feature("h", sf.FeatureType.CATEGORICAL_SET, None)
        trees = [
            sf.Internal(sf.SetIntersects(0, (big[1], big[3])), sf.Leaf(0.1),
                        sf.Internal(sf.SetIntersects(0, (big[4],)), sf.Leaf(0.6), sf.Leaf(0.9))),
            sf.Internal(sf.SetIntersects(0, (big[0], big[2])), sf.Leaf(0.2), sf.Leaf(0.7)),
        ]
        forest = forest_from_json(forest_to_json(sf.DecisionForest(
            "rf", trees, 0.0, [feature], {})))
        values = big + [0, 4, 2**62 - 1, 2**62 + 1, 2**63 - 1]
        rng = np.random.default_rng(2)
        sets = [None, ()] + [tuple(sorted(set(rng.choice(values, size=int(k)).tolist())))
                             for k in rng.integers(1, 5, size=60)]
        ds = sf.Dataset.create([feature], [sets], np.zeros(len(sets), dtype=np.int64))
        _assert_batch_agrees(forest, ds)

    @pytest.mark.parametrize("gather_tokens", [None, 3])
    def test_rows_of_unknown_tokens_missing_and_empty(self, monkeypatch, gather_tokens):
        # the model splits on terms 0..3 only; across a block boundary, rows
        # hold only terms 4..7, or are missing, or empty, between known rows.
        # With a 3-token gather budget, rows are cut between gathers too
        rng = np.random.default_rng(4)
        ds_vocab = make_vocab([f"v{i}" for i in range(8)])
        feature = sf.Feature("s", sf.FeatureType.CATEGORICAL_SET, ds_vocab)

        def tree(n_leaves):
            if n_leaves == 1:
                return sf.Leaf(float(rng.normal()))
            k = int(rng.integers(1, n_leaves))
            ids = tuple(sorted(set(rng.integers(0, 4, size=2).tolist())))
            return sf.Internal(sf.SetIntersects(0, ids), tree(k), tree(n_leaves - k))

        forest = sf.DecisionForest("mart", [tree(5), tree(66)], -0.3, [feature], {})
        pattern = [None, (), (4, 5, 6, 7), (5,), (0, 4), (1, 2, 3, 6), (), None, (7,)]
        n = 2 * _BLOCK_ROWS + 5
        sets = [pattern[int(i)] for i in rng.integers(0, len(pattern), size=n)]
        sets[_BLOCK_ROWS - 2:_BLOCK_ROWS + 3] = [(4, 6), None, (), (5, 7), (0,)]
        ds = sf.Dataset.create([feature], [sets], np.zeros(n, dtype=np.int64))
        if gather_tokens is not None:
            slots = len(compile_forest(forest).default_masks)
            monkeypatch.setattr("setforest.inference._GATHER_BYTES", 8 * slots * gather_tokens)
        _assert_batch_agrees(forest, ds)

    def test_boosted_sums_reach_both_exp_branches(self):
        # leaf values of +-20 over two trees and an initial score: the row
        # sums span about -40..40, through both sides of the sigmoid formula
        vocab = make_vocab([f"v{i}" for i in range(4)])
        feature = sf.Feature("s", sf.FeatureType.CATEGORICAL_SET, vocab)
        trees = [
            sf.Internal(sf.SetIntersects(0, (0,)), sf.Leaf(-19.75),
                        sf.Internal(sf.SetIntersects(0, (1,)), sf.Leaf(0.0), sf.Leaf(20.0))),
            sf.Internal(sf.SetIntersects(0, (2, 3)), sf.Leaf(-20.0),
                        sf.Internal(sf.SetIntersects(0, (3,)), sf.Leaf(1e-9), sf.Leaf(19.5))),
        ]
        forest = sf.DecisionForest("mart", trees, -0.25, [feature], {})
        sets = [tuple(t for t in range(4) if bits >> t & 1) for bits in range(16)] + [None]
        ds = sf.Dataset.create([feature], [sets], np.zeros(len(sets), dtype=np.int64))
        scores = _assert_batch_agrees(forest, ds)
        assert scores.min() < 1e-17 and scores.max() == 1.0
        assert len(set(scores.tolist())) > 5


WIDE = 40  # a dataset's set ids 0..39: the model knows 0..7, so 8..39 are no key


def _skewed_sets(rng, n):
    """A set column of ``n`` rows over ids 0..WIDE-1, skewed: missing, empty,
    short and long rows, and one row (more, at random) holding every id."""
    every = tuple(range(WIDE))
    column = []
    for u in rng.random(n):
        if u < 0.1:
            column.append(None)
        elif u < 0.2:
            column.append(())
        elif u < 0.25:
            column.append(every)
        else:  # mostly 1 to 3 ids, some up to WIDE
            size = int(rng.integers(1, 4)) if u < 0.85 else int(rng.integers(4, WIDE + 1))
            column.append(tuple(sorted(set(rng.integers(0, WIDE, size=size).tolist()))))
    if n:
        column[int(rng.integers(0, n))] = every
    return column


class TestLayeredSetScoring:
    """``predict_dataset`` ANDs a set feature's key rows token rank by token
    rank over rows ordered longest first, and the rows longer than the last
    layer through bounded gathers: bit-equal to ``predict_compiled`` and
    ``predict_top_down`` on skewed token counts, on every path."""

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.sampled_from([("set",), ("set", "set"), ("num", "set", "cat", "set"),
                                   ("cat", "set"), ("set", "hashed")]),
           widest=st.sampled_from([1, 5, 64, 65, 140]),
           n=st.sampled_from([0, 1, 2, 40, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                              2 * _BLOCK_ROWS + 3]),
           layer_words=st.sampled_from([1, 64, 256, _LAYER_WORDS, 10**9]),
           gather_tokens=st.sampled_from([None, 1, 7]),
           selection=st.sampled_from(["all", "shuffled", "repeated"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_and_top_down(self, kind, ftypes, widest, n, layer_words,
                                          gather_tokens, selection, seed):
        # these forests hold 3 to 9 words per row: layer_words 1 layers every
        # token, 64 and 256 stop within a block of 40 rows or more, 10**9
        # never layers; a gather of 1 or 7 key rows cuts long rows between
        # gathers
        rng = np.random.default_rng(seed)
        forest = _random_forest(rng, kind, ftypes, [widest, 3, 2])
        wide = make_vocab([f"v{i}" for i in range(WIDE)])  # extends the model's terms
        features = [sf.Feature(f.name, f.ftype, wide) if t == "set" else f
                    for f, t in zip(forest.features, ftypes)]
        columns = [_skewed_sets(rng, n) if t == "set" else _random_column(rng, t, n)
                   for t in ftypes]
        ds = sf.Dataset.create(features, columns, np.zeros(n, dtype=np.int64))
        compiled = compile_forest(forest)
        rows = {"all": None, "shuffled": rng.permutation(n),
                "repeated": rng.integers(0, max(n, 1), size=n + 5 if n else 0)}[selection]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("setforest.inference._LAYER_WORDS", layer_words)
            if gather_tokens is not None:
                patch.setattr("setforest.inference._GATHER_BYTES",
                              8 * len(compiled.default_masks) * gather_tokens)
            got = predict_dataset(compiled, ds, rows)
        picked = range(n) if rows is None else rows.tolist()
        per_row = np.array([predict_compiled(compiled, ds.row(i)) for i in picked],
                           dtype=np.float64)
        top_down = np.array([predict_top_down(forest, ds.row(i)) for i in picked],
                            dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (len(picked),)
        assert got.tobytes() == per_row.tobytes() == top_down.tobytes()


_DELETE = object()  # a mutation that removes the field's key


def _document_fields(document):
    """Every field of a model document, as (container, key) pairs: its own
    keys, and every node and split key of its trees: leaf values,
    thresholds, features, kinds and id lists."""
    fields = [(document, key) for key in document]
    nodes = list(document["trees"])
    while nodes:
        node = nodes.pop()
        fields += [(node, key) for key in node]
        if "split" in node:
            fields += [(node["split"], key) for key in node["split"]]
            nodes += (node["negative"], node["positive"])
    return fields


def _field_mutations(value, n_features):
    """Replacement values for one field, ``_DELETE`` among them."""
    if isinstance(value, list) and not {type(v) for v in value} <= {int}:  # features, trees
        return [_DELETE, [], value[::-1], value + value[-1:], value[1:], value + [VOCAB], {}]
    if isinstance(value, list):  # a mask or a value set
        return [_DELETE, value + [VOCAB], value + [2**63], value + [2**64], [-1] + value,
                value[::-1], value + value[-1:], [], [True] + value, value[:-1] + [False],
                [float(v) for v in value], [str(v) for v in value], value[0]]
    if isinstance(value, str):  # a condition kind
        return [_DELETE, "numerical_ge", "category_in", "set_intersects", "set_equals", 3]
    if isinstance(value, dict):  # a subtree or a split
        return [_DELETE, {"leaf": 0.5}, {}, [], "leaf"]
    if type(value) is int:  # a feature
        return [_DELETE, n_features, n_features + 7, -1, (value + 1) % n_features, True,
                float(value), str(value), None]
    return [_DELETE, float("nan"), float("inf"), -float("inf"), True, False, "0.25", None,
            [value], value + 1.0, -0.0, 10**400]


class TestModelDocument:
    """Every model document either parses to a model whose three evaluators
    agree bit for bit, or is rejected with ``ValueError``."""

    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.lists(st.sampled_from(["num", "cat", "hashed", "set"]),
                           min_size=1, max_size=4),
           num_trees=st.integers(0, 4),
           widest=st.sampled_from([1, 3, 64, 65, 140]),
           seed=st.integers(0, 2**32 - 1))
    def test_serialise_parse_serialise_is_the_identity(self, kind, ftypes, num_trees,
                                                       widest, seed):
        rng = np.random.default_rng(seed)
        num_trees = max(num_trees, int(kind == "rf"))
        leaf_counts = rng.integers(1, widest + 1, size=num_trees).tolist()
        forest = _random_forest(rng, kind, ftypes, leaf_counts)
        text = forest_to_json(forest)
        assert forest_to_json(forest_from_json(text)) == text
        # the version 1 document of what it reads reads back to the same text
        document = forest_to_dict(forest_from_json(text))
        assert document == forest_to_dict(forest)
        assert forest_to_json(sf.model.forest_from_dict(document)) == text

    @settings(deadline=None, max_examples=150)
    @given(kind=st.sampled_from(["rf", "mart"]),
           ftypes=st.lists(st.sampled_from(["num", "cat", "hashed", "set"]),
                           min_size=1, max_size=4),
           widest=st.sampled_from([1, 3, 65]),
           seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_single_field_mutation_is_rejected_or_agrees(self, kind, ftypes, widest, seed,
                                                         data):
        rng = np.random.default_rng(seed)
        forest = _random_forest(rng, kind, ftypes, [widest, 2])
        document = forest_to_dict(forest)
        fields = _document_fields(document)
        container, key = fields[data.draw(st.integers(0, len(fields) - 1), label="field")]
        mutation = data.draw(st.sampled_from(_field_mutations(container[key], len(ftypes))),
                             label="mutation")
        if mutation is _DELETE:
            del container[key]
        else:
            container[key] = mutation
        try:
            parsed = sf.model.forest_from_dict(document)
        except ValueError:
            return
        n = 40
        columns = [_random_column(rng, "num" if f.ftype == sf.FeatureType.NUMERICAL else
                                  "set" if f.ftype == sf.FeatureType.CATEGORICAL_SET else
                                  "cat" if f.vocabulary else "hashed", n)
                   for f in parsed.features]
        ds = sf.Dataset.create(parsed.features, columns, np.zeros(n, dtype=np.int64))
        _assert_batch_agrees(parsed, ds)
