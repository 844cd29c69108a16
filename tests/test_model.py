import gc
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.model import (
    MART,
    MAX_TREE_DEPTH,
    NUMERICAL_GE,
    RF,
    aggregate,
    count_leaves,
    forest_from_dict,
    count_nodes,
    forest_from_json,
    forest_nodes,
    forest_to_json,
    leaf_index,
    leaf_values,
    max_depth,
    sigmoid,
)
from setforest import inference
from setforest.inference import _negative_spans
from setforest.training import _tree_values

import helpers
from helpers import (COLUMN_FAULTS, build_complete_tree, column, forest_to_dict, make_vocab,
                     one_split_document, random_mixed_dataset, random_nested_tree, stack_trees,
                     tree_leaf_depths)


def _trained(seed=0, algorithm="rf", **kw):
    ds, _ = random_mixed_dataset(seed, n=150)
    if algorithm == "rf":
        config = sf.TrainConfig.random_forest(num_trees=4, max_depth=5, seed=seed,
                                              sampling_rate=0.8, **kw)
        return ds, sf.train_random_forest(ds, config)
    config = sf.TrainConfig.mart(num_trees=6, seed=seed, sampling_rate=0.8, **kw)
    return ds, sf.train_mart(ds, config)


def _flat(nested):
    """A nested Leaf or Internal tree as the Tree a forest holds."""
    return sf.DecisionForest(RF, [nested], 0.0, [sf.Feature("x", sf.FeatureType.NUMERICAL)]
                             ).trees[0]


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

    @pytest.mark.parametrize("algorithm", ["rf", "mart"])
    def test_reading_a_document_leaves_it_as_it_was(self, algorithm):
        # the JSON reader frees each tree of its own document as it walks it;
        # a caller's document is read, not emptied
        _, forest = _trained(seed=2, algorithm=algorithm)
        text = forest_to_json(forest)
        document = json.loads(text)
        trees = document["trees"]
        restored = forest_from_dict(document)
        assert document == json.loads(text) and document["trees"] is trees
        assert forest_to_json(restored) == forest_to_json(forest_from_json(text)) == text

    def test_masks_serialized_as_sorted_arrays(self):
        # each set and categorical node's ids, in the ids column, rise
        _, forest = _trained(seed=7)
        trees = json.loads(forest_to_json(forest))["trees"]
        ids, counts = column(trees, "ids", "<i8"), column(trees, "id_count", "<i4")
        assert counts.sum() == len(ids) and (counts > 0).all()
        for node in np.split(ids, np.cumsum(counts)[:-1]):
            assert node.tolist() == sorted(set(node.tolist()))

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            forest_from_json('{"format": "other", "version": 1}')
        with pytest.raises(ValueError):
            forest_from_json(
                '{"format": "setforest-model", "version": 99, "kind": "rf",'
                ' "initial_score": 0, "features": [], "trees": []}')


class TestForestLayout:
    FEATURES = [sf.Feature("x", sf.FeatureType.NUMERICAL),
                sf.Feature("c", sf.FeatureType.CATEGORICAL, make_vocab(["u", "v", "w", "z"])),
                sf.Feature("s", sf.FeatureType.CATEGORICAL_SET, make_vocab("abcdefgh"))]

    @staticmethod
    def _views_of_nodes(forest, trees):
        """Each of ``forest.trees`` equals its tree of ``trees`` and is
        slices of the forest's own arrays, with no copy."""
        assert len(forest.trees) == len(trees)
        for view, tree in zip(forest.trees, trees):
            assert view == tree
            for a, whole in zip(view.arrays(), forest.nodes.arrays()):
                assert a.base is whole and (a.size == 0 or np.shares_memory(a, whole))

    @staticmethod
    def _tables(compiled):
        return {f: (t.keys.tobytes(), t.ends.tobytes(), t.tree_ids.tobytes(),
                    t.masks.tobytes(), t.slots, t.cumulative, t.lookup)
                for f, t in compiled.keyed.items()}

    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from([RF, MART]), sizes=st.lists(st.integers(1, 90), max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(kind=MART, sizes=[], seed=0)
    @example(kind=RF, sizes=[1, 65, 1, 130], seed=1)
    def test_one_set_of_node_arrays(self, kind, sizes, seed):
        # trees of one leaf up to more than 64 (two compiled words), over all
        # three feature kinds; a random forest needs a tree
        sizes = sizes or ([1] if kind == RF else [])
        rng = np.random.default_rng(seed)
        nested = [random_nested_tree(rng, n, self.FEATURES) for n in sizes]
        trees = [sf.model.tree_from_nested(root) for root in nested]
        forest = sf.DecisionForest(kind, nested, 0.25 if kind == MART else 0.0, self.FEATURES)
        self._views_of_nodes(forest, trees)
        text = forest_to_json(forest)
        loaded = forest_from_json(text)
        self._views_of_nodes(loaded, trees)
        assert forest_to_json(loaded) == text
        # the forest-wide arrays and every mask table equal those of the
        # concatenation that the load checks and the compiler copied before
        reference, starts = stack_trees(trees)
        assert forest_nodes(loaded) == reference and loaded.starts.tolist() == starts.tolist()
        with mock.patch.object(inference, "forest_nodes", lambda f: stack_trees(f.trees)[0]):
            expected = inference.compile_forest(loaded)
        compiled = inference.compile_forest(loaded)
        assert self._tables(compiled) == self._tables(expected)
        for name in ("leaf_values", "num_leaves", "default_masks", "tree_starts"):
            assert getattr(compiled, name).tobytes() == getattr(expected, name).tobytes()


class TestTreeWalkers:
    def test_complete_tree_counts(self):
        tree = _flat(build_complete_tree(3))
        assert count_leaves(tree) == 8
        assert count_nodes(tree) == 15
        assert tree_leaf_depths(tree) == [3] * 8

    def test_tree_apply_matches_scalar_route(self):
        ds, forest = _trained(seed=2)
        idx = np.arange(ds.n_examples)
        for tree in forest.trees:
            bulk = _tree_values(tree, ds, idx)
            scalar = np.array([tree.value[leaf_index(tree, ds.row(i))] for i in idx])
            np.testing.assert_array_equal(bulk, scalar)

    def test_walkers_reach_the_depth_bound(self):
        # a chain of MAX_TREE_DEPTH splits nested along its positive branches
        # (1000 raised RecursionError in the JSON writer, the compiler and
        # count_nodes)
        vocab = sf.Vocabulary(("a", "b"), (2, 1))
        feature = sf.Feature("text", sf.FeatureType.CATEGORICAL_SET, vocab)
        node = sf.Leaf(1.0)
        for depth in range(MAX_TREE_DEPTH):
            node = sf.Internal(sf.SetIntersects(0, (depth % 2,)), sf.Leaf(depth / 1000), node)
        forest = sf.DecisionForest(RF, [node], 0.0, [feature], {})
        tree = forest.trees[0]
        assert max_depth(tree) == MAX_TREE_DEPTH and count_nodes(tree) == 2 * MAX_TREE_DEPTH + 1
        assert tree_leaf_depths(tree)[-1] == MAX_TREE_DEPTH
        text = forest_to_json(forest)
        assert forest_to_json(forest_from_json(text)) == text
        ds = sf.Dataset.create([feature], [[(), (0,), (1,), (0, 1), None]], [0] * 5)
        compiled = sf.compile_forest(forest)
        expected = [sf.predict(forest, row) for row in ds.rows()]
        assert expected == [0.511, 0.511, 0.51, 1.0, 0.511]
        assert [sf.predict_compiled(compiled, row) for row in ds.rows()] == expected
        assert sf.predict_dataset(compiled, ds).tolist() == expected

    @settings(deadline=None, max_examples=60)
    @given(n_leaves=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), chain=st.just(False))
    @example(n_leaves=MAX_TREE_DEPTH + 1, seed=0, chain=True)
    def test_arrays_match_the_nested_references(self, n_leaves, seed, chain):
        # a random nested tree of up to 300 leaves, or a chain 512 levels deep
        # down alternating sides, stacked after a small tree so that its leaf
        # positions start over
        rng = np.random.default_rng(seed)
        values = iter(rng.permutation(2 * n_leaves).tolist())

        def nested(n):
            if n == 1:
                return sf.Leaf(float(next(values)))
            k = int(rng.integers(1, n))
            return sf.Internal(sf.NumericalGE(0, float(rng.normal())), nested(k), nested(n - k))

        if chain:
            root = sf.Leaf(-1.0)
            for depth in range(n_leaves - 1):
                leaf = sf.Leaf(float(depth))
                root = sf.Internal(sf.NumericalGE(0, float(depth)),
                                   *((leaf, root) if depth % 2 else (root, leaf)))
        else:
            root = nested(n_leaves)
        first = build_complete_tree(2)
        small, tree = (_flat(t) for t in (first, root))
        assert count_leaves(tree) == helpers.count_leaves(root) == n_leaves
        assert count_nodes(tree) == helpers.count_nodes(root)
        assert tree_leaf_depths(tree) == helpers.leaf_depths(root)
        assert leaf_values(tree) == helpers.leaf_values(root)
        assert max_depth(tree) == helpers.max_depth(root)
        _, lo, hi = _negative_spans(*stack_trees([small, tree]))
        spans = helpers.negative_spans(first) + helpers.negative_spans(root)
        assert list(zip(lo.tolist(), (hi - lo).tolist())) == spans
        for x in rng.normal(scale=2.0, size=20).tolist() + [np.nan]:
            assert tree.value[leaf_index(tree, (x,))] == helpers.route(root, (x,)).value
        # the walk keeps its conditions out of the arrays and out of equality
        assert len(tree.arrays()) == 7 and tree == _flat(root)

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

    def test_boosted_rows_match_the_reference_formula_bit_for_bit(self):
        # row sums at exp's edges: +-0.0; +-709.78, where exp(|x|) nears the
        # largest double; +-745.2, where exp(-|x|) underflows to 0; tiny and
        # subnormal sums; infinities. An initial score of -0.0 leaves each
        # one-tree sum as it is
        tiny = [1e-300, 2.2250738585072014e-308, 1e-310, 5e-324]
        edges = [0.0, 709.78, 709.7827128933840, 745.1, 745.2, 746.0, 36.8, 37.0, 1.0,
                 *tiny, math.inf]
        sums = np.array(edges + [-x for x in edges])
        got = aggregate(MART, -0.0, sums[:, None])
        assert got.tobytes() == helpers.reference_boosted_rows(-0.0, sums[:, None]).tobytes()
        assert got.tolist() == [sigmoid(x) for x in sums.tolist()]
        assert np.signbit(sums[len(edges)]) and got[0] == got[len(edges)] == 0.5
        rng = np.random.default_rng(13)
        for scale in (1e-3, 1.0, 30.0, 400.0):
            values = rng.normal(scale=scale, size=(257, 7))
            for initial in (0.0, -0.0, 0.4, -2.5):
                assert aggregate(MART, initial, values).tobytes() == \
                    helpers.reference_boosted_rows(initial, values).tobytes()

    def test_zero_trees_and_zero_rows(self):
        assert aggregate(MART, 0.5, np.empty((3, 0))).tolist() == [sigmoid(0.5)] * 3
        assert aggregate(MART, 0.5, np.empty((0, 4))).shape == (0,)
        assert aggregate(RF, 0.0, np.empty((0, 4))).shape == (0,)

    def test_one_row_is_mean_and_sum_bit_for_bit(self):
        # one row reduces with np.add.reduce; mean and sum reduce the same way
        # and mean then divides by the count. 1..600 trees crosses the
        # pairwise summation's blocks of 8 and 128
        rng = np.random.default_rng(12)
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e16, 1.0, -1e16])
        bits = lambda x: np.float64(x).tobytes()  # noqa: E731
        for trees in range(1, 601):
            rows = (rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=trees),
                    rng.choice(special, size=trees), np.full(trees, -0.0),
                    np.where(rng.random(trees) < 0.5, 1e16, 1.0), rng.choice(special[:6], trees))
            for values in rows:
                assert bits(aggregate(RF, 0.0, values)) == bits(float(values.mean())), trees
                assert bits(aggregate(MART, -0.3, values)) == \
                    bits(sigmoid(-0.3 + float(values.sum()))), trees

    def test_one_row_of_a_forest_without_trees(self):
        assert aggregate(MART, 0.5, np.empty(0)) == sigmoid(0.5)
        # only a hand-built random forest has no trees: its mean stays NaN
        with pytest.warns(RuntimeWarning):
            assert math.isnan(aggregate(RF, 0.0, np.empty(0)))


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

    def test_tree_past_the_depth_bound_rejected(self):
        document = one_split_document({"kind": "set_intersects", "feature": 0, "mask": [0]})
        for _ in range(MAX_TREE_DEPTH - 1):
            document["trees"][0] = {"split": {"kind": "set_intersects", "feature": 0,
                                              "mask": [1]},
                                    "negative": {"leaf": 0.5}, "positive": document["trees"][0]}
        forest_from_dict(document)  # leaves at depth MAX_TREE_DEPTH
        document["trees"][0] = {"split": {"kind": "category_in", "feature": 1, "values": [0]},
                                "negative": document["trees"][0], "positive": {"leaf": 0.5}}
        with pytest.raises(ValueError, match=f"deeper than {MAX_TREE_DEPTH}"):
            forest_from_dict(document)

    @pytest.mark.parametrize("metadata", [[], "x", 3, None])
    def test_metadata_must_be_an_object(self, metadata):
        document = one_split_document({"kind": "set_intersects", "feature": 0, "mask": [0]})
        document["metadata"] = metadata
        with pytest.raises(ValueError, match="metadata must be an object"):
            forest_from_dict(document)

    @pytest.mark.parametrize("vocabulary", [
        {"terms": 3, "frequencies": [1]},
        {"terms": "abc", "frequencies": [1, 1, 1]},
        {"terms": ["a", "a", "b"], "frequencies": [3, 2, 1]},
        {"terms": ["a", "b", "c"], "frequencies": [3, 2]},
        {"terms": ["a", 2, "c"], "frequencies": [3, 2, 1]},
        {"terms": ["a", "b", "c"], "frequencies": [3, 2.0, 1]},
        {"terms": ["a", "b", "c"]},
    ])
    def test_bad_vocabulary_rejected(self, vocabulary):
        document = one_split_document({"kind": "set_intersects", "feature": 0, "mask": [0]})
        document["features"][0]["vocabulary"] = vocabulary
        with pytest.raises(ValueError):
            forest_from_dict(document)

    @pytest.mark.parametrize("name", [5, None, [1, 2], {"a": 1}, True])
    def test_feature_name_must_be_a_string(self, name):
        # a list name also made the Feature unhashable
        document = one_split_document({"kind": "set_intersects", "feature": 0, "mask": [0]})
        document["features"][1]["name"] = name
        with pytest.raises(ValueError, match="feature name must be a string"):
            forest_from_dict(document)

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
        # a version 1 document, whose leaf values are JSON numbers
        forest = sf.DecisionForest("mart", [sf.Leaf(float("nan"))], 0.0, [], {})
        text = json.dumps(forest_to_dict(forest), indent=1)
        assert '"leaf": NaN' in text
        with pytest.raises(ValueError, match="must be finite"):
            forest_from_json(text)

    def test_random_forest_without_trees_rejected(self):
        # its mean over no trees is NaN; a boosted forest without trees
        # predicts its initial score
        document = one_split_document({"kind": "set_intersects", "feature": 0, "mask": [0]})
        document["trees"] = []
        assert forest_from_dict({**document, "kind": "mart"}).trees == []
        with pytest.raises(ValueError, match="at least one tree"):
            forest_from_dict(document)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="forest kind"):
            forest_from_dict(one_split_document(
                {"kind": "set_intersects", "feature": 0, "mask": [0]}, kind="gbdt"))
        with pytest.raises(ValueError, match="condition kind"):
            forest_from_dict(one_split_document({"kind": "set_equals", "feature": 0}))


# a schema of every feature kind, with non-ASCII terms
TEXT_FEATURES = [sf.Feature("x", sf.FeatureType.NUMERICAL),
                 sf.Feature("c", sf.FeatureType.CATEGORICAL, make_vocab(["ü", "naïve", "x", "日本"])),
                 sf.Feature("s", sf.FeatureType.CATEGORICAL_SET, make_vocab("abcdéfgh"))]


def _random_text(kind, sizes, seed) -> str:
    """The model text of a random forest of ``kind`` over ``TEXT_FEATURES``
    with trees of ``sizes`` leaves (one at least for a random forest)."""
    rng = np.random.default_rng(seed)
    sizes = sizes or ([1] if kind == RF else [])
    trees = [random_nested_tree(rng, n, TEXT_FEATURES) for n in sizes]
    forest = sf.DecisionForest(kind, trees, 0.0 if kind == RF else float(rng.normal()),
                               TEXT_FEATURES, {"method": "ñ", "trees": [1.5, None, {"a": []}]})
    return forest_to_json(forest)


def _v1_text(kind, sizes, seed) -> str:
    """``_random_text``'s forest as a version 1 document's text."""
    return json.dumps(forest_to_dict(forest_from_json(_random_text(kind, sizes, seed))), indent=1)


def _outcomes(text: str) -> tuple:
    """What the JSON reader and ``forest_from_dict(json.loads(text))`` make of
    ``text``: each the forest's model text, or its error's type and message."""
    def outcome(read):
        try:
            return forest_to_json(read(text))
        except ValueError as exc:
            return type(exc), str(exc)
    return outcome(forest_from_json), outcome(lambda t: forest_from_dict(json.loads(t)))


def _relaid(text: str, layout: str, rng) -> str:
    """``text``'s document written again in another JSON layout."""
    document = json.loads(text)
    if layout == "shuffled":  # trees before features, among others
        keys = list(document)
        rng.shuffle(keys)
        document = {key: document[key] for key in keys}
    indent = {"compact": None, "none": None, "indent4": 4}.get(layout, int(rng.integers(0, 3)))
    separators = (",", ":") if layout == "compact" else None
    relaid = json.dumps(document, indent=indent, separators=separators,
                        ensure_ascii=layout != "unicode")
    return relaid.replace("\n", "\r\n") if layout == "crlf" else relaid


class TestModelText:
    """The JSON reader against ``forest_from_dict(json.loads(text))`` on text
    of either version in any layout, and the writer's version 2 text."""

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from([RF, MART]), sizes=st.lists(st.integers(1, 70), max_size=5),
           seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["none", "compact", "indent4", "crlf", "shuffled", "unicode"]),
           version=st.sampled_from([1, 2]))
    def test_streamed_read_equals_the_whole_document_read(self, kind, sizes, seed, layout,
                                                          version):
        text = _random_text(kind, sizes, seed)
        written = text if version == 2 else _v1_text(kind, sizes, seed)
        relaid = _relaid(written, layout, np.random.default_rng(seed))
        assert _outcomes(relaid) == (text, text)
        assert _outcomes(" \r\n\t" + relaid + "\n \n") == (text, text)
        assert _outcomes(relaid.encode("utf-8"))[0] == text

    @settings(deadline=None, max_examples=80)
    @given(kind=st.sampled_from([RF, MART]), sizes=st.lists(st.integers(1, 20), max_size=3),
           seed=st.integers(0, 2**32 - 1),
           fault=st.sampled_from(["cut", "trailing", "array", "string", "number", "bom"]),
           version=st.sampled_from([1, 2]), data=st.data())
    def test_malformed_text_fails_as_the_whole_document_read(self, kind, sizes, seed, fault,
                                                            version, data):
        text = _random_text(kind, sizes, seed) if version == 2 else _v1_text(kind, sizes, seed)
        text = _relaid(text, "shuffled", np.random.default_rng(seed))
        if fault == "cut":
            text = text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
        elif fault == "trailing":
            text += data.draw(st.sampled_from([" x", "{}", "]", ",", " 0", "\x00"]))
        elif fault in ("array", "string", "number"):
            text = {"array": f"[{text}]", "string": json.dumps(text), "number": "7"}[fault]
        else:
            text = "﻿" + text
        streamed, whole = _outcomes(text)
        assert type(whole) is tuple and streamed == whole
        # the same bytes, a byte-order mark too, fail as well
        with pytest.raises(ValueError):
            forest_from_json(text.encode("utf-8"))

    @pytest.mark.parametrize("document", [
        lambda d: {**d, "features": d["features"][:1]},  # a split on a feature past the schema
        lambda d: {**d, "trees": [{"split": {"kind": "set_equals", "feature": 0},
                                   "negative": {"leaf": 0.0}, "positive": {"leaf": 1.0}}]},
        lambda d: {**d, "trees": [{"leaf": 0.0}, {"leaf": "0.5"}]},
        lambda d: {**d, "trees": [{"leaf": 0.0}, {"negative": {}}]},
        lambda d: {**d, "trees": [{"split": {"kind": "set_intersects", "feature": 2,
                                             "mask": [2**70]},
                                   "negative": {"leaf": 0.0}, "positive": {"leaf": 1.0}}]},
        lambda d: {**d, "trees": {}, "kind": RF},
        lambda d: {**d, "trees": 5},
        lambda d: {key: value for key, value in d.items() if key != "trees"},
        lambda d: {**d, "metadata": []},
        lambda d: {**d, "version": 2},  # nested trees under version 2
    ])
    @pytest.mark.parametrize("trees_first", [False, True])
    def test_a_model_fault_is_named_as_before(self, document, trees_first):
        # faults of a version 1 document, named as before version 2; the same
        # message with the trees before the features too: a split past the
        # schema names the schema's feature count
        base = json.loads(_v1_text(MART, [3, 5], 1))
        changed = document(base)
        if trees_first and "trees" in changed:
            changed = {"trees": changed.pop("trees"), **changed}
        streamed, whole = _outcomes(json.dumps(changed, indent=1))
        assert type(whole) is tuple and streamed == whole

    @pytest.mark.parametrize("key", ["format", "features", "trees", "metadata", "other"])
    def test_a_repeated_top_level_key_is_refused(self, key):
        # json.loads keeps the last copy; the reader refuses the document
        text = _random_text(RF, [4, 2], 3)
        member = f'"{key}": ' + json.dumps(json.loads(text).get(key, 1))
        text = text[:-2] + f",\n {member},\n {member}\n}}"
        assert forest_to_json(forest_from_dict(json.loads(text))) == _random_text(RF, [4, 2], 3)
        with pytest.raises(ValueError, match=f"repeats the key '{key}'"):
            forest_from_json(text)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("owner", ["trees", "feature", "vocabulary", "metadata"])
    def test_a_repeated_key_is_refused_at_any_depth(self, version, owner):
        text = _random_text(MART, [3, 2], 4) if version == 2 else _v1_text(MART, [3, 2], 4)
        # a key of the first object of its kind, given once more ahead of it
        opening, key = {"trees": ('"trees": {', "kind") if version == 2
                        else ('"split": {', "feature"),
                        "feature": ('"features": [\n  {', "name"),
                        "vocabulary": ('"vocabulary": {', "terms"),
                        "metadata": ('"metadata": {', "method")}[owner]
        at = text.index(opening) + len(opening)
        with pytest.raises(ValueError, match=f"repeats the key '{key}'"):
            forest_from_json(text[:at] + f'"{key}": 0, ' + text[at:])

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from([RF, MART]), sizes=st.lists(st.integers(1, 90), max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_writer_equals_json_dumps_of_the_document(self, kind, sizes, seed):
        forest = forest_from_json(_random_text(kind, sizes, seed))
        text = forest_to_json(forest)
        assert text == json.dumps(json.loads(text), indent=1)
        assert json.loads(text)["version"] == 2

    def test_writer_on_hand_built_numbers(self):
        # floats a column keeps bit for bit: signed zero, the least
        # subnormal, 1e16 and integral floats, NaN and infinities (which a
        # read refuses); a mask without ids; a feature and metadata key named
        # "trees"
        features = [sf.Feature("trees", sf.FeatureType.NUMERICAL),
                    sf.Feature("ключ", sf.FeatureType.CATEGORICAL_SET,
                               make_vocab(["ü", "日本", "\n", '"']))]
        node = sf.Internal(sf.SetIntersects(1, (0, 3)), sf.Leaf(-0.0), sf.Leaf(5e-324))
        for threshold, leaf in ((-0.0, 1e16), (2.0, -3.0), (1e-300, float("nan")),
                                (-1e16, float("inf")), (0.1, -float("inf"))):
            node = sf.Internal(sf.NumericalGE(0, threshold), node, sf.Leaf(leaf))
        trees = [node, sf.Leaf(1.0), sf.Internal(sf.SetIntersects(1, ()), sf.Leaf(0.0),
                                                 sf.Leaf(-1e-310))]
        forest = sf.DecisionForest(MART, trees, -0.0, features,
                                   {"trees": [], "note": "\n \"trees\": []"})
        text = forest_to_json(forest)
        assert text == json.dumps(json.loads(text), indent=1)
        document = json.loads(text)
        columns = document["trees"]
        assert document["initial_score"] == 0.0 and math.copysign(1, document["initial_score"]) < 0
        assert columns["node_counts"] == [13, 1, 3]
        assert column(columns, "threshold", "<f8").tobytes() == \
            np.array([0.1, -1e16, 1e-300, 2.0, -0.0]).tobytes()
        # the leaves in preorder: each split's negative subtree first
        assert column(columns, "value", "<f8").tobytes() == np.array(
            [-0.0, 5e-324, 1e16, -3.0, math.nan, math.inf, -math.inf, 1.0, 0.0, -1e-310]
        ).tobytes()
        assert column(columns, "id_count", "<i4").tolist() == [2, 0]
        assert column(columns, "ids", "<i8").tolist() == [0, 3]
        assert column(columns, "feature", "<i4").tolist() == [0, 0, 0, 0, 0, 1, 1]
        no_trees = sf.DecisionForest(MART, [], 2.0, features, {})
        empty = json.loads(forest_to_json(no_trees))["trees"]
        assert empty == {"node_counts": [], "kind": "", "feature": "", "threshold": "",
                         "value": "", "id_count": "", "ids": ""}
        assert forest_from_json(forest_to_json(no_trees)).trees == []

    def test_writer_reaches_the_depth_bound(self):
        node = sf.Leaf(0.5)
        for depth in range(MAX_TREE_DEPTH):
            node = sf.Internal(sf.NumericalGE(0, float(depth)), node, sf.Leaf(depth / 7))
        forest = sf.DecisionForest(RF, [node], 0.0, TEXT_FEATURES[:1])
        loaded = forest_from_json(forest_to_json(forest))
        assert loaded.nodes == forest.nodes
        assert forest_from_dict(forest_to_dict(forest)).nodes == forest.nodes

    @pytest.mark.parametrize("algorithm", ["rf", "mart"])
    def test_load_peaks_below_the_compile(self, tmp_path, algorithm):
        # the load frees the model's text, its document and the decoded
        # columns before it checks the trees, so its peak stays below the
        # compile's that follows: the compile, not the load, sets the peak
        # of loading and compiling a model
        tokens, labels = sf.planted_keyword_corpus(n=2000, vocab_terms=400, signal_terms=10,
                                                   seed=1)
        vocab = sf.build_vocabulary(tokens, max_size=5000, min_frequency=2)
        ds = sf.dataset_from_token_sets(tokens, vocab, labels)
        config = (sf.TrainConfig.random_forest(num_trees=10, seed=1) if algorithm == "rf"
                  else sf.TrainConfig.mart(num_trees=20, seed=1))
        path = tmp_path / "model.json"
        sf.save_forest(sf.train(ds, config), path)
        # both peaks counted from before the load
        gc.collect()
        tracemalloc.start()
        try:
            forest = sf.load_forest(path)
            load = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sf.compile_forest(forest)
            assert load < tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# thresholds a column keeps bit for bit, and max-hash categorical values,
# which take 63 bits and have no vocabulary
EDGE_THRESHOLDS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.5, -1e16)
HASHED = (0, 7, 2**62 + 1, 2**63 - 2, 2**63 - 1)
EDGE_FEATURES = [sf.Feature("x", sf.FeatureType.NUMERICAL),
                 sf.Feature("h", sf.FeatureType.CATEGORICAL, None),
                 sf.Feature("c", sf.FeatureType.CATEGORICAL, make_vocab("uvwz")),
                 sf.Feature("s", sf.FeatureType.CATEGORICAL_SET, make_vocab("abcdefgh"))]


def _edge_condition(rng):
    f = int(rng.integers(len(EDGE_FEATURES)))
    if f == 0:
        return sf.NumericalGE(0, float(rng.choice(EDGE_THRESHOLDS)))
    pool = HASHED if f == 1 else range(len(EDGE_FEATURES[f].vocabulary))
    ids = sorted(set(rng.choice(pool, size=int(rng.integers(1, 4))).tolist()))
    return sf.SetIntersects(f, tuple(ids)) if f == 3 else sf.CategoryIn(f, frozenset(ids))


def _edge_tree(rng, n_leaves: int):
    if n_leaves == 1:
        return sf.Leaf(float(rng.choice([rng.normal(), -0.0, 5e-324, -1e-310])))
    k = int(rng.integers(1, n_leaves))
    return sf.Internal(_edge_condition(rng), _edge_tree(rng, k), _edge_tree(rng, n_leaves - k))


def _edge_chain(rng):
    """A tree ``MAX_TREE_DEPTH`` splits deep, down alternating sides."""
    node = sf.Leaf(-1.0)
    for depth in range(MAX_TREE_DEPTH):
        leaf = sf.Leaf(depth / 1000)
        node = sf.Internal(_edge_condition(rng), *((leaf, node) if depth % 2 else (node, leaf)))
    return node


def _edge_rows(rng, n: int) -> sf.Dataset:
    """Rows at and beside every edge threshold and key, and missing values."""
    x = np.array(EDGE_THRESHOLDS + (math.nan, math.inf, -math.inf, 1e-320, -2.0, 3.0))
    hashed = np.array(HASHED + (3, sf.MISSING_CATEGORY), dtype=np.int64)
    columns = [x[rng.integers(len(x), size=n)], hashed[rng.integers(len(hashed), size=n)],
               rng.integers(-1, 4, size=n),
               [None if u < 0.1 else tuple(sorted(set(rng.integers(0, 8, size=3).tolist())))
                for u in rng.random(n)]]
    return sf.Dataset.create(EDGE_FEATURES, columns, np.zeros(n, dtype=np.int64))


def _bits(forest, ds) -> tuple[bytes, bytes]:
    """The forest's batch scores and per-row compiled scores, as bytes."""
    compiled = sf.compile_forest(forest)
    rows = np.array([sf.predict_compiled(compiled, row) for row in ds.rows()])
    return sf.predict_dataset(compiled, ds).tobytes(), rows.tobytes()


class TestFormatVersion2:
    """Version 2 documents: flat base64 columns, read without a walk over
    nodes, and version 1 documents read into the same arrays."""

    @settings(deadline=None, max_examples=30)
    @given(kind=st.sampled_from([RF, MART]), sizes=st.lists(st.integers(1, 140), max_size=4),
           chain=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(kind=RF, sizes=[65, 1, 64], chain=True, seed=0)
    def test_round_trip_is_bit_exact(self, kind, sizes, chain, seed):
        # trees of one leaf to more than 64 (two compiled words), and a chain
        # at the depth bound
        rng = np.random.default_rng(seed)
        trees = [_edge_tree(rng, n) for n in sizes] + ([_edge_chain(rng)] if chain else [])
        trees = trees or ([sf.Leaf(0.5)] if kind == RF else [])
        forest = sf.DecisionForest(kind, trees, -0.0 if kind == MART else 0.0, EDGE_FEATURES,
                                   {"seed": seed})
        text = forest_to_json(forest)
        loaded = forest_from_json(text)
        assert loaded.nodes == forest.nodes
        assert loaded.starts.tobytes() == forest.starts.tobytes()
        assert forest_to_json(loaded) == text
        ds = _edge_rows(rng, 40)
        assert _bits(loaded, ds) == _bits(forest, ds)

    @pytest.mark.parametrize("fault", list(COLUMN_FAULTS))
    def test_a_malformed_column_is_refused(self, fault):
        change, message = COLUMN_FAULTS[fault]
        _, forest = _trained(seed=6)
        assert len(forest.trees) > 1 and (forest.nodes.kind == NUMERICAL_GE).any()
        document = json.loads(forest_to_json(forest))
        forest_from_dict(document)
        change(document["trees"])
        with pytest.raises(ValueError, match=message):
            forest_from_json(json.dumps(document))

    @pytest.mark.parametrize("algorithm", ["rf", "mart"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_version_1_reads_into_the_same_arrays(self, algorithm, seed):
        _, forest = _trained(seed=seed, algorithm=algorithm)
        v1, v2 = forest_from_dict(forest_to_dict(forest)), forest_from_json(forest_to_json(forest))
        assert v1.nodes == v2.nodes == forest.nodes
        assert v1.starts.tobytes() == v2.starts.tobytes() == forest.starts.tobytes()
        assert forest_to_json(v1) == forest_to_json(forest)

    def test_no_node_is_walked(self):
        # version 2 is read in array passes; only version 1 walks its nodes
        _, forest = _trained(seed=8, algorithm="mart")
        with mock.patch.object(sf.model, "_parse_trees", side_effect=AssertionError):
            assert forest_from_json(forest_to_json(forest)).nodes == forest.nodes
            with pytest.raises(AssertionError):
                forest_from_dict(forest_to_dict(forest))
