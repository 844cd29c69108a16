"""Differential tests: the vectorised evaluators against the scalar reference.

The test-only ``evaluate_column`` (a table lookup over the CSR set index plus
a bincount), the reference for the splitters' partitions, must equal
``evaluate`` row by row, and the compiled evaluator scoring one tree through
the trainer's ``_tree_values`` must equal the nested ``route``, on random columns
holding missing values, empty sets and the extreme ids 0 and vocabulary - 1,
and on masks holding ids absent from the column.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.conditions import evaluate
from setforest.dataset import Feature, FeatureType
from setforest.training import _tree_values

from helpers import evaluate_column, make_vocab, route


@st.composite
def set_values(draw, vocab_size):
    kind = draw(st.sampled_from(["missing", "empty", "edges", "ids"]))
    if kind == "missing":
        return None
    if kind == "empty":
        return ()
    ids = draw(st.sets(st.integers(0, vocab_size - 1), max_size=vocab_size))
    if kind == "edges":
        ids |= {0, vocab_size - 1}
    return tuple(sorted(ids))


@st.composite
def mixed_datasets(draw):
    """(dataset, vocabulary size) over one set, one numerical and one
    categorical feature, built through ``create`` or directly (whose set
    index is then built on first use)."""
    vocab_size = draw(st.integers(1, 12))
    n = draw(st.integers(1, 25))
    sets = draw(st.lists(set_values(vocab_size), min_size=n, max_size=n))
    numbers = draw(st.lists(st.sampled_from([math.nan, -1.0, 0.0, 0.5, 2.0]),
                            min_size=n, max_size=n))
    categories = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    features = [Feature("text", FeatureType.CATEGORICAL_SET,
                        make_vocab([f"t{i}" for i in range(vocab_size)])),
                Feature("x", FeatureType.NUMERICAL),
                Feature("colour", FeatureType.CATEGORICAL, make_vocab("abcd"))]
    columns = [sets, np.array(numbers), np.array(categories, dtype=np.int64)]
    labels = np.zeros(n, dtype=np.int64)
    if draw(st.booleans()):
        ds = sf.Dataset.create(features, columns, labels)
    else:
        ds = sf.Dataset(features, columns, labels, np.ones(n))
    return ds, vocab_size


def conditions(draw, vocab_size):
    kind = draw(st.sampled_from(["set", "set", "numerical", "categorical"]))
    if kind == "numerical":
        return sf.NumericalGE(1, draw(st.sampled_from([-0.5, 0.0, 0.5, 1.0])))
    if kind == "categorical":
        return sf.CategoryIn(2, frozenset(draw(st.sets(st.integers(0, 3), min_size=1))))
    # ids up to vocabulary + 1: some absent from the column, some past its largest id
    mask = draw(st.sets(st.integers(0, vocab_size + 1), min_size=1, max_size=5))
    return sf.SetIntersects(0, tuple(sorted(mask)))


def trees(draw, vocab_size, depth):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return sf.Leaf(float(draw(st.integers(-4, 4))) / 4)
    return sf.Internal(conditions(draw, vocab_size), trees(draw, vocab_size, depth - 1),
                       trees(draw, vocab_size, depth - 1))


class TestEvaluateColumn:
    @settings(deadline=None, max_examples=150)
    @given(mixed_datasets(), st.data())
    def test_matches_scalar_evaluate(self, dataset, data):
        ds, vocab_size = dataset
        condition = conditions(data.draw, vocab_size)
        # rows in any order, repeated as in a bootstrap, or none
        indices = np.array(data.draw(st.lists(st.integers(0, ds.n_examples - 1),
                                              max_size=40)), dtype=np.int64)
        expected = [evaluate(condition, ds.row(i)) for i in indices]
        got = evaluate_column(condition, ds, indices)
        assert got.dtype == bool
        assert got.tolist() == expected

    def test_set_column_without_tokens(self):
        features = [Feature("text", FeatureType.CATEGORICAL_SET, make_vocab("ab"))]
        ds = sf.Dataset.create(features, [[None, (), ()]], [0, 1, 0])
        got = evaluate_column(sf.SetIntersects(0, (0, 1)), ds, np.array([2, 0, 1]))
        assert got.tolist() == [False, False, False]


class TestTreeApply:
    @settings(deadline=None, max_examples=100)
    @given(mixed_datasets(), st.data())
    def test_matches_route(self, dataset, data):
        ds, vocab_size = dataset
        tree = trees(data.draw, vocab_size, depth=4)
        indices = np.array(data.draw(st.lists(st.integers(0, ds.n_examples - 1),
                                              min_size=1, max_size=40)), dtype=np.int64)
        expected = np.array([route(tree, ds.row(i)).value for i in indices])
        np.testing.assert_array_equal(_tree_values(tree, ds, indices), expected)
