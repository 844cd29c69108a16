"""Shared builders for the test suite."""

from __future__ import annotations

import base64
import csv
import io
import math
import re
from collections import Counter

import numpy as np

import setforest as sf
from setforest.conditions import SplitCondition, evaluate
from setforest.dataset import (
    MISSING_CATEGORY,
    Dataset,
    Feature,
    FeatureType,
    SetColumnIndex,
    Vocabulary,
)
from setforest.model import _KIND_NAMES, CATEGORY_IN, LEAF, MODEL_FORMAT, NUMERICAL_GE, node_depths
from setforest.splits import gain_scorer
from setforest.transforms import hash64


def make_vocab(terms):
    return Vocabulary(tuple(terms), tuple([1] * len(terms)))


def set_dataset(sets, labels, vocab_size=None, weights=None, name="text"):
    """Dataset with a single set feature from already-encoded id tuples."""
    if vocab_size is None:
        vocab_size = 1 + max((max(x) for x in sets if x), default=0)
    vocab = make_vocab([f"t{i}" for i in range(vocab_size)])
    column = [None if x is None else tuple(sorted(x)) for x in sets]
    feature = Feature(name, FeatureType.CATEGORICAL_SET, vocab)
    return sf.Dataset.create([feature], [column], labels, weights)


def random_mixed_dataset(seed, n=200, with_labels=True):
    """Random schema with numerical, categorical, and set features.

    Labels correlate with the features so that trees actually grow. Returns
    (dataset, vocabularies-per-set-feature).
    """
    rng = np.random.default_rng(seed)
    n_num = int(rng.integers(1, 3))
    n_cat = int(rng.integers(1, 2 + 1))
    n_set = int(rng.integers(1, 3))
    features = []
    columns = []
    signal = np.zeros(n)

    for i in range(n_num):
        col = rng.normal(size=n)
        col[rng.random(n) < 0.1] = np.nan
        features.append(Feature(f"num{i}", FeatureType.NUMERICAL))
        columns.append(col)
        signal += np.where(np.isnan(col), 0.0, col)

    for i in range(n_cat):
        k = int(rng.integers(2, 7))
        col = rng.integers(0, k, size=n)
        col[rng.random(n) < 0.1] = sf.MISSING_CATEGORY
        vocab = make_vocab([f"c{i}v{j}" for j in range(k)])
        features.append(Feature(f"cat{i}", FeatureType.CATEGORICAL, vocab))
        columns.append(col.astype(np.int64))
        signal += np.where(col >= 0, (col % 2) * 0.8, 0.0)

    set_vocabs = []
    for i in range(n_set):
        m = int(rng.integers(5, 16))
        vocab = make_vocab([f"s{i}w{j}" for j in range(m)])
        set_vocabs.append(vocab)
        col = []
        for r in range(n):
            if rng.random() < 0.06:
                col.append(None)
            else:
                size = int(rng.integers(0, min(6, m)))
                ids = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
                col.append(ids)
                if ids and min(ids) < m // 3:
                    signal[r] += 1.0
        features.append(Feature(f"set{i}", FeatureType.CATEGORICAL_SET, vocab))
        columns.append(col)

    noise = rng.normal(scale=0.8, size=n)
    labels = (signal + noise > np.median(signal + noise)).astype(np.int64)
    if not with_labels:
        labels = np.zeros(n, dtype=np.int64)
    if labels.min() == labels.max():
        labels[: n // 2] = 1 - labels[0]
    ds = sf.Dataset.create(features, columns, labels)
    return ds, set_vocabs


def random_rows_for(dataset, seed, n=1000):
    """Evaluation rows for a schema: empty sets, missing values, and
    out-of-vocabulary tokens (dropped through the encode path) included."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        row = []
        for feat in dataset.features:
            if feat.ftype == FeatureType.NUMERICAL:
                row.append(np.nan if rng.random() < 0.15 else float(rng.normal()))
            elif feat.ftype == FeatureType.CATEGORICAL:
                k = len(feat.vocabulary)
                row.append(sf.MISSING_CATEGORY if rng.random() < 0.15
                           else int(rng.integers(0, k)))
            else:
                u = rng.random()
                if u < 0.1:
                    row.append(None)
                elif u < 0.25:
                    row.append(())
                else:
                    vocab = feat.vocabulary
                    size = int(rng.integers(1, 7))
                    tokens = [vocab.terms[int(rng.integers(0, len(vocab)))]
                              if rng.random() < 0.8 else f"oov{int(rng.integers(0, 5))}"
                              for _ in range(size)]
                    row.append(sf.encode_tokens(tokens, vocab))
        rows.append(tuple(row))
    return rows


def reference_leaf_words(forest, row, words_per_tree: int) -> np.ndarray:
    """The (slots,) uint64 leaf words of one row, from the trees alone: per
    tree, every leaf bit set, then for every node whose condition holds on
    the row (``conditions.evaluate``), the bits of its negative subtree's
    leaves cleared. A node's negative subtree is nodes ``i + 1`` up to its
    positive child, in preorder, and a leaf's bit is its rank among the
    tree's leaves."""
    size = 8 * words_per_tree
    data = b""
    for tree in forest.trees:
        kind = tree.kind.tolist()
        before = np.cumsum([0] + [k == sf.model.LEAF for k in kind]).tolist()
        bits = (1 << before[-1]) - 1
        for i, k in enumerate(kind):
            if k != sf.model.LEAF and evaluate(tree.condition(i), row):
                lo, hi = before[i + 1], before[int(tree.positive[i])]
                bits &= ~(((1 << (hi - lo)) - 1) << lo)
        data += bits.to_bytes(size, "little")
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


def stack_trees(trees) -> tuple[sf.Tree, np.ndarray]:
    """The nodes of ``trees`` one after another as one ``Tree``, positive
    children and id ends shifted to count from the first node and id, and the
    index of each tree's first node followed by the node count: the copy the
    load checks and the compiler made before a forest held its nodes this
    way, kept as a reference for ``model.forest_nodes``."""
    sizes = np.array([len(tree.kind) for tree in trees], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    id_starts = np.cumsum([0] + [len(tree.ids) for tree in trees])
    empty = sf.Tree(*(np.empty(0, dtype) for dtype in
                      (np.int8, np.int64, np.float64, np.int64, np.float64, np.int64, np.int64)))
    kind, feature, threshold, positive, value, id_ends, ids = (
        np.concatenate(arrays) for arrays in zip(*(t.arrays() for t in [empty, *trees])))
    positive = np.where(positive >= 0, positive + np.repeat(starts[:-1], sizes), -1)
    id_ends += np.repeat(id_starts[:-1], sizes)
    return sf.Tree(kind, feature, threshold, positive, value, id_ends, ids), starts


def forest_to_dict(forest: sf.DecisionForest) -> dict:
    """The version 1 model document of ``forest``, one nested object per
    node, each tree built bottom-up from its node arrays: the format the
    library wrote before version 2, and still reads."""
    def tree_to_dict(tree):
        # in reverse preorder, both children of a node are built before it
        kind, feature, threshold, positive, value, id_ends, ids = (a.tolist()
                                                                   for a in tree.arrays())
        nodes = [None] * len(kind)
        for i in reversed(range(len(kind))):
            if kind[i] == LEAF:
                nodes[i] = {"leaf": value[i]}
                continue
            split = {"kind": _KIND_NAMES[kind[i]], "feature": feature[i]}
            if kind[i] == NUMERICAL_GE:
                split["threshold"] = threshold[i]
            else:
                split["values" if kind[i] == CATEGORY_IN else "mask"] = \
                    ids[id_ends[i - 1] if i else 0:id_ends[i]]
            nodes[i] = {"split": split, "negative": nodes[i + 1], "positive": nodes[positive[i]]}
        return nodes[0]

    return {
        "format": MODEL_FORMAT,
        "version": 1,
        "kind": forest.kind,
        "initial_score": float(forest.initial_score),
        "features": [f.to_dict() for f in forest.features],
        "trees": [tree_to_dict(t) for t in forest.trees],
        "metadata": forest.metadata,
    }


def column(trees: dict, name: str, dtype: str) -> np.ndarray:
    """Column ``name`` of a version 2 ``trees`` object, decoded."""
    return np.frombuffer(base64.b64decode(trees[name]), dtype).copy()


def set_column(trees: dict, name: str, values, dtype: str) -> None:
    """Write ``values`` as column ``name`` of a version 2 ``trees`` object."""
    trees[name] = base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def _bytes_fault(name: str, change):
    """A fault that rewrites column ``name``'s decoded bytes with ``change``."""
    def fault(trees):
        trees[name] = base64.b64encode(change(base64.b64decode(trees[name]))).decode("ascii")
    return fault


def _column_fault(name: str, dtype: str, change):
    """A fault that rewrites column ``name``'s decoded array with ``change``."""
    def fault(trees):
        values = column(trees, name, dtype)
        change(values)
        set_column(trees, name, values, dtype)
    return fault


def _shift_id_count(ids):
    ids[1] += ids[0]
    ids[0] = 0


# faults in the ``trees`` object of a version 2 model document of at least two
# trees and two set or categorical nodes, each with what the refusal says
COLUMN_FAULTS = {
    "not_base64": (lambda t: t.update(kind=t["kind"] + "$"), "not base64"),
    "not_ascii": (lambda t: t.update(ids="ü" + t["ids"]), "not base64"),
    "not_a_string": (lambda t: t.update(ids=[0, 1]), "must be a base64 string"),
    "missing": (lambda t: t.pop("feature"), "malformed model document: 'feature'"),
    "partial_item": (_bytes_fault("feature", lambda b: b + b"\0"), "not whole int32 items"),
    "short": (_bytes_fault("value", lambda b: b[:-8]), "'value' holds"),
    "long": (_bytes_fault("threshold", lambda b: b + bytes(8)), "'threshold' holds"),
    "kind_4": (_column_fault("kind", "<i1", lambda k: k.__setitem__(-1, 4)), "node kinds"),
    "kind_negative": (_column_fault("kind", "<i1", lambda k: k.__setitem__(0, -1)), "node kinds"),
    "counts_floats": (lambda t: t.update(node_counts=[float(c) for c in t["node_counts"]]),
                      "node_counts"),
    "counts_bools": (lambda t: t.update(node_counts=[True] * len(t["node_counts"])),
                     "node_counts"),
    "counts_zero": (lambda t: t["node_counts"].insert(0, 0), "node_counts"),
    "counts_not_a_list": (lambda t: t.update(node_counts=str(t["node_counts"])), "node_counts"),
    "counts_sum": (lambda t: t["node_counts"].__setitem__(-1, t["node_counts"][-1] + 1),
                   "node_counts"),
    "shape": (lambda t: t.update(node_counts=[t["node_counts"][0] + t["node_counts"][1],
                                              *t["node_counts"][2:]]), "whole trees"),
    "id_count_zero": (_column_fault("id_count", "<i4", _shift_id_count), "id_count"),
    "id_count_negative": (_column_fault("id_count", "<i4", lambda c: c.__setitem__(0, -c[0])),
                          "id_count"),
    "id_count_sum": (_bytes_fault("ids", lambda b: b[:-8]), "id_count"),
    "leaf_not_finite": (_column_fault("value", "<f8", lambda v: v.__setitem__(0, math.inf)),
                        "must be finite"),
    "feature_past_schema": (_column_fault("feature", "<i4", lambda f: f.__setitem__(0, 99)),
                            "schema has"),
    "id_out_of_order": (_column_fault("ids", "<i8", lambda i: i.__setitem__(0, -1)),
                        "strictly increasing"),
}


def random_nested_tree(rng, n_leaves: int, features) -> sf.Leaf | sf.Internal:
    """A random nested tree of ``n_leaves`` leaves whose splits test random
    ``features``: a threshold, or up to three of the feature's ids."""
    if n_leaves == 1:
        return sf.Leaf(float(rng.normal()))
    f = int(rng.integers(len(features)))
    if features[f].ftype == FeatureType.NUMERICAL:
        condition = sf.NumericalGE(f, float(rng.normal()))
    else:
        size = len(features[f].vocabulary)
        ids = sorted(rng.choice(size, size=int(rng.integers(1, min(3, size) + 1)),
                                replace=False).tolist())
        condition = (sf.CategoryIn(f, frozenset(ids))
                     if features[f].ftype == FeatureType.CATEGORICAL
                     else sf.SetIntersects(f, tuple(ids)))
    k = int(rng.integers(1, n_leaves))
    return sf.Internal(condition, random_nested_tree(rng, k, features),
                       random_nested_tree(rng, n_leaves - k, features))


def key_row(features, feature: int, key) -> tuple:
    """A row holding only ``key`` at ``feature``: the value, category or
    one-term set; every other value is missing."""
    missing = {FeatureType.NUMERICAL: float("nan"), FeatureType.CATEGORICAL: MISSING_CATEGORY,
               FeatureType.CATEGORICAL_SET: None}
    row = [missing[f.ftype] for f in features]
    row[feature] = (key,) if features[feature].ftype == FeatureType.CATEGORICAL_SET else key
    return tuple(row)


# The walkers over nested Leaf and Internal nodes that the model used before
# a tree became preorder node arrays, kept as references for the arrays'
# walkers, the reference ``predict`` and the compiler's leaf spans.
def route(tree, row) -> sf.Leaf:
    node = tree
    while isinstance(node, sf.Internal):
        node = node.positive if evaluate(node.condition, row) else node.negative
    return node


def count_leaves(tree) -> int:
    if isinstance(tree, sf.Leaf):
        return 1
    return count_leaves(tree.negative) + count_leaves(tree.positive)


def count_nodes(tree) -> int:
    if isinstance(tree, sf.Leaf):
        return 1
    return 1 + count_nodes(tree.negative) + count_nodes(tree.positive)


def leaf_depths(tree, depth=0) -> list[int]:
    if isinstance(tree, sf.Leaf):
        return [depth]
    return leaf_depths(tree.negative, depth + 1) + leaf_depths(tree.positive, depth + 1)


def tree_leaf_depths(tree: sf.Tree) -> list[int]:
    """The depths of a ``Tree``'s leaves in node order, the root at 0."""
    return node_depths(tree)[tree.kind == LEAF].tolist()


def leaf_values(tree) -> list[float]:
    if isinstance(tree, sf.Leaf):
        return [tree.value]
    return leaf_values(tree.negative) + leaf_values(tree.positive)


def max_depth(tree) -> int:
    if isinstance(tree, sf.Leaf):
        return 0
    return 1 + max(max_depth(tree.negative), max_depth(tree.positive))


def negative_spans(tree, lo=0) -> list[tuple[int, int]]:
    """(first leaf, leaves of the negative subtree) of every internal node in
    preorder, leaves counted left to right from 0: the compiler's recursive
    walk."""
    if isinstance(tree, sf.Leaf):
        return []
    n_left = count_leaves(tree.negative)
    return [(lo, n_left)] + negative_spans(tree.negative, lo) \
        + negative_spans(tree.positive, lo + n_left)


def build_complete_tree(depth, leaf_values=None):
    """Complete binary tree of the given depth over a numerical feature."""
    counter = {"leaf": 0}

    def build(d):
        if d == depth:
            value = (leaf_values[counter["leaf"]]
                     if leaf_values is not None else float(counter["leaf"]))
            counter["leaf"] += 1
            return sf.Leaf(value)
        return sf.Internal(sf.NumericalGE(0, float(d)), build(d + 1), build(d + 1))

    return build(0)


def gain_from_stats(w, wt, pos_w, pos_wt, objective="classification"):
    """``gain_scorer``'s gains of one node, clipped at 0; ``pos_w`` and
    ``pos_wt`` are scalars or aligned arrays of candidate branches. The
    reference kernel of the oracles here: the splitters call ``gain_scorer``
    unclipped."""
    pos_w = np.asarray(pos_w, dtype=np.float64)
    pos_wt = np.asarray(pos_wt, dtype=np.float64)
    gain = gain_scorer(w, wt, pos_w.shape, objective)(pos_w, pos_wt)
    # children never exceed the parent's impurity; negatives are float noise
    return np.maximum(gain, 0.0)


# The per-node numerical and categorical searches as they were before the
# splitters took a sorted order or a category coding: every call sorts its
# values or runs np.unique over them, and scores each candidate set through
# gain_from_stats. The splitters must match them bit for bit.
def reference_numerical_split(values, targets, weights, feature, min_examples_per_leaf=1,
                              objective="classification"):
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    n = len(values)
    present = ~np.isnan(values)
    if present.sum() < 2:
        return None
    order = np.argsort(values[present], kind="stable")
    sv = values[present][order]
    cw = np.cumsum(weights[present][order])
    cwt = np.cumsum(wt[present][order])
    bounds = np.flatnonzero(sv[1:] != sv[:-1]) + 1
    if bounds.size == 0:
        return None
    thresholds = (sv[bounds - 1] + sv[bounds]) / 2.0
    n_pos = sv.size - bounds
    n_neg = n - n_pos
    valid = (n_pos >= min_examples_per_leaf) & (n_neg >= min_examples_per_leaf)
    if not valid.any():
        return None
    pos_w = cw[-1] - cw[bounds - 1]
    pos_wt = cwt[-1] - cwt[bounds - 1]
    gains = gain_from_stats(weights.sum(), wt.sum(), pos_w, pos_wt, objective)
    gains[~valid] = -np.inf
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    threshold = float(thresholds[best])
    return sf.SplitCandidate(sf.NumericalGE(feature, threshold), float(gains[best]),
                             int(n_pos[best]), int(n_neg[best]),
                             positive=present & (values >= threshold))


def reference_categorical_split(values, targets, weights, feature, min_examples_per_leaf=1,
                                objective="classification"):
    values = np.asarray(values, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    n = len(values)
    present = values != MISSING_CATEGORY
    cats, inv = np.unique(values[present], return_inverse=True)
    if cats.size < 2:
        return None
    c_w = np.bincount(inv, weights=weights[present], minlength=cats.size)
    c_wt = np.bincount(inv, weights=wt[present], minlength=cats.size)
    c_n = np.bincount(inv, minlength=cats.size)
    order = np.lexsort((cats, c_wt / c_w))
    pre_w = np.cumsum(c_w[order])
    pre_wt = np.cumsum(c_wt[order])
    pre_n = np.cumsum(c_n[order])
    w_total, wt_total = weights.sum(), wt.sum()
    n_missing = int(n - present.sum())

    cuts = np.arange(1, cats.size)
    variants = [("suffix", pre_w[-1] - pre_w[cuts - 1], pre_wt[-1] - pre_wt[cuts - 1],
                 pre_n[-1] - pre_n[cuts - 1])]
    if n_missing > 0:
        variants.append(("prefix", pre_w[cuts - 1], pre_wt[cuts - 1], pre_n[cuts - 1]))

    best = None
    for side, pos_w, pos_wt, pos_n in variants:
        n_neg = n - pos_n
        valid = (pos_n >= min_examples_per_leaf) & (n_neg >= min_examples_per_leaf)
        if not valid.any():
            continue
        gains = gain_from_stats(w_total, wt_total, pos_w, pos_wt, objective)
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] <= 0.0 or (best is not None and gains[i] <= best[0]):
            continue
        cut = int(cuts[i])
        chosen = order[cut:] if side == "suffix" else order[:cut]
        best = (float(gains[i]), chosen, int(pos_n[i]), int(n_neg[i]))
    if best is None:
        return None
    gain, chosen, n_pos, n_neg = best
    member = np.zeros(cats.size, dtype=bool)
    member[chosen] = True
    positive = np.zeros(n, dtype=bool)
    positive[present] = member[inv]
    return sf.SplitCandidate(sf.CategoryIn(feature, frozenset(cats[chosen].tolist())), gain,
                             n_pos, n_neg, positive=positive)


def enumerate_mask_gains(sets, targets, weights, vocab_size, objective="classification"):
    """Oracle: gains of every nonempty mask over a small vocabulary.

    Examples are turned into integer bitsets and every mask in
    [1, 2**vocab_size) is scored from the branch statistics its bit
    intersection induces. Returns (masks, gains) aligned arrays.
    """
    bits = np.array([sum(1 << t for t in x) for x in sets], dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    wt = w * np.asarray(targets, dtype=np.float64)
    masks = np.arange(1, 1 << vocab_size, dtype=np.int64)
    inter = (bits[None, :] & masks[:, None]) != 0
    gains = gain_from_stats(w.sum(), wt.sum(), inter @ w, inter @ wt, objective)
    return masks, gains


def best_singleton(masks, gains, vocab_size):
    """(term id, gain) of the best single-term mask.

    Exact float comparison with ties going to the lowest id, mirroring the
    splitter's arg-max discipline."""
    best_term, best_gain = None, -1.0
    for t in range(vocab_size):
        g = float(gains[(1 << t) - 1])
        if g > best_gain:
            best_term, best_gain = t, g
    return best_term, best_gain


def golden_two_tree_forest():
    """Two trees over one set feature with vocabulary (a, b, c, d).

    Tree 0 (leaves l0, l1, l2): the root tests intersection with {c}; its
    negative child tests intersection with {b}. Tree 1 (leaves l0, l1):
    the root tests intersection with {c, d}.
    """
    vocab = make_vocab(["a", "b", "c", "d"])
    a, b, c, d = 0, 1, 2, 3
    tree0 = sf.Internal(
        sf.SetIntersects(0, (c,)),
        sf.Internal(sf.SetIntersects(0, (b,)), sf.Leaf(0.0), sf.Leaf(0.25)),
        sf.Leaf(1.0),
    )
    tree1 = sf.Internal(sf.SetIntersects(0, (c, d)), sf.Leaf(0.125), sf.Leaf(0.5))
    feature = Feature("text", FeatureType.CATEGORICAL_SET, vocab)
    forest = sf.DecisionForest(kind="rf", trees=[tree0, tree1], initial_score=0.0,
                               features=[feature], metadata={})
    return forest, (a, b, c, d)


def one_split_document(split, kind="rf"):
    """A one-tree model over a set feature with vocabulary (a, b, c) and a
    categorical feature with values (x, y); the split sends to leaf 0.1 or
    0.9."""
    return {
        "format": "setforest-model", "version": 1, "kind": kind, "initial_score": 0.0,
        "features": [
            {"name": "text", "type": "set",
             "vocabulary": {"terms": ["a", "b", "c"], "frequencies": [3, 2, 1]}},
            {"name": "colour", "type": "categorical",
             "vocabulary": {"terms": ["x", "y"], "frequencies": [2, 1]}},
        ],
        "trees": [{"split": split, "negative": {"leaf": 0.1}, "positive": {"leaf": 0.9}}],
        "metadata": {},
    }



def _xlog2x(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    np.log2(z, out=out, where=z > 0)
    out *= z
    return out


def weighted_entropy(w, w1):
    """w * H(w1/w) in bits; exactly 0 for empty or pure inputs."""
    return _xlog2x(w) - _xlog2x(w1) - _xlog2x(np.asarray(w, dtype=np.float64) - w1)


def reference_gain(w, wt, pos_w, pos_wt, objective="classification"):
    """``gain_from_stats`` as three ``weighted_entropy`` calls (classification)
    or three ``divide`` terms (regression), one node statistic at a time; the
    fused kernel must match it bit for bit."""
    w = np.asarray(w, dtype=np.float64)
    wt = np.asarray(wt, dtype=np.float64)
    pos_w = np.asarray(pos_w, dtype=np.float64)
    pos_wt = np.asarray(pos_wt, dtype=np.float64)
    neg_w = w - pos_w
    neg_wt = wt - pos_wt
    if objective == "classification":
        gain = (
            weighted_entropy(w, wt)
            - weighted_entropy(pos_w, pos_wt)
            - weighted_entropy(neg_w, neg_wt)
        ) / w
    else:
        pos_term = np.divide(pos_wt * pos_wt, pos_w,
                             out=np.zeros_like(pos_w), where=pos_w > 0)
        neg_term = np.divide(neg_wt * neg_wt, neg_w,
                             out=np.zeros_like(neg_w), where=neg_w > 0)
        gain = (pos_term + neg_term - wt * wt / w) / w
    return np.maximum(gain, 0.0)


def evaluate_column(condition: SplitCondition, dataset: Dataset, indices) -> np.ndarray:
    """Vectorised `evaluate` over ``dataset`` rows selected by ``indices``:
    every splitter's partition must equal it, and `evaluate` is its
    reference."""
    indices = np.asarray(indices)
    ftype = dataset.features[condition.feature].ftype
    col = dataset.columns[condition.feature]
    if ftype == FeatureType.NUMERICAL:
        vals = np.asarray(col)[indices]
        with np.errstate(invalid="ignore"):
            return ~np.isnan(vals) & (vals >= condition.threshold)
    if ftype == FeatureType.CATEGORICAL:
        vals = np.asarray(col)[indices]
        wanted = np.fromiter(sorted(condition.values), dtype=np.int64,
                             count=len(condition.values))
        return np.isin(vals, wanted)
    # set: look every token of the selected rows up in a table of the mask's
    # ids; a row goes positive if any of its tokens hits
    rows, terms = col.node_tokens(indices)
    hits = np.isin(terms, np.asarray(condition.mask, dtype=np.int64))
    return np.bincount(rows[hits], minlength=len(indices)) > 0


def split_gain(dataset, condition, indices=None, targets=None, objective="classification"):
    """Gain of an arbitrary condition, scored by routing every example: the
    reference the feature-specific searches must agree with."""
    if indices is None:
        indices = np.arange(dataset.n_examples)
    indices = np.asarray(indices)
    w = dataset.weights[indices]
    t = dataset.labels[indices] if targets is None else np.asarray(targets, dtype=np.float64)[indices]
    wt = w * t
    pos = evaluate_column(condition, dataset, indices)
    return float(gain_from_stats(w.sum(), wt.sum(), w[pos].sum(), wt[pos].sum(), objective))


# One set's flat encodings, row by row: the per-row functions the library
# exported before its transforms encoded whole columns, kept as references.
def bag_of_words(term_ids, vocab_size: int) -> np.ndarray:
    """Counts of each vocabulary term in the set; binary since sets dedupe."""
    out = np.zeros(vocab_size, dtype=np.float64)
    out[list(term_ids)] = 1.0
    return out


def one_hot(term_ids, vocab_size: int) -> np.ndarray:
    """Same membership vector as ``bag_of_words`` but typed categorical."""
    out = np.zeros(vocab_size, dtype=np.int64)
    out[list(term_ids)] = 1
    return out


def max_hash(term_ids, vocab: Vocabulary, seeds) -> np.ndarray:
    """Per seed, the max of ``hash64`` over the set's terms; empty set -> 0."""
    ids = list(term_ids)
    if not ids:
        return np.zeros(len(seeds), dtype=np.int64)
    return np.array(
        [max(hash64(vocab.terms[i], s) for i in ids) for s in seeds],
        dtype=np.int64,
    )


# The per-row loops the set-column transforms ran before they read the CSR
# arrays, kept as references: each maps a set feature and its column as a
# list of id tuples (None for missing) to the (Feature, column) pairs that
# replace it.
def reference_bag_of_words(feat, column):
    vocab = feat.vocabulary
    m = len(vocab)
    matrix = np.zeros((len(column), m), dtype=np.float64)
    for r, x in enumerate(column):
        if x is None:
            matrix[r, :] = np.nan
        elif x:
            matrix[r, list(x)] = 1.0
    return [
        (Feature(f"{feat.name}:{vocab.terms[j]}", FeatureType.NUMERICAL),
         matrix[:, j])
        for j in range(m)
    ]


def reference_one_hot(feat, column):
    vocab = feat.vocabulary
    m = len(vocab)
    matrix = np.zeros((len(column), m), dtype=np.int64)
    for r, x in enumerate(column):
        if x is None:
            matrix[r, :] = sf.MISSING_CATEGORY
        elif x:
            matrix[r, list(x)] = 1
    return [
        (Feature(f"{feat.name}:{vocab.terms[j]}", FeatureType.CATEGORICAL),
         matrix[:, j])
        for j in range(m)
    ]


def reference_max_hash(feat, column, seeds, treat):
    k = len(seeds)
    vocab = feat.vocabulary
    table = np.array(
        [[hash64(t, s) for s in seeds] for t in vocab.terms],
        dtype=np.int64,
    ).reshape(len(vocab), k)
    matrix = np.zeros((len(column), k), dtype=np.int64)
    missing = np.zeros(len(column), dtype=bool)
    for r, x in enumerate(column):
        if x is None:
            missing[r] = True
        elif x:
            matrix[r] = table[list(x)].max(axis=0)
    new = []
    for j in range(k):
        if treat == "categorical":
            col = matrix[:, j].copy()
            col[missing] = sf.MISSING_CATEGORY
            new.append(
                (Feature(f"{feat.name}#h{j}", FeatureType.CATEGORICAL), col))
        else:
            col = matrix[:, j].astype(np.float64)
            col[missing] = np.nan
            new.append(
                (Feature(f"{feat.name}#h{j}", FeatureType.NUMERICAL), col))
    return new


def filtering_set_mask_split(set_index, indices, targets, weights, sampling_rate=1.0,
                             rng=None, min_examples_per_leaf=1,
                             objective="classification"):
    """The greedy mask search as it ran before it zeroed the tokens of moved
    rows: after each accepted term it drops those tokens, so every pass sums
    over a shrinking token set, and it scores with ``reference_gain``.
    Returns None or (mask, gain, steps, n_positive, n_negative, positive),
    each as ``find_set_mask_split`` reports it; the new search must match
    it bit for bit."""
    rows, terms = set_index.node_tokens(indices)
    if terms.size == 0:
        return None
    counts = np.bincount(terms)
    present = np.flatnonzero(counts)
    compact = (np.cumsum(counts > 0) - 1)[terms]
    if sampling_rate < 1.0:
        keep = rng.random(present.size) < sampling_rate
        if not keep.any():
            return None
        token_keep = keep[compact]
        rows = rows[token_keep]
        compact = (np.cumsum(keep) - 1)[compact[token_keep]]
        present = present[keep]
    n_node = len(indices)
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    token_w, token_wt = weights[rows], wt[rows]
    w_total, wt_total = weights.sum(), wt.sum()
    in_pos = np.zeros(n_node, dtype=bool)
    pos_w = pos_wt = 0.0
    current_gain = 0.0
    steps = []
    while compact.size:
        ext_w = np.bincount(compact, weights=token_w, minlength=present.size)
        ext_wt = np.bincount(compact, weights=token_wt, minlength=present.size)
        ext_w += pos_w
        ext_wt += pos_wt
        gains = reference_gain(w_total, wt_total, ext_w, ext_wt, objective)
        best = int(np.argmax(gains))
        gain = float(gains[best])
        if gain <= current_gain:
            break
        in_pos[rows[compact == best]] = True
        stay = ~in_pos[rows]
        rows, compact = rows[stay], compact[stay]
        token_w, token_wt = token_w[stay], token_wt[stay]
        pos_w = float(ext_w[best])
        pos_wt = float(ext_wt[best])
        current_gain = gain
        steps.append((int(present[best]), gain))
    if not steps:
        return None
    n_pos = int(in_pos.sum())
    n_neg = n_node - n_pos
    if n_pos < min_examples_per_leaf or n_neg < min_examples_per_leaf:
        return None
    return (tuple(sorted(term for term, _ in steps)), current_gain, tuple(steps),
            n_pos, n_neg, in_pos)


# The per-row ingest that the bulk path in ``setforest.dataset`` replaced, kept
# as its reference: a regex split of each line or cell, one ``Counter.update``
# per row, a sorted id tuple per row, and the tuple-to-CSR constructor.
_ASCII_WS = re.compile(r"[ \t\n\r\f\v]+")


def reference_boosted_rows(initial_score: float, leaf_values: np.ndarray) -> np.ndarray:
    """A boosted forest's ``aggregate`` of (rows, trees) leaf values, row by
    row: ``sigmoid``'s formula with ``math.exp`` on each row's sum."""
    exp = math.exp
    return np.array([1.0 / (1.0 + exp(-x)) if x >= 0 else (e := exp(x)) / (1.0 + e)
                     for x in (leaf_values.sum(axis=-1) + initial_score).tolist()],
                    dtype=np.float64)


def reference_tokenize(text: str) -> frozenset[str]:
    return frozenset(filter(None, _ASCII_WS.split(text)))


def reference_text_examples(text: str) -> list[tuple[int, int | None, frozenset[str]]]:
    """``text_examples`` of a decoded text that holds no byte-order mark."""
    examples = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        head, tab, rest = line.partition("\t")
        label = int(head) if tab and head in ("0", "1") else None
        tokens = reference_tokenize(line if label is None else rest)
        if tokens or label is not None:
            examples.append((lineno, label, tokens))
    return examples


def reference_build_vocabulary(corpus, max_size, min_frequency) -> Vocabulary:
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(set(tokens))
    items = sorted(((t, c) for t, c in counts.items() if c >= min_frequency),
                   key=lambda tc: (-tc[1], tc[0]))[:max_size]
    return Vocabulary(tuple(t for t, _ in items), tuple(c for _, c in items))


def reference_encode_tokens(tokens, vocab: Vocabulary) -> tuple[int, ...]:
    index = vocab.index
    return tuple(sorted({index[t] for t in tokens if t in index}))


def reference_set_column(rows, vocab: Vocabulary) -> SetColumnIndex:
    """The CSR column of token rows (None for missing), one row at a time."""
    return SetColumnIndex([None if tokens is None else reference_encode_tokens(tokens, vocab)
                           for tokens in rows])


def reference_csv_set_cells(text: str, column: str) -> list[frozenset[str] | None]:
    """The token sets (None when missing) of a CSV text's set column, whose
    every cell is empty or braced."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    j = rows[0].index(column)
    return [None if row[j] == "" else reference_tokenize(row[j][1:-1]) for row in rows[1:]]
