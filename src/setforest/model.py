"""Trained forests: tree structure, reference evaluation, JSON round-trip.

A ``Tree`` is parallel per-node arrays in preorder, the layout of
scikit-learn's ``tree_``: node ``i``'s negative child is node ``i + 1`` and
``positive[i]`` names the other, so the leaves in node order put the
all-conditions-false path first. The walkers are array expressions; no tree
walk recurses. A tree written by hand as nested ``Leaf`` and ``Internal``
nodes is converted when a ``DecisionForest`` is made. Random forests store a
positive-class probability in each leaf and predict the mean over trees;
boosted ("mart") forests store additive scores with shrinkage already
multiplied in and predict the sigmoid of initial_score plus the sum over
trees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .conditions import CategoryIn, NumericalGE, SetIntersects, SplitCondition, evaluate
from .dataset import Feature, FeatureType

MODEL_FORMAT = "setforest-model"
MODEL_VERSION = 1

RF = "rf"
MART = "mart"

# the deepest tree trained or loaded, root at depth 0. No tree walk recurses,
# but the grower does, once per level, and so do json's encoder and decoder
# on the nested model document; this leaves them room under Python's default
# recursion limit
MAX_TREE_DEPTH = 512

# a node's kind: a leaf, or the kind of its condition, named as in model JSON
LEAF, NUMERICAL_GE, CATEGORY_IN, SET_INTERSECTS = range(4)
_KIND_NAMES = (None, "numerical_ge", "category_in", "set_intersects")
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES) if name}
_KIND_OF_TYPE = {FeatureType.NUMERICAL: NUMERICAL_GE, FeatureType.CATEGORICAL: CATEGORY_IN,
                 FeatureType.CATEGORICAL_SET: SET_INTERSECTS}
_UNBOUNDED = np.iinfo(np.int64).max
_NOT_FINITE = "thresholds, leaf values and the initial score must be finite numbers"


@dataclass(frozen=True, slots=True)
class Leaf:
    value: float


@dataclass(frozen=True, slots=True)
class Internal:
    condition: SplitCondition
    negative: Leaf | Internal
    positive: Leaf | Internal


@dataclass(eq=False)
class Tree:
    """One tree as per-node arrays in preorder (see the module docstring).
    Node ``i``'s ids, a set node's mask terms or a categorical node's values
    in increasing order, are ``ids[id_ends[i - 1]:id_ends[i]]`` (from 0 at
    node 0). Trees are equal when their arrays are, bit for bit."""

    kind: np.ndarray  # int8: LEAF or a condition kind
    feature: np.ndarray  # int64; -1 at a leaf
    threshold: np.ndarray  # float64; NaN except at a numerical_ge node
    positive: np.ndarray  # int64 index of the positive child; -1 at a leaf
    value: np.ndarray  # float64 leaf value; 0 at an internal node
    id_ends: np.ndarray  # int64
    ids: np.ndarray  # int64

    def condition(self, i: int) -> SplitCondition:
        """The condition of internal node ``i``."""
        kind, feature = self.kind.item(i), self.feature.item(i)
        if kind == NUMERICAL_GE:
            return NumericalGE(feature, self.threshold.item(i))
        ids = self.ids[self.id_ends.item(i - 1) if i else 0:self.id_ends.item(i)].tolist()
        return CategoryIn(feature, frozenset(ids)) if kind == CATEGORY_IN \
            else SetIntersects(feature, tuple(ids))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return _ARRAYS(self)

    def __eq__(self, other):
        return isinstance(other, Tree) and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(self.arrays(), other.arrays()))


_ARRAYS = attrgetter(*(f.name for f in fields(Tree)))  # a tree's arrays, in field order
_DTYPES = (np.int8, np.int64, np.float64, np.int64, np.float64, np.int64, np.int64)
_NO_NODES = Tree(*(np.empty(0, dtype=dtype) for dtype in _DTYPES))


class TreeBuilder:
    """Appends a tree's nodes in preorder: an internal node, its negative
    subtree, then ``positive_next`` of the node and its positive subtree."""

    def __init__(self):
        self.nodes = []  # per node: kind, feature, threshold, positive, value, id end
        self.ids = []

    def __len__(self) -> int:
        return len(self.nodes)

    def append(self, kind, feature, threshold=math.nan, ids=(), value=0.0) -> int:
        """Append one node; returns its index."""
        self.ids.extend(ids)
        self.nodes.append([kind, feature, threshold, -1, value, len(self.ids)])
        return len(self.nodes) - 1

    def leaf(self, value: float) -> int:
        return self.append(LEAF, -1, value=value)

    def split(self, condition: SplitCondition) -> int:
        if type(condition) is NumericalGE:
            return self.append(NUMERICAL_GE, condition.feature, float(condition.threshold))
        if type(condition) is CategoryIn:
            return self.append(CATEGORY_IN, condition.feature, ids=sorted(condition.values))
        return self.append(SET_INTERSECTS, condition.feature, ids=condition.mask)

    def positive_next(self, i: int) -> None:
        """The next node appended is the positive child of node ``i``."""
        self.nodes[i][3] = len(self.nodes)

    def tree(self) -> Tree:
        return Tree(*map(np.array, [*zip(*self.nodes), self.ids], _DTYPES))


def _from_nested(root: Leaf | Internal) -> Tree:
    """A nested tree's nodes in preorder, by an explicit stack."""
    nodes, stack = TreeBuilder(), [(root, -1)]
    while stack:
        node, parent = stack.pop()
        if parent >= 0:
            nodes.positive_next(parent)
        if isinstance(node, Leaf):
            nodes.leaf(node.value)
        else:
            stack += ((node.positive, nodes.split(node.condition)), (node.negative, -1))
    return nodes.tree()


@dataclass
class DecisionForest:
    kind: str  # RF | MART
    trees: list[Tree]  # a nested Leaf or Internal tree is converted on entry
    initial_score: float
    features: list[Feature]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.trees = [tree if isinstance(tree, Tree) else _from_nested(tree)
                      for tree in self.trees]


def stack_trees(trees: list[Tree]) -> tuple[Tree, np.ndarray]:
    """The nodes of ``trees`` one after another as one ``Tree``, positive
    children and id ends shifted to match, and the index of each tree's first
    node followed by the node count."""
    sizes = np.array([len(tree.kind) for tree in trees], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    id_starts = np.cumsum([0] + [len(tree.ids) for tree in trees])
    kind, feature, threshold, positive, value, id_ends, ids = (
        np.concatenate(arrays) for arrays in zip(*(t.arrays() for t in [_NO_NODES, *trees])))
    positive = np.where(positive >= 0, positive + np.repeat(starts[:-1], sizes), -1)
    id_ends += np.repeat(id_starts[:-1], sizes)
    return Tree(kind, feature, threshold, positive, value, id_ends, ids), starts


def node_depths(tree: Tree) -> np.ndarray:
    """Every node's depth, the root's 0, by pointer jumping: each pass adds
    the depth a node's ancestor has reached so far and jumps to that
    ancestor's, so ``log2(depth)`` passes suffice. Takes any tree whose
    children come after their parents, a ``stack_trees`` forest too."""
    internal = np.flatnonzero(tree.kind != LEAF)
    up = np.full(len(tree.kind), -1, dtype=np.int64)
    up[internal + 1] = up[tree.positive[internal]] = internal
    depth = (up >= 0).astype(np.int64)
    while (live := np.flatnonzero(up >= 0)).size:
        depth[live] += depth[up[live]]
        up[live] = up[up[live]]
    return depth


def count_leaves(tree: Tree) -> int:
    return int(np.count_nonzero(tree.kind == LEAF))


def count_nodes(tree: Tree) -> int:
    return len(tree.kind)


def leaf_depths(tree: Tree) -> list[int]:
    """Depths of leaves left-to-right; the root sits at depth 0."""
    return node_depths(tree)[tree.kind == LEAF].tolist()


def leaf_values(tree: Tree) -> list[float]:
    return tree.value[tree.kind == LEAF].tolist()


def max_depth(tree: Tree) -> int:
    return int(node_depths(tree).max())


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def leaf_index(tree: Tree, row: tuple) -> int:
    """The node index of the leaf ``row`` reaches from the root, each
    node's condition passed to ``conditions.evaluate``. A tree's conditions
    (None at a leaf) and positive children are built on its first walk and
    kept on it, apart from its arrays, so they stay out of ``arrays()`` and
    equality; a tree's arrays do not change once it is built."""
    walk = getattr(tree, "_walk", None)
    if walk is None:
        walk = tree._walk = ([None if kind == LEAF else tree.condition(i)
                              for i, kind in enumerate(tree.kind.tolist())],
                             tree.positive.tolist())
    conditions, positive = walk
    i = 0
    while (condition := conditions[i]) is not None:
        i = positive[i] if evaluate(condition, row) else i + 1
    return i


def aggregate(kind: str, initial_score: float, leaf_values: np.ndarray):
    """Combine per-tree leaf values; shared by every evaluator so that the
    floating-point summation order is identical across them. One row of
    values gives a float; a C-contiguous (rows, trees) array gives a float64
    array with each row's float, bit for bit: a boosted forest's rows apply
    ``sigmoid``'s formula inline, in one pass over the row sums."""
    if leaf_values.ndim == 1:  # mean's and sum's own reduction, without their wrappers
        total = np.add.reduce(leaf_values)
        if kind == RF:  # a float64 over the count, as mean divides: NaN with no trees
            return float(total / len(leaf_values))
        return sigmoid(initial_score + float(total))
    if kind == RF:
        return leaf_values.mean(axis=-1)
    # sigmoid's own formula inline, with math.exp, not np.exp: libm's bits
    # are the reference
    exp = math.exp
    return np.array([1.0 / (1.0 + exp(-x)) if x >= 0 else (e := exp(x)) / (1.0 + e)
                     for x in (leaf_values.sum(axis=-1) + initial_score).tolist()],
                    dtype=np.float64)


def predict(forest: DecisionForest, row: tuple) -> float:
    """Reference top-down evaluation; returns a probability."""
    if len(row) != len(forest.features):
        raise ValueError(
            f"row has {len(row)} values, schema has {len(forest.features)}")
    values = np.fromiter(
        (tree.value[leaf_index(tree, row)] for tree in forest.trees),
        dtype=np.float64,
        count=len(forest.trees),
    )
    return aggregate(forest.kind, forest.initial_score, values)


def _tree_to_dict(tree: Tree) -> dict:
    """The nested document of ``tree``, built bottom-up: in reverse preorder,
    both children of a node are built before it."""
    kind, feature, threshold, positive, value, id_ends, ids = (a.tolist() for a in tree.arrays())
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


def _parse_tree(document, n_features: int) -> Tree:
    """One tree of a model document, read like ``_from_nested``, with its
    fields' types checked: features and ids must be JSON ints, thresholds and
    leaf values JSON numbers (not bools, not strings). ``_check_trees``
    checks their values."""
    nodes, stack = TreeBuilder(), [(document, -1)]
    while stack:
        node, parent = stack.pop()
        if parent >= 0:
            nodes.positive_next(parent)
        if "leaf" in node:
            nodes.leaf(node["leaf"])
            continue
        split = node["split"]
        kind = _KIND_CODES.get(split["kind"])
        if kind is None:
            raise ValueError(f"unknown condition kind {split['kind']!r}")
        numerical = kind == NUMERICAL_GE
        i = nodes.append(kind, split["feature"], split["threshold"] if numerical else math.nan,
                         () if numerical else split["values" if kind == CATEGORY_IN else "mask"])
        stack += ((node["positive"], i), (node["negative"], -1))
    _, features, thresholds, _, values, _ = zip(*nodes.nodes)
    if set(map(type, features)) != {int}:
        feature = next(f for f in features if type(f) is not int)
        raise ValueError(f"a split on feature {feature!r}, but the schema has "
                         f"{n_features} features")
    if not set(map(type, nodes.ids)) <= {int}:
        raise ValueError("term ids and values must be integers")
    if not {*map(type, values), *map(type, thresholds)} <= {int, float}:
        raise ValueError(_NOT_FINITE)
    return nodes.tree()


def _check_trees(trees: list[Tree], features: list[Feature]) -> None:
    """Check the parsed trees against their schema, in array passes over all
    their nodes: every split's feature in the schema and of its kind's type,
    every id list non-empty, strictly increasing and inside its feature's
    vocabulary (any non-negative int where there is none), finite thresholds
    and leaf values, and no leaf deeper than ``MAX_TREE_DEPTH``. Raises
    ``ValueError`` naming the first bad node."""
    nodes, _ = stack_trees(trees)
    inner = np.flatnonzero(nodes.kind != LEAF)
    kind, feature = nodes.kind[inner], nodes.feature[inner]
    # a feature past the schema reads the LEAF at the end, which no split is
    kinds = np.array([_KIND_OF_TYPE[f.ftype] for f in features] + [LEAF], dtype=np.int8)
    known = (feature >= 0) & (feature < len(features))
    bad = np.flatnonzero(kinds[np.where(known, feature, -1)] != kind)
    if bad.size:
        name, f = _KIND_NAMES[kind[bad[0]]], feature[bad[0]]
        raise ValueError(f"{name} split on {features[f].ftype.value} feature {f}"
                         if known[bad[0]] else f"{name} split on feature {f}, "
                         f"but the schema has {len(features)} features")
    ends, ids = nodes.id_ends, nodes.ids
    counts = np.diff(ends, prepend=0)
    # each feature's largest id, then 0 for a leaf's feature -1: it has no ids
    bounds = np.array([_UNBOUNDED if f.vocabulary is None else len(f.vocabulary) - 1
                       for f in features] + [0], dtype=np.int64)
    rising = np.ones(len(ids), dtype=bool)
    rising[1:] = ids[1:] > ids[:-1]
    rising[(ends - counts)[counts > 0]] = True  # the first id of every node
    largest = np.repeat(bounds[nodes.feature], counts)
    bad_ids = np.flatnonzero((ids < 0) | ~rising | (ids > largest))
    bad = np.union1d(inner[(kind != NUMERICAL_GE) & (counts[inner] == 0)],
                     np.searchsorted(ends, bad_ids, side="right"))
    if bad.size:
        i = bad[0]
        raise ValueError(f"feature {nodes.feature[i]}: {ids[ends[i] - counts[i]:ends[i]].tolist()}"
                         " is not a non-empty, strictly increasing list of ids in its vocabulary")
    if not (np.isfinite(nodes.value[nodes.kind == LEAF]).all()
            and np.isfinite(nodes.threshold[nodes.kind == NUMERICAL_GE]).all()):
        raise ValueError(_NOT_FINITE)
    if node_depths(nodes).max(initial=0) > MAX_TREE_DEPTH:
        raise ValueError(f"a tree is deeper than {MAX_TREE_DEPTH}")


def forest_to_dict(forest: DecisionForest) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": forest.kind,
        "initial_score": float(forest.initial_score),
        "features": [f.to_dict() for f in forest.features],
        "trees": [_tree_to_dict(t) for t in forest.trees],
        "metadata": forest.metadata,
    }


def forest_from_dict(data: dict) -> DecisionForest:
    """Parse a model document, validating it against its own schema: an
    object of the format and version, the forest kind, every tree (see
    ``_parse_tree`` and ``_check_trees``) and at least one for a random
    forest, a finite number for the initial score, and an object of
    metadata. Raises ``ValueError``."""
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ValueError("not a setforest model document")
    if data.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {data.get('version')!r}")
    if data.get("kind") not in (RF, MART):
        raise ValueError(f"unknown forest kind {data.get('kind')!r}")
    if not isinstance(data.get("metadata", {}), dict):
        raise ValueError("the model's metadata must be an object")
    try:
        features = [Feature.from_dict(f) for f in data["features"]]
        initial_score = data["initial_score"]
        finite = type(initial_score) in (int, float) and math.isfinite(initial_score)
        trees = [_parse_tree(t, len(features)) for t in data["trees"]]
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from None
    if not finite:
        raise ValueError(_NOT_FINITE)
    if data["kind"] == RF and not trees:
        raise ValueError("a random forest needs at least one tree")  # its mean is NaN
    _check_trees(trees, features)
    return DecisionForest(
        kind=data["kind"],
        trees=trees,
        initial_score=float(initial_score),
        features=features,
        metadata=data.get("metadata", {}),
    )


def forest_to_json(forest: DecisionForest) -> str:
    """Canonical JSON text; serialising the same forest twice is
    byte-identical, and serialise -> parse -> serialise is the identity."""
    return json.dumps(forest_to_dict(forest), indent=1)


def forest_from_json(text: str) -> DecisionForest:
    return forest_from_dict(json.loads(text))


def save_forest(forest: DecisionForest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(forest_to_json(forest))
        fh.write("\n")


def load_forest(path) -> DecisionForest:
    with open(path, "r", encoding="utf-8") as fh:
        return forest_from_json(fh.read())
