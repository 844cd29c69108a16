"""Trained forests: tree structure, reference evaluation, JSON round-trip.

A forest's nodes are parallel per-node arrays in preorder, the layout of
scikit-learn's ``tree_`` widened to the ensemble: one ``Tree`` of every
tree's nodes, tree after tree. In a tree, node ``i``'s negative child is
node ``i + 1`` and ``positive[i]`` names the other, so the leaves in node
order put the all-conditions-false path first. Positive children and id
ends count from their tree's first node and id, so each of
``forest.trees`` is a ``Tree`` of slices of the forest's arrays, with no
copy; ``forest_nodes`` shifts them to count across the forest. A tree grown
or written as nested ``Leaf`` and ``Internal`` nodes is read from its
version 1 document, and ``DecisionForest`` concatenates the trees it is
given once. No tree walk recurses. Random forests store a positive-class
probability in each leaf and predict the mean over trees; boosted ("mart")
forests store additive scores with shrinkage already multiplied in and
predict the sigmoid of initial_score plus the sum over trees.

Model JSON version 2 holds the nodes as flat columns in preorder, each the
base64 of a fixed little-endian dtype (``_COLUMNS``): every node's ``kind``
(int8), each internal node's ``feature`` (int32), each ``numerical_ge``
node's ``threshold`` (float64), each leaf's ``value`` (float64), each set
and categorical node's ``id_count`` (int32), and their ``ids`` (int64: a
max-hash categorical value takes 63 bits), with each tree's node count. The
other arrays are derived, not stored: positive children from the kinds
(``_read_columns``), id ends from the counts, and the NaN thresholds, zero
inner values and -1 features. So a load is ``json.loads`` of a small
document, one ``np.frombuffer`` per column and array checks, with no walk
over nodes. Version 1, one nested object per node, is still read but no
longer written. Either version's reader refuses a key repeated in any
object.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .conditions import CategoryIn, NumericalGE, SetIntersects, SplitCondition, evaluate
from .dataset import Feature, FeatureType

MODEL_FORMAT = "setforest-model"
MODEL_VERSION = 2  # the version written; version 1 is still read

RF = "rf"
MART = "mart"

# the deepest tree trained or loaded, root at depth 0. No tree walk recurses,
# but the grower does, once per level, and so does json's scanner on each
# nested tree of a version 1 document; this leaves them room under Python's
# default recursion limit. A version 2 document nests no trees, but the
# bound holds for every model, so that any model loaded can be grown and
# written as version 1 too
MAX_TREE_DEPTH = 512

# a node's kind: a leaf, or the kind of its condition, named as in model JSON
LEAF, NUMERICAL_GE, CATEGORY_IN, SET_INTERSECTS = range(4)
_KIND_NAMES = (None, "numerical_ge", "category_in", "set_intersects")
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES) if name}
_KIND_OF_TYPE = {FeatureType.NUMERICAL: NUMERICAL_GE, FeatureType.CATEGORICAL: CATEGORY_IN,
                 FeatureType.CATEGORICAL_SET: SET_INTERSECTS}
_UNBOUNDED = np.iinfo(np.int64).max
_NOT_FINITE = "thresholds, leaf values and the initial score must be finite numbers"
# the version 2 columns, in the order written, and their dtypes
_COLUMNS = {"kind": "<i1", "feature": "<i4", "threshold": "<f8", "value": "<f8",
            "id_count": "<i4", "ids": "<i8"}


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


def tree_from_nested(root: Leaf | Internal) -> Tree:
    """The ``Tree`` of a nested tree, read from its version 1 document, filled
    in from the root down by an explicit stack. Its numbers are made JSON's
    ints and floats, so the reader's type checks hold."""
    document = {}
    stack = [(root, document)]
    while stack:
        node, into = stack.pop()
        if isinstance(node, Leaf):
            into["leaf"] = float(node.value)
            continue
        c, f = node.condition, int(node.condition.feature)
        if type(c) is NumericalGE:
            split = {"kind": "numerical_ge", "feature": f, "threshold": float(c.threshold)}
        elif type(c) is CategoryIn:
            split = {"kind": "category_in", "feature": f, "values": sorted(map(int, c.values))}
        else:
            split = {"kind": "set_intersects", "feature": f, "mask": list(map(int, c.mask))}
        into.update(split=split, negative={}, positive={})
        stack += ((node.positive, into["positive"]), (node.negative, into["negative"]))
    return _parse_trees([document], 0)[0]


@dataclass
class DecisionForest:
    kind: str  # RF | MART
    trees: list[Tree]  # slices of nodes (see the module docstring)
    initial_score: float
    features: list[Feature]
    metadata: dict = field(default_factory=dict)
    # every tree's nodes; each tree's first node, then the node count (the
    # JSON reader gives both); each tree's first id, then the id count
    nodes: Tree | None = field(default=None, repr=False, compare=False)
    starts: np.ndarray | None = field(default=None, repr=False, compare=False)
    id_starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nodes is None:
            trees = [t if isinstance(t, Tree) else tree_from_nested(t) for t in self.trees]
            self.nodes = Tree(*map(np.concatenate, zip(*(t.arrays() for t in [_NO_NODES, *trees]))))
            self.starts = np.cumsum([0] + [len(tree.kind) for tree in trees])
        # a tree's last id end is its id count
        self.id_starts = np.cumsum(np.append(0, self.nodes.id_ends[self.starts[1:] - 1]))
        *arrays, ids = self.nodes.arrays()
        self.trees = [Tree(*(a[s:e] for a in arrays), ids[i:j]) for s, e, i, j in zip(
            self.starts.tolist(), self.starts[1:].tolist(), self.id_starts.tolist(),
            self.id_starts[1:].tolist())]


def forest_nodes(forest: DecisionForest) -> Tree:
    """Every node of ``forest`` as one ``Tree``, its positive children and id
    ends counted from the forest's first node and id; no other array is new."""
    nodes, starts = forest.nodes, forest.starts
    sizes = np.diff(starts)
    positive = np.where(nodes.positive >= 0, nodes.positive + np.repeat(starts[:-1], sizes), -1)
    return Tree(nodes.kind, nodes.feature, nodes.threshold, positive, nodes.value,
                nodes.id_ends + np.repeat(forest.id_starts[:-1], sizes), nodes.ids)


def node_depths(tree: Tree) -> np.ndarray:
    """Every node's depth, the root's 0, by pointer jumping: each pass adds
    the depth a node's ancestor has reached so far and jumps to that
    ancestor's, so ``log2(depth)`` passes suffice. Takes any tree whose
    children come after their parents, a ``forest_nodes`` forest too."""
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
    ``sigmoid``'s formula to all row sums at once."""
    if leaf_values.ndim == 1:  # mean's and sum's own reduction, without their wrappers
        total = np.add.reduce(leaf_values)
        if kind == RF:  # a float64 over the count, as mean divides: NaN with no trees
            return float(total / len(leaf_values))
        return sigmoid(initial_score + float(total))
    if kind == RF:
        return leaf_values.mean(axis=-1)
    # sigmoid's own formula on every row sum, with math.exp, not np.exp:
    # libm's bits are the reference. exp(-|x|) is the exp of either branch
    x = leaf_values.sum(axis=-1) + initial_score
    e = np.fromiter(map(math.exp, np.negative(np.abs(x)).tolist()), dtype=np.float64,
                    count=len(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def _parse_trees(documents, n_features: int) -> tuple[Tree, np.ndarray]:
    """Every nested tree of a version 1 model document, walked by an
    explicit stack into one set of node arrays, with each tree's fields'
    types checked: features and ids must be JSON ints, thresholds and leaf
    values JSON numbers (not bools, not strings). ``_check_trees`` checks
    their values. Returns the nodes and each tree's first node followed by
    the node count."""
    columns = kind, feature, threshold, positive, value, id_ends, ids = tuple([] for _ in _DTYPES)
    trees = [_NO_NODES.arrays()]
    for document in documents:
        stack = [(document, -1)]
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                positive[parent] = len(kind)
            if "leaf" in node:
                code, f, t, v = LEAF, -1, math.nan, node["leaf"]
            else:
                split = node["split"]
                code = _KIND_CODES.get(split["kind"])
                if code is None:
                    raise ValueError(f"unknown condition kind {split['kind']!r}")
                f, t, v = split["feature"], math.nan, 0.0
                if code == NUMERICAL_GE:
                    t = split["threshold"]
                else:
                    ids.extend(split["values" if code == CATEGORY_IN else "mask"])
                stack += ((node["positive"], len(kind)), (node["negative"], -1))
            kind.append(code)
            feature.append(f)
            threshold.append(t)
            positive.append(-1)
            value.append(v)
            id_ends.append(len(ids))
        if set(map(type, feature)) != {int}:
            f = next(f for f in feature if type(f) is not int)
            raise ValueError(f"a split on feature {f!r}, but the schema has {n_features} features")
        if not set(map(type, ids)) <= {int}:
            raise ValueError("term ids and values must be integers")
        if not {*map(type, value), *map(type, threshold)} <= {int, float}:
            raise ValueError(_NOT_FINITE)
        trees.append([np.array(column, dtype) for column, dtype in zip(columns, _DTYPES)])
        for column in columns:
            column.clear()
    starts = np.cumsum([0] + [len(arrays[0]) for arrays in trees[1:]])
    return Tree(*map(np.concatenate, zip(*trees))), starts


def _check_trees(forest: DecisionForest) -> None:
    """Check a parsed forest against its schema, in array passes over all
    its nodes: every split's feature in the schema and of its kind's type,
    every id list non-empty, strictly increasing and inside its feature's
    vocabulary (any non-negative int where there is none), finite thresholds
    and leaf values, and no leaf deeper than ``MAX_TREE_DEPTH``. Raises
    ``ValueError`` naming the first bad node."""
    nodes, features = forest_nodes(forest), forest.features
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
    firsts = ends - counts
    # a node's ids rise from at least 0 to at most its feature's largest id
    largest = np.array([_UNBOUNDED if f.vocabulary is None else len(f.vocabulary) - 1
                        for f in features], dtype=np.int64)
    held = np.flatnonzero(counts)
    falls = np.flatnonzero(ids[1:] <= ids[:-1]) + 1
    fell = np.searchsorted(ends, falls, side="right")
    bad = np.concatenate((inner[(kind != NUMERICAL_GE) & (counts[inner] == 0)],
                          fell[falls != firsts[fell]],
                          held[(ids[firsts[held]] < 0)
                               | (ids[ends[held] - 1] > largest[nodes.feature[held]])]))
    if bad.size:
        i = bad.min()
        raise ValueError(f"feature {nodes.feature[i]}: {ids[firsts[i]:ends[i]].tolist()}"
                         " is not a non-empty, strictly increasing list of ids in its vocabulary")
    if not (np.isfinite(nodes.value[nodes.kind == LEAF]).all()
            and np.isfinite(nodes.threshold[nodes.kind == NUMERICAL_GE]).all()):
        raise ValueError(_NOT_FINITE)
    if node_depths(nodes).max(initial=0) > MAX_TREE_DEPTH:
        raise ValueError(f"a tree is deeper than {MAX_TREE_DEPTH}")


def _tree_cumsum(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The running sum of ``x``, started again at each tree; ``starts`` is
    each tree's first node, then the node count."""
    total = np.cumsum(x)
    return total - np.repeat(np.append(0, total)[starts[:-1]], np.diff(starts))


def _column(trees: dict, name: str, size: int | None = None) -> np.ndarray:
    """Column ``name`` of a version 2 ``trees`` object, the base64 of its
    little-endian dtype, as a native array of ``size`` items (any number if
    None); the decoded bytes are freed once copied."""
    dtype, text = np.dtype(_COLUMNS[name]), trees[name]
    if type(text) is not str:
        raise ValueError(f"column {name!r} must be a base64 string")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"column {name!r} is not base64: {exc}") from None
    if len(data) % dtype.itemsize:
        raise ValueError(f"column {name!r} holds {len(data)} bytes, not whole {dtype.name} items")
    column = np.frombuffer(data, dtype)
    if size is not None and len(column) != size:
        raise ValueError(f"column {name!r} holds {len(column)} items, not {size}")
    return column.astype(dtype.newbyteorder("="))


def _read_columns(trees: dict) -> tuple[Tree, np.ndarray]:
    """The node arrays of a version 2 ``trees`` object, and each tree's first
    node followed by the node count. Checks each column's length and the
    trees' shape; ``_check_trees`` checks the values.

    ``open`` counts the subtrees still to read in a tree: 1 before its root,
    one more after an internal node, one less after a leaf. A preorder tree
    keeps it above 0 until its last node, which brings it to 0. Node ``i``'s
    negative subtree ends at the first later node where ``open`` is back at
    its value before ``i``, and its positive child follows that node."""
    counts, kind = trees["node_counts"], _column(trees, "kind")
    if not ((kind >= LEAF) & (kind <= SET_INTERSECTS)).all():
        raise ValueError(f"node kinds must be {LEAF} to {SET_INTERSECTS}")
    if type(counts) is not list or not all(type(c) is int and c > 0 for c in counts) \
            or sum(counts) != len(kind):
        raise ValueError(f"node_counts must be positive ints that sum to {len(kind)}")
    n, leaf, numerical, listed = len(kind), kind == LEAF, kind == NUMERICAL_GE, kind >= CATEGORY_IN
    inner = np.flatnonzero(~leaf)
    feature = np.full(n, -1, dtype=np.int64)
    feature[inner] = _column(trees, "feature", len(inner))
    threshold = np.full(n, math.nan)
    threshold[numerical] = _column(trees, "threshold", np.count_nonzero(numerical))
    value = np.zeros(n)
    value[leaf] = _column(trees, "value", n - len(inner))
    id_count, ids = _column(trees, "id_count", np.count_nonzero(listed)), _column(trees, "ids")
    if (id_count <= 0).any() or id_count.sum(dtype=np.int64) != len(ids):
        raise ValueError(f"id_count must be positive and sum to the {len(ids)} ids")
    starts = np.cumsum([0, *counts], dtype=np.int64)
    # open after each node, less 1: the running sum of +1 per internal node
    # and -1 per leaf, across the forest and from each tree's root
    step = np.where(leaf, -1, 1)
    opened = _tree_cumsum(step, starts)
    if np.count_nonzero(opened < 0) != len(counts) or (opened[starts[1:] - 1] != -1).any():
        raise ValueError("the node kinds do not make whole trees of the node counts")
    # the first later node whose forest-wide sum is 1 below node i's; the
    # first is in i's tree, since its tree is whole. Sorted keys order by
    # (sum, node)
    total = np.cumsum(step)
    keys = np.sort(total * (n + 1) + np.arange(n))
    closes = keys[np.searchsorted(keys, (total[inner] - 1) * (n + 1) + inner)] % (n + 1)
    positive = np.full(n, -1, dtype=np.int64)
    positive[inner] = closes + 1 - np.repeat(starts[:-1], np.diff(starts))[inner]
    listed_counts = np.zeros(n, dtype=np.int64)
    listed_counts[listed] = id_count
    return Tree(kind, feature, threshold, positive, value, _tree_cumsum(listed_counts, starts),
                ids), starts


def _parse(data) -> DecisionForest:
    """The forest of model document ``data`` of either version, every member
    checked but its trees' values (``_check_trees``)."""
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ValueError("not a setforest model document")
    version = data.get("version")
    if version not in (1, MODEL_VERSION):
        raise ValueError(f"unsupported model version {version!r}")
    if data.get("kind") not in (RF, MART):
        raise ValueError(f"unknown forest kind {data.get('kind')!r}")
    if not isinstance(data.get("metadata", {}), dict):
        raise ValueError("the model's metadata must be an object")
    try:
        features = [Feature.from_dict(f) for f in data["features"]]
        initial_score = data["initial_score"]
        finite = type(initial_score) in (int, float) and math.isfinite(initial_score)
        nodes, starts = (_read_columns(data["trees"]) if version == MODEL_VERSION
                         else _parse_trees(data["trees"], len(features)))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from None
    if not finite:
        raise ValueError(_NOT_FINITE)
    if data["kind"] == RF and len(starts) == 1:
        raise ValueError("a random forest needs at least one tree")  # its mean is NaN
    return DecisionForest(data["kind"], [], float(initial_score), features,
                          data.get("metadata", {}), nodes, starts)


def forest_from_dict(data: dict) -> DecisionForest:
    """Parse a model document of either version, validating it against its
    own schema: an object of the format and version, the forest kind, every
    tree (``_read_columns`` or ``_parse_trees``, then ``_check_trees``) and
    at least one for a random forest, a finite number for the initial score,
    and an object of metadata. Raises ``ValueError``. ``data`` is left as it
    was."""
    forest = _parse(data)
    _check_trees(forest)
    return forest


def forest_to_json(forest: DecisionForest) -> str:
    """Canonical JSON text of the version 2 model document,
    ``json.dumps(indent=1)``. Serialising the same forest twice is
    byte-identical, and serialise -> parse -> serialise is the identity."""
    nodes, kind = forest.nodes, forest.nodes.kind
    columns = {"kind": kind, "feature": nodes.feature[kind != LEAF],
               "threshold": nodes.threshold[kind == NUMERICAL_GE],
               "value": nodes.value[kind == LEAF],
               "id_count": np.diff(forest_nodes(forest).id_ends, prepend=0)[kind >= CATEGORY_IN],
               "ids": nodes.ids}
    trees = {"node_counts": np.diff(forest.starts).tolist()}
    for name, dtype in _COLUMNS.items():
        trees[name] = base64.b64encode(np.asarray(columns[name], dtype).tobytes()).decode("ascii")
    return json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": forest.kind,
        "initial_score": float(forest.initial_score),
        "features": [f.to_dict() for f in forest.features],
        "trees": trees,
        "metadata": forest.metadata,
    }, indent=1)


def _unique_members(pairs: list) -> dict:
    """A JSON object's members, refusing a key it repeats: ``json.loads``
    alone keeps the last copy."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"the model document repeats the key {key!r}")
    return members


def forest_from_json(data: str | bytes) -> DecisionForest:
    """The forest of a model's JSON text, or of its UTF-8 bytes, read as
    ``forest_from_dict`` reads ``json.loads(text)``, except that a key
    repeated in any object is refused. The text and the decoded document
    are freed before the trees are checked (unless the caller holds them)."""
    if isinstance(data, bytes):  # strict UTF-8: json.loads would take a BOM or UTF-16
        data = data.decode("utf-8")
    document = json.loads(data, object_pairs_hook=_unique_members)
    del data
    forest = _parse(document)
    del document
    _check_trees(forest)
    return forest


def save_forest(forest: DecisionForest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(forest_to_json(forest))
        fh.write("\n")


def load_forest(path) -> DecisionForest:
    with open(path, "rb") as fh:
        return forest_from_json(fh.read())
