"""Trained forests: tree structure, reference evaluation, JSON round-trip.

A forest's nodes are parallel per-node arrays in preorder, the layout of
scikit-learn's ``tree_`` widened to the ensemble: one ``Tree`` of every
tree's nodes, tree after tree. In a tree, node ``i``'s negative child is
node ``i + 1`` and ``positive[i]`` names the other, so the leaves in node
order put the all-conditions-false path first. Positive children and id
ends count from their tree's first node and id, so each of
``forest.trees`` is a ``Tree`` of slices of the forest's arrays, with no
copy; ``forest_nodes`` shifts them to count across the forest. Only the
JSON reader's walk fills node arrays: a tree grown or written as nested
``Leaf`` and ``Internal`` nodes is read from its model document, and
``DecisionForest`` concatenates the trees it is given once. No tree walk
recurses. Random forests store a positive-class probability in each leaf
and predict the mean over trees; boosted ("mart") forests store additive
scores with shrinkage already multiplied in and predict the sigmoid of
initial_score plus the sum over trees.

Model JSON is read and written one tree at a time. The reader scans the
top-level object itself and decodes each tree with json's C scanner, walks
it into the node arrays and drops it, so no whole document is ever built;
the writer writes each tree's ``json.dumps(indent=1)`` text from the node
arrays. ``forest_from_dict`` reads a document already decoded.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from json.decoder import scanstring
from operator import attrgetter

import numpy as np

from .conditions import CategoryIn, NumericalGE, SetIntersects, SplitCondition, evaluate
from .dataset import Feature, FeatureType

MODEL_FORMAT = "setforest-model"
MODEL_VERSION = 1

RF = "rf"
MART = "mart"

# the deepest tree trained or loaded, root at depth 0. No tree walk recurses,
# but the grower does, once per level, and so does json's scanner on each
# nested tree of the model document; this leaves them room under Python's
# default recursion limit
MAX_TREE_DEPTH = 512

# a node's kind: a leaf, or the kind of its condition, named as in model JSON
LEAF, NUMERICAL_GE, CATEGORY_IN, SET_INTERSECTS = range(4)
_KIND_NAMES = (None, "numerical_ge", "category_in", "set_intersects")
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES) if name}
_KIND_OF_TYPE = {FeatureType.NUMERICAL: NUMERICAL_GE, FeatureType.CATEGORICAL: CATEGORY_IN,
                 FeatureType.CATEGORICAL_SET: SET_INTERSECTS}
_UNBOUNDED = np.iinfo(np.int64).max
_NOT_FINITE = "thresholds, leaf values and the initial score must be finite numbers"
_DECODE = json.JSONDecoder().raw_decode  # one JSON value at a position, by json's C scanner
_SPACE = re.compile(r"[ \t\n\r]*").match  # JSON's whitespace


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
    """The ``Tree`` of a nested tree, read from its model document, filled
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
    """Every tree of a model document, walked by an explicit stack into one
    set of node arrays, with each tree's fields' types checked: features and ids
    must be JSON ints, thresholds and leaf values JSON numbers (not bools,
    not strings). ``_check_trees`` checks their values. Returns the nodes and
    each tree's first node followed by the node count.

    ``documents`` is any iterable of trees, taken one at a time: the reader
    drops each tree once walked, and keeps its columns as arrays, so what no
    one else holds is freed as it goes."""
    columns = kind, feature, threshold, positive, value, id_ends, ids = tuple([] for _ in _DTYPES)
    trees = [_NO_NODES.arrays()]
    for document in documents:
        stack = [(document, -1)]
        del document  # the stack holds the tree until it is walked
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


def forest_from_dict(data: dict) -> DecisionForest:
    """Parse a model document, validating it against its own schema: an
    object of the format and version, the forest kind, every tree (see
    ``_parse_trees`` and ``_check_trees``) and at least one for a random
    forest, a finite number for the initial score, and an object of
    metadata. Raises ``ValueError``. ``data`` is left as it was."""
    return _forest_from_document(data)


def _forest_from_document(data, trees: tuple[Tree, np.ndarray] | None = None) -> DecisionForest:
    """``forest_from_dict``, its trees' node arrays already parsed when
    ``trees`` is given."""
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
        nodes, starts = trees or _parse_trees(data["trees"], len(features))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from None
    if not finite:
        raise ValueError(_NOT_FINITE)
    if data["kind"] == RF and len(starts) == 1:
        raise ValueError("a random forest needs at least one tree")  # its mean is NaN
    forest = DecisionForest(data["kind"], [], float(initial_score), features,
                            data.get("metadata", {}), nodes, starts)
    _check_trees(forest)
    return forest


def _number(x: float) -> str:
    """A float as ``json.dumps`` writes it."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _trees_json(forest: DecisionForest) -> str:
    """The ``trees`` array of ``forest``'s model document as
    ``json.dumps(indent=1)`` writes it there, written from the node arrays:
    an explicit stack holds each node's children and the text that closes
    it, so a node's text follows its parent's, in preorder. A node of depth
    ``d`` indents its members by ``3 + d``, its split's by ``4 + d``."""
    nodes = forest_nodes(forest)
    kind, feature, threshold, positive, value, id_ends, ids = (a.tolist() for a in nodes.arrays())
    depth = node_depths(nodes).tolist()
    pad = ["\n" + " " * k for k in range(max(depth, default=0) + 6)]
    parts = []
    for start in forest.starts[:-1].tolist():
        parts.append("," + pad[2] if parts else "[" + pad[2])
        stack = [start]
        while stack:
            i = stack.pop()
            if type(i) is str:
                parts.append(i)
                continue
            d, code = depth[i], kind[i]
            if code == LEAF:
                parts.append(f'{{{pad[3 + d]}"leaf": {_number(value[i])}{pad[2 + d]}}}')
                continue
            inner = pad[4 + d]
            if code == NUMERICAL_GE:
                test = f'"threshold": {_number(threshold[i])}'
            else:
                listed = ids[id_ends[i - 1] if i else 0:id_ends[i]]
                items = pad[5 + d] + ("," + pad[5 + d]).join(map(str, listed)) + inner \
                    if listed else ""
                test = f'"{"values" if code == CATEGORY_IN else "mask"}": [{items}]'
            parts.append(f'{{{pad[3 + d]}"split": {{{inner}"kind": "{_KIND_NAMES[code]}",{inner}'
                         f'"feature": {feature[i]},{inner}{test}{pad[3 + d]}}},{pad[3 + d]}'
                         '"negative": ')
            stack += (pad[2 + d] + "}", positive[i], f',{pad[3 + d]}"positive": ', i + 1)
    return "".join(parts) + pad[1] + "]" if parts else "[]"


def forest_to_json(forest: DecisionForest) -> str:
    """Canonical JSON text, ``json.dumps(indent=1)`` of the model document:
    its trees written from the node arrays (``_trees_json``), the other
    members by ``json.dumps``. Serialising the same forest twice is
    byte-identical, and serialise -> parse -> serialise is the identity."""
    text = json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": forest.kind,
        "initial_score": float(forest.initial_score),
        "features": [f.to_dict() for f in forest.features],
        "trees": [],
        "metadata": forest.metadata,
    }, indent=1)
    # only a top-level member starts a line one space in
    return text.replace('\n "trees": []', '\n "trees": ' + _trees_json(forest), 1)


class _RepeatedKey(ValueError):
    """A top-level key that a model document gives twice."""


def _after(text: str, pos: int, marks: str) -> tuple[str, int]:
    """The mark of ``marks`` that ``text`` holds at ``pos`` past any JSON
    whitespace, and the position past it and the whitespace after it."""
    pos = _SPACE(text, pos).end()
    mark = text[pos:pos + 1]
    if not mark or mark not in marks:
        raise ValueError(f"expected one of {marks!r} at character {pos}")
    return mark, _SPACE(text, pos + 1).end()


def _array_items(text: str, at: list):
    """Each item of the JSON array that ``text`` opens at ``at[0]``, decoded
    by json's scanner one at a time; ``at[0]`` is then the array's end."""
    _, pos = _after(text, at[0], "[")
    mark, pos = ("]", pos + 1) if text.startswith("]", pos) else (",", pos)
    while mark == ",":
        item, pos = _DECODE(text, pos)
        yield item
        del item  # the consumer decides how long a tree lives
        mark, pos = _after(text, pos, ",]")
    at[0] = pos


def _scan(text: str) -> tuple[dict, tuple[Tree, np.ndarray] | None]:
    """The members of the model document of ``text`` but its trees, and its
    trees' node arrays (None if ``trees`` is not an array): the top-level
    object's members in turn, the trees each decoded, walked and dropped.
    Raises at the first fault it meets."""
    members, trees, at = {}, None, [0]
    mark, pos = _after(text, 0, "{")
    while mark != "}":  # "{}" holds no model, so a first key is always expected
        if not text.startswith('"', pos):
            raise ValueError(f"expected a key at character {pos}")
        key, pos = scanstring(text, pos + 1)
        if key in members:
            raise _RepeatedKey(f"the model document repeats the key {key!r}")
        _, pos = _after(text, pos, ":")
        if key == "trees" and text.startswith("[", pos):
            at[0] = pos
            # only a fault's message names the feature count, and a fault
            # sends the text to the whole-document read
            trees, members[key] = _parse_trees(_array_items(text, at), 0), None
            pos = at[0]
        else:
            members[key], pos = _DECODE(text, pos)
        mark, pos = _after(text, pos, ",}")
    if pos != len(text):
        raise ValueError(f"extra data at character {pos}")
    return members, trees


def forest_from_json(text: str) -> DecisionForest:
    """The forest of a model's JSON text, read as ``forest_from_dict`` reads
    ``json.loads(text)`` without building that document: the top-level
    object is scanned member by member, and each of its trees is decoded by
    json's scanner, walked and dropped, so the read peaks at about twice the
    text. A key the document repeats is refused, since the trees of its
    first copy are already read; ``json.loads`` kept the last.

    Any other fault is named as before. A scan stops at the first fault it
    meets, and the whole document is then read as it always was: its JSON
    syntax checked first, then the model's fields in order. Once a scan
    has read every member and tree, the text is freed (unless the caller
    holds it), and the checks that remain fail as the whole read's would."""
    try:
        members, trees = _scan(text)
    except ValueError as exc:
        fault = exc
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        fault = ValueError(f"malformed model document: {exc}")
    else:
        del text
        return _forest_from_document(members, trees)
    document = json.loads(text)
    if not isinstance(fault, _RepeatedKey):
        forest_from_dict(document)
    # a repeated key, or a fault in a copy of a member that a later copy hides
    raise fault


def save_forest(forest: DecisionForest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(forest_to_json(forest))
        fh.write("\n")


def load_forest(path) -> DecisionForest:
    with open(path, "r", encoding="utf-8") as fh:
        return forest_from_json(fh.read())
