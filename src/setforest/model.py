"""Trained forests: tree structure, reference evaluation, JSON round-trip.

A tree is a nest of ``Internal`` and ``Leaf`` nodes; the negative branch is
always the left child, so enumerating leaves left-to-right puts the
all-conditions-false path first. Random forests store a positive-class
probability in each leaf and predict the mean over trees; boosted ("mart")
forests store additive scores with shrinkage already multiplied in and
predict the sigmoid of initial_score plus the sum over trees.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .conditions import (
    SplitCondition,
    check_id_lists,
    condition_from_dict,
    condition_to_dict,
    evaluate,
)
from .dataset import Feature

MODEL_FORMAT = "setforest-model"
MODEL_VERSION = 1

RF = "rf"
MART = "mart"

# the deepest tree trained or loaded, root at depth 0: every tree walk
# recurses, and this leaves room under Python's default recursion limit
MAX_TREE_DEPTH = 512


@dataclass(frozen=True, slots=True)
class Leaf:
    value: float


@dataclass(frozen=True, slots=True)
class Internal:
    condition: SplitCondition
    negative: "TreeNode"
    positive: "TreeNode"


TreeNode = Union[Leaf, Internal]


@dataclass
class DecisionForest:
    kind: str  # RF | MART
    trees: list[TreeNode]
    initial_score: float
    features: list[Feature]
    metadata: dict = field(default_factory=dict)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def route(tree: TreeNode, row: tuple) -> Leaf:
    node = tree
    while isinstance(node, Internal):
        node = node.positive if evaluate(node.condition, row) else node.negative
    return node


def aggregate(kind: str, initial_score: float, leaf_values: np.ndarray):
    """Combine per-tree leaf values; shared by every evaluator so that the
    floating-point summation order is identical across them. One row of
    values gives a float; a C-contiguous (rows, trees) array gives a float64
    array with each row's float, bit for bit: a boosted forest's rows apply
    ``sigmoid``'s formula inline, in one pass over the row sums."""
    if leaf_values.ndim == 1:
        if kind == RF:
            return float(leaf_values.mean())
        return sigmoid(initial_score + float(leaf_values.sum()))
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
        (route(tree, row).value for tree in forest.trees),
        dtype=np.float64,
        count=len(forest.trees),
    )
    return aggregate(forest.kind, forest.initial_score, values)


def count_leaves(tree: TreeNode) -> int:
    if isinstance(tree, Leaf):
        return 1
    return count_leaves(tree.negative) + count_leaves(tree.positive)


def count_nodes(tree: TreeNode) -> int:
    if isinstance(tree, Leaf):
        return 1
    return 1 + count_nodes(tree.negative) + count_nodes(tree.positive)


def leaf_depths(tree: TreeNode) -> list[int]:
    """Depths of leaves left-to-right; the root sits at depth 0."""
    depths: list[int] = []

    def walk(node, depth):
        if isinstance(node, Leaf):
            depths.append(depth)
        else:
            walk(node.negative, depth + 1)
            walk(node.positive, depth + 1)

    walk(tree, 0)
    return depths


def leaf_values(tree: TreeNode) -> list[float]:
    values: list[float] = []

    def walk(node):
        if isinstance(node, Leaf):
            values.append(node.value)
        else:
            walk(node.negative)
            walk(node.positive)

    walk(tree)
    return values


def max_depth(tree: TreeNode) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(max_depth(tree.negative), max_depth(tree.positive))


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": float(node.value)}
    return {
        "split": condition_to_dict(node.condition),
        "negative": _node_to_dict(node.negative),
        "positive": _node_to_dict(node.positive),
    }


def _node_from_dict(data: dict, features: list[Feature], id_lists, numbers,
                    room: int = MAX_TREE_DEPTH) -> TreeNode:
    """One node and its subtree, which may be ``room`` levels deep below it;
    every leaf value and threshold also goes onto ``numbers`` for
    ``forest_from_dict``'s finiteness check."""
    if room < 0:
        raise ValueError(f"a tree is deeper than {MAX_TREE_DEPTH}")
    if "leaf" in data:
        value = float(data["leaf"])
        numbers.append(value)
        return Leaf(value)
    return Internal(
        condition_from_dict(data["split"], features, id_lists, numbers),
        _node_from_dict(data["negative"], features, id_lists, numbers, room - 1),
        _node_from_dict(data["positive"], features, id_lists, numbers, room - 1),
    )


def forest_to_dict(forest: DecisionForest) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": forest.kind,
        "initial_score": float(forest.initial_score),
        "features": [f.to_dict() for f in forest.features],
        "trees": [_node_to_dict(t) for t in forest.trees],
        "metadata": forest.metadata,
    }


def forest_from_dict(data: dict) -> DecisionForest:
    """Parse a model document, validating it against its own schema: the
    forest kind, every split's feature, kind and ids (see
    ``condition_from_dict``), tree depth at most ``MAX_TREE_DEPTH``, finite
    thresholds, leaf values and initial score, and an object of metadata.
    Raises ``ValueError``."""
    if data.get("format") != MODEL_FORMAT:
        raise ValueError("not a setforest model document")
    if data.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {data.get('version')!r}")
    if data["kind"] not in (RF, MART):
        raise ValueError(f"unknown forest kind {data['kind']!r}")
    if not isinstance(data.get("metadata", {}), dict):
        raise ValueError("the model's metadata must be an object")
    try:
        features = [Feature.from_dict(f) for f in data["features"]]
        id_lists = defaultdict(list)
        numbers = [float(data["initial_score"])]
        trees = [_node_from_dict(t, features, id_lists, numbers) for t in data["trees"]]
        check_id_lists(id_lists, features)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from None
    if not np.isfinite(np.fromiter(numbers, dtype=np.float64, count=len(numbers))).all():
        raise ValueError("thresholds, leaf values and the initial score must be finite")
    return DecisionForest(
        kind=data["kind"],
        trees=trees,
        initial_score=numbers[0],
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
