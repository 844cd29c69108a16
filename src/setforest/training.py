"""Tree growth and the two ensemble trainers.

Random forest: per tree, a bootstrap of n examples drawn with replacement;
per node, ceil(sqrt(num features)) features drawn without replacement;
splits scored by information gain; leaves hold the weighted positive-label
mean. Prediction is the mean over trees.

Boosted trees ("mart"): binomial log-loss boosting. The initial score is the
log-odds of the training positive rate; each round fits a regression tree
(variance-reduction scoring) to the loss residuals, sets leaf values with a
one-step Newton formula (sum of residuals over sum of hessians) and scales
them by the shrinkage before storing, so inference is a plain sum. A seeded
10% holdout tracks validation loss and the ensemble is truncated to the
best-validation round after training.

Reproducibility: every random draw flows from TrainConfig.seed through
derive_seed keyed by (tree, node, feature), so identical (dataset, config,
seed) gives a bit-identical serialized model.

A node routes its rows with the partition its winning splitter returns
(``SplitCandidate.positive``). A set feature's tokens are gathered from the
CSR index only where a node first samples it; each child then inherits its
share of its parent's tokens, in the order the index would give them. A node
hands all its tokens to its children before growing them, so the tokens held
along the recursion path never exceed the root's. MART's validation rows and
RF's out-of-bag rows are scored by the compiled evaluator,
``inference.predict_dataset``, through a one-tree forest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, FeatureType
from .inference import compile_forest, predict_dataset
from .model import MART, RF, DecisionForest, Internal, Leaf, TreeNode
from .rng import make_rng
from .splits import (
    CLASSIFICATION,
    REGRESSION,
    find_categorical_split,
    find_numerical_split,
    find_set_mask_split,
)

# clamp for the degenerate single-class log-odds
MAX_INITIAL_SCORE = math.log((1.0 - 1e-9) / 1e-9)

_TAG_TREE = 0x7EE
_TAG_HOLDOUT = 0x40D


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = RF
    num_trees: int = 500
    max_depth: int = 32
    features_per_node: str | int = "sqrt"  # "sqrt" | "all" | explicit count
    sampling_rate: float = 0.2
    shrinkage: float = 0.1
    validation_fraction: float = 0.1
    early_stopping_patience: int | None = None
    min_examples_per_leaf: int = 1
    seed: int = 0
    compute_oob: bool = False

    def __post_init__(self):
        if self.algorithm not in (RF, MART):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.num_trees < 1 or self.max_depth < 1 or self.min_examples_per_leaf < 1:
            raise ValueError("num_trees, max_depth, min_examples_per_leaf must be >= 1")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must be in (0, 1]")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if isinstance(self.features_per_node, str):
            if self.features_per_node not in ("sqrt", "all"):
                raise ValueError("features_per_node must be 'sqrt', 'all' or a count")
        elif self.features_per_node < 1:
            raise ValueError("features_per_node count must be >= 1")

    @classmethod
    def random_forest(cls, **kw) -> "TrainConfig":
        kw.setdefault("algorithm", RF)
        return cls(**kw)

    @classmethod
    def mart(cls, **kw) -> "TrainConfig":
        kw.setdefault("algorithm", MART)
        kw.setdefault("max_depth", 6)
        kw.setdefault("features_per_node", "all")
        kw.setdefault("min_examples_per_leaf", 5)
        return cls(**kw)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def log_loss(score, label):
    """Binomial log-loss of an additive score; stable for large |score|."""
    score = np.asarray(score, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    softplus = np.maximum(score, 0.0) + np.log1p(np.exp(-np.abs(score)))
    return softplus - label * score


def log_loss_gradient(score, label):
    """d log_loss / d score = sigmoid(score) - label."""
    return sigmoid_array(np.asarray(score, dtype=np.float64)) - np.asarray(
        label, dtype=np.float64)


class _TreeGrower:
    def __init__(self, dataset: Dataset, config: TrainConfig, objective: str,
                 targets: np.ndarray, leaf_value, tree_tag: int, fitted=None):
        self.ds = dataset
        self.config = config
        self.objective = objective
        self.targets = targets
        self.leaf_value = leaf_value
        self.tree_tag = tree_tag
        self.fitted = fitted
        self.node_counter = 0
        f = dataset.n_features
        policy = config.features_per_node
        if policy == "sqrt":
            self.features_per_node = min(f, math.ceil(math.sqrt(f)))
        elif policy == "all":
            self.features_per_node = f
        else:
            self.features_per_node = min(f, int(policy))

    def grow(self, indices) -> TreeNode:
        return self._grow(np.asarray(indices, dtype=np.int64), 0, {})

    def _find_split(self, feature: int, indices, node_targets, node_weights, node_id,
                    tokens: dict):
        cfg = self.config
        ftype = self.ds.features[feature].ftype
        if ftype != FeatureType.CATEGORICAL_SET:
            search = (find_numerical_split if ftype == FeatureType.NUMERICAL
                      else find_categorical_split)
            return search(np.asarray(self.ds.columns[feature])[indices], node_targets,
                          node_weights, feature, cfg.min_examples_per_leaf, self.objective)
        set_index = self.ds.set_index(feature)
        if feature not in tokens:
            tokens[feature] = set_index.node_tokens(indices)
        rng = make_rng(cfg.seed, _TAG_TREE, self.tree_tag, 2, node_id, feature)
        return find_set_mask_split(
            set_index, indices, node_targets, node_weights, feature,
            cfg.sampling_rate, rng, cfg.min_examples_per_leaf, self.objective,
            tokens=tokens[feature])

    def _grow(self, indices, depth, tokens: dict) -> TreeNode:
        """Grow the subtree of the rows ``indices``; ``tokens`` maps each set
        feature gathered so far to its (rows, terms) over these rows."""
        node_id = self.node_counter
        self.node_counter += 1
        cfg = self.config
        node_targets = self.targets[indices]
        if (
            depth >= cfg.max_depth
            or len(indices) < 2 * cfg.min_examples_per_leaf
            or np.all(node_targets == node_targets[0])
        ):
            return self._leaf(indices)
        if self.features_per_node < self.ds.n_features:
            node_rng = make_rng(cfg.seed, _TAG_TREE, self.tree_tag, 1, node_id)
            feats = np.sort(node_rng.choice(self.ds.n_features,
                                            size=self.features_per_node, replace=False))
        else:
            feats = np.arange(self.ds.n_features)
        node_weights = self.ds.weights[indices]
        best = None
        for f in feats:
            cand = self._find_split(int(f), indices, node_targets, node_weights, node_id,
                                    tokens)
            if cand is not None and (best is None or cand.gain > best.gain):
                best = cand
        if best is None:
            return self._leaf(indices)
        pos = best.positive
        # the children take every token; popping them leaves no reference to a
        # child's tokens here once that child is grown
        children = [_child_tokens(tokens, ~pos), _child_tokens(tokens, pos)]
        tokens.clear()
        negative = self._grow(indices[~pos], depth + 1, children.pop(0))
        positive = self._grow(indices[pos], depth + 1, children.pop())
        return Internal(best.condition, negative, positive)

    def _leaf(self, indices) -> Leaf:
        value = self.leaf_value(indices)
        if self.fitted is not None:
            self.fitted[indices] = value
        return Leaf(value)


def _child_tokens(tokens: dict, side: np.ndarray) -> dict:
    """The tokens of the rows where ``side`` holds, each renumbered to its
    row's position among them; the order of the tokens is kept."""
    position = np.cumsum(side) - 1
    child = {}
    for feature, (rows, terms) in tokens.items():
        keep = side[rows]
        child[feature] = position[rows[keep]], terms[keep]
    return child


def _tree_values(tree: TreeNode, dataset: Dataset, rows) -> np.ndarray:
    """The leaf values ``tree`` gives the dataset rows ``rows``: a one-tree
    random forest predicts the mean of one value, that value bit for bit."""
    forest = DecisionForest(RF, [tree], 0.0, dataset.features)
    return predict_dataset(compile_forest(forest), dataset, rows)


def _config_metadata(config: TrainConfig) -> dict:
    meta = asdict(config)
    meta["features_per_node"] = (
        config.features_per_node if isinstance(config.features_per_node, str)
        else int(config.features_per_node))
    return meta


def grow_tree(dataset: Dataset, config: TrainConfig, indices=None,
              objective: str = CLASSIFICATION, targets=None, tree_tag: int = 0,
              leaf_value=None, fitted=None) -> TreeNode:
    """Grow a single tree on the rows ``indices`` (default: all).

    Leaves hold ``leaf_value(rows)`` of the rows that reach them, by default
    their weighted mean target. Given ``fitted``, an array over the
    dataset's rows, each leaf also writes its value there for its rows.
    """
    if dataset.n_examples == 0:
        raise ValueError("empty dataset")
    if indices is None:
        indices = np.arange(dataset.n_examples)
    if targets is None:
        targets = dataset.labels.astype(np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if leaf_value is None:
        weights = dataset.weights

        def leaf_value(idx):
            return float(np.average(targets[idx], weights=weights[idx]))

    grower = _TreeGrower(dataset, config, objective, targets, leaf_value, tree_tag, fitted)
    return grower.grow(indices)


def train_random_forest(dataset: Dataset, config: TrainConfig) -> DecisionForest:
    if dataset.n_examples == 0:
        raise ValueError("empty dataset")
    n = dataset.n_examples
    targets = dataset.labels.astype(np.float64)
    weights = dataset.weights

    trees: list[TreeNode] = []
    oob_stats: list[dict] = []
    for i in range(config.num_trees):
        boot = make_rng(config.seed, _TAG_TREE, i, 0).integers(0, n, size=n)
        tree = grow_tree(dataset, config, boot, CLASSIFICATION, targets, tree_tag=i)
        trees.append(tree)
        if config.compute_oob:
            oob = np.setdiff1d(np.arange(n), boot)
            if oob.size:
                preds = _tree_values(tree, dataset, oob) >= 0.5
                acc = float(np.average(preds == dataset.labels[oob],
                                       weights=weights[oob]))
            else:
                acc = float("nan")
            oob_stats.append({"tree": i, "oob_examples": int(oob.size),
                              "oob_accuracy": acc})

    metadata = {"config": _config_metadata(config), "n_examples": n}
    if config.compute_oob:
        metadata["oob"] = oob_stats
    return DecisionForest(RF, trees, 0.0, list(dataset.features), metadata)


def train_mart(dataset: Dataset, config: TrainConfig) -> DecisionForest:
    if dataset.n_examples == 0:
        raise ValueError("empty dataset")
    n = dataset.n_examples
    labels = dataset.labels.astype(np.float64)
    weights = dataset.weights
    metadata = {"config": _config_metadata(config), "n_examples": n}

    if np.all(labels == labels[0]):
        initial = MAX_INITIAL_SCORE if labels[0] == 1 else -MAX_INITIAL_SCORE
        metadata["degenerate_labels"] = True
        return DecisionForest(MART, [], initial, list(dataset.features), metadata)

    perm = make_rng(config.seed, _TAG_HOLDOUT).permutation(n)
    n_val = int(round(config.validation_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation holdout leaves no training examples")

    p_pos = float(np.average(labels[train_idx], weights=weights[train_idx]))
    p_pos = min(max(p_pos, 1e-9), 1.0 - 1e-9)
    initial = math.log(p_pos / (1.0 - p_pos))

    scores = np.full(n, initial, dtype=np.float64)
    residual = np.zeros(n, dtype=np.float64)
    hessian = np.zeros(n, dtype=np.float64)
    fitted = np.zeros(n, dtype=np.float64)  # each training row's leaf value this round

    def leaf_value(idx):
        g = float(np.sum(weights[idx] * residual[idx]))
        h = float(np.sum(weights[idx] * hessian[idx]))
        if h <= 1e-12:
            return 0.0
        return config.shrinkage * g / h

    def mean_loss(idx):
        return float(np.average(log_loss(scores[idx], labels[idx]),
                                weights=weights[idx]))

    trees: list[TreeNode] = []
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = math.inf
    since_best = 0
    for r in range(config.num_trees):
        prob = sigmoid_array(scores[train_idx])
        residual[train_idx] = labels[train_idx] - prob
        hessian[train_idx] = prob * (1.0 - prob)
        tree = grow_tree(dataset, config, train_idx, REGRESSION, residual, tree_tag=r,
                         leaf_value=leaf_value, fitted=fitted)
        trees.append(tree)
        scores[train_idx] += fitted[train_idx]
        train_losses.append(mean_loss(train_idx))
        if n_val:
            scores[val_idx] += _tree_values(tree, dataset, val_idx)
            val_losses.append(mean_loss(val_idx))
            if val_losses[-1] < best_val:
                best_val = val_losses[-1]
                since_best = 0
            else:
                since_best += 1
                if (config.early_stopping_patience is not None
                        and since_best >= config.early_stopping_patience):
                    break

    if val_losses:
        best_round = int(np.argmin(val_losses))
        trees = trees[:best_round + 1]
        metadata["best_round"] = best_round
        metadata["validation_losses"] = val_losses
    metadata["train_losses"] = train_losses
    return DecisionForest(MART, trees, initial, list(dataset.features), metadata)


def train(dataset: Dataset, config: TrainConfig) -> DecisionForest:
    if config.algorithm == RF:
        return train_random_forest(dataset, config)
    return train_mart(dataset, config)
