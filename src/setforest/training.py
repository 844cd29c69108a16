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

A random forest's trees grow in a pool of forked worker processes, one per
CPU in ``os.sched_getaffinity(0)`` and at most one per tree; ``taskset``
limits them. The workers inherit the dataset by fork, each ``Tree`` comes
back as its flat arrays, in tree order, ``DecisionForest`` concatenates them
once, and the model bytes are the same at any worker count. The trees grow
in this process instead where there is one CPU or one tree, where
``os.fork`` or ``os.sched_getaffinity`` is missing, in a daemonic process
and while other threads are alive. The pool's modules are imported only when
a pool starts. The pool is shut down before ``train`` returns or raises, and
a worker exits by itself once the training process is gone. MART grows its
rounds one after another in this process.

The grower builds a tree as nested ``model.Leaf`` and ``model.Internal``
nodes, numbered in preorder, and ``model.tree_from_nested`` reads them into
a ``Tree``. A node routes its rows with the partition its winning splitter
returns (``SplitCandidate.positive``). Each splitter's per-node state
(``splits`` module docstring) is computed where a node first searches the
feature, and each child inherits its share of its parent's, in the order it
would compute itself:

* a set feature's tokens, gathered from the CSR index, always;
* a numerical feature's order and a categorical feature's coding only where
  every node searches every feature (``features_per_node`` is the number of
  features, as MART's default is). Where nodes sample features, a child may
  not search a feature at all, and filtering the state of every sampled
  feature for each child costs more than it saves. A node that inherits a
  coding gathers none of the feature's values: the search reads the codes.

A child that will be a leaf, at the depth limit or with fewer than
``2 * min_examples_per_leaf`` rows, gets none. A node splits its state between
the children that can split further and drops its own before growing them,
so the state held along the recursion path never exceeds the root's. MART's
validation rows and RF's out-of-bag rows are scored by the compiled
evaluator, ``inference.predict_dataset``, through a one-tree forest.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import DataError, Dataset, FeatureType
from .inference import compile_forest, predict_dataset
from .model import MART, MAX_TREE_DEPTH, RF, DecisionForest, Internal, Leaf, Tree, tree_from_nested
from .rng import make_rng
from .splits import (
    CLASSIFICATION,
    REGRESSION,
    CategoryCoding,
    category_coding,
    find_categorical_split,
    find_numerical_split,
    find_set_mask_split,
    numerical_order,
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
        if self.max_depth > MAX_TREE_DEPTH:
            raise ValueError(f"max_depth must be <= {MAX_TREE_DEPTH}")
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
        self.n_nodes = 0  # the preorder index of the next node
        f = dataset.n_features
        policy = config.features_per_node
        if policy == "sqrt":
            self.features_per_node = min(f, math.ceil(math.sqrt(f)))
        elif policy == "all":
            self.features_per_node = f
        else:
            self.features_per_node = min(f, int(policy))
        # where every node searches every feature, a child inherits its
        # parent's numerical orders and categorical codings
        self.inherit = self.features_per_node == f

    def grow(self, indices) -> Tree:
        return tree_from_nested(self._grow(np.asarray(indices, dtype=np.int64), 0, {}))

    def _find_split(self, feature: int, indices, node_targets, node_weights, node_id,
                    state: dict):
        cfg = self.config
        ftype = self.ds.features[feature].ftype
        column = self.ds.columns[feature]
        if ftype != FeatureType.CATEGORICAL_SET:
            numerical = ftype == FeatureType.NUMERICAL
            # an inherited coding is all a categorical search reads
            values = None if self.inherit and not numerical and feature in state \
                else np.asarray(column)[indices]
            given = {}
            if self.inherit:
                if feature not in state:
                    state[feature] = (numerical_order if numerical else category_coding)(values)
                given = {"order" if numerical else "coding": state[feature]}
            search = find_numerical_split if numerical else find_categorical_split
            return search(values, node_targets, node_weights, feature,
                          cfg.min_examples_per_leaf, self.objective, **given)
        if feature not in state:
            state[feature] = column.node_tokens(indices)
        rng = (make_rng(cfg.seed, _TAG_TREE, self.tree_tag, 2, node_id, feature)
               if cfg.sampling_rate < 1.0 else None)
        return find_set_mask_split(
            column, indices, node_targets, node_weights, feature,
            cfg.sampling_rate, rng, cfg.min_examples_per_leaf, self.objective,
            tokens=state[feature])

    def _grow(self, indices, depth, state: dict) -> Leaf | Internal:
        """The subtree of the rows ``indices``, its nodes numbered in
        preorder; ``state`` maps each feature whose per-node state is held
        to that state over these rows (module docstring)."""
        node_id = self.n_nodes
        self.n_nodes += 1
        cfg = self.config
        node_targets = self.targets[indices]
        if not self._may_split(depth, len(indices)) or np.all(node_targets == node_targets[0]):
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
                                    state)
            if cand is not None and (best is None or cand.gain > best.gain):
                best = cand
        if best is None:
            return self._leaf(indices)
        # the children take every state they can use; popping them leaves no
        # reference to a child's state here once that child is grown
        children = []
        for side in (~best.positive, best.positive):
            chosen = side.nonzero()[0]
            children.append((indices.take(chosen), _child_state(state, side, chosen)
                             if self._may_split(depth + 1, chosen.size) else {}))
        state.clear()
        child_indices, child_state = children.pop(0)
        negative = self._grow(child_indices, depth + 1, child_state)
        child_indices, child_state = children.pop()
        return Internal(best.condition, negative,
                        self._grow(child_indices, depth + 1, child_state))

    def _may_split(self, depth: int, n_rows: int) -> bool:
        """Whether a node at ``depth`` of ``n_rows`` rows is above the depth
        limit and large enough for two leaves; if not, it is a leaf."""
        return depth < self.config.max_depth and n_rows >= 2 * self.config.min_examples_per_leaf

    def _leaf(self, indices) -> Leaf:
        value = self.leaf_value(indices)
        if self.fitted is not None:
            self.fitted[indices] = value
        return Leaf(value)


def _child_state(state: dict, side: np.ndarray, chosen: np.ndarray) -> dict:
    """The state of the rows where ``side`` holds (``chosen``, their
    positions), renumbered to the rows' positions among them; every order
    is kept."""
    position = np.empty(side.size, dtype=np.int64)
    position[chosen] = np.arange(chosen.size)
    child = {}
    for feature, held in state.items():
        if isinstance(held, CategoryCoding):
            child[feature] = held._replace(codes=held.codes.take(chosen))
        elif isinstance(held, np.ndarray):  # a numerical order
            child[feature] = position.take(held[side.take(held)])
        else:  # a set feature's tokens
            rows, terms = held
            kept = side.take(rows).nonzero()[0]
            child[feature] = position.take(rows.take(kept)), terms.take(kept)
    return child


def _tree_values(tree: Tree, dataset: Dataset, rows) -> np.ndarray:
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
              leaf_value=None, fitted=None) -> Tree:
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


def _forest_tree(dataset: Dataset, config: TrainConfig, i: int):
    """Tree ``i`` of a random forest: its bootstrap draw, the tree grown on
    it and, under ``compute_oob``, its out-of-bag stats (else ``None``)."""
    n = dataset.n_examples
    boot = make_rng(config.seed, _TAG_TREE, i, 0).integers(0, n, size=n)
    tree = grow_tree(dataset, config, boot, CLASSIFICATION,
                     dataset.labels.astype(np.float64), tree_tag=i)
    if not config.compute_oob:
        return tree, None
    oob = np.setdiff1d(np.arange(n), boot)
    if oob.size:
        preds = _tree_values(tree, dataset, oob) >= 0.5
        acc = float(np.average(preds == dataset.labels[oob],
                               weights=dataset.weights[oob]))
    else:
        acc = float("nan")
    return tree, {"tree": i, "oob_examples": int(oob.size), "oob_accuracy": acc}


def _forest_workers(num_trees: int) -> int:
    """The number of processes that grow a forest of ``num_trees`` trees:
    one per CPU this process may run on, at most one per tree. It is 1, and
    the trees grow in this process, where forking is missing or unsafe:
    without ``os.fork`` or ``os.sched_getaffinity``, in a daemonic process
    (which may not have children) and while another thread is alive (a
    fork can copy a lock that thread holds)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    # a daemonic process was started by multiprocessing, so it is imported
    mp = sys.modules.get("multiprocessing")
    if (mp is not None and mp.current_process().daemon) or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), num_trees)


# a pool worker's (dataset, config), set when the worker starts
_worker_job = None


def _start_worker(parent: int, dataset: Dataset, config: TrainConfig) -> None:
    """Pool worker initializer. A forked worker inherits its arguments, so
    the dataset is not pickled. The worker exits once the training process
    is gone, so a trainer killed mid-forest leaves no worker behind."""
    global _worker_job
    _worker_job = dataset, config

    def watch():
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pooled_forest_tree(i: int):
    """``_forest_tree`` in a pool worker. A ``Tree`` pickles as flat arrays,
    however deep it is."""
    return _forest_tree(*_worker_job, i)


def _pooled_forest_trees(dataset: Dataset, config: TrainConfig, workers: int) -> list:
    """Every ``_forest_tree`` of the forest, grown by ``workers`` forked
    processes that inherit the dataset, in tree order. The pool is shut down
    before this returns or raises."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker,
                               initargs=(os.getpid(), dataset, config))
    try:
        return list(pool.map(_pooled_forest_tree, range(config.num_trees), chunksize=1))
    finally:
        pool.shutdown(cancel_futures=True)


def train_random_forest(dataset: Dataset, config: TrainConfig) -> DecisionForest:
    if dataset.n_examples == 0:
        raise ValueError("empty dataset")
    workers = _forest_workers(config.num_trees)
    if workers > 1:
        grown = _pooled_forest_trees(dataset, config, workers)
    else:
        grown = [_forest_tree(dataset, config, i) for i in range(config.num_trees)]
    metadata = {"config": _config_metadata(config), "n_examples": dataset.n_examples}
    if config.compute_oob:
        metadata["oob"] = [oob for _, oob in grown]
    return DecisionForest(RF, [tree for tree, _ in grown], 0.0, list(dataset.features),
                          metadata)


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
        raise DataError("validation holdout leaves no training examples")

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

    trees: list[Tree] = []
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
