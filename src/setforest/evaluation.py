"""Metrics, cross-validation, structure statistics, and inference timing.

The cross-validation protocol matches the training contract end to end:
fold assignment is a seeded shuffle followed by contiguous blocks, and the
vocabulary, transform state, and model of each fold are fitted on that
fold's training partition only. Test labels are never read before scoring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import DataError, build_vocabulary, dataset_from_token_sets
from .inference import (CompiledForest, compile_forest, predict_compiled, predict_dataset,
                        predict_top_down)
from .model import DecisionForest, count_leaves, count_nodes, leaf_depths
from .rng import derive_seed, make_rng
from .training import TrainConfig, train
from .transforms import make_chain

_TAG_FOLDS = 0xF01D
_TAG_FOLD_TRAIN = 0x7A11
_TAG_FOLD_CHAIN = 0xC4A1


def auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) area under the ROC curve.

    Tied scores contribute half a concordance per tied positive-negative
    pair. Raises if only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(scores)
    if n != len(labels):
        raise ValueError("scores and labels length mismatch")
    n_pos = int(np.sum(labels == 1))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # average 1-based rank within every tie group
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], n]
    group_rank = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    rank_sum = float(ranks[np.asarray(labels) == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def headroom_reduction(accuracy: float, baseline: float) -> float:
    """Share of the gap to a perfect score that a method closes over a
    baseline: (accuracy - baseline) / (1 - baseline)."""
    if baseline >= 1.0:
        raise ValueError("baseline must be < 1")
    return (accuracy - baseline) / (1.0 - baseline)


@dataclass(frozen=True)
class StructureStats:
    avg_depth: float
    nodes_per_tree: float
    leaves_per_tree: float
    balance_ratio: float


def structure_stats(forest: DecisionForest) -> StructureStats:
    """Average depth, size, and balance of a forest's trees.

    Average depth is the mean leaf depth (root at depth 0) averaged over
    trees. The balance ratio is log2(mean leaves per tree) divided by the
    average depth: exactly 1 for fully balanced trees, smaller for lopsided
    ones, and 1 by convention for depth-0 (single leaf) forests.
    """
    if not forest.trees:
        raise ValueError("structure stats need at least one tree")
    mean_depths = []
    nodes = []
    leaves = []
    for tree in forest.trees:
        depths = leaf_depths(tree)
        mean_depths.append(float(np.mean(depths)))
        nodes.append(count_nodes(tree))
        leaves.append(count_leaves(tree))
    avg_depth = float(np.mean(mean_depths))
    leaves_per_tree = float(np.mean(leaves))
    balance = 1.0 if avg_depth == 0 else math.log2(leaves_per_tree) / avg_depth
    return StructureStats(avg_depth, float(np.mean(nodes)), leaves_per_tree, balance)


@dataclass(frozen=True)
class MethodSpec:
    """A method under evaluation: trainer config plus input representation.

    An empty ``transform`` consumes the token sets natively through
    categorical-set splits; otherwise the named chain (e.g. ("maxhash",
    "targetmean")) is fitted per fold on the training partition.
    """

    label: str
    config: TrainConfig
    transform: tuple[str, ...] = ()
    maxhash_k: int = 32
    maxhash_treat: str = "categorical"
    targetmean_smoothing: float = 10.0

    def build_chain(self, seed: int):
        if not self.transform:
            return None
        return make_chain(
            self.transform,
            seed=seed,
            maxhash_k=self.maxhash_k,
            maxhash_treat=self.maxhash_treat,
            smoothing=self.targetmean_smoothing,
        )


@dataclass
class EvaluationReport:
    label: str
    fold_aucs: list[float]
    mean_auc: float
    std_auc: float
    structure: StructureStats
    models: list[DecisionForest] = field(default_factory=list)


def fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous blocks (the first n % folds blocks
    are one longer). Blocks are disjoint and cover range(n) exactly once."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError("not enough examples for the requested folds")
    order = make_rng(seed, _TAG_FOLDS).permutation(n)
    base, extra = divmod(n, folds)
    blocks = []
    start = 0
    for k in range(folds):
        size = base + (1 if k < extra else 0)
        blocks.append(order[start:start + size])
        start += size
    return blocks


def _fit_fold(token_sets, labels, weights, train_idx, method: MethodSpec,
              vocab_size, min_frequency, fold_seed, chain_seed):
    vocab = build_vocabulary((token_sets[i] for i in train_idx),
                             max_size=vocab_size, min_frequency=min_frequency)
    train_ds = dataset_from_token_sets(
        [token_sets[i] for i in train_idx], vocab, labels[train_idx],
        None if weights is None else weights[train_idx])
    chain = method.build_chain(chain_seed)
    if chain is not None:
        train_ds = chain.fit_transform(train_ds)
    config = replace(method.config, seed=fold_seed)
    forest = train(train_ds, config)
    return vocab, chain, forest


def _score_examples(compiled, vocab, chain, token_sets, indices):
    eval_ds = dataset_from_token_sets(
        [token_sets[i] for i in indices], vocab,
        np.zeros(len(indices), dtype=np.int64))
    if chain is not None:
        eval_ds = chain.transform(eval_ds)
    return predict_dataset(compiled, eval_ds)


def cross_validate(
    token_sets,
    labels,
    method: MethodSpec,
    folds: int = 5,
    seed: int = 0,
    vocab_size: int = 5000,
    min_frequency: int = 5,
    weights=None,
    keep_models: bool = False,
) -> EvaluationReport:
    """K-fold evaluation of one method on a tokenized corpus. Raises
    ``DataError`` when a fold's training or test labels hold one class."""
    labels = np.asarray(labels, dtype=np.int64)
    blocks = fold_indices(len(labels), folds, seed)
    fold_aucs: list[float] = []
    models: list[DecisionForest] = []
    stats: list[StructureStats] = []
    for k, test_idx in enumerate(blocks):
        train_idx = np.concatenate([b for j, b in enumerate(blocks) if j != k])
        if len(set(labels[test_idx].tolist())) < 2:
            raise DataError(f"fold {k} has single-class test labels")
        if len(set(labels[train_idx].tolist())) < 2:
            raise DataError(f"fold {k} has single-class training labels")
        vocab, chain, forest = _fit_fold(
            token_sets, labels, weights, train_idx, method,
            vocab_size, min_frequency,
            fold_seed=derive_seed(seed, _TAG_FOLD_TRAIN, k),
            chain_seed=derive_seed(seed, _TAG_FOLD_CHAIN, k))
        compiled = compile_forest(forest)
        scores = _score_examples(compiled, vocab, chain, token_sets, test_idx)
        fold_aucs.append(auc(scores, labels[test_idx]))
        if forest.trees:
            stats.append(structure_stats(forest))
        if keep_models:
            models.append(forest)
    structure = StructureStats(
        avg_depth=float(np.mean([s.avg_depth for s in stats])),
        nodes_per_tree=float(np.mean([s.nodes_per_tree for s in stats])),
        leaves_per_tree=float(np.mean([s.leaves_per_tree for s in stats])),
        balance_ratio=float(np.mean([s.balance_ratio for s in stats])),
    ) if stats else StructureStats(0.0, 1.0, 1.0, 1.0)
    return EvaluationReport(
        label=method.label,
        fold_aucs=fold_aucs,
        mean_auc=float(np.mean(fold_aucs)),
        std_auc=float(np.std(fold_aucs)),
        structure=structure,
        models=models,
    )


def sampling_rate_sweep(
    token_sets,
    labels,
    method: MethodSpec,
    grid=(0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0),
    folds: int = 5,
    seed: int = 0,
    vocab_size: int = 2000,
    min_frequency: int = 5,
) -> list[tuple[float, float, float]]:
    """Mean AUC per sampling rate, vocabulary capped for speed."""
    rows = []
    for p in grid:
        spec = replace(method, config=replace(method.config, sampling_rate=float(p)))
        report = cross_validate(token_sets, labels, spec, folds=folds, seed=seed,
                                vocab_size=vocab_size, min_frequency=min_frequency)
        rows.append((float(p), report.mean_auc, report.std_auc))
    return rows


@dataclass(frozen=True)
class BenchmarkResult:
    model: str
    evaluator: str  # "qs" | "topdown"
    us_per_example: float
    examples: int
    runs: int


def benchmark_inference(
    label: str,
    forest: DecisionForest,
    compiled: CompiledForest,
    rows: list[tuple],
    runs: int = 100,
    warmup: int = 10,
) -> list[BenchmarkResult]:
    """Single-threaded microseconds per example over already-processed rows.

    Each evaluator gets ``warmup`` untimed full-dataset passes, then the
    mean over ``runs`` timed passes. Feature preprocessing is excluded by
    construction: callers pass materialised rows.
    """
    results = []
    for name, fn in (("qs", lambda r: predict_compiled(compiled, r)),
                     ("topdown", lambda r: predict_top_down(forest, r))):
        for _ in range(warmup):
            for row in rows:
                fn(row)
        start = time.perf_counter()
        for _ in range(runs):
            for row in rows:
                fn(row)
        elapsed = time.perf_counter() - start
        results.append(BenchmarkResult(
            model=label,
            evaluator=name,
            us_per_example=elapsed / (runs * len(rows)) * 1e6,
            examples=len(rows),
            runs=runs,
        ))
    return results


def rank_reports(reports: list[EvaluationReport]) -> dict[str, int]:
    """1-based rank by mean AUC, best first; ties break by label."""
    order = sorted(reports, key=lambda r: (-r.mean_auc, r.label))
    return {r.label: i + 1 for i, r in enumerate(order)}


def fold_csv(reports: list[EvaluationReport]) -> str:
    lines = ["method,fold,auc"]
    for report in reports:
        for k, value in enumerate(report.fold_aucs):
            lines.append(f"{report.label},{k},{value!r}")
    return "\n".join(lines) + "\n"


def summary_csv(reports: list[EvaluationReport], baseline: str | None = None) -> str:
    ranks = rank_reports(reports)
    base_auc = None
    if baseline is not None:
        base_auc = {r.label: r.mean_auc for r in reports}.get(baseline)
        if base_auc is None:
            raise ValueError(f"baseline {baseline!r} not among the reports")
    header = ("method,mean_auc,std_auc,rank,avg_depth,nodes_per_tree,"
              "leaves_per_tree,balance_ratio")
    if base_auc is not None:
        header += ",headroom_reduction"
    lines = [header]
    for r in reports:
        s = r.structure
        line = (f"{r.label},{r.mean_auc!r},{r.std_auc!r},{ranks[r.label]},"
                f"{s.avg_depth!r},{s.nodes_per_tree!r},{s.leaves_per_tree!r},"
                f"{s.balance_ratio!r}")
        if base_auc is not None:
            line += f",{headroom_reduction(r.mean_auc, base_auc)!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def summary_table(reports: list[EvaluationReport]) -> str:
    ranks = rank_reports(reports)
    width = max(len(r.label) for r in reports)
    lines = [f"{'method':<{width}}  {'auc':>18}  rank"]
    for r in sorted(reports, key=lambda r: ranks[r.label]):
        lines.append(
            f"{r.label:<{width}}  {r.mean_auc:.4f} +/- {r.std_auc:.4f}  "
            f"{ranks[r.label]:>4}")
    return "\n".join(lines) + "\n"
