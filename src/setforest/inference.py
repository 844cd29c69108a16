"""Compiled forest evaluation with per-tree leaf bitmasks.

Instead of routing an example from the root down, the compiled evaluator
keeps one bit per leaf of every tree, in left-to-right order, all set
initially. Every node contributes masks that clear the leaves of its
*negative* subtree, and a mask is applied exactly when the node's condition
holds:

* a numerical node stores (threshold, mask) under its feature; entries are
  sorted by threshold and applied while ``threshold <= value``;
* a categorical-set node stores, for every term of its mask, a per-term
  entry applied when the example contains that term;
* a categorical node stores one entry per value of its value set, applied
  when the example carries that value.

Each tree's bits fill ``words_per_tree`` uint64 words: as many as the
widest tree of the forest needs. Word ``w`` of tree ``t`` is the slot
``t * words_per_tree + w``, and a node stores a mask only for the words in
which it clears a leaf. Masks of the same (feature, term, slot) coming from
several nodes are AND-combined into a single entry. Missing values apply
nothing. Once all masks are in, the lowest set bit of each tree (in its
first non-zero word) is the leaf the top-down walk would have reached:
conditions that held cleared everything to the left of the true path,
conditions that failed (or were missing) cleared nothing of it, and the
negative-first leaf order makes the fall-through leaf the leftmost one.

``predict_dataset``, the one vectorised evaluator (training scores its
validation and out-of-bag rows with it), scores a dataset's rows, or those a
``rows=`` selection names in any order, in blocks of ``_BLOCK_ROWS`` rows,
one (rows, slots) word array per block. A numerical value's ``searchsorted``
count ``k`` says it clears the first ``k`` threshold-sorted entries (a NaN
clears none); per block, the entries are scattered into a table over the
block's distinct counts and AND-accumulated down it, so every row reads
the AND of its first ``k`` entries and the table never outgrows the block.
A keyed feature gets, once per call, a table with one row of slot masks
per key and an all-ones row last for a missing, unseen or absent value.
Values find their key rows with ``searchsorted``, never by indexing with
the value itself, because max-hash categorical values have no vocabulary
and reach 2**63 - 1. A set feature ANDs the key rows of a block row's
tokens together with ``reduceat``, over the rows that hold a known token
only. The key tables take (keys + 1) x slots uint64 words per feature and
are rebuilt on every call, so compiling and per-row scoring cost what they
did before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import NumericalGE, SetIntersects
from .dataset import Dataset, Feature, FeatureType, MISSING_CATEGORY
from .model import DecisionForest, Leaf, TreeNode, aggregate, predict

_ONE = np.uint64(1)
_ALL = np.uint64(2**64 - 1)


@dataclass
class NumericalEntries:
    """Per-feature node masks sorted ascending by threshold."""

    thresholds: np.ndarray  # float64
    tree_ids: np.ndarray  # int64 word slots; the tree ids at one word per tree
    masks: np.ndarray  # uint64


@dataclass
class KeyedEntries:
    """Per-feature term (or category value) masks.

    ``index`` maps a term id to its [begin, end) range in the flat arrays;
    ranges tile the arrays in ascending key order and slots are strictly
    increasing inside each range.
    """

    index: dict[int, tuple[int, int]]
    tree_ids: np.ndarray  # int64 word slots; the tree ids at one word per tree
    masks: np.ndarray  # uint64


@dataclass
class CompiledForest:
    kind: str
    initial_score: float
    num_trees: int
    features: list[Feature]
    words_per_tree: int
    leaf_values: np.ndarray  # (num_trees, 64 * words_per_tree) float64, padded
    num_leaves: np.ndarray  # int64 per tree
    default_masks: np.ndarray  # uint64 per slot, every leaf of the word set
    numerical: dict[int, NumericalEntries]
    keyed: dict[int, KeyedEntries]


def _low_bits(count: np.ndarray) -> np.ndarray:
    """uint64 words with the ``count`` (0..64) lowest bits set."""
    return np.where(count > 0, _ALL >> (64 - np.maximum(count, 1)).astype(np.uint64),
                    np.uint64(0))


def _ranges(starts: np.ndarray, counts) -> np.ndarray:
    """``arange(s, s + c)`` for every paired start and count, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - starts, counts)


def _runs(*columns: np.ndarray):
    """Begin and end arrays of the runs of equal rows in the sorted ``columns``."""
    new = np.ones(len(columns[0]), dtype=bool)
    new[1:] = np.any([c[1:] != c[:-1] for c in columns], axis=0)
    begins = np.flatnonzero(new)
    return begins, np.append(begins[1:], len(new))


def compile_forest(forest: DecisionForest) -> CompiledForest:
    # one walk per tree lists its nodes in preorder: the first leaf of the
    # node's span, the leaf count of its negative subtree, its feature, and
    # its threshold or its terms (a keyed node's threshold is NaN, which also
    # drops a NaN-threshold numerical node: it never holds)
    los, n_lefts, node_features, thresholds, key_counts, keys, values = ([] for _ in range(7))

    def walk(node: TreeNode, lo: int) -> int:
        if isinstance(node, Leaf):
            values.append(node.value)
            return 1
        i, cond = len(los), node.condition
        los.append(lo)
        n_lefts.append(0)
        node_features.append(cond.feature)
        if isinstance(cond, NumericalGE):
            thresholds.append(cond.threshold)
            key_counts.append(0)
        else:
            terms = cond.mask if isinstance(cond, SetIntersects) else cond.values
            thresholds.append(np.nan)
            key_counts.append(len(terms))
            keys.extend(terms)
        n_left = n_lefts[i] = walk(node.negative, lo)
        return n_left + walk(node.positive, lo + n_left)

    num_trees = len(forest.trees)
    num_leaves, node_ends = [], []
    for tree in forest.trees:
        num_leaves.append(walk(tree, 0))
        node_ends.append(len(los))
    num_leaves = np.array(num_leaves, dtype=np.int64)
    words = max(1, -(-int(num_leaves.max(initial=1)) // 64))
    leaf_values = np.zeros((num_trees, 64 * words))
    leaf_values.reshape(-1)[_ranges(np.arange(num_trees) * 64 * words, num_leaves)] = values
    default_masks = _low_bits(np.clip(num_leaves[:, None] - 64 * np.arange(words), 0, 64).ravel())

    # one entry per (node, word in which the node clears leaves): the word's
    # leaves minus the node's negative span [lo, hi)
    lo = np.array(los, dtype=np.int64)
    hi = lo + np.array(n_lefts, dtype=np.int64)
    span = (hi - 1) // 64 - lo // 64 + 1
    node = np.repeat(np.arange(len(lo)), span)
    word = _ranges(lo // 64, span)
    begin = np.maximum(lo[node] - 64 * word, 0)
    count = np.minimum(hi[node] - 64 * word, 64) - begin
    slots = np.searchsorted(node_ends, node, side="right") * words + word
    masks = default_masks[slots] ^ (_low_bits(count) << begin.astype(np.uint64))
    feature = np.array(node_features, dtype=np.int64)[node]
    threshold = np.array(thresholds, dtype=np.float64)[node]

    # numerical entries sort by (feature, threshold, slot); lexsort is
    # stable, so ties keep preorder
    entry = np.flatnonzero(threshold == threshold)
    entry = entry[np.lexsort([slots[entry], threshold[entry], feature[entry]])]
    numerical = {int(feature[part[0]]): NumericalEntries(threshold[part], slots[part], masks[part])
                 for part in np.split(entry, _runs(feature[entry])[0])[1:]}

    # keyed entries repeat once per term of their node and sort by
    # (feature, term, slot), each key cast to its narrowest dtype (lexsort
    # radix-sorts up to 16 bits); the masks of equal triples AND-combine
    key_count = np.array(key_counts, dtype=np.int64)
    per_entry = key_count[node]
    term = np.fromiter(keys, dtype=np.int64, count=len(keys))[
        _ranges((np.cumsum(key_count) - key_count)[node], per_entry)]
    feature, slots = np.repeat(feature, per_entry), np.repeat(slots, per_entry)
    order = np.lexsort([a.astype(np.min_scalar_type(a.max(initial=0)))
                        for a in (slots, term, feature)])
    feature, term, slots = feature[order], term[order], slots[order]
    starts, _ = _runs(feature, term, slots)
    key_masks = np.bitwise_and.reduceat(np.repeat(masks, per_entry)[order], starts)
    feature, term, slots = feature[starts], term[starts], slots[starts]
    keyed = {}
    for b, e in zip(*(a.tolist() for a in _runs(feature))):
        term_begins, term_ends = (a.tolist() for a in _runs(term[b:e]))
        index = dict(zip(term[b:e][term_begins].tolist(), zip(term_begins, term_ends)))
        keyed[int(feature[b])] = KeyedEntries(index, slots[b:e], key_masks[b:e])

    return CompiledForest(
        kind=forest.kind, initial_score=forest.initial_score, num_trees=num_trees,
        features=list(forest.features), words_per_tree=words, leaf_values=leaf_values,
        num_leaves=num_leaves, default_masks=default_masks, numerical=numerical,
        keyed=keyed)


def _apply_masks(compiled: CompiledForest, row: tuple) -> np.ndarray:
    leafidx = compiled.default_masks.copy()
    tid_chunks = []
    mask_chunks = []
    for feature, group in compiled.numerical.items():
        value = row[feature]
        if value != value:  # NaN: missing skips the feature entirely
            continue
        k = int(np.searchsorted(group.thresholds, value, side="right"))
        if k:
            tid_chunks.append(group.tree_ids[:k])
            mask_chunks.append(group.masks[:k])
    for feature, group in compiled.keyed.items():
        value = row[feature]
        if compiled.features[feature].ftype == FeatureType.CATEGORICAL:
            if value == MISSING_CATEGORY:
                continue
            terms = (int(value),)
        else:
            if not value:  # missing or empty set: nothing to apply
                continue
            terms = value
        index = group.index
        for term in terms:
            span = index.get(term)
            if span is not None:
                tid_chunks.append(group.tree_ids[span[0]:span[1]])
                mask_chunks.append(group.masks[span[0]:span[1]])
    if tid_chunks:
        np.bitwise_and.at(leafidx, np.concatenate(tid_chunks),
                          np.concatenate(mask_chunks))
    return leafidx


def _leaf_positions(compiled: CompiledForest, leafidx: np.ndarray) -> np.ndarray:
    """Per-tree position of the lowest leaf left in a ``(slots,)`` or
    ``(rows, slots)`` word array: one entry per tree along the last axis."""
    # trailing zeros of every word; a word with no leaf left reads 64
    low = np.bitwise_count((leafidx - _ONE) & ~leafidx)
    if compiled.words_per_tree == 1:
        return low  # uint8, only ever used as an index
    low = low.reshape(-1, compiled.words_per_tree)
    word = np.argmax(low < 64, axis=1)  # every tree keeps its reached leaf
    positions = 64 * word + low[np.arange(len(low)), word]
    return positions if leafidx.ndim == 1 else positions.reshape(len(leafidx), -1)


def compiled_leaf_indices(compiled: CompiledForest, row: tuple) -> np.ndarray:
    """Per-tree active leaf position (int64), counted left to right."""
    return _leaf_positions(compiled, _apply_masks(compiled, row)).astype(np.int64)


def predict_compiled(compiled: CompiledForest, row: tuple) -> float:
    """Probability from the compiled evaluator; bit-identical to ``predict``."""
    if len(row) != len(compiled.features):
        raise ValueError(
            f"row has {len(row)} values, schema has {len(compiled.features)}")
    low = _leaf_positions(compiled, _apply_masks(compiled, row))
    values = compiled.leaf_values[np.arange(compiled.num_trees), low]
    return aggregate(compiled.kind, compiled.initial_score, values)


predict_top_down = predict  # the reference evaluator, named for comparisons


_BLOCK_ROWS = 256  # rows scored together; keeps a block's word arrays small


def _cleared_masks(counts: np.ndarray, group: NumericalEntries, slots: int) -> np.ndarray:
    """Per block row, the per-slot AND of the first ``counts`` entries, from
    a table over the block's distinct counts only."""
    distinct, inverse = np.unique(counts, return_inverse=True)
    used = int(distinct[-1])
    table = np.full((len(distinct), slots), _ALL)
    # entry j is in every count above j; it goes into the first such row
    first = np.searchsorted(distinct, np.arange(used), side="right")
    np.bitwise_and.at(table.reshape(-1), first * slots + group.tree_ids[:used],
                      group.masks[:used])
    return np.bitwise_and.accumulate(table, axis=0)[inverse]


def _keyed_table(group: KeyedEntries, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending keys, and per key a row of its masks, then a row of ones
    for a value with no entry."""
    keys = np.fromiter(group.index, dtype=np.int64, count=len(group.index))
    spans = np.array(list(group.index.values()), dtype=np.int64).reshape(-1, 2)
    table = np.full((len(keys) + 1, slots), _ALL)
    table[np.repeat(np.arange(len(keys)), spans[:, 1] - spans[:, 0]), group.tree_ids] = \
        group.masks
    return keys, table


def _key_rows(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's table row: its rank among ``keys``, or ``len(keys)``."""
    rank = np.searchsorted(keys, values)
    found = keys[np.minimum(rank, len(keys) - 1)] == values
    return np.where(found, rank, len(keys))


def _check_schema(compiled: CompiledForest, dataset: Dataset) -> None:
    if len(dataset.features) != len(compiled.features):
        raise ValueError(f"dataset has {len(dataset.features)} features, "
                         f"model has {len(compiled.features)}")
    for i, (have, want) in enumerate(zip(dataset.features, compiled.features)):
        if have.ftype != want.ftype:
            raise ValueError(f"feature {i} ({have.name}) is {have.ftype.value} in the "
                             f"dataset and {want.ftype.value} in the model")


def predict_dataset(compiled: CompiledForest, dataset: Dataset, rows=None) -> np.ndarray:
    """Probabilities of the dataset rows ``rows`` (every row when None; they
    may be unsorted, repeated or empty), bit-identical to ``predict_compiled``
    row by row; scores blocks of rows at once (see the module docstring).
    Raises ``ValueError`` when the dataset's schema is not the model's."""
    _check_schema(compiled, dataset)
    rows = np.arange(dataset.n_examples) if rows is None else np.asarray(rows, dtype=np.int64)
    n, slots = len(rows), len(compiled.default_masks)
    numerical, keyed, sets = [], [], []
    for f, group in compiled.numerical.items():
        values = np.asarray(dataset.columns[f], dtype=np.float64)[rows]
        counts = np.searchsorted(group.thresholds, values, side="right")
        counts[np.isnan(values)] = 0  # missing applies nothing
        numerical.append((counts, group))
    for f, group in compiled.keyed.items():
        keys, table = _keyed_table(group, slots)
        if compiled.features[f].ftype == FeatureType.CATEGORICAL:
            values = np.asarray(dataset.columns[f], dtype=np.int64)[rows]
            key_rows = np.where(values == MISSING_CATEGORY, len(keys), _key_rows(keys, values))
            keyed.append((key_rows, table))
        else:
            sets.append((dataset.set_index(f), keys, table))
    trees = np.arange(compiled.num_trees)
    scores = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        leafidx = np.tile(compiled.default_masks, (hi - lo, 1))
        for counts, group in numerical:
            leafidx &= _cleared_masks(counts[lo:hi], group, slots)
        for key_rows, table in keyed:
            leafidx &= table[key_rows[lo:hi]]
        for index, keys, table in sets:
            positions, terms = index.node_tokens(rows[lo:hi])
            key_rows = _key_rows(keys, terms)
            known = key_rows < len(keys)  # a row without a known token applies nothing
            positions, key_rows = positions[known], key_rows[known]
            if len(key_rows):
                begins, _ = _runs(positions)
                leafidx[positions[begins]] &= np.bitwise_and.reduceat(table[key_rows], begins)
        values = compiled.leaf_values[trees, _leaf_positions(compiled, leafidx)]
        scores[lo:hi] = aggregate(compiled.kind, compiled.initial_score, values)
    return scores
