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

The compiler reads the trees' preorder node arrays (``model.Tree``),
stacked into one forest, and walks no tree: a node's leaf span starts at
the count of its tree's leaves before it, and its negative subtree's span
ends where its positive child's starts.

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

Compiling also packs each keyed feature's masks per key into one Python
int over all slots, slot ``s`` at bits ``64 * s`` to ``64 * s + 63``: the
AND of the key's entries at their slots, all ones elsewhere. A row is then
scored with no numpy call per token: ``predict_compiled`` starts from the
packed default masks, ANDs in one int per known token or category, folds in
each numerical feature's first ``k`` threshold-sorted entries (one scatter
per feature), and reads every tree's leaf off the result with a fixed handful
of numpy calls at any width. The packed ints keep keys x slots words alive
per keyed feature, and row scoring costs a dict lookup and an int AND per
token.

``predict_dataset``, the one vectorised evaluator (training scores its
validation and out-of-bag rows with it), scores a dataset's rows, or those a
``rows=`` selection names in any order, in blocks of ``_BLOCK_ROWS`` rows,
one (rows, slots) word array per block. A numerical value's ``searchsorted``
count ``k`` says it clears the first ``k`` threshold-sorted entries (a NaN
clears none); per block, the entries are scattered into a table over the
block's distinct counts and AND-accumulated down it, so every row reads
the AND of its first ``k`` entries and the table never outgrows the block.
A keyed feature gets, once per call, a key table: one row of slot masks per
key, scattered from its entries, then a row of ones. Where the feature has a
vocabulary, a value finds its row with one array index: an array over ids 0
to the largest key + 1 holds each key's row and the ones row elsewhere, and
values are clipped into it, so an id past the model's keys (a dataset's
vocabulary may be larger than the model's) and ``MISSING_CATEGORY`` read the
ones row. A feature without a vocabulary ranks its values among the keys
with ``searchsorted`` instead: max-hash categorical values reach 2**63 - 1.
A set feature ANDs the key rows of a block row's tokens together with
``reduceat``, unknown tokens included, since their ones row changes nothing;
the runs start where the CSR row lengths say, and at most ``_GATHER_BYTES``
of key rows are gathered at a time. A key table takes (keys + 1) x slots
words per feature and lives for one call, as does its lookup array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dataset import Dataset, Feature, FeatureType, MISSING_CATEGORY
from .model import LEAF, DecisionForest, Tree, aggregate, predict, stack_trees

_ONE = np.uint64(1)
_ALL = np.uint64(2**64 - 1)
_WORD = np.dtype("<u8")  # a leaf word as a packed int holds it, on any host


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
    increasing inside each range. ``packed`` maps the same keys, in the same
    order, to the key's masks over all slots as one int: slot ``s`` is bits
    ``64 * s`` to ``64 * s + 63``, the AND of the key's entries at their
    slots and all ones elsewhere.
    """

    index: dict[int, tuple[int, int]]
    tree_ids: np.ndarray  # int64 word slots; the tree ids at one word per tree
    masks: np.ndarray  # uint64
    packed: dict[int, int]


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
    default_packed: int  # default_masks packed as in KeyedEntries.packed
    first_bits: int  # packed likewise: bit 0 of every tree's first word
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


def _negative_spans(nodes: Tree, starts: np.ndarray):
    """The internal nodes of a ``stack_trees`` forest, by index, and the leaf
    positions [lo, hi) of each one's negative subtree in its tree (see the
    module docstring)."""
    is_leaf = nodes.kind == LEAF
    before = np.cumsum(is_leaf) - is_leaf
    lo = before - np.repeat(before[starts[:-1]], np.diff(starts))
    internal = np.flatnonzero(~is_leaf)
    return internal, lo[internal], lo[nodes.positive[internal]]


def compile_forest(forest: DecisionForest) -> CompiledForest:
    nodes, starts = stack_trees(forest.trees)
    num_trees = len(forest.trees)
    is_leaf = nodes.kind == LEAF
    num_leaves = np.diff(np.searchsorted(np.flatnonzero(is_leaf), starts))
    words = max(1, -(-int(num_leaves.max(initial=1)) // 64))
    leaf_values = np.zeros((num_trees, 64 * words))
    leaf_values.reshape(-1)[_ranges(np.arange(num_trees) * 64 * words, num_leaves)] = \
        nodes.value[is_leaf]
    default_masks = _low_bits(np.clip(num_leaves[:, None] - 64 * np.arange(words), 0, 64).ravel())

    # one entry per (internal node, word in which the node clears leaves): the
    # word's leaves minus the node's negative span [lo, hi). A keyed node's
    # threshold is NaN, which also drops a NaN-threshold numerical node: it
    # never holds
    internal, lo, hi = _negative_spans(nodes, starts)
    span = (hi - 1) // 64 - lo // 64 + 1
    node = np.repeat(np.arange(len(lo)), span)
    word = _ranges(lo // 64, span)
    begin = np.maximum(lo[node] - 64 * word, 0)
    count = np.minimum(hi[node] - 64 * word, 64) - begin
    slots = (np.searchsorted(starts, internal, side="right") - 1)[node] * words + word
    masks = default_masks[slots] ^ (_low_bits(count) << begin.astype(np.uint64))
    feature = nodes.feature[internal][node]
    threshold = nodes.threshold[internal][node]

    # numerical entries sort by (feature, threshold, slot); lexsort is
    # stable, so ties keep preorder
    entry = np.flatnonzero(threshold == threshold)
    entry = entry[np.lexsort([slots[entry], threshold[entry], feature[entry]])]
    numerical = {int(feature[part[0]]): NumericalEntries(threshold[part], slots[part], masks[part])
                 for part in np.split(entry, _runs(feature[entry])[0])[1:]}

    # keyed entries repeat once per term of their node and sort by
    # (feature, term, slot), each key cast to its narrowest dtype (lexsort
    # radix-sorts up to 16 bits); the masks of equal triples AND-combine
    key_count = np.diff(nodes.id_ends, prepend=0)[internal]
    per_entry = key_count[node]
    term = nodes.ids[_ranges((nodes.id_ends[internal] - key_count)[node], per_entry)]
    feature, slots = np.repeat(feature, per_entry), np.repeat(slots, per_entry)
    order = np.lexsort([a.astype(np.min_scalar_type(a.max(initial=0)))
                        for a in (slots, term, feature)])
    feature, term, slots = feature[order], term[order], slots[order]
    starts, _ = _runs(feature, term, slots)
    key_masks = np.bitwise_and.reduceat(np.repeat(masks, per_entry)[order], starts)
    feature, term, slots = feature[starts], term[starts], slots[starts]
    # each (feature, term) key's entries [begin, end), scattered into a row of
    # ones over all slots, one packed int per row
    key_begins, key_ends = _runs(feature, term)
    n_slots = len(default_masks)
    table = np.full((len(key_begins), n_slots), _ALL, dtype=_WORD)
    table[np.repeat(np.arange(len(key_begins)), key_ends - key_begins), slots] = key_masks
    # each row as one bytes object (a forest without trees has no slots and
    # no rows); the fixed-width bytes dtype drops a row's trailing zero bytes,
    # the high bytes of its last word, which leaves its int the same
    rows = table.view(f"S{_WORD.itemsize * max(n_slots, 1)}").ravel().tolist()
    del table  # the rows are a copy; the ints need not share the peak with it
    packed = list(map(int.from_bytes, rows, repeat("little")))
    keyed = {}
    for kb, ke in zip(*(a.tolist() for a in _runs(feature[key_begins]))):
        b, e = int(key_begins[kb]), int(key_ends[ke - 1])
        terms = term[key_begins[kb:ke]].tolist()
        spans = zip((key_begins[kb:ke] - b).tolist(), (key_ends[kb:ke] - b).tolist())
        keyed[int(feature[b])] = KeyedEntries(dict(zip(terms, spans)), slots[b:e],
                                              key_masks[b:e], dict(zip(terms, packed[kb:ke])))

    return CompiledForest(
        kind=forest.kind, initial_score=forest.initial_score, num_trees=num_trees,
        features=list(forest.features), words_per_tree=words, leaf_values=leaf_values,
        num_leaves=num_leaves, default_masks=default_masks,
        default_packed=_pack(default_masks), first_bits=_pack(np.arange(n_slots) % words == 0),
        numerical=numerical, keyed=keyed)


def _pack(words: np.ndarray) -> int:
    """One int of the (slots,) ``words``, slot ``s`` at bits ``64 * s`` up."""
    return int.from_bytes(np.asarray(words, dtype=_WORD).tobytes(), "little")


def _apply_masks(compiled: CompiledForest, row: tuple) -> int:
    """The packed leaf words of one row: the packed default ANDed with the
    packed mask of every known token and category, and with the numerical
    entries that hold. Raises ``ValueError`` when the row's length is not the
    schema's."""
    if len(row) != len(compiled.features):
        raise ValueError(f"row has {len(row)} values, schema has {len(compiled.features)}")
    leafidx = compiled.default_packed
    for feature, group in compiled.keyed.items():
        value, get = row[feature], group.packed.get
        if compiled.features[feature].ftype == FeatureType.CATEGORICAL:
            if value != MISSING_CATEGORY and (mask := get(int(value))) is not None:
                leafidx &= mask
        elif value:  # missing or empty set: nothing to apply
            for term in value:
                if (mask := get(term)) is not None:
                    leafidx &= mask
    for feature, group in compiled.numerical.items():
        value = row[feature]
        if value != value:  # NaN: missing skips the feature entirely
            continue
        k = int(group.thresholds.searchsorted(value, "right"))
        if k:
            words = np.full(len(compiled.default_masks), _ALL, dtype=_WORD)
            np.bitwise_and.at(words, group.tree_ids[:k], group.masks[:k])
            leafidx &= _pack(words)
    return leafidx


def _row_positions(compiled: CompiledForest, row: tuple) -> np.ndarray:
    """Per-tree position of the lowest leaf left for one row."""
    leafidx = _apply_masks(compiled, row)
    # every tree keeps a leaf, so taking 1 from each tree's first word
    # borrows within the tree only, and sets just the bits below that leaf
    below = (leafidx - compiled.first_bits) & ~leafidx
    counts = np.bitwise_count(np.frombuffer(
        below.to_bytes(_WORD.itemsize * len(compiled.default_masks), "little"), dtype=_WORD))
    if compiled.words_per_tree == 1:
        return counts  # uint8, only ever used as an index
    return counts.reshape(compiled.num_trees, -1).sum(axis=1, dtype=np.int64)


def _leaf_positions(compiled: CompiledForest, leafidx: np.ndarray) -> np.ndarray:
    """Per-tree position of the lowest leaf left in a (rows, slots) word
    array: one (rows, trees) entry per row and tree."""
    # trailing zeros of every word; a word with no leaf left reads 64
    low = np.bitwise_count((leafidx - _ONE) & ~leafidx)
    if compiled.words_per_tree == 1:
        return low  # uint8, only ever used as an index
    low = low.reshape(-1, compiled.words_per_tree)
    word = np.argmax(low < 64, axis=1)  # every tree keeps its reached leaf
    return (64 * word + low[np.arange(len(low)), word]).reshape(len(leafidx), -1)


def compiled_leaf_indices(compiled: CompiledForest, row: tuple) -> np.ndarray:
    """Per-tree active leaf position (int64), counted left to right."""
    return _row_positions(compiled, row).astype(np.int64)


def predict_compiled(compiled: CompiledForest, row: tuple) -> float:
    """Probability from the compiled evaluator; bit-identical to ``predict``."""
    width = compiled.leaf_values.shape[1]
    values = compiled.leaf_values.take(_row_positions(compiled, row)
                                       + np.arange(0, compiled.num_trees * width, width))
    return aggregate(compiled.kind, compiled.initial_score, values)


predict_top_down = predict  # the reference evaluator, named for comparisons


_BLOCK_ROWS = 256  # rows scored together; keeps a block's word arrays small
_GATHER_BYTES = 2**19  # bound on a block's gathered set-token key rows


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


def _keyed_table(group: KeyedEntries, slots: int) -> np.ndarray:
    """Per key, in ascending key order, a row of its slot masks (ones at the
    slots it has no entry in), then a row of ones for a value with no key."""
    ends = np.fromiter((end for _, end in group.index.values()), dtype=np.int64,
                       count=len(group.index))
    table = np.full((len(ends) + 1, slots), _ALL, dtype=_WORD)
    table[np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0)), group.tree_ids] = group.masks
    return table


def _key_finder(group: KeyedEntries, feature: Feature):
    """A function from an int64 array of ids (or category values) to their
    rows of ``_keyed_table``: a key's rank among the keys, else the ones row.
    One array index where the feature has a vocabulary, whose size bounds the
    keys; ``searchsorted`` where it has none (see the module docstring)."""
    keys = np.fromiter(group.index, dtype=np.int64, count=len(group.index))
    if feature.vocabulary is not None:
        dense = np.full(int(keys[-1]) + 2, len(keys), dtype=np.intp)
        dense[keys] = np.arange(len(keys))
        return lambda values: dense[np.clip(values, -1, len(dense) - 1)]

    def ranks(values):
        rank = np.searchsorted(keys, values)
        found = keys[np.minimum(rank, len(keys) - 1)] == values
        return np.where(found, rank, len(keys))
    return ranks


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
        table, find = _keyed_table(group, slots), _key_finder(group, compiled.features[f])
        if compiled.features[f].ftype == FeatureType.CATEGORICAL:
            keyed.append((find(np.asarray(dataset.columns[f], dtype=np.int64)[rows]), table))
        else:
            sets.append((dataset.columns[f], find, table))
    width = compiled.leaf_values.shape[1]
    tree_starts = np.arange(0, compiled.num_trees * width, width)
    tokens_per_gather = max(1, _GATHER_BYTES // (_WORD.itemsize * max(slots, 1)))
    scores = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        leafidx = np.tile(compiled.default_masks, (hi - lo, 1))
        for counts, group in numerical:
            leafidx &= _cleared_masks(counts[lo:hi], group, slots)
        for key_rows, table in keyed:
            leafidx &= table.take(key_rows[lo:hi], axis=0)
        for index, find, table in sets:
            lengths, terms = index.row_tokens(rows[lo:hi])
            key_rows = find(terms)  # an unknown token reads the ones row: a no-op
            # the block rows that hold tokens, and their [begins, ends) among them
            filled = np.flatnonzero(lengths)
            ends = np.cumsum(lengths[filled])
            begins = ends - lengths[filled]
            # each gather ANDs into the rows its tokens [c, e) overlap; a row
            # cut between two gathers gets both ANDs: the same bits
            for c in range(0, len(key_rows), tokens_per_gather):
                e = c + tokens_per_gather
                first, last = ends.searchsorted(c, "right"), begins.searchsorted(e)
                leafidx[filled[first:last]] &= np.bitwise_and.reduceat(
                    table.take(key_rows[c:e], axis=0), np.maximum(begins[first:last] - c, 0))
        values = compiled.leaf_values.take(_leaf_positions(compiled, leafidx) + tree_starts)
        scores[lo:hi] = aggregate(compiled.kind, compiled.initial_score, values)
    return scores
