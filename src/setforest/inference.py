"""Compiled forest evaluation with per-tree leaf bitmasks.

Instead of routing an example from the root down, the compiled evaluator
keeps one bit per leaf of every tree, in left-to-right order, all set
initially. Every node contributes masks that clear the leaves of its
*negative* subtree, and a mask is applied exactly when the node's condition
holds:

* a categorical-set node's masks apply when the example contains one of
  the terms of its mask;
* a categorical node's when the example carries one of its values;
* a numerical node's when the value reaches its threshold.

The compiler reads the forest's one set of preorder node arrays
(``model.forest_nodes``: no tree's arrays are copied) and walks no tree: a
node's leaf span starts at the count of its tree's leaves before it, and its
negative subtree's span ends where its positive child's starts.

Each tree's bits fill ``words_per_tree`` uint64 words: as many as the
widest tree of the forest needs. Word ``w`` of tree ``t`` is the slot
``t * words_per_tree + w``. Missing values apply nothing. Once all masks
are in, the lowest set bit of each tree (in its first non-zero word) is the
leaf the top-down walk would have reached: conditions that held cleared
everything to the left of the true path, conditions that failed (or were
missing) cleared nothing of it, and the negative-first leaf order makes the
fall-through leaf the leftmost one.

Every split feature compiles to one ``MaskTable``: its sorted keys (terms,
categories or thresholds) and its entries, key by key, each a slot and its
mask. Key row ``k`` (row 0 has no entries) owns the entries of
``keys[k - 1]``. A term's or category's entries are the AND of the masks of
every node that holds on it, one per slot: one ``np.bitwise_and.at`` pass
ANDs every such key's node masks into one (keys, slots) array, whose words
that are not all ones are the entries; each of its rows is also kept as one
Python int over all slots, slot ``s`` at bits ``64 * s`` to ``64 * s + 63``.
AND does not depend on order, so a node's ids need only their rows, which a
rank table over each feature's vocabulary gives with no sort
(``_keyed_rows``). A numerical key's entries are one per node and word, and
its row ``k`` stands for the AND of the entries of every key row up to
``k``: a value reaches row ``searchsorted(keys, value, "right")``, row 0
below the lowest threshold. Its table keeps one entry per node; for the row
path it also packs every ``stride``-th of its rows from row 0, as ints like
a term's, with the stride the least that keeps them within ``_GATHER_BYTES``
(1 while thresholds x slots words fit), so they never grow as thresholds x
slots. A second ``np.bitwise_and.at`` pass ANDs each numerical entry into
the first packed row at or above its own (entries past the last packed row
go to a spare row that is not packed), an AND down each table's packed rows
then makes them cumulative, and one ``int.from_bytes`` pass packs the rows
of every table.

``predict_compiled`` scores a row with no numpy call per token, category
or number short of a packed row. ``compile_forest`` computes ahead each
keyed feature's type, the flat leaf values, each tree's offset into them and
a packed row's byte length. A row ANDs into the packed default masks one
int per known token and per category (looked up as given, by ``==``, as
``CategoryIn`` tests it) and, per non-NaN numerical value that reaches row
``k``, the packed row ``k // stride``, then the entries of the rows after
it up to ``k`` one by one as int ops (none at stride 1); ``to_bytes``,
``frombuffer``, ``bitwise_count``, an ``np.add.reduce`` over the words of a
wider tree and one ``take`` then read every tree's leaf value.

``predict_dataset``, the one vectorised evaluator (training scores its
validation and out-of-bag rows with it), scores a dataset's rows, or those a
``rows=`` selection names in any order, in blocks of ``_BLOCK_ROWS`` rows,
one (rows, slots) word array per block. Every value finds its table row
first, all rows of the call at once: a numerical value by ``searchsorted``
(a NaN reads row 0); a term or category, where its feature has a
vocabulary, with one array over ids -1 to the largest key + 1 that holds
each key's row and 0 elsewhere, read at id + 1 and clipped into it, so an id
past the model's keys (a dataset's vocabulary may be larger than the
model's) and ``MISSING_CATEGORY`` read the ones row. A feature without a vocabulary
ranks its values among the keys with ``searchsorted`` instead: max-hash
categorical values reach 2**63 - 1. ``MaskTable.words`` turns a table's rows
into words: a term's or category's table once per call, (keys + 1) x slots
words, the size of its packed ints; a numerical feature's per block, only
the distinct rows the block reads, each ANDing its own entries and those of
the rows read below it, then a prefix AND down them, so it never outgrows
the block. A numerical or categorical feature's block ``take``s its rows'
words, unless every row of the block reads row 0, the ones row: then the
feature is skipped. A block's rows are scored longest first in the first
set feature, and their scores go back to their places in ``rows`` at the
end. A set feature ANDs its key rows one token rank at a time: layer ``k``
is the ``k``-th token of every row longer than ``k``, a prefix of the
ordered rows, so it is one ``take`` of key rows and one in-place AND over
that prefix. Unknown tokens are ANDed too, since the ones row changes
nothing. Layering stops at the first layer whose rows hold fewer than
``_LAYER_WORDS`` words, below which a layer's fixed cost outweighs what it
saves; in a block of ``_BLOCK_ROWS`` rows a forest of 1 to 3 words per row
(training's one-tree forests) never layers. The tokens left belong to a
few long rows: they are ANDed row by row with ``reduceat``, at most
``_GATHER_BYTES`` of key rows gathered at a time. A later set feature
orders a copy of the block its own way. AND is exact in any order, so
every order gives the same bits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dataset import Dataset, Feature, FeatureType, MISSING_CATEGORY
from .model import LEAF, DecisionForest, Tree, aggregate, forest_nodes, predict

_ONE = np.uint64(1)
_ALL = np.uint64(2**64 - 1)
_ALL_INT = 2**64 - 1  # the same word as a Python int
_WORD = np.dtype("<u8")  # a leaf word as a packed int holds it, on any host
_CATEGORICAL, _NUMERICAL = FeatureType.CATEGORICAL, FeatureType.NUMERICAL


@dataclass
class MaskTable:
    """One split feature's leaf masks (see the module docstring): its sorted
    keys and their entries, key by key. Key row ``k`` (1 to ``len(keys)``;
    row 0 has none) owns entries ``ends[k - 1]`` to ``ends[k]``: the mask
    ``masks[i]`` of slot ``tree_ids[i]``. A term's or category's entries are
    one combined mask per slot, in slot order; a numerical key's are one per
    node and word. ``lookup`` serves the row path: a term's or category's
    row over all slots as one int, by key; for a numerical feature, its keys
    as a list for ``bisect_right``, its packed rows ``0, stride, 2 * stride,
    ...`` (the rows ``words`` gives, as ints) and the stride."""

    keys: np.ndarray  # ascending: int64 ids or category values, float64 thresholds
    ends: np.ndarray  # int64, len(keys) + 1, from 0
    tree_ids: np.ndarray  # int64 word slots; the tree ids at one word per tree
    masks: np.ndarray  # uint64
    slots: int
    cumulative: bool  # numerical: a row also ANDs the entries of every row below
    lookup: dict[int, int] | tuple[list[float], list[int], int]

    def words(self, reads=None) -> np.ndarray:
        """The (rows, slots) words of every table row, or of the ascending
        distinct rows ``reads`` of a cumulative table: all ones ANDed with
        each row's entries and, in a cumulative table, every lower row's."""
        ends = self.ends if reads is None else self.ends[reads]
        # every entry up to the last row goes into the first row at or above its own
        words = np.full((len(ends), self.slots), _ALL, dtype=_WORD)
        at = (np.arange(len(ends)) * self.slots).repeat(
            ends - np.concatenate(([0], ends[:-1]))) + self.tree_ids[:ends[-1]]
        if not self.cumulative:  # a row's entries are one per slot: each is its word
            words.reshape(-1)[at] = self.masks[:ends[-1]]
            return words
        np.bitwise_and.at(words.reshape(-1), at, self.masks[:ends[-1]])
        return np.bitwise_and.accumulate(words, axis=0, out=words)

    @property
    def index(self) -> dict:
        """Each key's [begin, end) in ``tree_ids`` and ``masks``."""
        return dict(zip(self.keys.tolist(), zip(self.ends[:-1].tolist(), self.ends[1:].tolist())))


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
    default_packed: int  # default_masks packed as a MaskTable row
    first_bits: int  # packed likewise: bit 0 of every tree's first word
    keyed: dict[int, MaskTable]  # by feature: every split feature's table
    row_tables: list[tuple[int, FeatureType, MaskTable]]  # keyed, with each feature's type
    flat_values: np.ndarray  # leaf_values, flat
    tree_starts: np.ndarray  # each tree's offset into flat_values
    packed_bytes: int  # a packed row's byte length


def _low_bits(count: np.ndarray) -> np.ndarray:
    """uint64 words with the ``count`` (0..64) lowest bits set."""
    return np.where(count > 0, _ALL >> (64 - np.maximum(count, 1)).astype(np.uint64),
                    np.uint64(0))


def _ranges(starts: np.ndarray, counts) -> np.ndarray:
    """``arange(s, s + c)`` for every paired start and count, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - starts, counts)


def _negative_spans(nodes: Tree, starts: np.ndarray):
    """The internal nodes of a ``forest_nodes`` forest, by index, and the leaf
    positions [lo, hi) of each one's negative subtree in its tree (see the
    module docstring)."""
    is_leaf = nodes.kind == LEAF
    before = np.cumsum(is_leaf) - is_leaf
    lo = before - np.repeat(before[starts[:-1]], np.diff(starts))
    internal = np.flatnonzero(~is_leaf)
    return internal, lo[internal], lo[nodes.positive[internal]]


def _entries(nodes: Tree, starts: np.ndarray, words: int, default_masks: np.ndarray):
    """One entry per (internal node, word in which the node clears leaves) of
    a ``forest_nodes`` forest, by node, then word: its node, slot and mask,
    the word's leaves minus the node's negative span [lo, hi)."""
    internal, lo, hi = _negative_spans(nodes, starts)
    span = (hi - 1) // 64 - lo // 64 + 1
    node = np.repeat(np.arange(len(lo)), span)
    word = _ranges(lo // 64, span)
    begin = np.maximum(lo[node] - 64 * word, 0)
    count = np.minimum(hi[node] - 64 * word, 64) - begin
    slots = (np.searchsorted(starts, internal, side="right") - 1)[node] * words + word
    masks = default_masks[slots] ^ (_low_bits(count) << begin.astype(np.uint64))
    return internal[node], slots, masks


def _keyed_rows(features: list[Feature], node_feature: np.ndarray, counts: np.ndarray,
                ids: np.ndarray):
    """The rows of the (feature, id) pairs of set and categorical nodes, by
    feature, then id, from each node's feature and id count and every id:
    each id's row, and each row's id and feature. AND does not depend on
    order, so no id is sorted where its feature has a vocabulary: every
    feature owns a block of one rank table, laid out feature after feature,
    as long as its vocabulary; each pair marks its id's place, and the
    running count of marks is its row. A feature without a vocabulary
    (max-hash values reach 2**63 - 1), or with an id outside it, sorts its
    ids instead, and its block holds one place per distinct id."""
    held = np.flatnonzero(counts)
    feature = np.repeat(node_feature[held], counts[held])  # each id's
    size = np.zeros(len(features), dtype=np.int64)  # each vocabulary's, 0 without one
    used = np.flatnonzero(np.bincount(node_feature[held], minlength=len(features))).tolist()
    size[used] = [len(features[f].vocabulary or ()) for f in used]
    # a feature with an id at or past its vocabulary's size, or below 0 (as
    # unsigned), sorts its ids
    sorts = np.zeros(len(features), dtype=bool)
    sorts[feature[ids.view(np.uint64) >= size.view(np.uint64)[feature]]] = True
    # the sorted ids, by feature, then id, and each one's place in its block
    # among its feature's distinct ids
    by_sort = np.flatnonzero(sorts[feature]) if sorts.any() else np.empty(0, dtype=np.intp)
    by_sort = by_sort[np.lexsort((ids[by_sort], feature[by_sort]))]
    sorted_feature = feature[by_sort]
    new = np.ones(len(by_sort), dtype=bool)
    new[1:] = (ids[by_sort[1:]] != ids[by_sort[:-1]]) | (sorted_feature[1:] != sorted_feature[:-1])
    distinct = np.bincount(sorted_feature[new], minlength=len(features))
    local = np.cumsum(new) - 1 - (np.cumsum(distinct) - distinct)[sorted_feature]
    size[sorts] = distinct[sorts]
    ends = np.cumsum(size)
    block = ends - size
    # every id's place: its block's first place plus the id itself, or its
    # place among the distinct ids for a sorted one
    place = block[feature]
    place += ids
    place[by_sort] = block[sorted_feature] + local
    marked = np.zeros(int(ends[-1]) if len(ends) else 0, dtype=bool)
    marked[place] = True
    pair_place = np.flatnonzero(marked)
    pair_feature = ends.searchsorted(pair_place, "right")
    pair_key = pair_place - block[pair_feature]
    rank = np.cumsum(marked) - 1
    pair_key[rank[place[by_sort[new]]]] = ids[by_sort[new]]
    return rank[place], pair_key, pair_feature


def _spans(pair_feature: np.ndarray) -> list[tuple[int, int]]:
    """The [begin, end) of each feature's pairs, in pair order."""
    first = np.flatnonzero(np.diff(pair_feature, prepend=-1)).tolist()
    return list(zip(first, [*first[1:], len(pair_feature)]))


def compile_forest(forest: DecisionForest) -> CompiledForest:
    nodes, starts = forest_nodes(forest), forest.starts
    num_trees = len(forest.trees)
    is_leaf = nodes.kind == LEAF
    num_leaves = np.diff(np.searchsorted(np.flatnonzero(is_leaf), starts))
    words = max(1, -(-int(num_leaves.max(initial=1)) // 64))
    leaf_values = np.zeros((num_trees, 64 * words))
    leaf_values.reshape(-1)[_ranges(np.arange(num_trees) * 64 * words, num_leaves)] = \
        nodes.value[is_leaf]
    default_masks = _low_bits(np.clip(num_leaves[:, None] - 64 * np.arange(words), 0, 64).ravel())
    n_slots = len(default_masks)
    node, slots, masks = _entries(nodes, starts, words, default_masks)

    # a set or categorical node's entries, once per id of the node, each
    # into the table row of its (feature, id) pair
    counts = np.diff(nodes.id_ends, prepend=0)
    keyed_at, pair_key, pair_feature = _keyed_rows(forest.features, nodes.feature, counts,
                                                   nodes.ids)
    n_rows = len(pair_key)
    id_count = counts[node]
    if words > 1:  # a node with entries in several words repeats its ids for each
        keyed_at = keyed_at[_ranges(nodes.id_ends[node] - id_count, id_count)]
    keyed_at *= n_slots
    keyed_at += slots.repeat(id_count)
    keyed_masks = masks.repeat(id_count)
    del counts, id_count
    # a numerical node's entries (none when its threshold is NaN: the node
    # never holds), ordered by feature, then threshold, keeping node order:
    # each (feature, threshold) pair's threshold as its rank among them all
    threshold = nodes.threshold[node]
    numerical = np.flatnonzero(threshold == threshold)
    thresholds, rank = np.unique(threshold[numerical], return_inverse=True)
    feature = nodes.feature[node[numerical]]
    order = np.lexsort((rank, feature))
    rank, feature, numerical = rank[order], feature[order], numerical[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (rank[1:] != rank[:-1]) | (feature[1:] != feature[:-1])
    threshold_rank, threshold_feature = rank[new], feature[new]
    bounds = np.append(np.flatnonzero(new), len(order))
    slots, masks = slots[numerical], masks[numerical]
    del nodes, is_leaf, node, threshold, numerical, rank, feature, order, new

    # each numerical pair's row of the same table: its first packed row at or
    # above it or, past its table's last packed row, the spare last row,
    # which is not packed (see the module docstring)
    budget_rows = max(1, _GATHER_BYTES // (_WORD.itemsize * max(n_slots, 1)))
    threshold_row = np.empty(len(threshold_rank), dtype=np.int64)
    packing = []  # per numerical feature: its pairs [p, q), packed rows [b, e) and stride
    n_packed = n_rows
    for p, q in _spans(threshold_feature):
        stride = -(-(q - p + 1) // budget_rows)
        checkpoint = -(-np.arange(1, q - p + 1) // stride)
        threshold_row[p:q] = np.where(checkpoint <= (q - p) // stride, n_packed + checkpoint, -1)
        packing.append((p, q, n_packed, n_packed + (q - p) // stride + 1, stride))
        n_packed = packing[-1][3]
    threshold_row[threshold_row < 0] = n_packed  # the spare row
    # every row: the AND of its entries; a numerical table's rows then AND
    # down, so each also holds the entries of every row below
    table = np.full((n_packed + 1, n_slots), _ALL, dtype=_WORD)
    np.bitwise_and.at(table.reshape(-1), keyed_at, keyed_masks)
    del keyed_at, keyed_masks
    np.bitwise_and.at(table.reshape(-1),
                      np.repeat(threshold_row * n_slots, np.diff(bounds)) + slots, masks)
    for _, _, b, e, _ in packing:
        np.bitwise_and.accumulate(table[b:e], axis=0, out=table[b:e])
    # a term's or category's words that are not all ones are its combined entries
    combined = np.flatnonzero(table[:n_rows] != _ALL)  # by row, then slot
    combined_ends = np.searchsorted(combined, np.arange(n_rows + 1) * n_slots)
    combined_slots, combined_masks = combined % max(n_slots, 1), table.reshape(-1)[combined]
    del combined
    # each packed row's int from its bytes, as one list (a forest without
    # trees has no slots and no rows); the fixed-width bytes dtype drops a
    # row's trailing zero bytes, the high bytes of its last word, which
    # leaves its int the same
    rows = table[:n_packed].view(f"S{_WORD.itemsize * max(n_slots, 1)}").ravel().tolist()
    del table
    packed = list(map(int.from_bytes, rows, repeat("little")))
    del rows
    tables = {}
    for p, q in _spans(pair_feature):
        ends = combined_ends[p:q + 1]
        tables[int(pair_feature[p])] = MaskTable(
            pair_key[p:q], ends - ends[0], combined_slots[ends[0]:ends[-1]],
            combined_masks[ends[0]:ends[-1]], n_slots, False,
            dict(zip(pair_key[p:q].tolist(), packed[p:q])))
    for p, q, b, e, stride in packing:  # a numerical feature keeps its entries in threshold order
        table_keys = thresholds[threshold_rank[p:q]]
        lo, hi = bounds[p], bounds[q]
        tables[int(threshold_feature[p])] = MaskTable(
            table_keys, bounds[p:q + 1] - lo, slots[lo:hi], masks[lo:hi], n_slots, True,
            (table_keys.tolist(), packed[b:e], stride))

    return CompiledForest(
        kind=forest.kind, initial_score=forest.initial_score, num_trees=num_trees,
        features=list(forest.features), words_per_tree=words, leaf_values=leaf_values,
        num_leaves=num_leaves, default_masks=default_masks, default_packed=_pack(default_masks),
        first_bits=_pack(np.arange(n_slots) % words == 0), keyed=tables,
        row_tables=[(f, forest.features[f].ftype, table) for f, table in tables.items()],
        flat_values=leaf_values.reshape(-1), tree_starts=np.arange(num_trees) * 64 * words,
        packed_bytes=_WORD.itemsize * n_slots)


def _pack(words: np.ndarray) -> int:
    """One int of the (slots,) ``words``, slot ``s`` at bits ``64 * s`` up."""
    return int.from_bytes(np.asarray(words, dtype=_WORD).tobytes(), "little")


def _apply_masks(compiled: CompiledForest, row: tuple) -> int:
    """The packed leaf words of one row: the packed default ANDed with the
    packed row of every known token and category (as given: by ``==``), and
    with the masks of every threshold a numerical value reaches: a packed
    row, then the entries of any rows past it. Raises ``ValueError`` when
    the row's length is not the schema's."""
    if len(row) != len(compiled.features):
        raise ValueError(f"row has {len(row)} values, schema has {len(compiled.features)}")
    leafidx = compiled.default_packed
    for feature, ftype, table in compiled.row_tables:
        value, lookup = row[feature], table.lookup
        if ftype is _CATEGORICAL:
            if value != MISSING_CATEGORY and (mask := lookup.get(value)) is not None:
                leafidx &= mask
        elif ftype is _NUMERICAL:
            keys, prefix, stride = lookup
            # NaN: missing applies nothing; so does a value below every threshold
            if value == value and (k := bisect_right(keys, value)):
                leafidx &= prefix[k // stride]
                if k % stride:  # the rows past the packed one, entry by entry
                    lo, hi = table.ends[k - k % stride], table.ends[k]
                    for slot, mask in zip(table.tree_ids[lo:hi].tolist(),
                                          table.masks[lo:hi].tolist()):
                        leafidx &= ~((mask ^ _ALL_INT) << 64 * slot)
        elif value:  # missing or empty set: nothing to apply
            get = lookup.get
            for term in value:
                if (mask := get(term)) is not None:
                    leafidx &= mask
    return leafidx


def _row_positions(compiled: CompiledForest, row: tuple) -> np.ndarray:
    """Per-tree position of the lowest leaf left for one row."""
    leafidx = _apply_masks(compiled, row)
    # every tree keeps a leaf, so taking 1 from each tree's first word
    # borrows within the tree only, and sets just the bits below that leaf
    below = (leafidx - compiled.first_bits) & ~leafidx
    counts = np.bitwise_count(np.frombuffer(below.to_bytes(compiled.packed_bytes, "little"), _WORD))
    if compiled.words_per_tree == 1:
        return counts  # uint8, only ever used as an index
    return np.add.reduce(counts.reshape(compiled.num_trees, -1), axis=1, dtype=np.intp)


def _leaf_positions(compiled: CompiledForest, leafidx: np.ndarray) -> np.ndarray:
    """Per-tree position of the lowest leaf left in a (rows, slots) word
    array: one (rows, trees) entry per row and tree."""
    # trailing zeros of every word; a word with no leaf left reads 64
    low = np.bitwise_count((leafidx - _ONE) & ~leafidx)
    if compiled.words_per_tree == 1:
        return low  # uint8, only ever used as an index
    # a tree's trailing zeros: its words', up to the first with a leaf left
    # (every tree keeps its reached leaf), summed from the last word down
    low = low.reshape(len(leafidx), -1, compiled.words_per_tree)
    position = low[..., -1].astype(np.intp)
    for word in range(compiled.words_per_tree - 2, -1, -1):
        position = np.where(low[..., word] < 64, low[..., word], position + 64)
    return position


def compiled_leaf_indices(compiled: CompiledForest, row: tuple) -> np.ndarray:
    """Per-tree active leaf position (int64), counted left to right."""
    return _row_positions(compiled, row).astype(np.int64)


def predict_compiled(compiled: CompiledForest, row: tuple) -> float:
    """Probability from the compiled evaluator; bit-identical to ``predict``."""
    values = compiled.flat_values.take(_row_positions(compiled, row) + compiled.tree_starts)
    return aggregate(compiled.kind, compiled.initial_score, values)


predict_top_down = predict  # the reference evaluator, named for comparisons


_BLOCK_ROWS = 256  # rows scored together; keeps a block's word arrays small
# bound on a block's gathered set-token key rows, and on a numerical table's packed rows
_GATHER_BYTES = 2**19
_LAYER_WORDS = 1024  # a token rank is ANDed as one layer while its rows hold this many words


def _longest_first(index, rows: np.ndarray) -> np.ndarray:
    """The order of ``rows`` by their token count in ``index``, longest first."""
    return np.argsort(index.indptr[rows] - index.indptr[rows + 1])


def _and_tokens(leafidx: np.ndarray, index, rows: np.ndarray, find, table: np.ndarray,
                tokens_per_gather: int) -> None:
    """AND into ``leafidx`` the ``table`` rows of the tokens of ``rows`` of
    the set column ``index``, whose key rows ``find`` gives; ``rows`` come
    longest first (see the module docstring)."""
    starts = index.indptr[rows]
    lengths = index.indptr[rows + 1] - starts
    # layer k holds the k-th token of every row longer than k, a prefix of
    # the rows; layering stops at the first layer of fewer than ``least`` rows
    least = max(1, _LAYER_WORDS // leafidx.shape[1])
    depth = int(lengths[least - 1]) if len(lengths) >= least else 0
    layers = np.arange(depth)
    # (layers, rows) key rows: past its layer's prefix a row reads another
    # row's token (clipped at the end), never used
    keys = find(index.term_ids.take(starts + layers[:, None], mode="clip"))
    for layer, m in zip(keys, (-lengths).searchsorted(-layers).tolist()):
        leafidx[:m] &= table.take(layer[:m], axis=0)
    # the tokens past ``depth`` of the rows longer than that: each gather ANDs
    # into the rows its tokens [c, e) overlap; a row cut between two gathers
    # gets both ANDs: the same bits
    m = int((-lengths).searchsorted(-depth))
    counts = lengths[:m] - depth
    keys = find(index.term_ids[_ranges(starts[:m] + depth, counts)])
    ends = np.cumsum(counts)
    begins = ends - counts
    for c in range(0, len(keys), tokens_per_gather):
        e = c + tokens_per_gather
        first, last = ends.searchsorted(c, "right"), begins.searchsorted(e)
        leafidx[first:last] &= np.bitwise_and.reduceat(
            table.take(keys[c:e], axis=0), np.maximum(begins[first:last] - c, 0))


def _row_finder(table: MaskTable, feature: Feature):
    """A function from an array of a feature's values to their table rows:
    ``searchsorted`` counts for a numerical feature (0 for NaN); a key's rank
    + 1 for a term or category, else 0. One array index where the feature has
    a vocabulary, whose size bounds the keys; ``searchsorted`` where it has
    none (see the module docstring)."""
    keys = table.keys
    if feature.ftype == FeatureType.NUMERICAL:
        return lambda values: np.where(np.isnan(values), 0, keys.searchsorted(values, "right"))
    if feature.vocabulary is not None:  # read at id + 1, clipped: -1 and past the keys read 0
        dense = np.zeros(int(keys[-1]) + 3, dtype=np.intp)
        dense[keys + 1] = np.arange(1, len(keys) + 1)
        return lambda values: dense.take(values + 1, mode="clip")

    def ranks(values):
        rank = np.searchsorted(keys, values)
        found = keys[np.minimum(rank, len(keys) - 1)] == values
        return np.where(found, rank + 1, 0)
    return ranks


def _check_schema(compiled: CompiledForest, dataset: Dataset) -> None:
    if len(dataset.features) != len(compiled.features):
        raise ValueError(f"dataset has {len(dataset.features)} features, "
                         f"model has {len(compiled.features)}")
    for i, (have, want) in enumerate(zip(dataset.features, compiled.features)):
        if have.ftype != want.ftype:
            raise ValueError(f"feature {i} ({have.name}) is {have.ftype.value} in the "
                             f"dataset and {want.ftype.value} in the model")
        # ids name the same terms when the dataset's vocabulary extends the model's
        terms = want.vocabulary.terms if want.vocabulary else ()
        if have.vocabulary is not want.vocabulary and terms and (
                not have.vocabulary or have.vocabulary.terms[:len(terms)] != terms):
            raise ValueError(f"feature {i} ({have.name}) is encoded with a vocabulary "
                             f"that does not begin with the model's {len(terms)} terms")


def predict_dataset(compiled: CompiledForest, dataset: Dataset, rows=None) -> np.ndarray:
    """Probabilities of the dataset rows ``rows`` (every row when None; they
    may be unsorted, repeated or empty), bit-identical to ``predict_compiled``
    row by row; scores blocks of rows at once (see the module docstring).
    Raises ``ValueError`` when the dataset's feature types are not the
    model's, a vocabulary of the dataset does not begin with the model's
    terms, or a row is not in ``[0, n_examples)``."""
    _check_schema(compiled, dataset)
    rows = np.arange(dataset.n_examples) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.size and not (rows.min() >= 0 and rows.max() < dataset.n_examples):
        raise ValueError(f"rows must be in [0, {dataset.n_examples})")
    n, slots = len(rows), len(compiled.default_masks)
    numerical, categorical, sets = [], [], []
    block_starts = np.arange(0, n, _BLOCK_ROWS)
    for f, table in compiled.keyed.items():
        feature, column = compiled.features[f], dataset.columns[f]
        find = _row_finder(table, feature)
        if feature.ftype == FeatureType.CATEGORICAL_SET:
            sets.append((column, find, table.words()))
            continue
        reads = find(np.asarray(column, dtype=np.float64 if feature.ftype == _NUMERICAL
                                else np.int64)[rows])
        # per block, whether a row reads other than row 0, the ones row: a
        # block where none does skips the feature
        live = np.logical_or.reduceat(reads != 0, block_starts).tolist() if n else []
        if feature.ftype == _NUMERICAL:
            numerical.append((reads, live, table))
        else:
            categorical.append((reads, live, table.words()))
    tokens_per_gather = max(1, _GATHER_BYTES // (_WORD.itemsize * max(slots, 1)))
    scores = np.empty(n, dtype=np.float64)
    for b, lo in enumerate(block_starts.tolist()):
        hi = min(lo + _BLOCK_ROWS, n)
        at = slice(lo, hi)  # the block's places in ``rows``, in the order it is scored
        if sets:  # longest first in the first set feature
            at = lo + _longest_first(sets[0][0], rows[at])
        block = rows[at]
        leafidx = np.empty((hi - lo, slots), dtype=_WORD)
        leafidx[:] = compiled.default_masks
        for table_rows, live, table in numerical:
            if live[b]:
                reads = table_rows[at]
                # the ascending distinct rows read, and each block row's rank among them
                read = np.zeros(len(table.ends), dtype=bool)
                read[reads] = True
                leafidx &= table.words(np.flatnonzero(read)).take(np.cumsum(read)[reads] - 1,
                                                                  axis=0)
        for table_rows, live, words in categorical:
            if live[b]:
                leafidx &= words.take(table_rows[at], axis=0)
        for i, (index, find, table) in enumerate(sets):
            # a later set feature orders a copy of the block its own way; an
            # unknown token reads the ones row: a no-op
            order = _longest_first(index, block) if i else slice(None)
            part = leafidx[order]  # the block itself for the first
            _and_tokens(part, index, block[order], find, table, tokens_per_gather)
            if i:
                leafidx[order] = part
        values = compiled.flat_values.take(_leaf_positions(compiled, leafidx)
                                           + compiled.tree_starts)
        scores[at] = aggregate(compiled.kind, compiled.initial_score, values)
    return scores
