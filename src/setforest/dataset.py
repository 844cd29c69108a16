"""Datasets mixing numerical, categorical, and categorical-set features.

A categorical-set value is a sorted, duplicate-free tuple of vocabulary term
ids, e.g. the unigrams of a sentence. The empty tuple is a legal value and is
distinct from a missing value (``None``): an empty set simply contains no
terms, while a missing value means the field was absent.

Column storage is columnar:

* numerical   -> ``float64`` array, NaN marks missing;
* categorical -> ``int64`` array of value ids, ``-1`` marks missing;
* set         -> ``SetColumnIndex`` (CSR): the term ids of every row laid
  end to end, row offsets and a ``missing`` mask.

``Dataset`` converts a list of id tuples (``None`` for missing) to that one
layout when it is built; indexing the column by row still gives the tuple.

Each input format has one reader, which every command uses. ``read_text``
reads and decodes every file or stream, and drops a leading byte-order
mark. ``text_examples`` splits each text line into an optional label and
its token set. A CSV column's cells are parsed once by type; ``load_csv``
infers a value table for each categorical and set column from them, and
both CSV loaders encode through one function.

Raw tokens reach the CSR layout in whole-column passes. The split rule is
chosen once per text (``_split_rule``): ``str.split``, in C, unless the text
holds a character it splits on that ASCII whitespace does not, and then the
``_ASCII_WS`` regex; ``tokenize``, text lines and CSV set cells all use it.
``build_vocabulary`` counts document frequencies in one ``Counter`` pass.
``encode_set_column`` is the one encoder of raw token rows, text or CSV: it
maps every token to its id at once and orders and deduplicates every row
with one sort, making no per-row tuple.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

MISSING_CATEGORY = -1

_ASCII_WS = re.compile(r"[ \t\n\r\f\v]+")
# what str.split() splits on besides _ASCII_WS's characters
_OTHER_WS = re.compile("[\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")


class DataError(Exception):
    """Raised for malformed input files or rows that violate a schema."""


class FeatureType(str, Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"
    CATEGORICAL_SET = "set"


@dataclass(frozen=True)
class Vocabulary:
    """Dense term -> id mapping ordered by descending document frequency.

    Ids are 0-based and assigned in descending frequency with a lexicographic
    tie-break, so the mapping is a pure function of the corpus.
    """

    terms: tuple[str, ...]
    frequencies: tuple[int, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def to_dict(self) -> dict:
        return {"terms": list(self.terms), "frequencies": list(self.frequencies)}

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        """Raises ``ValueError`` unless ``terms`` is a list of distinct strings
        and ``frequencies`` a list of as many ints."""
        terms, frequencies = data["terms"], data["frequencies"]
        if (type(terms) is not list or type(frequencies) is not list
                or len(terms) != len(frequencies)
                or list(map(type, terms)).count(str) != len(terms)
                or list(map(type, frequencies)).count(int) != len(terms)
                or len(set(terms)) != len(terms)):
            raise ValueError("a vocabulary needs a list of distinct string terms "
                             "and a list of as many integer frequencies")
        return cls(tuple(terms), tuple(frequencies))


@dataclass(frozen=True)
class Feature:
    name: str
    ftype: FeatureType
    vocabulary: Vocabulary | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.ftype.value,
            "vocabulary": self.vocabulary.to_dict() if self.vocabulary else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Feature":
        """Raises ``ValueError`` unless ``name`` is a string."""
        if type(data["name"]) is not str:
            raise ValueError(f"a feature name must be a string, not {data['name']!r}")
        vocab = data.get("vocabulary")
        return cls(
            name=data["name"],
            ftype=FeatureType(data["type"]),
            vocabulary=Vocabulary.from_dict(vocab) if vocab else None,
        )


def _regex_split(text: str) -> list[str]:
    return list(filter(None, _ASCII_WS.split(text)))


def _split_rule(text: str):
    """The token split for every line or cell of ``text``: ``str.split``,
    which runs in C and splits as ``_ASCII_WS`` does unless ``text`` holds
    one of ``_OTHER_WS``; the regex when it does."""
    if text.isascii():
        other = any(c in text for c in "\x1c\x1d\x1e\x1f")
    else:
        other = _OTHER_WS.search(text) is not None
    return _regex_split if other else str.split


def tokenize(text: str) -> frozenset[str]:
    """Split on runs of ASCII whitespace and deduplicate.

    No lowercasing, no stemming; surface forms are kept as-is. An empty
    string yields an empty set.
    """
    return frozenset(_split_rule(text)(text))


def build_vocabulary(
    corpus: Iterable[Iterable[str]],
    max_size: int | None = 5000,
    min_frequency: int = 5,
) -> Vocabulary:
    """Build a pruned vocabulary from a collection of token sets.

    Frequency means document frequency: the number of examples containing the
    term. Terms seen in fewer than ``min_frequency`` examples are dropped,
    the survivors are ranked by (descending frequency, term) and the top
    ``max_size`` (all of them when None) keep dense ids in rank order.
    """
    if (max_size is not None and max_size < 1) or min_frequency < 1:
        raise ValueError("max_size and min_frequency must be >= 1")
    # one counting pass in C; a row that is not a set yet counts a token once
    counts = Counter(chain.from_iterable(
        tokens if isinstance(tokens, (set, frozenset)) else set(tokens) for tokens in corpus))
    items = [(t, c) for t, c in counts.items() if c >= min_frequency]
    items.sort(key=lambda tc: (-tc[1], tc[0]))
    items = items[:max_size]
    return Vocabulary(tuple(t for t, _ in items), tuple(c for _, c in items))


def encode_tokens(tokens: Iterable[str], vocab: Vocabulary) -> tuple[int, ...]:
    """Map tokens to sorted term ids, silently dropping out-of-vocabulary ones.

    Already-encoded input round-trips: encoding the decoded form of a sorted
    id tuple returns the same tuple.
    """
    return encode_set_column([tuple(tokens)], vocab)[0]


def encode_set_column(rows: Sequence[Iterable[str] | None], vocab: Vocabulary) -> "SetColumnIndex":
    """The set column of ``rows``, token collections or None (missing), in
    its CSR layout: each row's tokens that are in ``vocab``, as distinct
    term ids in increasing order. Whole-column passes: the ids of every
    token at once, then one sort of row-major keys (row times the
    vocabulary's size plus id), which orders each row and makes a repeated
    token adjacent to its twin."""
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    missing = np.fromiter(map(operator.is_, rows, repeat(None)), dtype=bool, count=len(rows))
    present = [tokens for tokens in rows if tokens is not None] if missing.any() else rows
    try:
        lengths = np.fromiter(map(len, present), dtype=np.int64, count=len(present))
    except TypeError:  # rows without a length, such as generators
        present = list(map(tuple, present))
        lengths = np.fromiter(map(len, present), dtype=np.int64, count=len(present))
    width = max(len(vocab), 1)
    keys = np.repeat(np.flatnonzero(~missing) * width, lengths)
    ids = np.fromiter(map(vocab.index.get, chain.from_iterable(present), repeat(-1)),
                      dtype=np.int64, count=len(keys))
    keys += ids
    known = ids >= 0
    del ids
    if not known.all():
        keys = keys[known]  # out-of-vocabulary tokens are dropped
    keys.sort()
    repeated = keys[1:] == keys[:-1]  # a token listed twice in its row
    if repeated.any():
        keys = keys[np.concatenate(([True], ~repeated))]
    indptr = np.searchsorted(keys, np.arange(len(rows) + 1, dtype=np.int64) * width)
    np.remainder(keys, width, out=keys)
    return SetColumnIndex.from_arrays(indptr, keys, missing)


class SetColumnIndex:
    """A set column in CSR layout: row ``r``'s term ids are
    ``term_ids[indptr[r]:indptr[r + 1]]``, and ``missing[r]`` marks a missing
    value, which like the empty set holds no ids. It reads like the list of
    id tuples it is built from: ``column[r]`` is a tuple of ints or ``None``."""

    __slots__ = ("indptr", "term_ids", "missing")

    def __init__(self, column):
        lengths = np.fromiter((-1 if x is None else len(x) for x in column),
                              dtype=np.int64, count=len(column))
        self.missing = lengths < 0
        np.maximum(lengths, 0, out=lengths)
        self.indptr = np.zeros(len(column) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.indptr[1:])
        self.term_ids = np.fromiter(chain.from_iterable(filter(None, column)),
                                    dtype=np.int64, count=int(self.indptr[-1]))

    @classmethod
    def from_arrays(cls, indptr, term_ids, missing) -> "SetColumnIndex":
        out = cls.__new__(cls)
        out.indptr, out.term_ids, out.missing = indptr, term_ids, missing
        return out

    def __len__(self) -> int:
        return len(self.missing)

    def __getitem__(self, r: int) -> tuple[int, ...] | None:
        r = range(len(self.missing))[r]
        if self.missing[r]:
            return None
        return tuple(self.term_ids[self.indptr[r]:self.indptr[r + 1]].tolist())

    def take(self, indices) -> "SetColumnIndex":
        """The column of the rows ``indices``, in that order."""
        lengths, term_ids = self.row_tokens(indices)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return SetColumnIndex.from_arrays(indptr, term_ids, self.missing[indices])

    def node_tokens(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(positions in ``indices``, term ids) of every token of the selected
        rows, row by row and in id order within a row."""
        lengths, terms = self.row_tokens(indices)
        return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths), terms

    def row_tokens(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(token count of each selected row, term ids of every token of the
        selected rows, row by row and in id order within a row)."""
        indices = np.asarray(indices)
        starts = self.indptr[indices]
        lengths = self.indptr[1:][indices] - starts
        ends = np.cumsum(lengths)
        if not len(ends) or not ends[-1]:
            return lengths, np.empty(0, dtype=np.int64)
        # a token's place in term_ids: its row's start plus its rank in the row
        flat = np.repeat(starts - (ends - lengths), lengths)
        flat += np.arange(int(ends[-1]), dtype=np.int64)
        return lengths, self.term_ids[flat]

    def first_bad(self, size: int | None) -> int | None:
        """The first row whose ids are not strictly increasing, non-negative
        and below ``size`` (any non-negative id when ``size`` is None)."""
        ids = self.term_ids
        bad = np.ones(len(ids), dtype=bool)
        np.less_equal(ids[1:], ids[:-1], out=bad[1:])
        starts = self.indptr[:-1]
        bad[starts[starts < len(ids)]] = False  # a row's first id follows no id of its own
        bad |= ids < 0
        if size is not None:
            bad |= ids >= size
        if not bad.any():
            return None
        return int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1


@dataclass
class Dataset:
    """Schema, columns, binary labels and per-example weights."""

    features: list[Feature]
    columns: list
    labels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.features) != len(self.columns):
            raise ValueError("schema and column count mismatch")
        # the one place a set column becomes its CSR layout
        self.columns = [SetColumnIndex(col) if feat.ftype == FeatureType.CATEGORICAL_SET
                        and not isinstance(col, SetColumnIndex) else col
                        for feat, col in zip(self.features, self.columns)]

    @classmethod
    def create(cls, features, columns, labels, weights=None) -> "Dataset":
        labels = np.asarray(labels, dtype=np.int64)
        if weights is None:
            weights = np.ones(len(labels), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
        ds = cls(list(features), list(columns), labels, weights)
        ds.validate()
        return ds

    @property
    def n_examples(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def validate(self) -> None:
        """Check the schema against the columns, with numpy passes: labels are
        0/1, weights positive, categorical ids ``MISSING_CATEGORY`` or inside
        the vocabulary, and every set value a strictly increasing tuple of
        non-negative ids inside the vocabulary."""
        n = self.n_examples
        if len(self.weights) != n:
            raise ValueError("labels and weights length mismatch")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be binary 0/1")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        for feat, col in zip(self.features, self.columns):
            size = len(feat.vocabulary) if feat.vocabulary else None
            if feat.ftype == FeatureType.NUMERICAL:
                if len(col) != n or np.asarray(col).dtype != np.float64:
                    raise ValueError(f"bad numerical column {feat.name}")
            elif feat.ftype == FeatureType.CATEGORICAL:
                values = np.asarray(col)
                if len(col) != n or values.dtype.kind not in "iu":
                    raise ValueError(f"bad categorical column {feat.name}")
                bad = (values < MISSING_CATEGORY) if size is None else \
                    (values < MISSING_CATEGORY) | (values >= size)
                if bad.any():
                    raise ValueError(f"category id {values[bad][0]} out of range in {feat.name}")
            else:
                if len(col) != n:
                    raise ValueError(f"bad set column {feat.name}")
                row = col.first_bad(size)
                if row is not None:
                    raise ValueError(f"set value {col[row]!r} of row {row} in {feat.name}: term "
                                     "ids must be strictly increasing and in its vocabulary")

    def row(self, i: int) -> tuple:
        return tuple(col[i] for col in self.columns)

    def rows(self, indices=None) -> list[tuple]:
        if indices is None:
            indices = range(self.n_examples)
        return [self.row(i) for i in indices]

    def subset(self, indices) -> "Dataset":
        # int64 even when empty: np.asarray([]) is float64 and cannot index
        indices = np.asarray(indices, dtype=np.int64)
        cols = []
        for feat, col in zip(self.features, self.columns):
            if feat.ftype == FeatureType.CATEGORICAL_SET:
                cols.append(col.take(indices))
            else:
                cols.append(np.asarray(col)[indices])
        return Dataset(list(self.features), cols, self.labels[indices], self.weights[indices])


def dataset_from_token_sets(
    token_sets: Sequence[Iterable[str]],
    vocab: Vocabulary,
    labels,
    weights=None,
    name: str = "text",
) -> Dataset:
    """Single set-feature dataset from raw token sets (OOV tokens dropped)."""
    feature = Feature(name, FeatureType.CATEGORICAL_SET, vocab)
    return Dataset.create([feature], [encode_set_column(token_sets, vocab)], labels, weights)


def _source_name(source) -> str:
    """How a ``DataError`` names ``source``: a path as given, a stream by its
    ``name``, or ``<stream>`` where it has none."""
    return getattr(source, "name", "<stream>") if hasattr(source, "read") else str(source)


def read_text(source) -> tuple[str, str]:
    """The name (``_source_name``) and the text of ``source``, a path or a
    binary stream such as ``sys.stdin.buffer``: every input is read here,
    and decoded from UTF-8 at once. Raises ``DataError`` when it cannot be
    read, naming ``path:line`` of the first byte that is not UTF-8."""
    name = _source_name(source)
    try:
        data = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot open {name}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{name}:{line}: not UTF-8 text ({exc.reason})") from None
    return name, text[1:] if text.startswith("\ufeff") else text  # a byte-order mark


def _text_lines(source):
    """The lines of ``source`` (see ``read_text``), split at ``\\n``,
    ``\\r\\n`` or ``\\r``, and the split rule of its text."""
    text = read_text(source)[1].replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n"), _split_rule(text)


def text_examples(source) -> Iterator[tuple[int, int | None, frozenset[str]]]:
    """``(line number, label, tokens)`` of each example line of ``source``
    (see ``read_text``): a line that starts with ``0`` or ``1`` and a TAB has
    that label and the rest is its text; any other line has no label
    (``None``) and is all text. A line of ASCII whitespace alone is blank,
    and skipped. Lines end at ``\\n``, ``\\r\\n`` or ``\\r``."""
    lines, split = _text_lines(source)
    for lineno, line in enumerate(lines, start=1):
        head, tab, rest = line.partition("\t")
        label = int(head) if tab and head in ("0", "1") else None
        tokens = frozenset(split(line if label is None else rest))
        if tokens or label is not None:
            yield lineno, label, tokens


def load_labeled_text(path) -> tuple[list[frozenset[str]], np.ndarray]:
    """Read ``<label><TAB><text>`` lines as ``text_examples`` does, in one
    pass; every example line needs its ``0`` or ``1`` label."""
    lines, split = _text_lines(path)
    labels: list[bool] = []
    texts: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        head, tab, rest = line.partition("\t")
        if tab and head in ("0", "1"):
            labels.append(head == "1")
            texts.append(rest)
        elif split(line):  # not blank
            raise DataError(f"{_source_name(path)}:{lineno}: a line must start with a 0 "
                            "or 1 label and a TAB")
    return list(map(frozenset, map(split, texts))), np.asarray(labels, dtype=np.int64)


def _parse_set_cell(cell: str, split=None) -> frozenset[str] | None:
    # "{a b c}" -> tokens, "{}" -> empty set, "" -> missing; split by the
    # file's split rule, or the cell's own
    if cell == "":
        return None
    if not (cell.startswith("{") and cell.endswith("}")):
        raise DataError("set cell must look like '{tok tok}' or '{}'")
    return tokenize(cell[1:-1]) if split is None else frozenset(split(cell[1:-1]))


def _read_table(path, columns, label_column: str | None, weight_column: str | None):
    """Header, cells of ``columns`` (name -> type) by name, each parsed once
    by its type (``_parse_cells``), labels and weights of a CSV file or stream.

    The header must hold every named column once and each row one cell per
    header column. Without a label column the labels are 0, without a
    weight column the weights are None.
    """
    name, text = read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{name}: empty file")
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{name}:{reader.line_num}: {exc}") from None
    weight_column = weight_column or None  # an empty name means no weights
    for column in [*columns, label_column, weight_column]:
        if column is not None and header.count(column) != 1:
            raise DataError(f"{name}: column {column!r} "
                            f"{'not in' if column not in header else 'repeated in'} header")
    col_of = {column: header.index(column) for column in header}
    labels = [] if label_column is not None else [0] * len(rows)
    weights = [] if weight_column is not None else None
    for rowno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{name}:{rowno}: expected {len(header)} cells, got {len(row)}")
        if label_column is not None:
            cell = row[col_of[label_column]]
            if cell not in ("0", "1"):
                raise DataError(f"{name}:{rowno}: label must be 0 or 1, got {cell!r}")
            labels.append(int(cell))
        if weight_column is not None:
            cell = row[col_of[weight_column]]
            try:
                weight = float(cell)
            except ValueError:
                raise DataError(f"{name}:{rowno}: bad weight {cell!r}") from None
            if not 0.0 < weight < math.inf:
                raise DataError(f"{name}:{rowno}: weight must be positive and finite, "
                                f"got {cell!r}")
            weights.append(weight)
    split = _split_rule(text)
    values = {column: _parse_cells(name, column, ftype, [row[col_of[column]] for row in rows],
                                   split)
              for column, ftype in columns.items()}
    return header, values, labels, weights


def _parse_cells(name: str, column: str, ftype: FeatureType, cells: list[str], split):
    """A column's cells parsed by type: floats (NaN when missing) for
    numerical, the cells themselves (``""`` when missing) for categorical,
    token sets (None when missing, split by ``split``) for set."""
    if ftype == FeatureType.CATEGORICAL:
        return cells
    if ftype == FeatureType.CATEGORICAL_SET:
        parsed = []
        for i, cell in enumerate(cells):
            try:
                parsed.append(_parse_set_cell(cell, split))
            except DataError as exc:
                raise DataError(f"{name}:{i + 2}: column {column!r}: {exc}") from None
        return parsed
    out = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if cell == "":
            out[i] = np.nan
        else:
            try:
                out[i] = float(cell)
            except ValueError:
                raise DataError(f"{name}:{i + 2}: column {column!r}: bad number {cell!r}") from None
    infinite = np.flatnonzero(np.isinf(out))
    if infinite.size:
        i = int(infinite[0])
        raise DataError(f"{name}:{i + 2}: column {column!r}: number {cells[i]!r} is not finite")
    return out


def _encode_column(feature: Feature, values):
    """The column of ``feature`` from its parsed cells, encoded with its
    vocabulary: unseen categories become missing, unseen set tokens are
    dropped."""
    if feature.ftype == FeatureType.NUMERICAL:
        return values
    vocab = feature.vocabulary or Vocabulary((), ())  # an empty table is stored as none
    if feature.ftype == FeatureType.CATEGORICAL:
        index = vocab.index
        return np.array([index.get(c, MISSING_CATEGORY) if c != "" else MISSING_CATEGORY
                         for c in values], dtype=np.int64)
    return encode_set_column(values, vocab)


def load_csv(
    path,
    column_types: dict[str, str],
    label_column: str = "label",
    weight_column: str | None = None,
) -> Dataset:
    """Load a UTF-8 comma-separated file with a header row.

    ``column_types`` maps feature column names to ``numerical`` /
    ``categorical`` / ``set``. Set cells hold ``tokenize``d tokens inside
    braces (``{blue red}``); ``{}`` is the empty set; a fully empty cell is
    missing. Empty numerical/categorical cells are missing.

    Categorical string values and set tokens get ids from per-column value
    tables built over the whole file (descending frequency, lexicographic
    tie-break); labels play no part in the id assignment. The columns are
    then encoded as ``load_csv_with_schema`` encodes them.
    """
    for name, ftype in column_types.items():
        if ftype not in ("numerical", "categorical", "set"):
            raise DataError(f"{path}: unknown column type {ftype!r} for {name!r}")
    types = {name: FeatureType(ftype) for name, ftype in column_types.items()}
    header, values, labels, weights = _read_table(path, types, label_column, weight_column)
    features: list[Feature] = []
    for name in [n for n in header if n in types]:
        cells, vocab = values[name], None
        if types[name] != FeatureType.NUMERICAL:  # a categorical cell is a set of one
            present = ([c] for c in cells if c != "") if types[name] == FeatureType.CATEGORICAL \
                else (p for p in cells if p is not None)
            vocab = build_vocabulary(present, max_size=None, min_frequency=1)
        features.append(Feature(name, types[name], vocab))
    return Dataset.create(features, [_encode_column(f, values[f.name]) for f in features],
                          labels, weights)


def load_csv_with_schema(
    path,
    features: list[Feature],
    label_column: str | None = None,
    weight_column: str | None = None,
) -> Dataset:
    """Load a CSV file or stream against an existing schema (e.g. a trained
    model's).

    Categorical values and set tokens are encoded with the schema's value
    tables; unseen categorical values become missing, unseen set tokens are
    dropped. Without a label column, labels default to 0.
    """
    _, values, labels, weights = _read_table(path, {f.name: f.ftype for f in features},
                                             label_column, weight_column)
    return Dataset.create(list(features), [_encode_column(f, values[f.name]) for f in features],
                          labels, weights)
