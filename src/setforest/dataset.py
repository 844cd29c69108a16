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
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

MISSING_CATEGORY = -1

_ASCII_WS = re.compile(r"[ \t\n\r\f\v]+")


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
        vocab = data.get("vocabulary")
        return cls(
            name=data["name"],
            ftype=FeatureType(data["type"]),
            vocabulary=Vocabulary.from_dict(vocab) if vocab else None,
        )


def tokenize(text: str) -> frozenset[str]:
    """Split on runs of ASCII whitespace and deduplicate.

    No lowercasing, no stemming; surface forms are kept as-is. An empty
    string yields an empty set.
    """
    return frozenset(t for t in _ASCII_WS.split(text) if t)


def build_vocabulary(
    corpus: Iterable[Iterable[str]],
    max_size: int = 5000,
    min_frequency: int = 5,
) -> Vocabulary:
    """Build a pruned vocabulary from a collection of token sets.

    Frequency means document frequency: the number of examples containing the
    term. Terms seen in fewer than ``min_frequency`` examples are dropped,
    the survivors are ranked by (descending frequency, term) and the top
    ``max_size`` keep dense ids in rank order.
    """
    if max_size < 1 or min_frequency < 1:
        raise ValueError("max_size and min_frequency must be >= 1")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(set(tokens))
    items = [(t, c) for t, c in counts.items() if c >= min_frequency]
    items.sort(key=lambda tc: (-tc[1], tc[0]))
    items = items[:max_size]
    return Vocabulary(tuple(t for t, _ in items), tuple(c for _, c in items))


def encode_tokens(tokens: Iterable[str], vocab: Vocabulary) -> tuple[int, ...]:
    """Map tokens to sorted term ids, silently dropping out-of-vocabulary ones.

    Already-encoded input round-trips: encoding the decoded form of a sorted
    id tuple returns the same tuple.
    """
    index = vocab.index
    ids = {index[t] for t in tokens if t in index}
    return tuple(sorted(ids))


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

    def __len__(self) -> int:
        return len(self.missing)

    def __getitem__(self, r: int) -> tuple[int, ...] | None:
        r = range(len(self.missing))[r]
        if self.missing[r]:
            return None
        return tuple(self.term_ids[self.indptr[r]:self.indptr[r + 1]].tolist())

    def take(self, indices) -> "SetColumnIndex":
        """The column of the rows ``indices``, in that order."""
        out = SetColumnIndex.__new__(SetColumnIndex)
        lengths, out.term_ids = self.row_tokens(indices)
        out.missing = self.missing[indices]
        out.indptr = np.zeros(len(out.missing) + 1, dtype=np.int64)
        np.cumsum(lengths, out=out.indptr[1:])
        return out

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
    column = [encode_tokens(tokens, vocab) for tokens in token_sets]
    feature = Feature(name, FeatureType.CATEGORICAL_SET, vocab)
    return Dataset.create([feature], [column], labels, weights)


def load_labeled_text(path) -> tuple[list[frozenset[str]], np.ndarray]:
    """Read ``<label><TAB><text>`` lines; label must be 0 or 1."""
    token_sets: list[frozenset[str]] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            head, _, text = line.partition("\t")
            if head not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {head!r}")
            labels.append(int(head))
            token_sets.append(tokenize(text))
    return token_sets, np.asarray(labels, dtype=np.int64)


def _parse_set_cell(cell: str) -> list[str] | None:
    # "{a b c}" -> tokens, "{}" -> empty set, "" -> missing
    if cell == "":
        return None
    if not (cell.startswith("{") and cell.endswith("}")):
        raise DataError("set cell must look like '{tok tok}' or '{}'")
    inner = cell[1:-1]
    return [t for t in _ASCII_WS.split(inner) if t]


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        return header, list(reader)


def _read_table(path, columns, label_column: str | None, weight_column: str | None):
    """Header, cells of ``columns`` by name, labels and weights of a CSV file.

    The header must hold every named column and each row one cell per
    header column. Without a label column the labels are 0, without a
    weight column the weights are None.
    """
    header, rows = _read_csv(path)
    weight_column = weight_column or None  # an empty name means no weights
    for name in [*columns, label_column, weight_column]:
        if name is not None and name not in header:
            raise DataError(f"{path}: column {name!r} not in header")
    col_of = {name: header.index(name) for name in header}
    labels = [] if label_column is not None else [0] * len(rows)
    weights = [] if weight_column is not None else None
    for rowno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{rowno}: expected {len(header)} cells, got {len(row)}")
        if label_column is not None:
            cell = row[col_of[label_column]]
            if cell not in ("0", "1"):
                raise DataError(f"{path}:{rowno}: label must be 0 or 1, got {cell!r}")
            labels.append(int(cell))
        if weight_column is not None:
            cell = row[col_of[weight_column]]
            try:
                weight = float(cell)
            except ValueError:
                raise DataError(f"{path}:{rowno}: bad weight {cell!r}") from None
            if not 0.0 < weight < math.inf:
                raise DataError(f"{path}:{rowno}: weight must be positive and finite, "
                                f"got {cell!r}")
            weights.append(weight)
    cells = {name: [row[col_of[name]] for row in rows] for name in columns}
    return header, cells, labels, weights


def _numerical_cells(path, name: str, cells: list[str]) -> np.ndarray:
    out = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if cell == "":
            out[i] = np.nan
        else:
            try:
                out[i] = float(cell)
            except ValueError:
                raise DataError(f"{path}:{i + 2}: column {name!r}: bad number {cell!r}") from None
    infinite = np.flatnonzero(np.isinf(out))
    if infinite.size:
        i = int(infinite[0])
        raise DataError(f"{path}:{i + 2}: column {name!r}: number {cells[i]!r} is not finite")
    return out


def _set_cells(path, name: str, cells: list[str]) -> list[list[str] | None]:
    parsed = []
    for i, cell in enumerate(cells):
        try:
            parsed.append(_parse_set_cell(cell))
        except DataError as exc:
            raise DataError(f"{path}:{i + 2}: column {name!r}: {exc}") from None
    return parsed


def load_csv(
    path,
    column_types: dict[str, str],
    label_column: str = "label",
    weight_column: str | None = None,
) -> Dataset:
    """Load a UTF-8 comma-separated file with a header row.

    ``column_types`` maps feature column names to ``numerical`` /
    ``categorical`` / ``set``. Set cells hold space-separated tokens inside
    braces (``{blue red}``); ``{}`` is the empty set; a fully empty cell is
    missing. Empty numerical/categorical cells are missing.

    Categorical string values and set tokens get ids from per-column value
    tables built over the whole file (descending frequency, lexicographic
    tie-break); labels play no part in the id assignment.
    """
    for name, ftype in column_types.items():
        if ftype not in ("numerical", "categorical", "set"):
            raise DataError(f"{path}: unknown column type {ftype!r} for {name!r}")
    header, cells_of, labels, weights = _read_table(path, column_types, label_column,
                                                    weight_column)
    features: list[Feature] = []
    columns: list = []
    for name in [n for n in header if n in column_types]:
        ftype, cells = column_types[name], cells_of[name]
        if ftype == "numerical":
            features.append(Feature(name, FeatureType.NUMERICAL))
            columns.append(_numerical_cells(path, name, cells))
        elif ftype == "categorical":
            vocab = build_vocabulary(([c] for c in cells if c != ""), max_size=len(cells) or 1,
                                     min_frequency=1)
            features.append(Feature(name, FeatureType.CATEGORICAL, vocab))
            columns.append(np.array([vocab.index[c] if c != "" else MISSING_CATEGORY
                                     for c in cells], dtype=np.int64))
        else:
            parsed = _set_cells(path, name, cells)
            vocab = build_vocabulary((p for p in parsed if p is not None),
                                     max_size=max(len(cells), 1) * 64, min_frequency=1)
            col = [None if p is None else encode_tokens(p, vocab) for p in parsed]
            features.append(Feature(name, FeatureType.CATEGORICAL_SET, vocab))
            columns.append(col)

    return Dataset.create(features, columns, labels, weights)


def load_csv_with_schema(
    path,
    features: list[Feature],
    label_column: str | None = None,
    weight_column: str | None = None,
) -> Dataset:
    """Load a CSV against an existing schema (e.g. a trained model's).

    Categorical values and set tokens are encoded with the schema's value
    tables; unseen categorical values become missing, unseen set tokens are
    dropped. Without a label column, labels default to 0.
    """
    _, cells_of, labels, weights = _read_table(path, [f.name for f in features],
                                               label_column, weight_column)
    columns: list = []
    for feat in features:
        cells = cells_of[feat.name]
        if feat.ftype == FeatureType.NUMERICAL:
            columns.append(_numerical_cells(path, feat.name, cells))
        elif feat.ftype == FeatureType.CATEGORICAL:
            index = feat.vocabulary.index if feat.vocabulary else {}
            columns.append(np.array([index.get(c, MISSING_CATEGORY) if c != "" else
                                     MISSING_CATEGORY for c in cells], dtype=np.int64))
        else:
            columns.append([None if p is None else encode_tokens(p, feat.vocabulary)
                            for p in _set_cells(path, feat.name, cells)])

    return Dataset.create(list(features), columns, labels, weights)
