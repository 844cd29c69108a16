"""Baseline conversions of categorical-set columns to flat columns.

These exist to compare the native set splitter against classic encodings:

* ``BagOfWords``  -- one numerical 0/1 column per vocabulary term;
* ``OneHot``      -- the same membership test typed categorical, and for a
  plain categorical input one present/absent column per observed value;
* ``MaxHash``     -- k columns, each the maximum of a seeded 64-bit hash over
  the terms of the set; outputs can be consumed categorically or numerically;
* ``TargetMean``  -- replaces a categorical column by the smoothed positive
  label ratio of its value, estimated on the training fold only.

Steps compose left to right in a ``TransformChain``. Fitting walks the chain
on the training dataset and stores whatever state each step needs (observed
values, hash seeds, target tables); evaluation folds reuse that state.

The hash is pinned so outputs are reproducible anywhere: FNV-1a over the
UTF-8 bytes with the 64-bit offset basis XORed with the seed, followed by a
splitmix64 finalizer, truncated to 63 bits (always non-negative). The empty
set maps to the sentinel value 0 in every hash slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    MISSING_CATEGORY,
    Dataset,
    Feature,
    FeatureType,
)
from .rng import derive_seed, splitmix64

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

EMPTY_SET_HASH = 0


def hash64(text: str, seed: int) -> int:
    """Seeded FNV-1a/splitmix64 hash of a string, in [0, 2**63)."""
    h = (_FNV_OFFSET ^ (seed & _MASK64)) & _MASK64
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return splitmix64(h) >> 1


@dataclass(frozen=True)
class TargetMeanTable:
    """Smoothed positive-label ratio per categorical value.

    ``table[v] = (pos_weight(v) + smoothing * prior) / (weight(v) + smoothing)``
    with ``prior`` the global weighted positive ratio. Unseen values map to
    the prior; missing stays missing (NaN).
    """

    ratios: dict[int, float]
    prior: float
    smoothing: float

    def lookup(self, value: int) -> float:
        if value == MISSING_CATEGORY:
            return float("nan")
        return self.ratios.get(value, self.prior)


def fit_target_mean(dataset: Dataset, feature: int, smoothing: float = 10.0) -> TargetMeanTable:
    if dataset.n_examples == 0:
        raise ValueError("cannot fit a target-mean table on an empty dataset")
    if dataset.features[feature].ftype != FeatureType.CATEGORICAL:
        raise ValueError("target-mean needs a categorical column")
    values = np.asarray(dataset.columns[feature])
    w = dataset.weights
    wy = w * dataset.labels
    prior = float(wy.sum() / w.sum())
    present = values != MISSING_CATEGORY
    cats, inv = np.unique(values[present], return_inverse=True)
    c_w = np.bincount(inv, weights=w[present], minlength=cats.size)
    c_wy = np.bincount(inv, weights=wy[present], minlength=cats.size)
    ratios = {
        int(v): float((c_wy[i] + smoothing * prior) / (c_w[i] + smoothing))
        for i, v in enumerate(cats)
    }
    return TargetMeanTable(ratios, prior, float(smoothing))


def _replace_columns(dataset: Dataset, replacements: dict[int, list]) -> Dataset:
    """Swap columns in place; a replacement is a list of (Feature, column)."""
    features: list[Feature] = []
    columns: list = []
    for i, (feat, col) in enumerate(zip(dataset.features, dataset.columns)):
        if i in replacements:
            for new_feat, new_col in replacements[i]:
                features.append(new_feat)
                columns.append(new_col)
        else:
            features.append(feat)
            columns.append(col)
    return Dataset(features, columns, dataset.labels, dataset.weights)


def _membership(dataset: Dataset, i: int, ftype: FeatureType) -> list:
    """Set column ``i`` as one 0/1 column of type ``ftype`` per vocabulary
    term, as (Feature, column) pairs; a missing row is NaN in a numerical
    column and ``MISSING_CATEGORY`` in a categorical one."""
    feat, col = dataset.features[i], dataset.columns[i]
    vocab = feat.vocabulary
    numerical = ftype == FeatureType.NUMERICAL
    matrix = np.zeros((len(col), len(vocab)), dtype=np.float64 if numerical else np.int64)
    matrix[np.repeat(np.arange(len(col)), np.diff(col.indptr)), col.term_ids] = 1
    matrix[col.missing] = np.nan if numerical else MISSING_CATEGORY
    return [(Feature(f"{feat.name}:{term}", ftype), matrix[:, j])
            for j, term in enumerate(vocab.terms)]


class BagOfWords:
    """Set columns -> one numerical membership column per vocabulary term."""

    name = "bow"

    def fit(self, dataset: Dataset) -> "BagOfWords":
        return self

    def transform(self, dataset: Dataset) -> Dataset:
        replacements: dict[int, list] = {}
        for i, feat in enumerate(dataset.features):
            if feat.ftype == FeatureType.CATEGORICAL_SET:
                replacements[i] = _membership(dataset, i, FeatureType.NUMERICAL)
        if not replacements:
            raise ValueError("bag-of-words found no set columns to expand")
        return _replace_columns(dataset, replacements)

    def to_dict(self) -> dict:
        return {"step": self.name}

    @classmethod
    def from_dict(cls, data: dict) -> "BagOfWords":
        return cls()


class OneHot:
    """Membership columns typed categorical (domain {0 absent, 1 present}).

    Set columns expand per vocabulary term. Categorical columns expand per
    value observed at fit time, which makes hash outputs one-hot encodable.
    """

    name = "onehot"

    def __init__(self, observed: dict[str, list[int]] | None = None):
        self.observed = observed or {}

    def fit(self, dataset: Dataset) -> "OneHot":
        self.observed = {}
        for feat, col in zip(dataset.features, dataset.columns):
            if feat.ftype == FeatureType.CATEGORICAL:
                vals = np.unique(np.asarray(col))
                self.observed[feat.name] = [
                    int(v) for v in vals if v != MISSING_CATEGORY
                ]
        return self

    def transform(self, dataset: Dataset) -> Dataset:
        replacements: dict[int, list] = {}
        for i, feat in enumerate(dataset.features):
            if feat.ftype == FeatureType.CATEGORICAL_SET:
                replacements[i] = _membership(dataset, i, FeatureType.CATEGORICAL)
            elif feat.ftype == FeatureType.CATEGORICAL and feat.name in self.observed:
                col = np.asarray(dataset.columns[i])
                new = []
                for v in self.observed[feat.name]:
                    out = (col == v).astype(np.int64)
                    out[col == MISSING_CATEGORY] = MISSING_CATEGORY
                    new.append(
                        (Feature(f"{feat.name}={v}", FeatureType.CATEGORICAL), out))
                replacements[i] = new
        if not replacements:
            raise ValueError("one-hot found no set or categorical columns")
        return _replace_columns(dataset, replacements)

    def to_dict(self) -> dict:
        return {"step": self.name, "observed": self.observed}

    @classmethod
    def from_dict(cls, data: dict) -> "OneHot":
        return cls({k: [int(v) for v in vs] for k, vs in data.get("observed", {}).items()})


class MaxHash:
    """Set columns -> k hash-max columns, categorical or numerical.

    Seeds derive from a master seed via splitmix64, so the whole transform is
    reproducible from (seed, k). Numerical treatment casts the 63-bit hash
    to float64 after taking the max over int values.
    """

    name = "maxhash"

    def __init__(self, k: int = 32, seed: int = 0, treat: str = "categorical"):
        if k < 1:
            raise ValueError("k must be >= 1")
        if treat not in ("categorical", "numerical"):
            raise ValueError("treat must be 'categorical' or 'numerical'")
        self.k = k
        self.seed = seed
        self.treat = treat
        self.seeds = [derive_seed(seed, 0x5EED, i) for i in range(k)]

    def fit(self, dataset: Dataset) -> "MaxHash":
        return self

    def transform(self, dataset: Dataset) -> Dataset:
        replacements: dict[int, list] = {}
        for i, feat in enumerate(dataset.features):
            if feat.ftype != FeatureType.CATEGORICAL_SET:
                continue
            vocab, col = feat.vocabulary, dataset.columns[i]
            # hash every vocabulary term once, then reduce over each non-empty row
            table = np.array(
                [[hash64(t, s) for s in self.seeds] for t in vocab.terms],
                dtype=np.int64,
            ).reshape(len(vocab), self.k)
            matrix = np.zeros((len(col), self.k), dtype=np.int64)
            filled = np.diff(col.indptr) > 0
            matrix[filled] = np.maximum.reduceat(table[col.term_ids], col.indptr[:-1][filled])
            new = []
            for j in range(self.k):
                if self.treat == "categorical":
                    out = matrix[:, j].copy()
                    out[col.missing] = MISSING_CATEGORY
                    new.append(
                        (Feature(f"{feat.name}#h{j}", FeatureType.CATEGORICAL), out))
                else:
                    out = matrix[:, j].astype(np.float64)
                    out[col.missing] = np.nan
                    new.append(
                        (Feature(f"{feat.name}#h{j}", FeatureType.NUMERICAL), out))
            replacements[i] = new
        if not replacements:
            raise ValueError("max-hash found no set columns")
        return _replace_columns(dataset, replacements)

    def to_dict(self) -> dict:
        return {"step": self.name, "k": self.k, "seed": self.seed,
                "treat": self.treat, "seeds": list(self.seeds)}

    @classmethod
    def from_dict(cls, data: dict) -> "MaxHash":
        """Raises ``ValueError`` when the stored ``seeds`` are not the ones
        that (seed, k) derive."""
        # the length first, so that a document's k alone cannot set how many
        # seeds are derived
        if len(data["seeds"]) != int(data["k"]):
            raise ValueError("max-hash needs one stored seed per hash column")
        step = cls(k=int(data["k"]), seed=int(data["seed"]), treat=data["treat"])
        if data["seeds"] != step.seeds:
            raise ValueError("max-hash seeds differ from those its seed and k derive")
        return step


class TargetMean:
    """Categorical columns -> numerical smoothed positive-label ratios."""

    name = "targetmean"

    def __init__(self, smoothing: float = 10.0,
                 tables: dict[str, TargetMeanTable] | None = None):
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.smoothing = smoothing
        self.tables = tables or {}

    def fit(self, dataset: Dataset) -> "TargetMean":
        self.tables = {}
        for i, feat in enumerate(dataset.features):
            if feat.ftype == FeatureType.CATEGORICAL:
                self.tables[feat.name] = fit_target_mean(dataset, i, self.smoothing)
        if not self.tables:
            raise ValueError("target-mean found no categorical columns")
        return self

    def transform(self, dataset: Dataset) -> Dataset:
        replacements: dict[int, list] = {}
        for i, feat in enumerate(dataset.features):
            table = self.tables.get(feat.name)
            if feat.ftype != FeatureType.CATEGORICAL or table is None:
                continue
            col = np.asarray(dataset.columns[i])
            out = np.fromiter((table.lookup(int(v)) for v in col),
                              dtype=np.float64, count=len(col))
            replacements[i] = [(Feature(feat.name, FeatureType.NUMERICAL), out)]
        if not replacements:
            raise ValueError("target-mean found no fitted categorical columns")
        return _replace_columns(dataset, replacements)

    def to_dict(self) -> dict:
        return {
            "step": self.name,
            "smoothing": self.smoothing,
            "tables": {
                name: {
                    "prior": t.prior,
                    "ratios": [[v, t.ratios[v]] for v in sorted(t.ratios)],
                }
                for name, t in sorted(self.tables.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TargetMean":
        tables = {
            name: TargetMeanTable(
                {int(v): float(r) for v, r in spec["ratios"]},
                float(spec["prior"]),
                float(data["smoothing"]),
            )
            for name, spec in data.get("tables", {}).items()
        }
        return cls(float(data["smoothing"]), tables)


_STEP_TYPES = {cls.name: cls for cls in (BagOfWords, OneHot, MaxHash, TargetMean)}


class TransformChain:
    """Ordered transform steps fitted once and reapplied to any fold."""

    def __init__(self, steps: list):
        self.steps = list(steps)

    def fit(self, dataset: Dataset) -> "TransformChain":
        self.fit_transform(dataset)
        return self

    def transform(self, dataset: Dataset) -> Dataset:
        for step in self.steps:
            dataset = step.transform(dataset)
        return dataset

    def fit_transform(self, dataset: Dataset) -> Dataset:
        """One ``fit`` and one ``transform`` per step, each on the last's output."""
        for step in self.steps:
            dataset = step.fit(dataset).transform(dataset)
        return dataset

    def to_dict(self) -> dict:
        return {"steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, data: dict) -> "TransformChain":
        """Raises ``ValueError`` for a malformed chain document."""
        try:
            return cls([_STEP_TYPES[spec["step"]].from_dict(spec)
                        for spec in data.get("steps", [])])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed transform chain: {exc!r}") from None


def make_chain(
    names,
    seed: int = 0,
    maxhash_k: int = 32,
    maxhash_treat: str = "categorical",
    smoothing: float = 10.0,
) -> TransformChain:
    """Build an unfitted chain from step names like ("maxhash", "targetmean")."""
    options = {"maxhash": {"k": maxhash_k, "seed": seed, "treat": maxhash_treat},
               "targetmean": {"smoothing": smoothing}}
    steps = []
    for raw in names:
        name = raw.strip().lower()
        if name not in _STEP_TYPES:
            raise ValueError(f"unknown transform step {raw!r}")
        steps.append(_STEP_TYPES[name](**options.get(name, {})))
    return TransformChain(steps)
