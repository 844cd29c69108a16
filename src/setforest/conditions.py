"""Per-node routing tests.

Three condition kinds route an example to the positive or negative branch:

* ``NumericalGE``  -- value >= threshold;
* ``CategoryIn``   -- categorical value is one of a fixed value set;
* ``SetIntersects`` -- the example's term set shares at least one term with
  a fixed term set (the condition's mask).

A missing value always evaluates to False, i.e. routes to the negative
branch, for every condition kind. ``evaluate`` is the one-row reference;
over many rows, only the splitters' partitions and the compiled
``inference.predict_dataset`` evaluate conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Union

import numpy as np

from .dataset import MISSING_CATEGORY, Feature, FeatureType


@dataclass(frozen=True, slots=True)
class NumericalGE:
    feature: int
    threshold: float


@dataclass(frozen=True, slots=True)
class CategoryIn:
    feature: int
    values: frozenset[int]


@dataclass(frozen=True, slots=True)
class SetIntersects:
    feature: int
    mask: tuple[int, ...]  # strictly increasing term ids, nonempty


SplitCondition = Union[NumericalGE, CategoryIn, SetIntersects]


def sets_intersect(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Merge walk over two sorted id tuples; linear in len(a) + len(b)."""
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ai, bj = a[i], b[j]
        if ai == bj:
            return True
        if ai < bj:
            i += 1
        else:
            j += 1
    return False


def evaluate(condition: SplitCondition, row: tuple) -> bool:
    """Evaluate a condition on one example row (missing -> False)."""
    if isinstance(condition, NumericalGE):
        v = row[condition.feature]
        return (not math.isnan(v)) and v >= condition.threshold
    if isinstance(condition, CategoryIn):
        v = row[condition.feature]
        return v != MISSING_CATEGORY and v in condition.values
    x = row[condition.feature]
    return x is not None and sets_intersect(x, condition.mask)


def condition_to_dict(condition: SplitCondition) -> dict:
    if isinstance(condition, NumericalGE):
        return {"kind": "numerical_ge", "feature": condition.feature,
                "threshold": float(condition.threshold)}
    if isinstance(condition, CategoryIn):
        return {"kind": "category_in", "feature": condition.feature,
                "values": sorted(int(v) for v in condition.values)}
    return {"kind": "set_intersects", "feature": condition.feature,
            "mask": [int(t) for t in condition.mask]}


_KIND_TYPES = {"numerical_ge": FeatureType.NUMERICAL, "category_in": FeatureType.CATEGORICAL,
               "set_intersects": FeatureType.CATEGORICAL_SET}
_UNBOUNDED = np.iinfo(np.int64).max


def condition_from_dict(data: dict, features: list[Feature], id_lists: dict,
                        numbers: list) -> SplitCondition:
    """Parse one split of a model document whose feature must be in the schema
    and match its kind, else ``ValueError``. A term mask or value set goes
    onto ``id_lists[feature]`` (a ``defaultdict(list)``) for ``check_id_lists``,
    a threshold onto ``numbers`` for the caller's finiteness check."""
    kind, feature = data["kind"], data["feature"]
    if kind not in _KIND_TYPES:
        raise ValueError(f"unknown condition kind {kind!r}")
    if type(feature) is not int or not 0 <= feature < len(features):
        raise ValueError(f"{kind} split on feature {feature!r}, "
                         f"but the schema has {len(features)} features")
    if features[feature].ftype is not _KIND_TYPES[kind]:
        raise ValueError(f"{kind} split on {features[feature].ftype.value} feature {feature}")
    if kind == "numerical_ge":
        threshold = float(data["threshold"])
        numbers.append(threshold)
        return NumericalGE(feature, threshold)
    ids = data["values" if kind == "category_in" else "mask"]
    id_lists[feature].append(ids)
    return CategoryIn(feature, frozenset(ids)) if kind == "category_in" \
        else SetIntersects(feature, tuple(ids))


def check_id_lists(id_lists: dict, features: list[Feature]) -> None:
    """Each list ``condition_from_dict`` collected must be a non-empty,
    strictly increasing list of ints inside its feature's vocabulary (any
    non-negative int where there is none), else ``ValueError`` (an id past
    int64 raises ``OverflowError``). One vectorised pass per feature."""
    for feature, lists in id_lists.items():
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        # every id's type must be exactly int: bool, float, str or a list is not
        if list(map(type, chain.from_iterable(lists))).count(int) != counts.sum():
            raise ValueError(f"feature {feature}: term ids and values must be integers")
        ids = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=counts.sum())
        vocabulary = features[feature].vocabulary
        ends = np.cumsum(counts)
        rising = np.ones(len(ids), dtype=bool)
        rising[1:] = ids[1:] > ids[:-1]
        rising[(ends - counts)[counts > 0]] = True  # the first id of every list
        bad = (ids < 0) | ~rising | (ids > (_UNBOUNDED if vocabulary is None
                                            else len(vocabulary) - 1))
        wrong = np.flatnonzero(counts == 0)[:1].tolist() \
            + np.searchsorted(ends, np.flatnonzero(bad)[:1], side="right").tolist()
        if wrong:
            raise ValueError(f"feature {feature}: {lists[min(wrong)]!r} is not a non-empty, "
                             "strictly increasing list of ids in its vocabulary")
