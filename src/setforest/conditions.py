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
from typing import Union

from .dataset import MISSING_CATEGORY


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
