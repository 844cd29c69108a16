"""Split search over numerical, categorical, and categorical-set features.

All searches share one gain convention:

* classification trees score a candidate partition by weighted Shannon
  information gain (bits);
* regression trees score by weighted variance reduction (sum-of-squares
  decrease divided by the node weight).

A degenerate partition (one empty side) scores exactly 0, and missing
values always sit on the negative side of every candidate.

The categorical-set splitter grows a term mask greedily: starting from the
empty mask it repeatedly adds the candidate term whose inclusion maximises
the split gain, and stops as soon as no term improves on the current gain.
Candidate terms are the terms present in the node's examples, each kept
independently with probability ``sampling_rate``. Statistics are updated
incrementally: extending the mask by one term only moves the examples
containing that term (and not already routed positive) across the
partition. The search keeps one token set for the whole node, the tokens of
the sampled terms, and each pass over the candidates is two ``bincount``
calls over it. The tokens of the rows an accepted term moves stay in place
with their weights zeroed: each ``bincount`` sum starts at +0.0 and so is
never -0.0, and adding +0.0 leaves it as it was, so every sum equals the sum
over the rows still negative. An accepted term keeps no weight, so its
extended gain equals the current gain and it cannot be chosen again; once
every token is zeroed, every gain equals the current one and the search
stops.

Each splitter starts from one piece of per-node state, which it computes
or the caller hands it:

* a set feature's tokens, from the dataset's set column (a CSR
  ``SetColumnIndex``) or through ``tokens=``;
* a numerical feature's order (``numerical_order``), the positions of the
  node's non-NaN rows stably sorted by value, or ``order=``;
* a categorical feature's coding (``category_coding``), each row's index
  among the sorted category values present, -1 where missing, with those
  values, or ``coding=``.

Given state must equal what the splitter would compute, except that a
coding may hold categories the node lacks. The tree grower computes each
where a node first searches the feature and hands each child its share of
its parent's. That share is bit for bit what the child would compute: a
child keeps its rows in its parent's order, so a stable sort of its values
is the parent's order filtered to its rows, and a ``bincount`` over the
codes sums each category's rows in the order one over ``np.unique``'s
inverse does.

Every search builds one kernel, ``gain_scorer``, and scores all its
candidates through it: each numerical cut that leaves both branches
``min_examples_per_leaf`` rows, the suffix and prefix cuts of a categorical
scan together, and every extended mask of each greedy step. The kernel
computes the node's own term once, keeps its buffers across calls, and
takes ``x log2 x`` of the six branch statistics of a classification split
in one stacked pass. Gains are not clipped at 0: a best gain at or below 0
means no split all the same. Each candidate carries its node-local
partition (``SplitCandidate.positive``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .conditions import CategoryIn, NumericalGE, SetIntersects, SplitCondition
from .dataset import MISSING_CATEGORY, SetColumnIndex

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class SplitCandidate:
    """A positive-gain split with its branch sizes.

    ``steps`` records the greedy mask splitter's acceptance trace as
    (term id, gain after accepting) pairs; empty for other splitters.
    ``positive`` is the partition itself: a boolean per row of the node, in
    the order of the ``indices`` the splitter was given.
    """

    condition: SplitCondition
    gain: float
    n_positive: int
    n_negative: int
    steps: tuple[tuple[int, float], ...] = ()
    positive: np.ndarray | None = field(default=None, compare=False, repr=False)


def gain_scorer(w, wt, shape=(), objective=CLASSIFICATION):
    """The gain kernel of one node: ``score(pos_w, pos_wt)`` gives the
    unclipped gains of candidate positive branches of ``shape``.

    ``w``/``wt`` are the node's weight sum and weighted-target sum, the
    ``pos_*`` the same sums over each positive branch (targets are labels
    for classification, arbitrary reals for regression). Classification
    gain is ``(w H(node) - pw H(pos) - nw H(neg)) / w`` in bits, each
    ``w H`` term being ``x(w) - x(wt) - x(w - wt)`` with ``x(z) = z log2 z``
    (0 where z <= 0). The node's own term is computed once, here; every call
    reuses the same buffers, so a result lasts until the next call.
    """
    w = np.float64(w)
    wt = np.float64(wt)
    if objective == CLASSIFICATION:
        node = np.array([w, wt, w - wt])
        xw, xwt, xrest = np.log2(node, out=np.zeros(3), where=node > 0) * node
        parent = xw - xwt - xrest
        node = node[:2].reshape((2,) + (1,) * len(shape))
        z, x = np.empty((2, 6) + shape)  # pos_w, pos_wt, pos_w - pos_wt, then neg_*
        live = np.empty(z.shape, dtype=bool)
        pair = np.empty((2,) + shape)  # x0 - x1 - x2 and x3 - x4 - x5
    elif objective == REGRESSION:
        parent = wt * wt / w
        bw, bwt, squares = np.empty((3, 2) + shape)  # positive branch, then negative
        live = np.empty(bw.shape, dtype=bool)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    gain = np.empty(shape)

    def score(pos_w, pos_wt):
        if objective == REGRESSION:
            bw[0], bwt[0] = pos_w, pos_wt
            np.subtract(w, pos_w, out=bw[1, ...])
            np.subtract(wt, pos_wt, out=bwt[1, ...])
            squares.fill(0.0)  # an empty branch contributes 0
            np.divide(np.multiply(bwt, bwt, out=bwt), bw, out=squares,
                      where=np.greater(bw, 0, out=live))
            np.add(squares[0, ...], squares[1, ...], out=gain)
            np.subtract(gain, parent, out=gain)
            return np.divide(gain, w, out=gain)
        z[0], z[1] = pos_w, pos_wt
        np.subtract(node, z[:2], out=z[3:5])
        np.subtract(z[0::3], z[1::3], out=z[2::3])
        x.fill(0.0)
        np.log2(z, out=x, where=np.greater(z, 0, out=live))
        np.multiply(x, z, out=x)
        np.subtract(x[0::3], x[1::3], out=pair)
        np.subtract(pair, x[2::3], out=pair)
        np.subtract(parent, pair[0], out=gain)
        np.subtract(gain, pair[1], out=gain)
        return np.divide(gain, w, out=gain)

    return score


def numerical_order(values) -> np.ndarray:
    """The positions of the non-NaN entries of ``values``, stably sorted by
    value: ``find_numerical_split``'s per-node state."""
    values = np.asarray(values, dtype=np.float64)
    present = np.flatnonzero(~np.isnan(values))
    return present.take(np.argsort(values.take(present), kind="stable"))


class CategoryCoding(NamedTuple):
    """``find_categorical_split``'s per-node state: ``categories`` are sorted
    category values, and ``codes`` holds each row's index among them, -1
    where the row's value is missing."""

    codes: np.ndarray
    categories: np.ndarray


def category_coding(values) -> CategoryCoding:
    """The coding of ``values`` over the category values present in it."""
    values = np.asarray(values, dtype=np.int64)
    present = values != MISSING_CATEGORY
    categories, inverse = np.unique(values[present], return_inverse=True)
    codes = np.full(values.size, -1, dtype=np.int64)
    codes[present] = inverse
    return CategoryCoding(codes, categories)


def find_numerical_split(
    values,
    targets,
    weights,
    feature: int,
    min_examples_per_leaf: int = 1,
    objective: str = CLASSIFICATION,
    *,
    order: np.ndarray | None = None,
) -> SplitCandidate | None:
    """Exact search over midpoints between consecutive distinct values.

    Missing (NaN) values stay on the negative side of every candidate. Ties
    in gain break toward the smaller threshold. Returns None when no
    positive-gain split exists.

    ``order``, when given, must equal ``numerical_order(values)``; it saves
    sorting the node again. The array is only read.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    if order is None:
        order = numerical_order(values)
    n = len(values)
    if order.size < 2:
        return None
    sv = values.take(order)
    bounds = (sv[1:] != sv[:-1]).nonzero()[0] + 1
    # n_pos = sv.size - bounds falls as the cut moves right, so the cuts
    # that leave both branches min_examples_per_leaf rows form one slice
    m = min_examples_per_leaf
    bounds = bounds[bounds.searchsorted(m - (n - sv.size)):
                    bounds.searchsorted(sv.size - m, side="right")]
    if bounds.size == 0:
        return None
    cw = weights.take(order).cumsum()
    cwt = wt.take(order).cumsum()
    before = bounds - 1
    gains = gain_scorer(weights.sum(), wt.sum(), bounds.shape, objective)(
        cw[-1] - cw.take(before), cwt[-1] - cwt.take(before))
    best = int(gains.argmax())  # the first of equal gains: the smallest threshold
    if gains[best] <= 0.0:
        return None
    cut = int(bounds[best])
    threshold = float((sv[cut - 1] + sv[cut]) / 2.0)
    n_pos = sv.size - cut
    return SplitCandidate(NumericalGE(feature, threshold), float(gains[best]), n_pos,
                          n - n_pos, positive=values >= threshold)


def find_categorical_split(
    values,
    targets,
    weights,
    feature: int,
    min_examples_per_leaf: int = 1,
    objective: str = CLASSIFICATION,
    *,
    coding: CategoryCoding | None = None,
) -> SplitCandidate | None:
    """One-dimensional category scan in mean-target order.

    Categories are sorted by mean target (positive-label ratio for
    classification) with ties broken by category id; every prefix/suffix cut
    of that order is scored. Without missing values this scan reaches the
    optimum over all category bipartitions for binary labels. The returned
    value set is the high-mean suffix unless the node holds missing values,
    in which case low-mean prefixes are scanned as well: missing examples
    are pinned to the negative branch, the orientations stop being
    gain-equivalent, and the contiguity guarantee no longer binds (the scan
    is the contract, and can sit marginally below the unrestricted optimum).
    Of equal gains, the suffix wins over the prefix, then the earlier cut.

    ``coding``, when given, must equal ``category_coding(values)``, or be
    such a coding of a superset of the node's categories (a parent node's):
    categories the node lacks are dropped here. The arrays are only read.
    """
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    codes, categories = category_coding(values) if coding is None else coding
    n = codes.size
    # slot 0 gathers the missing rows; every category's sums run over its
    # rows in node order, as a bincount over np.unique's inverse does
    slot = codes + 1
    c_n = np.bincount(slot, minlength=categories.size + 1)[1:]
    held = c_n.nonzero()[0]
    if held.size < 2:
        return None
    c_w = np.bincount(slot, weights=weights, minlength=categories.size + 1)[1:].take(held)
    c_wt = np.bincount(slot, weights=wt, minlength=categories.size + 1)[1:].take(held)
    c_n = c_n.take(held)
    # held ascends, so a stable sort breaks ties in mean by category id
    order = (c_wt / c_w).argsort(kind="stable")
    pre_w = c_w.take(order).cumsum()
    pre_wt = c_wt.take(order).cumsum()
    pre_n = c_n.take(order).cumsum()

    # row 0 the high-mean suffixes after each cut; row 1, with missing rows,
    # the low-mean prefixes before it
    sides = 2 if pre_n[-1] < n else 1
    pos_w = np.empty((sides, held.size - 1))
    pos_wt = np.empty_like(pos_w)
    pos_n = np.empty(pos_w.shape, dtype=np.int64)
    np.subtract(pre_w[-1], pre_w[:-1], out=pos_w[0])
    np.subtract(pre_wt[-1], pre_wt[:-1], out=pos_wt[0])
    np.subtract(pre_n[-1], pre_n[:-1], out=pos_n[0])
    if sides == 2:
        pos_w[1], pos_wt[1], pos_n[1] = pre_w[:-1], pre_wt[:-1], pre_n[:-1]
    gains = gain_scorer(weights.sum(), wt.sum(), pos_w.shape, objective)(pos_w, pos_wt)
    gains[(pos_n < min_examples_per_leaf) | (n - pos_n < min_examples_per_leaf)] = -np.inf
    best = int(gains.argmax())  # row-major: of equal gains, the suffix and the earlier cut
    if gains.flat[best] <= 0.0:
        return None
    side, i = divmod(best, held.size - 1)
    chosen = held.take(order[i + 1:] if side == 0 else order[:i + 1])
    member = np.zeros(categories.size + 1, dtype=bool)  # the last entry is code -1's
    member[chosen] = True
    n_pos = int(pos_n[side, i])
    return SplitCandidate(CategoryIn(feature, frozenset(categories.take(chosen).tolist())),
                          float(gains.flat[best]), n_pos, n - n_pos, positive=member.take(codes))


def find_set_mask_split(
    set_index: SetColumnIndex,
    indices,
    targets,
    weights,
    feature: int,
    sampling_rate: float = 1.0,
    rng: np.random.Generator | None = None,
    min_examples_per_leaf: int = 1,
    objective: str = CLASSIFICATION,
    *,
    tokens: tuple[np.ndarray, np.ndarray] | None = None,
) -> SplitCandidate | None:
    """Greedy mask growth for a categorical-set feature.

    ``targets`` and ``weights`` are node-local (aligned with ``indices``).
    Candidates are the terms present in the node's examples, each kept with
    probability ``sampling_rate`` (terms absent from the node cannot change
    any routing, so skipping them is a pure optimisation). Each iteration
    scores every remaining candidate as an extension of the current mask,
    accepts the arg-max (ties to the lowest term id) if it strictly improves
    the current gain, and stops otherwise. Accepted gains are therefore
    strictly increasing.

    ``tokens``, when given, must equal ``set_index.node_tokens(indices)``;
    it saves gathering them again. The arrays are only read.
    """
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling_rate must be in (0, 1]")
    rows, terms = set_index.node_tokens(indices) if tokens is None else tokens
    if terms.size == 0:
        return None
    counts = np.bincount(terms)
    present = np.flatnonzero(counts)
    if sampling_rate < 1.0:
        if rng is None:
            raise ValueError("sampling_rate < 1 requires an rng")
        present = present[rng.random(present.size) < sampling_rate]
        if not present.size:
            return None
        sampled = np.zeros(counts.size, dtype=bool)
        sampled[present] = True
        kept = np.flatnonzero(sampled[terms])  # the sampled terms' tokens, in order
        rows, terms = rows.take(kept), terms.take(kept)
    slot = np.empty(counts.size, dtype=np.int64)
    slot[present] = np.arange(present.size)
    compact = slot.take(terms)  # each token's position in present

    n_node = len(indices)
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    token_w = weights[rows]
    token_wt = wt[rows]
    score = gain_scorer(weights.sum(), wt.sum(), present.shape, objective)

    # the tokens of rows on the positive side keep their places with weights
    # of +0.0, which change no sum (module docstring)
    in_pos = np.zeros(n_node, dtype=bool)
    pos_w = pos_wt = 0.0
    current_gain = 0.0
    steps: list[tuple[int, float]] = []
    while True:
        # the branch totals of every extended mask, summed in place
        ext_w = np.bincount(compact, weights=token_w, minlength=present.size)
        ext_wt = np.bincount(compact, weights=token_wt, minlength=present.size)
        ext_w += pos_w
        ext_wt += pos_wt
        gains = score(ext_w, ext_wt)
        # unclipped: a best gain at or below 0 stops the search all the same
        best = int(gains.argmax())
        gain = float(gains[best])
        if gain <= current_gain:
            break
        in_pos[rows[compact == best]] = True
        moved = in_pos[rows]
        token_w[moved] = 0.0
        token_wt[moved] = 0.0
        pos_w = float(ext_w[best])
        pos_wt = float(ext_wt[best])
        current_gain = gain
        steps.append((int(present[best]), gain))

    if not steps:
        return None
    n_pos = int(in_pos.sum())
    n_neg = n_node - n_pos
    if n_pos < min_examples_per_leaf or n_neg < min_examples_per_leaf:
        return None
    return SplitCandidate(
        SetIntersects(feature, tuple(sorted(term for term, _ in steps))),
        current_gain,
        n_pos,
        n_neg,
        tuple(steps),
        in_pos,
    )
