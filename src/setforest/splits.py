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
stops. The node's tokens come from the dataset's set column (a CSR
``SetColumnIndex``), or from the caller through ``tokens=`` (the tree
grower passes each child the share of its parent's tokens).

All three splitters score with one kernel, which ``gain_scorer`` builds
once per search: it computes the node's own term once, keeps its buffers
across the greedy steps, and takes ``x log2 x`` of the six branch
statistics of a classification split in one stacked pass.
``gain_from_stats`` is that kernel clipped at 0. Each candidate carries its
node-local partition (``SplitCandidate.positive``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def gain_from_stats(w, wt, pos_w, pos_wt, objective=CLASSIFICATION):
    """``gain_scorer``'s gains of one node, clipped at 0; ``pos_w`` and
    ``pos_wt`` are scalars or aligned arrays of candidate branches."""
    pos_w = np.asarray(pos_w, dtype=np.float64)
    pos_wt = np.asarray(pos_wt, dtype=np.float64)
    gain = gain_scorer(w, wt, pos_w.shape, objective)(pos_w, pos_wt)
    # children never exceed the parent's impurity; negatives are float noise
    return np.maximum(gain, 0.0)


def find_numerical_split(
    values,
    targets,
    weights,
    feature: int,
    min_examples_per_leaf: int = 1,
    objective: str = CLASSIFICATION,
) -> SplitCandidate | None:
    """Exact search over midpoints between consecutive distinct values.

    Missing (NaN) values stay on the negative side of every candidate. Ties
    in gain break toward the smaller threshold. Returns None when no
    positive-gain split exists.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    n = len(values)
    present = ~np.isnan(values)
    if present.sum() < 2:
        return None
    order = np.argsort(values[present], kind="stable")
    sv = values[present][order]
    cw = np.cumsum(weights[present][order])
    cwt = np.cumsum(wt[present][order])
    bounds = np.flatnonzero(sv[1:] != sv[:-1]) + 1
    if bounds.size == 0:
        return None
    thresholds = (sv[bounds - 1] + sv[bounds]) / 2.0
    n_pos = sv.size - bounds
    n_neg = n - n_pos
    valid = (n_pos >= min_examples_per_leaf) & (n_neg >= min_examples_per_leaf)
    if not valid.any():
        return None
    pos_w = cw[-1] - cw[bounds - 1]
    pos_wt = cwt[-1] - cwt[bounds - 1]
    gains = gain_from_stats(weights.sum(), wt.sum(), pos_w, pos_wt, objective)
    gains[~valid] = -np.inf
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    threshold = float(thresholds[best])
    return SplitCandidate(
        NumericalGE(feature, threshold),
        float(gains[best]),
        int(n_pos[best]),
        int(n_neg[best]),
        positive=present & (values >= threshold),
    )


def find_categorical_split(
    values,
    targets,
    weights,
    feature: int,
    min_examples_per_leaf: int = 1,
    objective: str = CLASSIFICATION,
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
    """
    values = np.asarray(values, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    wt = weights * np.asarray(targets, dtype=np.float64)
    n = len(values)
    present = values != MISSING_CATEGORY
    cats, inv = np.unique(values[present], return_inverse=True)
    if cats.size < 2:
        return None
    c_w = np.bincount(inv, weights=weights[present], minlength=cats.size)
    c_wt = np.bincount(inv, weights=wt[present], minlength=cats.size)
    c_n = np.bincount(inv, minlength=cats.size)
    order = np.lexsort((cats, c_wt / c_w))
    pre_w = np.cumsum(c_w[order])
    pre_wt = np.cumsum(c_wt[order])
    pre_n = np.cumsum(c_n[order])
    w_total, wt_total = weights.sum(), wt.sum()
    n_missing = int(n - present.sum())

    cuts = np.arange(1, cats.size)
    variants = [("suffix", pre_w[-1] - pre_w[cuts - 1], pre_wt[-1] - pre_wt[cuts - 1],
                 pre_n[-1] - pre_n[cuts - 1])]
    if n_missing > 0:
        variants.append(("prefix", pre_w[cuts - 1], pre_wt[cuts - 1], pre_n[cuts - 1]))

    best = None
    for side, pos_w, pos_wt, pos_n in variants:
        n_neg = n - pos_n
        valid = (pos_n >= min_examples_per_leaf) & (n_neg >= min_examples_per_leaf)
        if not valid.any():
            continue
        gains = gain_from_stats(w_total, wt_total, pos_w, pos_wt, objective)
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] <= 0.0 or (best is not None and gains[i] <= best[0]):
            continue
        cut = int(cuts[i])
        chosen = order[cut:] if side == "suffix" else order[:cut]
        best = (float(gains[i]), chosen, int(pos_n[i]), int(n_neg[i]))
    if best is None:
        return None
    gain, chosen, n_pos, n_neg = best
    member = np.zeros(cats.size, dtype=bool)
    member[chosen] = True
    positive = np.zeros(n, dtype=bool)
    positive[present] = member[inv]
    return SplitCandidate(CategoryIn(feature, frozenset(cats[chosen].tolist())), gain,
                          n_pos, n_neg, positive=positive)


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
