"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

import setforest as sf
from setforest.conditions import SplitCondition
from setforest.dataset import Dataset, Feature, FeatureType, Vocabulary
from setforest.splits import gain_from_stats


def make_vocab(terms):
    return Vocabulary(tuple(terms), tuple([1] * len(terms)))


def set_dataset(sets, labels, vocab_size=None, weights=None, name="text"):
    """Dataset with a single set feature from already-encoded id tuples."""
    if vocab_size is None:
        vocab_size = 1 + max((max(x) for x in sets if x), default=0)
    vocab = make_vocab([f"t{i}" for i in range(vocab_size)])
    column = [None if x is None else tuple(sorted(x)) for x in sets]
    feature = Feature(name, FeatureType.CATEGORICAL_SET, vocab)
    return sf.Dataset.create([feature], [column], labels, weights)


def random_mixed_dataset(seed, n=200, with_labels=True):
    """Random schema with numerical, categorical, and set features.

    Labels correlate with the features so that trees actually grow. Returns
    (dataset, vocabularies-per-set-feature).
    """
    rng = np.random.default_rng(seed)
    n_num = int(rng.integers(1, 3))
    n_cat = int(rng.integers(1, 2 + 1))
    n_set = int(rng.integers(1, 3))
    features = []
    columns = []
    signal = np.zeros(n)

    for i in range(n_num):
        col = rng.normal(size=n)
        col[rng.random(n) < 0.1] = np.nan
        features.append(Feature(f"num{i}", FeatureType.NUMERICAL))
        columns.append(col)
        signal += np.where(np.isnan(col), 0.0, col)

    for i in range(n_cat):
        k = int(rng.integers(2, 7))
        col = rng.integers(0, k, size=n)
        col[rng.random(n) < 0.1] = sf.MISSING_CATEGORY
        vocab = make_vocab([f"c{i}v{j}" for j in range(k)])
        features.append(Feature(f"cat{i}", FeatureType.CATEGORICAL, vocab))
        columns.append(col.astype(np.int64))
        signal += np.where(col >= 0, (col % 2) * 0.8, 0.0)

    set_vocabs = []
    for i in range(n_set):
        m = int(rng.integers(5, 16))
        vocab = make_vocab([f"s{i}w{j}" for j in range(m)])
        set_vocabs.append(vocab)
        col = []
        for r in range(n):
            if rng.random() < 0.06:
                col.append(None)
            else:
                size = int(rng.integers(0, min(6, m)))
                ids = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
                col.append(ids)
                if ids and min(ids) < m // 3:
                    signal[r] += 1.0
        features.append(Feature(f"set{i}", FeatureType.CATEGORICAL_SET, vocab))
        columns.append(col)

    noise = rng.normal(scale=0.8, size=n)
    labels = (signal + noise > np.median(signal + noise)).astype(np.int64)
    if not with_labels:
        labels = np.zeros(n, dtype=np.int64)
    if labels.min() == labels.max():
        labels[: n // 2] = 1 - labels[0]
    ds = sf.Dataset.create(features, columns, labels)
    return ds, set_vocabs


def random_rows_for(dataset, seed, n=1000):
    """Evaluation rows for a schema: empty sets, missing values, and
    out-of-vocabulary tokens (dropped through the encode path) included."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        row = []
        for feat in dataset.features:
            if feat.ftype == FeatureType.NUMERICAL:
                row.append(np.nan if rng.random() < 0.15 else float(rng.normal()))
            elif feat.ftype == FeatureType.CATEGORICAL:
                k = len(feat.vocabulary)
                row.append(sf.MISSING_CATEGORY if rng.random() < 0.15
                           else int(rng.integers(0, k)))
            else:
                u = rng.random()
                if u < 0.1:
                    row.append(None)
                elif u < 0.25:
                    row.append(())
                else:
                    vocab = feat.vocabulary
                    size = int(rng.integers(1, 7))
                    tokens = [vocab.terms[int(rng.integers(0, len(vocab)))]
                              if rng.random() < 0.8 else f"oov{int(rng.integers(0, 5))}"
                              for _ in range(size)]
                    row.append(sf.encode_tokens(tokens, vocab))
        rows.append(tuple(row))
    return rows


def build_complete_tree(depth, leaf_values=None):
    """Complete binary tree of the given depth over a numerical feature."""
    counter = {"leaf": 0}

    def build(d):
        if d == depth:
            value = (leaf_values[counter["leaf"]]
                     if leaf_values is not None else float(counter["leaf"]))
            counter["leaf"] += 1
            return sf.Leaf(value)
        return sf.Internal(sf.NumericalGE(0, float(d)), build(d + 1), build(d + 1))

    return build(0)


def enumerate_mask_gains(sets, targets, weights, vocab_size, objective="classification"):
    """Oracle: gains of every nonempty mask over a small vocabulary.

    Examples are turned into integer bitsets and every mask in
    [1, 2**vocab_size) is scored from the branch statistics its bit
    intersection induces. Returns (masks, gains) aligned arrays.
    """
    bits = np.array([sum(1 << t for t in x) for x in sets], dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    wt = w * np.asarray(targets, dtype=np.float64)
    masks = np.arange(1, 1 << vocab_size, dtype=np.int64)
    inter = (bits[None, :] & masks[:, None]) != 0
    gains = gain_from_stats(w.sum(), wt.sum(), inter @ w, inter @ wt, objective)
    return masks, gains


def best_singleton(masks, gains, vocab_size):
    """(term id, gain) of the best single-term mask.

    Exact float comparison with ties going to the lowest id, mirroring the
    splitter's arg-max discipline."""
    best_term, best_gain = None, -1.0
    for t in range(vocab_size):
        g = float(gains[(1 << t) - 1])
        if g > best_gain:
            best_term, best_gain = t, g
    return best_term, best_gain


def golden_two_tree_forest():
    """Two trees over one set feature with vocabulary (a, b, c, d).

    Tree 0 (leaves l0, l1, l2): the root tests intersection with {c}; its
    negative child tests intersection with {b}. Tree 1 (leaves l0, l1):
    the root tests intersection with {c, d}.
    """
    vocab = make_vocab(["a", "b", "c", "d"])
    a, b, c, d = 0, 1, 2, 3
    tree0 = sf.Internal(
        sf.SetIntersects(0, (c,)),
        sf.Internal(sf.SetIntersects(0, (b,)), sf.Leaf(0.0), sf.Leaf(0.25)),
        sf.Leaf(1.0),
    )
    tree1 = sf.Internal(sf.SetIntersects(0, (c, d)), sf.Leaf(0.125), sf.Leaf(0.5))
    feature = Feature("text", FeatureType.CATEGORICAL_SET, vocab)
    forest = sf.DecisionForest(kind="rf", trees=[tree0, tree1], initial_score=0.0,
                               features=[feature], metadata={})
    return forest, (a, b, c, d)


def one_split_document(split, kind="rf"):
    """A one-tree model over a set feature with vocabulary (a, b, c) and a
    categorical feature with values (x, y); the split sends to leaf 0.1 or
    0.9."""
    return {
        "format": "setforest-model", "version": 1, "kind": kind, "initial_score": 0.0,
        "features": [
            {"name": "text", "type": "set",
             "vocabulary": {"terms": ["a", "b", "c"], "frequencies": [3, 2, 1]}},
            {"name": "colour", "type": "categorical",
             "vocabulary": {"terms": ["x", "y"], "frequencies": [2, 1]}},
        ],
        "trees": [{"split": split, "negative": {"leaf": 0.1}, "positive": {"leaf": 0.9}}],
        "metadata": {},
    }



def _xlog2x(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    np.log2(z, out=out, where=z > 0)
    out *= z
    return out


def weighted_entropy(w, w1):
    """w * H(w1/w) in bits; exactly 0 for empty or pure inputs."""
    return _xlog2x(w) - _xlog2x(w1) - _xlog2x(np.asarray(w, dtype=np.float64) - w1)


def reference_gain(w, wt, pos_w, pos_wt, objective="classification"):
    """``gain_from_stats`` as three ``weighted_entropy`` calls (classification)
    or three ``divide`` terms (regression), one node statistic at a time; the
    fused kernel must match it bit for bit."""
    w = np.asarray(w, dtype=np.float64)
    wt = np.asarray(wt, dtype=np.float64)
    pos_w = np.asarray(pos_w, dtype=np.float64)
    pos_wt = np.asarray(pos_wt, dtype=np.float64)
    neg_w = w - pos_w
    neg_wt = wt - pos_wt
    if objective == "classification":
        gain = (
            weighted_entropy(w, wt)
            - weighted_entropy(pos_w, pos_wt)
            - weighted_entropy(neg_w, neg_wt)
        ) / w
    else:
        pos_term = np.divide(pos_wt * pos_wt, pos_w,
                             out=np.zeros_like(pos_w), where=pos_w > 0)
        neg_term = np.divide(neg_wt * neg_wt, neg_w,
                             out=np.zeros_like(neg_w), where=neg_w > 0)
        gain = (pos_term + neg_term - wt * wt / w) / w
    return np.maximum(gain, 0.0)


def evaluate_column(condition: SplitCondition, dataset: Dataset, indices) -> np.ndarray:
    """Vectorised `evaluate` over ``dataset`` rows selected by ``indices``:
    every splitter's partition must equal it, and `evaluate` is its
    reference."""
    indices = np.asarray(indices)
    ftype = dataset.features[condition.feature].ftype
    col = dataset.columns[condition.feature]
    if ftype == FeatureType.NUMERICAL:
        vals = np.asarray(col)[indices]
        with np.errstate(invalid="ignore"):
            return ~np.isnan(vals) & (vals >= condition.threshold)
    if ftype == FeatureType.CATEGORICAL:
        vals = np.asarray(col)[indices]
        wanted = np.fromiter(sorted(condition.values), dtype=np.int64,
                             count=len(condition.values))
        return np.isin(vals, wanted)
    # set: look every token of the selected rows up in a table of the mask's
    # ids; a row goes positive if any of its tokens hits
    index = dataset.set_index(condition.feature)
    rows, terms = index.node_tokens(indices)
    table = np.zeros(index.n_terms, dtype=bool)
    mask = np.asarray(condition.mask, dtype=np.int64)
    table[mask[mask < index.n_terms]] = True
    return np.bincount(rows[table[terms]], minlength=len(indices)) > 0


def split_gain(dataset, condition, indices=None, targets=None, objective="classification"):
    """Gain of an arbitrary condition, scored by routing every example: the
    reference the feature-specific searches must agree with."""
    if indices is None:
        indices = np.arange(dataset.n_examples)
    indices = np.asarray(indices)
    w = dataset.weights[indices]
    t = dataset.labels[indices] if targets is None else np.asarray(targets, dtype=np.float64)[indices]
    wt = w * t
    pos = evaluate_column(condition, dataset, indices)
    return float(gain_from_stats(w.sum(), wt.sum(), w[pos].sum(), wt[pos].sum(), objective))
