"""Golden hashes: fixed-seed models must serialise to the same bytes.

The first three constants were recorded before the set-feature trainer was
vectorised (the CSR set index, the table-and-bincount partition and the
shrinking greedy mask search), the next two before the grower began handing
each child its parent's tokens and routing it with the splitter's own
partition, the next two while the mask search still dropped the tokens of
moved rows and every child still received tokens, leaf or not, and the last
while every node still sorted its numerical values and ran ``np.unique`` over
its categorical ones; any later change that moves a split, a leaf value or a
metadata float changes a hash here.

The text hashes were recorded again when the model format went to version 2
(flat base64 node columns). ``ARRAY_DIGESTS`` hash the node arrays, tree
starts and the other members of the model, not its text; they were recorded
before that switch and held across it, so they show that the trainer's
output did not change with the format.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import setforest as sf

GOLDEN = {
    "rf_planted": "246d2095adf288757ae1020cdfe7d4f2367b1b71b130bad0763555f802a3a31b",
    "mart_planted": "94f73f7c0a749c69865147b3a33cbc77d7027a2c9b9992fcf6ee769b3db73292",
    "mart_mixed_csv": "373e27caffcb42fd973202ac66f4637919b8f69f8f763006e47b348631320731",
    "rf_two_set_csv": "ec06ae2e001f84f33445a6219855ce87f2937778ce94a2c942232891314ce832",
    "mart_planted_thick_leaves": "b967236f3438db6a7702ac3fa9b32a433889b294aa328fa1240eedf98529fff0",
    "mart_planted_shallow": "b7d24e8ca3f6be14afba6fa8b68da153e221775024b38b080bea095659799008",
    "rf_planted_all_terms": "20cf7c754067f2aafe2768e2d9a6407c0a8ead4e559bc017a06410de10668434",
    "rf_num_cat_csv": "ae15f167df100b51df3f5272137d52b70d8594f4e98e32fd32d0aa1b58f843d1",
}

ARRAY_DIGESTS = {
    "rf_planted": "20ffd1e1a3455bb5d7c382e1bb51a1d7f5adf3e1d831a8d5f572e6e2975f6d9a",
    "mart_planted": "eb5da64088c329cc508f203e87f1c8d5cade1550b7e40291e97d9a457aa57e76",
    "mart_mixed_csv": "43ad52e9dd94df245d6ee8cc91072829532bac3c1894a50cc5bad47fae226bbf",
    "rf_two_set_csv": "2e9096ecac07f53de157529a42d26665c4daa13d4041ebbfa6ce258d0c9dfc90",
    "mart_planted_thick_leaves": "113302e948040317c6e80f1066136cdeeec447a45faf901daed28e16927981c5",
    "mart_planted_shallow": "d48a270ed4a45ef809774962fe4acf6acb72ac49801805e5bad3225e6821b89c",
    "rf_planted_all_terms": "7915407ccf1ee6e9141e7b04b2d9288b6e4317998bf21b8865ecfa58348063cf",
    "rf_num_cat_csv": "299f34c36386107eed7ed2b3e99d73ee4798acaf3e73584fc60def534d44f80a",
}


def _digest(forest) -> str:
    return hashlib.sha256(sf.forest_to_json(forest).encode("utf-8")).hexdigest()


def _array_digest(forest) -> str:
    """SHA-256 of the forest's node arrays, its tree starts and the rest of
    its model (kind, initial score, features and metadata): the same for any
    model format that reads back the same forest."""
    h = hashlib.sha256()
    for array in (*forest.nodes.arrays(), forest.starts):
        h.update(array.tobytes())
    h.update(json.dumps({"kind": forest.kind, "initial_score": forest.initial_score,
                         "features": [f.to_dict() for f in forest.features],
                         "metadata": forest.metadata}, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _check(name, forest):
    """``forest``'s text hash and array digest, and the array digest of the
    forest its text reads back into."""
    assert _array_digest(forest) == ARRAY_DIGESTS[name]
    assert _array_digest(sf.forest_from_json(sf.forest_to_json(forest))) == ARRAY_DIGESTS[name]
    assert _digest(forest) == GOLDEN[name]


@pytest.fixture(scope="module")
def planted():
    token_sets, labels = sf.planted_keyword_corpus(n=800, vocab_terms=120, seed=3,
                                                   signal_rate_positive=0.9,
                                                   signal_rate_negative=0.08)
    vocab = sf.build_vocabulary(token_sets, min_frequency=2)
    return sf.dataset_from_token_sets(token_sets, vocab, labels)


def _mixed_csv(path):
    """label,text,num,cat,w with missing cells in every feature column."""
    rng = np.random.default_rng(17)
    lines = ["label,text,num,cat,w\n"]
    for _ in range(500):
        y = int(rng.integers(0, 2))
        u = rng.random()
        if u < 0.06:
            text = ""
        elif u < 0.12:
            text = "{}"
        else:
            words = {f"w{int(j)}" for j in rng.integers(0, 40, size=int(rng.integers(2, 7)))}
            if rng.random() < (0.7 if y else 0.1):
                words.add(f"key{int(rng.integers(0, 3))}")
            text = "{" + " ".join(sorted(words)) + "}"
        num = "" if rng.random() < 0.08 else f"{rng.normal(1.0 * y, 1.0):.3f}"
        cat = "" if rng.random() < 0.08 else f"c{int(rng.integers(0, 6)) + 2 * y}"
        weight = f"{rng.choice([0.5, 1.0, 2.0])}"
        lines.append(f"{y},{text},{num},{cat},{weight}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _two_set_csv(path):
    """label,text,tags,num,cat,w: two set columns, one numerical and one
    categorical, missing cells in each, fractional weights."""
    rng = np.random.default_rng(23)
    lines = ["label,text,tags,num,cat,w\n"]
    for _ in range(400):
        y = int(rng.integers(0, 2))
        cells = []
        for prefix, vocab, signal in (("w", 30, 0.6), ("t", 12, 0.3)):
            if rng.random() < 0.07:
                cells.append("")
                continue
            words = {f"{prefix}{int(j)}"
                     for j in rng.integers(0, vocab, size=int(rng.integers(0, 6)))}
            if rng.random() < (signal if y else 0.1):
                words.add(f"{prefix}key{int(rng.integers(0, 2))}")
            cells.append("{" + " ".join(sorted(words)) + "}")
        num = "" if rng.random() < 0.08 else f"{rng.normal(0.8 * y, 1.0):.3f}"
        cat = "" if rng.random() < 0.08 else f"c{int(rng.integers(0, 5)) + y}"
        weight = f"{rng.choice([0.25, 1.0, 1.5, 3.0])}"
        lines.append(f"{y},{cells[0]},{cells[1]},{num},{cat},{weight}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _num_cat_csv(path):
    """label,a,b,c,d,e,w: three numerical and two categorical columns, no
    set column, missing cells in each; rounded values give ties, and ``-0``
    sits beside ``0``."""
    rng = np.random.default_rng(29)
    lines = ["label,a,b,c,d,e,w\n"]
    for _ in range(400):
        y = int(rng.integers(0, 2))
        cells = []
        for scale, digits in ((1.0, 3), (2.0, 1), (0.5, 0)):
            value = round(rng.normal(0.6 * y, scale), digits)
            cells.append("" if rng.random() < 0.08 else f"{value}")
        for k in (5, 9):
            cells.append("" if rng.random() < 0.08
                         else f"v{int(rng.integers(0, k)) + y * int(rng.random() < 0.4)}")
        weight = f"{rng.choice([0.25, 1.0, 1.5, 3.0])}"
        lines.append(f"{y},{','.join(cells)},{weight}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_rf_planted(planted):
    config = sf.TrainConfig.random_forest(num_trees=6, seed=11, compute_oob=True)
    _check("rf_planted", sf.train(planted, config))


def test_mart_planted(planted):
    config = sf.TrainConfig.mart(num_trees=12, seed=5)
    _check("mart_planted", sf.train(planted, config))


def test_mart_mixed_csv(tmp_path):
    ds = sf.load_csv(_mixed_csv(tmp_path / "mixed.csv"),
                     {"text": "set", "num": "numerical", "cat": "categorical"},
                     weight_column="w")
    config = sf.TrainConfig.mart(num_trees=12, seed=9, sampling_rate=0.5)
    _check("mart_mixed_csv", sf.train(ds, config))


def test_rf_two_set_csv(tmp_path):
    # two of the four features per node, so a set feature is often first
    # sampled below the root; numerical and categorical splits are chosen too
    ds = sf.load_csv(_two_set_csv(tmp_path / "two_set.csv"),
                     {"text": "set", "tags": "set", "num": "numerical",
                      "cat": "categorical"}, weight_column="w")
    config = sf.TrainConfig.random_forest(num_trees=6, seed=13, sampling_rate=0.5,
                                          compute_oob=True)
    _check("rf_two_set_csv", sf.train(ds, config))


def test_rf_num_cat_csv(tmp_path):
    # three of the five features per node: a node searches a numerical or
    # categorical feature from scratch, and no child inherits its order
    ds = sf.load_csv(_num_cat_csv(tmp_path / "num_cat.csv"),
                     {"a": "numerical", "b": "numerical", "c": "numerical",
                      "d": "categorical", "e": "categorical"}, weight_column="w")
    config = sf.TrainConfig.random_forest(num_trees=6, seed=31, compute_oob=True)
    _check("rf_num_cat_csv", sf.train(ds, config))


def test_mart_planted_thick_leaves(planted):
    # leaves of at least 60 examples: the set splitter's closing size check
    # turns down some masks the greedy search grew
    config = sf.TrainConfig.mart(num_trees=8, seed=2, min_examples_per_leaf=60)
    _check("mart_planted_thick_leaves", sf.train(planted, config))


def test_mart_planted_shallow(planted):
    # depth 4 and leaves of at least 20 examples: the grower gives no tokens
    # to children at the depth limit, nor to children of fewer than 40 rows
    config = sf.TrainConfig.mart(num_trees=10, seed=7, max_depth=4, min_examples_per_leaf=20)
    _check("mart_planted_shallow", sf.train(planted, config))


def test_rf_planted_all_terms(planted):
    # every present term is a candidate: no sampling filter and no rng
    config = sf.TrainConfig.random_forest(num_trees=6, seed=19, sampling_rate=1.0)
    _check("rf_planted_all_terms", sf.train(planted, config))
