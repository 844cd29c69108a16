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
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import setforest as sf

GOLDEN = {
    "rf_planted": "86525de9cf7d4beaebb82cb45fa8af31114874a9b6747cfbf261c67264fb56bf",
    "mart_planted": "0d0e44d504df7d04d0f6b22092aa2c698a615249cd359c966442ad3777c6c80c",
    "mart_mixed_csv": "5eae674ad934a894ffe72461958ac354af1ed0c12880a766124a0711c9464c93",
    "rf_two_set_csv": "ab041b831a6b9a0a0a7b5e88d6a4065e141066cea5acf7227df2da5e8f0ba60f",
    "mart_planted_thick_leaves": "a7a4df6c6265ff0a4b82352ca28b7d46f71bebd9ffe159a1ffb0b7837740503c",
    "mart_planted_shallow": "2520bda76e0be38f82ac385e48bb0ed1809bb6341782927a06be20b2049807f0",
    "rf_planted_all_terms": "c627f02e6f0b6aff7e1209b7ed6cc12c6be6eb5025b2ae4703c84c549df7a8aa",
    "rf_num_cat_csv": "0b8c047b15ff9482da0489e7508547a7430646ebeb508fa7b5046a1c362b615c",
}


def _digest(forest) -> str:
    return hashlib.sha256(sf.forest_to_json(forest).encode("utf-8")).hexdigest()


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
    assert _digest(sf.train(planted, config)) == GOLDEN["rf_planted"]


def test_mart_planted(planted):
    config = sf.TrainConfig.mart(num_trees=12, seed=5)
    assert _digest(sf.train(planted, config)) == GOLDEN["mart_planted"]


def test_mart_mixed_csv(tmp_path):
    ds = sf.load_csv(_mixed_csv(tmp_path / "mixed.csv"),
                     {"text": "set", "num": "numerical", "cat": "categorical"},
                     weight_column="w")
    config = sf.TrainConfig.mart(num_trees=12, seed=9, sampling_rate=0.5)
    assert _digest(sf.train(ds, config)) == GOLDEN["mart_mixed_csv"]


def test_rf_two_set_csv(tmp_path):
    # two of the four features per node, so a set feature is often first
    # sampled below the root; numerical and categorical splits are chosen too
    ds = sf.load_csv(_two_set_csv(tmp_path / "two_set.csv"),
                     {"text": "set", "tags": "set", "num": "numerical",
                      "cat": "categorical"}, weight_column="w")
    config = sf.TrainConfig.random_forest(num_trees=6, seed=13, sampling_rate=0.5,
                                          compute_oob=True)
    assert _digest(sf.train(ds, config)) == GOLDEN["rf_two_set_csv"]


def test_rf_num_cat_csv(tmp_path):
    # three of the five features per node: a node searches a numerical or
    # categorical feature from scratch, and no child inherits its order
    ds = sf.load_csv(_num_cat_csv(tmp_path / "num_cat.csv"),
                     {"a": "numerical", "b": "numerical", "c": "numerical",
                      "d": "categorical", "e": "categorical"}, weight_column="w")
    config = sf.TrainConfig.random_forest(num_trees=6, seed=31, compute_oob=True)
    assert _digest(sf.train(ds, config)) == GOLDEN["rf_num_cat_csv"]


def test_mart_planted_thick_leaves(planted):
    # leaves of at least 60 examples: the set splitter's closing size check
    # turns down some masks the greedy search grew
    config = sf.TrainConfig.mart(num_trees=8, seed=2, min_examples_per_leaf=60)
    assert _digest(sf.train(planted, config)) == GOLDEN["mart_planted_thick_leaves"]


def test_mart_planted_shallow(planted):
    # depth 4 and leaves of at least 20 examples: the grower gives no tokens
    # to children at the depth limit, nor to children of fewer than 40 rows
    config = sf.TrainConfig.mart(num_trees=10, seed=7, max_depth=4, min_examples_per_leaf=20)
    assert _digest(sf.train(planted, config)) == GOLDEN["mart_planted_shallow"]


def test_rf_planted_all_terms(planted):
    # every present term is a candidate: no sampling filter and no rng
    config = sf.TrainConfig.random_forest(num_trees=6, seed=19, sampling_rate=1.0)
    assert _digest(sf.train(planted, config)) == GOLDEN["rf_planted_all_terms"]
