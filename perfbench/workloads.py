"""The benchmark's three workloads: inputs made from a seed, ingest, checks.

The generators live here rather than in ``setforest.synthetic`` so that a
change to the library cannot change what the benchmark feeds it; the program
sees only the files written below. Every random draw comes from
``numpy.random.default_rng([seed, tag])``, so one seed gives the same files
on every run.

Which code each workload stresses, and why it was chosen, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from setforest import dataset as D
from setforest import training as T

_TAG_TEXT = 0x7E47
_TAG_CSV = 0xC5F

KEY_WORDS = tuple(f"key{i}" for i in range(10))


def noise_words(count: int) -> tuple[str, ...]:
    return tuple(f"w{i:03d}" for i in range(count))


def exactly(rng, n: int, share: float) -> np.ndarray:
    """``n`` flags with exactly ``round(share * n)`` set, at random positions.
    Exact shares keep model size and AUC from wandering with the seed."""
    flags = np.zeros(n, dtype=bool)
    flags[rng.choice(n, size=round(share * n), replace=False)] = True
    return flags


def planted_sets(rng, labels, noise, tokens, key_rate_pos, key_rate_neg):
    """One token set per label: ``tokens`` = (lo, hi) noise draws, plus one
    ``key*`` term in exactly ``key_rate_pos`` of the positives and
    ``key_rate_neg`` of the negatives (the planted rule)."""
    positive = labels == 1
    keyed = np.empty(len(labels), dtype=bool)
    keyed[positive] = exactly(rng, int(positive.sum()), key_rate_pos)
    keyed[~positive] = exactly(rng, int((~positive).sum()), key_rate_neg)
    lo, hi = tokens
    sets = []
    for key in keyed:
        count = int(rng.integers(lo, hi + 1))
        terms = {noise[j] for j in rng.integers(0, len(noise), size=count)}
        if key:
            terms.add(KEY_WORDS[int(rng.integers(0, len(KEY_WORDS)))])
        sets.append(frozenset(terms))
    return sets


def has_key(terms) -> bool:
    return any(t.startswith("key") for t in terms)


def pairwise_auc(scores, labels) -> float:
    """AUC as a literal count over every (positive, negative) pair: a
    concordant pair counts 1, a tie 1/2. Independent of ``evaluation.auc``,
    which ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    concordant = ties = 0
    for start in range(0, len(pos), 256):
        block = pos[start:start + 256, None]
        concordant += int(np.count_nonzero(block > neg[None, :]))
        ties += int(np.count_nonzero(block == neg[None, :]))
    return (concordant + 0.5 * ties) / (len(pos) * len(neg))


@dataclass(frozen=True)
class Workload:
    """Sizes, trainer and timing repeats shared by both input families."""

    name: str
    algorithm: str  # "mart" | "rf"
    num_trees: int
    n_train: int
    n_holdout: int
    auc_margin: float  # holdout_auc may sit at most this far below the oracle
    quick_auc_margin: float  # the same at the self-test's size
    ingest_repeats: int = 4
    cold_repeats: int = 10
    batch_repeats: int = 3
    row_passes: int = 3
    warmup_rows: int = 100

    def train_config(self, seed: int):
        make = T.TrainConfig.mart if self.algorithm == "mart" else T.TrainConfig.random_forest
        return make(num_trees=self.num_trees, seed=seed)

    @property
    def ops_per_round(self) -> int:
        # ingests, train, save, cold starts, warm-up rows, timed rows, batches
        return (self.ingest_repeats + 2 + self.cold_repeats
                + min(self.warmup_rows, self.n_holdout) + self.row_passes * self.n_holdout
                + self.batch_repeats)

    def quick(self) -> "Workload":
        """The same workload at a small size, for the self-test."""
        return replace(self, num_trees=min(self.num_trees, 10), n_train=1500,
                       n_holdout=500, auc_margin=self.quick_auc_margin,
                       ingest_repeats=1, cold_repeats=1, batch_repeats=1, row_passes=1,
                       warmup_rows=10)


@dataclass(frozen=True)
class TextWorkload(Workload):
    """Planted-keyword corpus in ``<label><TAB><text>`` files, one set feature.

    The training file is half positives, the holdout ``holdout_positives``.
    Each example holds 8..16 draws from 490 noise words; ``key_rate_pos`` of
    the positives and ``key_rate_neg`` of the negatives also hold one of ten
    ``key*`` terms.
    """

    min_frequency: int = 2
    key_rate_pos: float = 0.99
    key_rate_neg: float = 0.02
    holdout_positives: float = 0.5  # share of positives in the holdout file

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, _TAG_TEXT])
        inputs = {}
        for part, n, share in (("train", self.n_train, 0.5),
                               ("holdout", self.n_holdout, self.holdout_positives)):
            labels = exactly(rng, n, share).astype(np.int64)
            inputs[part] = (planted_sets(rng, labels, noise_words(490), (8, 16),
                                         self.key_rate_pos, self.key_rate_neg),
                            labels)
        return inputs

    def write(self, inputs, directory: Path) -> dict[str, Path]:
        files = {}
        for part, (sets, labels) in inputs.items():
            path = directory / f"{part}.tsv"
            path.write_text("".join(f"{y}\t{' '.join(sorted(s))}\n"
                                    for s, y in zip(sets, labels)), encoding="utf-8")
            files[part] = path
        return files

    def ingest(self, files):
        train_sets, train_labels = D.load_labeled_text(files["train"])
        hold_sets, hold_labels = D.load_labeled_text(files["holdout"])
        vocab = D.build_vocabulary(train_sets, max_size=5000,
                                   min_frequency=self.min_frequency)
        return (D.dataset_from_token_sets(train_sets, vocab, train_labels),
                D.dataset_from_token_sets(hold_sets, vocab, hold_labels))

    def inputs_loaded_exactly(self, inputs, train_ds, hold_ds) -> bool:
        """Term sets decode to the written sets minus out-of-vocabulary terms,
        and the labels are the written labels."""
        terms = train_ds.features[0].vocabulary.terms
        known = frozenset(terms)
        for ds, (sets, labels) in ((train_ds, inputs["train"]), (hold_ds, inputs["holdout"])):
            decoded = [frozenset(terms[t] for t in ids) for ids in ds.columns[0]]
            if decoded != [s & known for s in sets] or not np.array_equal(ds.labels, labels):
                return False
        return True

    def oracle_scores(self, inputs) -> np.ndarray:
        """The generator's own rule: contains a ``key*`` term."""
        return np.array([has_key(s) for s in inputs["holdout"][0]], dtype=np.float64)


CSV_COLUMNS = {"text": "set", "num": "numerical", "cat": "categorical"}
_CATEGORIES = tuple(f"c{i:02d}" for i in range(24))
_CAT_WEIGHTS = np.linspace(2.0, 0.2, len(_CATEGORIES))
_CAT_P_POS = _CAT_WEIGHTS / _CAT_WEIGHTS.sum()
_CAT_P_NEG = _CAT_P_POS[::-1].copy()
_KEY_RATE_POS, _KEY_RATE_NEG = 0.75, 0.08
_NUM_SHIFT = 1.2


@dataclass(frozen=True)
class CsvWorkload(Workload):
    """``label,text,num,cat`` CSV; all three features depend on the label.

    Each file is half positives, and:

    * ``text`` (set): 5% missing cells, 5% empty sets ``{}``, the rest 4..10
      draws from 290 noise words plus a ``key*`` term in 75% of the positives
      and 8% of the negatives;
    * ``num`` (numerical): 6% missing, else N(1.2 * label, 1) to 3 decimals;
    * ``cat`` (categorical): 6% missing, else one of 24 values whose
      frequencies fall linearly for positives and rise for negatives.
    """

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, _TAG_CSV])
        return {"train": _csv_rows(rng, self.n_train), "holdout": _csv_rows(rng, self.n_holdout)}

    def write(self, inputs, directory: Path) -> dict[str, Path]:
        files = {}
        for part, rows in inputs.items():
            lines = ["label,text,num,cat\n"]
            for y, text, num, cat in rows:
                cell = "" if text is None else "{" + " ".join(sorted(text)) + "}"
                lines.append(f"{y},{cell},{'' if num is None else repr(num)},{cat or ''}\n")
            path = directory / f"{part}.csv"
            path.write_text("".join(lines), encoding="utf-8")
            files[part] = path
        return files

    def ingest(self, files):
        train_ds = D.load_csv(files["train"], CSV_COLUMNS)
        hold_ds = D.load_csv_with_schema(files["holdout"], train_ds.features,
                                         label_column="label")
        return train_ds, hold_ds

    def inputs_loaded_exactly(self, inputs, train_ds, hold_ds) -> bool:
        """Every loaded cell equals the written value: missing stays missing,
        ``{}`` stays an empty set, and the holdout loses only values unseen in
        training (dropped set terms, categories mapped to missing)."""
        return (_columns_match(inputs["train"], train_ds, train_ds)
                and _columns_match(inputs["holdout"], hold_ds, train_ds))

    def oracle_scores(self, inputs) -> np.ndarray:
        """Bayes log-odds under the generator's own distributions."""
        key_yes = math.log(_KEY_RATE_POS / _KEY_RATE_NEG)
        key_no = math.log((1 - _KEY_RATE_POS) / (1 - _KEY_RATE_NEG))
        cat_llr = dict(zip(_CATEGORIES, np.log(_CAT_P_POS / _CAT_P_NEG)))
        scores = []
        for _, text, num, cat in inputs["holdout"]:
            s = 0.0
            if text:
                s += key_yes if has_key(text) else key_no
            if num is not None:
                s += _NUM_SHIFT * num - _NUM_SHIFT ** 2 / 2
            if cat is not None:
                s += cat_llr[cat]
            scores.append(s)
        return np.array(scores)


def _csv_rows(rng, n):
    labels = exactly(rng, n, 0.5).astype(np.int64)
    sets = planted_sets(rng, labels, noise_words(290), (4, 10), _KEY_RATE_POS, _KEY_RATE_NEG)
    text_order = rng.permutation(n)  # the first 5% go missing, the next 5% empty
    nums = np.round(rng.normal(_NUM_SHIFT * labels, 1.0), 3)
    num_missing = exactly(rng, n, 0.06)
    cats = np.where(labels == 1,
                    rng.choice(len(_CATEGORIES), size=n, p=_CAT_P_POS),
                    rng.choice(len(_CATEGORIES), size=n, p=_CAT_P_NEG))
    cat_missing = exactly(rng, n, 0.06)
    rows = []
    for i in range(n):
        k = text_order[i]
        text = None if k < round(0.05 * n) else frozenset() if k < round(0.10 * n) else sets[i]
        rows.append((int(labels[i]), text,
                     None if num_missing[i] else float(nums[i]),
                     None if cat_missing[i] else _CATEGORIES[cats[i]]))
    return rows


def _columns_match(rows, ds, schema_ds) -> bool:
    col = {f.name: i for i, f in enumerate(ds.features)}
    vocab = {f.name: f.vocabulary.terms for f in schema_ds.features if f.vocabulary}
    known_terms = set(vocab["text"])
    texts, nums, cats = (ds.columns[col[name]] for name in ("text", "num", "cat"))
    for i, (y, text, num, cat) in enumerate(rows):
        if ds.labels[i] != y:
            return False
        ids = texts[i]
        if text is None:
            if ids is not None:
                return False
        elif ids is None or frozenset(vocab["text"][t] for t in ids) != text & known_terms:
            return False
        if num is None:
            if not math.isnan(nums[i]):
                return False
        elif nums[i] != num:
            return False
        code = int(cats[i])
        if cat is None or cat not in vocab["cat"]:
            if code != D.MISSING_CATEGORY:
                return False
        elif code == D.MISSING_CATEGORY or vocab["cat"][code] != cat:
            return False
    return True


WORKLOADS = {
    w.name: w for w in (
        TextWorkload("mart_text", "mart", num_trees=30, n_train=4000, n_holdout=2000,
                     auc_margin=0.01, quick_auc_margin=0.05,
                     batch_repeats=10, row_passes=5),
        # More rule exceptions than mart_text make nearly every depth-32 tree
        # wider than the compiled evaluator's 64 leaves; at 99%/2% 5 to 10 of
        # the 10 were, with the seed, and per-row latency moved with them.
        # Negatives walk about 1.5 times as far as positives here, so per-row
        # latency has two modes; a holdout of one positive in four puts its
        # median inside the negatives' mode instead of in the gap between.
        TextWorkload("rf_text", "rf", num_trees=10, n_train=4000, n_holdout=2000,
                     auc_margin=0.01, quick_auc_margin=0.05,
                     key_rate_pos=0.94, key_rate_neg=0.06, holdout_positives=0.25,
                     batch_repeats=5),
        CsvWorkload("mixed_csv", "mart", num_trees=30, n_train=3000, n_holdout=1500,
                    auc_margin=0.08, quick_auc_margin=0.15,
                    batch_repeats=10, row_passes=5),
    )
}
