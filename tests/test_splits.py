import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.conditions import sets_intersect
from setforest.dataset import FeatureType
from setforest.rng import make_rng
from setforest.splits import (
    SetColumnIndex,
    find_categorical_split,
    find_numerical_split,
    find_set_mask_split,
    gain_from_stats,
)

from helpers import (
    best_singleton,
    enumerate_mask_gains,
    evaluate_column,
    random_mixed_dataset,
    reference_gain,
    set_dataset,
    split_gain,
    weighted_entropy,
)


def entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestGain:
    def test_perfect_split_of_balanced_labels(self):
        ds = set_dataset([(0,), (0,), (1,), (1,)], [1, 1, 0, 0])
        gain = split_gain(ds, sf.SetIntersects(0, (0,)))
        assert gain == 1.0

    def test_degenerate_partition_is_exactly_zero(self):
        ds = set_dataset([(0,), (0,), (0,), (0,)], [1, 1, 0, 0])
        assert split_gain(ds, sf.SetIntersects(0, (0,))) == 0.0

    def test_useless_balanced_split(self):
        # oracle: node entropy 1 bit, both children entropy 1 bit -> gain 0
        ds = set_dataset([(0,), (0,), (1,), (1,)], [1, 0, 1, 0])
        node_h = entropy(0.5)
        child_h = 0.5 * entropy(0.5) + 0.5 * entropy(0.5)
        assert node_h - child_h == 0.0
        assert split_gain(ds, sf.SetIntersects(0, (0,))) == 0.0

    def test_matches_direct_entropy_formula(self):
        # oracle: hand-evaluated weighted information gain
        labels = np.array([1, 1, 0, 1, 0, 0, 0])
        pos = np.array([True, True, False, True, True, False, False])
        w = np.ones(7)
        expected = (
            entropy(3 / 7)
            - (4 / 7) * entropy(3 / 4)
            - (3 / 7) * entropy(0 / 3)
        )
        got = gain_from_stats(7.0, float(labels.sum()), 4.0,
                              float(labels[pos].sum()))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_regression_gain_is_sse_decrease_over_weight(self):
        t = np.array([1.0, 2.0, 5.0, 6.0])
        w = np.ones(4)

        def sse(vals):
            return float(np.sum((vals - vals.mean()) ** 2))

        expected = (sse(t) - sse(t[:2]) - sse(t[2:])) / 4.0
        got = gain_from_stats(4.0, float(t.sum()), 2.0, float(t[:2].sum()),
                              objective="regression")
        assert got == pytest.approx(expected, rel=1e-12)


class TestNumericalSplit:
    def test_perfectly_separable(self):
        cand = find_numerical_split([1, 2, 3, 4], [0, 0, 1, 1], np.ones(4), 0)
        assert cand.condition.threshold == 2.5
        assert cand.gain == 1.0
        assert (cand.n_positive, cand.n_negative) == (2, 2)

    def test_constant_feature(self):
        assert find_numerical_split([5, 5, 5], [0, 1, 0], np.ones(3), 0) is None

    def test_tie_breaks_to_smaller_threshold(self):
        # oracle: enumerate both candidate thresholds by hand
        values, labels, w = [1.0, 2.0, 3.0], [0, 1, 0], np.ones(3)
        node_h = entropy(1 / 3)
        gain_15 = node_h - (2 / 3) * entropy(1 / 2)  # pos = {2,3}
        gain_25 = node_h - (2 / 3) * entropy(1 / 2)  # pos = {3}
        assert gain_15 == gain_25
        cand = find_numerical_split(values, labels, w, 0)
        assert cand.condition.threshold == 1.5
        assert cand.gain == pytest.approx(gain_15, abs=1e-12)

    def test_missing_pinned_to_negative_side(self):
        values = [1.0, 2.0, np.nan, np.nan]
        labels = [0, 1, 0, 0]
        cand = find_numerical_split(values, labels, np.ones(4), 0)
        assert cand.condition.threshold == 1.5
        assert cand.n_negative == 3  # one real negative plus two missing

    def test_min_leaf_filters_candidates(self):
        cand = find_numerical_split([1, 2, 3, 4], [0, 0, 1, 1], np.ones(4), 0,
                                    min_examples_per_leaf=2)
        assert cand.condition.threshold == 2.5
        assert find_numerical_split([1, 2, 2, 2], [0, 1, 1, 1], np.ones(4), 0,
                                    min_examples_per_leaf=2) is None

    def test_agrees_with_reference_scorer(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=40)
        labels = (values + rng.normal(scale=0.5, size=40) > 0).astype(int)
        cand = find_numerical_split(values, labels, np.ones(40), 0)
        ds = sf.Dataset.create(
            [sf.Feature("x", sf.FeatureType.NUMERICAL)], [values], labels)
        assert split_gain(ds, cand.condition) == pytest.approx(cand.gain, abs=1e-12)


class TestCategoricalSplit:
    def _values(self, counts):
        values, labels = [], []
        for cat, (total, pos) in enumerate(counts):
            values += [cat] * total
            labels += [1] * pos + [0] * (total - pos)
        return np.array(values), np.array(labels)

    def test_two_aligned_categories(self):
        values, labels = self._values([(2, 0), (2, 2)])
        cand = find_categorical_split(values, labels, np.ones(4), 0)
        assert cand.gain == 1.0
        assert cand.condition.values == {1}

    def test_single_category(self):
        assert find_categorical_split([0, 0], [0, 1], np.ones(2), 0) is None

    def test_three_categories_match_bipartition_brute_force(self):
        values, labels = self._values([(10, 1), (10, 5), (10, 9)])
        ds = sf.Dataset.create(
            [sf.Feature("c", sf.FeatureType.CATEGORICAL)],
            [values.astype(np.int64)], labels)
        best = -1.0
        for subset in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
            best = max(best, split_gain(ds, sf.CategoryIn(0, frozenset(subset))))
        cand = find_categorical_split(values, labels, np.ones(30), 0)
        assert cand.gain == pytest.approx(best, abs=1e-12)

    def test_missing_enables_prefix_orientation(self):
        values = np.array([0, 0, 1, 1, sf.MISSING_CATEGORY, sf.MISSING_CATEGORY])
        labels = np.array([0, 0, 1, 1, 1, 1])
        cand = find_categorical_split(values, labels, np.ones(6), 0)
        # missing routes negative; putting the low-ratio category in the value
        # set yields the pure partition {cat 0} vs {cat 1 + missing}
        assert cand.condition.values == {0}
        assert cand.gain == pytest.approx(entropy(4 / 6), abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 6)),
                    min_size=2, max_size=5), st.integers(0, 5))
    def test_scan_reaches_bipartition_optimum(self, spec, seed):
        counts = [(total, min(pos, total)) for total, pos in spec]
        values, labels = self._values(counts)
        if labels.min() == labels.max():
            return
        cand = find_categorical_split(values, labels, np.ones(len(values)), 0)
        ds = sf.Dataset.create(
            [sf.Feature("c", sf.FeatureType.CATEGORICAL)],
            [values.astype(np.int64)], labels)
        k = len(counts)
        best = 0.0
        for mask in range(1, 2**k - 1):
            subset = frozenset(i for i in range(k) if mask >> i & 1)
            best = max(best, split_gain(ds, sf.CategoryIn(0, subset)))
        if cand is None:
            assert best <= 1e-12
        else:
            assert cand.gain == pytest.approx(best, abs=1e-9)


def _mask_split(sets, labels, p=1.0, seed=0, min_leaf=1, weights=None,
                objective="classification"):
    column = [tuple(sorted(x)) for x in sets]
    index = SetColumnIndex(column)
    n = len(sets)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    return find_set_mask_split(
        index, np.arange(n), np.asarray(labels, dtype=np.float64), w, 0,
        sampling_rate=p, rng=make_rng(seed), min_examples_per_leaf=min_leaf,
        objective=objective)


class TestSetMaskSplit:
    def test_single_perfect_term_then_stop(self):
        # {a}->1 {a}->1 {b}->0 {b}->0: mask {a} is perfect; adding b would
        # send everything positive, gain 0, so the loop must reject it
        cand = _mask_split([(0,), (0,), (1,), (1,)], [1, 1, 0, 0])
        assert cand.condition.mask == (0,)
        assert cand.gain == 1.0
        assert cand.steps == ((0, 1.0),)

    def test_pure_labels_yield_no_split(self):
        assert _mask_split([(0,), (1,), (0, 1)], [1, 1, 1]) is None

    def test_accumulates_terms_for_union_structure(self):
        # positives carry term 0 xor term 1; both needed for a pure split
        sets = [(0, 2), (1, 2), (0,), (1,), (2,), (2,), (3,), (2, 3)]
        labels = [1, 1, 1, 1, 0, 0, 0, 0]
        cand = _mask_split(sets, labels)
        assert set(cand.condition.mask) == {0, 1}
        assert cand.gain == 1.0
        gains = [g for _, g in cand.steps]
        assert gains == sorted(gains) and len(set(gains)) == len(gains)

    def test_first_term_matches_singleton_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            vocab = int(rng.integers(2, 7))
            n = int(rng.integers(4, 21))
            sets = [tuple(sorted(rng.choice(vocab, size=rng.integers(0, vocab + 1),
                                            replace=False).tolist()))
                    for _ in range(n)]
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            cand = _mask_split(sets, labels)
            masks, gains = enumerate_mask_gains(sets, labels, np.ones(n), vocab)
            term, singleton_gain = best_singleton(masks, gains, vocab)
            optimum = float(gains.max())
            if cand is None:
                assert singleton_gain <= 1e-12
                continue
            assert cand.steps[0][0] == term
            assert singleton_gain - 1e-12 <= cand.gain <= optimum + 1e-12

    def test_determinism_under_sampling(self):
        rng = np.random.default_rng(1)
        sets = [tuple(sorted(rng.choice(10, size=4, replace=False).tolist()))
                for _ in range(40)]
        labels = rng.integers(0, 2, size=40)
        a = _mask_split(sets, labels, p=0.5, seed=123)
        b = _mask_split(sets, labels, p=0.5, seed=123)
        assert (a is None and b is None) or a.condition == b.condition

    def test_sampling_restricts_candidates(self):
        sets = [(0,), (0,), (1,), (1,)]
        labels = [1, 1, 0, 0]
        seen = set()
        for seed in range(30):
            cand = _mask_split(sets, labels, p=0.5, seed=seed)
            if cand is not None:
                seen.add(cand.condition.mask)
        # either term alone separates perfectly (branch roles swap); which one
        # wins depends on the sampled candidate pool, and the pool never
        # produces the useless combined mask
        assert seen == {(0,), (1,)}

    def test_min_leaf_rejects_thin_partition(self):
        sets = [(0,), (1,), (1,), (1,), (1,), (1,)]
        labels = [1, 0, 0, 0, 0, 1]
        assert _mask_split(sets, labels, min_leaf=2) is None

    def test_invalid_sampling_rate(self):
        with pytest.raises(ValueError):
            _mask_split([(0,)], [1], p=0.0)

    def test_regression_objective_grows_masks(self):
        sets = [(0,), (1,), (2,), (0, 2), (1, 2), (2,)]
        targets = [5.0, 5.0, 0.1, 4.9, 5.2, 0.0]
        cand = _mask_split(sets, targets, objective="regression")
        assert set(cand.condition.mask) == {0, 1}


class TestGainBounds:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 1)),
                    min_size=2, max_size=40))
    def test_information_gain_bounded_by_node_entropy(self, pairs):
        # gain of any partition lies in [0, H(labels)]
        routed = np.array([p[0] for p in pairs])
        labels = np.array([p[1] for p in pairs], dtype=np.float64)
        n = float(len(pairs))
        node_entropy = float(weighted_entropy(n, labels.sum())) / n
        gain = gain_from_stats(n, float(labels.sum()),
                               float(routed.sum()), float(labels[routed].sum()))
        assert 0.0 <= gain <= node_entropy + 1e-12


# a node's rows: (weight, target, routed positive); weights include fractions
_NODE_ROWS = st.lists(
    st.tuples(st.sampled_from([0.1, 0.25, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0, 7.0]),
              st.integers(0, 1), st.booleans()),
    min_size=1, max_size=30)


def _branch_stats(rows, objective, partitions):
    w = np.array([r[0] for r in rows])
    t = np.array([float(r[1]) for r in rows])
    if objective == "regression":
        t = t * 2.5 - 1.25 + w  # real-valued residual-like targets
    wt = w * t
    routed = np.array(partitions, dtype=bool).reshape(len(partitions), len(rows))
    return w.sum(), wt.sum(), routed @ w, routed @ wt


class TestFusedGain:
    """``gain_from_stats`` against the three-``weighted_entropy`` formula it
    replaced, compared as bytes."""

    @settings(deadline=None, max_examples=200)
    @given(_NODE_ROWS, st.sampled_from(["classification", "regression"]), st.data())
    def test_matches_reference_bit_for_bit(self, rows, objective, data):
        n = len(rows)
        given_split = [r[2] for r in rows]
        # the drawn split, both empty branches, and splits that are pure in t
        partitions = [given_split, [False] * n, [True] * n,
                      [r[1] == 1 for r in rows], [r[1] == 0 for r in rows]]
        partitions += data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                         max_size=4))
        w, wt, pos_w, pos_wt = _branch_stats(rows, objective, partitions)
        got = gain_from_stats(w, wt, pos_w, pos_wt, objective)
        want = reference_gain(w, wt, pos_w, pos_wt, objective)
        assert got.tobytes() == want.tobytes()
        for i in range(len(partitions)):  # scalar branches
            one = gain_from_stats(w, wt, pos_w[i], pos_wt[i], objective)
            assert np.float64(one).tobytes() == np.float64(want[i]).tobytes()

    def test_branch_totals_a_rounding_step_off_the_node(self):
        # a positive branch summed in another order can exceed the node's
        # total by an ulp; the negative branch is then a tiny negative weight
        w = 0.1 + 0.2 + 0.3
        for pos_w in (np.nextafter(w, 2.0), np.nextafter(w, 0.0), w):
            for objective in ("classification", "regression"):
                args = (w, 0.3, np.array([pos_w, 0.3]), np.array([0.3, 0.1]), objective)
                assert gain_from_stats(*args).tobytes() == reference_gain(*args).tobytes()


def _splitter_candidates(ds, indices, targets, weights, objective, rng):
    for f, feature in enumerate(ds.features):
        col = ds.columns[f]
        if feature.ftype == FeatureType.NUMERICAL:
            yield find_numerical_split(np.asarray(col)[indices], targets, weights, f,
                                       objective=objective)
        elif feature.ftype == FeatureType.CATEGORICAL:
            yield find_categorical_split(np.asarray(col)[indices], targets, weights, f,
                                         objective=objective)
        else:
            yield find_set_mask_split(ds.set_index(f), indices, targets, weights, f,
                                      sampling_rate=0.7, rng=rng, objective=objective)


class TestCarriedPartition:
    @staticmethod
    def _found(seed, objective, n_node):
        """Every candidate the three splitters return on a random node, with
        the node's rows."""
        ds, _ = random_mixed_dataset(seed % 50, n=80)
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, ds.n_examples, size=n_node)  # rows repeat, as in a bootstrap
        weights = rng.choice([0.5, 1.0, 2.5], size=n_node)
        targets = ds.labels[indices].astype(np.float64)
        if objective == "regression":
            targets = targets - rng.random(n_node)
        cands = _splitter_candidates(ds, indices, targets, weights, objective, make_rng(seed))
        return ds, indices, [c for c in cands if c is not None]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10_000), st.sampled_from(["classification", "regression"]),
           st.integers(2, 120))
    def test_positive_equals_evaluate_column(self, seed, objective, n_node):
        ds, indices, found = self._found(seed, objective, n_node)
        for cand in found:
            want = evaluate_column(cand.condition, ds, indices)
            assert cand.positive.dtype == bool
            assert np.array_equal(cand.positive, want)
            assert (int(want.sum()), int((~want).sum())) == (cand.n_positive, cand.n_negative)

    def test_every_splitter_is_exercised(self):
        kinds = {type(c.condition) for seed in range(10)
                 for c in self._found(seed, "classification", 60)[2]}
        assert kinds == {sf.NumericalGE, sf.CategoryIn, sf.SetIntersects}


def _slow_greedy(column, indices, targets, weights, p, rng, objective):
    """From-scratch reference: rescan every example for every candidate."""
    rows = [column[i] for i in indices]
    present = sorted({t for x in rows if x for t in x})
    if p < 1.0 and present:
        keep = rng.random(len(present)) < p
        present = [t for t, k in zip(present, keep) if k]
    if not present:
        return None
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    total_w, total_wt = w.sum(), (w * t).sum()
    mask: list[int] = []
    current = 0.0
    steps = []
    candidates = list(present)
    while candidates:
        best_term, best_gain = None, -np.inf
        for cand in candidates:  # ascending ids: lowest-id tie-break
            trial = set(mask) | {cand}
            pos = np.array([bool(x) and not trial.isdisjoint(x) for x in rows])
            gain = float(gain_from_stats(total_w, total_wt, w[pos].sum(),
                                         (w * t)[pos].sum(), objective))
            if gain > best_gain:
                best_term, best_gain = cand, gain
        if best_gain <= current:
            break
        mask.append(best_term)
        candidates.remove(best_term)
        current = best_gain
        steps.append((best_term, best_gain))
    if not mask:
        return None
    return tuple(sorted(mask)), current, tuple(steps)


class TestIncrementalBookkeeping:
    @pytest.mark.parametrize("block", range(4))
    def test_matches_full_rescan_reference(self, block):
        # integer weights keep every partial sum exact, so the incremental
        # statistics must reproduce the rescan reference bit for bit,
        # acceptance trace included
        rng = np.random.default_rng(900 + block)
        for trial in range(30):
            vocab = int(rng.integers(2, 10))
            column = []
            for _ in range(int(rng.integers(4, 40))):
                u = rng.random()
                if u < 0.08:
                    column.append(None)
                elif u < 0.2:
                    column.append(())
                else:
                    size = int(rng.integers(1, vocab + 1))
                    column.append(tuple(sorted(
                        rng.choice(vocab, size=size, replace=False).tolist())))
            n_node = int(rng.integers(3, 50))
            indices = rng.integers(0, len(column), size=n_node)
            objective = "classification" if trial % 2 else "regression"
            if objective == "classification":
                targets = rng.integers(0, 2, size=n_node).astype(np.float64)
            else:
                targets = rng.integers(-3, 4, size=n_node).astype(np.float64)
            weights = rng.integers(1, 4, size=n_node).astype(np.float64)
            p = (1.0, 0.6)[trial % 2]
            seed = block * 1000 + trial
            fast = find_set_mask_split(
                SetColumnIndex(column), indices, targets, weights, 0,
                sampling_rate=p, rng=make_rng(seed), objective=objective)
            slow = _slow_greedy(column, indices, targets, weights, p,
                                make_rng(seed), objective)
            if fast is None or slow is None:
                assert fast is None and slow is None
                continue
            assert fast.condition.mask == slow[0]
            assert fast.gain == pytest.approx(slow[1], abs=1e-12)
            assert tuple(fast.steps) == slow[2]


class TestSetColumnIndex:
    def test_node_tokens_gather(self):
        index = SetColumnIndex([(0, 2), (), None, (1,)])
        rows, terms = index.node_tokens(np.array([0, 3, 1]))
        assert rows.tolist() == [0, 0, 1]
        assert terms.tolist() == [0, 2, 1]

    def test_empty_selection(self):
        index = SetColumnIndex([(), None])
        rows, terms = index.node_tokens(np.array([0, 1]))
        assert rows.size == 0 and terms.size == 0


class TestMergeIntersection:
    @settings(deadline=None, max_examples=120)
    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_matches_nested_loop_oracle(self, a, b):
        x, m = tuple(sorted(a)), tuple(sorted(b))
        naive = any(i == j for i in x for j in m)
        assert sets_intersect(x, m) == naive
