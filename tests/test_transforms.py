import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest.dataset import Feature, FeatureType
from setforest.transforms import (
    EMPTY_SET_HASH,
    TransformChain,
    hash64,
)

from helpers import (
    bag_of_words,
    make_vocab,
    max_hash,
    one_hot,
    reference_bag_of_words,
    reference_max_hash,
    reference_one_hot,
    set_dataset,
)


class TestHash64:
    # frozen regression vectors pin the exact algorithm
    VECTORS = [
        ("blue", 0, 4552771151055528193),
        ("blue", 1, 646617981438010059),
        ("red", 0, 8489572315016161922),
        ("", 0, 7043838727467204504),
        ("café", 7, 300629857809158177),
    ]

    @pytest.mark.parametrize("text,seed,expected", VECTORS)
    def test_pinned_vectors(self, text, seed, expected):
        assert hash64(text, seed) == expected

    @settings(deadline=None, max_examples=60)
    @given(st.text(max_size=12), st.integers(0, 2**63 - 1))
    def test_range_and_determinism(self, text, seed):
        h = hash64(text, seed)
        assert 0 <= h < 2**63
        assert h == hash64(text, seed)


class TestBagOfWords:
    def test_examples(self):
        assert bag_of_words((0, 2), 4).tolist() == [1, 0, 1, 0]
        assert bag_of_words((), 3).tolist() == [0, 0, 0]
        # oracle: per-term membership test
        x = (0, 1, 2)
        expected = [1.0 if i in set(x) else 0.0 for i in range(3)]
        assert bag_of_words(x, 3).tolist() == expected == [1, 1, 1]

    def test_one_hot_same_membership_categorical_dtype(self):
        assert one_hot((0, 2), 4).tolist() == [1, 0, 1, 0]
        assert one_hot((), 3).tolist() == [0, 0, 0]
        assert one_hot((0, 1, 2), 3).dtype == np.int64

    @settings(deadline=None, max_examples=50)
    @given(st.sets(st.integers(0, 9)))
    def test_output_sums_to_set_size(self, ids):
        x = tuple(sorted(ids))
        assert bag_of_words(x, 10).sum() == len(x)
        assert one_hot(x, 10).sum() == len(x)


class TestMaxHash:
    def test_empty_set_sentinel(self):
        vocab = make_vocab(["a", "b"])
        assert max_hash((), vocab, [1, 2]).tolist() == [EMPTY_SET_HASH] * 2

    def test_singleton(self):
        vocab = make_vocab(["a", "b"])
        seeds = [5, 9]
        out = max_hash((1,), vocab, seeds)
        assert out.tolist() == [hash64("b", 5), hash64("b", 9)]

    def test_two_terms_is_explicit_max(self):
        vocab = make_vocab(["a", "b"])
        # oracle: enumerate both hashes and take the max by hand
        h_a, h_b = hash64("a", 3), hash64("b", 3)
        out = max_hash((0, 1), vocab, [3])
        assert out.tolist() == [max(h_a, h_b)]

    @settings(deadline=None, max_examples=40)
    @given(st.sets(st.integers(0, 4)), st.sets(st.integers(0, 4)))
    def test_permutation_invariant_and_union_monotone(self, xs, ys):
        vocab = make_vocab([f"w{i}" for i in range(5)])
        seeds = [11, 22]
        x = tuple(sorted(xs))
        union = tuple(sorted(xs | ys))
        out_x = max_hash(x, vocab, seeds)
        out_rev = max_hash(tuple(reversed(x)), vocab, seeds)
        assert out_x.tolist() == out_rev.tolist()
        assert (max_hash(union, vocab, seeds) >= out_x).all() or not union


class TestTargetMean:
    def _dataset(self, values, labels):
        vocab = make_vocab([f"v{i}" for i in range(1 + max(values))])
        feature = Feature("cat", FeatureType.CATEGORICAL, vocab)
        return sf.Dataset.create([feature], [np.asarray(values, dtype=np.int64)],
                                 labels)

    def test_unsmoothed_ratio(self):
        ds = self._dataset([0, 0, 0, 0], [1, 1, 1, 0])
        table = sf.fit_target_mean(ds, 0, smoothing=0.0)
        assert table.ratios[0] == 0.75

    def test_unseen_maps_to_prior(self):
        ds = self._dataset([0, 0], [1, 0])
        table = sf.fit_target_mean(ds, 0, smoothing=0.0)
        assert table.lookup(42) == table.prior == 0.5

    def test_smoothed_formula(self):
        # (1 + 10 * 0.5) / (2 + 10) = 0.5 by hand
        ds = self._dataset([0, 0], [1, 0])
        table = sf.fit_target_mean(ds, 0, smoothing=10.0)
        assert table.ratios[0] == (1 + 10 * 0.5) / (2 + 10) == 0.5

    def test_missing_stays_missing(self):
        ds = self._dataset([0, 0], [1, 0])
        table = sf.fit_target_mean(ds, 0)
        assert np.isnan(table.lookup(sf.MISSING_CATEGORY))

    def test_empty_dataset_error(self):
        vocab = make_vocab(["v0"])
        feature = Feature("cat", FeatureType.CATEGORICAL, vocab)
        ds = sf.Dataset(
            [feature], [np.empty(0, dtype=np.int64)],
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        with pytest.raises(ValueError, match="empty"):
            sf.fit_target_mean(ds, 0)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                    min_size=2, max_size=30))
    def test_outputs_bounded(self, pairs):
        values = [p[0] for p in pairs]
        labels = [p[1] for p in pairs]
        if len(set(labels)) == 0:
            return
        ds = self._dataset(values, labels)
        table = sf.fit_target_mean(ds, 0, smoothing=3.0)
        for ratio in table.ratios.values():
            assert 0.0 <= ratio <= 1.0


def _text_dataset():
    sets = [(0, 1), (1,), (2,), (), (0, 2), (1, 2)]
    labels = [1, 1, 0, 0, 1, 0]
    return set_dataset(sets, labels, vocab_size=3)


class TestSteps:
    def test_bow_expands_columns(self):
        ds = sf.BagOfWords().fit(_text_dataset()).transform(_text_dataset())
        assert ds.n_features == 3
        assert all(f.ftype == FeatureType.NUMERICAL for f in ds.features)
        assert ds.columns[0].tolist() == [1, 0, 0, 0, 1, 0]

    def test_onehot_on_sets(self):
        ds = sf.OneHot().fit(_text_dataset()).transform(_text_dataset())
        assert all(f.ftype == FeatureType.CATEGORICAL for f in ds.features)

    def test_maxhash_then_targetmean(self):
        chain = sf.make_chain(("maxhash", "targetmean"), seed=3, maxhash_k=4)
        train = _text_dataset()
        out = chain.fit_transform(train)
        assert out.n_features == 4
        assert all(f.ftype == FeatureType.NUMERICAL for f in out.features)
        assert np.isfinite(np.stack(out.columns)).all()

    def test_maxhash_then_onehot(self):
        chain = sf.make_chain(("maxhash", "onehot"), seed=3, maxhash_k=2)
        out = chain.fit_transform(_text_dataset())
        assert all(f.ftype == FeatureType.CATEGORICAL for f in out.features)
        # one column per observed hash value per slot
        assert out.n_features >= 2

    def test_fitted_state_reused_on_new_fold(self):
        chain = sf.make_chain(("maxhash", "targetmean"), seed=3, maxhash_k=2)
        chain.fit(_text_dataset())
        fresh = set_dataset([(0,), (2,), None], [0, 0, 0], vocab_size=3)
        out = chain.transform(fresh)
        assert out.n_examples == 3
        assert np.isnan(out.columns[0][2])  # missing set stays missing

    def test_type_mismatch_raises(self):
        numeric_only = sf.Dataset.create(
            [Feature("x", FeatureType.NUMERICAL)],
            [np.array([1.0, 2.0])], [0, 1])
        with pytest.raises(ValueError):
            sf.make_chain(("targetmean",)).fit(numeric_only)
        with pytest.raises(ValueError):
            sf.make_chain(("bow",)).fit(numeric_only)

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            sf.make_chain(("embeddings",))

    def test_step_names_have_no_aliases(self):
        with pytest.raises(ValueError, match="unknown transform"):
            sf.make_chain(("bagofwords",))

    def test_fit_transform_runs_each_step_once(self, monkeypatch):
        calls = []
        for cls in (sf.MaxHash, sf.TargetMean):
            for method in ("fit", "transform"):
                original = getattr(cls, method)
                monkeypatch.setattr(cls, method, lambda self, ds, _o=original, _n=method: (
                    calls.append((self.name, _n)), _o(self, ds))[1])
        chain = sf.make_chain(("maxhash", "targetmean"), seed=3, maxhash_k=2)
        out = chain.fit_transform(_text_dataset())
        assert calls == [("maxhash", "fit"), ("maxhash", "transform"),
                         ("targetmean", "fit"), ("targetmean", "transform")]
        again = chain.transform(_text_dataset())
        for a, b in zip(out.columns, again.columns):
            np.testing.assert_array_equal(a, b)

    def test_chain_serialization_round_trip(self):
        chain = sf.make_chain(("maxhash", "targetmean"), seed=9, maxhash_k=2)
        train = _text_dataset()
        expected = chain.fit_transform(train)
        restored = TransformChain.from_dict(chain.to_dict())
        got = restored.transform(train)
        for a, b in zip(expected.columns, got.columns):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_maxhash_seeds_come_from_seed_and_k_only(self):
        spec = sf.MaxHash(k=3, seed=9).to_dict()
        assert sf.MaxHash.from_dict(spec).seeds == spec["seeds"]
        for seeds in ([spec["seeds"][0] + 1] + spec["seeds"][1:], spec["seeds"][:2]):
            with pytest.raises(ValueError, match="max-hash"):
                sf.MaxHash.from_dict(dict(spec, seeds=seeds))

    def test_maxhash_numerical_treatment(self):
        chain = sf.make_chain(("maxhash",), seed=1, maxhash_k=2,
                              maxhash_treat="numerical")
        out = chain.fit_transform(_text_dataset())
        assert all(f.ftype == FeatureType.NUMERICAL for f in out.features)


@st.composite
def _two_set_columns(draw):
    """Vocabulary sizes and two set columns of one length: missing rows,
    empty sets, and ids 0 and V - 1 all turn up."""
    n = draw(st.integers(1, 25))
    sizes, columns = [], []
    for _ in range(2):
        v = draw(st.integers(1, 8))
        ids = st.sets(st.integers(0, v - 1), min_size=1).map(lambda x: tuple(sorted(x)))
        sizes.append(v)
        columns.append(draw(st.lists(st.one_of(st.none(), st.just(()), ids),
                                     min_size=n, max_size=n)))
    return sizes, columns


class TestSetColumnsMatchRowLoops:
    """Each set-column transform equals the per-row loop it replaced, byte
    for byte, however the dataset was built."""

    @settings(deadline=None, max_examples=60)
    @given(_two_set_columns(), st.booleans(), st.integers(0, 2**32),
           st.sampled_from(["categorical", "numerical"]))
    def test_transforms_equal_reference_loops(self, drawn, direct, seed, treat):
        sizes, (a, b) = drawn
        n = len(a)
        features = [Feature("a", FeatureType.CATEGORICAL_SET,
                            make_vocab([f"a{j}" for j in range(sizes[0])])),
                    Feature("x", FeatureType.NUMERICAL),
                    Feature("b", FeatureType.CATEGORICAL_SET,
                            make_vocab([f"b{j}" for j in range(sizes[1])]))]
        x = np.arange(n, dtype=np.float64)
        labels = np.zeros(n, dtype=np.int64)
        if direct:
            ds = sf.Dataset(features, [a, x, b], labels, np.ones(n))
        else:
            ds = sf.Dataset.create(features, [a, x, b], labels)
        maxhash = sf.MaxHash(k=3, seed=seed, treat=treat)
        cases = [
            (sf.BagOfWords(), reference_bag_of_words),
            (sf.OneHot(), reference_one_hot),
            (maxhash, lambda f, c: reference_max_hash(f, c, maxhash.seeds, treat)),
        ]
        for step, reference in cases:
            out = step.fit(ds).transform(ds)
            expected = [*reference(features[0], a),
                        (features[1], x),
                        *reference(features[2], b)]
            assert out.features == [f for f, _ in expected]
            for got, (_, want) in zip(out.columns, expected, strict=True):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
