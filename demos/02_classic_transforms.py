"""
Classic encodings of set features
=================================

Before splitting on sets directly, the usual route was to flatten them:
bag-of-words counts, one-hot membership, seeded hash maxima, or smoothed
target statistics. These live in ``setforest.transforms`` and compose into
chains fitted on training data only.
"""

import numpy as np

import setforest as sf

token_sets, labels = sf.planted_keyword_corpus(n=200, vocab_terms=30,
                                               signal_terms=3, seed=1)
vocab = sf.build_vocabulary(token_sets, max_size=30, min_frequency=1)
dataset = sf.dataset_from_token_sets(token_sets, vocab, labels)

# --- bag of words: one 0/1 column per vocabulary term -----------------------
x = dataset.columns[0][0]
print("set:", x)
bow = sf.BagOfWords().fit(dataset).transform(dataset)
print(f"bag-of-words dataset: {bow.n_features} numerical columns")
print("bag of words:", [float(bow.columns[j][0]) for j in range(10)], "...")

# --- max-hash: k seeded hash maxima per set ---------------------------------
# the hash is pinned (FNV-1a + splitmix64 finalizer, 63-bit), so these
# numbers are reproducible anywhere; an empty set hashes to the sentinel 0
maxhash = sf.MaxHash(k=2, seed=11)
hashed = maxhash.fit(dataset).transform(dataset)
print("max_hash:", [int(hashed.columns[j][0]) for j in range(2)])
print("by hand: ", [max(sf.hash64(vocab.terms[t], s) for t in x) for s in maxhash.seeds])

# --- target mean: categorical value -> smoothed positive ratio --------------
chain = sf.make_chain(("maxhash", "targetmean"), seed=7, maxhash_k=4)
transformed = chain.fit_transform(dataset)
print(f"maxhash+targetmean: {transformed.n_features} numerical columns")
print("column 0 head:", np.round(transformed.columns[0][:5], 3))

# the fitted chain replays on new data without touching its labels
fresh = sf.dataset_from_token_sets(token_sets[:5], vocab, [0] * 5)
replayed = chain.transform(fresh)
print("replay on fresh rows:", np.round(replayed.columns[0][:5], 3))
