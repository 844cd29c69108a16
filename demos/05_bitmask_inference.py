"""
Compiled bitmask inference
==========================

Instead of walking root-to-leaf per tree, the compiled evaluator keeps one
bit per leaf of every tree (bit i = leaf i, all set), ANDs in precomputed
masks for every condition the example satisfies, and reads the answer off
the lowest surviving bit. A tree's bits fill as many 64-bit words as the
forest's widest tree needs; the small trees below fit one word. Per-term
masks make set-intersection conditions as cheap as lookups: presence of a
term kills exactly the leaves it makes unreachable. Compiling packs each
term's masks over all trees into one Python int (tree t's word at bits
64t..64t+63, all ones where the term clears nothing), so scoring a row costs
one dict lookup and one int AND per token, then a fixed handful of numpy
calls that read every tree's lowest surviving bit at once. Numerical splits
keep their masks in threshold order, and a value applies those of every split
at or below it. Batched scoring (`predict_dataset`) does the same for blocks
of rows with numpy arrays and gives the same bits.
"""

import time

import numpy as np

import setforest as sf

# a hand-built two-tree forest over vocabulary {a, b, c, d}
a, b, c, d = 0, 1, 2, 3
vocab = sf.Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
tree0 = sf.Internal(
    sf.SetIntersects(0, (c,)),
    sf.Internal(sf.SetIntersects(0, (b,)), sf.Leaf(0.0), sf.Leaf(0.25)),
    sf.Leaf(1.0),
)
tree1 = sf.Internal(sf.SetIntersects(0, (c, d)), sf.Leaf(0.125), sf.Leaf(0.5))
forest = sf.DecisionForest(
    kind="rf", trees=[tree0, tree1], initial_score=0.0,
    features=[sf.Feature("text", sf.FeatureType.CATEGORICAL_SET, vocab)],
    metadata={})

compiled = sf.compile_forest(forest)
group = compiled.keyed[0]
for term, name in zip((a, b, c, d), "abcd"):
    span = group.index.get(term)
    if span is None:
        print(f"term {name}: no entries (its presence never changes a leaf)")
        continue
    for tree_id, mask in zip(group.tree_ids[span[0]:span[1]],
                             group.masks[span[0]:span[1]]):
        width = int(compiled.num_leaves[tree_id])
        bits = format(int(mask), f"0{width}b")[::-1]  # printed l0 first
        print(f"term {name}: tree {tree_id} mask {bits}")

# the same masks of c packed into one int over both trees' words
print("packed c:", hex(group.lookup[c]))

# a numerical feature's table keeps one entry per node, by threshold; row k
# ANDs the masks of every split whose threshold is at most the k-th smallest,
# so x = 2.5 reads the row of 2.0
chain = sf.DecisionForest(
    kind="rf", trees=[sf.Internal(sf.NumericalGE(0, 1.0), sf.Leaf(0.0),
                                  sf.Internal(sf.NumericalGE(0, 2.0), sf.Leaf(0.5),
                                              sf.Leaf(1.0)))],
    initial_score=0.0, features=[sf.Feature("x", sf.FeatureType.NUMERICAL)], metadata={})
table = sf.compile_forest(chain).keyed[0]
for k, (threshold, row) in enumerate(zip(table.keys, table.words()[1:]), start=1):
    bits = format(int(row[0]) & 0b111, "03b")[::-1]
    print(f"x >= {threshold}: row {k} keeps leaves {bits}")

# an example containing c: tree 0 can only reach l2, tree 1 only l1
print("leaves for {c}:", sf.compiled_leaf_indices(compiled, ((c,),)).tolist())
print("leaves for {} :", sf.compiled_leaf_indices(compiled, ((),)).tolist())

# the two evaluators agree bit-for-bit on every input
for bits in range(16):
    x = tuple(t for t in range(4) if bits >> t & 1)
    assert sf.predict_compiled(compiled, (x,)) == sf.predict_top_down(forest, (x,))
print("compiled == top-down on all 16 subsets")

# on a real boosted model the difference is throughput, not output
token_sets, labels = sf.planted_keyword_corpus(n=800, vocab_terms=150,
                                               signal_terms=6, seed=2)
vv = sf.build_vocabulary(token_sets, 150, 2)
ds = sf.dataset_from_token_sets(token_sets, vv, labels)
model = sf.train_mart(ds, sf.TrainConfig.mart(num_trees=80, seed=0,
                                              sampling_rate=0.5))
cm = sf.compile_forest(model)
rows = ds.rows()
for name, fn in (("compiled", lambda r: sf.predict_compiled(cm, r)),
                 ("top-down", lambda r: sf.predict_top_down(model, r))):
    start = time.perf_counter()
    for row in rows:
        fn(row)
    per = (time.perf_counter() - start) / len(rows) * 1e6
    print(f"{name}: {per:7.1f} us/example over {len(model.trees)} trees")

# batched: every row at once, the same bits as scoring row by row
start = time.perf_counter()
batch = sf.predict_dataset(cm, ds)
per = (time.perf_counter() - start) / len(rows) * 1e6
assert batch.tolist() == [sf.predict_compiled(cm, row) for row in rows]
print(f"batched : {per:7.1f} us/example over {len(model.trees)} trees")
