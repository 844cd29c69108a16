import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setforest as sf
from setforest import training
from setforest.dataset import FeatureType
from setforest.model import MAX_TREE_DEPTH, count_nodes, leaf_index, max_depth
from setforest.rng import make_rng
from setforest.splits import find_set_mask_split
from setforest.training import (
    MAX_INITIAL_SCORE,
    _child_state,
    _forest_workers,
    _tree_values,
    log_loss,
    log_loss_gradient,
)

from helpers import evaluate_column, make_vocab, random_mixed_dataset, set_dataset


def _separable_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    sets = []
    labels = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        base = set(rng.choice(np.arange(2, 10), size=3, replace=False).tolist())
        if label:
            base.add(0)
        sets.append(tuple(sorted(base)))
        labels.append(label)
    return set_dataset(sets, labels, vocab_size=10)


class TestGrowTree:
    def test_pure_node_is_single_leaf(self):
        ds = set_dataset([(0,), (1,)], [1, 1], vocab_size=2)
        tree = sf.grow_tree(ds, sf.TrainConfig.random_forest(num_trees=1))
        assert count_nodes(tree) == 1
        assert tree.value[0] == 1.0

    def test_separable_four_examples_depth_one(self):
        ds = set_dataset([(0,), (0,), (1,), (1,)], [1, 1, 0, 0], vocab_size=2)
        config = sf.TrainConfig.random_forest(num_trees=1, sampling_rate=1.0)
        tree = sf.grow_tree(ds, config)
        assert count_nodes(tree) > 1
        assert max_depth(tree) == 1
        preds = _tree_values(tree, ds, np.arange(4))
        assert ((preds >= 0.5) == ds.labels.astype(bool)).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_depth_limit_respected(self, seed):
        ds, _ = random_mixed_dataset(seed, n=120)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=2,
                                              sampling_rate=1.0)
        tree = sf.grow_tree(ds, config)
        assert max_depth(tree) <= 2

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_no_empty_branch_on_training_data(self, seed):
        ds, _ = random_mixed_dataset(seed, n=80)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=6,
                                              sampling_rate=1.0)
        tree = sf.grow_tree(ds, config)
        # the rows reaching each node, filled in preorder: parents first
        reach = {0: np.arange(ds.n_examples)}
        for node in range(count_nodes(tree)):
            idx = reach.pop(node)
            if tree.positive[node] < 0:  # a leaf
                assert len(idx) >= 1
                continue
            pos = evaluate_column(tree.condition(node), ds, idx)
            assert 0 < pos.sum() < len(idx)
            reach[node + 1], reach[int(tree.positive[node])] = idx[~pos], idx[pos]
        assert not reach


class TestInheritedTokens:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.sampled_from(["classification", "regression"]),
           st.sampled_from([1.0, 0.6]))
    def test_search_on_inherited_tokens_matches_a_fresh_gather(self, seed, objective, p):
        # walk from the root to a leaf along random sides; at every node the
        # inherited tokens equal a fresh gather, and the search on them
        # returns what the search that gathers its own returns
        ds, _ = random_mixed_dataset(seed % 40, n=150)
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, ds.n_examples, size=ds.n_examples)
        targets = ds.labels.astype(np.float64)
        if objective == "regression":
            targets = targets - rng.random(ds.n_examples)
        set_features = [f for f, feat in enumerate(ds.features)
                        if feat.ftype == FeatureType.CATEGORICAL_SET]
        tokens = {f: ds.columns[f].node_tokens(indices) for f in set_features}
        for depth in range(12):
            node_t, node_w = targets[indices], ds.weights[indices]
            found = []
            for f in set_features:
                for a, b in zip(tokens[f], ds.columns[f].node_tokens(indices)):
                    assert np.array_equal(a, b) and a.dtype == b.dtype
                inherited = find_set_mask_split(
                    ds.columns[f], indices, node_t, node_w, f, p, make_rng(seed, depth, f),
                    objective=objective, tokens=tokens[f])
                fresh = find_set_mask_split(
                    ds.columns[f], indices, node_t, node_w, f, p, make_rng(seed, depth, f),
                    objective=objective)
                if fresh is None:
                    assert inherited is None
                    continue
                assert inherited == fresh  # condition, gain, sizes and steps
                assert np.float64(inherited.gain).tobytes() == np.float64(fresh.gain).tobytes()
                assert np.array_equal(inherited.positive, fresh.positive)
                found.append(inherited)
            if not found:
                break
            side = found[int(rng.integers(len(found)))].positive
            if rng.random() < 0.5:
                side = ~side
            tokens = _child_state(tokens, side, np.flatnonzero(side))
            indices = indices[side]


def _tied_dataset(seed, n=300):
    """Two numerical features full of ties (NaN, -0.0 and 0.0 among them),
    a categorical one with missing values, fractional weights."""
    rng = np.random.default_rng(seed)
    a = np.round(rng.normal(size=n), 1)
    a[a == 0] = np.where(rng.random(n) < 0.5, -0.0, 0.0)[a == 0]
    a[rng.random(n) < 0.1] = np.nan
    b = rng.integers(0, 4, size=n).astype(np.float64)
    c = rng.integers(0, 6, size=n)
    c[rng.random(n) < 0.1] = sf.MISSING_CATEGORY
    signal = np.nan_to_num(a) + b / 2 + (c % 2) + rng.normal(scale=0.8, size=n)
    features = [sf.Feature("a", FeatureType.NUMERICAL), sf.Feature("b", FeatureType.NUMERICAL),
                sf.Feature("c", FeatureType.CATEGORICAL, make_vocab([f"c{i}" for i in range(6)]))]
    return sf.Dataset.create(features, [a, b, c], (signal > 1.5).astype(np.int64),
                             rng.choice([0.5, 1.0, 2.5], size=n))


class TestInheritedOrders:
    @staticmethod
    def _recorded(monkeypatch) -> tuple[list, list]:
        """The (node's values, keywords, values given) of every numerical
        and categorical search the grower makes, and the values of every
        ``numerical_order`` it computes. The node's values are gathered here,
        since a search given a coding is given no values below the root."""
        calls, made, node = [], [], []
        real_find = training._TreeGrower._find_split

        def finding(grower, feature, indices, *args):
            node[:] = [np.asarray(grower.ds.columns[feature])[indices]]
            return real_find(grower, feature, indices, *args)

        monkeypatch.setattr(training._TreeGrower, "_find_split", finding)
        for name in ("find_numerical_split", "find_categorical_split"):
            def recording(values, *args, real=getattr(training, name), **kw):
                calls.append((node[0], kw, values))
                return real(values, *args, **kw)

            monkeypatch.setattr(training, name, recording)
        real_order = training.numerical_order
        monkeypatch.setattr(training, "numerical_order",
                            lambda values: made.append(values) or real_order(values))
        return calls, made

    @pytest.mark.parametrize("seed", range(4))
    def test_every_node_order_is_a_fresh_stable_sort(self, monkeypatch, seed):
        # MART searches every feature at every node, so a child inherits its
        # parent's orders and codings; on a bootstrap, rows repeat
        calls, made = self._recorded(monkeypatch)
        ds = _tied_dataset(seed)
        rng = np.random.default_rng(seed)
        boot = rng.integers(0, ds.n_examples, size=ds.n_examples)
        residuals = ds.labels - rng.random(ds.n_examples)
        config = sf.TrainConfig.mart(num_trees=1, max_depth=6, min_examples_per_leaf=3)
        sf.grow_tree(ds, config, boot, "regression", residuals)
        for k, (values, kw, given) in enumerate(calls):
            # only the root gathers a categorical feature's values, to code them
            assert given is None if k >= 3 and "coding" in kw else \
                np.array_equal(given, values, equal_nan=True)
            if "order" in kw:
                present = np.flatnonzero(~np.isnan(values))
                fresh = present[np.argsort(values[present], kind="stable")]
                assert np.array_equal(kw["order"], fresh)
            else:
                codes, categories = kw["coding"]
                present = values != sf.MISSING_CATEGORY
                assert (codes[~present] == -1).all()
                assert np.array_equal(categories[codes[present]], values[present])
                assert (np.diff(categories) > 0).all()
        # each numerical order was sorted at the root alone
        assert len(made) == 2 and len(calls) > 3 * 3

    def test_sampled_features_inherit_nothing(self, monkeypatch):
        calls, made = self._recorded(monkeypatch)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=8)  # 2 of 3 per node
        sf.grow_tree(_tied_dataset(5), config)
        assert len(calls) > 3 and made == []
        assert all(kw == {} and np.array_equal(given, values, equal_nan=True)
                   for values, kw, given in calls)


class TestLeafChildren:
    @staticmethod
    def _counted(monkeypatch) -> list:
        """The row count of every child ``_child_state`` is asked for."""
        sizes = []
        real = training._child_state

        def counting(tokens, side, chosen):
            sizes.append(chosen.size)
            return real(tokens, side, chosen)

        monkeypatch.setattr(training, "_child_state", counting)
        return sizes

    def test_depth_one_gathers_no_child_tokens(self, monkeypatch):
        sizes = self._counted(monkeypatch)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=1, sampling_rate=1.0)
        tree = sf.grow_tree(_separable_dataset(n=60), config)
        assert count_nodes(tree) == 3
        assert sizes == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_only_children_that_can_split_get_tokens(self, monkeypatch, seed):
        # a child gets tokens exactly where it is above the depth limit and
        # holds at least 2 * min_examples_per_leaf rows
        sizes = self._counted(monkeypatch)
        ds, _ = random_mixed_dataset(seed, n=200)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=4, sampling_rate=1.0,
                                              min_examples_per_leaf=12)
        tree = sf.grow_tree(ds, config)
        reach = {0: (np.arange(ds.n_examples), 0)}
        want, small = [], 0
        for node in range(count_nodes(tree)):
            idx, depth = reach.pop(node)
            if node and depth < 4:
                if idx.size >= 24:
                    want.append(idx.size)
                else:
                    small += 1
            if tree.positive[node] >= 0:
                pos = evaluate_column(tree.condition(node), ds, idx)
                reach[node + 1] = idx[~pos], depth + 1
                reach[int(tree.positive[node])] = idx[pos], depth + 1
        assert small  # the size rule made some child a leaf above the depth limit
        assert sorted(sizes) == sorted(want)


def _chain_dataset(blocks=60, size=20):
    """Blocks of ``size`` rows with alternating labels; a row of block k holds
    the terms 0..k, so every mask is a cut between blocks, and the best cut
    peels one end block off: a tree one block deep per level."""
    sets = [tuple(range(i // size + 1)) for i in range(blocks * size)]
    labels = [(i // size) % 2 for i in range(blocks * size)]
    return set_dataset(sets, labels, vocab_size=blocks)


class TestTrainingMemory:
    def test_peak_stays_near_the_roots_tokens(self):
        # 36,600 tokens at the root and a chain of 59 splits. Measured: a
        # traced peak of 2.9 MiB; 17.2 MiB when every node keeps its tokens
        # until its subtree is grown
        ds = _chain_dataset()
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=MAX_TREE_DEPTH,
                                              sampling_rate=1.0, seed=0)
        tracemalloc.start()
        try:
            forest = sf.train(ds, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max_depth(forest.trees[0]) > 50
        assert peak < 4.5 * 2**20


class TestRandomForest:
    def test_single_tree_separable_training_auc(self):
        ds = _separable_dataset()
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=8, seed=4,
                                              sampling_rate=1.0)
        forest = sf.train_random_forest(ds, config)
        scores = [sf.predict(forest, row) for row in ds.rows()]
        assert sf.auc(scores, ds.labels) == 1.0

    def test_same_seed_bit_identical(self):
        ds = _separable_dataset()
        config = sf.TrainConfig.random_forest(num_trees=3, max_depth=5, seed=9)
        a = sf.forest_to_json(sf.train_random_forest(ds, config))
        b = sf.forest_to_json(sf.train_random_forest(ds, config))
        assert a == b

    def test_different_seed_differs(self):
        ds = _separable_dataset()
        a = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=3, max_depth=5, seed=1))
        b = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=3, max_depth=5, seed=2))
        assert sf.forest_to_json(a) != sf.forest_to_json(b)

    def test_prediction_is_exact_mean_of_tree_outputs(self):
        ds = _separable_dataset(seed=3)
        config = sf.TrainConfig.random_forest(num_trees=3, max_depth=4, seed=7)
        forest = sf.train_random_forest(ds, config)
        for row in ds.rows()[:10]:
            v0, v1, v2 = (tree.value[leaf_index(tree, row)]
                          for tree in forest.trees)
            assert sf.predict(forest, row) == ((v0 + v1) + v2) / 3.0

    def test_defaults_match_contract(self):
        config = sf.TrainConfig.random_forest()
        assert (config.num_trees, config.max_depth) == (500, 32)
        assert config.features_per_node == "sqrt"
        assert config.min_examples_per_leaf == 1
        assert config.sampling_rate == 0.2

    def test_leaf_values_are_probabilities(self):
        ds = _separable_dataset(seed=5)
        forest = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=2, max_depth=3, seed=0))
        for tree in forest.trees:
            for value in sf.model.leaf_values(tree):
                assert 0.0 <= value <= 1.0

    def test_oob_stats_recorded_on_request(self):
        ds = _separable_dataset(seed=6)
        forest = sf.train_random_forest(ds, sf.TrainConfig.random_forest(
            num_trees=2, max_depth=3, seed=0, compute_oob=True))
        assert len(forest.metadata["oob"]) == 2
        assert forest.metadata["oob"][0]["oob_examples"] > 0

    def test_empty_dataset_rejected(self):
        ds = set_dataset([], [], vocab_size=1)
        with pytest.raises(ValueError, match="empty"):
            sf.train_random_forest(ds, sf.TrainConfig.random_forest(num_trees=1))


def _force_workers(monkeypatch, count):
    """Grow forests with ``count`` processes, whatever this host has."""
    monkeypatch.setattr(training, "_forest_workers", lambda num_trees: count)


def _serial_bytes(ds, config):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_workers(monkeypatch, 1)
        return sf.forest_to_json(sf.train(ds, config))


@pytest.fixture
def four_cpus(monkeypatch):
    """A host that can fork, where this process may run on four CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "fork", getattr(os, "fork", None), raising=False)


def _unpicklable(self, protocol):
    raise TypeError(f"{type(self).__name__} is not pickled")


def _train_in_daemon(ds, config, conn):
    conn.send((_forest_workers(4), sf.forest_to_json(sf.train(ds, config))))
    conn.close()


class TestPooledForest:
    """Trees grown by forked worker processes: the same bytes as one process,
    and no process left behind."""

    @pytest.fixture(scope="class")
    def mixed(self):
        return random_mixed_dataset(seed=11, n=300)[0]

    @pytest.mark.parametrize("compute_oob", [False, True], ids=["plain", "oob"])
    @pytest.mark.parametrize("workers", [2, 3, 7])  # 7 is more than the trees
    def test_bytes_equal_at_any_worker_count(self, mixed, monkeypatch, workers, compute_oob):
        config = sf.TrainConfig.random_forest(num_trees=5, max_depth=8, seed=5,
                                              compute_oob=compute_oob)
        serial = _serial_bytes(mixed, config)
        _force_workers(monkeypatch, workers)
        # the workers inherit the dataset by fork; pickling it would fail
        monkeypatch.setattr(sf.Dataset, "__reduce_ex__", _unpicklable)
        forest = sf.train(mixed, config)
        assert sf.forest_to_json(forest) == serial
        if compute_oob:
            assert [s["tree"] for s in forest.metadata["oob"]] == list(range(5))
        assert multiprocessing.active_children() == []

    def test_worker_exception_reaches_the_caller(self, mixed, monkeypatch):
        parent = os.getpid()
        grow = training.grow_tree

        def failing_in_workers(*args, **kw):
            if os.getpid() != parent:
                raise sf.DataError("raised in a worker")
            return grow(*args, **kw)

        monkeypatch.setattr(training, "grow_tree", failing_in_workers)
        _force_workers(monkeypatch, 2)
        with pytest.raises(sf.DataError, match="raised in a worker"):
            sf.train(mixed, sf.TrainConfig.random_forest(num_trees=4, max_depth=4))
        assert multiprocessing.active_children() == []

    def test_tree_deeper_than_pickle_nests(self, monkeypatch):
        # each row outweighs the lighter ones, so every split peels the
        # heaviest row off: a chain of ~416 levels. Nested, such a tree passes
        # pickle's recursion limit (between 300 and 400 levels on CPython
        # 3.11); the workers send trees back flat, in preorder
        n = 900
        ds = sf.Dataset.create([sf.Feature("x", FeatureType.NUMERICAL)],
                               [np.arange(n, dtype=np.float64)], np.arange(n) % 2,
                               0.6 ** np.arange(n))
        config = sf.TrainConfig.random_forest(num_trees=2, max_depth=MAX_TREE_DEPTH, seed=0)
        serial = _serial_bytes(ds, config)
        _force_workers(monkeypatch, 2)
        forest = sf.train(ds, config)
        assert min(map(max_depth, forest.trees)) > 400
        assert sf.forest_to_json(forest) == serial

    def test_workers_follow_the_cpus_and_the_trees(self, four_cpus):
        assert [_forest_workers(n) for n in (1, 3, 4, 500)] == [1, 3, 4, 4]

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity(self, four_cpus, monkeypatch, missing):
        monkeypatch.delattr(os, missing)
        assert _forest_workers(4) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_serial_in_a_daemonic_process(self, mixed, four_cpus):
        config = sf.TrainConfig.random_forest(num_trees=3, max_depth=6, seed=2)
        serial = _serial_bytes(mixed, config)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_train_in_daemon, args=(mixed, config, send), daemon=True)
        child.start()
        send.close()  # so recv raises EOFError if the child dies first
        workers, text = receive.recv()
        child.join()
        assert child.exitcode == 0
        assert workers == 1 and text == serial

    def test_serial_while_another_thread_lives(self, mixed, four_cpus, monkeypatch):
        config = sf.TrainConfig.random_forest(num_trees=3, max_depth=6, seed=2)
        serial = _serial_bytes(mixed, config)
        monkeypatch.setattr(training, "_pooled_forest_trees", None)  # calling it fails
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert _forest_workers(4) == 1
            text = sf.forest_to_json(sf.train(mixed, config))
        finally:
            stop.set()
            other.join()
        assert text == serial

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_no_worker_outlives_a_killed_trainer(self):
        code = ("import os, time, setforest as sf\n"
                "from setforest import training\n"
                "from helpers import random_mixed_dataset\n"
                "def stuck(*args, **kw):\n"
                "    os.write(1, b'%d\\n' % os.getpid())  # one write: no interleaving\n"
                "    time.sleep(600)\n"
                "training.grow_tree = stuck\n"
                "training._forest_workers = lambda num_trees: 2\n"
                "sf.train(random_mixed_dataset(seed=1, n=60)[0],\n"
                "         sf.TrainConfig.random_forest(num_trees=2))\n")
        workers = []
        with subprocess.Popen([sys.executable, "-c", code], env=_env_with_src(),
                              stdout=subprocess.PIPE, text=True) as trainer:
            try:
                workers += [int(trainer.stdout.readline()) for _ in range(2)]
                trainer.kill()
                trainer.wait(timeout=10)
                deadline = time.monotonic() + 10
                while any(map(_running, workers)) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not any(map(_running, workers))
            finally:
                trainer.kill()
                for pid in filter(_running, workers):
                    os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _env_with_src() -> dict:
    """This environment, with the package and the test helpers importable."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")])
    return env


def test_import_loads_no_pool_module():
    # the pool's modules cost import time and memory; only a pooled forest
    # may load them
    code = ("import sys, setforest as sf\n"
            "from helpers import random_mixed_dataset\n"
            "ds = random_mixed_dataset(seed=1, n=120)[0]\n"
            "sf.train(ds, sf.TrainConfig.mart(num_trees=3))\n"
            "sf.train(ds, sf.TrainConfig.random_forest(num_trees=1, max_depth=4))\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


class TestMart:
    def test_training_loss_strictly_decreases_on_separable_data(self):
        ds = _separable_dataset()
        config = sf.TrainConfig.mart(num_trees=10, seed=3,
                                     validation_fraction=0.0, sampling_rate=1.0)
        forest = sf.train_mart(ds, config)
        losses = forest.metadata["train_losses"]
        assert len(losses) == 10
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_all_positive_labels_degenerate(self):
        ds = set_dataset([(0,), (1,), (0, 1)], [1, 1, 1], vocab_size=2)
        forest = sf.train_mart(ds, sf.TrainConfig.mart(num_trees=5, seed=0))
        assert forest.trees == []
        assert forest.initial_score == MAX_INITIAL_SCORE
        assert sf.predict(forest, ((0,),)) > 0.999999

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(scale=3.0, size=100)
        labels = rng.integers(0, 2, size=100).astype(np.float64)
        h = 1e-5
        fd = (log_loss(scores + h, labels) - log_loss(scores - h, labels)) / (2 * h)
        grad = log_loss_gradient(scores, labels)
        rel = np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-12)
        assert rel.max() < 1e-6

    def test_truncates_to_best_validation_round(self):
        ds = _separable_dataset(n=80, seed=8)
        config = sf.TrainConfig.mart(num_trees=15, seed=5,
                                     validation_fraction=0.2)
        forest = sf.train_mart(ds, config)
        val = forest.metadata["validation_losses"]
        best = forest.metadata["best_round"]
        assert best == int(np.argmin(val))
        assert len(forest.trees) == best + 1
        assert min(val) == val[best]

    def test_patience_stops_early(self):
        ds = _separable_dataset(n=60, seed=9)
        config = sf.TrainConfig.mart(num_trees=50, seed=5,
                                     validation_fraction=0.2,
                                     early_stopping_patience=3)
        forest = sf.train_mart(ds, config)
        assert len(forest.metadata["validation_losses"]) < 50

    def test_shrinkage_scales_stored_leaf_values(self):
        ds = _separable_dataset(n=30, seed=2)
        base = dict(num_trees=1, seed=4, validation_fraction=0.0,
                    sampling_rate=1.0)
        full = sf.train_mart(ds, sf.TrainConfig.mart(shrinkage=1.0, **base))
        tenth = sf.train_mart(ds, sf.TrainConfig.mart(shrinkage=0.1, **base))
        v_full = np.array(sf.model.leaf_values(full.trees[0]))
        v_tenth = np.array(sf.model.leaf_values(tenth.trees[0]))
        np.testing.assert_allclose(v_tenth, 0.1 * v_full, rtol=1e-12)

    def test_defaults_match_contract(self):
        config = sf.TrainConfig.mart()
        assert (config.num_trees, config.max_depth) == (500, 6)
        assert config.features_per_node == "all"
        assert config.min_examples_per_leaf == 5
        assert config.shrinkage == 0.1
        assert config.validation_fraction == 0.1

    def test_determinism(self):
        ds = _separable_dataset(seed=1)
        config = sf.TrainConfig.mart(num_trees=5, seed=11)
        a = sf.forest_to_json(sf.train_mart(ds, config))
        b = sf.forest_to_json(sf.train_mart(ds, config))
        assert a == b


class TestWeights:
    def test_doubled_weight_equals_duplicated_example(self):
        # weighted statistics must make {x with weight 2} and {x, x} grow the
        # same tree (min_examples_per_leaf=1 so example counts do not differ)
        sets = [(0,), (0, 1), (1,), (2,), (1, 2), (2,)]
        labels = [1, 1, 0, 0, 1, 0]
        weighted = set_dataset(sets, labels, vocab_size=3,
                               weights=[2.0, 1.0, 1.0, 2.0, 1.0, 1.0])
        duplicated = set_dataset([sets[0]] + sets + [sets[3]],
                                 [labels[0]] + labels + [labels[3]],
                                 vocab_size=3)
        config = sf.TrainConfig.random_forest(num_trees=1, max_depth=4,
                                              sampling_rate=1.0)
        tree_w = sf.grow_tree(weighted, config)
        tree_d = sf.grow_tree(duplicated, config)
        assert tree_w == tree_d

    def test_weighted_leaf_value_is_weighted_mean(self):
        ds = set_dataset([(0,), (0,)], [1, 0], vocab_size=1,
                         weights=[3.0, 1.0])
        tree = sf.grow_tree(ds, sf.TrainConfig.random_forest(num_trees=1))
        assert count_nodes(tree) == 1
        assert tree.value[0] == 0.75


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"num_trees": 0},
        {"max_depth": 0},
        {"sampling_rate": 0.0},
        {"sampling_rate": 1.5},
        {"shrinkage": 0.0},
        {"validation_fraction": 1.0},
        {"features_per_node": "half"},
        {"features_per_node": 0},
        {"algorithm": "xgb"},
        {"max_depth": MAX_TREE_DEPTH + 1},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            sf.TrainConfig(**kw)
