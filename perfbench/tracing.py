"""Spans around calls into setforest, kept in memory for the traced run.

Each traced function is replaced, for the length of a traced round, at the
module attribute its caller looks up: the tree grower calls
``setforest.training.find_set_mask_split``, so that attribute is wrapped,
and nothing inside ``src/`` changes. The benchmark's own phases (``ingest``,
``train``, ``cold_start``) are spans too, and every layer span is charged to
the phase that encloses it.

Spans are stored column by column (name, parent index, start ns, end ns,
count), so a long traced run adds no per-span objects for the garbage
collector to walk. ``count`` is the work the call reports (rows routed, term
ids encoded, greedy steps taken), or ``None`` where the call found nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from setforest import dataset, inference, model, training

PHASES = ("ingest", "train", "cold_start")


def _length(result):
    return len(result)


def _greedy_steps(result):
    return None if result is None else len(result.steps)


# (module, attribute, span name, count taken from the result)
WRAPPED = (
    (dataset, "tokenize", "dataset.tokenize", None),
    (dataset, "build_vocabulary", "dataset.vocabulary", None),
    (dataset, "encode_tokens", "dataset.encode", _length),
    (dataset, "load_csv", "dataset.load_csv", None),
    (dataset, "load_csv_with_schema", "dataset.load_csv_with_schema", None),
    (training, "SetColumnIndex", "splits.set_index", None),
    (training, "find_set_mask_split", "splits.set_search", _greedy_steps),
    (training, "find_numerical_split", "splits.numerical_search", None),
    (training, "find_categorical_split", "splits.categorical_search", None),
    (training, "evaluate_column", "conditions.partition", _length),
    (training, "tree_apply", "model.tree_apply", _length),
    (model, "forest_from_json", "model.from_json", None),
    (inference, "compile_forest", "inference.compile", None),
)

# per-layer metric -> (phase, span name, what to take from the phase's spans):
# "s" summed seconds, "calls" span count, "count" summed counts,
# "found_ratio" calls with a result / calls, "self" phase seconds not
# covered by its direct child spans.
LAYER_METRICS = {
    "dataset.tokenize_s": ("ingest", "dataset.tokenize", "s"),
    "dataset.vocabulary_s": ("ingest", "dataset.vocabulary", "s"),
    "dataset.encode_s": ("ingest", "dataset.encode", "s"),
    "dataset.tokens": ("ingest", "dataset.encode", "count"),
    "dataset.load_csv_s": ("ingest", "dataset.load_csv", "s"),
    "dataset.load_csv_with_schema_s": ("ingest", "dataset.load_csv_with_schema", "s"),
    "splits.set_index_s": ("train", "splits.set_index", "s"),
    "splits.set_search_s": ("train", "splits.set_search", "s"),
    "splits.set_search_calls": ("train", "splits.set_search", "calls"),
    "splits.set_greedy_steps": ("train", "splits.set_search", "count"),
    "splits.set_found_ratio": ("train", "splits.set_search", "found_ratio"),
    "splits.numerical_search_s": ("train", "splits.numerical_search", "s"),
    "splits.categorical_search_s": ("train", "splits.categorical_search", "s"),
    "conditions.partition_s": ("train", "conditions.partition", "s"),
    "conditions.partition_rows": ("train", "conditions.partition", "count"),
    "model.tree_apply_s": ("train", "model.tree_apply", "s"),
    "model.tree_apply_rows": ("train", "model.tree_apply", "count"),
    "training.self_s": ("train", None, "self"),
    "model.from_json_s": ("cold_start", "model.from_json", "s"),
    "inference.compile_s": ("cold_start", "inference.compile", "s"),
}
_NO_CALLS = {"s": 0.0, "calls": 0, "count": 0, "found": 0}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: list[int | None] = []
        self._open: list[int] = []

    def _begin(self, name) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.counts.append(None)
        self._open.append(index)
        return index

    def _end(self, index, count=None) -> None:
        self.ends[index] = time.perf_counter_ns()
        self.counts[index] = count
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, fn, name, count_of):
        def traced(*args, **kwargs):
            index = self._begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._end(index, count_of(result) if count_of and result is not None
                          else None)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced attribute that exists; restore them on exit. An
        attribute a later version drops is skipped and its layer reads 0."""
        saved = []
        try:
            for module, attr, name, count_of in WRAPPED:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name, count_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def phase_layers(self) -> list[dict]:
        """The layer metrics of every phase span; a layer the phase never
        called reads 0."""
        owner = [-1] * len(self.names)
        per_phase: dict[int, dict] = {}
        spans = zip(self.names, self.parents, self.starts, self.ends, self.counts)
        for i, (name, parent, start, end, count) in enumerate(spans):
            if name in PHASES:
                owner[i] = i
                per_phase[i] = {"seconds": (end - start) / 1e9, "direct": 0.0, "layers": {}}
                continue
            owner[i] = owner[parent] if parent >= 0 else -1
            if owner[i] < 0:
                continue
            rec = per_phase[owner[i]]
            seconds = (end - start) / 1e9
            layer = rec["layers"].setdefault(name, dict(_NO_CALLS))
            layer["s"] += seconds
            layer["calls"] += 1
            if count is not None:
                layer["count"] += count
                layer["found"] += 1
            if parent == owner[i]:
                rec["direct"] += seconds
        out = []
        for i, rec in per_phase.items():
            phase = self.names[i]
            metrics = {}
            for metric, (metric_phase, span_name, take) in LAYER_METRICS.items():
                if metric_phase != phase:
                    continue
                if take == "self":
                    metrics[metric] = rec["seconds"] - rec["direct"]
                    continue
                layer = rec["layers"].get(span_name, _NO_CALLS)
                if take == "found_ratio":
                    metrics[metric] = layer["found"] / layer["calls"] if layer["calls"] else 0.0
                else:
                    metrics[metric] = layer[take]
            out.append(metrics)
        return out

    def write(self, path) -> None:
        """Spans as JSON: the distinct names, then one column per field;
        ``name`` holds indexes into ``names``."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        columns = {"name": [index[n] for n in self.names], "parent": self.parents,
                   "start_ns": self.starts, "end_ns": self.ends, "count": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": columns}, fh, separators=(",", ":"))
