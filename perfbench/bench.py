"""The benchmark proper: set-up, measured rounds, output checks, metrics.

``run.py`` imports setforest first (timed, as part of set-up) and then this
module; see its docstring for the command line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from setforest import evaluation as E
from setforest import inference as I
from setforest import model as M
from setforest import training as T

import tracing
from hostspeed import NOMINAL_S, HostSpeed
from workloads import WORKLOADS, pairwise_auc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 2
SETUP_REPEATS = 5
ROW_CHUNK = 500  # per-row samples scaled by the reference on either side of each chunk
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Round:
    """One round's samples, scaled to the reference host speed (see
    hostspeed.py); ``raw`` holds the same samples as measured."""

    traced: bool
    done: int = 0  # operations completed
    ingest_s: list = field(default_factory=list)
    train_s: float = 0.0
    cold_start_s: list = field(default_factory=list)
    batch_s: list = field(default_factory=list)
    row_us: np.ndarray | None = None
    row_scores: np.ndarray | None = None
    batch_scores: np.ndarray | None = None
    model_text: bytes = b""
    facts: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    products: tuple = ()  # (train_ds, hold_ds, forest, compiled) of the round


def _no_span(name):
    return nullcontext()


def run_round(r: Round, wl, files, seed, model_path, tracer, speed: HostSpeed) -> None:
    """Fill ``r`` with one round's timings and products; ``r.done`` counts
    the operations completed if one raises."""
    phase = tracer.span if tracer else _no_span
    clock = time.perf_counter

    def keep(name, elapsed):
        """Record a sample whose clock just stopped; returns it scaled."""
        r.raw.setdefault(name, []).append(elapsed)
        return elapsed * speed.scale()

    for _ in range(wl.ingest_repeats):
        gc.collect()
        with phase("ingest"):
            t = clock()
            train_ds, hold_ds = wl.ingest(files)
            elapsed = clock() - t
        r.ingest_s.append(keep("ingest_s", elapsed))
        r.done += 1

    config = wl.train_config(seed)
    gc.collect()
    with phase("train"):
        t = clock()
        forest = T.train(train_ds, config)
        elapsed = clock() - t
    r.train_s = keep("train_s", elapsed)
    r.done += 1
    M.save_forest(forest, model_path)
    r.model_text = model_path.read_bytes()
    r.done += 1

    for _ in range(wl.cold_repeats):
        gc.collect()
        with phase("cold_start"):
            t = clock()
            compiled = I.compile_forest(M.load_forest(model_path))
            elapsed = clock() - t
        r.cold_start_s.append(keep("cold_start_s", elapsed))
        r.done += 1

    rows = hold_ds.rows()
    predict = I.predict_compiled
    gc.collect()
    for row in rows[:wl.warmup_rows]:
        predict(compiled, row)
        r.done += 1
    ns = time.perf_counter_ns
    raw = np.empty((wl.row_passes, len(rows)))
    scaled = np.empty_like(raw)
    r.row_scores = np.empty(len(rows))
    speed.scale()  # a fresh reference right before the first chunk
    for raw_us, us in zip(raw, scaled):
        for lo in range(0, len(rows), ROW_CHUNK):
            for k in range(lo, min(lo + ROW_CHUNK, len(rows))):
                t = ns()
                score = predict(compiled, rows[k])
                raw_us[k] = (ns() - t) / 1e3
                r.row_scores[k] = score
                r.done += 1
            chunk = slice(lo, lo + ROW_CHUNK)
            us[chunk] = raw_us[chunk] * speed.scale()
    # a row's latency is the median of its passes: a preemption that lands
    # on one call does not make that row slow
    r.row_us = np.median(scaled, axis=0)
    r.raw["row_us"] = np.median(raw, axis=0)

    for _ in range(wl.batch_repeats):
        gc.collect()
        t = clock()
        r.batch_scores = I.predict_dataset(compiled, hold_ds)
        elapsed = clock() - t
        r.batch_s.append(keep("batch_s", elapsed))
        r.done += 1

    r.facts = {
        "training.trees": len(forest.trees),
        "training.nodes": sum(M.count_nodes(tree) for tree in forest.trees),
        "training.leaves": sum(M.count_leaves(tree) for tree in forest.trees),
        "model.json_bytes": len(r.model_text),
        # trees routed top-down inside the compiled path; a layout without
        # that fallback has none
        "inference.fallback_trees": len(getattr(compiled, "overflow", {})),
    }
    r.products = (train_ds, hold_ds, forest, compiled)


def run_checks(wl, inputs, first: Round):
    """Output checks on the first round's products, each computed apart from
    the code path it checks. Returns (checks, holdout AUC, oracle AUC)."""
    train_ds, hold_ds, forest, compiled = first.products
    text = first.model_text.decode("utf-8")
    top_down = np.array([M.predict(forest, row) for row in hold_ds.rows()])
    holdout_auc = E.auc(first.batch_scores, hold_ds.labels)
    oracle_auc = pairwise_auc(wl.oracle_scores(inputs), hold_ds.labels)
    return {
        "compiled_equals_top_down": top_down.tobytes() == first.row_scores.tobytes(),
        "json_round_trip_identical":
            text == M.forest_to_json(forest) + "\n"
            and M.forest_to_json(M.forest_from_json(text)) + "\n" == text,
        "auc_equals_pairwise": holdout_auc == pairwise_auc(first.batch_scores, hold_ds.labels),
        "auc_within_oracle_margin": holdout_auc >= oracle_auc - wl.auc_margin,
        "inputs_loaded_exactly": wl.inputs_loaded_exactly(inputs, train_ds, hold_ds),
    }, holdout_auc, oracle_auc


def serve_memory_mb(model_path) -> float:
    """tracemalloc peak over load plus compile, in an untimed pass."""
    gc.collect()
    tracemalloc.start()
    try:
        I.compile_forest(M.load_forest(model_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(wl, seed, seconds, trace, import_s):
    """One benchmark run. Returns (metrics, checks, record)."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{wl.name}-seed{seed}-trace{trace}-{os.getpid()}"
    work.mkdir()
    model_path = work / "model.json"
    try:
        speed = HostSpeed()  # timed right after the import, so it scales it
        import_scaled = import_s * NOMINAL_S / speed.last
        setup, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = wl.generate(seed)
            files = wl.write(inputs, work)
            setup_raw.append(time.perf_counter() - t)
            setup.append(setup_raw[-1] * speed.scale())

        tracer = tracing.Tracer() if trace else None
        rounds: list[Round] = []
        attempted = failed = 0
        errors: list[str] = []
        batch_equals_rows = retrain_identical = True
        first = None
        start = time.perf_counter()
        last = 0.0  # duration of the latest round: stop before overrunning
        while (len(rounds) + len(errors) < MIN_ROUNDS
               or time.perf_counter() - start + last <= seconds):
            traced = bool(trace) and (len(rounds) + len(errors)) % 2 == 1
            attempted += wl.ops_per_round
            r = Round(traced=traced)
            began = time.perf_counter()
            try:
                with tracer.installed() if traced else nullcontext():
                    run_round(r, wl, files, seed, model_path, tracer if traced else None,
                              speed)
            except Exception:  # a fault of the program: count it, keep measuring
                errors.append(traceback.format_exc())
                print(errors[-1], file=sys.stderr)
                failed += wl.ops_per_round - r.done
                continue
            finally:
                last = time.perf_counter() - began
            batch_equals_rows &= r.batch_scores.tobytes() == r.row_scores.tobytes()
            if first is None:
                first = r
                checks, holdout_auc, oracle_auc = run_checks(wl, inputs, first)
            else:
                retrain_identical &= r.model_text == first.model_text
                r.products = ()
            rounds.append(r)
        if first is None:
            raise RuntimeError(f"every round failed; first error:\n{errors[0]}")
        checks["batch_equals_per_row"] = batch_equals_rows
        checks["retrain_identical"] = retrain_identical
        serve_mb = serve_memory_mb(model_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    samples = {
        "setup_s": setup,
        "ingest_s": [x for r in plain for x in r.ingest_s],
        "train_s": [r.train_s for r in plain],
        "cold_start_s": [x for r in plain for x in r.cold_start_s],
        "batch_s": [x for r in plain for x in r.batch_s],
    }
    raw_samples = {name: [x for r in plain for x in r.raw[name]] for name in samples
                   if name != "setup_s"}
    raw_samples["setup_s"] = setup_raw
    row_us = [r.row_us for r in plain]
    raw_row_us = [r.raw["row_us"] for r in plain]
    raw_metrics = timing_metrics(import_s, raw_samples, raw_row_us, wl.n_holdout)
    if trace:
        metrics, counts_repeat = traced_metrics(tracer, rounds)
        checks["trace_counts_repeat"] = counts_repeat
        tracer.write(OUT / f"trace-{wl.name}-seed{seed}.json")
    else:
        metrics = timing_metrics(import_scaled, samples, row_us, wl.n_holdout)
        metrics.update({
            "holdout_auc": holdout_auc,
            "serve_mem_mb": serve_mb,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "checks": checks,
        "oracle_auc": oracle_auc,
        "predict_row_samples": wl.row_passes * sum(one.size for one in row_us),
        "import_s": import_s,
        "reference_s": {"nominal": NOMINAL_S, "median": median(speed.references),
                        "min": min(speed.references), "max": max(speed.references)},
        "samples": samples,
        "raw_samples": raw_samples,
        "raw_metrics": raw_metrics,
        "model": first.facts,
        "metrics": metrics,
    }
    return metrics, checks, record


def timing_metrics(import_s, samples, row_us, n_holdout) -> dict:
    """The timing metrics from one set of samples (scaled or raw). ``row_us``
    holds one array of per-row latencies per round; each percentile is the
    median of the rounds' own, so that one round in a slow spell does not
    set it."""
    return {
        "setup_s": import_s + median(samples["setup_s"]),
        "ingest_s": median(samples["ingest_s"]),
        "train_s": median(samples["train_s"]),
        "cold_start_s": median(samples["cold_start_s"]),
        "predict_row_p50_us": median([np.percentile(one, 50) for one in row_us]),
        "predict_row_p99_us": median([np.percentile(one, 99) for one in row_us]),
        "predict_batch_rows_per_s": n_holdout / median(samples["batch_s"]),
    }


def traced_metrics(tracer, rounds):
    """Per-layer metrics: the median of each time over the traced phase
    spans; counts must repeat exactly across them."""
    per_metric: dict[str, list] = {}
    for layers in tracer.phase_layers():
        for name, value in layers.items():
            per_metric.setdefault(name, []).append(value)
    for r in rounds:
        for name, value in r.facts.items():
            per_metric.setdefault(name, []).append(value)
    metrics = {}
    counts_repeat = True
    for name, values in per_metric.items():
        if name.endswith("_s"):
            metrics[name] = median(values)
        else:
            counts_repeat &= len(set(values)) == 1
            metrics[name] = values[0]
    traced_train = median([r.train_s for r in rounds if r.traced])
    plain_train = median([r.train_s for r in rounds if not r.traced])
    metrics["training.trace_overhead_s"] = traced_train - plain_train
    return metrics, counts_repeat


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    where the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def with_units(metrics, declared) -> dict:
    """Attach BENCHMARK.json's units; every declared metric must be present."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="setforest benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload, untraced and traced, at a small size")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required without --quick")
    return args


def main(argv, import_s: float) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.quick:
        ok = True
        for wl in WORKLOADS.values():
            for trace in (0, 1):
                metrics, checks, record = run_workload(wl.quick(), args.seed, 0.0, trace,
                                                       import_s)
                with_units(metrics, declared["per_layer" if trace else "end_to_end"])
                passed = all(checks.values()) and record["failed"] == 0
                ok &= passed
                bad = [name for name, good in checks.items() if not good]
                print(f"quick {wl.name} trace={trace}: {'ok' if passed else 'FAILED'}"
                      f" attempted={record['attempted']} failed={record['failed']}"
                      f" {bad or ''}")
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    metrics, checks, record = run_workload(WORKLOADS[args.workload], args.seed,
                                           args.seconds, args.trace, import_s)
    env = environment()
    record.update(env)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    correct = all(checks.values())
    for name, good in checks.items():
        print(f"check {name}: {'ok' if good else 'FAILED'}")
    print(f"rounds={record['rounds']} predict_row_samples={record['predict_row_samples']}"
          f" commit={env['commit']} python={env['python']} numpy={env['numpy']}"
          f" nproc={env['nproc']} seed={args.seed}")
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": with_units(metrics, declared["per_layer" if args.trace else "end_to_end"]),
    }
    print(json.dumps(result))
    return 0 if correct else 1
