"""Command-line frontend: train, evaluate, sweep, bench, predict.

Runs are declared in a flat ``key = value`` config file; ``--set key=value``
flags override file values. Identical config plus seed gives byte-identical
primary outputs (model files, report CSVs); wall-clock timings live only in
the metadata sidecar.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .dataset import (
    DataError,
    Dataset,
    Feature,
    FeatureType,
    Vocabulary,
    build_vocabulary,
    dataset_from_token_sets,
    load_csv,
    load_csv_with_schema,
    load_labeled_text,
    read_text,
    text_examples,
)
from .evaluation import (
    MethodSpec,
    benchmark_inference,
    cross_validate,
    fit_method,
    fold_csv,
    sampling_rate_sweep,
    summary_csv,
    summary_table,
    text_pipeline,
)
from .inference import compile_forest, predict_dataset
from .model import MAX_TREE_DEPTH, DecisionForest, load_forest, save_forest
from .training import TrainConfig
from .transforms import TransformChain, make_chain

DEFAULT_SWEEP_GRID = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0)


class ConfigError(Exception):
    """Raised for unknown keys, bad values, or unusable option combinations."""


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_features_per_node(text: str):
    if text in ("sqrt", "all"):
        return text
    return int(text)


def _parse_patience(text: str):
    if text.lower() in ("none", ""):
        return None
    return int(text)


def _parse_grid(text: str):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _check(holds, requirement: str):
    """A ``_KEYS`` value check: ValueError unless ``holds(value)``. Ranges
    are written so that NaN fails them."""
    def check(value):
        if not holds(value):
            raise ValueError(f"must be {requirement}, got {value!r}")
    return check


def _one_of(*choices):
    return _check(lambda v: v in choices, "one of " + ", ".join(map(repr, choices)))


_AT_LEAST_1 = _check(lambda v: v >= 1, ">= 1")
_RATE = _check(lambda v: 0.0 < v <= 1.0, "in (0, 1]")

# key -> (parser, default, check); defaults of None mean "decide per
# algorithm". Every value given is checked when it is read; a check of None
# means any value parses (method and step names are checked as they are built)
_KEYS: dict[str, tuple] = {
    "data": (str, None, None),
    "columns": (str, None, None),
    "label": (str, "label", None),
    "weight": (str, None, None),
    "methods": (str, "rf", None),
    "num_trees": (int, None, _AT_LEAST_1),
    "max_depth": (int, None, _check(lambda v: 1 <= v <= MAX_TREE_DEPTH,
                                    f"in [1, {MAX_TREE_DEPTH}]")),
    "min_examples_per_leaf": (int, None, _AT_LEAST_1),
    "features_per_node": (_parse_features_per_node, None, _check(
        lambda v: isinstance(v, str) or v >= 1, "'sqrt', 'all' or a count >= 1")),
    "sampling_rate": (float, 0.2, _RATE),
    "shrinkage": (float, 0.1, _RATE),
    "validation_fraction": (float, 0.1, _check(lambda v: 0.0 <= v < 1.0, "in [0, 1)")),
    "patience": (_parse_patience, None, _check(lambda v: v is None or v >= 1, "none or >= 1")),
    "compute_oob": (_parse_bool, False, None),
    "maxhash_k": (int, 32, _AT_LEAST_1),
    "maxhash_treat": (str, "categorical", _one_of("categorical", "numerical")),
    "targetmean_smoothing": (float, 10.0, _check(lambda v: 0.0 <= v < math.inf,
                                                 "finite and >= 0")),
    "vocab_size": (int, 5000, _AT_LEAST_1),
    "min_frequency": (int, 5, _AT_LEAST_1),
    "folds": (int, 5, _check(lambda v: v >= 2, ">= 2")),
    "seed": (int, 0, None),
    "output": (str, "setforest-run", None),
    "baseline": (str, None, None),
    "grid": (_parse_grid, DEFAULT_SWEEP_GRID, _check(
        lambda g: len(g) > 0 and all(0.0 < p <= 1.0 for p in g),
        "a non-empty list of rates in (0, 1]")),
    "runs": (int, 100, _AT_LEAST_1),
    "warmup": (int, 10, _check(lambda v: v >= 0, ">= 0")),
}


class RunConfig:
    def __init__(self):
        self.values = {key: default for key, (_, default, _) in _KEYS.items()}
        self.provided: set[str] = set()

    def set(self, key: str, raw: str, origin: str):
        if key not in _KEYS:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        parser, _, check = _KEYS[key]
        try:
            value = parser(raw.strip())
            if check is not None:
                check(value)
        except ValueError as exc:
            raise ConfigError(f"{origin}: bad value for {key}: {exc}") from exc
        self.values[key] = value
        self.provided.add(key)

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(_KEYS):
            value = self.values[key]
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def parse_config(path: str | None, overrides: list[str]) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        try:
            _, text = read_text(path)
        except DataError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            cfg.set(key.strip(), raw, origin=f"{path}:{lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        cfg.set(key.strip(), raw, origin=f"--set {key.strip()}")
    return cfg


def _train_config(cfg: RunConfig, algorithm: str) -> TrainConfig:
    factory = TrainConfig.random_forest if algorithm == "rf" else TrainConfig.mart
    kw = {"seed": cfg["seed"], "sampling_rate": cfg["sampling_rate"]}
    # per-algorithm defaults apply unless the key was given explicitly
    for key in ("num_trees", "max_depth", "min_examples_per_leaf",
                "features_per_node", "compute_oob"):
        if key in cfg.provided:
            kw[key] = cfg.values[key]
    if algorithm == "mart":
        kw["shrinkage"] = cfg["shrinkage"]
        kw["validation_fraction"] = cfg["validation_fraction"]
        kw["early_stopping_patience"] = cfg["patience"]
    return factory(**kw)  # every value passed its check on entry


def _method_from_token(cfg: RunConfig, token: str) -> MethodSpec:
    token = token.strip()
    algorithm, _, chain_text = token.partition(":")
    algorithm = algorithm.strip()
    if algorithm not in ("rf", "mart"):
        raise ConfigError(f"method {token!r}: algorithm must be rf or mart")
    steps = tuple(s.strip() for s in chain_text.split("+") if s.strip())
    try:
        make_chain(steps)  # validate step names early
    except ValueError as exc:
        raise ConfigError(f"method {token!r}: {exc}") from exc
    return MethodSpec(
        label=token,
        config=_train_config(cfg, algorithm),
        transform=steps,
        maxhash_k=cfg["maxhash_k"],
        maxhash_treat=cfg["maxhash_treat"],
        targetmean_smoothing=cfg["targetmean_smoothing"],
    )


def _methods(cfg: RunConfig) -> list[MethodSpec]:
    tokens = [t for t in cfg["methods"].split(";") if t.strip()]
    if not tokens:
        raise ConfigError("methods list is empty")
    methods = [_method_from_token(cfg, t) for t in tokens]
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ConfigError("duplicate method labels")
    return methods


def _parse_columns(cfg: RunConfig) -> dict[str, str]:
    out = {}
    for item in cfg["columns"].split(","):
        name, _, ftype = item.strip().partition(":")
        if not name or not ftype:
            raise ConfigError(f"bad column spec {item!r}; expected name:type")
        out[name] = ftype.strip()
    return out


def _refuse_column_keys(cfg: RunConfig) -> None:
    """A run that reads text lines has no columns to name: each line's label
    comes first and it has no weight, so ``label`` and ``weight`` are
    refused rather than ignored."""
    for key in ("label", "weight"):
        if key in cfg.provided:
            raise ConfigError(f"'{key}' names a CSV column, and this run reads "
                              "text lines ('columns' is not given)")


def _load_corpus(cfg: RunConfig):
    if cfg["data"] is None:
        raise ConfigError("this command needs a 'data' key")
    if cfg["columns"] is not None:
        raise ConfigError("cross-validation commands read text lines only, "
                          "and 'columns' marks a CSV")
    _refuse_column_keys(cfg)
    token_sets, labels = load_labeled_text(cfg["data"])
    if len(labels) < cfg["folds"]:
        raise DataError(f"{cfg['data']}: {len(labels)} examples, "
                        f"fewer than folds = {cfg['folds']}")
    return token_sets, labels


def _require_examples(dataset: Dataset, path: str) -> None:
    if dataset.n_examples == 0:
        raise DataError(f"{path}: no examples")


def _require_output(cfg: RunConfig) -> Path:
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def _metadata(cfg: RunConfig, command: str, started: float, outputs: list[str]) -> dict:
    return {
        "command": command,
        "seed": cfg["seed"],
        "config_hash": cfg.config_hash(),
        "elapsed_seconds": time.time() - started,
        "outputs": outputs,
    }


def _safe_label(label: str) -> str:
    return label.replace(":", "_").replace("+", "-")


def cmd_train(cfg: RunConfig) -> int:
    started = time.time()
    out = _require_output(cfg)
    methods = _methods(cfg)
    if len(methods) != 1:
        raise ConfigError("train expects exactly one method")
    method = methods[0]
    if cfg["data"] is None:
        raise ConfigError("train needs a 'data' key")

    if cfg["columns"] is None:
        _refuse_column_keys(cfg)
        token_sets, labels = load_labeled_text(cfg["data"])
        vocab = build_vocabulary(token_sets, cfg["vocab_size"], cfg["min_frequency"])
        dataset = dataset_from_token_sets(token_sets, vocab, labels)
        pipeline = text_pipeline(vocab)
    else:
        dataset = load_csv(cfg["data"], _parse_columns(cfg),
                           label_column=cfg["label"], weight_column=cfg["weight"])
        pipeline = {"kind": "csv",
                    "features": [f.to_dict() for f in dataset.features],
                    "label": cfg["label"]}
    _require_examples(dataset, cfg["data"])
    _, forest = fit_method(dataset, method, pipeline, seed=cfg["seed"],
                           chain_seed=cfg["seed"], name_method=True)

    save_forest(forest, out / "model.json")
    if pipeline["kind"] == "text":
        _write(out / "vocabulary.json", json.dumps(pipeline["vocabulary"], indent=1) + "\n")
    _write(out / "metadata.json",
           json.dumps(_metadata(cfg, "train", started, ["model.json"]), indent=1) + "\n")
    print(f"model written to {out / 'model.json'} "
          f"({len(forest.trees)} trees, method {method.label})")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    started = time.time()
    out = _require_output(cfg)
    methods = _methods(cfg)
    if cfg["baseline"] is not None and cfg["baseline"] not in {m.label for m in methods}:
        raise ConfigError(
            f"baseline {cfg['baseline']!r} is not one of the evaluated methods")
    token_sets, labels = _load_corpus(cfg)
    reports = []
    model_dir = out / "models"
    model_dir.mkdir(exist_ok=True)
    for method in methods:
        report = cross_validate(
            token_sets, labels, method,
            folds=cfg["folds"], seed=cfg["seed"],
            vocab_size=cfg["vocab_size"], min_frequency=cfg["min_frequency"],
            keep_models=True)
        for k, forest in enumerate(report.models):
            save_forest(forest, model_dir / f"{_safe_label(method.label)}_fold{k}.json")
        report.models = []
        reports.append(report)
    _write(out / "report.csv", fold_csv(reports))
    _write(out / "summary.csv", summary_csv(reports, baseline=cfg["baseline"]))
    table = summary_table(reports)
    _write(out / "table.txt", table)
    _write(out / "metadata.json",
           json.dumps(_metadata(cfg, "evaluate", started,
                                ["report.csv", "summary.csv", "table.txt"]),
                      indent=1) + "\n")
    print(table, end="")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    started = time.time()
    out = _require_output(cfg)
    token_sets, labels = _load_corpus(cfg)
    methods = _methods(cfg)
    if len(methods) != 1:
        raise ConfigError("sweep expects exactly one method")
    # sampling_rate_sweep caps the vocabulary unless the config sets it
    sizes = {"vocab_size": cfg["vocab_size"]} if "vocab_size" in cfg.provided else {}
    rows = sampling_rate_sweep(
        token_sets, labels, methods[0], grid=cfg["grid"], folds=cfg["folds"],
        seed=cfg["seed"], min_frequency=cfg["min_frequency"], **sizes)
    lines = ["sampling_rate,mean_auc,std_auc"]
    for p, mean, std in rows:
        lines.append(f"{p!r},{mean!r},{std!r}")
    _write(out / "sweep.csv", "\n".join(lines) + "\n")
    _write(out / "metadata.json",
           json.dumps(_metadata(cfg, "sweep", started, ["sweep.csv"]), indent=1) + "\n")
    for p, mean, std in rows:
        print(f"p={p:<5} auc={mean:.4f} +/- {std:.4f}")
    return 0


def _model_reader(forest: DecisionForest):
    """The model's input reader, a function from a path or binary stream to
    the rows it scores: a CSV read against the schema of its
    ``metadata.pipeline``, or text lines by ``text_examples``, labels
    ignored; then its ``metadata.transform_chain``. Both are parsed and
    checked here (``ValueError``). A model without transforms scores its
    input as read, so the pipeline's schema must be the model's features; a
    transformed model keeps no such second copy."""
    pipeline = forest.metadata.get("pipeline")
    if not isinstance(pipeline, dict) or pipeline.get("kind") not in ("text", "csv"):
        raise ValueError("metadata.pipeline must be an object of kind 'text' or 'csv'")
    kind, chain = pipeline["kind"], forest.metadata.get("transform_chain")
    chain = None if chain is None else TransformChain.from_dict(chain)
    try:
        if kind == "text":
            vocabulary = Vocabulary.from_dict(pipeline["vocabulary"])
            schema = [Feature(f.name, FeatureType.CATEGORICAL_SET, vocabulary)
                      for f in forest.features[:1]]
        else:
            schema = [Feature.from_dict(f) for f in pipeline["features"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed metadata.pipeline: {exc!r}") from None
    if (chain is None or not chain.steps) and schema != forest.features:
        raise ValueError(f"metadata.pipeline does not read the model's "
                         f"{len(forest.features)} features as they were trained")

    def read(source) -> Dataset:
        if kind == "csv":
            dataset = load_csv_with_schema(source, schema)
        else:
            token_sets = [tokens for _, _, tokens in text_examples(source)]
            dataset = dataset_from_token_sets(
                token_sets, vocabulary, np.zeros(len(token_sets), dtype=np.int64))
        return dataset if chain is None else chain.transform(dataset)
    return read


def _load_model(path: str):
    """The model at ``path`` and its input reader (``_model_reader``), both
    checked once, on load: a malformed document raises ``DataError``."""
    try:
        forest = load_forest(path)
        return forest, _model_reader(forest)
    except (ValueError, KeyError) as exc:
        raise DataError(f"cannot load model {path}: {exc}") from exc
    except RecursionError:  # json's scanner on a document nested too deeply
        raise DataError(f"cannot load model {path}: nested too deeply") from None


def cmd_bench(cfg: RunConfig, model_path: str, data_path: str) -> int:
    started = time.time()
    out = _require_output(cfg)
    forest, read = _load_model(model_path)
    dataset = read(data_path)
    _require_examples(dataset, data_path)
    rows = dataset.rows()
    compiled = compile_forest(forest)
    label = forest.metadata.get("method", "model")
    results = benchmark_inference(label, forest, compiled, rows,
                                  runs=cfg["runs"], warmup=cfg["warmup"])
    lines = ["model,evaluator,us_per_example,examples,runs"]
    for r in results:
        lines.append(f"{r.model},{r.evaluator},{r.us_per_example!r},{r.examples},{r.runs}")
    _write(out / "bench.csv", "\n".join(lines) + "\n")
    _write(out / "metadata.json",
           json.dumps(_metadata(cfg, "bench", started, ["bench.csv"]), indent=1) + "\n")
    for r in results:
        print(f"{r.model:<30} {r.evaluator:<8} {r.us_per_example:10.3f} us/example")
    return 0


def cmd_predict(model_path: str, input_path: str | None) -> int:
    forest, read = _load_model(model_path)
    dataset = read(sys.stdin.buffer if input_path is None else input_path)
    try:
        scores = predict_dataset(compile_forest(forest), dataset).tolist()
    except ValueError as exc:  # the input's schema is not the model's
        raise DataError(f"cannot score with model {model_path}: {exc}") from exc
    for score in scores:
        print(repr(score))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="setforest",
                     description="decision forests over token-set features")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (wins)")

    for name in ("train", "evaluate", "sweep"):
        common(sub.add_parser(name))
    bench = sub.add_parser("bench")
    bench.add_argument("model")
    bench.add_argument("data")
    common(bench)
    pred = sub.add_parser("predict")
    pred.add_argument("model")
    pred.add_argument("input", nargs="?", default=None,
                      help="input rows; stdin when omitted")
    common(pred)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = parse_config(args.config, args.overrides)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "bench":
            return cmd_bench(cfg, args.model, args.data)
        return cmd_predict(args.model, args.input)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - invariant violations surface as code 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
