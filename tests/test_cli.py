import json

import numpy as np
import pytest

import setforest as sf
from setforest.cli import _KEYS, ConfigError, main, parse_config

from helpers import one_split_document


@pytest.fixture()
def corpus_path(tmp_path):
    tokens, labels = sf.planted_keyword_corpus(
        n=150, vocab_terms=40, signal_terms=4, seed=2)
    path = tmp_path / "corpus.tsv"
    sf.write_corpus_tsv(path, tokens, labels)
    return path


def _config(tmp_path, corpus_path, **extra):
    lines = {
        "data": str(corpus_path),
        "format": "tsv",
        "num_trees": 3,
        "max_depth": 4,
        "folds": 3,
        "seed": 5,
        "vocab_size": 40,
        "min_frequency": 1,
        "output": str(tmp_path / "out"),
    }
    lines.update(extra)
    path = tmp_path / "run.cfg"
    path.write_text("# test run\n" + "".join(f"{k} = {v}\n" for k, v in lines.items()),
                    encoding="utf-8")
    return path


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wat = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(str(path), [])

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n", encoding="utf-8")
        cfg = parse_config(str(path), ["seed=9"])
        assert cfg["seed"] == 9

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("num_trees = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="num_trees"):
            parse_config(str(path), [])

    def test_hash_stable(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nnum_trees = 2\n", encoding="utf-8")
        a = parse_config(str(path), []).config_hash()
        b = parse_config(str(path), []).config_hash()
        assert a == b


# one out-of-range value per checked key, with the command it was seen under
OUT_OF_RANGE = [
    ("train", "format", "parquet"),
    ("train", "algorithm", "xgb"),
    ("train", "num_trees", "0"),
    ("train", "max_depth", "-1"),
    ("train", "min_examples_per_leaf", "0"),
    ("train", "features_per_node", "0"),
    ("train", "sampling_rate", "0"),
    ("train", "sampling_rate", "nan"),
    ("train", "shrinkage", "1.5"),
    ("train", "validation_fraction", "1"),
    ("train", "patience", "0"),
    ("train", "maxhash_k", "0"),
    ("train", "maxhash_k", "-1"),
    ("train", "maxhash_treat", "bogus"),
    ("train", "targetmean_smoothing", "-1"),
    ("train", "targetmean_smoothing", "nan"),
    ("train", "targetmean_smoothing", "inf"),
    ("train", "vocab_size", "0"),
    ("train", "vocab_size", "-3"),
    ("train", "min_frequency", "0"),
    ("evaluate", "folds", "1"),
    ("sweep", "folds", "0"),
    ("sweep", "parameter", "depth"),
    ("sweep", "grid", "0"),
    ("sweep", "grid", "2"),
    ("sweep", "grid", ","),
    ("predict", "evaluator", "warp"),
    ("bench", "runs", "0"),
    ("bench", "runs", "-5"),
    ("bench", "warmup", "-1"),
]
# keys whose values have no range: free text, names checked where they are
# used (methods, transform steps), any integer seed, a boolean
UNCHECKED = {"data", "columns", "label", "weight", "methods", "transform",
             "compute_oob", "seed", "output", "baseline"}


class TestConfigRanges:
    def test_every_key_is_covered(self):
        assert {key for _, key, _ in OUT_OF_RANGE} | UNCHECKED == set(_KEYS)
        assert {key for key, (_, _, check) in _KEYS.items() if check is None} == UNCHECKED

    @pytest.mark.parametrize("command,key,value", OUT_OF_RANGE)
    def test_out_of_range_is_one(self, tmp_path, corpus_path, capsys, command, key, value):
        cfg = _config(tmp_path, corpus_path, transform="maxhash")
        positional = {"bench": ["model.json", str(corpus_path)],
                      "predict": ["model.json"]}.get(command, [])
        argv = [command, *positional, "--config", str(cfg), "--set", f"{key}={value}"]
        assert main(argv) == 1
        assert f"bad value for {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("validation_fraction", "0"), ("targetmean_smoothing", "0"), ("folds", "2"),
        ("grid", "1.0"), ("warmup", "0"), ("runs", "1"), ("patience", "none"),
        ("features_per_node", "all"), ("sampling_rate", "1"), ("seed", "-4"),
    ])
    def test_edge_values_accepted(self, key, value):
        parse_config(None, [f"{key}={value}"])

    def test_defaults_pass_their_checks(self):
        for key, (_, default, check) in _KEYS.items():
            if default is not None and check is not None:
                check(default)


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("wat = 1\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_is_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        cfg = _config(tmp_path, tmp_path / "missing.tsv")
        assert main(["evaluate", "--config", str(cfg)]) == 2

    def test_success_is_zero(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path)
        assert main(["evaluate", "--config", str(cfg)]) == 0

    def test_corrupt_model_is_two(self, tmp_path, corpus_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text('{"format": "other"}', encoding="utf-8")
        assert main(["predict", str(bad), str(corpus_path)]) == 2

    @pytest.mark.parametrize("split", [
        {"kind": "set_intersects", "feature": 0, "mask": [2, 0]},  # unsorted mask
        {"kind": "set_intersects", "feature": 5, "mask": [0]},  # past the schema
    ])
    def test_invalid_model_is_two(self, tmp_path, corpus_path, capsys, split):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(one_split_document(split)), encoding="utf-8")
        assert main(["predict", str(bad), str(corpus_path)]) == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_non_finite_leaf_is_two(self, tmp_path, corpus_path, capsys):
        document = one_split_document({"kind": "set_intersects", "feature": 0, "mask": [0]})
        document["trees"][0]["positive"]["leaf"] = float("nan")
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        assert main(["predict", str(bad), str(corpus_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0,inf,2.0", "0,1.0,0", "0,1.0,-2", "0,1.0,nan"])
    def test_bad_csv_number_or_weight_is_two(self, tmp_path, row, capsys):
        train = tmp_path / "train.csv"
        train.write_text("label,age,w\n1,1.0,1.0\n0,9.0,1.0\n" + row + "\n",
                         encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {train}\nformat = csv\ncolumns = age:numerical\n"
                       f"weight = w\nnum_trees = 2\noutput = {tmp_path / 'out'}\n",
                       encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert ":4:" in capsys.readouterr().err


class TestTrainPredict:
    def test_train_writes_artifacts(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "model.json").exists()
        assert (out / "vocabulary.json").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "train"
        assert "config_hash" in meta and "elapsed_seconds" in meta

    def test_predict_evaluators_agree(self, tmp_path, corpus_path, capsys):
        cfg = _config(tmp_path, corpus_path)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()  # drop the train banner
        model = str(tmp_path / "out" / "model.json")
        assert main(["predict", model, str(corpus_path)]) == 0
        qs_out = capsys.readouterr().out
        assert main(["predict", model, str(corpus_path),
                     "--set", "evaluator=topdown"]) == 0
        td_out = capsys.readouterr().out
        assert qs_out == td_out
        scores = [float(s) for s in qs_out.split()]
        assert len(scores) == 150
        assert all(0.0 <= s <= 1.0 for s in scores)

    @staticmethod
    def _mixed_csv_model(tmp_path):
        """A model trained on a CSV with a set, a numerical and a categorical
        column, every one of them with missing cells; returns (model, test)."""
        rng = np.random.default_rng(4)
        words = ["spam", "eggs", "ham", "toast", "tea"]
        lines = ["label,words,age,colour"]
        for i in range(120):
            label = i % 2
            terms = sorted({words[j] for j in rng.integers(0, 5, size=rng.integers(0, 3))}
                           | ({"spam"} if label and rng.random() < 0.7 else set()))
            cells = ["{" + " ".join(terms) + "}", f"{rng.normal(2.0 * label):.3f}",
                     rng.choice(["red", "blue", "green"])]
            if rng.random() < 0.3:
                cells[int(rng.integers(0, 3))] = ""  # missing
            lines.append(f"{label}," + ",".join(cells))
        train = tmp_path / "train.csv"
        train.write_text("\n".join(lines[:81]) + "\n", encoding="utf-8")
        test = tmp_path / "test.csv"
        test.write_text("\n".join(lines[:1] + lines[81:]) + "\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {train}\nformat = csv\n"
            "columns = words:set,age:numerical,colour:categorical\n"
            f"algorithm = mart\nnum_trees = 5\nmin_frequency = 1\n"
            f"output = {tmp_path / 'out'}\n",
            encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        return tmp_path / "out" / "model.json", test

    def test_predict_csv_with_missing_cells_evaluators_agree(self, tmp_path, capsys):
        model, test = self._mixed_csv_model(tmp_path)
        cells = [line.split(",") for line in test.read_text().splitlines()[1:]]
        assert all(any(row[c] == "" for row in cells) for c in (1, 2, 3))
        capsys.readouterr()
        assert main(["predict", str(model), str(test)]) == 0
        qs_out = capsys.readouterr().out
        assert main(["predict", str(model), str(test), "--set", "evaluator=topdown"]) == 0
        assert qs_out == capsys.readouterr().out
        assert len(qs_out.split()) == 40

    @pytest.mark.parametrize("evaluator", ["qs", "topdown"])
    def test_predict_input_schema_mismatch_is_two(self, tmp_path, capsys, evaluator):
        model, test = self._mixed_csv_model(tmp_path)
        document = json.loads(model.read_text())
        del document["metadata"]["pipeline"]["features"][2]  # the input loses a column
        model.write_text(json.dumps(document))
        assert main(["predict", str(model), str(test),
                     "--set", f"evaluator={evaluator}"]) == 2
        assert "3" in capsys.readouterr().err

    def test_predict_rejects_bad_evaluator(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path)
        main(["train", "--config", str(cfg)])
        model = str(tmp_path / "out" / "model.json")
        assert main(["predict", model, str(corpus_path),
                     "--set", "evaluator=warp"]) == 1

    def test_train_outputs_byte_deterministic(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path)
        assert main(["train", "--config", str(cfg),
                     "--set", f"output={tmp_path / 'a'}"]) == 0
        assert main(["train", "--config", str(cfg),
                     "--set", f"output={tmp_path / 'b'}"]) == 0
        assert ((tmp_path / "a" / "model.json").read_bytes()
                == (tmp_path / "b" / "model.json").read_bytes())
        assert ((tmp_path / "a" / "vocabulary.json").read_bytes()
                == (tmp_path / "b" / "vocabulary.json").read_bytes())

    def test_transformed_model_predicts_from_raw_text(self, tmp_path, corpus_path,
                                                      capsys):
        cfg = _config(tmp_path, corpus_path, transform="maxhash,targetmean",
                      maxhash_k=4)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        model = str(tmp_path / "out" / "model.json")
        assert main(["predict", model, str(corpus_path)]) == 0
        assert len(capsys.readouterr().out.split()) == 150


class TestEvaluate:
    def test_writes_reports_and_models(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path, methods="rf; rf:bow",
                      baseline="rf:bow")
        assert main(["evaluate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = (out / "report.csv").read_text().strip().split("\n")
        assert report[0] == "method,fold,auc"
        assert len(report) == 1 + 2 * 3  # two methods, three folds
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0].endswith("headroom_reduction")
        assert len(list((out / "models").glob("*.json"))) == 6

    def test_csv_train_and_predict(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text(
            "label,age,words\n"
            "1,1.0,{spam eggs}\n1,2.0,{spam}\n1,1.5,{spam ham}\n"
            "0,9.0,{ham}\n0,8.0,{eggs toast}\n0,7.5,{toast}\n",
            encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {train}\nformat = csv\ncolumns = age:numerical,words:set\n"
            f"num_trees = 2\nmax_depth = 3\nmin_frequency = 1\n"
            f"output = {tmp_path / 'out'}\n",
            encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        test = tmp_path / "test.csv"
        test.write_text("label,age,words\n1,1.2,{spam new}\n0,8.8,{toast}\n",
                        encoding="utf-8")
        model = str(tmp_path / "out" / "model.json")
        assert main(["predict", model, str(test), "--set", "format=csv"]) == 0


class TestSweep:
    def test_sweep_csv(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path, grid="0.5,1.0", folds=2)
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "sampling_rate,mean_auc,std_auc"
        assert len(lines) == 3
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.5, 1.0]

    def test_sweep_caps_vocabulary_by_default(self, tmp_path, corpus_path,
                                              monkeypatch):
        seen = {}
        from setforest import cli as cli_module

        def spy(tokens, labels, method, grid, folds, seed, vocab_size,
                min_frequency):
            seen["vocab_size"] = vocab_size
            return [(p, 0.5, 0.0) for p in grid]

        monkeypatch.setattr(cli_module, "sampling_rate_sweep", spy)
        cfg = _config(tmp_path, corpus_path, grid="1.0")
        cfg_text = cfg.read_text().replace("vocab_size = 40\n", "")
        cfg.write_text(cfg_text, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert seen["vocab_size"] == 2000

    def test_rejects_other_parameters(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path, parameter="depth")
        assert main(["sweep", "--config", str(cfg)]) == 1


class TestBench:
    def test_bench_csv(self, tmp_path, corpus_path):
        cfg = _config(tmp_path, corpus_path)
        main(["train", "--config", str(cfg)])
        model = str(tmp_path / "out" / "model.json")
        bench_cfg = _config(tmp_path, corpus_path,
                            output=str(tmp_path / "bench"))
        assert main(["bench", model, str(corpus_path), "--config",
                     str(bench_cfg), "--set", "runs=2", "--set", "warmup=1"]) == 0
        lines = (tmp_path / "bench" / "bench.csv").read_text().strip().split("\n")
        assert lines[0] == "model,evaluator,us_per_example,examples,runs"
        assert len(lines) == 3
        assert {l.split(",")[1] for l in lines[1:]} == {"qs", "topdown"}


class TestTooSmallInput:
    """An input with too few examples for the command is a data error (exit 2)."""

    @pytest.mark.parametrize("name,text,extra", [
        ("empty.tsv", "", {}),
        ("header.csv", "label,age\n", {"format": "csv", "columns": "age:numerical"}),
    ], ids=["empty_tsv", "header_only_csv"])
    def test_train_without_examples(self, tmp_path, capsys, name, text, extra):
        data = tmp_path / name
        data.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(_config(tmp_path, data, **extra))]) == 2
        assert f"{name}: no examples" in capsys.readouterr().err

    def test_bench_without_examples(self, tmp_path, corpus_path, capsys):
        cfg = _config(tmp_path, corpus_path)
        assert main(["train", "--config", str(cfg)]) == 0
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        model = str(tmp_path / "out" / "model.json")
        assert main(["bench", model, str(empty), "--config", str(cfg)]) == 2
        assert "empty.tsv: no examples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_more_folds_than_examples(self, tmp_path, capsys, command):
        tokens, labels = sf.planted_keyword_corpus(
            n=60, vocab_terms=40, signal_terms=4, seed=2)
        path = tmp_path / "small.tsv"
        sf.write_corpus_tsv(path, tokens, labels)
        cfg = _config(tmp_path, path, folds=100, grid="1.0")
        assert main([command, "--config", str(cfg)]) == 2
        assert "60 examples, fewer than folds = 100" in capsys.readouterr().err

    def test_evaluate_single_class_fold(self, tmp_path, capsys):
        path = tmp_path / "five.tsv"
        path.write_text("1\ta b\n0\ta c\n0\tb c\n0\ta\n0\tb\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(_config(tmp_path, path, folds=2))]) == 2
        assert "single-class" in capsys.readouterr().err
