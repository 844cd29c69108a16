import io
import json
import sys

import numpy as np
import pytest

import setforest as sf
from setforest.cli import _KEYS, ConfigError, main, parse_config
from setforest.model import MAX_TREE_DEPTH

from helpers import COLUMN_FAULTS, forest_to_dict, forest_to_v2_json, one_split_document


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
    ("train", "num_trees", "0"),
    ("train", "max_depth", "-1"),
    ("train", "max_depth", "513"),
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
    ("sweep", "grid", "0"),
    ("sweep", "grid", "2"),
    ("sweep", "grid", ","),
    ("bench", "runs", "0"),
    ("bench", "runs", "-5"),
    ("bench", "warmup", "-1"),
]
# keys whose values have no range: free text, names checked where they are
# used (methods and their transform steps), any integer seed, a boolean
UNCHECKED = {"data", "columns", "label", "weight", "methods",
             "compute_oob", "seed", "output", "baseline"}
# keys that were second spellings of methods and columns, or chose predict's
# second evaluator, with a value each once took or refused; an unknown key is
# refused before any command runs
DELETED = [("format", "csv"), ("algorithm", "mart"), ("transform", "maxhash"),
           ("evaluator", "warp")]


class TestConfigRanges:
    def test_every_key_is_covered(self):
        assert {key for _, key, _ in OUT_OF_RANGE} | UNCHECKED == set(_KEYS)
        assert {key for key, (_, _, check) in _KEYS.items() if check is None} == UNCHECKED

    @pytest.mark.parametrize("command,key,value", OUT_OF_RANGE)
    def test_out_of_range_is_one(self, tmp_path, corpus_path, capsys, command, key, value):
        cfg = _config(tmp_path, corpus_path, methods="rf:maxhash")
        positional = {"bench": ["model.json", str(corpus_path)],
                      "predict": ["model.json"]}.get(command, [])
        argv = [command, *positional, "--config", str(cfg), "--set", f"{key}={value}"]
        assert main(argv) == 1
        assert f"bad value for {key}" in capsys.readouterr().err

    def test_key_count(self):
        assert len(_KEYS) == 26

    @pytest.mark.parametrize("key,value", DELETED)
    def test_deleted_key_is_unknown(self, tmp_path, corpus_path, capsys, key, value):
        cfg = _config(tmp_path, corpus_path, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_columns_refused_by_cross_validation(self, tmp_path, corpus_path, capsys,
                                                 command):
        cfg = _config(tmp_path, corpus_path, columns="age:numerical", grid="1.0")
        assert main([command, "--config", str(cfg)]) == 1
        assert "'columns' marks a CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    @pytest.mark.parametrize("key,value", [("weight", "nonexistent"), ("label", "other"),
                                           ("label", "label")])
    def test_column_keys_refused_on_text_lines(self, tmp_path, corpus_path, capsys,
                                               command, key, value):
        # a text line carries its label first and no weight, so the keys that
        # name CSV columns are refused, not ignored, even at their default
        cfg = _config(tmp_path, corpus_path, grid="1.0")
        assert main([command, "--config", str(cfg), "--set", f"{key}={value}"]) == 1
        assert f"'{key}' names a CSV column" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.json").exists()
        assert main([command, "--config", str(cfg)]) == 0

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
        cfg.write_text(f"data = {train}\ncolumns = age:numerical\n"
                       f"weight = w\nnum_trees = 2\noutput = {tmp_path / 'out'}\n",
                       encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert ":4:" in capsys.readouterr().err


def _top_down_lines(forest, rows):
    """What ``predict`` prints for ``rows``, scored by the library's
    top-down reference evaluator."""
    return "".join(f"{sf.predict_top_down(forest, row)!r}\n" for row in rows)


def _chain_tree(depth, leaf=0.5):
    """A tree whose positive branches nest ``depth`` splits deep."""
    node = {"leaf": leaf}
    for _ in range(depth):
        node = {"split": {"kind": "set_intersects", "feature": 0, "mask": [0]},
                "negative": {"leaf": 0.1}, "positive": node}
    return node


def _cut_vocabulary(meta):
    meta["pipeline"]["vocabulary"] = {
        key: values[:5] for key, values in meta["pipeline"]["vocabulary"].items()}


class TestModelOnLoad:
    """``predict`` and ``bench`` check the whole model document once, on
    load: a malformed ingest pipeline, a pipeline that disagrees with the
    model, or a tree or document nested too deeply is a data error (exit 2)."""

    @pytest.fixture()
    def trained(self, tmp_path, corpus_path, capsys):
        assert main(["train", "--config", str(_config(tmp_path, corpus_path))]) == 0
        capsys.readouterr()
        model = tmp_path / "out" / "model.json"
        return model, json.loads(model.read_text())

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.update(metadata=[]),
        lambda doc: doc["metadata"]["pipeline"].pop("vocabulary"),
        lambda doc: doc["metadata"].pop("pipeline"),
        lambda doc: doc["metadata"].update(transform_chain=[1]),
        lambda doc: doc["metadata"]["pipeline"]["vocabulary"].update(terms=7),
        lambda doc: doc["metadata"].update(transform_chain={"steps": [{"k": 3}]}),
        lambda doc: doc["metadata"]["pipeline"].update(kind="csv"),
        lambda doc: _cut_vocabulary(doc["metadata"]),
    ], ids=["metadata_list", "no_vocabulary", "no_pipeline", "chain_list", "terms_int",
            "step_without_name", "csv_without_features", "vocabulary_cut_to_5"])
    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_bad_pipeline_is_two(self, trained, corpus_path, tmp_path, capsys, corrupt,
                                 command):
        model, document = trained
        corrupt(document)
        model.write_text(json.dumps(document), encoding="utf-8")
        argv = [command, str(model), str(corpus_path)]
        if command == "bench":
            argv += ["--set", f"output={tmp_path / 'bench'}"]
        assert main(argv) == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_tree_deeper_than_the_bound_is_two(self, tmp_path, corpus_path, capsys):
        document = one_split_document({"kind": "set_intersects", "feature": 0, "mask": [0]})
        document["features"] = text = document["features"][:1]
        document["metadata"] = {"pipeline": {"kind": "text", "vocabulary": text[0]["vocabulary"]}}
        model = tmp_path / "model.json"
        for depth, code in ((MAX_TREE_DEPTH, 0), (MAX_TREE_DEPTH + 1, 2)):
            document["trees"] = [_chain_tree(depth)]
            model.write_text(json.dumps(document), encoding="utf-8")
            assert main(["predict", str(model), str(corpus_path)]) == code
        assert f"deeper than {MAX_TREE_DEPTH}" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [["setforest-model"], "setforest-model"],
                             ids=["array", "string"])
    def test_document_not_an_object_is_two(self, tmp_path, corpus_path, capsys, document):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(document), encoding="utf-8")
        assert main(["predict", str(model), str(corpus_path)]) == 2
        assert "not a setforest model document" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, False, "0.25"])
    @pytest.mark.parametrize("where", ["leaf", "threshold", "initial_score"])
    def test_number_of_another_json_type_is_two(self, tmp_path, capsys, where, value):
        # a version 1 document, whose numbers are JSON numbers
        model, test = TestTrainPredict._mixed_csv_model(tmp_path)
        document = forest_to_dict(sf.load_forest(model))
        if where == "initial_score":
            document["initial_score"] = value
        else:  # the first such field in the first tree that has one
            nodes = list(reversed(document["trees"]))
            while not (where in nodes[-1] or where in nodes[-1].get("split", {})):
                node = nodes.pop()
                nodes += [node["positive"], node["negative"]] if "split" in node else []
            node = nodes[-1]
            (node if where == "leaf" else node["split"])[where] = value
        model.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", str(model), str(test)]) == 2
        assert "must be finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["features", "pipeline"])
    def test_feature_name_not_a_string_is_two(self, tmp_path, capsys, where):
        # it loaded, and predict printed every score with exit 0
        model, test = TestTrainPredict._mixed_csv_model(tmp_path)
        document = json.loads(model.read_text())
        owner = document if where == "features" else document["metadata"]["pipeline"]
        owner["features"][1]["name"] = 5
        model.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", str(model), str(test)]) == 2
        err = capsys.readouterr().err
        assert "cannot load model" in err and "feature name must be a string" in err

    def test_models_that_evaluate_saves_can_be_scored(self, tmp_path, corpus_path, capsys):
        cfg = _config(tmp_path, corpus_path, methods="rf; rf:bow")
        assert main(["evaluate", "--config", str(cfg)]) == 0
        for name in ("rf_fold0.json", "rf_bow_fold0.json"):
            capsys.readouterr()
            model = tmp_path / "out" / "models" / name
            assert main(["predict", str(model), str(corpus_path)]) == 0
            assert len(capsys.readouterr().out.split()) == 150

    @pytest.mark.parametrize("fault", ["repeated_key", "trailing", "cut", "bom"])
    def test_malformed_model_text_is_two(self, trained, corpus_path, capsys, fault):
        # a repeated key is refused: json.loads alone keeps its last copy
        model, _ = trained
        text = model.read_text(encoding="utf-8")
        text = {"repeated_key": text[:-3] + ',\n "kind": "rf"\n}\n', "trailing": text + "{}",
                "cut": text[:len(text) // 2], "bom": "﻿" + text}[fault]
        model.write_text(text, encoding="utf-8")
        assert main(["predict", str(model), str(corpus_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot load model" in err
        assert fault != "repeated_key" or "repeats the key 'kind'" in err

    @pytest.mark.parametrize("fault", list(COLUMN_FAULTS))
    def test_malformed_column_is_two(self, trained, corpus_path, capsys, fault):
        model, document = trained
        assert document["version"] == 3
        COLUMN_FAULTS[fault][0](document["trees"])
        model.write_text(json.dumps(document, indent=1), encoding="utf-8")
        assert main(["predict", str(model), str(corpus_path)]) == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_version_1_model_scores_the_same(self, trained, corpus_path, capsys):
        model, _ = trained
        assert main(["predict", str(model), str(corpus_path)]) == 0
        scores = capsys.readouterr().out
        model.write_text(json.dumps(forest_to_dict(sf.load_forest(model)), indent=1),
                         encoding="utf-8")
        assert main(["predict", str(model), str(corpus_path)]) == 0
        assert capsys.readouterr().out == scores

    def test_version_2_model_scores_the_same(self, trained, corpus_path, capsys):
        model, _ = trained
        assert main(["predict", str(model), str(corpus_path)]) == 0
        scores = capsys.readouterr().out
        model.write_text(forest_to_v2_json(sf.load_forest(model)), encoding="utf-8")
        assert main(["predict", str(model), str(corpus_path)]) == 0
        assert capsys.readouterr().out == scores

    def test_document_nested_too_deeply_is_two(self, tmp_path, corpus_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"format": "setforest-model", "trees": ' + "[" * 5000
                         + "]" * 5000 + "}", encoding="utf-8")
        assert main(["predict", str(model), str(corpus_path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err


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
        forest = sf.load_forest(model)
        token_sets, labels = sf.load_labeled_text(corpus_path)
        rows = sf.dataset_from_token_sets(
            token_sets, forest.features[0].vocabulary, labels).rows()
        assert qs_out == _top_down_lines(forest, rows)
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
            f"data = {train}\n"
            "columns = words:set,age:numerical,colour:categorical\n"
            f"methods = mart\nnum_trees = 5\nmin_frequency = 1\n"
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
        forest = sf.load_forest(model)
        rows = sf.load_csv_with_schema(test, forest.features, "label").rows()
        assert qs_out == _top_down_lines(forest, rows)
        assert len(qs_out.split()) == 40

    def test_predict_rejects_bad_evaluator(self, tmp_path, corpus_path, capsys):
        # predict has one evaluator: the key that chose the other is gone
        cfg = _config(tmp_path, corpus_path)
        main(["train", "--config", str(cfg)])
        model = str(tmp_path / "out" / "model.json")
        capsys.readouterr()
        assert main(["predict", model, str(corpus_path),
                     "--set", "evaluator=topdown"]) == 1
        assert "unknown config key 'evaluator'" in capsys.readouterr().err

    @pytest.mark.parametrize("evaluator", ["qs", "topdown"])
    def test_predict_input_schema_mismatch_is_two(self, tmp_path, capsys, evaluator):
        model, test = self._mixed_csv_model(tmp_path)
        document = json.loads(model.read_text())
        del document["metadata"]["pipeline"]["features"][2]  # the input loses a column
        model.write_text(json.dumps(document))
        if evaluator == "qs":  # what predict scores with
            assert main(["predict", str(model), str(test)]) == 2
            assert "3" in capsys.readouterr().err
        else:  # the library reference refuses the same rows (predict's exit 2)
            forest = sf.load_forest(model)
            features = [sf.Feature.from_dict(f)
                        for f in document["metadata"]["pipeline"]["features"]]
            rows = sf.load_csv_with_schema(test, features, "label").rows()
            with pytest.raises(ValueError, match="schema has 3"):
                sf.predict_top_down(forest, rows[0])

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
        cfg = _config(tmp_path, corpus_path, methods="rf:maxhash+targetmean",
                      maxhash_k=4)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        model = str(tmp_path / "out" / "model.json")
        assert main(["predict", model, str(corpus_path)]) == 0
        assert len(capsys.readouterr().out.split()) == 150

    def test_edited_maxhash_seeds_are_two(self, tmp_path, corpus_path, capsys):
        cfg = _config(tmp_path, corpus_path, methods="rf:maxhash", maxhash_k=4)
        assert main(["train", "--config", str(cfg)]) == 0
        model = tmp_path / "out" / "model.json"
        document = json.loads(model.read_text())
        document["metadata"]["transform_chain"]["steps"][0]["seeds"][1] += 1
        model.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", str(model), str(corpus_path)]) == 2
        assert "max-hash seeds differ" in capsys.readouterr().err


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
            f"data = {train}\ncolumns = age:numerical,words:set\n"
            f"num_trees = 2\nmax_depth = 3\nmin_frequency = 1\n"
            f"output = {tmp_path / 'out'}\n",
            encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        model = tmp_path / "out" / "model.json"
        pipeline = json.loads(model.read_text())["metadata"]["pipeline"]
        assert pipeline["kind"] == "csv"
        assert [f["name"] for f in pipeline["features"]] == ["age", "words"]
        test = tmp_path / "test.csv"
        test.write_text("label,age,words\n1,1.2,{spam new}\n0,8.8,{toast}\n",
                        encoding="utf-8")
        assert main(["predict", str(model), str(test)]) == 0

    def test_repeated_header_column_is_two(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("label,x,x\n1,1.0,5.0\n0,2.0,6.0\n", encoding="utf-8")
        cfg = _config(tmp_path, train, columns="x:numerical")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "column 'x' repeated in header" in capsys.readouterr().err


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
        seen = []
        from setforest import evaluation

        def spy(*args, vocab_size, **kwargs):
            seen.append(vocab_size)
            return cross_validate(*args, vocab_size=vocab_size, **kwargs)

        cross_validate = evaluation.cross_validate
        monkeypatch.setattr(evaluation, "cross_validate", spy)
        cfg = _config(tmp_path, corpus_path, grid="1.0", folds=2)
        cfg_text = cfg.read_text().replace("vocab_size = 40\n", "")
        cfg.write_text(cfg_text, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert main(["sweep", "--config", str(cfg), "--set", "vocab_size=30"]) == 0
        assert seen == [2000, 30]

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
        ("header.csv", "label,age\n", {"columns": "age:numerical"}),
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

    def test_mart_holdout_takes_every_example(self, tmp_path, capsys):
        path = tmp_path / "two.tsv"
        path.write_text("1\ta b\n0\ta c\n", encoding="utf-8")
        cfg = _config(tmp_path, path, methods="mart", validation_fraction=0.9)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "validation holdout leaves no training examples" in capsys.readouterr().err

    def test_evaluate_single_class_fold(self, tmp_path, capsys):
        path = tmp_path / "five.tsv"
        path.write_text("1\ta b\n0\ta c\n0\tb c\n0\ta\n0\tb\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(_config(tmp_path, path, folds=2))]) == 2
        assert "single-class" in capsys.readouterr().err


def _stdin(monkeypatch, data: bytes):
    """Make ``data`` the process's stdin, named as the real one is."""
    buffer = io.BytesIO(data)
    buffer.name = "<stdin>"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(buffer))


class TestInputReaders:
    """Every command reads a format through one reader: text lines through
    ``text_examples``, CSV cells through one parser and one encoder. The
    model's pipeline alone chooses the reader of ``predict`` and ``bench``."""

    @pytest.fixture()
    def text_model(self, tmp_path, corpus_path):
        assert main(["train", "--config", str(_config(tmp_path, corpus_path))]) == 0
        return str(tmp_path / "out" / "model.json")

    @staticmethod
    def _predict(capsys, *argv):
        capsys.readouterr()
        code = main(["predict", *map(str, argv)])
        return code, capsys.readouterr().out

    # labeled, blank, whitespace-only, CRLF, unlabeled, a lone "1" (text, not
    # a label), a labeled empty text and a last line without a line end
    MIXED = (b"1\tspam eggs w1\n\n \t  \n0\tham toast\r\nspam toast\n\r\n1\n1\t\n"
             b"0\teggs w2")
    EXAMPLES = b"1\tspam eggs w1\n0\tham toast\nspam toast\n1\n1\t\n0\teggs w2\n"

    def test_commands_agree_on_example_lines(self, tmp_path, corpus_path, text_model,
                                             capsys, monkeypatch):
        mixed, plain = tmp_path / "mixed.tsv", tmp_path / "plain.tsv"
        mixed.write_bytes(self.MIXED)
        plain.write_bytes(self.EXAMPLES)
        code, scores = self._predict(capsys, text_model, mixed)
        assert code == 0 and len(scores.split()) == 6
        assert self._predict(capsys, text_model, plain) == (0, scores)
        _stdin(monkeypatch, self.MIXED)
        assert self._predict(capsys, text_model) == (0, scores)
        bench_cfg = _config(tmp_path, corpus_path, output=str(tmp_path / "bench"))
        assert main(["bench", text_model, str(mixed), "--config", str(bench_cfg),
                     "--set", "runs=1", "--set", "warmup=0"]) == 0
        rows = (tmp_path / "bench" / "bench.csv").read_text().splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == {"6"}
        # train reads the same lines and needs every one labeled: line 5 has no label
        capsys.readouterr()
        assert main(["train", "--config", str(_config(tmp_path, mixed))]) == 2
        assert "mixed.tsv:5:" in capsys.readouterr().err
        from setforest import evaluation
        seen, train = [], evaluation.train
        monkeypatch.setattr(evaluation, "train",
                            lambda ds, config: seen.append(ds.n_examples) or train(ds, config))
        labeled = tmp_path / "labeled.tsv"
        labeled.write_bytes(self.MIXED.replace(b"spam toast\n", b"").replace(b"\r\n1\n", b"\r\n"))
        assert main(["train", "--config", str(_config(tmp_path, labeled))]) == 0
        assert seen == [4]
        assert len(self._predict(capsys, text_model, labeled)[1].split()) == 4

    def test_format_key_does_not_choose_the_reader(self, tmp_path, text_model, capsys):
        unlabeled = tmp_path / "unlabeled.txt"
        unlabeled.write_text("spam eggs\nham\n", encoding="utf-8")
        code, scores = self._predict(capsys, text_model, unlabeled)
        assert code == 0 and len(scores.split()) == 2
        assert main(["predict", text_model, str(unlabeled), "--set", "format=csv"]) == 1
        assert "unknown config key 'format'" in capsys.readouterr().err

    def test_predict_reads_csv_from_stdin(self, tmp_path, capsys, monkeypatch):
        model, test = TestTrainPredict._mixed_csv_model(tmp_path)
        code, scores = self._predict(capsys, model, test)
        assert code == 0 and len(scores.split()) == 40
        _stdin(monkeypatch, test.read_bytes())
        assert self._predict(capsys, model) == (0, scores)

    def test_set_column_with_empty_vocabulary_predicts(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("label,words,age\n1,{},1.0\n0,,2.0\n1,{},1.5\n0,{},3.0\n",
                         encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {train}\ncolumns = words:set,age:numerical\n"
                       f"num_trees = 2\nmin_frequency = 1\noutput = {tmp_path / 'out'}\n",
                       encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        code, scores = self._predict(capsys, tmp_path / "out" / "model.json", train)
        assert code == 0 and len(scores.split()) == 4

    def test_byte_order_mark_reads_as_without(self, tmp_path, corpus_path, text_model,
                                              capsys, monkeypatch):
        # the mark once joined the first line's label or first token
        bom = b"\xef\xbb\xbf"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_bytes(b"key0 key1\n" + self.EXAMPLES)
        marked.write_bytes(bom + plain.read_bytes().replace(b"\n", b"\r\n"))
        code, scores = self._predict(capsys, text_model, plain)
        assert code == 0 and len(scores.split()) == 7
        assert self._predict(capsys, text_model, marked) == (0, scores)
        _stdin(monkeypatch, marked.read_bytes())
        assert self._predict(capsys, text_model) == (0, scores)
        marked_corpus = tmp_path / "marked_corpus.tsv"
        marked_corpus.write_bytes(bom + corpus_path.read_bytes())
        cfg = _config(tmp_path, marked_corpus, output=str(tmp_path / "marked_out"))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "marked_out" / "model.json").read_bytes() \
            == (tmp_path / "out" / "model.json").read_bytes()
        model, test = TestTrainPredict._mixed_csv_model(tmp_path)
        code, csv_scores = self._predict(capsys, model, test)
        marked_csv = tmp_path / "marked.csv"
        marked_csv.write_bytes(bom + test.read_bytes())
        assert code == 0 and self._predict(capsys, model, marked_csv) == (0, csv_scores)
        assert main(["predict", str(model), str(marked_csv), "--set", "label=label"]) == 0

    BAD_TSV = b"1\tspam eggs\n0\tham \xff toast\n"

    def test_non_utf8_text_to_train_is_two(self, tmp_path, capsys):
        data = tmp_path / "bad.tsv"
        data.write_bytes(self.BAD_TSV)
        assert main(["train", "--config", str(_config(tmp_path, data))]) == 2
        assert "bad.tsv:2: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_text_to_predict_is_two(self, tmp_path, text_model, capsys):
        data = tmp_path / "bad.tsv"
        data.write_bytes(self.BAD_TSV)
        assert main(["predict", text_model, str(data)]) == 2
        assert "bad.tsv:2: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_stdin_to_predict_is_two(self, text_model, capsys, monkeypatch):
        _stdin(monkeypatch, self.BAD_TSV)
        assert main(["predict", text_model]) == 2
        assert "<stdin>:2: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_csv_set_cell_to_train_is_two(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"label,words\n1,{spam eggs}\n0,{ham}\n1,{spam \xff}\n")
        cfg = _config(tmp_path, data, columns="words:set")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "bad.csv:4: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_is_one(self, tmp_path, corpus_path, capsys):
        cfg = _config(tmp_path, corpus_path)
        cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "run.cfg:" in capsys.readouterr().err
