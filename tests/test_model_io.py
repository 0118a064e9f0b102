"""Model serialization format and the command-line interface."""

import json
import re

import numpy as np
import pytest

from gplvmf import (
    ContextVariable,
    DataError,
    SyntheticSpec,
    TrainConfig,
    load_model,
    load_table,
    save_model,
    synthesize,
    train_model,
)
from gplvmf.cli import main as cli_main
from gplvmf.config import read_config


def small_model(tmp_path, method="sgd", rating_scale=(1.0, 5.0)):
    ctxs = (ContextVariable("mood", "categorical", 3), ContextVariable("price", "real"))
    spec = SyntheticSpec(user_count=8, item_count=6, contexts=ctxs, ratings_per_user=10,
                         context_alphas=(1.0, 0.5), user_bias_mean=3.0, seed=2)
    table, _ = synthesize(spec)
    cfg = TrainConfig(method=method, inducing_count=4, item_dim=2, context_dim=2,
                      seed=0, epochs=8, learning_rate=0.02)
    return train_model(table, cfg, rating_scale=rating_scale)


class TestSerialization:
    def test_round_trip_predictions_identical(self, tmp_path):
        model = small_model(tmp_path)
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path)
        p1 = model.predictor().predict(2, 3, (1, 0.7))
        p2 = again.predictor().predict(2, 3, (1, 0.7))
        assert p1.mean == pytest.approx(p2.mean, rel=1e-15)
        assert p1.variance == pytest.approx(p2.variance, rel=1e-15)
        assert again.rating_scale == (1.0, 5.0)
        assert again.config.inducing_count == 4

    def test_a_path_without_suffix_is_the_file_written(self, tmp_path):
        # np.savez given a bare path would write "model.npz" instead
        model = small_model(tmp_path)
        path = tmp_path / "model"
        save_model(model, path)
        assert sorted(tmp_path.iterdir()) == [path]
        again = load_model(path)
        assert again.predictor().predict(2, 3, (1, 0.7)) == model.predictor().predict(2, 3, (1, 0.7))

    def test_format_versioned(self, tmp_path, capsys):
        model = small_model(tmp_path)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data.items())
        meta = json.loads(str(arrays["meta"]))
        assert meta["format"] == "gplvmf.model/1"
        # tampering with the version or with the stored config must be rejected
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n", encoding="utf-8")
        tampered = [
            ({"format": "gplvmf.model/999"}, "unsupported model format"),
            ({"config": {**meta["config"], "epoch": 3}}, "unknown key 'epoch'"),
            ({"config": {**meta["config"], "use_mean": "false"}}, "use_mean must be true or false, got 'false'"),
            ({"rating_scale": [5.0, 1.0]}, "rating_scale stored in .* hi must be >= 5.0, got 1.0"),
            ({"rating_scale": [1.0]}, "rating_scale stored in .* must be two numbers"),
            ({"rating_scale": [1.0, float("nan")]}, "rating_scale stored in .* hi must be a finite number"),
        ]
        for change, message in tampered:
            arrays["meta"] = json.dumps({**meta, **change})
            bad = tmp_path / "bad.npz"
            np.savez(bad, **arrays)
            with pytest.raises(ValueError, match=message):
                load_model(bad)
            assert cli_main(["predict", "--model", str(bad), "--queries", str(queries)]) == 2
            assert re.search(message, capsys.readouterr().err)

    def test_bad_meta_is_rejected_naming_the_file_and_the_key(self, tmp_path, capsys):
        # a meta that is not a JSON object, or lacks a key that load_model
        # reads, is a ValueError naming the file and the key, and predict
        # exits 2 on it; unknown keys stay accepted
        model = small_model(tmp_path)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data.items())
        meta = json.loads(str(arrays["meta"]))
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n", encoding="utf-8")
        bad = tmp_path / "bad.npz"
        cases = [(list(meta), "must be a JSON object")]
        cases += [({k: v for k, v in meta.items() if k != key}, f"missing key {key!r}")
                  for key in ("format", "schema", "config", "rating_scale")]
        for changed, message in cases:
            arrays["meta"] = json.dumps(changed)
            np.savez(bad, **arrays)
            where = re.escape(f"the meta stored in {bad}")
            with pytest.raises(ValueError, match=f"{re.escape(message)}.*{where}|{where}.*{re.escape(message)}"):
                load_model(bad)
            assert cli_main(["predict", "--model", str(bad), "--queries", str(queries)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and str(bad) in err

    @pytest.mark.parametrize(
        "name, row, value, message",
        [
            ("table_items", 4, 6, "row 4: item index 6 out of range [0, 6)"),
            ("table_users", 0, -1, "row 0: user index -1 out of range [0, 8)"),
            ("table_cat", 7, 3, "row 7: context 'mood' code 3 out of range [0, 3)"),
            ("table_ratings", 2, np.inf, "row 2: rating inf is not finite"),
        ],
        ids=["item", "user", "category", "rating"],
    )
    def test_tampered_table_arrays_are_rejected(self, tmp_path, capsys, name, row, value, message):
        # a file's table is checked as any other table: an out-of-range code
        # would otherwise train the trailing prior row or another user's entries
        model = small_model(tmp_path)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data.items())
        arrays[name][row] = value
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(bad)
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n", encoding="utf-8")
        assert cli_main(["predict", "--model", str(bad), "--queries", str(queries)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["item_mean", "z", "log_alpha", "log_sigma2"])
    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_state_arrays_of_another_shape_are_rejected(self, tmp_path, capsys, name, change):
        # the schema and config give every state array's shape: a table a row
        # short would otherwise shift every gather, and an extra z row add an
        # inducing point that the config does not count
        model = small_model(tmp_path)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data.items())
        expected = arrays[name].shape
        arrays[name] = np.resize(arrays[name], (expected[0] + change, *expected[1:]))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        message = f"{name} has shape {arrays[name].shape}, expected {expected}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(bad)
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n", encoding="utf-8")
        assert cli_main(["predict", "--model", str(bad), "--queries", str(queries)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "drop, add, message",
        [
            (["z"], [], "lacks 'z'"),
            (["bias_user", "table_ratings"], [], "lacks 'bias_user', 'table_ratings'"),
            ([], ["z_typo"], "has unexpected arrays 'z_typo'"),
            (["z"], ["z_typo"], "lacks 'z' and has unexpected arrays 'z_typo'"),
            (["meta"], [], "lacks 'meta'"),
        ],
        ids=["missing", "two_missing", "extra", "renamed", "no_meta"],
    )
    def test_missing_or_extra_arrays_are_rejected(self, tmp_path, capsys, drop, add, message):
        # a file without z would fail with a bare KeyError, and one with an
        # extra array (a misspelt z) would load without a word
        model = small_model(tmp_path)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data.items())
        arrays.update({name: arrays["z"] for name in add})
        for name in drop:
            del arrays[name]
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        message = f"model file {bad} {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(bad)
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n", encoding="utf-8")
        assert cli_main(["predict", "--model", str(bad), "--queries", str(queries)]) == 2
        assert message in capsys.readouterr().err

    def test_files_with_the_old_meta_keys_still_load(self, tmp_path):
        model = small_model(tmp_path)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data.items())
        meta = json.loads(str(arrays["meta"]))
        assert "n_categorical" not in meta and "use_mean" not in meta
        arrays["meta"] = json.dumps({**meta, "n_categorical": 1, "use_mean": True})
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        again = load_model(old)
        assert np.array_equal(again.state.to_vector(), model.state.to_vector())
        query = (2, 3, (1, 0.7))
        assert again.predictor().predict(*query).mean == model.predictor().predict(*query).mean


def write_config(tmp_path):
    cfg = {
        "seed": 0,
        "rating_scale": [1, 5],
        "schema": {
            "user_count": 8,
            "item_count": 6,
            "contexts": [
                {"name": "mood", "kind": "categorical", "cardinality": 3},
                {"name": "price", "kind": "real"},
            ],
        },
        "model": {"inducing_count": 4, "item_dim": 2, "context_dim": 2},
        "train": {"method": "sgd", "epochs": 8, "learning_rate": 0.02},
        "synthetic": {"ratings_per_user": 10, "context_alphas": [1.0, 0.5], "user_bias_mean": 3.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestCli:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = tmp_path / "data.csv"
        model = tmp_path / "model.npz"
        trace = tmp_path / "trace.csv"

        assert cli_main(["synthesize", "--config", str(cfg), "--out", str(data)]) == 0
        header = data.read_text().splitlines()[0]
        assert header == "user,item,mood,price,rating"

        assert cli_main([
            "train", "--config", str(cfg), "--data", str(data),
            "--out", str(model), "--trace", str(trace),
        ]) == 0
        assert model.exists()
        assert trace.read_text().splitlines()[0] == "step,bound_estimate,val_mae,val_rmse,seconds"

        queries = tmp_path / "queries.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n3,5,0,-1.2\n", encoding="utf-8")
        preds = tmp_path / "preds.csv"
        assert cli_main([
            "predict", "--model", str(model), "--queries", str(queries), "--out", str(preds),
        ]) == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "user,item,mean,variance,clamped_mean"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert 1.0 <= float(first[4]) <= 5.0

        assert cli_main(["analyze-contexts", "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert "context,score,share" in out
        assert "mood" in out and "price" in out and "item" in out

        results = tmp_path / "results.csv"
        assert cli_main([
            "evaluate", "--config", str(cfg), "--data", str(data),
            "--folds", "3", "--baseline", "--out", str(results),
        ]) == 0
        body = results.read_text()
        assert body.startswith("fold,mae,rmse")
        assert "const_mean" in body

    def test_reports_go_to_the_out_file_alone_or_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data, model, queries = tmp_path / "data.csv", tmp_path / "model.npz", tmp_path / "q.csv"
        assert cli_main(["synthesize", "--config", str(cfg), "--out", str(data)]) == 0
        assert cli_main(["train", "--config", str(cfg), "--data", str(data), "--out", str(model)]) == 0
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n3,5,0,-1.2\n", encoding="utf-8")
        commands = {
            "predict": ["--model", str(model), "--queries", str(queries)],
            "analyze-contexts": ["--model", str(model)],
            "evaluate": ["--config", str(cfg), "--data", str(data), "--folds", "2"],
        }
        for command, args in commands.items():
            out = tmp_path / f"{command}.csv"
            capsys.readouterr()
            assert cli_main([command, *args]) == 0
            printed = capsys.readouterr().out
            assert cli_main([command, *args, "--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            assert out.read_text(encoding="utf-8") == printed and printed.count("\n") >= 3

    def test_paths_without_suffix_are_the_files_written_and_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data, truth, model = tmp_path / "data.csv", tmp_path / "truth", tmp_path / "model"
        assert cli_main(["synthesize", "--config", str(cfg), "--out", str(data), "--truth", str(truth)]) == 0
        with np.load(truth, allow_pickle=False) as arrays:
            assert "alphas" in arrays.files
        assert cli_main(["train", "--config", str(cfg), "--data", str(data), "--out", str(model)]) == 0
        assert f"model written to {model}\n" in capsys.readouterr().out
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n", encoding="utf-8")
        assert cli_main(["predict", "--model", str(model), "--queries", str(queries)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.csv", "model", "q.csv", "truth"]

    def test_evaluate_reports_a_dropped_fold_under_its_index(self, tmp_path, monkeypatch):
        import gplvmf.harness as harness

        cfg = write_config(tmp_path)
        data, results = tmp_path / "data.csv", tmp_path / "results.csv"
        assert cli_main(["synthesize", "--config", str(cfg), "--out", str(data)]) == 0
        real_train, calls = harness.train_model, []

        def fail_fold_one(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("synthetic training failure")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train_model", fail_fold_one)
        with pytest.warns(UserWarning, match="fold 1 failed"):
            code = cli_main(["evaluate", "--config", str(cfg), "--data", str(data),
                             "--folds", "3", "--out", str(results)])
        assert code == 0
        lines = results.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["fold", "0", "2", "failed", "mean", "std"]
        assert lines[3] == "failed,1"

    def test_evaluate_prints_the_kept_folds_then_the_failed_one(self, tmp_path, monkeypatch, capsys):
        import gplvmf.harness as harness

        cfg = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        real_train, calls = harness.train_model, []

        def fail_fold_one(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("synthetic training failure")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train_model", fail_fold_one)
        with pytest.warns(UserWarning, match="fold 1 failed"):
            assert cli_main(["evaluate", "--config", str(cfg), "--data", str(data), "--folds", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == ["fold", "0", "2", "failed", "mean", "std"]
        assert lines[3] == "failed,1"
        folds = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:3]])
        assert [float(v) for v in lines[4].split(",")[1:]] == folds.mean(axis=0).tolist()
        assert [float(v) for v in lines[5].split(",")[1:]] == folds.std(axis=0).tolist()

    def test_bad_data_reports_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = tmp_path / "broken.csv"
        data.write_text("user,item,mood,price,rating\n0,0,9,0.1,3\n", encoding="utf-8")
        code = cli_main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "mood" in capsys.readouterr().err

    def test_config_typo_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        raw = json.loads(path.read_text())
        typos = (({"train": {"epochs": 3, "learning_rat": 0.5}}, "'learning_rat' in config section 'train'"),
                 ({"model": {"inducing": 4}}, "'inducing' in config section 'model'"))
        for change, message in typos:
            path.write_text(json.dumps({**raw, **change}), encoding="utf-8")
            with pytest.raises(ValueError, match=message):
                read_config(path)
        given = {**raw, "seed": 5, "model": {"use_mean": False}, "train": {"epochs": 3}}
        path.write_text(json.dumps(given), encoding="utf-8")
        cfg = read_config(path)
        assert (cfg.seed, cfg.train.seed, cfg.train.use_mean, cfg.train.epochs) == (5, 5, False, 3)

        raw["train"] = {"epoch": 3, "learning_rat": 0.5}
        path.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        code = cli_main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "'epoch'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, where",
        [
            ((), "rating_scal", "config"),
            (("schema",), "contxts", "config section 'schema'"),
            (("schema", "contexts", 0), "cardinalty", "context 0 of config section 'schema'"),
        ],
        ids=["top_level", "schema", "context"],
    )
    def test_unknown_top_level_schema_and_context_keys_are_rejected(self, tmp_path, capsys, section, key, where):
        path = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        raw = json.loads(path.read_text())
        target = raw
        for name in section:
            target = target[name]
        target[key] = 3
        path.write_text(json.dumps(raw), encoding="utf-8")
        message = f"unknown key {key!r} in {where}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_config(path)
        capsys.readouterr()
        for command in (["train", "--data", str(data), "--out", str(tmp_path / "m.npz")],
                        ["synthesize", "--out", str(tmp_path / "again.csv")]):
            assert cli_main([command[0], "--config", str(path), *command[1:]]) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: {**raw, "train": 5}, "config section 'train' must be a JSON object"),
            (lambda raw: {**raw, "model": [4]}, "config section 'model' must be a JSON object"),
            (lambda raw: {**raw, "schema": {**raw["schema"], "contexts": [3]}},
             "context 0 of config section 'schema' must be a JSON object"),
            (lambda raw: [raw], "config must be a JSON object"),
            (lambda raw: {**raw, "delimiter": 5}, "delimiter must be a non-empty string, got 5"),
            (lambda raw: {**raw, "delimiter": ""}, "delimiter must be a non-empty string, got ''"),
        ],
        ids=["train", "model", "context", "top_level", "number_delimiter", "empty_delimiter"],
    )
    def test_a_malformed_section_or_delimiter_exits_2(self, tmp_path, capsys, edit, message):
        # these raised a TypeError from iterating a number or from str.split
        path = write_config(tmp_path)
        data, model = tmp_path / "data.csv", tmp_path / "m.npz"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["train", "--config", str(path), "--data", str(data), "--out", str(model)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda schema: {**schema, "contexts": 5}, "'contexts' of config section 'schema' must be a list, got 5"),
            (lambda schema: {**schema, "contexts": {"name": "mood"}},
             "'contexts' of config section 'schema' must be a list"),
            (lambda schema: {**schema, "contexts": ["mood"]},
             "context 0 of config section 'schema' must be a JSON object, got 'mood'"),
            (lambda schema: {**schema, "contexts": [schema["contexts"][0], {"name": "price"}]},
             "missing key 'kind' in context 1 of config section 'schema'"),
            (lambda schema: {**schema, "contexts": [{"kind": "real"}]},
             "missing key 'name' in context 0 of config section 'schema'"),
            (lambda schema: {"item_count": 6, "contexts": schema["contexts"]},
             "missing key 'user_count' in config section 'schema'"),
            (lambda schema: {"user_count": 8}, "missing key 'item_count' in config section 'schema'"),
            (lambda schema: None, "missing key 'schema' in config"),
        ],
        ids=["number_contexts", "object_contexts", "text_context", "no_kind", "no_name", "no_user_count",
             "no_item_count", "no_schema"],
    )
    def test_a_malformed_schema_exits_2_naming_the_key(self, tmp_path, capsys, edit, message):
        # these ended in a TypeError traceback or the bare text of a KeyError;
        # an edit to None drops the section
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        given = {**raw, "schema": edit(raw["schema"])}
        path.write_text(json.dumps({k: v for k, v in given.items() if v is not None}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_config(path)
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not data.exists()

    def test_synthesize_without_a_synthetic_section_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["synthetic"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 2
        assert capsys.readouterr().err == "error: config is missing the 'synthetic' section\n"
        assert not data.exists()

    def test_synthetic_section_keys_are_checked(self, tmp_path, capsys):
        # one reader: train and evaluate check the synthetic section as synthesize does
        path = write_config(tmp_path)
        data, again, model = tmp_path / "data.csv", tmp_path / "again.csv", tmp_path / "m.npz"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        raw = json.loads(path.read_text())
        commands = (["synthesize", "--out", str(again)], ["train", "--data", str(data), "--out", str(model)],
                    ["evaluate", "--data", str(data), "--folds", "2"])
        rates = {k: v for k, v in raw["synthetic"].items() if k != "ratings_per_user"}
        for synthetic, message in (({**raw["synthetic"], "noise_precison": 100.0},
                                    "'noise_precison' in config section 'synthetic'"),
                                   (rates, "missing key 'ratings_per_user' in config section 'synthetic'"),
                                   ({**raw["synthetic"], "noise_precision": 0}, "noise_precision must be > 0"),
                                   ({**raw["synthetic"], "include_bias": "no"},
                                    "include_bias must be true or false, got 'no'")):
            path.write_text(json.dumps({**raw, "synthetic": synthetic}), encoding="utf-8")
            for command in commands:
                capsys.readouterr()
                assert cli_main([command[0], "--config", str(path), *command[1:]]) == 2
                assert message in capsys.readouterr().err
        assert not again.exists() and not model.exists()

    @pytest.mark.parametrize(
        "scale, message",
        [
            ([1], "rating_scale must be two numbers [lo, hi], got [1]"),
            ([1, 5, 9], "rating_scale must be two numbers [lo, hi], got [1, 5, 9]"),
            ([1, float("nan")], "rating_scale hi must be a finite number, got nan"),
            ([5, 1], "rating_scale hi must be >= 5, got 1"),
            (["1", 5], "rating_scale lo must be a finite number, got '1'"),
            (3, "rating_scale must be two numbers [lo, hi], got 3"),
        ],
        ids=["one", "three", "nan", "reversed", "text", "scalar"],
    )
    def test_a_bad_rating_scale_exits_2_and_writes_no_model(self, tmp_path, capsys, scale, message):
        # [1] or [1, 5, 9] trained and wrote a model that predict then failed
        # on; NaN made every clamped mean NaN; [5, 1] clamped every query to 1
        path = write_config(tmp_path)
        data, model = tmp_path / "data.csv", tmp_path / "m.npz"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        raw = json.loads(path.read_text())
        path.write_text(json.dumps({**raw, "rating_scale": scale}), encoding="utf-8")
        for command in (["train", "--out", str(model)], ["evaluate", "--folds", "2"]):
            capsys.readouterr()
            assert cli_main([command[0], "--config", str(path), "--data", str(data), *command[1:]]) == 2
            assert f"error: {message}" in capsys.readouterr().err
        assert not model.exists()
        table = load_table(data, read_config(write_config(tmp_path)).schema)
        with pytest.raises(ValueError, match=re.escape(message)):
            train_model(table, TrainConfig(inducing_count=2, epochs=1), rating_scale=scale)

    def test_an_equal_ends_rating_scale_is_kept(self, tmp_path):
        # a table of equal ratings has lo == hi as its rating range
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        path.write_text(json.dumps({**raw, "rating_scale": [3, 3]}), encoding="utf-8")
        assert read_config(path).rating_scale == (3.0, 3.0)
        model = small_model(tmp_path, rating_scale=(3.0, 3.0))
        save_model(model, tmp_path / "m.npz")
        assert load_model(tmp_path / "m.npz").predictor().predict(2, 3, (1, 0.7)).clamped_mean == 3.0

    @pytest.mark.parametrize("weights", [[0.3, 0.2], [0.1, 0.2, 0.3]])
    def test_synthetic_real_weights_must_fit_the_real_contexts(self, tmp_path, capsys, weights):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["synthetic"]["real_weights"] = weights
        path.write_text(json.dumps(raw), encoding="utf-8")
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 2
        assert "error: real_weights: need none or one per real context (1)" in capsys.readouterr().err
        assert not data.exists()

    def test_synthetic_defaults_come_from_the_spec(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        path.write_text(json.dumps({**raw, "seed": 11, "synthetic": {"ratings_per_user": 4}}), encoding="utf-8")
        spec = read_config(path).synthetic
        default = SyntheticSpec(user_count=8, item_count=6, contexts=spec.contexts, ratings_per_user=4,
                                context_alphas=(1.0, 1.0), seed=11)
        assert spec == default
        synthetic = {"ratings_per_user": 4, "context_alphas": [0.5, 0.0], "real_weights": [0.3], "seed": 2}
        path.write_text(json.dumps({**raw, "seed": 11, "synthetic": synthetic}), encoding="utf-8")
        spec = read_config(path).synthetic
        assert (spec.context_alphas, spec.real_weights, spec.seed) == ((0.5, 0.0), (0.3,), 2)

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("train", "clip_norm", -1.0),
            ("train", "lr_decay", -0.5),
            ("train", "lr_decay", 0.0),
            ("train", "init_mean_scale", -0.1),
            ("train", "init_variance", -1.0),
            ("train", "jitter", -1e-3),
            ("train", "jitter", 0.0),
            ("train", "patience", 0),
            ("model", "item_bias_dim", -1),
            ("model", "context_bias_dim", -1),
            # a non-empty string is truthy: "false" trained with the mean function
            ("model", "use_mean", "false"),
            ("model", "use_mean", 0),
            ("model", "use_mean", None),
        ],
    )
    def test_training_values_that_poison_training_are_rejected(self, tmp_path, capsys, section, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: value})
        path = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        raw = json.loads(path.read_text())
        raw[section][name] = value
        path.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        code = cli_main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert f"error: {name} must be" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    def test_zero_clip_norm_and_bias_dims_stay_allowed(self):
        cfg = TrainConfig(clip_norm=0.0, item_bias_dim=0, context_bias_dim=0)
        assert (cfg.clip_norm, cfg.dims().item_bias_dim, cfg.dims().context_bias_dim) == (0.0, 0, 0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("epochs", 2.5), ("epochs", "10"), ("epochs", True), ("patience", 1.5), ("seed", 0.5), ("seed", -1),
            ("inducing_count", 2.5), ("item_dim", "2"), ("context_bias_dim", 1.0),
            ("tolerance", float("nan")), ("tolerance", -1.0), ("learning_rate", float("inf")),
            ("learning_rate", "0.1"), ("jitter", float("inf")), ("clip_norm", float("nan")),
            ("lr_decay", float("inf")), ("init_variance", None),
        ],
    )
    def test_config_fields_of_the_wrong_kind_are_named(self, name, value):
        # a fractional count or a string would fail only later, in range()
        # or np.empty, and a non-finite float would train on it
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("inducing_count", 2.5), ("item_dim", np.float64(2.0)),
                                             ("item_bias_dim", -1), ("context_dim", "1"),
                                             ("use_mean", "true"), ("use_mean", 1)])
    def test_model_dims_of_the_wrong_kind_are_named(self, name, value):
        from gplvmf.state import ModelDims

        kwargs = {"inducing_count": 2, "item_dim": 1, "context_dim": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ModelDims(**kwargs)

    def test_numpy_integers_and_floats_stay_allowed(self):
        cfg = TrainConfig(epochs=np.int64(3), inducing_count=np.int32(2), learning_rate=np.float32(0.5),
                          use_mean=np.bool_(False))
        assert (cfg.epochs, cfg.dims().inducing_count, cfg.dims().use_mean) == (3, 2, False)

    def test_config_file_with_a_string_count_exits_2_naming_the_key(self, tmp_path, capsys):
        path = write_config(tmp_path)
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        raw = json.loads(path.read_text())
        raw["train"]["epochs"] = "10"
        path.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        code = cli_main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "error: epochs must be an integer, got '10'" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    def test_config_file_with_a_fractional_user_count_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["schema"]["user_count"] = 2.5
        path.write_text(json.dumps(raw), encoding="utf-8")
        code = cli_main(["synthesize", "--config", str(path), "--out", str(tmp_path / "data.csv")])
        assert code == 2
        assert "error: user_count must be an integer, got 2.5" in capsys.readouterr().err
        assert not (tmp_path / "data.csv").exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("user\n0,1,2,0.4\n", "line 1: header has 1 fields, expected 4 (user, item, mood, price)"),
            ("user,item,mood,price\n0,1,2,0.4\nx,1,2,0.4\n", "line 3: non-integer user index 'x'"),
            ("user,item,mood,price\n0,1.5,2,0.4\n", "line 2: non-integer item index '1.5'"),
            ("user,item,mood,price\n0,1,two,0.4\n", "line 2: non-integer context 'mood' value 'two'"),
            ("user,item,mood,price\n0,1,2\n", "line 2: malformed row (3 fields, expected 4)"),
        ],
        ids=["short_header", "text_user", "float_item", "text_code", "short_row"],
    )
    def test_malformed_query_file_is_rejected(self, tmp_path, capsys, body, message):
        from gplvmf.cli import _read_queries

        model = small_model(tmp_path)
        save_model(model, tmp_path / "model.npz")
        queries = tmp_path / "q.csv"
        queries.write_text(body, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{queries}, {message}")):
            _read_queries(queries, model.schema, ",")
        assert cli_main(["predict", "--model", str(tmp_path / "model.npz"), "--queries", str(queries)]) == 2
        assert f"error: {queries}, {message}" in capsys.readouterr().err

    def test_non_finite_query_context_is_rejected(self, tmp_path):
        from gplvmf.cli import _read_queries
        from gplvmf.data import DataError

        schema = read_config(write_config(tmp_path)).schema
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n0,1,2,0.4\n3,5,0,inf\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3: non-finite context 'price' value 'inf'"):
            _read_queries(queries, schema, ",")

    def test_unknown_user_prediction_fails_without_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = tmp_path / "data.csv"
        cli_main(["synthesize", "--config", str(cfg), "--out", str(data)])
        # drop user 7 from training
        lines = data.read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if not l.startswith("7,")]
        data.write_text("\n".join(kept) + "\n", encoding="utf-8")
        model = tmp_path / "model.npz"
        cli_main(["train", "--config", str(cfg), "--data", str(data), "--out", str(model)])
        queries = tmp_path / "q.csv"
        queries.write_text("user,item,mood,price\n7,1,0,0.0\n", encoding="utf-8")
        capsys.readouterr()
        code = cli_main(["predict", "--model", str(model), "--queries", str(queries)])
        assert code == 2
        # one line, unquoted, although the error is a KeyError
        assert capsys.readouterr().err == "error: user 7 has no training ratings; no cold-start model is defined\n"
        assert cli_main([
            "predict", "--model", str(model), "--queries", str(queries), "--allow-unknown-users",
        ]) == 0
