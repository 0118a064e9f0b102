"""Model serialization format and the command-line interface."""

import json

import numpy as np
import pytest

from gplvmf import (
    ContextVariable,
    SyntheticSpec,
    TrainConfig,
    load_model,
    save_model,
    synthesize,
    train_model,
)
from gplvmf.cli import main as cli_main


def small_model(tmp_path, method="sgd"):
    ctxs = (ContextVariable("mood", "categorical", 3), ContextVariable("price", "real"))
    spec = SyntheticSpec(user_count=8, item_count=6, contexts=ctxs, ratings_per_user=10,
                         context_alphas=(1.0, 0.5), user_bias_mean=3.0, seed=2)
    table, _ = synthesize(spec)
    cfg = TrainConfig(method=method, inducing_count=4, item_dim=2, context_dim=2,
                      seed=0, epochs=8, learning_rate=0.02)
    return train_model(table, cfg, rating_scale=(1.0, 5.0))


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
        ]
        for change, message in tampered:
            arrays["meta"] = json.dumps({**meta, **change})
            bad = tmp_path / "bad.npz"
            np.savez(bad, **arrays)
            with pytest.raises(ValueError, match=message):
                load_model(bad)
            assert cli_main(["predict", "--model", str(bad), "--queries", str(queries)]) == 2
            assert message in capsys.readouterr().err


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
        assert trace.read_text().splitlines()[0] == "step,bound,val_mae,val_rmse,seconds"

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

    def test_bad_data_reports_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = tmp_path / "broken.csv"
        data.write_text("user,item,mood,price,rating\n0,0,9,0.1,3\n", encoding="utf-8")
        code = cli_main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "mood" in capsys.readouterr().err

    def test_config_typo_is_rejected(self, tmp_path, capsys):
        from gplvmf.config import train_config_from_config

        with pytest.raises(ValueError, match="'learning_rat' in config section 'train'"):
            train_config_from_config({"train": {"epochs": 3, "learning_rat": 0.5}})
        with pytest.raises(ValueError, match="'inducing' in config section 'model'"):
            train_config_from_config({"model": {"inducing": 4}})
        cfg = train_config_from_config({"seed": 5, "model": {"use_mean": False}, "train": {"epochs": 3}})
        assert (cfg.seed, cfg.use_mean, cfg.epochs) == (5, False, 3)

        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["train"] = {"epoch": 3, "learning_rat": 0.5}
        path.write_text(json.dumps(raw), encoding="utf-8")
        data = tmp_path / "data.csv"
        assert cli_main(["synthesize", "--config", str(path), "--out", str(data)]) == 0
        code = cli_main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "'epoch'" in capsys.readouterr().err

    def test_non_finite_query_context_is_rejected(self, tmp_path):
        from gplvmf.cli import _read_queries
        from gplvmf.config import load_config, schema_from_config
        from gplvmf.data import DataError

        schema = schema_from_config(load_config(write_config(tmp_path)))
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
        code = cli_main(["predict", "--model", str(model), "--queries", str(queries)])
        assert code == 2
        assert "user 7" in capsys.readouterr().err
        assert cli_main([
            "predict", "--model", str(model), "--queries", str(queries), "--allow-unknown-users",
        ]) == 0
