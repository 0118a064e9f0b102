"""Metrics, synthetic generation, and cross-validation."""

import re

import numpy as np
import pytest

from gplvmf import (
    ContextSchema,
    ContextVariable,
    SyntheticSpec,
    TrainConfig,
    const_baseline_cv,
    evaluate_cv,
    group_by_user,
    load_model,
    make_folds,
    metrics,
    raw_context_rows,
    sample_ratings,
    save_model,
    synthesize,
    train_model,
)
from conftest import build_table


class TestMetrics:
    def test_identical_vectors(self):
        assert metrics([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        mae, rmse = metrics([1.0, 3.0], [2.0, 2.0])
        assert mae == pytest.approx(1.0)
        assert rmse == pytest.approx(1.0)

    def test_rmse_exceeds_mae(self):
        mae, rmse = metrics([0.0, 0.0], [0.0, 2.0])
        assert mae == pytest.approx(1.0)
        assert rmse == pytest.approx(np.sqrt(2.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics([1.0], [1.0, 2.0])


class TestSynthesize:
    def test_deterministic(self):
        ctxs = (ContextVariable("c", "categorical", 3),)
        spec = SyntheticSpec(user_count=4, item_count=5, contexts=ctxs,
                             ratings_per_user=6, context_alphas=(1.0,), seed=9)
        t1, _ = synthesize(spec)
        t2, _ = synthesize(spec)
        assert np.array_equal(t1.ratings, t2.ratings)
        assert np.array_equal(t1.items, t2.items)

    def test_no_signal_gives_bias_plus_white_noise(self):
        # alpha = 0 and sigma2 = 0: rating covariance is diagonal 1/beta
        spec = SyntheticSpec(user_count=1, item_count=4, contexts=(),
                             ratings_per_user=3, item_alpha=0.0, signal_variance=0.0,
                             noise_precision=2.0, seed=3)
        _, truth = synthesize(spec)
        assert np.array_equal(truth.factors[0], np.sqrt(0.5 + 1e-12) * np.eye(3))
        draws = np.stack([sample_ratings(truth, seed) for seed in range(4000)])
        emp = np.cov(draws.T)
        assert np.allclose(np.diag(emp), 0.5, atol=0.05)
        off = emp[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_rating_covariance_matches_kernel_plus_noise(self):
        ctxs = (ContextVariable("c", "categorical", 2),)
        spec = SyntheticSpec(user_count=1, item_count=3, contexts=ctxs,
                             ratings_per_user=3, item_dim=1, context_dim=1,
                             context_alphas=(0.8,), noise_precision=4.0, seed=5)
        _, truth = synthesize(spec)
        f = truth.factors[0]
        expected = f @ f.T
        draws = np.stack([sample_ratings(truth, seed) for seed in range(20000)])
        emp = np.cov(draws.T)
        # Monte-Carlo error on covariance entries is O(1/sqrt(S))
        assert np.max(np.abs(emp - expected)) < 5 * np.max(np.abs(expected)) / np.sqrt(20000) * 3

    def test_mean_matches_bias_sum(self):
        ctxs = (ContextVariable("c", "categorical", 2),)
        spec = SyntheticSpec(user_count=2, item_count=3, contexts=ctxs,
                             ratings_per_user=4, context_alphas=(1.0,), seed=6)
        _, truth = synthesize(spec)
        for u, rows in enumerate(truth.user_rows):
            expected = (
                truth.user_bias[u]
                + truth.item_bias[truth.design_items[rows]]
                + truth.ctx_bias[0][truth.design_cat[rows, 0]]
            )
            assert np.allclose(truth.means[u], expected)

    def test_context_named_item_keeps_the_item_coordinates(self):
        # the truth layout is the model's KernelLayout, whose slices are a
        # list: a context named "item" takes its own coordinates
        def spec(name):
            return SyntheticSpec(user_count=3, item_count=4, contexts=(ContextVariable(name, "categorical", 3),),
                                 ratings_per_user=5, context_alphas=(0.0,), item_alpha=1.0, seed=4)

        named, truth = synthesize(spec("item"))
        other, other_truth = synthesize(spec("other"))
        assert np.array_equal(truth.alphas, [1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(other_truth.alphas, truth.alphas)
        assert np.array_equal(named.ratings, other.ratings)

    @pytest.mark.parametrize(
        "contexts, alphas, weights, field",
        [
            ((ContextVariable("t", "real"), ContextVariable("p", "real")), (1.0, 1.0), (0.5,), "real_weights"),
            ((ContextVariable("t", "real"), ContextVariable("p", "real")), (1.0, 1.0), (0.5, 0.1, 0.2),
             "real_weights"),
            ((ContextVariable("c", "categorical", 2),), (1.0,), (0.5,), "real_weights"),
            ((), (1.0,), (), "context_alphas"),
            ((ContextVariable("c", "categorical", 2),), (), (), "context_alphas"),
        ],
        ids=["one_weight_for_two", "three_weights_for_two", "weight_without_real", "alpha_without_context",
             "no_alpha_for_a_context"],
    )
    def test_spec_rejects_lengths_that_do_not_fit_the_contexts(self, contexts, alphas, weights, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            SyntheticSpec(user_count=2, item_count=3, contexts=contexts, ratings_per_user=2,
                          context_alphas=alphas, real_weights=weights)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("noise_precision", 0.0, "noise_precision must be > 0"),
            ("noise_precision", -1.0, "noise_precision must be > 0"),
            ("signal_variance", float("nan"), "signal_variance must be a finite number"),
            ("signal_variance", -0.5, "signal_variance must be >= 0"),
            ("ratings_per_user", 2.5, "ratings_per_user must be an integer"),
            ("user_count", 0, "user_count must be >= 1"),
            ("item_dim", 0, "item_dim must be >= 1"),
            ("context_dim", True, "context_dim must be an integer"),
            ("seed", -1, "seed must be >= 0"),
            ("item_alpha", float("inf"), "item_alpha must be a finite number"),
            ("user_bias_mean", float("nan"), "user_bias_mean must be a finite number"),
            ("user_bias_std", -1.0, "user_bias_std must be >= 0"),
            ("bias_scale", float("inf"), "bias_scale must be a finite number"),
            ("context_alphas", (1.0, -0.5), "context_alphas[1] must be >= 0"),
            ("context_alphas", (float("nan"), 1.0), "context_alphas[0] must be a finite number"),
            ("real_weights", (float("inf"),), "real_weights[0] must be a finite number"),
        ],
    )
    def test_spec_rejects_values_that_break_the_draw(self, name, value, message):
        # these raised ZeroDivisionError, LinAlgError or TypeError, or (a NaN
        # signal variance) drew a table with no signal
        contexts = (ContextVariable("c", "categorical", 2), ContextVariable("r", "real"))
        spec = dict(user_count=2, item_count=3, contexts=contexts, ratings_per_user=2,
                    context_alphas=(1.0, 1.0), real_weights=(0.5,))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SyntheticSpec(**{**spec, name: value})


def small_context_dataset(seed=5):
    ctxs = (ContextVariable("relevant", "categorical", 6),
            ContextVariable("irrelevant", "categorical", 6))
    spec = SyntheticSpec(user_count=30, item_count=15, contexts=ctxs, ratings_per_user=30,
                         item_dim=2, context_dim=2, context_alphas=(1.0, 0.0),
                         noise_precision=4.0, user_bias_mean=3.0, seed=seed)
    return synthesize(spec)[0]


class TestEvaluateCv:
    def test_constant_dataset_is_trivially_predictable(self):
        schema = ContextSchema(3, 4, ())
        rng = np.random.default_rng(0)
        table = build_table(
            schema,
            users=rng.integers(0, 3, size=30),
            items=rng.integers(0, 4, size=30),
            ratings=np.full(30, 4.0),
        )
        cfg = TrainConfig(inducing_count=3, item_dim=1, context_dim=1, seed=0,
                          epochs=30, learning_rate=0.02)
        result = evaluate_cv(table, cfg, k=3, seed=0)
        assert result.mae < 1e-6
        assert result.rmse < 1e-6

    def test_const_baseline_matches_definition(self):
        schema = ContextSchema(2, 3, ())
        table = build_table(
            schema,
            users=[0, 0, 0, 1, 1, 1],
            items=[0, 1, 2, 0, 1, 2],
            ratings=[2.0, 4.0, 3.0, 5.0, 5.0, 1.0],
        )
        plan = make_folds(table, 2, seed=1)
        result = const_baseline_cv(table, k=2, seed=1)
        for fold in range(2):
            tr = plan.train_indices(fold)
            te = plan.test_indices(fold)
            user_means = {}
            for u in (0, 1):
                mask = table.users[tr] == u
                if mask.any():
                    user_means[u] = table.ratings[tr][mask].mean()
                else:
                    user_means[u] = table.ratings[tr].mean()
            pred = np.array([user_means[u] for u in table.users[te]])
            mae = np.mean(np.abs(pred - table.ratings[te]))
            assert result.fold_mae[fold] == pytest.approx(mae)

    def test_const_baseline_equals_a_masked_loop_on_a_random_table(self):
        # counts from 1 to 300 (pairwise sums past a block of 128) and users
        # with no ratings; every fold's errors must match the per-user masks
        rng = np.random.default_rng(21)
        counts = rng.integers(0, 301, size=40)
        users = rng.permutation(np.repeat(np.arange(40), counts))
        n = users.size
        schema = ContextSchema(40, 7, ())
        table = build_table(schema, users=users, items=rng.integers(0, 7, size=n),
                            ratings=rng.normal(3.0, 1.5, size=n) * 10.0 ** rng.uniform(-3, 3, size=n))
        plan = make_folds(table, 5, seed=3)
        result = const_baseline_cv(table, k=5, seed=3)
        for fold in range(5):
            tr, te = plan.train_indices(fold), plan.test_indices(fold)
            user_means = np.full(40, float(table.ratings[tr].mean()))
            for u in np.unique(table.users[tr]):
                user_means[u] = float(table.ratings[tr][table.users[tr] == u].mean())
            mae, rmse = metrics(table.ratings[te], user_means[table.users[te]])
            assert (result.fold_mae[fold], result.fold_rmse[fold]) == (mae, rmse)

    def test_rmse_at_least_mae_per_fold(self):
        table = small_context_dataset()
        result = const_baseline_cv(table, k=4, seed=2)
        assert np.all(result.fold_rmse >= result.fold_mae)

    def test_deterministic(self):
        table = small_context_dataset()
        cfg = TrainConfig(inducing_count=4, item_dim=1, context_dim=1, seed=0,
                          epochs=5, learning_rate=0.02)
        r1 = evaluate_cv(table, cfg, k=3, seed=7)
        r2 = evaluate_cv(table, cfg, k=3, seed=7)
        assert np.array_equal(r1.fold_mae, r2.fold_mae)
        assert np.array_equal(r1.fold_rmse, r2.fold_rmse)

    def test_beats_const_baseline_on_context_data(self):
        table = small_context_dataset()
        cfg = TrainConfig(inducing_count=8, item_dim=2, context_dim=2, seed=0,
                          epochs=50, learning_rate=0.02, lr_decay=0.995)
        result = evaluate_cv(table, cfg, k=5, seed=9)
        base = const_baseline_cv(table, k=5, seed=9)
        assert result.mae <= 0.8 * base.mae
        assert np.all(result.fold_rmse >= result.fold_mae)

    def test_failed_fold_dropped_with_warning(self, monkeypatch):
        import gplvmf.harness as harness

        table = small_context_dataset()
        cfg = TrainConfig(inducing_count=3, item_dim=1, context_dim=1, seed=0,
                          epochs=3, learning_rate=0.02)
        real_train = harness.train_model
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic training failure")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train_model", flaky)
        with pytest.warns(UserWarning, match="fold 1 failed"):
            result = harness.evaluate_cv(table, cfg, k=3, seed=4)
        assert result.failed_folds == [1]
        assert result.fold_mae.size == 2
        assert result.folds.tolist() == [0, 2]

    def test_failed_fold_warning_points_at_the_caller(self, monkeypatch):
        import gplvmf.harness as harness

        def fail(*args, **kwargs):
            raise RuntimeError("synthetic training failure")

        monkeypatch.setattr(harness, "train_model", fail)
        with pytest.warns(UserWarning, match="fold . failed") as record, \
                pytest.raises(RuntimeError, match="every fold failed"):
            harness.evaluate_cv(small_context_dataset(), TrainConfig(inducing_count=3), k=2, seed=4)
        assert {w.filename for w in record} == {__file__}


def mixed_context_table():
    """A fixed table with one categorical and one real context."""
    ctxs = (ContextVariable("mood", "categorical", 3), ContextVariable("price", "real"))
    spec = SyntheticSpec(user_count=12, item_count=15, contexts=ctxs, ratings_per_user=15,
                         context_alphas=(1.0, 0.5), real_weights=(0.4,), seed=11)
    return synthesize(spec)[0]


class TestCvEqualsAFoldLoop:
    """Each fold's metrics are those of the fold written out by hand, bit for bit."""

    @pytest.mark.parametrize("k", [3, 5])
    def test_evaluate_cv(self, k):
        table = mixed_context_table()
        cfg = TrainConfig(inducing_count=4, item_dim=1, context_dim=1, seed=0, epochs=5, learning_rate=0.02)
        result = evaluate_cv(table, cfg, k=k, seed=2)
        plan = make_folds(table, k, seed=2)
        for fold in range(k):
            train = table.subset(plan.train_indices(fold), standardization="refit")
            test = table.subset(plan.test_indices(fold), standardization=train.standardization)
            _, _, clamped = train_model(train, cfg).predictor().predict_rows(
                test.users, test.items, raw_context_rows(test), unknown_user="global_mean")
            assert (result.fold_mae[fold], result.fold_rmse[fold]) == metrics(test.ratings, clamped)
        assert result.folds.tolist() == list(range(k)) and result.failed_folds == []

    @pytest.mark.parametrize("k", [3, 5])
    def test_const_baseline_cv(self, k):
        table = mixed_context_table()
        result = const_baseline_cv(table, k=k, seed=2)
        plan = make_folds(table, k, seed=2)
        for fold in range(k):
            tr, te = plan.train_indices(fold), plan.test_indices(fold)
            user_means = np.full(table.schema.user_count, table.ratings[tr].mean())
            for block in group_by_user(table.subset(tr, table.standardization)):
                user_means[block.user] = block.ratings.mean()
            assert (result.fold_mae[fold], result.fold_rmse[fold]) == metrics(table.ratings[te],
                                                                              user_means[table.users[te]])
        assert result.folds.tolist() == list(range(k)) and result.failed_folds == []


class TestGroupingOnDemand:
    def test_a_model_groups_its_table_only_for_a_predictor(self, tmp_path, monkeypatch):
        import gplvmf.harness as harness
        import gplvmf.model as model_module

        calls = {"harness": 0, "model": 0}

        def counting(module, key):
            real = module.group_by_user

            def group(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, "group_by_user", group)

        counting(harness, "harness")
        counting(model_module, "model")
        cfg = TrainConfig(inducing_count=3, item_dim=1, context_dim=1, seed=0, epochs=2, learning_rate=0.02)
        model = train_model(mixed_context_table(), cfg)
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path)
        assert calls == {"harness": 1, "model": 0}
        again.predictor()
        assert calls == {"harness": 1, "model": 1}


class TestTrainModel:
    def test_trace_rows_and_csv(self, tmp_path):
        table = small_context_dataset()
        cfg = TrainConfig(inducing_count=4, item_dim=1, context_dim=1, seed=0,
                          epochs=4, learning_rate=0.02)
        model = train_model(table, cfg)
        assert len(model.trace.rows) == 4
        path = tmp_path / "trace.csv"
        model.trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,bound_estimate,val_mae,val_rmse,seconds"
        assert len(lines) == 5

    def test_early_stopping_with_validation(self):
        table = small_context_dataset()
        plan = make_folds(table, 5, seed=0)
        train = table.subset(plan.train_indices(0), standardization="refit")
        val = table.subset(plan.test_indices(0), standardization=train.standardization)
        cfg = TrainConfig(inducing_count=4, item_dim=1, context_dim=1, seed=0,
                          epochs=60, learning_rate=0.02, patience=3)
        model = train_model(train, cfg, validation_table=val)
        # patience can cut the run short; trace should carry validation MAE
        assert np.isfinite([r.val_mae for r in model.trace.rows]).all()

    def test_scg_method_runs(self):
        table = small_context_dataset()
        cfg = TrainConfig(method="scg", inducing_count=4, item_dim=1, context_dim=1,
                          seed=0, epochs=15, learning_rate=0.02)
        model = train_model(table, cfg)
        assert len(model.trace.rows) >= 1
        assert np.isfinite(model.trace.bounds()).all()

    def test_scg_validation_early_stop(self):
        table = small_context_dataset()
        plan = make_folds(table, 5, seed=0)
        train = table.subset(plan.train_indices(0), standardization="refit")
        val = table.subset(plan.test_indices(0), standardization=train.standardization)
        cfg = TrainConfig(method="scg", inducing_count=4, item_dim=1, context_dim=1,
                          seed=0, epochs=200, learning_rate=0.02, patience=3)
        model = train_model(train, cfg, validation_table=val)
        accepted = [r for r in model.trace.rows if np.isfinite(r.val_mae)]
        assert accepted, "validation MAE should be recorded on accepted iterations"
        # patience 3 must cut the run well short of the 200-iteration cap
        assert len(model.trace.rows) < 200


class TestSchemaVariants:
    def test_real_context_only_training(self):
        ctx = (ContextVariable("price", "real"),)
        spec = SyntheticSpec(user_count=10, item_count=8, contexts=ctx,
                             ratings_per_user=12, item_dim=1, context_dim=1,
                             context_alphas=(0.8,), real_weights=(0.5,),
                             user_bias_mean=3.0, seed=13)
        table, _ = synthesize(spec)
        cfg = TrainConfig(inducing_count=4, item_dim=1, context_dim=1, seed=0,
                          epochs=10, learning_rate=0.02)
        model = train_model(table, cfg)
        p = model.predictor().predict(0, 1, (0.3,))
        assert np.isfinite(p.mean) and p.variance >= 0

    def test_context_free_training(self):
        # no contexts at all: plain per-user GP matrix factorization
        spec = SyntheticSpec(user_count=10, item_count=8, contexts=(),
                             ratings_per_user=12, item_dim=2, context_dim=2,
                             user_bias_mean=3.0, seed=14)
        table, _ = synthesize(spec)
        cfg = TrainConfig(inducing_count=4, item_dim=2, context_dim=2, seed=0,
                          epochs=10, learning_rate=0.02)
        model = train_model(table, cfg)
        p = model.predictor().predict(0, 1, ())
        assert np.isfinite(p.mean) and p.variance >= 0
        result = evaluate_cv(table, cfg, k=3, seed=1)
        assert np.isfinite(result.mae)

    def test_mean_function_disabled(self):
        # "use mean: no": the entire bias mean is zero and carries no
        # parameters; training and prediction still work
        from gplvmf import save_model, load_model
        import tempfile
        from pathlib import Path

        table = small_context_dataset()
        cfg = TrainConfig(inducing_count=4, item_dim=1, context_dim=1, seed=0,
                          epochs=10, learning_rate=0.02, use_mean=False)
        model = train_model(table, cfg)
        assert not model.state.dims.use_mean
        p = model.predictor().predict(0, 1, (0, 0))
        assert np.isfinite(p.mean)
        path = Path(tempfile.mkdtemp()) / "no_mean.npz"
        save_model(model, path)
        again = load_model(path)
        assert not again.state.dims.use_mean
        p2 = again.predictor().predict(0, 1, (0, 0))
        assert p2.mean == pytest.approx(p.mean)
