"""State initialization, SGD stepping, and scaled conjugate gradients."""

from dataclasses import replace

import numpy as np
import pytest

from gplvmf import (
    ContextSchema,
    ContextVariable,
    OptimizationError,
    Predictor,
    SyntheticSpec,
    TrainConfig,
    UserBlock,
    group_by_user,
    init_state,
    make_folds,
    metrics,
    raw_context_rows,
    scg_minimize,
    sgd_epoch,
    synthesize,
    total_bound,
    train,
)
from conftest import add_at_scatter, build_table, random_instance


# a value of each always-present point key that a step must refuse: z not
# finite, the log-parameters not finite under exp
POINT_VALUES = [("z", np.nan), ("log_alpha", 800.0), ("log_sigma2", 800.0), ("log_beta", 800.0)]


def toy_problem(data_seed=1, init_seed=2):
    """The 2-user toy used for optimizer cross-checks."""
    ctxs = (ContextVariable("c", "categorical", 2),)
    spec = SyntheticSpec(
        user_count=2, item_count=3, contexts=ctxs, ratings_per_user=6,
        item_dim=1, context_dim=1, context_alphas=(1.0,), seed=data_seed,
    )
    table, _ = synthesize(spec)
    blocks = group_by_user(table)
    cfg = TrainConfig(
        inducing_count=3, item_dim=1, context_dim=1, seed=init_seed,
        epochs=1500, learning_rate=0.08, lr_decay=0.998, tolerance=1e-8,
    )
    return table, blocks, cfg


def per_table_sgd_epoch(blocks, state, config, epoch_index):
    """SGD's epoch as a step per parameter table: each user's entries are
    gathered table by table (sorted unique rows), the KL share is subtracted
    table by table, and the step is concatenated for its norm.  Returns the
    state, the running bound estimate and the number of clipped steps.  The
    gradient is scattered by the ``np.add.at`` oracle."""
    from gplvmf.bound import Chunk, _user_terms, kl_to_prior, shared_factors

    n_users = len(blocks)
    order = np.random.default_rng([config.seed, 7919, epoch_index]).permutation(n_users)
    lr = config.learning_rate * config.lr_decay**epoch_index
    _, grads = state.zero_grads()
    value_sum, clipped = 0.0, 0
    for bi in order:
        block = blocks[bi]
        chunk = Chunk([block], state)
        terms = _user_terms(chunk, state, shared_factors(state, config.jitter), want_gradients=True)
        value_sum += terms.value[0]
        add_at_scatter(state, chunk, terms, grads)
        rows = {"log_sigma2": block.user, "log_beta": block.user, "user_bias": block.user}
        for t in state.layout.tables:
            rows[t.mean] = rows[t.log_var] = np.unique(t.codes(block))
        entries = [(key, arr, rows.get(key, slice(None))) for key, arr in state.param_entries()]
        for t in state.layout.tables:
            r = rows[t.mean]
            grads[t.mean][r] -= np.array(state.params[t.mean][r]) / n_users
            grads[t.log_var][r] -= 0.5 * (np.exp(state.params[t.log_var][r]) - 1.0) / n_users
        step = [grads[key][r] for key, _, r in entries]
        flat = np.concatenate([np.ravel(g) for g in step])
        scale = lr
        norm = np.sqrt(flat @ flat)
        if config.clip_norm and norm > config.clip_norm:
            scale = lr * config.clip_norm / norm
            clipped += 1
        for (key, arr, r), g in zip(entries, step):
            arr[r] += scale * g
            grads[key][r] = 0.0
    return state, value_sum - kl_to_prior(state), clipped


class TestInitState:
    def test_deterministic(self):
        table, blocks, cfg = toy_problem()
        s1 = init_state(table.schema, blocks, cfg)
        s2 = init_state(table.schema, blocks, cfg)
        assert np.array_equal(s1.to_vector(), s2.to_vector())

    def test_user_bias_is_mean_rating(self):
        schema = ContextSchema(2, 3, ())
        from conftest import build_table

        table = build_table(schema, users=[0, 0, 1], items=[0, 1, 2], ratings=[3.0, 5.0, 2.0])
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=2, item_dim=1, context_dim=1, seed=0)
        state = init_state(schema, blocks, cfg)
        assert state.params["user_bias"][0] == pytest.approx(4.0)
        assert state.params["user_bias"][1] == pytest.approx(2.0)

    def test_user_bias_equals_each_block_mean_bit_for_bit(self):
        # the means are taken over stacks of equal-count blocks; each must
        # equal the block's own mean, whether the blocks share one sorted
        # column (group_by_user) or are separate arrays (a plain list)
        rng = np.random.default_rng(8)
        counts = rng.integers(1, 201, size=90)
        counts[::9] = 0
        users = rng.permutation(np.repeat(np.arange(90), counts))
        n = users.size
        schema = ContextSchema(90, 5, ())
        table = build_table(schema, users=users, items=rng.integers(0, 5, size=n),
                            ratings=rng.normal(3.0, 1.5, size=n) * 10.0 ** rng.uniform(-3, 3, size=n))
        grouped = group_by_user(table)
        plain = [UserBlock(b.user, b.items.copy(), b.cat_values.copy(), b.real_values.copy(), b.ratings.copy())
                 for b in grouped]
        cfg = TrainConfig(inducing_count=3, item_dim=1, context_dim=1, seed=0)
        for blocks in (grouped, plain):
            bias = init_state(schema, blocks, cfg).params["user_bias"]
            expected = np.full(90, np.mean(table.ratings[np.argsort(users, kind="stable")]))
            for b in blocks:
                expected[b.user] = float(b.ratings.mean())
            assert np.array_equal(bias, expected)

    def test_alpha_uniform_one_over_q(self):
        table, blocks, cfg = toy_problem()
        state = init_state(table.schema, blocks, cfg)
        q = state.kernel_dim
        assert np.allclose(np.exp(state.log_alpha), 1.0 / q)

    def test_sigma_beta_unity_and_variances(self):
        table, blocks, cfg = toy_problem()
        state = init_state(table.schema, blocks, cfg)
        assert np.allclose(np.exp(state.log_sigma2), 1.0)
        assert np.allclose(np.exp(state.log_beta), 1.0)
        assert np.allclose(np.exp(state.item_log_var[:-1]), cfg.init_variance)
        # unknown rows sit at the prior
        assert np.allclose(state.item_mean[-1], 0.0)
        assert np.allclose(np.exp(state.item_log_var[-1]), 1.0)

    def test_init_bound_finite_on_table_shaped_data(self):
        # dataset shapes: (users, items, contexts, records)
        shapes = [(121, 1232, 12, 2296), (212, 20, 2, 5554), (5000, 100, 7, 50000)]
        for users, items, d, records in shapes:
            ctxs = tuple(ContextVariable(f"c{i}", "categorical", 4) for i in range(d))
            spec = SyntheticSpec(
                user_count=users, item_count=items, contexts=ctxs,
                ratings_per_user=max(1, round(records / users)),
                item_dim=2, context_dim=2, context_alphas=(1.0,) * d,
                user_bias_mean=3.0, seed=1,
            )
            table, _ = synthesize(spec)
            blocks = group_by_user(table)
            cfg = TrainConfig(inducing_count=4, item_dim=2, context_dim=2, seed=0)
            state = init_state(table.schema, blocks, cfg)
            rep = total_bound(blocks, state, want_gradients=False)
            assert np.isfinite(rep.total), f"shape {(users, items, d, records)}"

    @pytest.mark.slow
    def test_init_bound_finite_on_movielens_shaped_data(self):
        ctxs = tuple(ContextVariable(f"c{i}", "categorical", 4) for i in range(2))
        spec = SyntheticSpec(
            user_count=6040, item_count=3706, contexts=ctxs,
            ratings_per_user=166, item_dim=2, context_dim=2,
            context_alphas=(1.0, 1.0), user_bias_mean=3.0, seed=1,
        )
        table, _ = synthesize(spec)
        assert len(table) == pytest.approx(1_000_209, rel=0.01)
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=4, item_dim=2, context_dim=2, seed=0)
        state = init_state(table.schema, blocks, cfg)
        rep = total_bound(blocks, state, want_gradients=False)
        assert np.isfinite(rep.total)


class TestSgd:
    def test_zero_learning_rate_is_noop(self):
        table, blocks, cfg = toy_problem()
        cfg0 = TrainConfig(
            inducing_count=3, item_dim=1, context_dim=1, seed=2,
            epochs=1, learning_rate=0.0,
        )
        state = init_state(table.schema, blocks, cfg0)
        before = state.to_vector().copy()
        state, _ = sgd_epoch(blocks, state, cfg0, 0)
        assert np.array_equal(state.to_vector(), before)

    def test_visit_order_is_shuffled_permutation_of_all_users(self, monkeypatch):
        import gplvmf.optim as optim

        table, blocks, cfg = toy_problem()
        visited = []
        real = optim._user_terms

        def spy(chunk, state, shared, want_gradients):
            visited.append(chunk.rows.user)
            return real(chunk, state, shared, want_gradients)

        monkeypatch.setattr(optim, "_user_terms", spy)
        state = init_state(table.schema, blocks, cfg)
        epoch_orders = []
        for epoch in range(3):
            visited.clear()
            state, _ = sgd_epoch(blocks, state, cfg, epoch)
            assert sorted(visited) == sorted(b.user for b in blocks)
            epoch_orders.append(tuple(visited))
        # across epochs the order actually varies (seeded shuffle)
        assert len(set(epoch_orders)) > 1 or len(blocks) < 2

    def test_epochs_increase_exact_bound_on_tiny_instance(self):
        table, blocks, state, _ = random_instance(
            77, n_users=1, n_items=3, ratings_per_user=4, m=2,
            item_dim=1, context_dim=1, state_noise=0.0,
        )
        cfg = TrainConfig(
            inducing_count=2, item_dim=1, context_dim=1, seed=77,
            epochs=200, learning_rate=0.03, lr_decay=1.0,
        )
        start = total_bound(blocks, state, want_gradients=False).total
        for epoch in range(cfg.epochs):
            state, _ = sgd_epoch(blocks, state, cfg, epoch)
        end = total_bound(blocks, state, want_gradients=False).total
        assert end > start + 1.0

    def test_fixed_real_context_data_untouched(self):
        table, blocks, state, cfg = random_instance(8, state_noise=0.0)
        real_before = [b.real_values.copy() for b in blocks]
        for epoch in range(3):
            state, _ = sgd_epoch(blocks, state, cfg, epoch)
        for before, block in zip(real_before, blocks):
            assert np.array_equal(before, block.real_values)

    def test_determinism(self):
        table, blocks, cfg = toy_problem()
        runs = []
        for _ in range(2):
            state = init_state(table.schema, blocks, cfg)
            estimates = []
            for epoch in range(5):
                state, est = sgd_epoch(blocks, state, cfg, epoch)
                estimates.append(est)
            runs.append((state.to_vector(), estimates))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_step_is_the_full_batch_gradient_on_touched_entries(self):
        # One user, one epoch: SGD takes a single step lr * grad at the start
        # state, and on the entries the user touches that gradient (including
        # the KL share, 1/N with N = 1) is the full-batch one.
        import dataclasses

        for use_mean in (True, False):
            _, blocks, state, cfg = random_instance(
                11, n_users=1, n_items=5, cat_card=4, ratings_per_user=4, use_mean=use_mean,
            )
            cfg = dataclasses.replace(cfg, learning_rate=1e-4, lr_decay=1.0, clip_norm=0.0)
            (block,) = blocks
            before = state.to_vector()
            grad = total_bound(blocks, state).gradients

            mask = state.from_vector(np.zeros(before.size))
            item_tables = [mask.item_mean, mask.item_log_var]
            ctx_tables = [mask.params["ctx_mean_0"], mask.params["ctx_log_var_0"]]
            whole = [mask.z, mask.log_alpha, mask.log_sigma2, mask.log_beta]
            if use_mean:
                item_tables += [mask.params["bias_item_mean"], mask.params["bias_item_log_var"]]
                ctx_tables += [mask.params["bias_ctx_mean_0"], mask.params["bias_ctx_log_var_0"]]
                whole += [mask.params["user_bias"], mask.params["real_weights"]]
            for arr in item_tables:
                arr[block.items] = 1.0
            for arr in ctx_tables:
                arr[block.cat_values[:, 0]] = 1.0
            for arr in whole:
                arr[...] = 1.0
            touched = mask.to_vector() == 1.0
            # the trailing unknown rows are never touched
            assert not mask.item_mean[-1].any() and not mask.params["ctx_mean_0"][-1].any()

            state, _ = sgd_epoch(blocks, state, cfg, 0)
            after = state.to_vector()
            # rounding of before + step is about eps * |before|
            atol = 4 * np.finfo(float).eps * np.max(np.abs(before))
            np.testing.assert_allclose(
                after[touched] - before[touched], cfg.learning_rate * grad[touched], rtol=1e-8, atol=atol
            )
            assert np.array_equal(after[~touched], before[~touched])

    def test_non_finite_gradient_aborts_with_block_name(self):
        table, blocks, cfg = toy_problem()
        state = init_state(table.schema, blocks, cfg)
        state.log_beta[:] = 800.0  # exp overflows to inf
        with pytest.raises(OptimizationError, match="parameter block"):
            sgd_epoch(blocks, state, cfg, 0)

    @pytest.mark.parametrize(
        "key, value, shape",
        [pytest.param(key, value, None, id=f"{key}-{value}") for key, value in POINT_VALUES]
        + [pytest.param("user_bias", np.inf, {}, id="user_bias-inf-real_context"),
           pytest.param("real_weights", np.nan, {}, id="real_weights-nan-real_context")]
        + [pytest.param(key, value, dict(use_mean=False), id=f"{key}-{value}-no_mean") for key, value in POINT_VALUES],
    )
    def test_non_finite_parameter_names_its_block(self, key, value, shape):
        # every point entry a step reads is checked, a per-user key's at the
        # last user; ``shape`` None is the toy, else a random_instance
        if shape is None:
            table, blocks, cfg = toy_problem()
            state = init_state(table.schema, blocks, cfg)
        else:
            _, blocks, state, cfg = random_instance(9, n_users=3, **shape)
        state.params[key].flat[-1] = value
        with pytest.raises(OptimizationError, match=f"non-finite value in parameter block '{key}'"):
            sgd_epoch(blocks, state, cfg, 0)

    @pytest.mark.parametrize("use_mean", [True, False])
    def test_flat_step_matches_per_table_reference(self, use_mean):
        # clip_norm is small enough that clipping fires, which pins the order
        # in which the step's norm is summed
        import dataclasses

        _, blocks, state, cfg = random_instance(
            31, n_users=4, n_items=5, cat_card=3, ratings_per_user=6, use_mean=use_mean,
        )
        assert state.schema.real_indices
        cfg = dataclasses.replace(cfg, learning_rate=0.05, clip_norm=2.0)
        reference = state.copy()
        clipped = 0
        for epoch in range(3):
            state, estimate = sgd_epoch(blocks, state, cfg, epoch)
            reference, ref_estimate, ref_clipped = per_table_sgd_epoch(blocks, reference, cfg, epoch)
            clipped += ref_clipped
            assert estimate == ref_estimate
        assert clipped > 0
        assert np.array_equal(state.to_vector(), reference.to_vector())


class TestScg:
    def test_quadratic_converges_within_dimension_steps(self):
        rng = np.random.default_rng(5)
        for dim in (4, 6, 10):
            q = rng.normal(size=(dim, dim))
            a = q @ q.T + dim * np.eye(dim)
            b = rng.normal(size=dim)
            xstar = np.linalg.solve(a, b)
            res = scg_minimize(
                lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b),
                np.zeros(dim), max_iters=dim, grad_tol=0.0,
            )
            assert res.iterations <= dim
            assert np.max(np.abs(res.x - xstar)) < 1e-8

    def test_accepted_bound_sequence_non_decreasing(self):
        table, blocks, cfg = toy_problem()
        state = init_state(table.schema, blocks, cfg)
        _, trace = train(blocks, state, replace(cfg, method="scg", epochs=150))
        bounds = trace.bounds()
        # only accepted steps move the iterate, and they never lower the bound
        assert np.all(np.diff(bounds) >= -1e-9)

    def test_matches_sgd_on_toy(self):
        table, blocks, cfg = toy_problem()
        state_sgd = init_state(table.schema, blocks, cfg)
        for epoch in range(cfg.epochs):
            state_sgd, _ = sgd_epoch(blocks, state_sgd, cfg, epoch)
        f_sgd = total_bound(blocks, state_sgd, want_gradients=False).total

        scg_cfg = replace(cfg, method="scg", epochs=3000)
        state_scg, _ = train(blocks, init_state(table.schema, blocks, cfg), scg_cfg)
        f_scg = total_bound(blocks, state_scg, want_gradients=False).total
        assert abs(f_sgd - f_scg) / abs(f_scg) < 0.01

    def test_line_scale_collapse_aborts_after_one_restart(self):
        calls = {"n": 0}

        def nasty(x):
            calls["n"] += 1
            if calls["n"] == 1:
                return 1.0, np.full_like(x, 2.0)
            return float("nan"), np.full_like(x, np.nan)

        res = scg_minimize(nasty, np.zeros(3), max_iters=50)
        assert not res.converged
        assert res.reason == "line-scale collapse"

    def test_callback_return_value_stops_the_run(self):
        scales = np.arange(1.0, 6.0)  # five distinct curvatures: five steps to converge

        def quadratic(x):
            return 0.5 * x @ (scales * x) - x.sum(), scales * x - 1.0

        calls = []
        res = scg_minimize(quadratic, np.zeros(5), max_iters=1,
                           callback=lambda k, x, f, accepted: calls.append(k))
        assert res.iterations == 1 and calls == [1]
        assert res.reason == "max iterations"

        for stop_at in (1, 3):
            calls.clear()

            def stop(k, x, f, accepted):
                calls.append(k)
                return k == stop_at

            res = scg_minimize(quadratic, np.zeros(5), max_iters=50, grad_tol=0.0, callback=stop)
            assert res.reason == "early stop"
            assert res.iterations == stop_at and calls == list(range(1, stop_at + 1))


def validation_split():
    """Training blocks and a ``state -> (mae, rmse)`` validation on a held-out fold."""
    ctxs = (ContextVariable("c", "categorical", 3),)
    spec = SyntheticSpec(user_count=10, item_count=6, contexts=ctxs, ratings_per_user=12,
                         item_dim=1, context_dim=1, context_alphas=(1.0,), user_bias_mean=3.0, seed=3)
    table, _ = synthesize(spec)
    plan = make_folds(table, 4, seed=0)
    train_table = table.subset(plan.train_indices(0), standardization="refit")
    val = table.subset(plan.test_indices(0), standardization=train_table.standardization)
    blocks = group_by_user(train_table)
    rows = raw_context_rows(val)

    def validation(state):
        pred = Predictor(state, blocks, standardization=train_table.standardization)
        _, _, clamped = pred.predict_rows(val.users, val.items, rows, unknown_user="global_mean")
        return metrics(val.ratings, clamped)

    return train_table.schema, blocks, validation


class TestTrain:
    def test_sgd_is_the_epoch_loop(self):
        table, blocks, cfg = toy_problem()
        cfg = replace(cfg, epochs=30)
        state, trace = train(blocks, init_state(table.schema, blocks, cfg), cfg)

        reference = init_state(table.schema, blocks, cfg)
        estimates = []
        for epoch in range(cfg.epochs):
            reference, estimate = sgd_epoch(blocks, reference, cfg, epoch)
            estimates.append(estimate)
        assert np.array_equal(state.to_vector(), reference.to_vector())
        assert trace.bounds().tolist() == estimates
        assert [r.step for r in trace.rows] == list(range(cfg.epochs))
        assert trace.bound_column == "bound_estimate"

    def test_scg_is_scg_minimize_on_the_negated_bound(self):
        table, blocks, cfg = toy_problem()
        cfg = replace(cfg, method="scg", epochs=30)
        start = init_state(table.schema, blocks, cfg)
        state, trace = train(blocks, start, cfg)

        def objective(vec):
            report = total_bound(blocks, start.from_vector(vec), jitter=cfg.jitter)
            return -report.total, -report.gradients

        values = []
        res = scg_minimize(objective, start.to_vector(), max_iters=cfg.epochs, grad_tol=cfg.tolerance,
                           callback=lambda k, x, f, accepted: values.append(-f))
        assert np.array_equal(state.to_vector(), res.x)
        assert trace.bounds().tolist() == values
        assert trace.bound_column == "bound"

    @pytest.mark.parametrize("method", ["sgd", "scg"])
    def test_validation_returns_the_best_state_and_stops_after_patience(self, method):
        schema, blocks, validation = validation_split()
        cfg = TrainConfig(method=method, inducing_count=3, item_dim=1, context_dim=1, seed=0,
                          epochs=100, learning_rate=0.05, patience=3)
        state, trace = train(blocks, init_state(schema, blocks, cfg), cfg, validation)
        maes = np.array([r.val_mae for r in trace.rows])
        validated = maes[np.isfinite(maes)]
        assert validation(state)[0] == validated.min()
        assert validated.size - 1 - np.argmin(validated) == cfg.patience
        assert len(trace.rows) < cfg.epochs
