"""Predictive distribution and the context-relevance report."""

import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from gplvmf import (
    ArdKernel,
    TrainConfig,
    UnknownUserError,
    group_by_user,
    init_state,
    kernel_matrix,
    phi_statistics,
)
from gplvmf.predict import Predictor, context_relevance
from conftest import build_table, one_user_distinct_table, random_instance
from gplvmf import ContextSchema, ContextVariable


def collapsed_predict_setup(seed, n_items=4, beta=2.0):
    table = one_user_distinct_table(n_items, seed)
    blocks = group_by_user(table)
    cfg = TrainConfig(inducing_count=n_items, item_dim=1, context_dim=1, seed=seed)
    state = init_state(table.schema, blocks, cfg)
    state.item_mean[:n_items, 0] = np.linspace(-1.5, 1.5, n_items)
    state.item_log_var[:] = -45.0
    state.params["bias_item_log_var"][:] = -45.0
    mu_rows, _ = state.assemble_rows(blocks[0])
    state.z = mu_rows.copy()
    state.log_beta[:] = np.log(beta)
    return table, blocks, state


def batch_instance(seed, n_items=5):
    """Six users, three of 5 ratings and three of 8, with a categorical and
    two real contexts and a perturbed state; returns the state, the blocks
    and the real-context standardization."""
    rng = np.random.default_rng(seed)
    schema = ContextSchema(
        6, n_items,
        (
            ContextVariable("c0", "categorical", 3),
            ContextVariable("r0", "real"),
            ContextVariable("r1", "real"),
        ),
    )
    users = np.repeat(np.arange(6), [5, 5, 5, 8, 8, 8])
    n = users.size
    table = build_table(
        schema, users=users, items=rng.integers(0, n_items, size=n), cat=rng.integers(0, 3, size=n),
        real=rng.normal(size=(n, 2)), ratings=rng.normal(3.0, 1.0, size=n),
    )
    blocks = group_by_user(table)
    state = init_state(schema, blocks, TrainConfig(inducing_count=3, item_dim=2, context_dim=2, seed=seed))
    vec = state.to_vector()
    state = state.from_vector(vec + rng.normal(0.0, 0.15, size=vec.size))
    # real contexts weigh on the mean, so a batch-dependent rounding of their
    # weighted sum reaches it
    state.params["real_weights"][:] = [2.5, -1.5]
    return state, blocks, table.standardization


def batch_queries(seed, n, n_items=5):
    """Raw query rows over the users of :func:`batch_instance`, with unseen
    items and categories among them."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, 6, size=n).tolist()
    items = rng.integers(-1, n_items + 2, size=n).tolist()
    rows = [(int(c), float(a), float(b)) for c, a, b in
            zip(rng.integers(-1, 5, size=n), rng.normal(size=n), rng.normal(size=n))]
    return users, items, rows


class TestPredict:
    def test_interpolation_limit(self):
        table, blocks, state = collapsed_predict_setup(0, beta=1e6)
        pred = Predictor(state, blocks, jitter=1e-12)
        for t in range(blocks[0].count):
            p = pred.predict(0, int(blocks[0].items[t]), ())
            assert p.mean == pytest.approx(blocks[0].ratings[t], abs=1e-4)

    def test_matches_exact_gp_at_full_inducing(self):
        table, blocks, state = collapsed_predict_setup(1, beta=2.0)
        pred = Predictor(state, blocks, jitter=1e-12)
        mu_rows, _ = state.assemble_rows(blocks[0])
        kern = ArdKernel(float(np.exp(state.log_sigma2[0])), np.exp(state.log_alpha))
        k = kernel_matrix(kern, mu_rows, mu_rows)
        cf = cho_factor(k + np.eye(blocks[0].count) / 2.0, lower=True)
        phi1 = phi_statistics(state, blocks[0]).phi1
        resid = blocks[0].ratings - phi1
        for t in range(blocks[0].count):
            xs = mu_rows[t : t + 1]
            ks = kernel_matrix(kern, xs, mu_rows)[0]
            kss = float(kernel_matrix(kern, xs, xs)[0, 0])
            p = pred.predict(0, t, ())
            assert p.mean == pytest.approx(float(ks @ cho_solve(cf, resid) + phi1[t]), abs=1e-9)
            assert p.variance == pytest.approx(float(kss - ks @ cho_solve(cf, ks)), abs=1e-9)

    def test_vanishing_signal_gives_pure_bias(self):
        table, blocks, state = collapsed_predict_setup(2)
        state.log_sigma2[:] = np.log(1e-30)
        pred = Predictor(state, blocks)
        p = pred.predict(0, 1, ())
        expected = state.params["user_bias"][0] + state.params["bias_item_mean"][1].sum()
        assert p.mean == pytest.approx(float(expected), abs=1e-12)

    def test_scalar_hand_evaluation(self):
        table = one_user_distinct_table(1, 3)
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=1, item_dim=1, context_dim=1, seed=3)
        st = init_state(table.schema, blocks, cfg)
        st.item_mean[0, 0] = 0.3
        st.item_log_var[0, 0] = np.log(0.4)
        st.z = np.array([[0.5]])
        st.log_alpha = np.array([np.log(2.0)])
        st.log_sigma2[:] = np.log(1.3)
        st.log_beta[:] = np.log(0.8)
        y = float(blocks[0].ratings[0])
        p1 = float(st.params["user_bias"][0] + st.params["bias_item_mean"][0].sum())
        sigma2, beta, alpha = 1.3, 0.8, 2.0
        mu, s, z = 0.3, 0.4, 0.5
        k = sigma2 * (1 + 1e-6)
        psi1 = sigma2 * (1 + alpha * s) ** -0.5 * np.exp(-0.5 * alpha * (mu - z) ** 2 / (1 + alpha * s))
        psi2 = sigma2**2 * (1 + 2 * alpha * s) ** -0.5 * np.exp(-alpha * (mu - z) ** 2 / (1 + 2 * alpha * s))
        hand_mean = psi1 * (y - p1) * psi1 / (k / beta + psi2) + p1
        hand_var = sigma2 - psi1 * (1.0 / k - 1.0 / (k + beta * psi2)) * psi1
        pred = Predictor(st, blocks)
        p = pred.predict(0, 0, ())
        assert p.mean == pytest.approx(hand_mean, rel=1e-10)
        assert p.variance == pytest.approx(hand_var, rel=1e-10)

    def test_permutation_invariance_of_training_rows(self):
        table, blocks, state, _ = random_instance(4, n_users=1, ratings_per_user=6)
        block = blocks[0]
        p1 = Predictor(state, [block]).predict(0, 0, (1, 0.3))
        rng = np.random.default_rng(0)
        perm = rng.permutation(block.count)
        from gplvmf.data import UserBlock

        shuffled = UserBlock(
            user=block.user, items=block.items[perm], cat_values=block.cat_values[perm],
            real_values=block.real_values[perm], ratings=block.ratings[perm],
        )
        p2 = Predictor(state, [shuffled]).predict(0, 0, (1, 0.3))
        assert p1.mean == pytest.approx(p2.mean, rel=1e-10)
        assert p1.variance == pytest.approx(p2.variance, rel=1e-10)

    def test_constant_shift_in_no_kernel_case(self):
        # with sigma2 -> 0 predictions are phi1*; shifting the ratings and
        # the user bias by c shifts every prediction by exactly c
        table, blocks, state = collapsed_predict_setup(5)
        state.log_sigma2[:] = np.log(1e-30)
        base = Predictor(state, blocks).predict(0, 2, ()).mean
        c = 1.7
        shifted = state.copy()
        shifted.params["user_bias"][0] += c
        from gplvmf.data import UserBlock

        block = blocks[0]
        shifted_block = UserBlock(
            user=block.user, items=block.items, cat_values=block.cat_values,
            real_values=block.real_values, ratings=block.ratings + c,
        )
        moved = Predictor(shifted, [shifted_block]).predict(0, 2, ()).mean
        assert moved - base == pytest.approx(c, abs=1e-12)

    def test_unknown_item_and_category_degrade_gracefully(self):
        table, blocks, state, _ = random_instance(6, n_users=1)
        pred = Predictor(state, blocks)
        p = pred.predict(0, 999, (99, 0.0))
        assert np.isfinite(p.mean) and p.variance >= 0.0

        # An unseen code reads the trailing prior row of the kernel and the bias
        # table it indexes, so it predicts exactly like a seen code whose rows
        # hold the prior row.  The seen code is one the user's ratings never
        # read, so overwriting its rows leaves the user's posterior unchanged.
        table, blocks, state, _ = random_instance(6, n_users=1, n_items=8, cat_card=8)
        (block,) = blocks
        item = next(i for i in range(8) if i not in block.items)
        code = next(c for c in range(8) if c not in block.cat_values[:, 0])
        pred = Predictor(state, blocks)

        def with_prior_row(keys, row):
            copy = state.copy()
            for key in keys:
                copy.params[key][row] = copy.params[key][-1]
            return Predictor(copy, blocks)

        seen = with_prior_row(("item_mean", "item_log_var", "bias_item_mean", "bias_item_log_var"), item)
        for unseen in (999, -1, 8):
            assert pred.predict(0, unseen, (1, 0.3)) == seen.predict(0, item, (1, 0.3))
        seen = with_prior_row(("ctx_mean_0", "ctx_log_var_0", "bias_ctx_mean_0", "bias_ctx_log_var_0"), code)
        for unseen in (99, -1, 8):
            assert pred.predict(0, 2, (unseen, 0.3)) == seen.predict(0, 2, (code, 0.3))

    def test_unknown_user_policy(self):
        table, blocks, state, _ = random_instance(7, n_users=2)
        pred = Predictor(state, [blocks[0]])
        with pytest.raises(UnknownUserError, match="user 1"):
            pred.predict(1, 0, (0, 0.0))
        p = pred.predict(1, 0, (0, 0.0), unknown_user="global_mean")
        assert p.mean == pytest.approx(pred.global_mean)

    @pytest.mark.parametrize("policy", ["global-mean", "Error", None])
    def test_an_unknown_policy_is_rejected(self, policy):
        # a known user: the policy is checked before any lookup
        _, blocks, state, _ = random_instance(7, n_users=2)
        pred = Predictor(state, blocks)
        message = re.escape("unknown_user must be one of ('error', 'global_mean'), got " + repr(policy))
        with pytest.raises(ValueError, match=message):
            pred.predict(0, 0, (0, 0.0), unknown_user=policy)
        with pytest.raises(ValueError, match=message):
            pred.predict_rows([0], [0], [(0, 0.0)], unknown_user=policy)
        with pytest.raises(ValueError, match=message):
            pred.predict_rows([], [], [], unknown_user=policy)

    def test_variance_nonnegative_over_random_queries(self):
        table, blocks, state, _ = random_instance(8, n_users=3, ratings_per_user=6)
        pred = Predictor(state, blocks)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            user = int(rng.integers(0, 3))
            item = int(rng.integers(0, 6))
            ctx = (int(rng.integers(0, 3)), float(rng.normal()))
            assert pred.predict(user, item, ctx).variance >= 0.0

    def test_observation_noise_flag(self):
        table, blocks, state, _ = random_instance(9, n_users=1)
        pred = Predictor(state, blocks)
        p0 = pred.predict(0, 0, (0, 0.0))
        p1 = pred.predict(0, 0, (0, 0.0), include_noise=True)
        beta = float(np.exp(state.log_beta[0]))
        assert p1.variance - p0.variance == pytest.approx(1.0 / beta)

    def test_clamping(self):
        table, blocks, state, _ = random_instance(10, n_users=1)
        pred = Predictor(state, blocks, rating_scale=(1.0, 5.0))
        state.params["user_bias"][0] = 40.0
        pred2 = Predictor(state, blocks, rating_scale=(1.0, 5.0))
        p = pred2.predict(0, 0, (0, 0.0))
        assert p.clamped_mean == 5.0
        assert p.mean > 5.0

    def test_predict_rows_matches_single(self):
        # Each row of a batch must equal predict() on the same query bit for
        # bit: the rows mix real contexts, unseen codes, repeated users and
        # two rating counts (two chunks of users).
        state, blocks, standardization = batch_instance(11)
        users, items, rows = batch_queries(12, n=200)
        pred = Predictor(state, blocks, standardization=standardization, rating_scale=(1.0, 5.0))
        means, variances, clamped = pred.predict_rows(users, items, rows)
        single = [pred.predict(u, i, r) for u, i, r in zip(users, items, rows)]
        assert np.array_equal(means, [p.mean for p in single])
        assert np.array_equal(variances, [p.variance for p in single])
        assert np.array_equal(clamped, [p.clamped_mean for p in single])

        # Neither a fresh predictor per query nor one predictor walking the
        # queries backwards changes a bit.
        expected = list(zip(means, variances, clamped))
        for i, query in enumerate(zip(users, items, rows)):
            cold = Predictor(state, blocks, standardization=standardization, rating_scale=(1.0, 5.0))
            assert astuple(cold.predict(*query)) == expected[i]
        backwards = Predictor(state, blocks, standardization=standardization, rating_scale=(1.0, 5.0))
        for i in reversed(range(len(users))):
            assert astuple(backwards.predict(users[i], items[i], rows[i])) == expected[i]

    def test_users_outside_the_store_are_unknown(self):
        # the store is indexed by user id: an id outside the schema's users is
        # an unknown user, never an index error or a read of the last row
        state, blocks, standardization = batch_instance(17)
        query = (2, (1, 0.5, -0.5))
        count = state.schema.user_count
        for user in (-1, count, np.int64(-1), float(count)):
            pred = Predictor(state, blocks, standardization=standardization)
            with pytest.raises(UnknownUserError):
                pred.predict(user, *query)
            fallback = pred.predict(user, *query, unknown_user="global_mean")
            assert fallback.mean == pred.global_mean and np.isnan(fallback.variance)
            means, variances, _ = pred.predict_rows([user], [2], [query[1]], unknown_user="global_mean")
            assert means[0] == pred.global_mean and np.isnan(variances[0])

    def test_predict_rows_unknown_users_get_the_global_mean(self):
        state, blocks, _ = batch_instance(13)
        pred = Predictor(state, blocks[:4])
        users, items, rows = [0, 5, 1, 4, 0], [1, 2, 3, 0, 9], [(0, 0.1, 0.2), (1, 0.0, 0.0), (2, -1.0, 0.3),
                                                                  (0, 0.5, 0.5), (5, 1.0, -2.0)]
        means, variances, clamped = pred.predict_rows(users, items, rows, unknown_user="global_mean")
        for k, (u, i, r) in enumerate(zip(users, items, rows)):
            if u in (4, 5):
                assert means[k] == clamped[k] == pred.global_mean
                assert np.isnan(variances[k])
            else:
                p = pred.predict(u, i, r)
                assert (means[k], variances[k]) == (p.mean, p.variance)

    def test_predict_rows_error_names_first_unknown_user(self):
        state, blocks, _ = batch_instance(14)
        pred = Predictor(state, blocks[:4])
        with pytest.raises(UnknownUserError, match="user 5 "):
            pred.predict_rows([0, 5, 4], [0, 0, 0], [(0, 0.0, 0.0)] * 3)

    def test_predict_rows_wrong_context_length(self):
        state, blocks, _ = batch_instance(15)
        pred = Predictor(state, blocks)
        with pytest.raises(ValueError, match="expected 3 context values, got 2"):
            pred.predict_rows([0, 1], [0, 0], [(0, 0.0, 0.0), (1, 0.0)])

    @pytest.mark.parametrize(
        "row, message",
        [
            ((1.9, 0.0, 0.0), "context 'c0' value 1.9 is not an integer code"),
            ((float("nan"), 0.0, 0.0), "context 'c0' value nan is not an integer code"),
            ((float("inf"), 0.0, 0.0), "context 'c0' value inf is not an integer code"),
            ((1, float("nan"), 0.0), "context 'r0' value nan is not finite"),
            ((1, 0.0, float("inf")), "context 'r1' value inf is not finite"),
            ((1, 0.0, -float("inf")), "context 'r1' value -inf is not finite"),
        ],
    )
    def test_bad_context_values_are_rejected(self, row, message):
        # a fractional code must not read as its integer part, and a
        # non-finite real value must not reach the mean
        state, blocks, standardization = batch_instance(18)
        pred = Predictor(state, blocks, standardization=standardization)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pred.predict(0, 1, row)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pred.predict_rows([0, 1], [1, 1], [(1, 0.5, 0.5), row])
        # integral codes in float form are codes
        good = pred.predict(0, 1, (1.0, 0.5, 0.5))
        assert good == pred.predict(0, 1, (1, 0.5, 0.5))
        assert pred.predict_rows([0], [1], [(np.float64(1.0), 0.5, 0.5)])[0][0] == good.mean

    @pytest.mark.parametrize(
        "user, item, row, message",
        [
            (0, 1.9, (1, 0.5, 0.5), "item value 1.9 is not an integer code"),
            (0.7, 1, (1, 0.5, 0.5), "user value 0.7 is not an integer code"),
            (0, float("nan"), (1, 0.5, 0.5), "item value nan is not an integer code"),
            (0, 1e30, (1, 0.5, 0.5), "item value 1e+30 is not an integer code"),
            (0, 1, (1e30, 0.5, 0.5), "context 'c0' value 1e+30 is not an integer code"),
            (0, 1, (10**30, 0.5, 0.5), "context 'c0' value 1e+30 is not an integer code"),
        ],
    )
    def test_bad_indices_are_rejected(self, user, item, row, message):
        # a fractional user or item must not read as its integer part, and a
        # code beyond int64 must not be cast
        state, blocks, standardization = batch_instance(18)
        pred = Predictor(state, blocks, standardization=standardization)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pred.predict(user, item, row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                pred.predict_rows([0, user], [1, item], [(1, 0.5, 0.5), row])

    def test_integral_float_indices_are_indices(self):
        state, blocks, standardization = batch_instance(18)
        pred = Predictor(state, blocks, standardization=standardization)
        good = pred.predict(1, 2, (1, 0.5, 0.5))
        assert pred.predict(1.0, np.float64(2.0), (1, 0.5, 0.5)) == good
        assert pred.predict_rows([1.0], [np.float64(2.0)], [(1, 0.5, 0.5)])[0][0] == good.mean
        # a first query reads the user's row of the store by its integer id
        for user in (1.0, np.int64(1), np.float64(1.0)):
            cold = Predictor(state, blocks, standardization=standardization)
            assert cold.predict(user, 2, (1, 0.5, 0.5)) == good

    def test_predict_rows_empty_batch(self):
        state, blocks, _ = batch_instance(16)
        out = Predictor(state, blocks).predict_rows((), (), ())
        assert len(out) == 3
        assert all(isinstance(a, np.ndarray) and a.shape == (0,) for a in out)

    def test_a_repeated_batch_is_equal(self):
        schema = ContextSchema(300, 5, ())
        rng = np.random.default_rng(17)
        table = build_table(
            schema, users=np.repeat(np.arange(300), 2), items=rng.integers(0, 5, size=600),
            ratings=rng.normal(3.0, 1.0, size=600),
        )
        blocks = group_by_user(table)
        state = init_state(schema, blocks, TrainConfig(inducing_count=2, item_dim=1, context_dim=1, seed=17))
        pred = Predictor(state, blocks)
        users = rng.permutation(np.repeat(np.arange(300), 2))
        items = rng.integers(0, 5, size=600)
        first = pred.predict_rows(users, items, [()] * 600)
        again = pred.predict_rows(users, items, [()] * 600)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_queries_plan_nothing(self, monkeypatch):
        # every user is built when the predictor is made; no query plans
        import gplvmf.predict as predict

        state, blocks, standardization = batch_instance(18)
        users, items, rows = batch_queries(19, n=40)
        expected = Predictor(state, blocks, standardization=standardization).predict_rows(users, items, rows)
        pred = Predictor(state, blocks, standardization=standardization)

        def no_plan(*args):
            raise AssertionError("a query made a plan")

        monkeypatch.setattr(predict, "plan", no_plan)
        got = pred.predict_rows(users, items, rows)
        assert all(np.array_equal(a, b) for a, b in zip(expected, got))
        assert pred.predict(users[0], items[0], rows[0]).mean == expected[0][0]

    def test_a_memoized_plan_is_not_rebuilt(self, monkeypatch):
        # over group_by_user's blocks a predictor reuses the plan that
        # training made; any other sequence is planned afresh
        import gplvmf.bound as bound

        state, blocks, standardization = batch_instance(20)
        bound.plan(blocks, state)
        builds = []
        real = bound.Plan

        def spy(blocks, state):
            builds.append(blocks)
            return real(blocks, state)

        monkeypatch.setattr(bound, "Plan", spy)
        Predictor(state, blocks, standardization=standardization)
        assert builds == []
        Predictor(state, list(blocks), standardization=standardization)
        assert len(builds) == 1


class TestContextRelevance:
    def _state(self, alphas):
        schema = ContextSchema(
            2, 3,
            (ContextVariable("a", "categorical", 2), ContextVariable("b", "categorical", 2)),
        )
        table = build_table(
            schema, users=[0, 1], items=[0, 1], cat=[[0, 1], [1, 0]], ratings=[1.0, 2.0]
        )
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=2, item_dim=2, context_dim=2, seed=0)
        state = init_state(schema, blocks, cfg)
        state.log_alpha = np.log(np.asarray(alphas))
        return state, schema

    def test_equal_alphas_give_equal_shares(self):
        state, schema = self._state([0.3] * 6)
        rel = context_relevance(state)
        shares = [sh for _, _, sh in rel.entries]
        assert np.allclose(shares, 1.0 / 3.0)
        assert sum(shares) == pytest.approx(1.0)

    def test_zeroed_context_gets_zero_share(self):
        state, schema = self._state([0.3, 0.3, 0.3, 0.3, 1e-300, 1e-300])
        rel = context_relevance(state)
        assert rel.share("b") == pytest.approx(0.0, abs=1e-12)
        assert rel.share("a") > 0.4
