"""Collapsed bound: closed-form value, KL, gradients, and q(u)."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.integrate import quad

from gplvmf import (
    ArdKernel,
    ContextSchema,
    ContextVariable,
    SyntheticSpec,
    TrainConfig,
    group_by_user,
    init_state,
    kernel_matrix,
    kl_to_prior,
    optimal_qu,
    phi_statistics,
    raw_context_rows,
    sgd_epoch,
    synthesize,
    total_bound,
    user_bound,
)
from gplvmf.bound import kl_gradient
from conftest import (
    add_at_scatter,
    build_table,
    central_difference,
    max_rel_error,
    mc_log_marginal,
    one_user_distinct_table,
    random_instance,
    with_inducing,
)


def exact_log_marginal(block, state):
    """Dense GP log marginal N(y | m, K + I/beta) at the latent means."""
    mu_rows, _ = state.assemble_rows(block)
    sigma2 = float(np.exp(state.log_sigma2[block.user]))
    beta = float(np.exp(state.log_beta[block.user]))
    kern = ArdKernel(sigma2, np.exp(state.log_alpha))
    k = kernel_matrix(kern, mu_rows, mu_rows) + np.eye(block.count) / beta
    m = phi_statistics(state, block).phi1
    resid = block.ratings - m
    cf = cho_factor(k, lower=True)
    logdet = 2 * np.sum(np.log(np.diag(cf[0])))
    n = block.count
    return float(-0.5 * n * np.log(2 * np.pi) - 0.5 * logdet - 0.5 * resid @ cho_solve(cf, resid))


def collapsed_state(seed, n_items):
    """One-user state with near-zero variances and Z at the latent means."""
    rng = np.random.default_rng(seed)
    table = one_user_distinct_table(n_items, seed)
    blocks = group_by_user(table)
    cfg = TrainConfig(inducing_count=n_items, item_dim=2, context_dim=2, seed=seed)
    state = init_state(table.schema, blocks, cfg)
    state.item_mean[:n_items] = rng.normal(0, 1.2, size=(n_items, 2))
    state.item_log_var[:] = -45.0
    state.params["bias_item_log_var"][:] = -45.0
    mu_rows, _ = state.assemble_rows(blocks[0])
    state.z = mu_rows.copy()
    state.log_beta[:] = np.log(rng.uniform(0.5, 4.0))
    state.log_sigma2[:] = np.log(rng.uniform(0.5, 2.0))
    return blocks[0], state


def prior_latents(state):
    """Set every latent table, kernel and bias alike, to the prior; the
    tables are named here by hand, independently of the state's description."""
    ncat = len(state.schema.categorical_indices)
    names = ["item_mean", "item_log_var"] + [f"ctx_{v}_{j}" for j in range(ncat) for v in ("mean", "log_var")]
    for key in names + [f"bias_{name}" for name in names]:
        state.params[key][:] = 0.0


class TestKlToPrior:
    def test_prior_state_gives_zero(self):
        _, _, state, _ = random_instance(0, state_noise=0.0)
        prior_latents(state)
        assert kl_to_prior(state) == pytest.approx(0.0, abs=1e-14)

    def test_single_coordinate_half_mu_squared(self):
        _, _, state, _ = random_instance(1, state_noise=0.0)
        prior_latents(state)
        state.item_mean[0, 0] = 1.0
        assert kl_to_prior(state) == pytest.approx(0.5)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(2)
        total = 0.0
        mus = rng.normal(0, 1, size=6)
        svs = rng.uniform(0.2, 2.5, size=6)

        def kl_1d(mu, s):
            def integrand(x):
                qx = np.exp(-0.5 * (x - mu) ** 2 / s) / np.sqrt(2 * np.pi * s)
                px = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
                return qx * (np.log(qx) - np.log(px))

            val, _ = quad(integrand, mu - 12 * np.sqrt(s), mu + 12 * np.sqrt(s), limit=200)
            return val

        closed = sum(0.5 * (m**2 + s - np.log(s) - 1.0) for m, s in zip(mus, svs))
        numeric = sum(kl_1d(m, s) for m, s in zip(mus, svs))
        assert closed == pytest.approx(numeric, abs=1e-6)

    def test_zero_iff_prior(self):
        _, _, state, _ = random_instance(3)
        assert kl_to_prior(state) > 0.0

    def test_gradients(self):
        _, _, state, _ = random_instance(4)
        # the closed form per table, by hand; nothing past the tables' prefix
        expected, grads = state.zero_grads()
        for t in state.layout.tables:
            grads[t.mean][:] = state.params[t.mean]
            grads[t.log_var][:] = 0.5 * (np.exp(state.params[t.log_var]) - 1.0)
        end = state.layout.table_end
        assert np.allclose(kl_gradient(state.flat[:end], state.layout.is_var), expected[:end])
        assert not expected[end:].any()


class TestUserBound:
    def test_scalar_hand_formula(self):
        table = one_user_distinct_table(1, 0)
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=1, item_dim=1, context_dim=1, seed=0)
        st = init_state(table.schema, blocks, cfg)
        st.item_mean[0, 0] = 0.3
        st.item_log_var[0, 0] = np.log(0.4)
        st.params["user_bias"][0] = 0.7
        st.params["bias_item_mean"][0, 0] = -0.2
        st.params["bias_item_log_var"][0, 0] = np.log(0.25)
        st.z = np.array([[0.5]])
        st.log_alpha = np.array([np.log(2.0)])
        st.log_sigma2[:] = np.log(1.3)
        st.log_beta[:] = np.log(0.8)

        y = float(blocks[0].ratings[0])
        sigma2, beta, alpha = 1.3, 0.8, 2.0
        mu, s, z = 0.3, 0.4, 0.5
        k = sigma2 * (1.0 + 1e-6)
        psi0 = sigma2
        psi1 = sigma2 * (1 + alpha * s) ** -0.5 * np.exp(-0.5 * alpha * (mu - z) ** 2 / (1 + alpha * s))
        psi2 = sigma2**2 * (1 + 2 * alpha * s) ** -0.5 * np.exp(-alpha * (mu - z) ** 2 / (1 + 2 * alpha * s))
        p1 = 0.7 - 0.2
        p0 = p1**2 + 0.25
        a = k + beta * psi2
        w1 = beta * (y * y - 2 * y * p1 + p0)
        w2 = beta**2 * (y - p1) ** 2 * psi1**2 / a
        hand = (
            0.5 * np.log(beta)
            - 0.5 * np.log(2 * np.pi)
            + 0.5 * np.log(k)
            - 0.5 * np.log(a)
            - 0.5 * (w1 - w2)
            - 0.5 * beta * psi0
            + 0.5 * beta * psi2 / k
        )
        assert user_bound(blocks[0], st) == pytest.approx(hand, abs=1e-12)

    def test_tight_at_inducing_equals_latents(self):
        # Z at the latent means, M = N, variances -> 0: Titsias bound is exact
        for seed in range(5):
            block, state = collapsed_state(seed, n_items=5)
            f = user_bound(block, state, jitter=1e-12)
            exact = exact_log_marginal(block, state)
            assert f == pytest.approx(exact, abs=1e-6)

    def test_below_monte_carlo_marginal(self):
        for seed in (0, 1):
            table, blocks, state, _ = random_instance(
                seed + 50, n_users=1, n_items=3, ratings_per_user=3,
                m=2, item_dim=1, context_dim=1, cat_card=2, with_real=False,
                state_noise=0.2,
            )
            rep = total_bound(blocks, state, want_gradients=False)
            estimate, se = mc_log_marginal(blocks[0], state, samples=150_000, seed=seed)
            assert rep.total <= estimate + 4 * se

    def test_permutation_invariance(self):
        table, blocks, state, _ = random_instance(5, n_users=1, ratings_per_user=6)
        block = blocks[0]
        f1 = user_bound(block, state)
        rng = np.random.default_rng(0)
        perm = rng.permutation(block.count)
        from gplvmf.data import UserBlock

        shuffled = UserBlock(
            user=block.user,
            items=block.items[perm],
            cat_values=block.cat_values[perm],
            real_values=block.real_values[perm],
            ratings=block.ratings[perm],
        )
        assert user_bound(shuffled, state) == pytest.approx(f1, rel=1e-12)

    def test_duplicate_inducing_point_is_inert(self):
        table, blocks, state, _ = random_instance(6, n_users=1, m=3)
        f1 = total_bound(blocks, state, jitter=1e-12, want_gradients=False).total
        state2 = with_inducing(state, np.vstack([state.z, state.z[-1]]))
        f2 = total_bound(blocks, state2, jitter=1e-12, want_gradients=False).total
        assert abs(f2 - f1) < 1e-8


class TestJitterEscalation:
    def test_escalates_twice_then_succeeds(self):
        from gplvmf.bound import _chol_with_escalation

        # smallest eigenvalue -5e-5: base 1e-6 and 1e-5 fail, 1e-4 rescues
        mat = np.diag([1.0, 1.0, -5e-5])
        chol, used = _chol_with_escalation(mat, 1e-6, "test matrix")
        assert used == pytest.approx(1e-4)
        assert np.all(np.isfinite(chol))

    def test_reports_diagnostics_on_failure(self):
        from gplvmf.bound import FactorizationError, _chol_with_escalation

        mat = np.diag([1.0, -0.5])
        with pytest.raises(FactorizationError, match="eigenvalue range"):
            _chol_with_escalation(mat, 1e-6, "test matrix")


class TestTotalBound:
    def test_single_user_decomposition(self):
        table, blocks, state, _ = random_instance(7, n_users=1)
        rep = total_bound(blocks, state, want_gradients=False)
        assert rep.total == pytest.approx(user_bound(blocks[0], state) - rep.kl, rel=1e-12)

    def test_duplicated_block_doubles_contribution(self):
        table, blocks, state, _ = random_instance(8, n_users=1)
        rep1 = total_bound(blocks, state, want_gradients=False)
        rep2 = total_bound(blocks + blocks, state, want_gradients=False)
        assert rep2.kl == pytest.approx(rep1.kl)
        assert rep2.per_user.shape == (2,)
        assert rep2.total == pytest.approx(rep1.total + rep1.per_user[0], rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        table, blocks, state, _ = random_instance(9)
        rep = total_bound(blocks, state)
        v0 = state.to_vector()
        fd = central_difference(
            lambda v: total_bound(blocks, state.from_vector(v), want_gradients=False).total,
            v0,
        )
        assert max_rel_error(rep.gradients, fd) < 1e-4

    def test_fixed_coordinates_not_in_vector(self):
        # the real-context column is data, not a parameter: the flat vector
        # counts only free coordinates
        table, blocks, state, _ = random_instance(10)
        expected = sum(arr.size for _, arr in state.param_entries())
        assert state.to_vector().size == expected
        names = [key for key, _ in state.param_entries()]
        assert all("real_coord" not in n for n in names)
        # exactly one fixed kernel column (the real context)
        assert state.layout.fixed_mask.sum() == 1


class TestOptimalQu:
    def test_zero_residual_gives_zero_mean(self):
        table, blocks, state, _ = random_instance(11, n_users=1)
        block = blocks[0]
        # set ratings equal to phi1 so the residual vanishes
        phi1 = phi_statistics(state, block).phi1
        from gplvmf.data import UserBlock

        block0 = UserBlock(
            user=block.user,
            items=block.items,
            cat_values=block.cat_values,
            real_values=block.real_values,
            ratings=phi1.copy(),
        )
        mu_u, sigma_u = optimal_qu(block0, state)
        assert np.allclose(mu_u, 0.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(sigma_u)
        assert np.all(eigs > 0)

    def test_scalar_hand_algebra(self):
        table = one_user_distinct_table(1, 3)
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=1, item_dim=1, context_dim=1, seed=3)
        st = init_state(table.schema, blocks, cfg)
        st.item_mean[0, 0] = -0.4
        st.item_log_var[0, 0] = np.log(0.3)
        st.z = np.array([[0.2]])
        st.log_alpha = np.array([np.log(1.5)])
        st.log_sigma2[:] = np.log(0.9)
        st.log_beta[:] = np.log(2.0)
        y = float(blocks[0].ratings[0])
        p1 = float(st.params["user_bias"][0] + st.params["bias_item_mean"][0].sum())
        sigma2, beta, alpha = 0.9, 2.0, 1.5
        mu, s, z = -0.4, 0.3, 0.2
        k = sigma2 * (1 + 1e-6)
        psi1 = sigma2 * (1 + alpha * s) ** -0.5 * np.exp(-0.5 * alpha * (mu - z) ** 2 / (1 + alpha * s))
        psi2 = sigma2**2 * (1 + 2 * alpha * s) ** -0.5 * np.exp(-alpha * (mu - z) ** 2 / (1 + 2 * alpha * s))
        mu_hand = k / (k / beta + psi2) * psi1 * (y - p1)
        s_hand = (k / beta) / (k / beta + psi2) * k
        mu_u, sigma_u = optimal_qu(blocks[0], st)
        assert mu_u[0] == pytest.approx(mu_hand, rel=1e-10)
        assert sigma_u[0, 0] == pytest.approx(s_hand, rel=1e-10)

    def test_noiseless_interpolation_limit(self):
        # beta large, Z = X, variances 0: posterior over u reproduces residuals
        block, state = collapsed_state(13, n_items=4)
        state.log_beta[:] = np.log(1e8)
        mu_u, _ = optimal_qu(block, state, jitter=1e-12)
        resid = block.ratings - phi_statistics(state, block).phi1
        assert np.allclose(mu_u, resid, atol=1e-5)

    def test_covariance_spd(self):
        for seed in range(3):
            table, blocks, state, _ = random_instance(seed + 60, n_users=1)
            _, sigma_u = optimal_qu(blocks[0], state)
            assert np.allclose(sigma_u, sigma_u.T)
            assert np.all(np.linalg.eigvalsh(sigma_u) > 0)


def one_user_reference(blocks, state, jitter=1e-6):
    """Per-user values, total and flat gradient from one-user calls alone,
    scattered by the ``np.add.at`` oracle."""
    from gplvmf.bound import Chunk, _user_terms, shared_factors

    shared = shared_factors(state, jitter)
    grad, grads = state.zero_grads()
    values = []
    for block in blocks:
        chunk = Chunk([block], state)
        terms = _user_terms(chunk, state, shared, want_gradients=True)
        values.append(terms.value[0])
        add_at_scatter(state, chunk, terms, grads)
    kl = kl_to_prior(state)
    for t in state.layout.tables:
        grads[t.mean] -= state.params[t.mean]
        grads[t.log_var] -= 0.5 * (np.exp(state.params[t.log_var]) - 1.0)
    return np.array(values), sum(values) - kl, grad


def assert_matches_reference(rep, reference):
    values, total, grad = reference
    np.testing.assert_allclose(rep.per_user, values, rtol=1e-12, atol=0)
    assert rep.total == pytest.approx(total, rel=1e-12)
    assert np.max(np.abs(rep.gradients - grad)) <= 1e-10 * np.max(np.abs(grad))


STACKED_SHAPES = {
    "mixed": dict(n_users=4),
    "one_rating_users": dict(n_users=5, ratings_per_user=1),
    "m_above_n": dict(n_users=3, ratings_per_user=2, m=5),
    "no_contexts": dict(n_users=3, cat_card=0, with_real=False),
    "only_real_contexts": dict(n_users=3, cat_card=0),
    "no_mean": dict(n_users=3, use_mean=False),
    # the benchmark's medium_real shape: the default rule puts several users,
    # not all, in a chunk
    "medium_real_like": dict(n_users=7, ratings_per_user=100, m=20),
}


def chunk_size(n, m, q):
    """Doubles a user of n ratings counts against bound._ROW_BUDGET: its
    packed Psi2 rows and the backward pass's two (P, 2Q + 2) stacks."""
    return m * (m + 1) // 2 * (n + 2 * (2 * q + 2))


class TestStackedBound:
    @pytest.mark.parametrize("shape", sorted(STACKED_SHAPES))
    def test_matches_one_user_calls(self, shape, monkeypatch):
        import gplvmf.bound as bound

        _, blocks, state, _ = random_instance(21, **STACKED_SHAPES[shape])
        reference = one_user_reference(blocks, state)
        size, u = chunk_size(blocks[0].count, state.inducing_count, state.kernel_dim), len(blocks)
        per_chunk = bound._ROW_BUDGET // size
        assert per_chunk > 1
        # the default budget, then one user and two users per chunk, so that
        # the last chunk is short
        for budget, chunks in ((bound._ROW_BUDGET, -(-u // per_chunk)), (1, u), (2 * size, (u + 1) // 2)):
            monkeypatch.setattr(bound, "_ROW_BUDGET", budget)
            assert len(bound._chunks(blocks, state)) == chunks
            assert_matches_reference(total_bound(blocks, state), reference)

    @pytest.mark.parametrize("shape", sorted(STACKED_SHAPES))
    def test_a_users_terms_do_not_depend_on_its_chunk(self, shape):
        # every product a user's terms take is one product per user, so each
        # user of a chunk gets the bits of its one-user chunk
        from gplvmf.bound import Chunk, _terms, shared_factors, user_posterior

        _, blocks, state, _ = random_instance(26, **STACKED_SHAPES[shape])
        shared = shared_factors(state)
        chunk = _terms(Chunk(blocks, state), state, shared, want_gradients=True)
        post = user_posterior(Chunk(blocks, state), state, shared=shared)
        n = blocks[0].count
        for i, block in enumerate(blocks):
            one = _terms(Chunk([block], state), state, shared, want_gradients=True)
            one_post = user_posterior(Chunk([block], state), state, shared=shared)
            rows = slice(i * n, (i + 1) * n)
            for key in ("value", "glog_sigma2", "glog_beta"):
                assert getattr(chunk, key)[i] == getattr(one, key)[0]
            for key in ("gmu_rows", "glog_var_rows", "dphi1", "phi1"):
                assert np.array_equal(getattr(chunk, key)[rows], getattr(one, key))
            assert np.array_equal(post.v[i], one_post.v[0])
            assert np.array_equal(post.chol_b[i], one_post.chol_b[0])

    def test_duplicated_blocks_share_a_chunk(self):
        _, blocks, state, _ = random_instance(22, n_users=3)
        doubled = blocks + blocks[::-1]
        assert_matches_reference(total_bound(doubled, state), one_user_reference(doubled, state))

    def test_one_psi_pass_per_chunk(self, monkeypatch):
        import gplvmf.bound as bound

        # 300 users of 6 or 7 ratings at M = 8: users of equal counts share
        # chunks of at most _ROW_BUDGET // chunk_size(n, M, Q) users
        rng = np.random.default_rng(23)
        counts = np.where(np.arange(300) % 2 == 0, 6, 7)
        schema = ContextSchema(300, 10, (ContextVariable("c0", "categorical", 3),))
        n = counts.sum()
        table = build_table(
            schema, users=np.repeat(np.arange(300), counts), items=rng.integers(0, 10, size=n),
            cat=rng.integers(0, 3, size=(n, 1)), ratings=rng.normal(3.0, 1.0, size=n),
        )
        blocks = group_by_user(table)
        state = init_state(schema, blocks, TrainConfig(inducing_count=8, item_dim=2, context_dim=2, seed=23))
        per_chunk = [bound._ROW_BUDGET // chunk_size(c, 8, state.kernel_dim) for c in (6, 7)]
        expected = sum(int(np.ceil(150 / k)) for k in per_chunk)
        assert expected < 10

        calls = {"psi": 0, "backward": 0}
        real_cache, real_backward = bound._PsiCache, bound.psi_backward

        def cache_spy(*args, **kwargs):
            calls["psi"] += 1
            return real_cache(*args, **kwargs)

        def backward_spy(*args, **kwargs):
            calls["backward"] += 1
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(bound, "_PsiCache", cache_spy)
        monkeypatch.setattr(bound, "psi_backward", backward_spy)
        total_bound(blocks, state)
        assert calls == {"psi": expected, "backward": expected}

    def test_call_budget_of_a_step_and_of_the_bound(self, monkeypatch):
        # the (Z, alpha) side is built once per shared_factors call, which SGD
        # makes once per step and total_bound once per call, and each step
        # makes one psi pass forward and back
        import gplvmf.bound as bound
        import gplvmf.kernels as kernels
        import gplvmf.optim as optim

        _, blocks, state, cfg = random_instance(27, n_users=12, ratings_per_user=4)
        monkeypatch.setattr(bound, "_ROW_BUDGET", 2 * chunk_size(4, state.inducing_count, state.kernel_dim))
        assert len(bound.plan(blocks, state).chunks) == 6
        calls = dict.fromkeys(("side", "shared", "psi", "backward"), 0)

        class SideSpy(kernels._InducingSide):
            def __init__(self, *args):
                calls["side"] += 1
                super().__init__(*args)

        def spy(key, real):
            def call(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(bound, "_InducingSide", SideSpy)
        monkeypatch.setattr(optim, "shared_factors", spy("shared", bound.shared_factors))
        monkeypatch.setattr(bound, "_PsiCache", spy("psi", bound._PsiCache))
        monkeypatch.setattr(bound, "psi_backward", spy("backward", bound.psi_backward))
        sgd_epoch(blocks, state, cfg, 0)
        assert calls == dict.fromkeys(("side", "shared", "psi", "backward"), len(blocks))
        calls.update(dict.fromkeys(calls, 0))
        total_bound(blocks, state)
        assert calls == {"side": 1, "shared": 0, "psi": 6, "backward": 6}

    def test_call_budget_of_a_predictor(self, monkeypatch):
        # a predictor builds every user when it is made, one user_posterior
        # call per chunk of the plan; its queries then build and plan nothing
        import gplvmf.bound as bound
        import gplvmf.predict as predict

        table, blocks, state, _ = random_instance(27, n_users=12, ratings_per_user=4)
        monkeypatch.setattr(bound, "_ROW_BUDGET", 2 * chunk_size(4, state.inducing_count, state.kernel_dim))
        assert len(bound.plan(blocks, state).chunks) == 6
        calls = dict.fromkeys(("plan", "posterior"), 0)

        def spy(key, real):
            def call(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(predict, "plan", spy("plan", predict.plan))
        monkeypatch.setattr(predict, "user_posterior", spy("posterior", predict.user_posterior))
        pred = predict.Predictor(state, blocks, standardization=table.standardization)
        assert calls == {"plan": 1, "posterior": 6}
        rows = raw_context_rows(table)
        pred.predict_rows(table.users, table.items, rows)
        pred.predict(table.users[0], table.items[0], rows[0])
        assert calls == {"plan": 1, "posterior": 6}

    def _poison(self, monkeypatch, block, state, rtol):
        """Make np.linalg.cholesky fail, alone or inside a stack, on any
        matrix within ``rtol`` of the user's B = I + beta * T."""
        from gplvmf.bound import Chunk, _forward, shared_factors

        fw = _forward(Chunk([block], state), state, shared_factors(state))
        poisoned = np.eye(state.inducing_count) + fw.beta[0] * fw.t_mat[0]
        tol = rtol * np.max(np.abs(poisoned))
        real = np.linalg.cholesky

        def picky(a):
            a = np.asarray(a)
            if any(np.max(np.abs(x - poisoned)) <= tol for x in a.reshape(-1, *poisoned.shape)):
                raise np.linalg.LinAlgError("not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", picky)

    def test_failing_user_alone_is_escalated(self, monkeypatch):
        _, blocks, state, _ = random_instance(24, n_users=4)
        alone = [user_bound(b, state) for b in blocks]
        # user 2's B fails as computed (to rounding) and factors once
        # escalation adds 10x the base jitter
        self._poison(monkeypatch, blocks[2], state, rtol=1e-12)
        escalated = user_bound(blocks[2], state)
        assert escalated != pytest.approx(alone[2], rel=1e-12)
        rep = total_bound(blocks, state)
        np.testing.assert_allclose(rep.per_user, alone[:2] + [escalated] + alone[3:], rtol=1e-12, atol=0)
        assert_matches_reference(rep, one_user_reference(blocks, state))

    def test_unfactorable_user_is_named(self, monkeypatch):
        from gplvmf.bound import FactorizationError

        _, blocks, state, _ = random_instance(25, n_users=4)
        # every escalation of user 1's B (at most 1e-4 * I) still fails
        self._poison(monkeypatch, blocks[1], state, rtol=1e-3)
        with pytest.raises(FactorizationError, match=f"user {blocks[1].user} system"):
            total_bound(blocks, state)


def assert_same_report(rep, other):
    assert np.array_equal(rep.per_user, other.per_user)
    assert rep.total == other.total
    assert np.array_equal(rep.gradients, other.gradients)


class TestPlan:
    """The plan is memoized on group_by_user's result, keyed by the layout,
    the inducing count and the chunk budget; any other sequence gets a fresh
    one.  Changing one of those must give what a fresh plan gives."""

    def check_against_fresh(self, blocks, state):
        import gplvmf.bound as bound

        assert len(bound.plan(blocks, state).chunks) == len(bound.plan(list(blocks), state).chunks)
        assert_same_report(total_bound(blocks, state), total_bound(list(blocks), state))

    def test_each_key_change_matches_a_fresh_plan(self, monkeypatch):
        import dataclasses

        import gplvmf.bound as bound

        _, blocks, state, cfg = random_instance(41, n_users=6, ratings_per_user=3, m=4)
        self.check_against_fresh(blocks, state)
        first = len(bound.plan(blocks, state).chunks)
        # a budget of one user per chunk
        monkeypatch.setattr(bound, "_ROW_BUDGET", 1)
        self.check_against_fresh(blocks, state)
        assert len(bound.plan(blocks, state).chunks) == len(blocks) > first
        monkeypatch.undo()
        # new dims: another inducing count, no mean function
        for other in (init_state(state.schema, blocks, dataclasses.replace(cfg, inducing_count=6)),
                      init_state(state.schema, blocks, dataclasses.replace(cfg, use_mean=False))):
            self.check_against_fresh(blocks, other)
        # and back: the first plan is still the one used
        self.check_against_fresh(blocks, state)
        assert len(blocks.plans) == 4

    def test_built_once_per_sequence_and_not_at_setup(self, monkeypatch):
        import gplvmf.bound as bound

        builds = []
        real = bound.Plan

        def spy(blocks, state):
            builds.append(blocks)
            return real(blocks, state)

        monkeypatch.setattr(bound, "Plan", spy)
        table, _, _, cfg = random_instance(42, n_users=5)
        blocks = group_by_user(table)
        state = init_state(table.schema, blocks, cfg)
        assert builds == []
        for k in range(3):
            total_bound(blocks, state.from_vector(state.flat + 0.01 * k))
        for epoch in range(2):
            sgd_epoch(blocks, state, cfg, epoch)
        assert len(builds) == 1 and builds[0] is blocks
        # a slice or a list is planned afresh at every call
        for _ in range(2):
            total_bound(blocks[:3], state)
            total_bound(list(blocks), state)
        assert [type(b) for b in builds[1:]] == [tuple, list, tuple, list]

    def test_sgd_steps_are_planned_once(self, monkeypatch):
        import gplvmf.bound as bound

        _, blocks, state, cfg = random_instance(43, n_users=4)
        sgd_epoch(blocks, state, cfg, 0)
        monkeypatch.setattr(bound, "Chunk", None)   # any further chunk build fails
        for epoch in range(1, 3):
            sgd_epoch(blocks, state, cfg, epoch)
            total_bound(blocks, state)

    @pytest.mark.parametrize("with_real", [False, True], ids=["categorical_only", "real_context"])
    def test_seeded_sgd_does_not_depend_on_the_chunking(self, with_real, monkeypatch):
        # users of 2, 3 and 5 ratings: the default budget puts users of equal
        # counts in one chunk, a budget of 1 gives every user a chunk
        import gplvmf.bound as bound

        table, _, state, cfg = random_instance(45, n_users=9, ratings_per_user=5, with_real=with_real)
        keep = np.arange(len(table)) % 5 < np.repeat(np.tile([2, 3, 5], 3), 5)
        blocks = group_by_user(table.subset(np.flatnonzero(keep), table.standardization))
        assert sorted({b.count for b in blocks}) == [2, 3, 5]
        ends = []
        for budget in (bound._ROW_BUDGET, 1):
            monkeypatch.setattr(bound, "_ROW_BUDGET", budget)
            assert len(bound.plan(blocks, state).chunks) == (3 if budget > 1 else len(blocks))
            trained = state.copy()
            for epoch in range(3):
                sgd_epoch(blocks, trained, cfg, epoch)
            ends.append(trained.flat)
        assert np.array_equal(ends[0], ends[1]) and not np.array_equal(ends[0], state.flat)

    @pytest.mark.parametrize("shape", [dict(with_real=False), dict(with_real=False, use_mean=False), dict()],
                             ids=["bias_tables", "no_bias_tables", "real_context"])
    def test_steps_equal_a_unique_of_each_block(self, shape, monkeypatch):
        # each block's step is a one-user chunk of its own, whatever the
        # chunking; its entries must be what np.unique of its positions gives
        import gplvmf.bound as bound

        _, blocks, state, _ = random_instance(44, n_users=7, ratings_per_user=3, **shape)
        monkeypatch.setattr(bound, "_ROW_BUDGET", 3 * chunk_size(3, state.inducing_count, state.kernel_dim))
        assert [len(c.idx) for c in bound.plan(blocks, state).chunks] == [3, 3, 1]
        var_keys = {t.log_var for t in state.layout.tables}
        is_var = np.repeat([key in var_keys for key in state.layout.keys], np.diff(state.layout.offsets))
        table_end = state.layout.offsets[2 * len(state.layout.tables)]
        for block, (one, idx, local, var) in zip(blocks, bound.plan(blocks, state).steps(state)):
            alone = bound.Chunk([block], state)
            ref_idx, ref_local = np.unique(alone.pos, return_inverse=True)
            assert np.array_equal(idx, ref_idx) and np.array_equal(one.gather, alone.gather)
            assert local.dtype == np.min_scalar_type(ref_idx.size) and np.array_equal(local, ref_local)
            assert np.array_equal(var, is_var[ref_idx[: np.searchsorted(ref_idx, table_end)]])


def unequal_chunks_instance(seed):
    """Users of 2, 3 and 5 ratings, three of each: a plan of three chunks of
    unequal row counts."""
    table, _, state, _ = random_instance(seed, n_users=9, ratings_per_user=5)
    keep = np.arange(len(table)) % 5 < np.repeat(np.tile([2, 3, 5], 3), 5)
    blocks = group_by_user(table.subset(np.flatnonzero(keep), table.standardization))
    assert sorted({b.count for b in blocks}) == [2, 3, 5]
    return blocks, state


HOLDER_SHAPES = ("one_rating_users", "m_above_n", "no_contexts", "only_real_contexts")
REUSED_ROLES = ["by_pair", "by_row1", "by_row2", "psi1", "psi2_rows", "stack"]


class TestWorkBuffers:
    """A plan keeps float64 work buffers, one per role, that total_bound's
    chunks reuse from call to call (gplvmf.kernels.WorkBuffers).  They change
    no bit of any result, and nothing handed back is a view of them."""

    def test_a_second_call_adds_no_buffer(self):
        import gplvmf.bound as bound

        blocks, state = unequal_chunks_instance(51)
        chunks = bound.plan(blocks, state).chunks
        assert len({chunk.rows.count for chunk in chunks}) == 3
        total_bound(blocks, state)
        first = dict(bound.plan(blocks, state).work.buffers)
        assert sorted(first) == REUSED_ROLES
        for moved in (state.from_vector(state.to_vector() + 0.01), state):
            total_bound(blocks, moved)
            total_bound(blocks, moved, want_gradients=False)
        later = bound.plan(blocks, state).work.buffers
        assert sorted(later) == REUSED_ROLES and all(later[role] is first[role] for role in first)

    def test_no_returned_array_is_a_view_of_a_buffer(self):
        import gplvmf.bound as bound

        blocks, state = unequal_chunks_instance(52)
        the_plan = bound.plan(blocks, state)
        reports = [total_bound(blocks, state) for _ in range(2)]
        shared = bound.shared_factors(state)
        returned = [a for rep in reports for a in (rep.gradients, rep.per_user, *rep.grad_dict.values())]
        for chunk in the_plan.chunks:
            terms = bound._terms(chunk, state, shared, True, the_plan.work)
            returned += [a for a in terms if a is not None]
        buffers = list(the_plan.work.buffers.values())
        assert sorted(the_plan.work.buffers) == REUSED_ROLES
        assert not any(np.shares_memory(a, buffer) for a in returned for buffer in buffers)

    @pytest.mark.parametrize("shape", HOLDER_SHAPES + ("unequal_chunks",))
    def test_a_holder_changes_no_bit(self, shape):
        # one holder for every chunk, taken in plan order and back, so its
        # buffers both grow and hand out views shorter than themselves
        from gplvmf.bound import Chunk, _chunks, _forward, _terms, shared_factors
        from gplvmf.kernels import WorkBuffers

        if shape == "unequal_chunks":
            blocks, state = unequal_chunks_instance(53)
        else:
            _, blocks, state, _ = random_instance(53, **STACKED_SHAPES[shape])
        shared, work = shared_factors(state), WorkBuffers()
        chunks = [Chunk(blocks, state, idx) for idx in _chunks(blocks, state)]
        for chunk in chunks + chunks[::-1]:
            plain, held = _forward(chunk, state, shared), _forward(chunk, state, shared, work)
            for name, a, b in zip(plain._fields, plain, held):
                if name == "cache":
                    assert np.array_equal(a.psi1, b.psi1) and np.array_equal(a.psi2_rows, b.psi2_rows)
                    assert np.shares_memory(b.psi2_rows, work.buffers["psi2_rows"])
                else:
                    assert np.array_equal(a, b), name
            for want_gradients in (False, True):
                plain, held = _terms(chunk, state, shared, want_gradients), _terms(chunk, state, shared,
                                                                                  want_gradients, work)
                for name, a, b in zip(plain._fields, plain, held):
                    assert (a is None and b is None) or np.array_equal(a, b), name
        assert sorted(work.buffers) == REUSED_ROLES

    def test_a_steady_call_allocates_none_of_the_reused_arrays(self):
        # many_small's shape: 300 users of 18 ratings at M = 8.  The first
        # call on a plan makes its buffers; every later call's traced peak is
        # lower by at least their bytes: the Psi1 and Psi2 rows, the backward
        # pass's two row products and its two (G, P, 2Q + 2) stacks, at the
        # largest chunk of G users
        import gplvmf.bound as bound

        _, blocks, state, _ = random_instance(54, n_users=300, n_items=40, ratings_per_user=18, m=8)
        chunks = bound.plan(blocks, state).chunks
        g = max(len(chunk.idx) for chunk in chunks)
        n, m, p, k = 18 * g, 8, 36, 2 * state.kernel_dim + 2
        assert len(chunks) > 1 and len(chunks[0].idx) == g
        reused = 8 * (n * (m + p + 2 * k) + 2 * g * p * k)
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                total_bound(blocks, state)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == peaks[2]
        assert peaks[0] - peaks[1] >= reused


class TestIllConditionedGradient:
    def test_gradient_steady_under_a_tiny_state_change(self):
        # A trained state whose inducing gram is as ill-conditioned as those
        # of trained benchmark states (cond(C) about 3e7): a 1e-12 change of
        # the state must move the z gradient by rounding only.  Explicit
        # inverses of K and A, whose large entries cancel in dF/dK, moved it
        # by about 4e-4 of its largest entry here.
        from gplvmf.bound import shared_factors

        ctx = (ContextVariable("mood", "categorical", 4), ContextVariable("place", "categorical", 3))
        spec = SyntheticSpec(
            user_count=2, item_count=30, contexts=ctx, ratings_per_user=150, context_alphas=(1.0, 0.5),
            noise_precision=4.0, user_bias_mean=3.0, seed=202,
        )
        table, _ = synthesize(spec)
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=30, item_dim=2, context_dim=2, epochs=24,
                          learning_rate=0.05, lr_decay=0.99, seed=0)
        state = init_state(table.schema, blocks, cfg)
        for epoch in range(cfg.epochs):
            sgd_epoch(blocks, state, cfg, epoch)
        shared = shared_factors(state)
        assert np.linalg.cond(shared.side.gram + shared.jitter * np.eye(len(shared.linv))) >= 1e7

        rep = total_bound(blocks, state)
        x = state.to_vector()
        rng = np.random.default_rng(0)
        spread = 0.0
        for _ in range(4):
            d = rng.standard_normal(x.size)
            moved = total_bound(blocks, state.from_vector(x + 1e-12 * d / np.linalg.norm(d)))
            spread = max(spread, np.max(np.abs(moved.grad_dict["z"] - rep.grad_dict["z"])))
        assert spread <= 1e-6 * np.max(np.abs(rep.grad_dict["z"]))
