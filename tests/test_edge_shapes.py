"""The bound, SGD and the predictor at the edge shapes training meets:
one-rating users, more inducing points than ratings, no contexts, only real
contexts, coinciding inducing points, and bias tables two wide (items) and
zero wide (contexts); the predictor also without a mean function."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from gplvmf import ArdKernel, LatentPoints, Predictor, kernel_matrix, optimal_qu, psi_statistics, sgd_epoch, total_bound
from gplvmf.data import context_rows
from conftest import random_instance

EDGE_SHAPES = {
    "one_rating_users": dict(n_users=3, ratings_per_user=1),
    "more_inducing_than_ratings": dict(n_users=2, ratings_per_user=3, m=8),
    "no_contexts": dict(cat_card=0, with_real=False),
    "only_real_contexts": dict(cat_card=0, with_real=True),
    "coinciding_inducing": dict(m=4),
    "wide_and_empty_bias_tables": dict(item_bias_dim=2, context_bias_dim=0),
}
PREDICT_SHAPES = {**EDGE_SHAPES, "no_mean_function": dict(use_mean=False)}


def edge_instance(case, seed):
    table, blocks, state, cfg = random_instance(seed, **PREDICT_SHAPES[case])
    if case == "coinciding_inducing":
        state.z[2] = state.z[0]
        assert np.array_equal(state.z[2], state.z[0])
    return table, blocks, state, cfg


@pytest.mark.parametrize("case", EDGE_SHAPES)
def test_bound_directional_derivative_matches_central_difference(case):
    for seed in range(3):
        _, blocks, state, _ = edge_instance(case, 100 + seed)
        report = total_bound(blocks, state, want_gradients=True)
        x = state.to_vector()
        direction = np.random.default_rng(seed).standard_normal(x.size)
        direction /= np.linalg.norm(direction)

        def value(v):
            return total_bound(blocks, state.from_vector(v), want_gradients=False).total

        step = 1e-5
        numeric = (value(x + step * direction) - value(x - step * direction)) / (2.0 * step)
        analytic = report.gradients @ direction
        assert np.isfinite(report.total)
        assert abs(analytic - numeric) / max(1.0, abs(numeric)) < 1e-6


@pytest.mark.parametrize("case", EDGE_SHAPES)
def test_seeded_sgd_epochs_are_finite_and_repeat(case):
    _, blocks, state, cfg = edge_instance(case, 110)
    runs = []
    for _ in range(2):
        st = state.copy()
        estimates = []
        for epoch in range(2):
            st, estimate = sgd_epoch(blocks, st, cfg, epoch)
            estimates.append(estimate)
        runs.append((st.to_vector(), estimates))
    (first, first_estimates), (second, second_estimates) = runs
    assert np.all(np.isfinite(first)) and np.all(np.isfinite(first_estimates))
    assert not np.array_equal(first, state.to_vector())
    assert np.array_equal(first, second)
    assert first_estimates == second_estimates


def oracle_prediction(state, block, jitter, item, cats, reals):
    """Mean and variance of one query of ``block``'s user from
    :func:`optimal_qu` and the reference psi statistics, with the query's
    latents and mean function gathered by a walk over the schema; an unseen
    code reads its table's trailing prior row."""
    schema, p, use_mean = state.schema, state.params, state.dims.use_mean
    item = item if 0 <= item < schema.item_count else schema.item_count
    mu, var = [p["item_mean"][item]], [np.exp(p["item_log_var"][item])]
    phi1 = p["user_bias"][block.user] + p["bias_item_mean"][item].sum() if use_mean else 0.0
    j = r = 0
    for ctx in schema.contexts:
        if ctx.is_categorical:
            code = cats[j] if 0 <= cats[j] < ctx.cardinality else ctx.cardinality
            mu.append(p[f"ctx_mean_{j}"][code])
            var.append(np.exp(p[f"ctx_log_var_{j}"][code]))
            phi1 += p[f"bias_ctx_mean_{j}"][code].sum() if use_mean else 0.0
            j += 1
        else:
            mu.append([reals[r]])
            var.append([0.0])
            phi1 += p["real_weights"][r] * reals[r] if use_mean else 0.0
            r += 1
    sigma2, alpha = np.exp(state.log_sigma2[block.user]), np.exp(state.log_alpha)
    kernel = ArdKernel(sigma2, alpha)
    psi1 = psi_statistics(kernel, LatentPoints(np.concatenate(mu), np.concatenate(var)), state.z).psi1[0]
    mu_u, sigma_u = optimal_qu(block, state, jitter)
    k = kernel_matrix(kernel, state.z, state.z) + sigma2 * jitter * np.eye(len(state.z))
    a = cho_solve(cho_factor(k, lower=True), psi1)                     # K^-1 psi1
    return a @ mu_u + phi1, max(sigma2 - a @ psi1 + a @ sigma_u @ a, 0.0)


@pytest.mark.parametrize("case", PREDICT_SHAPES)
def test_predictions_match_the_oracle_and_predict_rows_equals_predict(case):
    # queries mix seen codes with unseen ones (negative, and past the last),
    # which read the tables' prior rows
    table, blocks, state, _ = edge_instance(case, 120)
    schema = state.schema
    pred = Predictor(state, blocks, standardization=table.standardization)
    rng = np.random.default_rng(121)
    n = 40
    users = rng.integers(0, schema.user_count, size=n).tolist()
    items = rng.integers(-1, schema.item_count + 2, size=n).tolist()
    cats = np.array([rng.integers(-1, schema.contexts[d].cardinality + 2, size=n)
                     for d in schema.categorical_indices], dtype=np.int64).reshape(-1, n).T
    raw = rng.normal(size=(n, len(schema.real_indices)))
    rows = context_rows(schema, cats, raw)
    means, variances, _ = pred.predict_rows(users, items, rows)
    single = [pred.predict(u, i, row) for u, i, row in zip(users, items, rows)]
    assert np.array_equal(means, [p.mean for p in single])
    assert np.array_equal(variances, [p.variance for p in single])

    reals = table.standardization.apply(raw)
    by_user = {block.user: block for block in blocks}
    for q in range(n):
        mean, variance = oracle_prediction(state, by_user[users[q]], pred.shared.jitter, items[q], cats[q], reals[q])
        assert abs(means[q] - mean) < 1e-9 * max(1.0, abs(mean))
        assert abs(variances[q] - variance) < 1e-9 * max(1.0, variance)
