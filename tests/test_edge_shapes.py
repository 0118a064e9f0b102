"""The bound and SGD at the edge shapes training meets: one-rating users,
more inducing points than ratings, no contexts, only real contexts,
coinciding inducing points, and bias tables two wide (items) and zero wide
(contexts)."""

import numpy as np
import pytest

from gplvmf import sgd_epoch, total_bound
from conftest import random_instance

EDGE_SHAPES = {
    "one_rating_users": dict(n_users=3, ratings_per_user=1),
    "more_inducing_than_ratings": dict(n_users=2, ratings_per_user=3, m=8),
    "no_contexts": dict(cat_card=0, with_real=False),
    "only_real_contexts": dict(cat_card=0, with_real=True),
    "coinciding_inducing": dict(m=4),
    "wide_and_empty_bias_tables": dict(item_bias_dim=2, context_bias_dim=0),
}


def edge_instance(case, seed):
    table, blocks, state, cfg = random_instance(seed, **EDGE_SHAPES[case])
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
