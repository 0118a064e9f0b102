"""Each output check of the benchmark passes on the program's output and fails
on a deliberately perturbed copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from gplvmf import (  # noqa: E402
    ArdKernel,
    ContextVariable,
    LatentPoints,
    SyntheticSpec,
    TrainConfig,
    group_by_user,
    init_state,
    load_model,
    psi_statistics,
    raw_context_rows,
    save_model,
    scg_minimize,
    sgd_epoch,
    synthesize,
    total_bound,
)
from gplvmf.model import TrainedModel  # noqa: E402


@pytest.fixture(scope="module")
def trained():
    spec = SyntheticSpec(
        user_count=8, item_count=6,
        contexts=(ContextVariable("mood", "categorical", 3), ContextVariable("price", "real")),
        ratings_per_user=12, context_alphas=(1.0, 0.5), real_weights=(0.4,),
        user_bias_mean=3.0, seed=5,
    )
    table, _ = synthesize(spec)
    train = table.subset(np.flatnonzero(np.tile(np.arange(12), 8) < 10))
    test = table.subset(np.flatnonzero(np.tile(np.arange(12), 8) >= 10), standardization=train.standardization)
    cfg = TrainConfig(inducing_count=4, epochs=3, learning_rate=0.05, seed=0)
    blocks = group_by_user(train)
    state = init_state(train.schema, blocks, cfg)
    for epoch in range(cfg.epochs):
        sgd_epoch(blocks, state, cfg, epoch)
    model = TrainedModel(state=state, table=train, config=cfg, rating_scale=train.rating_range)
    return model, blocks, test


def perturbed(values, index=0):
    out = np.array(values, dtype=float, copy=True)
    out.flat[index] = np.nextafter(out.flat[index], np.inf)
    return out


def test_psi_closed_form(trained):
    model, blocks, _ = trained
    state, block = model.state, blocks[0]
    mu, var = state.assemble_rows(block)
    alpha, sigma2 = np.exp(state.log_alpha), float(np.exp(state.log_sigma2[block.user]))
    stats = psi_statistics(ArdKernel(sigma2, alpha), LatentPoints(mu[:3], var[:3]), state.z)
    args = (mu[:3], var[:3], state.z, alpha, sigma2)
    assert checks.check_psi(stats.psi1, stats.psi2, *args)[0]
    assert not checks.check_psi(stats.psi1 * (1 + 1e-8), stats.psi2, *args)[0]
    assert not checks.check_psi(stats.psi1, stats.psi2 * (1 + 1e-8), *args)[0]


def test_directional_derivative(trained):
    model, blocks, _ = trained
    state = model.state
    x = state.to_vector()
    direction = np.random.default_rng(3).standard_normal(x.size)
    direction /= np.linalg.norm(direction)
    grad = total_bound(blocks[:3], state).gradients

    def value_at(v):
        return total_bound(blocks[:3], state.from_vector(v), want_gradients=False).total

    assert checks.check_directional_derivative(value_at, grad, x, direction)[0]
    wrong = grad + 1e-2 * np.linalg.norm(grad) * direction
    assert not checks.check_directional_derivative(value_at, wrong, x, direction)[0]


def test_predict_rows_equals_predict(trained):
    model, _, test = trained
    pred = model.predictor()
    rows = raw_context_rows(test)
    means, variances, _ = pred.predict_rows(test.users, test.items, rows)
    single = [pred.predict(int(u), int(i), c) for u, i, c in zip(test.users, test.items, rows)]
    one_by_one = np.array([p.mean for p in single] + [p.variance for p in single])
    batch = np.concatenate([means, variances])
    assert checks.check_identical("rows", one_by_one, batch)[0]
    assert not checks.check_identical("rows", one_by_one, perturbed(batch, 4))[0]


def test_loaded_model_identical(trained, tmp_path):
    model, _, test = trained
    save_model(model, tmp_path / "model.npz")
    rows = raw_context_rows(test)
    memory = np.concatenate(model.predictor().predict_rows(test.users, test.items, rows)[:2])
    loaded = np.concatenate(load_model(tmp_path / "model.npz").predictor().predict_rows(test.users, test.items, rows)[:2])
    assert checks.check_identical("loaded", memory, loaded)[0]
    assert not checks.check_identical("loaded", memory, perturbed(loaded, len(loaded) - 1))[0]


def test_variance_range(trained):
    model, _, test = trained
    state, pred, rows = model.state, model.predictor(), raw_context_rows(test)
    sigma2 = np.exp(state.log_sigma2[test.users])
    noise = 1.0 / np.exp(state.log_beta[test.users])
    _, variances, _ = pred.predict_rows(test.users, test.items, rows)
    _, noisy, _ = pred.predict_rows(test.users, test.items, rows, include_noise=True)
    assert checks.check_variance_range(variances, sigma2)[0]
    assert checks.check_variance_range(noisy, sigma2, noise)[0]
    assert not checks.check_variance_range(noisy, sigma2)[0]
    for bad in (-1e-9, np.nan, np.inf, sigma2[0] * 1.001):
        wrong = variances.copy()
        wrong[0] = bad
        assert not checks.check_variance_range(wrong, sigma2)[0]


def test_scg_monotone(trained):
    model, blocks, _ = trained
    template = model.state

    def objective(v):
        report = total_bound(blocks, template.from_vector(v))
        return -report.total, -report.gradients

    history = []
    x0 = template.to_vector()
    f0 = objective(x0)[0]
    scg_minimize(objective, x0, max_iters=4, callback=lambda k, x, f, a: history.append((f, a)))
    assert checks.check_scg_monotone(f0, history)[0]
    accepted = [k for k, (_, a) in enumerate(history) if a]
    assert accepted
    wrong = list(history)
    k = accepted[-1]
    wrong[k] = (f0 + 1.0, True)
    assert not checks.check_scg_monotone(f0, wrong)[0]


def test_heldout_rmse_beats_baseline(trained):
    model, _, test = trained
    train = model.table
    _, _, clamped = model.predictor().predict_rows(test.users, test.items, raw_context_rows(test))
    rmse = float(np.sqrt(np.mean((clamped - test.ratings) ** 2)))
    baseline = checks.per_user_mean_rmse(train.users, train.ratings, test.users, test.ratings)
    assert checks.check_beats_baseline(rmse, baseline)[0]
    assert not checks.check_beats_baseline(baseline * 1.01, baseline)[0]
