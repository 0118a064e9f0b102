"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Criteria and tolerances are fixed here; nothing is deferred
to later calibration.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gplvmf import (
    ArdKernel,
    ContextSchema,
    ContextVariable,
    LatentPoints,
    SyntheticSpec,
    TrainConfig,
    const_baseline_cv,
    group_by_user,
    init_state,
    kernel_matrix,
    load_table,
    make_folds,
    mc_phi_oracle,
    mc_psi_oracle,
    metrics,
    phi_statistics,
    psi_statistics,
    sgd_epoch,
    synthesize,
    total_bound,
    train,
    train_model,
    user_bound,
)
from gplvmf.predict import context_relevance
from conftest import mc_log_marginal, random_instance
from test_bound import collapsed_state, exact_log_marginal
from test_meanfn import make_state, one_block
from test_optim import toy_problem

pytestmark = pytest.mark.acceptance


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_psi_statistics_match_monte_carlo():
    """Closed-form psi0/Psi1/Psi2 within 4 standard errors on 20 instances."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        q = int(rng.integers(1, 4))
        kern = ArdKernel(float(rng.uniform(0.4, 2.0)), rng.uniform(0.2, 2.0, size=q))
        pts = LatentPoints(rng.normal(size=(n, q)), rng.uniform(0.02, 1.2, size=(n, q)))
        z = rng.normal(size=(m, q))
        stats = psi_statistics(kern, pts, z)
        est = mc_psi_oracle(kern, pts, z, samples=1_000_000, seed=1000 + seed)
        dev1 = np.abs(stats.psi1 - est.stats.psi1) / (est.psi1_se + 1e-14)
        dev2 = np.abs(stats.psi2 - est.stats.psi2) / (est.psi2_se + 1e-14)
        dev0 = abs(stats.psi0 - est.stats.psi0)
        worst = max(worst, dev1.max(), dev2.max())
        assert dev0 < 1e-9
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 4.0 and elapsed < 120.0,
        f"worst deviation {worst:.2f} standard errors over 20 instances "
        f"(limit 4.0), runtime {elapsed:.0f}s (limit 120s)",
    )


def test_criterion_02_phi_statistics_match_monte_carlo():
    """Closed-form phi0/phi1 within 4 standard errors on 10 instances."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        block, schema, rng = one_block(seed, n_rows=5 + seed % 3, repeat_item=(seed % 2 == 0))
        state = make_state(rng, schema)
        phi = phi_statistics(state, block)
        (phi1, phi0), (se1, se0) = mc_phi_oracle(state, block, samples=200_000, seed=seed)
        worst = max(
            worst,
            float(np.max(np.abs(phi.phi1 - phi1) / (se1 + 1e-14))),
            abs(phi.phi0 - phi0) / (se0 + 1e-14),
        )
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 4.0 and elapsed < 60.0,
        f"worst deviation {worst:.2f} standard errors over 10 instances incl. "
        f"repeated-entity rows (limit 4.0), runtime {elapsed:.0f}s (limit 60s)",
    )


def test_criterion_03_bound_tight_at_full_inducing():
    """Z at latent means, M = N, variances -> 0: bound equals the exact log marginal."""
    worst = 0.0
    for seed in range(10):
        n_items = 3 + seed % 4  # up to 6
        block, state = collapsed_state(seed, n_items=n_items)
        f = user_bound(block, state, jitter=1e-12)
        exact = exact_log_marginal(block, state)
        worst = max(worst, abs(f - exact))
    report(3, worst < 1e-6, f"worst |bound - exact log marginal| = {worst:.2e} (limit 1e-6)")


def test_criterion_04_bound_below_monte_carlo_marginal():
    """total_bound <= sampled log p(Y) within error bars on 5 tiny instances."""
    margins = []
    for seed in range(5):
        table, blocks, state, _ = random_instance(
            seed + 400, n_users=1, n_items=3, ratings_per_user=2 + seed % 2,
            m=2, item_dim=1, context_dim=1, cat_card=2, with_real=False,
            state_noise=0.25,
        )
        rep = total_bound(blocks, state, want_gradients=False)
        estimate, se = mc_log_marginal(blocks[0], state, samples=1_000_000, seed=seed)
        margins.append((estimate + 4 * se) - rep.total)
    ok = all(m >= 0 for m in margins)
    report(
        4,
        ok,
        "bound <= MC log p(Y) + 4se on all 5 instances; "
        f"margins {['%.3f' % m for m in margins]}",
    )


def test_criterion_05_gradients_match_finite_differences():
    """Analytic gradient of the total bound vs central differences, all blocks."""
    from conftest import central_difference, max_rel_error

    worst = 0.0
    for seed in range(10):
        table, blocks, state, _ = random_instance(
            seed + 500,
            n_users=2,
            n_items=3,
            ratings_per_user=4,
            m=2,
            item_dim=1 + seed % 2,
            context_dim=1,
            with_real=(seed % 2 == 0),
            use_mean=(seed % 3 != 2),
            state_noise=0.2,
        )
        rep = total_bound(blocks, state)
        fd = central_difference(
            lambda v: total_bound(blocks, state.from_vector(v), want_gradients=False).total,
            state.to_vector(),
        )
        worst = max(worst, max_rel_error(rep.gradients, fd))
    report(5, worst < 1e-4, f"worst relative error {worst:.2e} over 10 instances (limit 1e-4)")


def test_criterion_06_optimizer_soundness():
    """SCG accepted steps never lower the bound; lr=0 SGD is a no-op;
    SGD and SCG agree within 1% on the 2-user toy."""
    table, blocks, cfg = toy_problem()

    state = init_state(table.schema, blocks, cfg)
    _, trace = train(blocks, state, replace(cfg, method="scg", epochs=200))
    monotone = bool(np.all(np.diff(trace.bounds()) >= -1e-9))

    cfg0 = TrainConfig(inducing_count=3, item_dim=1, context_dim=1, seed=2,
                       epochs=1, learning_rate=0.0)
    st = init_state(table.schema, blocks, cfg0)
    before = st.to_vector().copy()
    st, _ = sgd_epoch(blocks, st, cfg0, 0)
    noop = bool(np.array_equal(st.to_vector(), before))

    st_sgd = init_state(table.schema, blocks, cfg)
    for epoch in range(cfg.epochs):
        st_sgd, _ = sgd_epoch(blocks, st_sgd, cfg, epoch)
    f_sgd = total_bound(blocks, st_sgd, want_gradients=False).total
    st_scg, _ = train(blocks, init_state(table.schema, blocks, cfg), replace(cfg, method="scg", epochs=3000))
    f_scg = total_bound(blocks, st_scg, want_gradients=False).total
    gap = abs(f_sgd - f_scg) / abs(f_scg)

    report(
        6,
        monotone and noop and gap < 0.01,
        f"SCG accepted-step bound monotone: {monotone}; lr=0 no-op: {noop}; "
        f"SGD {f_sgd:.4f} vs SCG {f_scg:.4f}, relative gap {gap:.4f} (limit 0.01)",
    )


def test_criterion_07_ard_recovers_context_relevance():
    """50 users, 30 items, 2 categorical contexts (one with true alpha 0),
    40 ratings/user: trained relevance ratio >= 5."""
    t0 = time.perf_counter()
    ctxs = (ContextVariable("relevant", "categorical", 6),
            ContextVariable("irrelevant", "categorical", 6))
    spec = SyntheticSpec(
        user_count=50, item_count=30, contexts=ctxs, ratings_per_user=40,
        item_dim=2, context_dim=2, item_alpha=1.0, context_alphas=(1.0, 0.0),
        noise_precision=4.0, seed=5,
    )
    table, _ = synthesize(spec)
    blocks = group_by_user(table)
    cfg = TrainConfig(inducing_count=8, item_dim=2, context_dim=2, seed=0,
                      epochs=80, learning_rate=0.02, lr_decay=0.995)
    state = init_state(table.schema, blocks, cfg)
    for epoch in range(cfg.epochs):
        state, _ = sgd_epoch(blocks, state, cfg, epoch)
    rel = context_relevance(state)
    ratio = rel.share("relevant") / max(rel.share("irrelevant"), 1e-12)
    elapsed = time.perf_counter() - t0
    report(
        7,
        ratio >= 5.0 and elapsed < 600.0,
        f"relevant/irrelevant share ratio {ratio:.1f} (limit 5.0), "
        f"runtime {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_08_heldout_rmse_near_noise_floor():
    """Model-generated data with beta=4 (noise sd 0.5): held-out RMSE in [0.5, 0.575]."""
    t0 = time.perf_counter()
    ctxs = (ContextVariable("mood", "categorical", 3),)
    spec = SyntheticSpec(
        user_count=80, item_count=12, contexts=ctxs, ratings_per_user=50,
        item_dim=1, context_dim=1, item_alpha=0.4, context_alphas=(0.4,),
        signal_variance=0.25, noise_precision=4.0,
        user_bias_mean=3.0, user_bias_std=1.0, seed=21,
    )
    table, _ = synthesize(spec)
    plan = make_folds(table, 5, seed=3)
    train = table.subset(plan.train_indices(0), standardization="refit")
    test = table.subset(plan.test_indices(0), standardization=train.standardization)
    cfg = TrainConfig(inducing_count=10, item_dim=1, context_dim=1, seed=0,
                      epochs=120, learning_rate=0.02, lr_decay=0.997)
    model = train_model(train, cfg)
    from gplvmf.harness import raw_context_rows

    _, _, clamped = model.predictor().predict_rows(
        test.users, test.items, raw_context_rows(test), unknown_user="global_mean"
    )
    _, rmse = metrics(test.ratings, clamped)
    elapsed = time.perf_counter() - t0
    report(
        8,
        0.5 <= rmse <= 0.575 and elapsed < 600.0,
        f"held-out RMSE {rmse:.4f} against noise floor 0.5 (window [0.5, 0.575]), "
        f"runtime {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_09_epoch_time_scales_linearly():
    """Doubling total ratings at fixed M grows per-epoch time by <= 2.3x."""
    ctxs = (ContextVariable("c", "categorical", 5),)

    def problem(n_users):
        spec = SyntheticSpec(
            user_count=n_users, item_count=25, contexts=ctxs, ratings_per_user=20,
            item_dim=2, context_dim=2, context_alphas=(1.0,), seed=4,
        )
        table, _ = synthesize(spec)
        blocks = group_by_user(table)
        cfg = TrainConfig(inducing_count=8, item_dim=2, context_dim=2, seed=0, epochs=1)
        state = init_state(table.schema, blocks, cfg)
        sgd_epoch(blocks, state.copy(), cfg, 0)  # warmup, untimed
        return blocks, state, cfg

    def epoch_time(blocks, state, cfg):
        st = state.copy()
        t0 = time.process_time()
        sgd_epoch(blocks, st, cfg, 0)
        return time.process_time() - t0

    # Epochs are timed in this process's CPU time, which other processes on
    # the host do not add to.  The timed epochs alternate between the sizes
    # (300, 600, 300, 600, ...), and each 600-user epoch is compared with the
    # 300-user epoch timed next to it: a change in host speed lands on both
    # halves of a pair, and the median over the pairs drops a pair that one
    # alone disturbed.
    small, large = problem(300), problem(600)
    pairs = [(epoch_time(*small), epoch_time(*large)) for _ in range(5)]
    ratio = float(np.median([t2 / t1 for t1, t2 in pairs]))
    report(
        9,
        ratio <= 2.3,
        "per-epoch CPU time at 2x ratings, pairs "
        + ", ".join(f"{t1*1e3:.0f}ms -> {t2*1e3:.0f}ms" for t1, t2 in pairs)
        + f"; median ratio {ratio:.2f} (limit 2.3)",
    )


def test_criterion_10_real_data_reproduction():
    """Food: 5-fold CV MAE <= 0.70 and RMSE <= 0.91; Comoda: MAE <= 0.74.

    The public datasets are not redistributable with this repository; when
    they are absent the criterion is replaced by criteria 7 and 8 (which run
    unconditionally above).  To run it, place the delimited files and their
    JSON schema configs under $GPLVMF_DATA_DIR (or ./data):
    food.csv + food.json, comoda.csv + comoda.json.
    """
    from gplvmf.config import read_config
    from gplvmf import evaluate_cv

    data_dir = Path(os.environ.get("GPLVMF_DATA_DIR", "data"))
    targets = [("food", 0.70, 0.91), ("comoda", 0.74, None)]
    available = [
        (name, mae_t, rmse_t)
        for name, mae_t, rmse_t in targets
        if (data_dir / f"{name}.csv").exists() and (data_dir / f"{name}.json").exists()
    ]
    if not available:
        print(
            "\n[criterion 10] SKIP: real datasets not present; criterion replaced "
            "by criteria 7 and 8 per its availability clause"
        )
        pytest.skip("real datasets unavailable; replaced by criteria 7 and 8")
    for name, mae_t, rmse_t in available:
        cfg = read_config(data_dir / f"{name}.json")
        table = load_table(data_dir / f"{name}.csv", cfg.schema, cfg.delimiter)
        result = evaluate_cv(table, cfg.train, k=5, seed=cfg.seed, rating_scale=cfg.rating_scale)
        ok = result.mae <= mae_t and (rmse_t is None or result.rmse <= rmse_t)
        report(10, ok, f"{name}: MAE {result.mae:.4f} (limit {mae_t}), RMSE {result.rmse:.4f}")
