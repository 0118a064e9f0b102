"""Shared builders and independent oracles for the test suite."""

import dataclasses

import numpy as np

from gplvmf import (
    ContextSchema,
    ContextVariable,
    RatingTable,
    RealStandardization,
    TrainConfig,
    VariationalState,
    group_by_user,
    init_state,
)


def build_table(schema, users, items, cat=None, real=None, ratings=None):
    """Direct RatingTable construction from arrays (raw real values)."""
    users = np.asarray(users, dtype=np.int64)
    n = users.shape[0]
    cat = np.zeros((n, 0), dtype=np.int64) if cat is None else np.asarray(cat, dtype=np.int64)
    real = np.zeros((n, 0), dtype=float) if real is None else np.asarray(real, dtype=float)
    cat = cat.reshape(n, -1) if cat.size else cat.reshape(n, 0)
    real = real.reshape(n, -1) if real.size else real.reshape(n, 0)
    from gplvmf.data import fit_standardization

    return RatingTable(
        schema=schema,
        users=users,
        items=np.asarray(items, dtype=np.int64),
        cat_values=cat,
        real_raw=real,
        ratings=np.asarray(ratings, dtype=float),
        standardization=fit_standardization(real),
    )


def codec_schema(kind):
    """``"interleaved"``: contexts alternating categorical, real, categorical,
    real; ``"no_contexts"``: none."""
    contexts = {
        "interleaved": (
            ContextVariable("mood", "categorical", 3),
            ContextVariable("price", "real"),
            ContextVariable("place", "categorical", 4),
            ContextVariable("temperature", "real"),
        ),
        "no_contexts": (),
    }[kind]
    return ContextSchema(user_count=4, item_count=6, contexts=contexts)


def codec_table(schema, n=15, seed=5):
    """A random table over ``schema`` with every user present."""
    rng = np.random.default_rng(seed)
    cards = [c.cardinality for c in schema.contexts if c.is_categorical]
    n_real = schema.context_count - len(cards)
    return build_table(
        schema,
        users=np.arange(n) % schema.user_count,
        items=rng.integers(0, schema.item_count, size=n),
        cat=np.column_stack([rng.integers(0, k, size=n) for k in cards]) if cards else None,
        real=rng.normal(2.0, 3.0, size=(n, n_real)) if n_real else None,
        ratings=rng.normal(3.0, 1.0, size=n),
    )


def one_user_distinct_table(n_items, seed, rating_loc=3.0):
    """One user rating every item exactly once (distinct latent rows)."""
    rng = np.random.default_rng(seed)
    schema = ContextSchema(user_count=1, item_count=n_items, contexts=())
    return build_table(
        schema,
        users=np.zeros(n_items),
        items=np.arange(n_items),
        ratings=rng.normal(rating_loc, 1.0, size=n_items),
    )


def random_instance(seed, n_users=2, n_items=4, cat_card=3, with_real=True,
                    ratings_per_user=5, m=3, item_dim=2, context_dim=2,
                    item_bias_dim=1, context_bias_dim=1, use_mean=True, state_noise=0.15):
    """A small randomized problem with a perturbed state, for gradient checks;
    ``cat_card=0`` leaves out the categorical context."""
    rng = np.random.default_rng(seed)
    contexts = [ContextVariable("c0", "categorical", cat_card)] if cat_card else []
    if with_real:
        contexts.append(ContextVariable("r0", "real"))
    schema = ContextSchema(user_count=n_users, item_count=n_items, contexts=tuple(contexts))
    n = n_users * ratings_per_user
    table = build_table(
        schema,
        users=np.repeat(np.arange(n_users), ratings_per_user),
        items=rng.integers(0, n_items, size=n),
        cat=rng.integers(0, cat_card, size=(n, 1)) if cat_card else None,
        real=rng.normal(size=(n, 1)) if with_real else None,
        ratings=rng.normal(3.0, 1.0, size=n),
    )
    blocks = group_by_user(table)
    cfg = TrainConfig(
        inducing_count=m, item_dim=item_dim, context_dim=context_dim,
        item_bias_dim=item_bias_dim, context_bias_dim=context_bias_dim, use_mean=use_mean, seed=seed,
    )
    state = init_state(schema, blocks, cfg)
    if state_noise:
        vec = state.to_vector()
        vec = vec + rng.normal(0.0, state_noise, size=vec.size)
        state = state.from_vector(vec)
    return table, blocks, state, cfg


def with_inducing(state, z):
    """A new state with ``state``'s parameters and the inducing inputs ``z``,
    whose row count is its inducing count."""
    dims = dataclasses.replace(state.dims, inducing_count=len(z))
    return VariationalState.from_tables(state.schema, dims, {**state.params, "z": z})


def mc_log_marginal(block, state, samples, seed, chunk=20_000):
    """Prior-sampling Monte-Carlo estimate of log p(y_n) with standard error.

    Draws every latent (kernel-space item/context coordinates and the bias
    latents) from the standard-normal prior, evaluates the exact Gaussian
    likelihood, and log-mean-exps.  This is the independent upper-reference
    for bound-validity checks; it shares no code with the bound itself.
    """
    rng = np.random.default_rng(seed)
    schema = state.schema
    n = block.count
    alpha = np.exp(state.log_alpha)
    sigma2 = float(np.exp(state.log_sigma2[block.user]))
    beta = float(np.exp(state.log_beta[block.user]))
    dims = state.dims
    cat_cards = [c.cardinality for c in schema.contexts if c.is_categorical]
    real_cols = [d for d, c in enumerate(schema.contexts) if not c.is_categorical]
    q = state.kernel_dim

    logps = []
    left = samples
    while left > 0:
        size = min(chunk, left)
        left -= size
        x = np.zeros((size, n, q))
        mean = np.zeros((size, n))
        if state.dims.use_mean:
            mean += state.params["user_bias"][block.user]
        off = dims.item_dim
        item_lat = rng.standard_normal((size, schema.item_count, dims.item_dim))
        x[:, :, :off] = item_lat[:, block.items, :]
        if state.dims.use_mean:
            item_bias = rng.standard_normal((size, schema.item_count, dims.item_bias_dim))
            mean += item_bias[:, block.items, :].sum(axis=2)
        ci = 0
        ri = 0
        for d, ctx in enumerate(schema.contexts):
            if ctx.is_categorical:
                lat = rng.standard_normal((size, ctx.cardinality, dims.context_dim))
                codes = block.cat_values[:, ci]
                x[:, :, off : off + dims.context_dim] = lat[:, codes, :]
                off += dims.context_dim
                if state.dims.use_mean:
                    cb = rng.standard_normal((size, ctx.cardinality, dims.context_bias_dim))
                    mean += cb[:, codes, :].sum(axis=2)
                ci += 1
            else:
                vals = block.real_values[:, ri]
                x[:, :, off] = vals[None, :]
                off += 1
                if state.dims.use_mean:
                    mean += state.params["real_weights"][ri] * vals[None, :]
                ri += 1
        diff = x[:, :, None, :] - x[:, None, :, :]
        cov = sigma2 * np.exp(-0.5 * np.einsum("q,snmq->snm", alpha, diff**2))
        cov += np.eye(n)[None] / beta
        chol = np.linalg.cholesky(cov)
        resid = block.ratings[None] - mean
        sol = np.linalg.solve(chol, resid[..., None])[..., 0]
        logdet = 2 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        logps.append(-0.5 * n * np.log(2 * np.pi) - 0.5 * logdet - 0.5 * np.sum(sol**2, axis=1))

    lp = np.concatenate(logps)
    wmax = lp.max()
    wn = np.exp(lp - wmax)
    estimate = float(wmax + np.log(wn.mean()))
    se = float(wn.std() / (np.sqrt(samples) * wn.mean()))
    return estimate, se


def central_difference(f, x0, eps=1e-6):
    """Dense central-difference gradient of a scalar function of a vector."""
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def max_rel_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def add_at_scatter(state, chunk, terms, grads):
    """Add the gradients ``terms`` of a ``gplvmf.bound.Chunk`` into ``grads``,
    the views of ``state.zero_grads()``, table by table with ``np.add.at``:
    an oracle for the bound's position-and-bincount scatter that shares none
    of its indexing."""
    from gplvmf.meanfn import phi_backward

    rows, users = chunk.rows, chunk.users
    if state.dims.use_mean:
        pg = phi_backward(rows, terms.dphi1, terms.dphi0, terms.phi1)
        grads["real_weights"] += pg.real_weights
        np.add.at(grads["user_bias"], users, pg.mean_rows.reshape(len(users), -1).sum(axis=1))
    for t in state.layout.tables:
        codes = t.codes(rows)
        if t.in_kernel:
            gmean, glog_var = terms.gmu_rows[:, t.sl], terms.glog_var_rows[:, t.sl]
        else:
            gmean, glog_var = pg.mean_rows[:, None], terms.dphi0[:, None] * np.exp(state.params[t.log_var][codes])
        np.add.at(grads[t.mean], codes, gmean)
        np.add.at(grads[t.log_var], codes, glog_var)
    grads["z"] += terms.gz
    grads["log_alpha"] += terms.glog_alpha
    np.add.at(grads["log_sigma2"], users, terms.glog_sigma2)
    np.add.at(grads["log_beta"], users, terms.glog_beta)
