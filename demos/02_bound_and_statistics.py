"""Walkthrough: kernel expectations, the collapsed bound, and its gradients.

The model never sees latent inputs directly; the likelihood is integrated
against a diagonal-Gaussian posterior over them.  All the integrals reduce
to three kernel expectations (psi0, Psi1, Psi2) and two mean-function
expectations (phi1, phi0), each in closed form.  This script checks them
against brute-force sampling and shows the bound doing its two jobs:
lower-bounding the marginal likelihood, and becoming exact when sparsity
stops binding.
"""

import dataclasses

import numpy as np

from gplvmf import (
    ArdKernel,
    LatentPoints,
    TrainConfig,
    VariationalState,
    group_by_user,
    init_state,
    kernel_matrix,
    mc_psi_oracle,
    psi_statistics,
    total_bound,
    user_bound,
)
from gplvmf.data import ContextSchema, RatingTable, RealStandardization

rng = np.random.default_rng(7)

# ----------------------------------------------------------------------
# 1. Closed-form kernel expectations vs Monte Carlo.
# ----------------------------------------------------------------------
kern = ArdKernel(signal_variance=1.4, inv_length_scales=np.array([0.8, 1.6]))
points = LatentPoints(mean=rng.normal(size=(4, 2)), var=rng.uniform(0.1, 0.8, size=(4, 2)))
inducing = rng.normal(size=(3, 2))

stats = psi_statistics(kern, points, inducing)
oracle = mc_psi_oracle(kern, points, inducing, samples=200_000, seed=1)
dev = np.max(np.abs(stats.psi1 - oracle.stats.psi1) / oracle.psi1_se)
print(f"Psi1 closed form vs sampling: worst deviation {dev:.2f} standard errors")
print(f"psi0 = N * signal variance exactly: {stats.psi0:.6f} = {4 * 1.4:.6f}")

# With zero variances the expectations collapse to plain kernel matrices.
collapsed = psi_statistics(kern, LatentPoints(points.mean, np.zeros_like(points.var)), inducing)
plain = kernel_matrix(kern, points.mean, inducing)
print(f"zero-variance collapse to K_NM: {np.allclose(collapsed.psi1, plain)}")

# ----------------------------------------------------------------------
# 2. A one-user problem: bound value and analytic gradients.
# ----------------------------------------------------------------------
n_items = 5
schema = ContextSchema(user_count=1, item_count=n_items, contexts=())
table = RatingTable(
    schema=schema,
    users=np.zeros(n_items, dtype=np.int64),
    items=np.arange(n_items, dtype=np.int64),
    cat_values=np.zeros((n_items, 0), dtype=np.int64),
    real_raw=np.zeros((n_items, 0)),
    ratings=rng.normal(3.0, 1.0, size=n_items),
    standardization=RealStandardization(np.zeros(0), np.ones(0)),
)
blocks = group_by_user(table)
config = TrainConfig(inducing_count=3, item_dim=2, context_dim=2, seed=0)
state = init_state(schema, blocks, config)

report = total_bound(blocks, state)
print(f"\nbound {report.total:.4f} = per-user {report.per_user.sum():.4f} - KL {report.kl:.4f}")

# central-difference spot check of the analytic gradient
vec = state.to_vector()
i = rng.integers(vec.size)
eps = 1e-6
vp, vm = vec.copy(), vec.copy()
vp[i] += eps
vm[i] -= eps
fd = (
    total_bound(blocks, state.from_vector(vp), want_gradients=False).total
    - total_bound(blocks, state.from_vector(vm), want_gradients=False).total
) / (2 * eps)
print(f"gradient coordinate {i}: analytic {report.gradients[i]:+.8f}, "
      f"finite difference {fd:+.8f}")

# ----------------------------------------------------------------------
# 3. The sparse bound is exact when inducing points sit at the latent
#    means, one per rating, and the posterior variances vanish.  The
#    layout fixes M, so a state with one inducing point per rating is a
#    new state, over the same parameters and the new z.
# ----------------------------------------------------------------------
state.item_mean[:n_items] = rng.normal(0, 1.2, size=(n_items, 2))
state.item_log_var[:] = -45.0
state.params["bias_item_log_var"][:] = -45.0
mu_rows, _ = state.assemble_rows(blocks[0])
full_dims = dataclasses.replace(config.dims(), inducing_count=blocks[0].count)
state = VariationalState.from_tables(schema, full_dims, {**state.params, "z": mu_rows})
state.log_beta[:] = np.log(2.0)

from scipy.linalg import cho_factor, cho_solve
from gplvmf import phi_statistics

bound_val = user_bound(blocks[0], state, jitter=1e-12)
kern_full = ArdKernel(float(np.exp(state.log_sigma2[0])), np.exp(state.log_alpha))
cov = kernel_matrix(kern_full, mu_rows, mu_rows) + np.eye(n_items) / 2.0
resid = blocks[0].ratings - phi_statistics(state, blocks[0]).phi1
cf = cho_factor(cov, lower=True)
exact = (
    -0.5 * n_items * np.log(2 * np.pi)
    - np.sum(np.log(np.diag(cf[0])))
    - 0.5 * resid @ cho_solve(cf, resid)
)
print(f"\ntight-limit check: bound {bound_val:.10f} vs exact GP log marginal {exact:.10f}")
print(f"difference {abs(bound_val - exact):.2e}")
