"""Walkthrough: training on synthetic data and reading off context relevance.

The generative story is the model's own: shared standard-normal latents for
items and context categories, per-user GP draws with an ARD kernel over the
concatenated latents, plus bias terms and Gaussian noise.  One of the two
contexts below truly influences ratings; the other is noise.  After
training, the learned inverse length-scales expose exactly that.
"""

from dataclasses import replace

import numpy as np

from gplvmf import (
    ContextVariable,
    SyntheticSpec,
    TrainConfig,
    group_by_user,
    init_state,
    sgd_epoch,
    synthesize,
    total_bound,
    train,
)
from gplvmf.predict import context_relevance

# ----------------------------------------------------------------------
# 1. Generate: "mood" matters (true alpha 1), "weather" does not (alpha 0).
# ----------------------------------------------------------------------
spec = SyntheticSpec(
    user_count=40,
    item_count=20,
    contexts=(
        ContextVariable("mood", "categorical", 5),
        ContextVariable("weather", "categorical", 5),
    ),
    ratings_per_user=40,
    item_dim=2,
    context_dim=2,
    item_alpha=1.0,
    context_alphas=(1.0, 0.0),
    noise_precision=4.0,
    user_bias_mean=3.0,
    seed=11,
)
table, truth = synthesize(spec)
print(f"synthesized {len(table)} ratings from {spec.user_count} users")
print(f"true inverse length-scales by block: item 1.0, mood 1.0, weather 0.0")

blocks = group_by_user(table)
config = TrainConfig(
    inducing_count=8, item_dim=2, context_dim=2,
    epochs=100, learning_rate=0.02, lr_decay=0.995, seed=0,
)

# ----------------------------------------------------------------------
# 2. Train with per-user stochastic gradient steps.  Each step ascends
#    the user's bound term plus a 1/N share of the KL gradient.
# ----------------------------------------------------------------------
state = init_state(table.schema, blocks, config)
start = total_bound(blocks, state, want_gradients=False).total
for epoch in range(config.epochs):
    state, estimate = sgd_epoch(blocks, state, config, epoch)
    if epoch % 15 == 0:
        print(f"  epoch {epoch:3d}: running bound estimate {estimate:10.1f}")
final = total_bound(blocks, state, want_gradients=False).total
print(f"bound improved {start:.1f} -> {final:.1f}")

# ----------------------------------------------------------------------
# 3. Relevance report: inverse length-scales summed per latent block.
# ----------------------------------------------------------------------
relevance = context_relevance(state)
print("\ncontext relevance (score = sum of alphas over the block):")
for name, score, share in relevance.entries:
    bar = "#" * int(round(50 * share))
    print(f"  {name:>8}: share {share:5.1%}  {bar}")
ratio = relevance.share("mood") / max(relevance.share("weather"), 1e-12)
print(f"mood/weather share ratio: {ratio:.1f}")

# ----------------------------------------------------------------------
# 4. The full-batch alternative: scaled conjugate gradients on the same
#    objective.  Accepted steps never lower the bound.
# ----------------------------------------------------------------------
scg_config = replace(config, method="scg", epochs=40)
scg_state, trace = train(blocks, init_state(table.schema, blocks, scg_config), scg_config)
bounds = trace.bounds()
print(f"\nSCG: {len(bounds)} iterations, bound {bounds[0]:.1f} -> {bounds[-1]:.1f}, "
      f"monotone over accepted steps: {bool(np.all(np.diff(bounds) >= -1e-9))}")
