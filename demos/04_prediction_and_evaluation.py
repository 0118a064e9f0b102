"""Walkthrough: predictive distributions, cross-validation, and persistence.

Prediction for (user, item, context) returns a Gaussian: the sparse
posterior mean with the bias added back, and the latent-function variance
(optionally plus observation noise).  The evaluation harness wraps k-fold
cross-validation on clamped predictions and ships a constant-predictor
baseline as the sanity floor.
"""

import tempfile
from pathlib import Path

import numpy as np

from gplvmf import (
    ContextVariable,
    SyntheticSpec,
    TrainConfig,
    const_baseline_cv,
    evaluate_cv,
    load_model,
    save_model,
    synthesize,
    train_model,
)

# ----------------------------------------------------------------------
# 1. A context-dependent dataset and a trained model.
# ----------------------------------------------------------------------
spec = SyntheticSpec(
    user_count=30,
    item_count=15,
    contexts=(
        ContextVariable("mood", "categorical", 6),
        ContextVariable("noise", "categorical", 6),
    ),
    ratings_per_user=30,
    context_alphas=(1.0, 0.0),
    noise_precision=4.0,
    user_bias_mean=3.0,
    seed=5,
)
table, _ = synthesize(spec)
config = TrainConfig(
    inducing_count=8, item_dim=2, context_dim=2,
    epochs=50, learning_rate=0.02, lr_decay=0.995, seed=0,
)
model = train_model(table, config, rating_scale=(0.0, 6.0))
print(f"trained on {len(table)} ratings; final {model.trace.bound_column} "
      f"{model.trace.rows[-1].bound:.1f}")

# ----------------------------------------------------------------------
# 2. Point predictions with uncertainty.
# ----------------------------------------------------------------------
predictor = model.predictor()
for user, item, ctx in [(0, 3, (2, 1)), (0, 3, (4, 1)), (7, 11, (0, 0))]:
    p = predictor.predict(user, item, ctx)
    print(f"user {user:2d}, item {item:2d}, context {ctx}: "
          f"mean {p.mean:5.2f} +/- {np.sqrt(p.variance):.2f} "
          f"(clamped {p.clamped_mean:.2f})")

# unseen category codes fall back to the prior latent instead of crashing
p = predictor.predict(0, 3, (99, 0))
print(f"unseen context code: mean {p.mean:.2f}, variance {p.variance:.2f}")

# observation noise can be added to the reported variance
p_noise = predictor.predict(0, 3, (2, 1), include_noise=True)
print(f"with observation noise: variance {p_noise.variance:.2f}")

# ----------------------------------------------------------------------
# 3. Cross-validation against the constant-predictor floor.
# ----------------------------------------------------------------------
result = evaluate_cv(table, config, k=5, seed=9, rating_scale=(0.0, 6.0))
baseline = const_baseline_cv(table, k=5, seed=9)
print(f"\n5-fold CV:   MAE {result.mae:.4f} +/- {result.mae_std:.4f}, "
      f"RMSE {result.rmse:.4f} +/- {result.rmse_std:.4f}")
print(f"const floor: MAE {baseline.mae:.4f}, RMSE {baseline.rmse:.4f}")
print(f"improvement over floor: {(1 - result.mae / baseline.mae):.1%} MAE")

# ----------------------------------------------------------------------
# 4. Persistence: a versioned .npz container carrying the state, schema,
#    training table, and standardization statistics.
# ----------------------------------------------------------------------
path = Path(tempfile.mkdtemp()) / "model.npz"
save_model(model, path)
again = load_model(path)
p1 = predictor.predict(3, 5, (1, 2))
p2 = again.predictor().predict(3, 5, (1, 2))
print(f"\nsaved and reloaded: predictions identical -> "
      f"{p1.mean == p2.mean and p1.variance == p2.variance}")
print(f"model file: {path} ({path.stat().st_size / 1024:.0f} KiB)")
