"""End-to-end evaluation: synthetic data generation, training, k-fold CV.

Synthetic tables are drawn from the model's own generative story: latents
and bias latents from the standard-normal prior, then each user's ratings
from the Gaussian likelihood with the bias mean and the ARD kernel.  The
ground truth (latents, inverse length-scales, noise precision, and the
per-user mean and lower Cholesky factor of the rating vector's covariance)
is kept so tests can check recovery and noise floors.  :func:`train_model`
groups a table by user and wraps what :func:`gplvmf.optim.train` returns in
a :class:`TrainedModel`, validating on a held-out table when one is given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import (
    ContextSchema,
    RatingTable,
    check_field,
    check_rating_scale,
    context_rows,
    fit_standardization,
    group_by_user,
    make_folds,
)
from .model import TrainedModel
from .optim import TrainConfig, init_state, train
from .predict import Predictor
from .reference import ArdKernel, kernel_matrix
from .state import KernelLayout, ModelDims


def metrics(y_true, y_pred) -> tuple[float, float]:
    """Mean absolute error and root-mean-square error."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("need at least one prediction")
    err = y_pred - y_true
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err**2)))


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and ground-truth parameters for a generated dataset.

    ``item_alpha`` / ``context_alphas`` give the true inverse length-scales,
    one scalar per block (broadcast over that block's coordinates); an
    irrelevant context is encoded as 0.  Real-valued contexts always occupy
    one coordinate.  ``real_weights`` is empty (all zero) or has one weight
    per real context, in schema order.  A field that would break the draw is
    a ``ValueError`` naming it (:func:`gplvmf.data.check_field`).
    """

    user_count: int
    item_count: int
    contexts: tuple
    ratings_per_user: int
    item_dim: int = 2
    context_dim: int = 2
    item_alpha: float = 1.0
    context_alphas: tuple = ()
    signal_variance: float = 1.0
    noise_precision: float = 4.0
    include_bias: bool = True
    user_bias_mean: float = 0.0
    user_bias_std: float = 1.0
    bias_scale: float = 1.0
    real_weights: tuple = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("context_alphas", "real_weights"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # A fractional count failed only in np.repeat, a zero or negative noise
        # precision in a division or a Cholesky factor, and a NaN signal
        # variance drew a table with no signal.
        for names, integer, bound, strict in (
            (("user_count", "item_count", "ratings_per_user", "item_dim", "context_dim"), True, 1, False),
            (("seed",), True, 0, False),
            (("item_alpha", "signal_variance", "user_bias_std"), False, 0, False),
            (("noise_precision",), False, 0, True),
            (("user_bias_mean", "bias_scale"), False, -math.inf, False),
        ):
            for name in names:
                check_field(name, getattr(self, name), integer, bound, strict)
        if len(self.context_alphas) != len(self.contexts):
            raise ValueError(f"context_alphas: need one per context ({len(self.contexts)}), "
                             f"got {len(self.context_alphas)}")
        n_real = sum(1 for c in self.contexts if not c.is_categorical)
        if len(self.real_weights) not in (0, n_real):
            raise ValueError(f"real_weights: need none or one per real context ({n_real}), "
                             f"got {len(self.real_weights)}")
        for name, bound in (("context_alphas", 0), ("real_weights", -math.inf)):
            for i, value in enumerate(getattr(self, name)):
                check_field(f"{name}[{i}]", value, False, bound)


@dataclass
class SyntheticTruth:
    """Everything needed to re-draw ratings for a fixed design."""

    spec: SyntheticSpec
    alphas: np.ndarray
    item_latents: np.ndarray
    ctx_latents: list
    user_bias: np.ndarray
    item_bias: np.ndarray
    ctx_bias: list
    design_users: np.ndarray
    design_items: np.ndarray
    design_cat: np.ndarray
    design_real: np.ndarray
    means: list        # per user block
    factors: list      # lower Cholesky factors
    user_rows: list    # row indices per user


def synthesize(spec: SyntheticSpec) -> tuple[RatingTable, SyntheticTruth]:
    """Draw a dataset from the generative model; deterministic in ``spec.seed``.

    The latent coordinates are laid out as in the model (:class:`KernelLayout`).
    Every row's latent inputs and bias mean are built at once, walking the
    layout's blocks in schema order; each user's rows are contiguous, and the
    per-user loop only forms and factors that user's rating covariance.

    With a few hundred ratings per user, ``np.linalg.cholesky`` of that
    covariance threads inside LAPACK, so the truth's factors, and the
    ratings drawn with them, are the same only at a fixed BLAS thread count.
    Training and prediction on a given table do not depend on it.
    """
    rng = np.random.default_rng(spec.seed)
    schema = ContextSchema(user_count=spec.user_count, item_count=spec.item_count, contexts=tuple(spec.contexts))
    layout = KernelLayout(schema, ModelDims(inducing_count=1, item_dim=spec.item_dim, context_dim=spec.context_dim))

    item_latents = rng.standard_normal((spec.item_count, spec.item_dim))
    ctx_latents = [
        rng.standard_normal((c.cardinality, spec.context_dim)) if c.is_categorical else None for c in spec.contexts
    ]

    if spec.include_bias:
        user_bias = rng.normal(spec.user_bias_mean, spec.user_bias_std, size=spec.user_count)
        item_bias = spec.bias_scale * rng.standard_normal(spec.item_count)
        ctx_bias = [
            spec.bias_scale * rng.standard_normal(c.cardinality) if c.is_categorical else None
            for c in spec.contexts
        ]
    else:
        user_bias = np.zeros(spec.user_count)
        item_bias = np.zeros(spec.item_count)
        ctx_bias = [np.zeros(c.cardinality) if c.is_categorical else None for c in spec.contexts]

    n_real = len(schema.real_indices)
    total = spec.user_count * spec.ratings_per_user
    users = np.repeat(np.arange(spec.user_count), spec.ratings_per_user)
    items = rng.integers(0, spec.item_count, size=total)
    cards = [c.cardinality for c in spec.contexts if c.is_categorical]
    cat = np.column_stack([rng.integers(0, k, size=total) for k in cards]) if cards else np.zeros((total, 0), np.int64)
    real = rng.standard_normal((total, n_real)) if n_real else np.zeros((total, 0))

    (_, item_sl), *ctx_slices = layout.slices
    alphas = np.zeros(layout.dim)
    alphas[item_sl] = spec.item_alpha
    x = np.zeros((total, layout.dim))
    x[:, item_sl] = item_latents[items]
    mean = user_bias[users] + item_bias[items]
    codes, reals = iter(cat.T), iter(zip(real.T, spec.real_weights or (0.0,) * n_real))
    for (_, sl), ctx, alpha, latents, bias in zip(ctx_slices, spec.contexts, spec.context_alphas,
                                                  ctx_latents, ctx_bias):
        alphas[sl] = alpha
        if ctx.is_categorical:
            c = next(codes)
            x[:, sl] = latents[c]
            mean += bias[c]
        else:
            vals, weight = next(reals)
            x[:, sl] = vals[:, None]
            mean += weight * vals

    # kernel_matrix is exactly +0.0 at zero signal variance
    kern = ArdKernel(spec.signal_variance, alphas)
    user_rows = np.split(np.arange(total), spec.user_count)
    factors = []
    for rows in user_rows:
        cov = kernel_matrix(kern, x[rows], x[rows])
        diag = np.diag_indices(rows.size)
        cov[diag] += 1 / spec.noise_precision
        cov[diag] += 1e-12
        factors.append(np.linalg.cholesky(cov))

    truth = SyntheticTruth(
        spec=spec, alphas=alphas, item_latents=item_latents, ctx_latents=ctx_latents, user_bias=user_bias,
        item_bias=item_bias, ctx_bias=ctx_bias, design_users=users, design_items=items, design_cat=cat,
        design_real=real, means=np.split(mean, spec.user_count), factors=factors, user_rows=user_rows,
    )
    table = RatingTable(schema=schema, users=users, items=items, cat_values=cat, real_raw=real,
                        ratings=sample_ratings(truth, rng), standardization=fit_standardization(real))
    return table, truth


def sample_ratings(truth: SyntheticTruth, rng) -> np.ndarray:
    """Fresh rating draw for the fixed design stored in ``truth``."""
    rng = np.random.default_rng(rng)   # a Generator is returned as it is
    out = np.empty(truth.design_users.shape[0])
    for rows, mean, factor in zip(truth.user_rows, truth.means, truth.factors):
        out[rows] = mean + factor @ rng.standard_normal(rows.size)
    return out


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


def raw_context_rows(table: RatingTable) -> list:
    """Per-record context tuples with raw (un-standardized) real values,
    in schema order, as accepted by the prediction API."""
    return context_rows(table.schema, table.cat_values, table.real_raw)


def train_model(
    table: RatingTable,
    config: TrainConfig,
    rating_scale: tuple[float, float] | None = None,
    validation_table: RatingTable | None = None,
) -> TrainedModel:
    """Fit on a table with :func:`gplvmf.optim.train` and wrap the result.

    ``validation_table`` (standardized consistently with ``table``) enables
    MAE early stopping with the configured patience.  ``rating_scale``
    defaults to the table's rating range.
    """
    scale = table.rating_range if rating_scale is None else check_rating_scale(rating_scale)
    blocks = group_by_user(table)
    state = init_state(table.schema, blocks, config)

    validation = None
    if validation_table is not None:
        val_rows = raw_context_rows(validation_table)

        def validation(st):
            pred = Predictor(st, blocks, standardization=table.standardization, rating_scale=scale,
                             jitter=config.jitter)
            _, _, clamped = pred.predict_rows(
                validation_table.users, validation_table.items, val_rows, unknown_user="global_mean"
            )
            return metrics(validation_table.ratings, clamped)

    state, trace = train(blocks, state, config, validation=validation)
    return TrainedModel(state=state, table=table, config=config, rating_scale=scale, trace=trace)


@dataclass
class EvalResult:
    """Per-fold and aggregate MAE/RMSE of a cross-validation run.

    ``folds`` holds the fold index of each ``fold_mae``/``fold_rmse`` entry;
    ``failed_folds`` lists the folds dropped from the aggregate.
    """

    folds: np.ndarray
    fold_mae: np.ndarray
    fold_rmse: np.ndarray
    failed_folds: list

    @property
    def mae(self) -> float:
        return float(np.mean(self.fold_mae))

    @property
    def rmse(self) -> float:
        return float(np.mean(self.fold_rmse))

    @property
    def mae_std(self) -> float:
        return float(np.std(self.fold_mae))

    @property
    def rmse_std(self) -> float:
        return float(np.std(self.fold_rmse))


def _cross_validate(table: RatingTable, k: int, seed: int, predict_fold) -> EvalResult:
    """k-fold cross-validation of ``predict_fold(train indices, test
    indices)``, which returns the test rows' predictions.  A fold whose
    prediction fails is dropped from the aggregate with a warning."""
    plan = make_folds(table, k, seed)
    kept, failed = [], []
    for fold in range(k):
        test = plan.test_indices(fold)
        try:
            kept.append((fold, *metrics(table.ratings[test], predict_fold(plan.train_indices(fold), test))))
        except (ArithmeticError, RuntimeError) as exc:
            warnings.warn(f"fold {fold} failed: {exc}; aggregate excludes it", stacklevel=3)
            failed.append(fold)
    if not kept:
        raise RuntimeError("every fold failed")
    folds, fold_mae, fold_rmse = map(np.asarray, zip(*kept))
    return EvalResult(folds=folds, fold_mae=fold_mae, fold_rmse=fold_rmse, failed_folds=failed)


def evaluate_cv(
    table: RatingTable,
    config: TrainConfig,
    k: int = 5,
    seed: int = 0,
    rating_scale: tuple[float, float] | None = None,
) -> EvalResult:
    """k-fold cross-validation on clamped predictions.

    Folds are record-level uniform.  Real-context standardization is refit on
    each training split and reused for its test rows.  Test users with no
    training ratings fall back to the training global mean.  A fold whose
    training run fails is dropped from the aggregate with a warning.
    """

    def predict_fold(train_indices, test_indices):
        train = table.subset(train_indices, standardization="refit")
        test = table.subset(test_indices, standardization=train.standardization)
        predictor = train_model(train, config, rating_scale=rating_scale).predictor()
        _, _, clamped = predictor.predict_rows(
            test.users, test.items, raw_context_rows(test), unknown_user="global_mean"
        )
        return clamped

    return _cross_validate(table, k, seed, predict_fold)


def const_baseline_cv(table: RatingTable, k: int = 5, seed: int = 0) -> EvalResult:
    """The constant predictor: each user's training-mean rating.

    Users absent from a training split get the global training mean.  This is
    the sanity floor any trained model should beat.
    """

    def predict_fold(train_indices, test_indices):
        user_means = np.full(table.schema.user_count, float(table.ratings[train_indices].mean()))
        for b in group_by_user(table.subset(train_indices, table.standardization)):
            user_means[b.user] = float(b.ratings.mean())
        return user_means[table.users[test_indices]]

    return _cross_validate(table, k, seed, predict_fold)
