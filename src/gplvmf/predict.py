"""Predictive distributions and the context-relevance report.

The predictive mean for a query row of user n is

    mean = Psi1* (beta^-1 K + Psi2)^-1 Psi1^T (y - phi1) + phi1*
         = beta * Psi1* A^-1 c + phi1*,        A = K + beta * Psi2,

with Psi1* and phi1* evaluated under the trained variational distribution of
the query's item/context latents (real-valued contexts contribute their
standardized observed value directly).  The reported variance is the sparse
posterior variance of the latent function value,

    var = sigma2 - Psi1* (K^-1 - A^-1) Psi1*^T,

clipped at zero after symmetric stabilization; observation noise 1/beta can
be added on request.  At Z = X with point-mass latents this reduces exactly
to the full GP posterior variance, which is how the expression is validated.

Unknown users are a hard error by default: the model is user-centric and has
no latent representation to fall back on.  A global-mean fallback exists for
evaluation harness convenience.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .bound import DEFAULT_JITTER, SharedFactors, UserPosterior, shared_factors, user_posterior
from .data import ContextSchema
from .kernels import ArdKernel, psi1_matrix
from .state import VariationalState


class UnknownUserError(KeyError):
    """Raised for users with no training block (no cold-start model)."""


@dataclass(frozen=True)
class Prediction:
    mean: float
    variance: float
    clamped_mean: float


@dataclass(frozen=True)
class ContextRelevance:
    """Per-block sums of the inverse length-scales, with normalized shares.

    Entries are (name, score, share); the item block appears as its own entry
    for reference.  Shares sum to one whenever any score is positive.
    """

    entries: tuple

    def score(self, name: str) -> float:
        return dict((n, s) for n, s, _ in self.entries)[name]

    def share(self, name: str) -> float:
        return dict((n, sh) for n, _, sh in self.entries)[name]


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(chol, rhs, lower=True)`` for a
    C-ordered Cholesky factor: the same LAPACK call with the same result,
    without the argument checks that cost most of a warm query."""
    x, _ = lapack.dtrtrs(chol.T, rhs, lower=0, trans=1)
    return x


class Predictor:
    """Read-only prediction context over a trained state and its training blocks.

    Per-user solve factors are cached on first use and shared across queries;
    everything here is safe for concurrent readers.
    """

    def __init__(
        self,
        state: VariationalState,
        blocks: list,
        standardization=None,
        rating_scale: tuple[float, float] | None = None,
        jitter: float = DEFAULT_JITTER,
        global_mean: float | None = None,
    ):
        self.state = state
        self.blocks_by_user = {b.user: b for b in blocks}
        self.standardization = standardization
        self.rating_scale = rating_scale
        self.jitter = jitter
        self.shared: SharedFactors = shared_factors(state, jitter)
        self._posteriors: dict[int, UserPosterior] = {}
        if global_mean is None and blocks:
            global_mean = float(np.mean(np.concatenate([b.ratings for b in blocks])))
        self.global_mean = global_mean

    def _posterior(self, user: int) -> UserPosterior:
        post = self._posteriors.get(user)
        if post is None:
            post = user_posterior(
                self.blocks_by_user[user], self.state, shared=self.shared, jitter=self.jitter
            )
            self._posteriors[user] = post
        return post

    def _split_context(self, context_values):
        """Raw query context values (schema order) -> (cat codes, std reals)."""
        schema = self.state.schema
        if len(context_values) != schema.context_count:
            raise ValueError(
                f"expected {schema.context_count} context values, got {len(context_values)}"
            )
        cats, reals = [], []
        for d, ctx in enumerate(schema.contexts):
            if ctx.is_categorical:
                cats.append(int(context_values[d]))
            else:
                reals.append(float(context_values[d]))
        reals = np.asarray(reals, dtype=float)
        if self.standardization is not None and reals.size:
            reals = self.standardization.apply(reals)
        return np.asarray(cats, dtype=np.int64), reals

    def _query_row(self, user: int, item: int, cats: np.ndarray, reals: np.ndarray):
        """Kernel latent mean/variance row and bias mean phi1* of one query;
        an unseen code reads the trailing prior row of every table it indexes."""
        state, p = self.state, self.state.params
        mu = np.zeros((1, state.kernel_dim))
        var = np.zeros((1, state.kernel_dim))
        phi1 = float(p["user_bias"][user]) if state.dims.use_mean else 0.0
        for t in state.layout.tables:
            code = item if t.column is None else int(cats[t.column])
            idx = code if 0 <= code < t.shape[0] - 1 else t.shape[0] - 1
            if t.in_kernel:
                mu[0, t.sl] = p[t.mean][idx]
                var[0, t.sl] = np.exp(p[t.log_var][idx])
            else:
                phi1 += float(p[t.mean][idx].sum())
        mu[0, state.layout.fixed_mask] = reals
        if state.dims.use_mean:
            phi1 += float(reals @ p["real_weights"])
        return mu, var, phi1

    def predict(
        self,
        user: int,
        item: int,
        context_values,
        include_noise: bool = False,
        unknown_user: str = "error",
    ) -> Prediction:
        state = self.state
        if user not in self.blocks_by_user:
            if unknown_user == "global_mean" and self.global_mean is not None:
                mean = self.global_mean
                return Prediction(mean, float("nan"), self._clamp(mean))
            raise UnknownUserError(
                f"user {user} has no training ratings; no cold-start model is defined"
            )
        post = self._posterior(user)
        cats, reals = self._split_context(context_values)
        mu, var, phi1_star = self._query_row(user, item, cats, reals)

        kern = ArdKernel(post.sigma2, np.exp(state.log_alpha))
        psi1_star = psi1_matrix(kern, mu, var, state.z)  # (1, M)

        mean = post.beta * float(psi1_star[0] @ post.v) + phi1_star

        # var = sigma2 - psi* (K^-1 - A^-1) psi*^T, via whitened triangular solves
        half_k = _solve_lower(post.chol_k, psi1_star.T)
        q1 = float(np.sum(half_k**2))
        half_b = _solve_lower(post.chol_b, half_k)
        q2 = float(np.sum(half_b**2))
        variance = max(post.sigma2 - q1 + q2, 0.0)
        if include_noise:
            variance += 1.0 / post.beta

        return Prediction(mean=mean, variance=variance, clamped_mean=self._clamp(mean))

    def _clamp(self, mean: float) -> float:
        if self.rating_scale is None:
            return mean
        lo, hi = self.rating_scale
        return float(min(max(mean, lo), hi))

    def predict_rows(
        self,
        users,
        items,
        context_rows,
        include_noise: bool = False,
        unknown_user: str = "error",
    ):
        """Vectorized over query rows; ``context_rows[i]`` is raw schema order."""
        means = np.empty(len(users))
        variances = np.empty(len(users))
        clamped = np.empty(len(users))
        for i, (u, it) in enumerate(zip(users, items)):
            p = self.predict(
                int(u), int(it), context_rows[i], include_noise=include_noise, unknown_user=unknown_user
            )
            means[i] = p.mean
            variances[i] = p.variance
            clamped[i] = p.clamped_mean
        return means, variances, clamped


def context_relevance(state: VariationalState, schema: ContextSchema | None = None) -> ContextRelevance:
    """Aggregate trained inverse length-scales per latent block.

    The per-context score sums alpha over that context's coordinates; the
    item block is reported alongside for reference.  Shares normalize the
    scores to sum to one.
    """
    alpha = np.exp(state.log_alpha)
    scores = [(b.name, float(alpha[b.sl].sum())) for b in state.layout.blocks]
    total = sum(s for _, s in scores)
    entries = tuple(
        (name, score, score / total if total > 0 else 0.0) for name, score in scores
    )
    return ContextRelevance(entries=entries)
