"""Predictive distributions and the context-relevance report.

The predictive mean for a query row of user n is

    mean = Psi1* (beta^-1 K + Psi2)^-1 Psi1^T (y - phi1) + phi1*
         = beta * Psi1* A^-1 c + phi1*,        A = K + beta * Psi2,

with Psi1* and phi1* evaluated under the trained variational distribution of
the query's item/context latents (real-valued contexts contribute their
standardized observed value directly).  The reported variance is the sparse
posterior variance of the latent function value,

    var = sigma2 - Psi1* (K^-1 - A^-1) Psi1*^T,

clipped at zero; observation noise 1/beta can be added on request.  At
Z = X with point-mass latents this reduces exactly to the full GP posterior
variance, which is how the expression is validated.

Both are evaluated in the bound's whitened form (:mod:`gplvmf.bound`).  With
K = sigma2 * L_C L_C^T, A = L B L^T and the unit-signal row psi* = Psi1* /
sigma2,

    mean = psi* . w + phi1*,                    w = beta sigma2 A^-1 c
    var  = sigma2 (1 - |L_C^-1 psi*|^2 + |L_B^-1 L_C^-1 psi*|^2)

where L_B is the Cholesky factor of B.  So each user is reduced once to a
(2M + 1, M) projection, the rows [w; L_C^-1; L_B^-1 L_C^-1], built for a
chunk of users at a time from one stacked posterior pass
(:func:`gplvmf.bound.user_posterior` over :func:`gplvmf.bound._chunks`), and
a query costs one Psi1 row and one product with its user's projection; no
triangular solve is left per query.  :meth:`Predictor.predict_rows` makes one
gather over the latent tables, one Psi1 pass over all rows and the products
in row chunks of bounded size (no O(rows * M^2) temporary);
:meth:`Predictor.predict` is the one-row case of the same arithmetic.

Each query's result must not depend on the batch it arrives in: a batch
agrees bit for bit with one-query calls on the same predictor.  Matrix
products (``@``) do not give that, since BLAS picks its kernel and its
summation order by the operands' shapes.  So every per-row reduction here
is ``np.einsum`` or a row sum, and everything else is elementwise.

Unknown users are a hard error by default: the model is user-centric and has
no latent representation to fall back on.  A global-mean fallback exists for
evaluation harness convenience.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import DEFAULT_JITTER, SharedFactors, _chunks, shared_factors, user_posterior
from .data import ContextSchema, code_error, context_columns, context_value_error, integer_codes, is_code
from .kernels import ArdKernel, Psi1Rows
from .state import VariationalState


# Doubles of the projections one row step of predict_rows gathers (256 kB).
# Steps of 2^16..2^18 measured no faster on the benchmark shapes.
_STEP_BUDGET = 2**15


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


def _unknown(user) -> UnknownUserError:
    return UnknownUserError(f"user {user} has no training ratings; no cold-start model is defined")


def _clamp_codes(codes: np.ndarray, last: int) -> np.ndarray:
    """Codes outside [0, last) read the trailing prior row ``last``."""
    return np.where((codes >= 0) & (codes < last), codes, last)


def _project(proj: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Rows of the users' projections (n, 2M+1, M) times unit-signal Psi1 rows (n, M)."""
    return np.einsum("qam,qm->qa", proj, psi)


def _moments(out, phi1, sigma2, beta, include_noise: bool):
    """Mean and variance per row from :func:`_project`'s output."""
    m = (out.shape[1] - 1) // 2
    g, h = out[:, 1 : m + 1], out[:, m + 1 :]
    mean = out[:, 0] + phi1
    variance = np.maximum(sigma2 * (1.0 - np.einsum("qa,qa->q", g, g) + np.einsum("qa,qa->q", h, h)), 0.0)
    if include_noise:
        variance = variance + 1.0 / beta
    return mean, variance


class Predictor:
    """Read-only prediction context over a trained state and its training blocks.

    Latent variances, bias row sums and per-user projections are derived
    from the state once, so the state must not change while the predictor
    is in use.  Projections are built on first use (or by :meth:`warm`), a
    chunk of users at a time, and shared across queries; ``users_built``
    counts the users built so far.
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
        self.shared: SharedFactors = shared_factors(state, jitter)
        if global_mean is None and blocks:
            global_mean = float(np.mean(np.concatenate([b.ratings for b in blocks])))
        self.global_mean = global_mean
        self.users_built = 0

        m = state.inducing_count
        self._slot: dict[int, int] = {}               # user -> row of the factor arrays
        self._sigma2 = np.empty(0)
        self._beta = np.empty(0)
        self._proj = np.empty((0, 2 * m + 1, m))      # rows [w; L_C^-1; L_B^-1 L_C^-1]
        self._known = np.array(sorted(self.blocks_by_user), dtype=np.int64)

        schema, p = state.schema, state.params
        self._cat_cols = schema.categorical_indices
        self._real_cols = schema.real_indices
        self._psi1 = Psi1Rows(ArdKernel(1.0, np.exp(state.log_alpha)), state.z)
        # kernel tables: (column, kernel slice, means, variances); bias tables: (column, row sums)
        self._kernel_tables = [
            (t.column, t.sl, p[t.mean], np.exp(p[t.log_var])) for t in state.layout.tables if t.in_kernel
        ]
        self._bias_tables = [
            (t.column, p[t.mean].sum(axis=1)) for t in state.layout.tables if not t.in_kernel
        ]
        use_mean = state.dims.use_mean
        self._user_bias = p["user_bias"] if use_mean else np.zeros(state.log_sigma2.shape)
        self._real_weights = p["real_weights"] if use_mean else np.zeros(len(self._real_cols))

    def warm(self, users) -> None:
        """Build the projections of every listed user not built yet, one
        stacked posterior per chunk of users with equal rating counts
        (:func:`gplvmf.bound._chunks`); an unknown user raises
        :class:`UnknownUserError`."""
        todo = []
        for user in dict.fromkeys(users):
            if user not in self._slot:
                if user not in self.blocks_by_user:
                    raise _unknown(user)
                todo.append(self.blocks_by_user[user])
        if not todo:
            return
        linv = self.shared.linv
        posts = [user_posterior([todo[i] for i in idx], self.state, shared=self.shared)
                 for idx in _chunks(todo, self.state)]
        users = np.concatenate([post.users for post in posts])
        sigma2 = np.concatenate([post.sigma2 for post in posts])
        beta = np.concatenate([post.beta for post in posts])
        weights = (beta * sigma2)[:, None] * np.concatenate([post.v for post in posts])
        whiten = np.concatenate([np.linalg.solve(post.chol_b, linv) for post in posts])
        proj = np.concatenate([weights[:, None, :], np.broadcast_to(linv, whiten.shape), whiten], axis=1)
        self._slot.update(zip(users.tolist(), range(len(self._sigma2), len(self._sigma2) + len(users))))
        self._sigma2 = np.concatenate([self._sigma2, sigma2])
        self._beta = np.concatenate([self._beta, beta])
        self._proj = np.concatenate([self._proj, proj])
        self.users_built += len(todo)

    def _standardize(self, reals: np.ndarray) -> np.ndarray:
        return reals if self.standardization is None else self.standardization.apply(reals)

    def predict(
        self,
        user: int,
        item: int,
        context_values,
        include_noise: bool = False,
        unknown_user: str = "error",
    ) -> Prediction:
        slot = self._slot.get(user)
        if slot is None:
            if not is_code(user):
                raise code_error("user", float(user))
            if user not in self.blocks_by_user:
                if unknown_user == "global_mean" and self.global_mean is not None:
                    mean = self.global_mean
                    return Prediction(mean, float("nan"), self._clamp(mean))
                raise _unknown(user)
            self.warm([user])
            slot = self._slot[user]
        count = self.state.schema.context_count
        if len(context_values) != count:
            raise ValueError(f"expected {count} context values, got {len(context_values)}")

        # The split, its checks and the gather are scalar here: for one row,
        # the array split of :func:`gplvmf.data.context_columns` (several times
        # this loop), array clamps and fancy indexing would cost more than the
        # arithmetic (see :meth:`_rows`).  The values and errors are the same.
        if not is_code(item):
            raise code_error("item", float(item))
        item = int(item)
        contexts = self.state.schema.contexts
        cats, raw = [], []
        for d in self._cat_cols:
            value = context_values[d]
            if not is_code(value):
                raise context_value_error(contexts[d], float(value))
            cats.append(int(value))
        for d in self._real_cols:
            value = float(context_values[d])
            if not math.isfinite(value):
                raise context_value_error(contexts[d], value)
            raw.append(value)
        reals = self._standardize(np.array([raw]))
        mu = np.empty((1, self.state.kernel_dim))
        var = np.zeros((1, self.state.kernel_dim))
        for column, sl, mean, variance in self._kernel_tables:
            code, last = item if column is None else cats[column], len(mean) - 1
            row = code if 0 <= code < last else last
            mu[0, sl] = mean[row]
            var[0, sl] = variance[row]
        mu[:, self.state.layout.fixed_mask] = reals
        phi1 = self._user_bias[int(user)]
        for column, sums in self._bias_tables:
            code, last = item if column is None else cats[column], len(sums) - 1
            phi1 = phi1 + sums[code if 0 <= code < last else last]
        phi1 = phi1 + np.einsum("qd,d->q", reals, self._real_weights)

        psi = self._psi1(mu, var)
        out = _project(self._proj[slot][None], psi)
        mean, variance = _moments(out, phi1, self._sigma2[slot], self._beta[slot], include_noise)
        mean = float(mean[0])
        return Prediction(mean=mean, variance=float(variance[0]), clamped_mean=self._clamp(mean))

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
        """Means, variances and clamped means of a batch of queries;
        ``context_rows[i]`` is raw schema order.  Each row equals
        :meth:`predict` on the same query, bit for bit."""
        n = len(users)
        if n == 0:
            return np.empty(0), np.empty(0), np.empty(0)
        count = self.state.schema.context_count
        if len(context_rows) != n:
            raise ValueError(f"{n} queries but {len(context_rows)} context rows")
        for row in context_rows:
            if len(row) != count:
                raise ValueError(f"expected {count} context values, got {len(row)}")
        users, items = integer_codes(users, "user"), integer_codes(items, "item")
        cats, reals = context_columns(self.state.schema, context_rows)
        reals = self._standardize(reals)

        means, variances = np.empty(n), np.empty(n)
        known = np.isin(users, self._known)
        if not known.all():
            if unknown_user != "global_mean" or self.global_mean is None:
                raise _unknown(int(users[~known][0]))
            means[~known], variances[~known] = self.global_mean, np.nan
        rows = np.flatnonzero(known)
        if rows.size:
            means[rows], variances[rows] = self._rows(
                users[rows], items[rows], cats[rows], reals[rows], include_noise
            )
        clamped = means.copy() if self.rating_scale is None else np.clip(means, *self.rating_scale)
        return means, variances, clamped

    def _rows(self, users, items, cats, reals, include_noise):
        """Mean and variance of query rows of known users."""
        uniq, inv = np.unique(users, return_inverse=True)
        self.warm(uniq.tolist())
        slots = np.array([self._slot[u] for u in uniq.tolist()])[inv]

        n = len(users)
        mu = np.empty((n, self.state.kernel_dim))
        var = np.zeros((n, self.state.kernel_dim))
        for column, sl, mean, variance in self._kernel_tables:
            codes, last = items if column is None else cats[:, column], len(mean) - 1
            rows = _clamp_codes(codes, last)
            mu[:, sl] = mean[rows]
            var[:, sl] = variance[rows]
        mu[:, self.state.layout.fixed_mask] = reals
        phi1 = self._user_bias[users]
        for column, sums in self._bias_tables:
            codes, last = items if column is None else cats[:, column], len(sums) - 1
            phi1 = phi1 + sums[_clamp_codes(codes, last)]
        phi1 = phi1 + np.einsum("qd,d->q", reals, self._real_weights)

        psi = self._psi1(mu, var)
        out = np.empty((n, self._proj.shape[1]))
        step = max(1, _STEP_BUDGET // self._proj[0].size)
        for start in range(0, n, step):
            sl = slice(start, start + step)
            out[sl] = _project(self._proj[slots[sl]], psi[sl])
        return _moments(out, phi1, self._sigma2[slots], self._beta[slots], include_noise)


def context_relevance(state: VariationalState, schema: ContextSchema | None = None) -> ContextRelevance:
    """Aggregate trained inverse length-scales per latent block.

    The per-context score sums alpha over that context's coordinates; the
    item block is reported alongside for reference.  Shares normalize the
    scores to sum to one.
    """
    alpha = np.exp(state.log_alpha)
    scores = [(name, float(alpha[sl].sum())) for name, sl in state.layout.slices]
    total = sum(s for _, s in scores)
    entries = tuple(
        (name, score, score / total if total > 0 else 0.0) for name, score in scores
    )
    return ContextRelevance(entries=entries)
