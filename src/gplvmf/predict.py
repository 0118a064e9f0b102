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
(2M + 1, M) projection, the rows [w; L_C^-1; L_B^-1 L_C^-1], and a query
costs one Psi1 row and one product with its user's projection; no
triangular solve is left per query.  The projections live in one store,
an array indexed by user id that the predictor fills when it is made, for
every user with a block: one stacked posterior pass
(:func:`gplvmf.bound.user_posterior`) per chunk of the blocks'
:func:`gplvmf.bound.plan`; a boolean mask marks those users.  The users'
q(u) depend on their training ratings alone, so a query only reads the
store.  :meth:`Predictor.predict_rows` reads its
rows as the bound does (one :meth:`~gplvmf.state.VariationalState.row_entries`
gather over a row view of the queries),
makes one Psi1 pass over all rows and the products in row chunks of bounded
size (no O(rows * M^2) temporary); :meth:`Predictor.predict` is the one-row
case of the same arithmetic, with a scalar lookup of the same tables.

Each query's result must not depend on the batch it arrives in: a batch
agrees bit for bit with one-query calls on the same predictor.  Matrix
products (``@``) do not give that, since BLAS picks its kernel and its
summation order by the operands' shapes.  So every per-row reduction here
is ``np.einsum`` or a row sum, and everything else is elementwise.

Unknown users are a hard error by default: the model is user-centric and has
no latent representation to fall back on.  A global-mean fallback exists for
evaluation harness convenience; any other ``unknown_user`` value is a
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import DEFAULT_JITTER, SharedFactors, plan, shared_factors, user_posterior
from .data import UserBlock, code_error, context_columns, context_value_error, integer_codes, is_code
from .kernels import psi1_rows
from .meanfn import phi_statistics
from .state import VariationalState


# Doubles of the projections one row step of predict_rows gathers (256 kB).
# Steps of 2^16..2^18 measured no faster on the benchmark shapes.
_STEP_BUDGET = 2**15
# The accepted ``unknown_user`` values of predict and predict_rows.
_UNKNOWN_USER_POLICIES = ("error", "global_mean")


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
    :meth:`score` and :meth:`share` look an entry up by name; a name that two
    entries share (a context named ``item``) is a ``ValueError``, and such
    entries are told apart by their position in ``entries``.
    """

    entries: tuple

    def _entry(self, name: str) -> tuple:
        found = [entry for entry in self.entries if entry[0] == name]
        if len(found) > 1:
            raise ValueError(f"{len(found)} relevance entries are named {name!r}; read them from entries")
        if not found:
            raise KeyError(name)
        return found[0]

    def score(self, name: str) -> float:
        return self._entry(name)[1]

    def share(self, name: str) -> float:
        return self._entry(name)[2]


def _unknown(user) -> UnknownUserError:
    return UnknownUserError(f"user {user} has no training ratings; no cold-start model is defined")


def _bad_policy(unknown_user) -> ValueError:
    return ValueError(f"unknown_user must be one of {_UNKNOWN_USER_POLICIES}, got {unknown_user!r}")


def _clamp_codes(codes: np.ndarray, last) -> np.ndarray:
    """Codes outside [0, last) read the trailing prior row ``last`` (one
    entity count, or one per column of ``codes``)."""
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
    """Prediction context over a trained state and its training blocks.

    Latent variances, bias row sums, each user's sigma2 and beta and the
    per-user projections are derived from the state, so the state must not
    change while the predictor is in use.  The projection of every user with
    a block is built here, a chunk of users at a time, into the user's row
    of the store; queries only read it.
    """

    def __init__(
        self,
        state: VariationalState,
        blocks: list,
        standardization=None,
        rating_scale: tuple[float, float] | None = None,
        jitter: float = DEFAULT_JITTER,
    ):
        self.state = state
        self.standardization = standardization
        self.rating_scale = rating_scale
        self.shared: SharedFactors = shared_factors(state, jitter)
        self.global_mean = float(np.mean(np.concatenate([b.ratings for b in blocks]))) if blocks else None

        # the store, one row per user id, rows [w; L_C^-1; L_B^-1 L_C^-1]
        schema, p, m = state.schema, state.params, state.inducing_count
        self._proj = np.empty((schema.user_count, 2 * m + 1, m))
        self._known = np.zeros(schema.user_count, dtype=bool)
        self._sigma2, self._beta = np.exp(state.log_sigma2), np.exp(state.log_beta)
        linv = self.shared.linv
        for chunk in plan(blocks, state).chunks:
            post = user_posterior(chunk, state, self.shared)
            users = chunk.users
            self._proj[users, 0] = (self._beta[users] * self._sigma2[users])[:, None] * post.v
            self._proj[users, 1 : m + 1] = linv
            self._proj[users, m + 1 :] = np.linalg.solve(post.chol_b, linv)
            self._known[users] = True

        self._cat_cols = schema.categorical_indices
        self._cards = np.array([schema.contexts[d].cardinality for d in self._cat_cols], dtype=np.int64)
        self._real_cols = schema.real_indices
        # the scalar lookup of predict; kernel tables: (column, kernel slice,
        # means, variances); bias tables: (column, row sums)
        self._kernel_tables = [
            (t.column, t.sl, p[t.mean], np.exp(p[t.log_var])) for t in state.layout.tables if t.in_kernel
        ]
        self._bias_tables = [
            (t.column, p[t.mean].sum(axis=1)) for t in state.layout.tables if not t.in_kernel
        ]
        use_mean = state.dims.use_mean
        self._user_bias = p["user_bias"] if use_mean else np.zeros(state.log_sigma2.shape)
        self._real_weights = p["real_weights"] if use_mean else np.zeros(len(self._real_cols))

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
        if unknown_user not in _UNKNOWN_USER_POLICIES:
            raise _bad_policy(unknown_user)
        if not is_code(user):
            raise code_error("user", float(user))
        user = int(user)
        if not (0 <= user < self._known.size and self._known[user]):
            if unknown_user == "global_mean" and self.global_mean is not None:
                mean = self.global_mean
                return Prediction(mean, float("nan"), self._clamp(mean))
            raise _unknown(user)
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
        phi1 = self._user_bias[user]
        for column, sums in self._bias_tables:
            code, last = item if column is None else cats[column], len(sums) - 1
            phi1 = phi1 + sums[code if 0 <= code < last else last]
        phi1 = phi1 + np.einsum("qd,d->q", reals, self._real_weights)

        psi = psi1_rows(self.shared.side, mu, var)
        out = _project(self._proj[user][None], psi)
        mean, variance = _moments(out, phi1, self._sigma2[user], self._beta[user], include_noise)
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
        if unknown_user not in _UNKNOWN_USER_POLICIES:
            raise _bad_policy(unknown_user)
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
        inside = (users >= 0) & (users < self._known.size)
        known = inside & self._known[np.where(inside, users, 0)]
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
        # the bound's row walks over a row view of the queries: no ratings,
        # and every unknown code clamped to its table's trailing prior row
        n = len(users)
        items = _clamp_codes(items, self.state.schema.item_count)
        rows = UserBlock(users, items, _clamp_codes(cats, self._cards), reals, ratings=np.full(n, np.nan))
        entries = self.state.row_entries(rows)
        mu, var = self.state.assemble_rows(rows, entries)
        phi1 = phi_statistics(self.state, rows, entries).phi1

        psi = psi1_rows(self.shared.side, mu, var)
        out = np.empty((n, self._proj.shape[1]))
        step = max(1, _STEP_BUDGET // self._proj[0].size)
        for start in range(0, n, step):
            sl = slice(start, start + step)
            out[sl] = _project(self._proj[users[sl]], psi[sl])
        return _moments(out, phi1, self._sigma2[users], self._beta[users], include_noise)


def context_relevance(state: VariationalState) -> ContextRelevance:
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
