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

where L_B is the Cholesky factor of B.  So each user is reduced once to an
(M + 1, M) projection, the rows [w; L_B^-1 L_C^-1]; L_C^-1 is shared by
every user (:class:`gplvmf.bound.SharedFactors`).  The projections live in
one store, an array indexed by user id that the predictor fills when it is
made, for every user with a block: one stacked posterior pass
(:func:`gplvmf.bound.user_posterior`) per chunk of the blocks'
:func:`gplvmf.bound.plan`; a boolean mask marks those users.  The users'
q(u) depend on their training ratings alone, so a query only reads the
store.

Nor does a query take a Psi1 pass.  Under the diagonal q, psi* is a product
of one factor per latent block, and each block is fixed by one entity: an
item, or one category of a context.  So the predictor also builds, once,
each kernel table's (E + 1, M) factor table (:func:`gplvmf.kernels.psi1_factor`,
prior row included) and each bias table's row sums; a real context, at zero
variance, gives the factor exp(-alpha (x - z)^2 / 2).  A query row
(:meth:`Predictor._rows`) multiplies its rows of the factor tables and its
real factors, adds its bias row sums into phi1*, and takes one product with
the shared L_C^-1 and one with its user's projection.

:meth:`Predictor.predict_rows` and :meth:`Predictor.predict` both run that
walk on clamped codes and differ only in their checks: on one row,
``predict_rows``' array checks would cost more than the whole query, so
``predict`` makes the same checks with scalar tests, in the same order.

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
from .data import code_error, context_columns, context_value_error, integer_codes, is_code
from .kernels import psi1_factor
from .state import VariationalState


# Doubles of the projections one row step of predict_rows gathers (256 kB).
# Steps of 2^16..2^18 measured no faster on the benchmark shapes.
_STEP_BUDGET = 2**15
# The accepted ``unknown_user`` values of predict and predict_rows.
_UNKNOWN_USER_POLICIES = ("error", "global_mean")


class UnknownUserError(KeyError):
    """Raised for users with no training block (no cold-start model)."""

    __str__ = Exception.__str__   # the message itself, where a KeyError's is quoted


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


class Predictor:
    """Prediction context over a trained state and its training blocks.

    Everything a query reads is derived here from the state, so the state
    must not change while the predictor is in use: the per-entity Psi1
    factor tables and bias row sums, the real contexts' inverse
    length-scales and inducing inputs, each user's bias, sigma2 and beta,
    and the store of projections.  The projection of every user with a
    block is built a chunk of users at a time, into the user's row of the
    store.
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

        # the store, one row per user id, rows [w; L_B^-1 L_C^-1]
        schema, p, m = state.schema, state.params, state.inducing_count
        self._proj = np.empty((schema.user_count, m + 1, m))
        self._known = np.zeros(schema.user_count, dtype=bool)
        self._sigma2, self._beta = np.exp(state.log_sigma2), np.exp(state.log_beta)
        for chunk in plan(blocks, state).chunks:
            post = user_posterior(chunk, state, self.shared)
            users = chunk.users
            self._proj[users, 0] = (self._beta[users] * self._sigma2[users])[:, None] * post.v
            self._proj[users, 1:] = np.linalg.solve(post.chol_b, self.shared.linv)
            self._known[users] = True

        self._cat_cols, self._real_cols = schema.categorical_indices, schema.real_indices
        self._cards = np.array([schema.contexts[d].cardinality for d in self._cat_cols], dtype=np.int64)
        # per-entity tables, each as (block column, table): the unit-signal
        # Psi1 factor of each kernel table, the item table's first, and the
        # row sums of each bias table
        alpha, layout = self.shared.side.alpha, state.layout
        self._psi_tables = [
            (t.column, psi1_factor(alpha[t.sl], p[t.mean], np.exp(p[t.log_var]), state.z[:, t.sl]))
            for t in layout.tables if t.in_kernel
        ]
        self._bias_tables = [(t.column, p[t.mean].sum(axis=1)) for t in layout.tables if not t.in_kernel]
        # the real contexts' -alpha / 2 and inducing inputs, (R,) and (R, M)
        fixed = layout.fixed_mask
        self._real_alpha, self._real_z = -0.5 * alpha[fixed], np.ascontiguousarray(state.z[:, fixed].T)
        use_mean = state.dims.use_mean
        self._user_bias = p["user_bias"] if use_mean else np.zeros(schema.user_count)
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
        schema = self.state.schema
        if len(context_values) != schema.context_count:
            raise ValueError(f"expected {schema.context_count} context values, got {len(context_values)}")

        # The checks and clamps are scalar here: on one row, the array checks
        # of :meth:`predict_rows` cost more than the whole query.  The values,
        # errors and their order are those of :meth:`predict_rows`, which
        # looks the user up last.
        if not is_code(user):
            raise code_error("user", float(user))
        if not is_code(item):
            raise code_error("item", float(item))
        user, item = int(user), int(item)
        cats, raw = [], []
        for d in self._cat_cols:
            ctx, value = schema.contexts[d], context_values[d]
            if not is_code(value):
                raise context_value_error(ctx, float(value))
            value = int(value)
            cats.append(value if 0 <= value < ctx.cardinality else ctx.cardinality)
        for d in self._real_cols:
            value = float(context_values[d])
            if not math.isfinite(value):
                raise context_value_error(schema.contexts[d], value)
            raw.append(value)
        if not (0 <= user < self._known.size and self._known[user]):
            if unknown_user == "global_mean" and self.global_mean is not None:
                mean = self.global_mean
                return Prediction(mean, float("nan"), self._clamp(mean))
            raise _unknown(user)
        item = item if 0 <= item < schema.item_count else schema.item_count
        mean, variance = self._rows(np.array([user]), np.array([item]), np.array([cats], dtype=np.int64),
                                    self._standardize(np.array([raw])), include_noise)
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
            items, cats = _clamp_codes(items[rows], self.state.schema.item_count), _clamp_codes(cats[rows], self._cards)
            means[rows], variances[rows] = self._rows(users[rows], items, cats, reals[rows], include_noise)
        clamped = means.copy() if self.rating_scale is None else np.clip(means, *self.rating_scale)
        return means, variances, clamped

    def _rows(self, users, items, cats, reals, include_noise):
        """Mean and variance of query rows of known users, whose item and
        category codes are clamped to their tables' rows: per-entity Psi1
        factors and bias row sums, then the projections (module docstring)."""
        (_, first), *rest = self._psi_tables
        psi = first[items]
        for column, table in rest:
            psi *= table[cats[:, column]]
        phi1 = self._user_bias[users]
        for column, sums in self._bias_tables:
            phi1 += sums[items if column is None else cats[:, column]]
        if reals.shape[1]:
            diff = np.subtract(reals[:, :, None], self._real_z, order="C")       # (n, R, M)
            psi *= np.exp(np.einsum("nrm,r->nm", np.square(diff, out=diff), self._real_alpha))
            phi1 += np.einsum("nr,r->n", reals, self._real_weights)

        n, (m1, m) = len(users), self._proj.shape[1:]
        g = np.einsum("am,nm->na", self.shared.linv, psi)                        # L_C^-1 psi
        out = np.empty((n, m1))                                                  # [w . psi | L_B^-1 L_C^-1 psi]
        step = max(1, _STEP_BUDGET // (m1 * m))
        for start in range(0, n, step):
            sl = slice(start, start + step)
            out[sl] = np.einsum("nam,nm->na", self._proj[users[sl]], psi[sl])
        h = out[:, 1:]
        sigma2 = self._sigma2[users]
        variance = np.maximum(sigma2 * (1.0 - np.einsum("na,na->n", g, g) + np.einsum("na,na->n", h, h)), 0.0)
        if include_noise:
            variance = variance + 1.0 / self._beta[users]
        return out[:, 0] + phi1, variance


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
