"""Collapsed variational lower bound on the log marginal likelihood.

Per user (dropping the user subscript), with K = K_MM over the inducing
inputs, A = K + beta * Psi2, and residual r = y - phi1:

    F =   (N/2) log beta - (N/2) log 2*pi + (1/2) log|K| - (1/2) log|A|
        - (1/2) (W1 - W2) - (beta/2) psi0 + (beta/2) Tr(K^-1 Psi2)

    W1 = beta * (y^T y - 2 y^T phi1 + phi0)
    W2 = beta^2 * r^T Psi1 A^-1 Psi1^T r

The total objective adds the per-user terms and subtracts one KL divergence
from the variational posterior to the standard-normal prior over every free
latent coordinate.

Everything is evaluated in whitened form.  K = sigma2 * C, where the
unit-signal inducing gram C = L_C L_C^T is common to all users, so
L = sqrt(sigma2) L_C and one triangular inverse L_C^-1 whitens every user.
With

    T = L^-1 Psi2 L^-T,   B = I + beta * T,   c = Psi1^T r,   b = B^-1 L^-1 c,

the determinant terms collapse to -(1/2) log|B|, and Tr(K^-1 Psi2) = Tr(T),
W2 = beta^2 (L^-1 c)^T b, Tr(A^-1 Psi2) = Tr(B^-1 T) and, for
w = A^-1 c = L^-T b, w^T Psi2 w = b^T T b.  Every cotangent is L^-T X L^-1
with X in whitened space; since I - B^-1 = beta * B^-1 T,

    dF/dK    = -(beta^2/2) L^-T (B^-1 T^2 + b b^T) L^-1
    dF/dPsi2 =  (beta^2/2) L^-T (B^-1 T - beta * b b^T) L^-1

(B^-1 and T commute).  No inverse of K or A is formed, so large entries do
not cancel when inducing points nearly coincide.  When the Cholesky of B
needs jitter, B = (1 + e) I + beta * T (A gains e * K) and
I - B^-1 = beta * B^-1 T + e * B^-1 keeps both cotangents exact.  The
backward pass chains analytic derivatives through the psi/phi statistics,
the factorizations and the log-determinants; no finite differences are used
anywhere in training.

User terms are independent given the state (rows and users sum
independently, the map-reduce form of Gal, van der Wilk & Rasmussen 2014),
so :func:`total_bound` takes users in chunks: users of the same rating count,
at most ``_ROW_BUDGET`` doubles together (:func:`_chunks`).  Only the
parameters change between calls, so a block sequence is planned once
(:func:`plan`): a :class:`Chunk` keeps its rows end to end and the flat
positions of the table entries they read.  A chunk gathers those entries
with one index, makes one unit-signal psi pass over its rows (Psi1 scales by
sigma2 and Psi2 by sigma2^2 per user), takes every per-user sum as a reshape
over (U, n, ...), solves one stacked (U, M, M) whitened system, makes one
:func:`psi_backward` call and adds its gradients with one ``np.bincount``
over the same positions, the gather's adjoint (:func:`_scatter`).  Every
matrix product over rows or over users is a stacked product with one user
per slice (:func:`_per_user` and the psi cache's), so a chunk's products
have one user's shapes: the chunk size changes neither how many BLAS
threads a product runs on nor any bit of a user's terms or q(u), only the
rounding of sums over users, and the budget bounds memory alone.  The
inducing-gram gradient is linear in dF/dK, so the chunks' sigma2-weighted
cotangents are summed and go through one :func:`gram_backward` per call.
SGD's :func:`_user_terms` takes the plan's one-user chunks
(:meth:`Plan.steps`) and prediction's :func:`user_posterior` takes
:func:`_chunks` chunks.  The KL (:func:`kl_to_prior`, :func:`kl_gradients`)
walks the state's table description, since kernel and bias latents share
the standard-normal prior.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .data import UserBlock
from .kernels import _PsiCache, gram_backward, psi_backward
from .meanfn import phi_backward, phi_statistics
from .state import VariationalState

DEFAULT_JITTER = 1e-6
_ESCALATION = (1.0, 10.0, 100.0)
# Doubles of one chunk of users, counted as in _chunks: a proxy that bounds
# the memory a chunk holds, not BLAS threading (every product over rows or
# users is taken per user).  Swept over 2^15..2^20 on the benchmark shapes:
# 2^17 takes most of the time saved by larger chunks while the tracemalloc
# peak of many small users grows by about 2 MB (CHANGES.md).
_ROW_BUDGET = 2**17


class FactorizationError(ArithmeticError):
    """Cholesky failed even after jitter escalation."""


def _chol_with_escalation(mat: np.ndarray, jitter: float, what: str, base: bool = True):
    """Lower-Cholesky of ``mat + j*I``, escalating j twice before giving up.

    With ``base=False`` the first attempt adds no jitter (for systems that
    already inherit it).  Returns the factor and the jitter actually added.
    """
    mults = _ESCALATION if base else (0.0,) + _ESCALATION[1:]
    for mult in mults:
        j = jitter * mult
        try:
            return np.linalg.cholesky(mat + j * np.eye(mat.shape[0])), j
        except np.linalg.LinAlgError:
            continue
    eigs = np.linalg.eigvalsh(mat)
    raise FactorizationError(
        f"{what}: Cholesky failed at jitter {jitter * _ESCALATION[-1]:.1e}; "
        f"eigenvalue range [{eigs.min():.3e}, {eigs.max():.3e}]"
    )


@dataclass
class SharedFactors:
    """Quantities common to every user at a fixed (Z, alpha): the unit-signal
    inducing gram C = exp-part + jitter*I, its factor and that factor's inverse."""

    gram0: np.ndarray        # exp part only, unit diagonal
    c: np.ndarray            # gram0 + jitter*I
    chol_c: np.ndarray       # lower triangular L_C
    linv: np.ndarray         # L_C^-1, lower triangular
    jitter: float


def shared_factors(state: VariationalState, jitter: float = DEFAULT_JITTER) -> SharedFactors:
    alpha = np.exp(state.log_alpha)
    gram0 = np.exp(
        -0.5 * np.einsum("q,abq->ab", alpha, (state.z[:, None, :] - state.z[None, :, :]) ** 2)
    )
    chol_c, j = _chol_with_escalation(gram0, jitter, "inducing gram")
    linv, _ = lapack.dtrtri(chol_c, lower=1)
    return SharedFactors(gram0=gram0, c=gram0 + j * np.eye(gram0.shape[0]), chol_c=chol_c, linv=linv, jitter=j)


def _chunks(blocks: list, state: VariationalState) -> list:
    """Index arrays of the blocks that share a chunk, in the order of their
    first blocks: equal rating counts and at most ``_ROW_BUDGET`` doubles
    together, one block at the least.  A user of n ratings counts
    P (n + 2 (2Q + 2)) doubles, P = M (M + 1) / 2: its packed Psi2 rows and
    its share of :func:`psi_backward`'s two (G, P, 2Q + 2) stacks, about 40%
    of a small user's chunk memory (CHANGES.md)."""
    pairs = state.inducing_count * (state.inducing_count + 1) // 2
    stacks = 2 * (2 * state.kernel_dim + 2)
    counts = np.array([block.count for block in blocks], dtype=np.int64)
    sizes = np.maximum(1, _ROW_BUDGET // (pairs * (counts + stacks)))
    order = np.argsort(counts, kind="stable")
    chunks = []
    for same in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1) if len(blocks) else []:
        chunks += np.split(same, range(sizes[same[0]], len(same), sizes[same[0]]))
    return sorted(chunks, key=lambda chunk: chunk[0])   # a chunk opens at its first block


# Point parameters a chunk reads at its users' entries alone, not whole.
_PER_USER = ("user_bias", "log_sigma2", "log_beta")


def _points(state: VariationalState, users: np.ndarray) -> list:
    """Flat positions of the point entries in flat order, a per-user key's at the users."""
    return [
        state.offsets[k] + (users if key in _PER_USER else np.arange(state.params[key].size))
        for k, key in enumerate(state.layout.keys) if k >= 2 * len(state.layout.tables)
    ]


class Chunk:
    """The users of one :func:`_chunks` entry (all of ``blocks`` when ``idx``
    is None), planned for a state layout.  ``rows`` holds their rows end to
    end (a lone block's own rows), whose ``user`` then holds every row's
    user.  ``gather`` holds the flat positions ``offset[key] + code * width
    + column`` of the (N, K) table entries the rows read, in the order of
    :attr:`gplvmf.state.KernelLayout.entries`; the forward pass reads
    ``state.flat[gather]``.  ``pos`` adds :func:`_points`, along which
    :func:`_scatter` lays the gradients out for one ``np.bincount``.
    """

    def __init__(self, blocks, state: VariationalState, idx=None):
        self.idx = np.arange(len(blocks)) if idx is None else np.asarray(idx)
        chosen = [blocks[i] for i in self.idx]
        self.users = np.array([b.user for b in chosen])
        self.rows = chosen[0] if len(chosen) == 1 else UserBlock(
            np.repeat(self.users, chosen[0].count), *map(np.concatenate, zip(*(b[1:] for b in chosen)))
        )
        self.gather, self.pos = state.layout.positions(self.rows), None

    def positions(self, state: VariationalState) -> np.ndarray:
        """``pos``, built on first use; ``gather`` then becomes a view of it."""
        if self.pos is None:
            self.pos = np.concatenate([self.gather.ravel()] + _points(state, self.users))
            self.gather = self.pos[: self.gather.size].reshape(self.gather.shape)
        return self.pos

    def one(self, s: int, block) -> "Chunk":
        """User ``s``, whose block is ``block``, as a one-user chunk over views."""
        one = copy.copy(self)
        n = block.count
        one.idx, one.users, one.rows, one.pos = self.idx[s : s + 1], self.users[s : s + 1], block, None
        one.gather = self.gather[s * n : (s + 1) * n]
        return one


class Plan:
    """The chunks of a block sequence at one state layout and, once SGD asks
    (:meth:`steps`), one step per block."""

    def __init__(self, blocks, state: VariationalState):
        self.blocks = blocks
        self.chunks = [Chunk(blocks, state, idx) for idx in _chunks(blocks, state)]
        self._steps = None

    def steps(self, state: VariationalState) -> list:
        """Per block: its one-user chunk, the sorted flat entries ``idx`` it
        reads, each :func:`_scatter` entry's index into ``idx``, and which
        leading latent-table entries of ``idx`` are log-variances."""
        if self._steps is None:
            var_keys = {t.log_var for t in state.layout.tables}
            is_var = np.repeat([key in var_keys for key in state.layout.keys], np.diff(state.offsets))
            table_end = state.offsets[2 * len(state.layout.tables)]
            self._steps = [None] * len(self.blocks)
            for chunk in self.chunks:
                chunk.positions(state)   # before the views are taken
                for s, i in enumerate(chunk.idx):
                    one = chunk.one(s, self.blocks[i])
                    idx, local = np.unique(np.concatenate([one.gather.ravel()] + _points(state, one.users)),
                                           return_inverse=True)
                    local = local.astype(np.min_scalar_type(idx.size))   # one is kept per block
                    self._steps[i] = (one, idx, local, is_var[idx[: np.searchsorted(idx, table_end)]])
        return self._steps


def plan(blocks, state: VariationalState) -> Plan:
    """The plan of ``blocks`` at ``state``'s layout, kept in the ``plans`` memo
    of :func:`gplvmf.data.group_by_user`'s result, whose blocks cannot
    change; any other sequence gets a fresh one.  ``state.z`` may be given a
    shape that ``state.dims`` does not record, so the key holds M too."""
    memo = getattr(blocks, "plans", None)
    if memo is None:
        return Plan(blocks, state)
    key = (state.schema, state.dims, state.inducing_count, _ROW_BUDGET)
    if key not in memo:
        memo[key] = Plan(blocks, state)
    return memo[key]


def _chol_users(b_mat: np.ndarray, users: np.ndarray, jitter: float):
    """Stacked lower Cholesky of the users' B.  A stacked factorization fails
    as a whole, so on failure each user is factored alone and only a user
    whose B fails gets jitter escalation; that jitter is added to ``b_mat``
    in place.  Returns the factors and the jitter added per user."""
    extra = np.zeros(len(users))
    try:
        return np.linalg.cholesky(b_mat), extra
    except np.linalg.LinAlgError:
        pass
    chol = np.empty_like(b_mat)
    for i, user in enumerate(users):
        chol[i], extra[i] = _chol_with_escalation(b_mat[i], jitter, f"user {user} system", base=False)
        b_mat[i] += extra[i] * np.eye(b_mat.shape[1])
    return chol, extra


def _per_user(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat`` for (U, M) per-user rows, one product per user: a
    product over all U rows would round each user by U."""
    if len(rows) == 1:  # the same product; a 2-D operand skips the stacked set-up
        return rows @ mat
    return np.matmul(rows[:, None, :], mat)[:, 0]


@dataclass
class _Forward:
    """Forward pass of a chunk of U users of n ratings each: psi and phi
    statistics over the rows end to end and the stacked whitened systems.
    Per-user arrays lead with U; row arrays have U * n rows."""

    sigma2: np.ndarray       # (U,)
    beta: np.ndarray         # (U,)
    cache: _PsiCache         # unit signal; keeps alpha, the row variances, Psi1 and the Psi2 rows
    phi1: np.ndarray         # (U*n,)
    bias_var: np.ndarray     # (U*n, B) the bias-table variances the rows read
    resid: np.ndarray        # (U*n,) y - phi1
    quad: np.ndarray         # (U,) y^T y - 2 y^T phi1 + phi0
    t_mat: np.ndarray        # (U, M, M) L^-1 Psi2 L^-T
    chol_b: np.ndarray       # (U, M, M) lower factor of B = I + beta * T (+ escalation)
    b_inv: np.ndarray        # (U, M, M) B^-1
    extra: np.ndarray        # (U,) jitter the escalation added to B
    c_hat: np.ndarray        # (U, M) L^-1 Psi1^T (y - phi1)
    b_vec: np.ndarray        # (U, M) B^-1 c_hat


def _forward(chunk: Chunk, state: VariationalState, shared: SharedFactors) -> _Forward:
    """Psi cache, phi statistics and whitened B with per-user jitter escalation
    of a chunk; shared by the bound and q(u)."""
    rows, users = chunk.rows, chunk.users
    u, n, m = len(users), rows.count // len(users), state.inducing_count
    sigma2 = np.exp(state.log_sigma2[users])
    beta = np.exp(state.log_beta[users])

    entries = state.row_entries(rows, chunk.gather)
    mu_rows, var_rows = state.assemble_rows(rows, entries)
    cache = _PsiCache(np.exp(state.log_alpha), mu_rows, var_rows, state.z, groups=u)

    phi = phi_statistics(state, rows, entries)
    resid = rows.ratings - phi.phi1
    quad = (resid**2 + phi.row_var).reshape(u, n).sum(axis=1)

    # whitened systems: L = sqrt(sigma2) L_C, so T = sigma2 L_C^-1 Psi2_unit L_C^-T
    linv = shared.linv
    psi2 = cache.psi2_sums()
    t_mat = sigma2[:, None, None] * (linv @ psi2 @ linv.T)
    t_mat = 0.5 * (t_mat + t_mat.transpose(0, 2, 1))
    b_mat = np.eye(m) + beta[:, None, None] * t_mat
    # escalation adds extra*I to B, i.e. extra*K to A; gradient stays exact
    chol_b, extra = _chol_users(b_mat, users, shared.jitter)
    b_inv = np.linalg.inv(b_mat)

    c_unit = np.matmul(resid.reshape(u, 1, n), cache.psi1.reshape(u, n, m))[:, 0]
    c_hat = np.sqrt(sigma2)[:, None] * _per_user(c_unit, linv.T)
    b_vec = np.matmul(b_inv, c_hat[:, :, None])[:, :, 0]
    return _Forward(
        sigma2=sigma2, beta=beta, cache=cache, phi1=phi.phi1, resid=resid, quad=quad, t_mat=t_mat,
        chol_b=chol_b, b_inv=b_inv, extra=extra, c_hat=c_hat, b_vec=b_vec,
        bias_var=entries[:, entries.shape[1] // 2 + state.layout.kernel_width :],
    )


@dataclass
class UserTerms:
    """Values and gradients of the bound terms of a chunk of users (one user
    for an SGD step), from :func:`_terms`.

    Gradients are with respect to the unconstrained (log) parameters.  The
    kernel gradients (``gmu_rows``/``glog_var_rows``) are per rating row of
    the chunk; ``dphi1``/``dphi0`` feed the bias-latent backward pass, and
    :func:`_scatter` lays both out for the table entries the rows read.
    ``gz``/``glog_alpha`` hold the psi part; the inducing-gram part comes
    from ``d_gram``, the chunk's summed sigma2 * dF/dK, through
    :func:`_gram_gradient` (:func:`_user_terms` folds it in).
    """

    value: np.ndarray                     # (U,)
    gmu_rows: np.ndarray | None = None
    glog_var_rows: np.ndarray | None = None
    gz: np.ndarray | None = None
    glog_alpha: np.ndarray | None = None
    glog_sigma2: np.ndarray | None = None   # (U,)
    glog_beta: np.ndarray | None = None     # (U,)
    dphi1: np.ndarray | None = None
    dphi0: np.ndarray | None = None         # per row
    phi1: np.ndarray | None = None
    bias_var: np.ndarray | None = None      # (N, B) the bias-table variances the rows read
    d_gram: np.ndarray | None = None


def _terms(
    chunk: Chunk,
    state: VariationalState,
    shared: SharedFactors,
    want_gradients: bool,
) -> UserTerms:
    """Bound terms of a chunk of users with equal rating counts (module docstring)."""
    fw = _forward(chunk, state, shared)
    u, m = len(chunk.users), state.inducing_count
    n = chunk.rows.count // u
    sigma2, beta, t_mat, b_vec = fw.sigma2, fw.beta, fw.t_mat, fw.b_vec
    psi0 = n * sigma2

    logdet_b = 2.0 * np.log(np.diagonal(fw.chol_b, axis1=1, axis2=2)).sum(axis=1)
    tr_t = np.trace(t_mat, axis1=1, axis2=2)                            # Tr(K^-1 Psi2)
    cb = np.einsum("ua,ua->u", fw.c_hat, b_vec)                         # W2 / beta^2

    value = (
        0.5 * n * np.log(beta)
        - 0.5 * n * np.log(2.0 * np.pi)
        - 0.5 * logdet_b
        - 0.5 * beta * fw.quad
        + 0.5 * beta**2 * cb
        - 0.5 * beta * psi0
        + 0.5 * beta * tr_t
    )

    if not want_gradients:
        return UserTerms(value=value)

    linv = shared.linv
    bt = fw.b_inv @ t_mat                                               # B^-1 T
    bb = b_vec[:, :, None] * b_vec[:, None, :]
    be, ex = beta[:, None, None], fw.extra[:, None, None]
    # whitened cotangents of K and Psi2: dF/dK = L^-T x_k L^-1, dF/dPsi2 = L^-T x_psi2 L^-1
    x_k = -0.5 * be**2 * (bt @ t_mat + (1.0 + ex) * bb) - 0.5 * be * ex * bt
    x_psi2 = 0.5 * be * (be * bt + ex * fw.b_inv - be**2 * bb)

    # the unit-signal cache takes sigma2 * dF/dPsi1 and sigma2^2 * dF/dPsi2;
    # dF/dPsi1 = beta^2 r w^T with w = A^-1 c = L_C^-T b / sqrt(sigma2)
    root = np.sqrt(sigma2)
    lw = _per_user(b_vec, linv)                                         # rows (L_C^-T b)^T
    d_psi1 = ((root * beta**2)[:, None] * fw.resid.reshape(u, n))[:, :, None] * lw[:, None, :]
    d_psi2 = sigma2[:, None, None] * (linv.T @ x_psi2 @ linv)
    psi_grads = psi_backward(fw.cache, d_psi1.reshape(u * n, m), d_psi2)

    # K = sigma2 * C and the psi statistics are monomials in sigma2: with
    # dF/dPsi0 = -beta/2, sigma2 * dF/dsigma2 = beta^2 c^T w + 2 Tr(x_psi2 T)
    # - (beta/2) psi0 + Tr(x_k)
    glog_sigma2 = (
        beta**2 * cb
        + 2.0 * np.sum(x_psi2 * t_mat, axis=(1, 2))
        - 0.5 * beta * psi0
        + np.trace(x_k, axis1=1, axis2=2)
    )
    # d(W2/2)/dbeta = beta c^T w - (beta^2/2) w^T Psi2 w, with dA/dbeta = Psi2
    tbt = np.einsum("ua,uab,ub->u", b_vec, t_mat, b_vec)
    glog_beta = beta * (
        0.5 * n / beta
        - 0.5 * np.trace(bt, axis1=1, axis2=2)
        - 0.5 * fw.quad
        + beta * cb
        - 0.5 * beta**2 * tbt
        - 0.5 * psi0
        + 0.5 * tr_t
    )

    psi1_w = root[:, None] * np.matmul(fw.cache.psi1.reshape(u, n, m), lw[:, :, None])[:, :, 0]
    d_phi1 = beta[:, None] * chunk.rows.ratings.reshape(u, n) - (beta**2)[:, None] * psi1_w

    # chain rule into the log parameterization: d/dlog(x) = x * d/dx
    return UserTerms(
        value=value,
        gmu_rows=psi_grads.dmu,
        glog_var_rows=psi_grads.dvar * fw.cache.s,
        gz=psi_grads.dz,
        glog_alpha=psi_grads.dalpha * fw.cache.alpha,
        glog_sigma2=glog_sigma2,
        glog_beta=glog_beta,
        dphi1=d_phi1.ravel(),
        dphi0=np.repeat(-0.5 * beta, n),
        phi1=fw.phi1,
        bias_var=fw.bias_var,
        d_gram=linv.T @ x_k.sum(axis=0) @ linv,
    )


def _gram_gradient(state: VariationalState, shared: SharedFactors, d_gram: np.ndarray):
    """(z, log alpha) gradients through the unit-signal inducing gram, for the
    summed ``d_gram = sum_u sigma2_u * dF/dK_u``."""
    alpha = np.exp(state.log_alpha)
    gz, galpha = gram_backward(alpha, state.z, shared.gram0, d_gram)
    return gz, galpha * alpha


def _user_terms(
    chunk: Chunk,
    state: VariationalState,
    shared: SharedFactors,
    want_gradients: bool,
) -> UserTerms:
    """One user's terms, the U = 1 chunk, with the inducing-gram gradient
    folded into ``gz``/``glog_alpha``: what one SGD step scatters."""
    terms = _terms(chunk, state, shared, want_gradients)
    if want_gradients:
        gz, glog_alpha = _gram_gradient(state, shared, terms.d_gram)
        terms.gz += gz
        terms.glog_alpha += glog_alpha
    return terms


def user_bound(block: UserBlock, state: VariationalState, jitter: float = DEFAULT_JITTER) -> float:
    """The collapsed bound term of a single user."""
    shared = shared_factors(state, jitter)
    return float(_user_terms(Chunk([block], state), state, shared, want_gradients=False).value[0])


def kl_to_prior(state: VariationalState) -> float:
    """KL(q || standard normal) summed over all free latent coordinates."""
    total = 0.0
    for t in state.layout.tables:
        mean, log_var = state.params[t.mean], state.params[t.log_var]
        var = np.exp(log_var)
        if np.any(var <= 0.0) or not np.all(np.isfinite(var)):
            raise ValueError("free coordinates need positive finite variance")
        total += 0.5 * float(np.sum(mean**2 + var - log_var - 1.0))
    return total


def kl_gradients(state: VariationalState) -> dict:
    """Named gradients of :func:`kl_to_prior` (log-variance parameterization)."""
    grads = {}
    for t in state.layout.tables:
        grads[t.mean] = state.params[t.mean].copy()
        grads[t.log_var] = 0.5 * (np.exp(state.params[t.log_var]) - 1.0)
    return grads


@dataclass
class BoundReport:
    """Objective value, its decomposition, the flat gradient and its per-key views."""

    total: float
    per_user: np.ndarray
    kl: float
    gradients: np.ndarray | None
    grad_dict: dict | None = None


def _scatter(state: VariationalState, chunk: Chunk, terms: UserTerms) -> np.ndarray:
    """A chunk's gradients (log parameterization) laid out along its
    :meth:`Chunk.positions`, so that one ``np.bincount`` over those adds
    them into a flat gradient: the adjoint of the forward pass's gather.

    Kernel tables take the kernel row gradients; bias tables take the per-row
    gradients of :func:`phi_backward`.  Real columns are data, not
    parameters, so their kernel gradient is dropped.
    """
    free, split = ~state.layout.fixed_mask, state.layout.kernel_width
    rows = np.empty(chunk.gather.shape)
    half = rows.shape[1] // 2
    rows[:, :split], rows[:, half : half + split] = terms.gmu_rows[:, free], terms.glog_var_rows[:, free]
    points = {"z": terms.gz, "log_alpha": terms.glog_alpha, "log_sigma2": terms.glog_sigma2,
              "log_beta": terms.glog_beta}
    if state.dims.use_mean:
        pg = phi_backward(chunk.rows, terms.dphi1, terms.dphi0, terms.phi1)
        rows[:, split:half], rows[:, half + split :] = pg.mean_rows[:, None], terms.dphi0[:, None] * terms.bias_var
        points.update(real_weights=pg.real_weights,
                      user_bias=pg.mean_rows.reshape(len(chunk.users), -1).sum(axis=1))
    keys = state.layout.keys[2 * len(state.layout.tables) :]
    return np.concatenate([rows.ravel()] + [points[key].ravel() for key in keys])


def total_bound(
    blocks: list,
    state: VariationalState,
    jitter: float = DEFAULT_JITTER,
    want_gradients: bool = True,
) -> BoundReport:
    """Sum of user terms minus the KL to the prior, with the full gradient.

    User terms are independent given a read-only state snapshot (map-reduce
    contract); users are taken in the chunks of the blocks' :func:`plan`, and
    one ``np.bincount`` per chunk adds its gradients (:func:`_scatter`).
    """
    shared = shared_factors(state, jitter)
    per_user = np.empty(len(blocks))
    vec, grads = state.zero_grads() if want_gradients else (None, None)
    d_gram = np.zeros_like(shared.gram0)
    for chunk in plan(blocks, state).chunks:
        terms = _terms(chunk, state, shared, want_gradients)
        per_user[chunk.idx] = terms.value
        if want_gradients:
            vec += np.bincount(chunk.positions(state), _scatter(state, chunk, terms), minlength=vec.size)
            d_gram += terms.d_gram

    kl = kl_to_prior(state)
    total = float(per_user.sum() - kl)

    if not want_gradients:
        return BoundReport(total=total, per_user=per_user, kl=kl, gradients=None)

    gz, glog_alpha = _gram_gradient(state, shared, d_gram)
    grads["z"] += gz
    grads["log_alpha"] += glog_alpha
    for key, g in kl_gradients(state).items():
        grads[key] -= g
    return BoundReport(total=total, per_user=per_user, kl=kl, gradients=vec, grad_dict=grads)


@dataclass
class UserPosterior:
    """Whitened solve factors of q(u) for a chunk of users with equal rating
    counts, stacked: per-user arrays lead with U."""

    users: np.ndarray        # (U,)
    sigma2: np.ndarray       # (U,)
    beta: np.ndarray         # (U,)
    chol_b: np.ndarray       # (U, M, M) lower factor of B = I + beta * L^-1 Psi2 L^-T
    v: np.ndarray            # (U, M) A^-1 Psi1^T (y - phi1) = L^-T b
    shared: SharedFactors


def user_posterior(
    chunk: Chunk,
    state: VariationalState,
    shared: SharedFactors | None = None,
    jitter: float = DEFAULT_JITTER,
) -> UserPosterior:
    """q(u) factors of a chunk of users with equal rating counts, from one
    stacked :func:`_forward`."""
    if shared is None:
        shared = shared_factors(state, jitter)
    fw = _forward(chunk, state, shared)
    return UserPosterior(
        users=chunk.users,
        sigma2=fw.sigma2,
        beta=fw.beta,
        chol_b=fw.chol_b,
        v=_per_user(fw.b_vec, shared.linv) / np.sqrt(fw.sigma2)[:, None],
        shared=shared,
    )


def optimal_qu(block: UserBlock, state: VariationalState, jitter: float = DEFAULT_JITTER):
    """Mean and covariance of the collapsed-out inducing posterior q(u).

    mu_u  = K (beta^-1 K + Psi2)^-1 Psi1^T (y - phi1) = beta K A^-1 c
    Sig_u = beta^-1 K (beta^-1 K + Psi2)^-1 K = K A^-1 K = L B^-1 L^T

    The two spellings (beta^-1 K + Psi2 versus K + beta Psi2) are the same
    system up to a beta rescaling; everything here solves against
    A = K + beta * Psi2 in whitened form.
    """
    post = user_posterior(Chunk([block], state), state, jitter=jitter)
    sigma2, shared = post.sigma2[0], post.shared
    mu_u = post.beta[0] * ((sigma2 * shared.c) @ post.v[0])
    shalf = solve_triangular(post.chol_b[0], (np.sqrt(sigma2) * shared.chol_c).T, lower=True)
    sigma_u = shalf.T @ shalf
    return mu_u, 0.5 * (sigma_u + sigma_u.T)
