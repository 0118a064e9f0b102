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
positions it reads, which the state hands out: those of the table entries
of its rows, then those of its users' point block.  A chunk gathers the
table entries with one index, makes one unit-signal psi pass over its rows
(Psi1 scales by sigma2 and Psi2 by sigma2^2 per user), takes every per-user
sum as a reshape over (U, n, ...), solves one stacked (U, M, M) whitened
system, makes one :func:`psi_backward` call and adds its gradients with one
``np.bincount`` over all its positions, the gather's adjoint
(:func:`_scatter`).  Every matrix product over rows or over users is a
stacked product with one user per slice (:func:`gplvmf.kernels._by_group`
and :func:`gplvmf.kernels._cross_by_group`), so a chunk's products have one
user's shapes: the chunk size changes neither how many BLAS
threads a product runs on nor any bit of a user's terms or q(u), only the
rounding of sums over users, and the budget bounds memory alone.  What
depends on (Z, alpha) alone, the psi statistics' side and the inducing
gram's factors (:class:`SharedFactors`), is built once per call.  A chunk's
sigma2-weighted dF/dK goes through its :func:`psi_backward` call with its
Psi2 cotangent, since the gram is ``exp(2 c)`` of the pair constant.
SGD's :func:`_user_terms` takes one-user chunks of their own, built like
any other (:meth:`Plan.steps`), and prediction's :func:`user_posterior` takes
:func:`_chunks` chunks.  Per-user values and gradients are combined from a
few per-user traces (:func:`_terms`), so a step makes few calls.  Kernel and
bias latents share the standard-normal prior: :func:`kl_to_prior` walks the
state's table description, and :func:`kl_gradient` takes the tables' prefix
of the flat vector, whole for :func:`total_bound` or a step's entries of it
for SGD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .data import UserBlock
from .kernels import _by_group, _InducingSide, _PsiCache, psi_backward
from .meanfn import phi_backward, phi_statistics
from .state import VariationalState

DEFAULT_JITTER = 1e-6
_LOG_2PI = float(np.log(2.0 * np.pi))
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


class SharedFactors(NamedTuple):
    """Quantities common to every user at a fixed (Z, alpha), built once per
    :func:`shared_factors` call: the (Z, alpha) side of the psi statistics
    and of the unit-signal inducing gram (:class:`gplvmf.kernels._InducingSide`,
    which the psi cache and backward pass read), the lower factor L_C of
    C = gram + jitter*I and its inverse."""

    side: _InducingSide
    chol_c: np.ndarray       # lower triangular L_C
    linv: np.ndarray         # L_C^-1, lower triangular
    jitter: float


def shared_factors(state: VariationalState, jitter: float = DEFAULT_JITTER) -> SharedFactors:
    side = _InducingSide(np.exp(state.log_alpha), state.z)
    chol_c, j = _chol_with_escalation(side.gram, jitter, "inducing gram")
    linv, _ = lapack.dtrtri(chol_c, lower=1)
    return SharedFactors(side=side, chol_c=chol_c, linv=linv, jitter=j)


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


class Chunk:
    """The users of one :func:`_chunks` entry or of one SGD step
    (:meth:`Plan.steps`), or all of ``blocks`` when ``idx`` is None, planned
    for a state layout.  ``rows`` holds their rows end to end (a lone
    block's own rows), whose ``user`` then holds every row's user.  ``pos``
    holds the flat positions the chunk reads: first those of
    the (N, K) table entries of its rows, in the order of
    :attr:`gplvmf.state.KernelLayout.entries`, whose (N, K) view ``gather``
    the forward pass reads as ``state.flat[gather]``; then those of its
    users' point block (:meth:`gplvmf.state.VariationalState.point_positions`).
    :func:`_scatter` lays the gradients out along ``pos`` for one
    ``np.bincount``.
    """

    def __init__(self, blocks, state: VariationalState, idx=None):
        self.idx = np.arange(len(blocks)) if idx is None else np.asarray(idx)
        chosen = [blocks[i] for i in self.idx]
        self.users = np.array([b.user for b in chosen])
        self.rows = chosen[0] if len(chosen) == 1 else UserBlock(
            np.repeat(self.users, chosen[0].count), *map(np.concatenate, zip(*(b[1:] for b in chosen)))
        )
        points = state.point_positions(self.users)
        n, k = self.rows.count, state.layout.entries.shape[1]
        self.pos = np.empty(n * k + sum(p.size for p in points), dtype=np.int64)
        self.gather = state.layout.positions(self.rows, out=self.pos[: n * k].reshape(n, k))
        np.concatenate(points, out=self.pos[n * k :])


class Plan:
    """The chunks of a block sequence at one state layout and, once SGD asks
    (:meth:`steps`), one step per block: a one-user :class:`Chunk` of its
    own, whatever the chunking, and the sorted flat entries it reads."""

    def __init__(self, blocks, state: VariationalState):
        self.blocks = blocks
        self.chunks = [Chunk(blocks, state, idx) for idx in _chunks(blocks, state)]
        self._steps = None

    def steps(self, state: VariationalState) -> list:
        """Per block: its one-user chunk, the sorted flat entries ``idx`` of
        the chunk's ``pos``, each :func:`_scatter` entry's index into ``idx``,
        and which leading latent-table entries of ``idx`` are log-variances."""
        if self._steps is None:
            layout, steps = state.layout, []
            for i in range(len(self.blocks)):
                one = Chunk(self.blocks, state, [i])
                idx, local = np.unique(one.pos, return_inverse=True)
                local = local.astype(np.min_scalar_type(idx.size))   # one is kept per block
                steps.append((one, idx, local, layout.is_var[idx[: np.searchsorted(idx, layout.table_end)]]))
            self._steps = steps
        return self._steps


def plan(blocks, state: VariationalState) -> Plan:
    """The plan of ``blocks`` at ``state``'s layout, kept in the ``plans`` memo
    of :func:`gplvmf.data.group_by_user`'s result, whose blocks cannot
    change; any other sequence gets a fresh one."""
    memo = getattr(blocks, "plans", None)
    if memo is None:
        return Plan(blocks, state)
    key = (state.schema, state.dims, _ROW_BUDGET)
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


class _Forward(NamedTuple):
    """Forward pass of a chunk of U users of n ratings each: psi and phi
    statistics over the rows end to end and the stacked whitened systems.
    Per-user arrays lead with U; row arrays have U * n rows."""

    sigma2: np.ndarray       # (U,)
    beta: np.ndarray         # (U,)
    cache: _PsiCache         # unit signal; keeps the row variances, Psi1 and the Psi2 rows
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
    rows, users, linv, side = chunk.rows, chunk.users, shared.linv, shared.side
    u, m = len(users), len(linv)
    n = rows.count // u
    sigma2, beta = np.exp(state.log_sigma2[users]), np.exp(state.log_beta[users])

    entries = state.row_entries(rows, chunk.gather)
    mu_rows, var_rows = state.assemble_rows(rows, entries)
    cache = _PsiCache(side, mu_rows, var_rows, groups=u)

    phi = phi_statistics(state, rows, entries)
    resid = rows.ratings - phi.phi1
    quad = (resid**2 + phi.row_var).reshape(u, n).sum(axis=1)

    # whitened systems: L = sqrt(sigma2) L_C, so T = sigma2 L_C^-1 Psi2_unit L_C^-T
    t_mat = sigma2[:, None, None] * (linv @ cache.psi2_sums() @ linv.T)
    t_mat = 0.5 * (t_mat + t_mat.transpose(0, 2, 1))
    b_mat = np.eye(m) + beta[:, None, None] * t_mat
    # escalation adds extra*I to B, i.e. extra*K to A; gradient stays exact
    chol_b, extra = _chol_users(b_mat, users, shared.jitter)
    b_inv = np.linalg.inv(b_mat)

    c_unit = np.matmul(resid.reshape(u, 1, n), cache.psi1.reshape(u, n, m))[:, 0]
    c_hat = np.sqrt(sigma2)[:, None] * _by_group(c_unit, linv.T, u)
    b_vec = np.matmul(b_inv, c_hat[:, :, None])[:, :, 0]
    return _Forward(
        sigma2=sigma2, beta=beta, cache=cache, phi1=phi.phi1, resid=resid, quad=quad, t_mat=t_mat,
        chol_b=chol_b, b_inv=b_inv, extra=extra, c_hat=c_hat, b_vec=b_vec,
        bias_var=entries[:, state.layout.bias_vars],
    )


class UserTerms(NamedTuple):
    """Values and gradients of the bound terms of a chunk of users (one user
    for an SGD step), from :func:`_terms`.

    Gradients are with respect to the unconstrained (log) parameters.  The
    kernel gradients (``gmu_rows``/``glog_var_rows``) are per rating row of
    the chunk; ``dphi1``/``dphi0`` feed the bias-latent backward pass, and
    :func:`_scatter` lays both out for the table entries the rows read.
    ``gz``/``glog_alpha`` hold the psi part and the inducing-gram part.
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


def _terms(
    chunk: Chunk,
    state: VariationalState,
    shared: SharedFactors,
    want_gradients: bool,
) -> UserTerms:
    """Bound terms of a chunk of users with equal rating counts (module docstring)."""
    fw = _forward(chunk, state, shared)
    u, m, linv = len(chunk.users), len(shared.linv), shared.linv
    n = chunk.rows.count // u
    sigma2, beta, extra, t_mat, b_vec = fw.sigma2, fw.beta, fw.extra, fw.t_mat, fw.b_vec
    psi0 = n * sigma2

    # per user, the traces of a stack of T, c_hat b^T and (gradients) B^-1 T,
    # b b^T and B^-1 T^2: Tr(K^-1 Psi2), c_hat^T b = W2 / beta^2, Tr(B^-1 T),
    # |b|^2 and Tr(B^-1 T^2)
    work = np.empty((u, 5 if want_gradients else 2, m, m))
    work[:, 0] = t_mat
    np.multiply(fw.c_hat[:, :, None], b_vec[:, None, :], out=work[:, 1])
    if want_gradients:
        bt = np.matmul(fw.b_inv, t_mat, out=work[:, 2])
        np.multiply(b_vec[:, :, None], b_vec[:, None, :], out=work[:, 3])
        np.matmul(bt, t_mat, out=work[:, 4])
    traces = work.reshape(u, work.shape[1], m * m)[:, :, :: m + 1].sum(axis=2)
    tr_t, cb = traces[:, 0], traces[:, 1]
    logdet_b = 2.0 * np.log(fw.chol_b.reshape(u, m * m)[:, :: m + 1]).sum(axis=1)
    fit = tr_t - fw.quad - psi0
    value = 0.5 * (n * (np.log(beta) - _LOG_2PI) - logdet_b + beta * (fit + beta * cb))

    if not want_gradients:
        return UserTerms(value=value)

    # whitened cotangents of Psi2 and K, dF/dPsi2 = L^-T x_psi2 L^-1 and
    # dF/dK = L^-T x_k L^-1 (module docstring), from [B^-1 T, B^-1, b b^T, B^-1 T^2]:
    #   x_psi2 =  (beta^2/2) (B^-1 T - beta b b^T + (e/beta) B^-1)
    #   x_k    = -(beta^2/2) (b b^T + B^-1 T^2 + (e/beta) (beta b b^T + B^-1 T))
    # The unit-signal cache takes sigma2 * dF/dPsi2 = L_C^-T sigma2 x_psi2 L_C^-1
    # and the unit gram sigma2 * dF/dK = L_C^-T x_k L_C^-1.
    half = 0.5 * beta
    hb, bb = half * beta, work[:, 3]
    x_mats = np.empty((u, 2, m, m))
    x_psi2, x_k = np.multiply(beta[:, None, None], bb, out=x_mats[:, 0]), x_mats[:, 1]
    np.subtract(bt, x_psi2, out=x_psi2)
    np.add(bb, work[:, 4], out=x_k)
    if extra.any():     # the e terms are exact zeros otherwise
        ratio = (extra / beta)[:, None, None]
        x_psi2 += ratio * fw.b_inv
        x_k += ratio * (beta[:, None, None] * bb + bt)
    x_psi2 *= (sigma2 * hb)[:, None, None]
    x_k *= -hb[:, None, None]
    d_mats = linv.T @ x_mats @ linv

    # with I - B^-1 = beta B^-1 T + e B^-1 and c_hat^T b = (1 + e) |b|^2 + beta b^T T b:
    # sigma2 dF/dsigma2 = (beta/2) (beta ((1 + e) |b|^2 + Tr(B^-1 T^2)) + e Tr(B^-1 T) - psi0),
    # beta dF/dbeta = n/2 + (beta/2) (fit - Tr(B^-1 T) + beta (c_hat^T b + (1 + e) |b|^2))
    tr_bt, eb2, tr_btt = traces[:, 2], (1.0 + extra) * traces[:, 3], traces[:, 4]
    glog_sigma2 = half * (beta * (eb2 + tr_btt) + extra * tr_bt - psi0)
    glog_beta = 0.5 * n + half * (fit - tr_bt + beta * (cb + eb2))

    # dF/dPsi1 = beta^2 r w^T with w = A^-1 c = L_C^-T b / sqrt(sigma2); the
    # cache takes sigma2 * dF/dPsi1
    root_b2 = np.sqrt(sigma2) * beta**2
    lw = _by_group(b_vec, linv, u)                                      # rows (L_C^-T b)^T
    d_psi1 = (root_b2[:, None] * fw.resid.reshape(u, n))[:, :, None] * lw[:, None, :]
    psi_grads = psi_backward(fw.cache, d_psi1.reshape(u * n, m), d_mats[:, 0], d_mats[:, 1])
    psi1_w = np.matmul(fw.cache.psi1.reshape(u, n, m), lw[:, :, None])[:, :, 0]
    d_phi1 = beta[:, None] * chunk.rows.ratings.reshape(u, n) - root_b2[:, None] * psi1_w

    # chain rule into the log parameterization: d/dlog(x) = x * d/dx
    return UserTerms(
        value=value,
        gmu_rows=psi_grads.dmu,
        glog_var_rows=psi_grads.dvar * fw.cache.s,
        gz=psi_grads.dz,
        glog_alpha=psi_grads.dalpha * shared.side.alpha,
        glog_sigma2=glog_sigma2,
        glog_beta=glog_beta,
        dphi1=d_phi1.ravel(),
        dphi0=np.repeat(-half, n),
        phi1=fw.phi1,
        bias_var=fw.bias_var,
    )


# SGD's step and the one-user callers use this name for the terms of a one-user chunk.
_user_terms = _terms


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


def kl_gradient(values: np.ndarray, is_var: np.ndarray) -> np.ndarray:
    """Gradient of :func:`kl_to_prior` at latent-table entries ``values``,
    of which ``is_var`` marks the log-variances (the others are means)."""
    return np.where(is_var, 0.5 * (np.exp(values) - 1.0), values)


@dataclass
class BoundReport:
    """Objective value, its decomposition, the flat gradient and its per-key views."""

    total: float
    per_user: np.ndarray
    kl: float
    gradients: np.ndarray | None
    grad_dict: dict | None = None


def _scatter(state: VariationalState, chunk: Chunk, terms: UserTerms) -> np.ndarray:
    """A chunk's gradients (log parameterization) laid out along its ``pos``,
    so that one ``np.bincount`` over it adds them into a flat gradient: the
    adjoint of the forward pass's gather.  The point block's come in the
    order of :attr:`gplvmf.state.KernelLayout.points`.

    Kernel tables take the kernel row gradients; bias tables take the per-row
    gradients of :func:`phi_backward`.  Real columns are data, not
    parameters, so their kernel gradient is dropped.
    """
    layout, free = state.layout, state.layout.free
    rows = np.empty(chunk.gather.shape)
    rows[:, layout.kernel_means], rows[:, layout.kernel_vars] = terms.gmu_rows[:, free], terms.glog_var_rows[:, free]
    points = {"z": terms.gz, "log_alpha": terms.glog_alpha, "log_sigma2": terms.glog_sigma2,
              "log_beta": terms.glog_beta}
    if state.dims.use_mean:
        pg = phi_backward(chunk.rows, terms.dphi1, terms.dphi0, terms.phi1)
        rows[:, layout.bias_means] = pg.mean_rows[:, None]
        rows[:, layout.bias_vars] = terms.dphi0[:, None] * terms.bias_var
        points.update(real_weights=pg.real_weights,
                      user_bias=pg.mean_rows.reshape(len(chunk.users), -1).sum(axis=1))
    return np.concatenate([rows.ravel()] + [points[key].ravel() for key, _ in layout.points])


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
    for chunk in plan(blocks, state).chunks:
        terms = _terms(chunk, state, shared, want_gradients)
        per_user[chunk.idx] = terms.value
        if want_gradients:
            vec += np.bincount(chunk.pos, _scatter(state, chunk, terms), minlength=vec.size)

    kl = kl_to_prior(state)
    total = float(per_user.sum() - kl)

    if not want_gradients:
        return BoundReport(total=total, per_user=per_user, kl=kl, gradients=None)

    end = state.layout.table_end
    vec[:end] -= kl_gradient(state.flat[:end], state.layout.is_var)
    return BoundReport(total=total, per_user=per_user, kl=kl, gradients=vec, grad_dict=grads)


class UserPosterior(NamedTuple):
    """Whitened solve factors of q(u) for a chunk of users with equal rating
    counts, stacked: per-user arrays lead with U."""

    chol_b: np.ndarray       # (U, M, M) lower factor of B = I + beta * L^-1 Psi2 L^-T
    v: np.ndarray            # (U, M) A^-1 Psi1^T (y - phi1) = L^-T b


def user_posterior(chunk: Chunk, state: VariationalState, shared: SharedFactors) -> UserPosterior:
    """q(u) factors of a chunk of users with equal rating counts, from one
    stacked :func:`_forward`."""
    fw = _forward(chunk, state, shared)
    v = _by_group(fw.b_vec, shared.linv, len(chunk.users)) / np.sqrt(fw.sigma2)[:, None]
    return UserPosterior(chol_b=fw.chol_b, v=v)
