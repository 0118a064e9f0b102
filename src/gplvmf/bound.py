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

Everything is evaluated in whitened form: with K = L L^T and
B = I + beta * L^-1 Psi2 L^-T, the determinant terms collapse to
-(1/2) log|B| and every quadratic goes through triangular solves, so the
evaluation stays accurate even when inducing points nearly coincide.  The
backward pass chains analytic derivatives through the psi/phi statistics,
the factorizations, and the log-determinants; no finite differences are
used anywhere in training.

Each user's forward pass (psi and phi statistics, the whitened system and
its solves) is :func:`_user_forward`; the bound (:func:`_user_terms`) and
the cached predictive factors (:func:`user_posterior`) both build on it.
:func:`_scatter_user` is the one map from a user's row gradients onto the
shared latent tables, used by the full batch (:func:`total_bound`) and by
SGD alike.  It walks the state's table description
(:attr:`gplvmf.state.KernelLayout.tables`): a kernel table takes its slice of
the kernel row gradients, a bias table the per-row gradients of
:func:`phi_backward`, and both are added at the entries the rows read.  The
KL (:func:`kl_to_prior`, :func:`kl_gradient`) walks the same description,
since kernel and bias latents share the standard-normal prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .data import UserBlock
from .kernels import ArdKernel, LatentPoints, _PsiCache, gram_backward, psi_backward
from .meanfn import phi_backward, phi_statistics
from .state import LatentTable, VariationalState

DEFAULT_JITTER = 1e-6
_ESCALATION = (1.0, 10.0, 100.0)


class FactorizationError(ArithmeticError):
    """Cholesky failed even after jitter escalation."""


def _chol_with_escalation(mat: np.ndarray, scale: float, jitter: float, what: str, base: bool = True):
    """Lower-Cholesky of ``mat + j*scale*I``, escalating j twice before giving up.

    With ``base=False`` the first attempt adds no jitter (for systems that
    already inherit it).  Returns the factor and the jitter actually added.
    """
    mults = _ESCALATION if base else (0.0,) + _ESCALATION[1:]
    for mult in mults:
        j = jitter * mult
        try:
            return np.linalg.cholesky(mat + j * scale * np.eye(mat.shape[0])), j
        except np.linalg.LinAlgError:
            continue
    eigs = np.linalg.eigvalsh(mat)
    raise FactorizationError(
        f"{what}: Cholesky failed at jitter {jitter * _ESCALATION[-1]:.1e} * scale; "
        f"eigenvalue range [{eigs.min():.3e}, {eigs.max():.3e}], scale {scale:.3e}"
    )


@dataclass
class SharedFactors:
    """Quantities common to every user at a fixed (Z, alpha): the unit-signal
    inducing gram C = exp-part + jitter*I and its factorization."""

    gram0: np.ndarray        # exp part only, unit diagonal
    c: np.ndarray            # gram0 + jitter*I
    chol_c: np.ndarray       # lower triangular
    cinv: np.ndarray
    logdet: float
    jitter: float


def shared_factors(state: VariationalState, jitter: float = DEFAULT_JITTER) -> SharedFactors:
    alpha = np.exp(state.log_alpha)
    gram0 = np.exp(
        -0.5 * np.einsum("q,abq->ab", alpha, (state.z[:, None, :] - state.z[None, :, :]) ** 2)
    )
    chol_c, j = _chol_with_escalation(gram0, 1.0, jitter, "inducing gram")
    eye = np.eye(gram0.shape[0])
    c = gram0 + j * eye
    cinv = cho_solve((chol_c, True), eye)
    cinv = 0.5 * (cinv + cinv.T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol_c)))
    return SharedFactors(gram0=gram0, c=c, chol_c=chol_c, cinv=cinv, logdet=logdet, jitter=j)


@dataclass
class _UserForward:
    """The per-user forward pass: psi and phi statistics and the whitened
    system.  Transient; :class:`UserPosterior` keeps only its solve factors."""

    sigma2: float
    beta: float
    cache: _PsiCache         # keeps alpha, the row variances assemble_rows gave, Psi1 and Psi2
    phi1: np.ndarray
    phi0: float
    l_k: np.ndarray          # lower factor of K = sigma2 * C
    t_mat: np.ndarray        # L^-1 Psi2 L^-T
    chol_b: np.ndarray       # lower factor of B = I + beta * t_mat (+ escalation)
    extra: float             # jitter the escalation added to B
    resid: np.ndarray        # y - phi1
    c_vec: np.ndarray        # Psi1^T (y - phi1)
    c_hat: np.ndarray        # L^-1 c_vec
    b_inv_c_hat: np.ndarray


def _user_forward(block: UserBlock, state: VariationalState, shared: SharedFactors) -> _UserForward:
    """Psi cache, phi statistics, whitened B with jitter escalation, and the
    ``Psi1^T (y - phi1)`` solves of one user; shared by the bound and q(u)."""
    sigma2 = float(np.exp(state.log_sigma2[block.user]))
    beta = float(np.exp(state.log_beta[block.user]))

    mu_rows, var_rows = state.assemble_rows(block)
    kern = ArdKernel(sigma2, np.exp(state.log_alpha))
    cache = _PsiCache(kern, LatentPoints(mu_rows, var_rows, state.layout.fixed_mask), state.z)

    if state.dims.use_mean:
        phi = phi_statistics(state.bias, block)
        phi1, phi0 = phi.phi1, phi.phi0
    else:
        phi1, phi0 = np.zeros(block.count), 0.0

    # whitened system: K = L L^T, B = I + beta * L^-1 Psi2 L^-T
    l_k = np.sqrt(sigma2) * shared.chol_c
    half = solve_triangular(l_k, cache.psi2, lower=True)
    t_mat = solve_triangular(l_k, half.T, lower=True)
    t_mat = 0.5 * (t_mat + t_mat.T)
    b = np.eye(state.inducing_count) + beta * t_mat
    # escalation adds extra*I to B, i.e. extra*K to A; gradient stays exact
    chol_b, extra = _chol_with_escalation(b, 1.0, shared.jitter, f"user {block.user} system", base=False)

    resid = block.ratings - phi1
    c_vec = cache.psi1.T @ resid
    c_hat = solve_triangular(l_k, c_vec, lower=True)
    b_inv_c_hat = cho_solve((chol_b, True), c_hat)
    return _UserForward(
        sigma2=sigma2,
        beta=beta,
        cache=cache,
        phi1=phi1,
        phi0=phi0,
        l_k=l_k,
        t_mat=t_mat,
        chol_b=chol_b,
        extra=extra,
        resid=resid,
        c_vec=c_vec,
        c_hat=c_hat,
        b_inv_c_hat=b_inv_c_hat,
    )


@dataclass
class UserTerms:
    """Value and gradients of one user's bound term, from :func:`_user_terms`.

    Gradients are with respect to the unconstrained (log) parameters.  The
    row-level kernel gradients (``gmu_rows``/``glog_var_rows``) are per
    rating row; :func:`_scatter_user` adds them into the shared entity
    tables.  ``dphi1``/``dphi0`` feed the bias-latent backward pass.
    """

    value: float
    gmu_rows: np.ndarray | None = None
    glog_var_rows: np.ndarray | None = None
    gz: np.ndarray | None = None
    glog_alpha: np.ndarray | None = None
    glog_sigma2: float = 0.0
    glog_beta: float = 0.0
    dphi1: np.ndarray | None = None
    dphi0: float = 0.0
    phi1: np.ndarray | None = None


def _user_terms(
    block: UserBlock,
    state: VariationalState,
    shared: SharedFactors,
    want_gradients: bool,
) -> UserTerms:
    n = block.count
    m = state.inducing_count
    y = block.ratings
    fw = _user_forward(block, state, shared)
    sigma2, beta, alpha = fw.sigma2, fw.beta, fw.cache.alpha
    psi2, l_k, chol_b = fw.cache.psi2, fw.l_k, fw.chol_b
    psi0 = n * sigma2

    logdet_b = 2.0 * np.sum(np.log(np.diag(chol_b)))
    tr_kinv_psi2 = float(np.trace(fw.t_mat))
    quad = float(y @ y - 2.0 * (y @ fw.phi1) + fw.phi0)
    w1 = beta * quad
    w2 = beta**2 * float(fw.c_hat @ fw.b_inv_c_hat)

    value = (
        0.5 * n * np.log(beta)
        - 0.5 * n * np.log(2.0 * np.pi)
        - 0.5 * logdet_b
        - 0.5 * (w1 - w2)
        - 0.5 * beta * psi0
        + 0.5 * beta * tr_kinv_psi2
    )

    if not want_gradients:
        return UserTerms(value=float(value))

    eye = np.eye(m)
    w = solve_triangular(l_k.T, fw.b_inv_c_hat, lower=False)    # A^-1 c
    l_inv = solve_triangular(l_k, eye, lower=True)
    b_inv = cho_solve((chol_b, True), eye)
    a_inv = l_inv.T @ b_inv @ l_inv
    a_inv = 0.5 * (a_inv + a_inv.T)
    k_inv = shared.cinv / sigma2
    kinv_psi2_kinv = k_inv @ psi2 @ k_inv
    ww = np.outer(w, w)

    # cotangent of A = (1 + extra) * K + beta * Psi2
    d_a = -0.5 * a_inv - 0.5 * beta**2 * ww
    d_k = 0.5 * k_inv + (1.0 + fw.extra) * d_a - 0.5 * beta * kinv_psi2_kinv
    d_psi2 = beta * d_a + 0.5 * beta * k_inv
    d_psi1 = beta**2 * np.outer(fw.resid, w)
    d_psi0 = -0.5 * beta

    psi_grads = psi_backward(fw.cache, d_psi0, d_psi1, d_psi2)

    # K_MM = sigma2 * (gram0 + jitter*I): route the gram channel into Z/alpha
    # and fold the whole sigma2 dependence into one scaling identity.
    gz_k, galpha_k = gram_backward(ArdKernel(1.0, alpha), state.z, shared.gram0, sigma2 * d_k)
    gsigma2 = psi_grads.dsigma2 + float(np.sum(d_k * shared.c))

    # d(W2/2)/dbeta = beta c^T w - (beta^2/2) w^T Psi2 w, with dA/dbeta = Psi2
    gbeta = (
        0.5 * n / beta
        - 0.5 * float(np.sum(a_inv * psi2))
        - 0.5 * quad
        + beta * float(fw.c_vec @ w)
        - 0.5 * beta**2 * float(w @ psi2 @ w)
        - 0.5 * psi0
        + 0.5 * tr_kinv_psi2
    )

    d_phi1 = beta * y - beta**2 * (fw.cache.psi1 @ w)
    d_phi0 = -0.5 * beta

    # chain rule into the log parameterization: d/dlog(x) = x * d/dx
    return UserTerms(
        value=float(value),
        gmu_rows=psi_grads.dmu,
        glog_var_rows=psi_grads.dvar * fw.cache.s,
        gz=psi_grads.dz + gz_k,
        glog_alpha=(psi_grads.dalpha + galpha_k) * alpha,
        glog_sigma2=gsigma2 * sigma2,
        glog_beta=gbeta * beta,
        dphi1=d_phi1,
        dphi0=d_phi0,
        phi1=fw.phi1,
    )


def user_bound(block: UserBlock, state: VariationalState, jitter: float = DEFAULT_JITTER) -> float:
    """The collapsed bound term of a single user."""
    shared = shared_factors(state, jitter)
    return _user_terms(block, state, shared, want_gradients=False).value


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


def kl_gradient(state: VariationalState, table: LatentTable, rows=slice(None)):
    """Gradient of :func:`kl_to_prior` on entries ``rows`` of one latent
    table: the (mean, log-variance) pair."""
    mean, log_var = state.params[table.mean][rows], state.params[table.log_var][rows]
    return np.array(mean), 0.5 * (np.exp(log_var) - 1.0)


def kl_gradients(state: VariationalState) -> dict:
    """Named gradients of :func:`kl_to_prior` (log-variance parameterization)."""
    grads = {}
    for t in state.layout.tables:
        grads[t.mean], grads[t.log_var] = kl_gradient(state, t)
    return grads


@dataclass
class BoundReport:
    """Objective value, its decomposition, and the flat gradient."""

    total: float
    per_user: np.ndarray
    kl: float
    gradients: np.ndarray | None
    grad_dict: dict | None = None


def _scatter_user(state: VariationalState, block: UserBlock, terms: UserTerms, grads: dict) -> None:
    """Add one user's gradients into ``grads`` (keyed like ``state.zero_grads()``,
    log parameterization), mapping row gradients onto the latent tables.

    Kernel tables take their slice of the kernel row gradients; bias tables
    take the per-row gradients of :func:`phi_backward`.  Real columns are
    data, not parameters, so their kernel gradient is dropped.
    """
    if state.dims.use_mean:
        pg = phi_backward(state.bias, block, terms.dphi1, terms.dphi0, terms.phi1)
        grads["real_weights"] += pg.real_weights
        grads["user_bias"][block.user] += pg.user_bias
    for t in state.layout.tables:
        codes = t.codes(block)
        if t.in_kernel:
            gmean, glog_var = terms.gmu_rows[:, t.sl], terms.glog_var_rows[:, t.sl]
        else:
            gmean, glog_var = pg.mean_rows[:, None], pg.var * np.exp(state.params[t.log_var][codes])
        np.add.at(grads[t.mean], codes, gmean)
        np.add.at(grads[t.log_var], codes, glog_var)
    grads["z"] += terms.gz
    grads["log_alpha"] += terms.glog_alpha
    grads["log_sigma2"][block.user] += terms.glog_sigma2
    grads["log_beta"][block.user] += terms.glog_beta


def total_bound(
    blocks: list,
    state: VariationalState,
    jitter: float = DEFAULT_JITTER,
    want_gradients: bool = True,
) -> BoundReport:
    """Sum of user terms minus the KL to the prior, with the full gradient.

    User terms are independent given a read-only state snapshot (map-reduce
    contract); each user's gradients are scattered straight into the
    full-size gradient tables by :func:`_scatter_user`.
    """
    shared = shared_factors(state, jitter)
    per_user = np.empty(len(blocks))

    grads = state.zero_grads() if want_gradients else None
    for i, block in enumerate(blocks):
        terms = _user_terms(block, state, shared, want_gradients)
        per_user[i] = terms.value
        if want_gradients:
            _scatter_user(state, block, terms, grads)

    kl = kl_to_prior(state)
    total = float(per_user.sum() - kl)

    if not want_gradients:
        return BoundReport(total=total, per_user=per_user, kl=kl, gradients=None)

    for key, g in kl_gradients(state).items():
        grads[key] -= g

    vec = state.pack_like(grads)
    return BoundReport(total=total, per_user=per_user, kl=kl, gradients=vec, grad_dict=grads)


@dataclass
class UserPosterior:
    """Cached per-user whitened solve factors for q(u) and prediction."""

    user: int
    sigma2: float
    beta: float
    chol_k: np.ndarray       # lower factor of K = sigma2 * C
    chol_b: np.ndarray       # lower factor of B = I + beta * L^-1 Psi2 L^-T
    v: np.ndarray            # A^-1 Psi1^T (y - phi1)
    k_mm: np.ndarray
    shared: SharedFactors


def user_posterior(
    block: UserBlock,
    state: VariationalState,
    shared: SharedFactors | None = None,
    jitter: float = DEFAULT_JITTER,
) -> UserPosterior:
    if shared is None:
        shared = shared_factors(state, jitter)
    fw = _user_forward(block, state, shared)
    return UserPosterior(
        user=block.user,
        sigma2=fw.sigma2,
        beta=fw.beta,
        chol_k=fw.l_k,
        chol_b=fw.chol_b,
        v=solve_triangular(fw.l_k.T, fw.b_inv_c_hat, lower=False),
        k_mm=fw.sigma2 * shared.c,
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
    post = user_posterior(block, state, jitter=jitter)
    mu_u = post.beta * (post.k_mm @ post.v)
    shalf = solve_triangular(post.chol_b, post.chol_k.T, lower=True)
    sigma_u = shalf.T @ shalf
    return mu_u, 0.5 * (sigma_u + sigma_u.T)
