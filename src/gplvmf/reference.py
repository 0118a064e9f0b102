"""Validation oracles, which the tests, demo 02 and the benchmark's checks
compare the trained code against; training and queries run none of them.

This module imports the trained modules and none of them imports it.  The
acceptance criteria (``tests/test_acceptance.py``) use :func:`psi_statistics`
(inputs checked, scaled by the signal variance) against :func:`mc_psi_oracle`
(criterion 1), :func:`mc_phi_oracle` (criterion 2), and :func:`user_bound`
against the exact log marginal built with :func:`kernel_matrix` (criterion
3).  :func:`optimal_qu` serves the bound's tests, and :func:`kernel_matrix`
also draws the synthetic truth of :func:`gplvmf.harness.synthesize`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .bound import DEFAULT_JITTER, Chunk, _terms, shared_factors, user_posterior
from .data import UserBlock
from .kernels import _InducingSide, _PsiCache
from .state import VariationalState


@dataclass(frozen=True)
class ArdKernel:
    """Signal variance and per-coordinate inverse length-scales (all > 0)."""

    signal_variance: float
    inv_length_scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inv_length_scales", np.asarray(self.inv_length_scales, dtype=float))
        if self.signal_variance < 0:
            raise ValueError("signal variance must be non-negative")
        if np.any(self.inv_length_scales < 0):
            raise ValueError("inverse length-scales must be non-negative")

    @property
    def dim(self) -> int:
        return self.inv_length_scales.shape[0]


@dataclass(frozen=True)
class LatentPoints:
    """Rows of diagonal-Gaussian latent points."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.atleast_2d(np.asarray(self.mean, dtype=float))
        var = np.atleast_2d(np.asarray(self.var, dtype=float))
        if mean.shape != var.shape:
            raise ValueError("mean and var must have matching shapes")
        if np.any(var < 0):
            raise ValueError("latent variances must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def count(self) -> int:
        return self.mean.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.shape[1]


@dataclass(frozen=True)
class PsiStats:
    """The three kernel expectations for one user block."""

    psi0: float
    psi1: np.ndarray
    psi2: np.ndarray


# Rows of ``a`` per block of kernel_matrix: a block's (rows, m, Q)
# differences stay small while the rows are many.
_KERNEL_ROWS = 64


def kernel_matrix(kernel: ArdKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain kernel matrix between row sets ``a`` (n x Q) and ``b`` (m x Q),
    taken over blocks of ``_KERNEL_ROWS`` rows of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != kernel.dim or b.shape[1] != kernel.dim:
        raise ValueError(
            f"input dimension mismatch: kernel expects Q={kernel.dim}, "
            f"got {a.shape[1]} and {b.shape[1]}"
        )
    expo = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], _KERNEL_ROWS):
        diff = a[start : start + _KERNEL_ROWS, None, :] - b[None, :, :]
        expo[start : start + _KERNEL_ROWS] = -0.5 * np.einsum("q,nmq->nm", kernel.inv_length_scales, diff**2)
    return kernel.signal_variance * np.exp(expo)


def psi_statistics(kernel: ArdKernel, points: LatentPoints, z: np.ndarray) -> PsiStats:
    """Closed-form psi0, Psi1, Psi2 under the diagonal-Gaussian posterior.

    With all variances zero this collapses to the plain kernel matrices:
    Psi1 = K_NM and Psi2 = K_MN K_NM.  psi0 is exactly N * sigma2 because
    the kernel diagonal is constant; Psi1 and Psi2 are the unit-signal
    statistics of :class:`_PsiCache` times sigma2 and sigma2^2.
    """
    if points.count < 1:
        raise ValueError("need at least one latent point")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != kernel.dim or points.dim != kernel.dim:
        raise ValueError("latent points, inducing inputs and kernel must share dimension Q")
    cache = _PsiCache(_InducingSide(kernel.inv_length_scales, z), points.mean, points.var)
    sigma2 = kernel.signal_variance
    return PsiStats(psi0=points.count * sigma2, psi1=sigma2 * cache.psi1, psi2=sigma2**2 * cache.psi2_sums()[0])


@dataclass(frozen=True)
class McPsiEstimate:
    """Monte-Carlo psi statistics with per-entry standard errors."""

    stats: PsiStats
    psi0_se: float
    psi1_se: np.ndarray
    psi2_se: np.ndarray
    samples: int


def mc_psi_oracle(
    kernel: ArdKernel,
    points: LatentPoints,
    z: np.ndarray,
    samples: int,
    seed: int,
    chunk: int = 100_000,
) -> McPsiEstimate:
    """Unbiased sampling estimate of the psi statistics, for validation.

    Draws each latent row from its diagonal Gaussian, evaluates the exact
    kernel on the draws, and averages.  Standard errors are the sample
    standard deviation of the per-draw statistics divided by sqrt(samples).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    mu, s = points.mean, points.var
    n, m = points.count, z.shape[0]
    q = mu.shape[1]
    sd = np.sqrt(s)

    sum1 = np.zeros((n, m))
    sumsq1 = np.zeros((n, m))
    sum2 = np.zeros((m, m))
    sumsq2 = np.zeros((m, m))
    sum0 = 0.0
    sumsq0 = 0.0

    # scaled coordinates turn the exponent into a matmul-friendly form
    root_alpha = np.sqrt(kernel.inv_length_scales)
    zs = z * root_alpha[None, :]
    z_sq = np.sum(zs**2, axis=1)

    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        x = mu[None, :, :] + rng.standard_normal((size, n, q)) * sd[None, :, :]
        xs = (x * root_alpha[None, None, :]).reshape(size * n, q)
        x_sq = np.sum(xs**2, axis=1)
        expo = xs @ zs.T
        expo *= 2.0
        expo -= x_sq[:, None]
        expo -= z_sq[None, :]
        k = kernel.signal_variance * np.exp(0.5 * expo).reshape(size, n, m)
        sum1 += k.sum(axis=0)
        sumsq1 += (k**2).sum(axis=0)
        p2 = np.matmul(k.transpose(0, 2, 1), k)
        sum2 += p2.sum(axis=0)
        sumsq2 += (p2**2).sum(axis=0)
        diag = np.full(size, n * kernel.signal_variance)
        sum0 += diag.sum()
        sumsq0 += (diag**2).sum()
        done += size

    def _finish(total, totalsq, count):
        mean = total / count
        var = np.maximum(totalsq / count - mean**2, 0.0)
        return mean, np.sqrt(var / count)

    mean1, se1 = _finish(sum1, sumsq1, samples)
    mean2, se2 = _finish(sum2, sumsq2, samples)
    mean0, se0 = _finish(np.asarray(sum0), np.asarray(sumsq0), samples)
    return McPsiEstimate(
        stats=PsiStats(psi0=float(mean0), psi1=mean1, psi2=mean2),
        psi0_se=float(se0),
        psi1_se=se1,
        psi2_se=se2,
        samples=samples,
    )


def mc_phi_oracle(state: VariationalState, block: UserBlock, samples: int, seed: int):
    """Monte-Carlo phi statistics for validation.

    Samples the *entities* of every bias table (not per-row copies), so
    correlation between rows that share an item or context category is fully
    represented.  Returns ((phi1, phi0), (phi1_se, phi0_se)).
    """
    rng = np.random.default_rng(seed)
    p = state.params
    base = p["user_bias"][block.user] + block.real_values @ p["real_weights"]
    tables = [(p[t.mean], np.sqrt(np.exp(p[t.log_var])), t.codes(block))
              for t in state.layout.tables if not t.in_kernel]

    sum1 = np.zeros(block.count)
    sumsq1 = np.zeros(block.count)
    sum0 = 0.0
    sumsq0 = 0.0
    chunk = max(1, min(samples, 20_000))
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        m = np.broadcast_to(base, (size, block.count)).copy()
        for mean, sd, codes in tables:
            draws = mean[None] + rng.standard_normal((size,) + mean.shape) * sd[None]
            m += np.einsum("siq->si", draws)[:, codes]
        sum1 += m.sum(axis=0)
        sumsq1 += (m**2).sum(axis=0)
        phi0_draws = (m**2).sum(axis=1)
        sum0 += phi0_draws.sum()
        sumsq0 += (phi0_draws**2).sum()
        done += size

    phi1 = sum1 / samples
    phi1_se = np.sqrt(np.maximum(sumsq1 / samples - phi1**2, 0.0) / samples)
    phi0 = sum0 / samples
    phi0_se = np.sqrt(max(sumsq0 / samples - phi0**2, 0.0) / samples)
    return (phi1, float(phi0)), (phi1_se, float(phi0_se))


def user_bound(block: UserBlock, state: VariationalState, jitter: float = DEFAULT_JITTER) -> float:
    """The collapsed bound term of a single user."""
    shared = shared_factors(state, jitter)
    return float(_terms(Chunk([block], state), state, shared, want_gradients=False).value[0])


def optimal_qu(block: UserBlock, state: VariationalState, jitter: float = DEFAULT_JITTER):
    """Mean and covariance of the collapsed-out inducing posterior q(u).

    mu_u  = K (beta^-1 K + Psi2)^-1 Psi1^T (y - phi1) = beta K A^-1 c
    Sig_u = beta^-1 K (beta^-1 K + Psi2)^-1 K = K A^-1 K = L B^-1 L^T

    The two spellings (beta^-1 K + Psi2 versus K + beta Psi2) are the same
    system up to a beta rescaling; everything here solves against
    A = K + beta * Psi2 in whitened form.
    """
    chunk, shared = Chunk([block], state), shared_factors(state, jitter)
    post = user_posterior(chunk, state, shared)
    sigma2, beta = np.exp(state.log_sigma2[block.user]), np.exp(state.log_beta[block.user])
    c = shared.side.gram + shared.jitter * np.eye(len(shared.linv))
    mu_u = beta * ((sigma2 * c) @ post.v[0])
    shalf = solve_triangular(post.chol_b[0], (np.sqrt(sigma2) * shared.chol_c).T, lower=True)
    sigma_u = shalf.T @ shalf
    return mu_u, 0.5 * (sigma_u + sigma_u.T)
