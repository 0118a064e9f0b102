"""ARD squared-exponential kernel and its Gaussian-expectation statistics.

The kernel between two latent vectors is

    k(x, x') = sigma2 * exp(-0.5 * sum_q alpha_q * (x_q - x'_q)^2)

with one inverse length-scale ``alpha_q`` per latent coordinate.  Training
needs three expectations of kernel matrices under a diagonal-Gaussian
posterior over the inputs (rows are independent, coordinates independent):

    psi0 = Tr <K_NN>        Psi1 = <K_NM>        Psi2 = <K_MN K_NM>

For this kernel family all three are closed-form products of 1-D Gaussian
integrals; the Monte-Carlo estimator in :func:`mc_psi_oracle` exists purely
to validate the closed forms and is never used in training.

Row n of Psi2 (one rating's term of the sum) has, per coordinate q, the
exponent ``-alpha/4 (z_a - z_b)^2 - w (mu - (z_a + z_b)/2)^2 - log(d2)/2``
with ``d2 = 1 + 2 alpha s`` and ``w = alpha / d2``.  The middle term is
expanded as

    w mu^2 - w mu z_a - w mu z_b + w (z_a^2 + z_b^2 + 2 z_a z_b) / 4

so that the pair term is one (N, Q) @ (Q, M^2) product of ``w`` with the
products ``z_a z_b``, the rest are (N, M) row terms broadcast over a and b,
and the row-independent ``(z_a - z_b)^2`` term stays in difference form.
The backward pass reduces ``dPsi2 * Psi2_rows`` to (N, M) and (M, M)
marginals and finishes every sum with rank-Q products.  No (N, M, M, Q)
array is built: memory is O(N M^2) for the rows of Psi2.  The expansion
cancels terms of size ``w mu^2``, so means and inducing inputs are first
centred on the inducing inputs' column mean; Psi1, Psi2 and their gradients
are invariant to that common shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Rows of diagonal-Gaussian latent points.

    ``fixed_mask`` marks coordinates pinned to observed values (point-mass
    posterior); those columns must carry exactly zero variance.
    """

    mean: np.ndarray
    var: np.ndarray
    fixed_mask: np.ndarray | None = None

    def __post_init__(self):
        mean = np.atleast_2d(np.asarray(self.mean, dtype=float))
        var = np.atleast_2d(np.asarray(self.var, dtype=float))
        if mean.shape != var.shape:
            raise ValueError("mean and var must have matching shapes")
        if np.any(var < 0):
            raise ValueError("latent variances must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)
        if self.fixed_mask is not None:
            mask = np.asarray(self.fixed_mask, dtype=bool)
            if mask.shape != (mean.shape[1],):
                raise ValueError("fixed_mask must have one entry per coordinate")
            if np.any(var[:, mask] != 0.0):
                raise ValueError("fixed coordinates must have exactly zero variance")
            object.__setattr__(self, "fixed_mask", mask)

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


def kernel_matrix(kernel: ArdKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain kernel matrix between row sets ``a`` (n x Q) and ``b`` (m x Q)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != kernel.dim or b.shape[1] != kernel.dim:
        raise ValueError(
            f"input dimension mismatch: kernel expects Q={kernel.dim}, "
            f"got {a.shape[1]} and {b.shape[1]}"
        )
    diff = a[:, None, :] - b[None, :, :]
    expo = -0.5 * np.einsum("q,nmq->nm", kernel.inv_length_scales, diff**2)
    return kernel.signal_variance * np.exp(expo)


def psi1_matrix(kernel: ArdKernel, mu: np.ndarray, var: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Psi1 = <K_NM> (N x M) for rows of means ``mu`` and variances ``var``.

    The one Psi1 forward pass: :class:`_PsiCache` and warm predictions both
    call it.  Inputs are taken as given (no validation or centring); the
    difference form is exact at any offset.
    """
    alpha = kernel.inv_length_scales
    d1 = 1.0 + alpha * var                                          # (N, Q)
    diff = mu[:, None, :] - z[None, :, :]                           # (N, M, Q)
    expo = -0.5 * np.einsum("q,nmq->nm", alpha, diff**2 / d1[:, None, :])
    expo -= 0.5 * np.sum(np.log(d1), axis=1)[:, None]
    return kernel.signal_variance * np.exp(expo)


class _PsiCache:
    """Forward intermediates reused by the backward pass.

    ``mu`` and ``z`` are kept centred on the column mean of the inducing
    inputs; Psi1, Psi2 and every gradient are invariant to that shift.
    """

    __slots__ = ("mu", "s", "z", "alpha", "sigma2", "psi1", "w", "dz", "zz", "psi2_rows")

    def __init__(self, kernel: ArdKernel, points: LatentPoints, z: np.ndarray):
        alpha = kernel.inv_length_scales
        sigma2 = kernel.signal_variance
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] != kernel.dim or points.dim != kernel.dim:
            raise ValueError("latent points, inducing inputs and kernel must share dimension Q")
        centre = z.mean(axis=0)
        mu, s, z = points.mean - centre, points.var, z - centre
        n, m = mu.shape[0], z.shape[0]

        self.mu, self.s, self.z, self.alpha, self.sigma2 = mu, s, z, alpha, sigma2
        self.psi1 = psi1_matrix(kernel, mu, s, z)                   # (N, M)

        d2 = 1.0 + 2.0 * alpha * s                                  # (N, Q)
        self.w = alpha / d2
        self.dz = z[:, None, :] - z[None, :, :]                     # (M, M, Q)
        self.zz = (z[:, None, :] * z[None, :, :]).reshape(m * m, -1)  # (M^2, Q): z_a z_b
        # row[n, a] takes w mu z_a - w z_a^2 / 4 and half of w mu^2 + log(d2) / 2
        row = (self.w * mu) @ z.T - 0.25 * (self.w @ (z**2).T)
        row -= 0.5 * np.sum(self.w * mu**2 + 0.5 * np.log(d2), axis=1)[:, None]
        expo = ((-0.5 * self.w) @ self.zz.T).reshape(n, m, m)
        expo += row[:, :, None]
        expo += row[:, None, :]
        expo -= 0.25 * np.einsum("q,abq->ab", alpha, self.dz**2)
        self.psi2_rows = np.exp(expo, out=expo)
        self.psi2_rows *= sigma2**2                                 # (N, M, M)

    @property
    def psi2(self) -> np.ndarray:
        """Psi2 summed over all rows (M, M)."""
        return self.psi2_rows.sum(axis=0)

    def stats(self) -> PsiStats:
        n = self.mu.shape[0]
        return PsiStats(psi0=n * self.sigma2, psi1=self.psi1, psi2=self.psi2)


def psi_statistics(kernel: ArdKernel, points: LatentPoints, z: np.ndarray) -> PsiStats:
    """Closed-form psi0, Psi1, Psi2 under the diagonal-Gaussian posterior.

    With all variances zero this collapses to the plain kernel matrices:
    Psi1 = K_NM and Psi2 = K_MN K_NM.  psi0 is exactly N * sigma2 because
    the kernel diagonal is constant.
    """
    if points.count < 1:
        raise ValueError("need at least one latent point")
    return _PsiCache(kernel, points, z).stats()


@dataclass(frozen=True)
class PsiGradients:
    """Gradients of a scalar objective through the psi statistics.

    ``dmu``/``dvar`` are per-row (N x Q); ``dz`` is (M x Q); ``dalpha`` and
    ``dsigma2`` are in the raw (not log) parameterization.
    """

    dmu: np.ndarray
    dvar: np.ndarray
    dz: np.ndarray
    dalpha: np.ndarray
    dsigma2: float


def psi_backward(
    cache: _PsiCache,
    dpsi0: float,
    dpsi1: np.ndarray,
    dpsi2: np.ndarray,
) -> PsiGradients:
    """Chain ``d objective / d (psi0, Psi1, Psi2)`` back to inputs.

    ``dpsi2`` is the gradient with respect to the summed (M x M) Psi2, or a
    (G, M, M) stack of them when the rows fall into G equal consecutive
    groups that each sum their own Psi2 (a chunk of users).  It is
    symmetrized here so callers may pass either triangle convention.  Every
    sum over inducing pairs is taken on (N, M) or (M, M) marginals of
    ``dpsi2 * Psi2_rows`` and finished with rank-Q products.  ``dsigma2``
    is for the cache's one signal variance.
    """
    alpha, s, mu, z, w = cache.alpha, cache.s, cache.mu, cache.z, cache.w
    n, m = cache.psi1.shape
    groups = np.reshape(dpsi2, (-1, m, m))
    groups = 0.5 * (groups + groups.transpose(0, 2, 1))

    # Psi1 channel, per coordinate: exponent -v (mu - z_m)^2 / 2, v = alpha / d1
    d1 = 1.0 + alpha * s
    v = alpha / d1
    t1 = dpsi1 * cache.psi1                                         # (N, M)
    t1_sum = t1.sum(axis=1)[:, None]
    t1_z = t1 @ z
    sq1 = mu**2 * t1_sum - 2.0 * mu * t1_z + t1 @ z**2              # sum_m t1 (mu - z_m)^2
    gmu = -v * (mu * t1_sum - t1_z)
    gs = 0.5 * v**2 * sq1 - 0.5 * v * t1_sum
    gz = t1.T @ (v * mu) - z * (t1.T @ v)
    galpha = -0.5 * np.sum(sq1 / d1**2 + t1_sum * s / d1, axis=0)

    # Psi2 channel, per coordinate: exponent -w (mu - zbar_ab)^2 with
    # zbar_ab = (z_a + z_b) / 2; t2 is symmetric in (a, b)
    d2 = 1.0 + 2.0 * alpha * s
    t2 = (cache.psi2_rows.reshape(len(groups), -1, m, m) * groups[:, None]).reshape(n, m * m)
    t2_a = t2.reshape(n, m, m).sum(axis=2)                          # (N, M)
    t2_sum = t2_a.sum(axis=1)[:, None]
    t2_z = t2_a @ z
    sq2 = (                                                         # sum_ab t2 (mu - zbar_ab)^2
        mu**2 * t2_sum - 2.0 * mu * t2_z + 0.5 * (t2_a @ z**2) + 0.5 * (t2 @ cache.zz)
    )
    gmu -= 2.0 * w * (mu * t2_sum - t2_z)
    gs += 2.0 * w**2 * sq2 - w * t2_sum
    pair = t2.sum(axis=0).reshape(m, m)                             # sum_n t2, (M, M)
    galpha -= 0.25 * np.einsum("ab,abq->q", pair, cache.dz**2) + np.sum(
        sq2 / d2**2 + t2_sum * s / d2, axis=0
    )
    t2_w = (t2.T @ w).reshape(m, m, -1)                             # sum_n t2 w, (M, M, Q)
    gz += (
        -alpha * np.einsum("ab,abq->aq", pair, cache.dz)
        + 2.0 * (t2_a.T @ (w * mu))
        - z * (t2_a.T @ w)
        - np.einsum("abq,bq->aq", t2_w, z)
    )

    # All three statistics are monomials in sigma2 (degrees 1, 1, 2).
    gsigma2 = (np.sum(t1) + 2.0 * np.sum(pair) + dpsi0 * n * cache.sigma2) / cache.sigma2

    return PsiGradients(dmu=gmu, dvar=gs, dz=gz, dalpha=galpha, dsigma2=float(gsigma2))


def gram_backward(kernel: ArdKernel, z: np.ndarray, gram: np.ndarray, dgram: np.ndarray):
    """Backward of ``kernel_matrix(kernel, z, z)`` for a symmetric ``dgram``.

    Returns (dz, dalpha); the sigma2 channel is left to the caller, which
    usually folds it into a single scaling identity across all statistics.
    """
    dgram = 0.5 * (dgram + dgram.T)
    w = dgram * gram
    dz_pair = z[:, None, :] - z[None, :, :]
    gz = -2.0 * kernel.inv_length_scales[None, :] * np.einsum("ab,abq->aq", w, dz_pair)
    galpha = -0.5 * np.einsum("ab,abq->q", w, dz_pair**2)
    return gz, galpha


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
