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
exponent ``-alpha/4 (z_a - z_b)^2 - w (mu - zbar_ab)^2 - log(d2)/2`` with
``zbar_ab = (z_a + z_b)/2``, ``d2 = 1 + 2 alpha s`` and ``w = alpha / d2``.
Psi2 is symmetric in (a, b), so the rows are kept over the P = M(M+1)/2
pairs a <= b only, as an (N, P) array.  The middle term is expanded as

    -w mu^2 + 2 w mu zbar_ab - w zbar_ab^2

so the exponent is one (N, 2Q+2) @ (2Q+2, P) product of the left factor
``[2 w mu | -w | 1 | 0]`` with the right factor ``[zbar | zbar^2 | c | 1]``,
less the row term ``sum_q w mu^2 + log(d2)/2``.  The ones column carries
the per-pair constant ``c_ab = -alpha/4 (z_a - z_b)^2 + 2 log sigma2`` (in
difference form), so no separate pass subtracts it or scales by sigma2^2.
Every per-pair quantity is built from ``z_a + z_b`` and
``(z_a - z_b)^2``, which round the same for (a, b) and (b, a), and no
per-index row terms are added per pair (their sum would round by the order
of a and b): a duplicated inducing input gives rows and columns of Psi2
equal bit for bit.

The backward pass weighs each pair by dPsi2 (both orders off the diagonal)
and takes the sums over pairs as one product of that weighted (N, P) array
with the right factor (its last column, against the left factor's zeros,
sums each row), and the sums over rows as one product of its transpose with
the left factor.  The pair tables depend on M alone and are built once per
M.  No (N, M, M, Q) array is built: memory is O(N P) for the rows of Psi2.
The expansion cancels terms of size ``w mu^2``, so means and inducing inputs
are first centred on the inducing inputs' column mean; Psi1, Psi2 and their
gradients are invariant to that common shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class _PairTables(NamedTuple):
    """Read-only index tables of the P = M(M+1)/2 inducing pairs a <= b,
    in ``np.triu_indices`` order; they depend on M alone."""

    ab: np.ndarray           # (2, P) a and b of each pair, b >= a
    spread: np.ndarray       # (M, 2P) [one-hot of a + of b | one-hot of b - of a] / 2, transposed
    unpack: np.ndarray       # (M, M) the pair of each entry, for both orders
    flat_ab: np.ndarray      # (P,) flat index of (a, b) in an (M, M) matrix
    flat_ba: np.ndarray      # (P,) flat index of (b, a)
    diag_half: np.ndarray    # (P,) 1/2 on the diagonal pairs, else 1


@functools.lru_cache(maxsize=8)
def _pair_tables(m: int) -> _PairTables:
    ia, ib = np.triu_indices(m)
    p = ia.size
    one_a, one_b = np.eye(m)[ia], np.eye(m)[ib]
    unpack = np.empty((m, m), dtype=np.intp)
    unpack[ia, ib] = unpack[ib, ia] = np.arange(p)
    tables = _PairTables(
        ab=np.stack((ia, ib)),
        spread=np.ascontiguousarray(0.5 * np.concatenate((one_a + one_b, one_b - one_a)).T),
        unpack=unpack, flat_ab=ia * m + ib, flat_ba=ib * m + ia, diag_half=np.where(ia == ib, 0.5, 1.0),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


class _PsiCache:
    """Forward intermediates reused by the backward pass.

    ``mu`` and ``z`` are kept centred on the column mean of the inducing
    inputs; Psi1, Psi2 and every gradient are invariant to that shift.
    ``psi2_rows`` holds row n's Psi2 over the pairs a <= b, (N, P).
    """

    __slots__ = ("mu", "s", "z", "alpha", "sigma2", "psi1", "pairs", "d2", "w", "lhs", "rhs", "dz", "psi2_rows")

    def __init__(self, kernel: ArdKernel, points: LatentPoints, z: np.ndarray):
        alpha = kernel.inv_length_scales
        sigma2 = kernel.signal_variance
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] != kernel.dim or points.dim != kernel.dim:
            raise ValueError("latent points, inducing inputs and kernel must share dimension Q")
        centre = z.mean(axis=0)
        mu, s, z = points.mean - centre, points.var, z - centre
        (n, q), m = mu.shape, z.shape[0]
        self.pairs = pairs = _pair_tables(m)

        self.mu, self.s, self.z, self.alpha, self.sigma2 = mu, s, z, alpha, sigma2
        self.psi1 = psi1_matrix(kernel, mu, s, z)                   # (N, M)

        self.d2 = d2 = 1.0 + 2.0 * alpha * s                        # (N, Q)
        self.w = w = alpha / d2
        wmu = w * mu
        self.lhs = lhs = np.empty((n, 2 * q + 2))                   # [2 w mu | -w | 1 | 0]
        np.multiply(wmu, 2.0, out=lhs[:, :q])
        np.negative(w, out=lhs[:, q:2 * q])
        lhs[:, 2 * q:] = (1.0, 0.0)
        za, zb = z[pairs.ab]                                        # (P, Q) each
        self.dz = za - zb
        self.rhs = rhs = np.empty((pairs.ab.shape[1], 2 * q + 2))   # [zbar | zbar^2 | c | 1]
        zbar = np.add(za, zb, out=rhs[:, :q])
        zbar *= 0.5
        np.square(zbar, out=rhs[:, q:2 * q])
        log_sigma4 = 2.0 * math.log(sigma2) if sigma2 > 0.0 else -np.inf
        rhs[:, 2 * q] = -0.25 * (self.dz**2 @ alpha) + log_sigma4
        rhs[:, 2 * q + 1] = 1.0
        expo = lhs @ rhs.T
        expo -= np.sum(wmu * mu + 0.5 * np.log(d2), axis=1)[:, None]
        self.psi2_rows = np.exp(expo, out=expo)                     # (N, P)

    def psi2_sums(self, groups: int) -> np.ndarray:
        """Psi2 summed over each of ``groups`` equal consecutive row groups, (G, M, M)."""
        sums = self.psi2_rows.reshape(groups, -1, self.psi2_rows.shape[1]).sum(axis=1)
        return sums[:, self.pairs.unpack]

    @property
    def psi2(self) -> np.ndarray:
        """Psi2 summed over all rows (M, M)."""
        return self.psi2_sums(1)[0]

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
    groups that each sum their own Psi2 (a chunk of users).  Each pair a < b
    takes ``dpsi2[a, b] + dpsi2[b, a]``, so callers may pass either triangle
    convention.  Every sum over pairs or rows is one product with the
    weighted Psi2 rows (module docstring).  ``dsigma2`` is for the cache's
    one signal variance.
    """
    alpha, s, mu, z, w, pairs = cache.alpha, cache.s, cache.mu, cache.z, cache.w, cache.pairs
    n, m = cache.psi1.shape
    q = z.shape[1]
    flat = np.reshape(dpsi2, (-1, m * m))
    dpair = (flat[:, pairs.flat_ab] + flat[:, pairs.flat_ba]) * pairs.diag_half     # (G, P)

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

    # Psi2 channel, per coordinate: exponent -alpha/4 dz_ab^2 - w (mu - zbar_ab)^2
    # with zbar_ab = (z_a + z_b) / 2; t2 weighs both orders of each pair
    d2 = cache.d2
    t2 = cache.psi2_rows.reshape(len(dpair), -1, dpair.shape[1]) * dpair[:, None]
    t2 = t2.reshape(n, -1)                                          # (N, P)
    by_row = t2 @ cache.rhs                                         # (N, 2Q + 2)
    t2_z, t2_sum = by_row[:, :q], by_row[:, 2 * q + 1:]
    sq2 = mu**2 * t2_sum - 2.0 * mu * t2_z + by_row[:, q:2 * q]     # sum_ab t2 (mu - zbar_ab)^2
    gmu -= 2.0 * w * (mu * t2_sum - t2_z)
    gs += 2.0 * w**2 * sq2 - w * t2_sum
    by_pair = t2.T @ cache.lhs                                      # (P, 2Q + 2)
    pair = by_pair[:, 2 * q]                                        # sum_n t2
    galpha -= 0.25 * (pair @ cache.dz**2) + np.sum(sq2 / d2**2 + t2_sum * s / d2, axis=0)
    # pair (a, b) gives a and b each half of 2 sum_n t2 w (mu - zbar_ab), and
    # -/+ half of alpha pair (z_a - z_b)
    toward = by_pair[:, :q] + 2.0 * by_pair[:, q:2 * q] * cache.rhs[:, :q]
    lin = (alpha * pair[:, None]) * cache.dz
    gz += pairs.spread @ np.concatenate((toward, lin))

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
