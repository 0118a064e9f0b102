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

Both Psi1 and Psi2 are exponentials of products of small factors.  Row n
of Psi1 has, per coordinate q, the exponent
``-v (mu - z_m)^2 / 2 - log(d1)/2`` with ``d1 = 1 + alpha s`` and
``v = alpha / d1``.  Expanded, the exponent over all coordinates (plus
``log sigma2``) is an (N, 2Q+1) @ (2Q+1, M) product, one per user (below),
of the left factor ``[v mu | -v/2 | -r1]`` with the right factor
``[z | z^2 | 1]``, where the row term is
``r1 = sum_q (v mu^2 + log d1) / 2 - log sigma2``.  Query rows
(:class:`Psi1Rows`, :func:`psi1_matrix`) use the same factors but take the
product with ``np.einsum``, whose rows do not depend on the batch.

Row n of Psi2 (one rating's term of the sum) has, per coordinate q, the
exponent ``-alpha/4 (z_a - z_b)^2 - w (mu - zbar_ab)^2 - log(d2)/2`` with
``zbar_ab = (z_a + z_b)/2``, ``d2 = 1 + 2 alpha s`` and ``w = alpha / d2``.
Psi2 is symmetric in (a, b), so the rows are kept over the P = M(M+1)/2
pairs a <= b only, as an (N, P) array.  The middle term is expanded as

    -w mu^2 + 2 w mu zbar_ab - w zbar_ab^2

so the whole exponent is an (N, 2Q+2) @ (2Q+2, P) product, one per user
(below), of the left factor ``[2 w mu | -w | 1 | -r2]`` with the right factor
``[zbar | zbar^2 | c | 1]``: the row term ``r2 = sum_q (w mu^2 + log(d2)/2)``
sits opposite the ones column, and the ones column opposite the per-pair
constant ``c_ab = -alpha/4 (z_a - z_b)^2 + 2 log sigma2`` (in difference
form), so no pass over the (N, P) rows adds either.  Every per-pair
quantity is built from ``z_a + z_b`` and ``(z_a - z_b)^2``, which round the
same for (a, b) and (b, a), and no per-index terms are added per pair
(their sum would round by the order of a and b): a duplicated inducing
input gives rows and columns of Psi2, and columns of Psi1, equal bit for
bit.

The rows of a chunk of users fall into G equal consecutive groups, one per
user, and every product over rows, forward and backward, is a stacked
product with one group per slice (:func:`_by_group`,
:func:`_cross_by_group`).  Each slice has one user's shapes, whatever G
is: a user's rows round as in a cache of its own, and a product runs on
more than one OpenBLAS thread only where one user's product already does
(the library threads a product by its size).  The chunk size bounds memory
alone.

The backward pass folds the cotangent into the small factors instead of
weighting the (N, P) rows.  With ``t1 = dPsi1 * Psi1``, the sums over
inducing inputs are ``t1 @ [z | z^2 | 1]`` and those over rows
``t1^T @ [v mu | -v/2 | -r1]``, per group and then summed over groups.
Psi2's cotangent weighs each pair by ``dpair`` (dPsi2, both orders off the
diagonal), one vector per group, since each group sums its own Psi2; per
group g the sums over pairs are ``rows_g @ (dpair_g * rhs)`` and those over
rows ``sum_g dpair_g * (rows_g^T @ lhs_g)``.  The row-term columns' sums
are never read.  The pair tables depend on M alone and are built once per
M.  No (N, M, M, Q) or (N, M, Q) array is built, and memory is one (N, P)
array for the rows of Psi2.  The expansion cancels terms of size
``w mu^2``, so means and inducing inputs are first centred on the inducing
inputs' column mean; Psi1, Psi2 and their gradients are invariant to that
common shift.
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


def _psi1_left(alpha: np.ndarray, sigma2: float, mu: np.ndarray, s: np.ndarray):
    """``d1``, ``v`` and the left factor ``[v mu | -v/2 | -r1]`` (N, 2Q+1) of
    the Psi1 exponent (module docstring), for centred ``mu``."""
    d1 = 1.0 + alpha * s                                            # (N, Q)
    v = alpha / d1
    vmu = v * mu
    log_sigma2 = math.log(sigma2) if sigma2 > 0.0 else -np.inf
    row = log_sigma2 - 0.5 * np.sum(vmu * mu + np.log(d1), axis=1)
    return d1, v, np.concatenate((vmu, -0.5 * v, row[:, None]), axis=1)


def _psi1_right(z: np.ndarray) -> np.ndarray:
    """The right factor ``[z | z^2 | 1]`` (M, 2Q+1) of the Psi1 exponent, for centred ``z``."""
    return np.concatenate((z, z**2, np.ones((z.shape[0], 1))), axis=1)


class Psi1Rows:
    """Psi1 rows against fixed inducing inputs ``z``: the query path's Psi1
    (:class:`gplvmf.predict.Predictor`).

    The centre (the column mean of ``z``) and the right factor are built
    once; each call builds the left factor of its rows and takes the product
    with ``np.einsum``, not ``@``: a BLAS product's rounding depends on the
    number of rows, and a query's Psi1 row must not depend on the batch it
    arrives in.  Inputs are not validated.
    """

    def __init__(self, kernel: ArdKernel, z: np.ndarray):
        self.alpha, self.sigma2 = kernel.inv_length_scales, kernel.signal_variance
        self.centre = z.mean(axis=0)
        self.rhs = _psi1_right(z - self.centre)

    def __call__(self, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
        _, _, lhs = _psi1_left(self.alpha, self.sigma2, mu - self.centre, var)
        expo = np.einsum("nk,mk->nm", lhs, self.rhs)
        return np.exp(expo, out=expo)


def psi1_matrix(kernel: ArdKernel, mu: np.ndarray, var: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Psi1 = <K_NM> (N x M) for rows of means ``mu`` and variances ``var``,
    in the same factors as :class:`_PsiCache`, centred on the column mean of
    ``z`` and multiplied row by row (:class:`Psi1Rows`)."""
    return Psi1Rows(kernel, z)(mu, var)


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


def _by_group(a: np.ndarray, b: np.ndarray, groups: int) -> np.ndarray:
    """``a @ b`` with the rows of ``a`` in ``groups`` equal consecutive
    groups, one product per group; ``b`` may be one matrix or a stack of
    ``groups``.  Each group's rows round, and run on as many BLAS threads, as
    in a product of their own, whatever the number of groups."""
    n = a.shape[0]
    if groups == 1:     # the same product; a 2-D operand skips the stacked set-up
        return (a @ b).reshape(n, -1)
    return np.matmul(a.reshape(groups, n // groups, -1), b).reshape(n, -1)


def _cross_by_group(a: np.ndarray, b: np.ndarray, groups: int) -> np.ndarray:
    """``a_g^T @ b_g`` for each of ``groups`` equal consecutive row groups of
    ``a`` and ``b``, (G, ., .): the sums over rows, one product per group."""
    if groups == 1:
        return (a.T @ b)[None]
    a, b = (x.reshape(groups, x.shape[0] // groups, -1) for x in (a, b))
    return np.matmul(a.transpose(0, 2, 1), b)


class _PsiCache:
    """Forward intermediates reused by the backward pass.

    ``mu`` and ``z`` are kept centred on the column mean of the inducing
    inputs; Psi1, Psi2 and every gradient are invariant to that shift.
    ``lhs1``/``rhs1`` and ``lhs``/``rhs`` are the small factors of the Psi1
    and Psi2 exponents; ``psi2_rows`` holds row n's Psi2 over the pairs
    a <= b, (N, P).  The rows fall into ``groups`` equal consecutive groups
    (the users of a chunk), and every product over rows is taken per group.
    """

    __slots__ = ("mu", "s", "z", "alpha", "sigma2", "groups", "d1", "v", "lhs1", "rhs1", "psi1", "pairs", "d2",
                 "w", "lhs", "rhs", "dz", "psi2_rows")

    def __init__(self, kernel: ArdKernel, points: LatentPoints, z: np.ndarray, groups: int = 1):
        alpha = kernel.inv_length_scales
        sigma2 = kernel.signal_variance
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] != kernel.dim or points.dim != kernel.dim:
            raise ValueError("latent points, inducing inputs and kernel must share dimension Q")
        centre = z.mean(axis=0)
        mu, s, z = points.mean - centre, points.var, z - centre
        (n, q), m = mu.shape, z.shape[0]
        self.pairs = pairs = _pair_tables(m)
        self.mu, self.s, self.z, self.alpha, self.sigma2, self.groups = mu, s, z, alpha, sigma2, groups

        self.d1, self.v, self.lhs1 = _psi1_left(alpha, sigma2, mu, s)
        self.rhs1 = _psi1_right(z)
        expo = _by_group(self.lhs1, self.rhs1.T, groups)
        self.psi1 = np.exp(expo, out=expo)                          # (N, M)

        self.d2 = d2 = 1.0 + 2.0 * alpha * s                        # (N, Q)
        self.w = w = alpha / d2
        self.lhs = lhs = np.empty((n, 2 * q + 2))                   # [2 w mu | -w | 1 | -r2]
        wmu = np.multiply(w, mu, out=lhs[:, :q])
        lhs[:, 2 * q + 1] = -np.sum(wmu * mu + 0.5 * np.log(d2), axis=1)
        wmu *= 2.0
        np.negative(w, out=lhs[:, q:2 * q])
        lhs[:, 2 * q] = 1.0
        za, zb = z[pairs.ab]                                        # (P, Q) each
        self.dz = za - zb
        self.rhs = rhs = np.empty((pairs.ab.shape[1], 2 * q + 2))   # [zbar | zbar^2 | c | 1]
        zbar = np.add(za, zb, out=rhs[:, :q])
        zbar *= 0.5
        np.square(zbar, out=rhs[:, q:2 * q])
        log_sigma4 = 2.0 * math.log(sigma2) if sigma2 > 0.0 else -np.inf
        rhs[:, 2 * q] = -0.25 * (self.dz**2 @ alpha) + log_sigma4
        rhs[:, 2 * q + 1] = 1.0
        expo = _by_group(lhs, rhs.T, groups)
        self.psi2_rows = np.exp(expo, out=expo)                     # (N, P)

    def psi2_sums(self) -> np.ndarray:
        """Psi2 summed over each of the cache's row groups, (G, M, M)."""
        sums = self.psi2_rows.reshape(self.groups, -1, self.psi2_rows.shape[1]).sum(axis=1)
        return sums[:, self.pairs.unpack]

    @property
    def psi2(self) -> np.ndarray:
        """Psi2 summed over all rows (M, M)."""
        return self.psi2_sums().sum(axis=0)

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
    convention.  Every sum over inducing inputs, pairs or rows is one
    product with a small factor, and ``dpsi2`` is folded into the small
    factors, so no weighted copy of the (N, P) Psi2 rows is made (module
    docstring).  ``dsigma2`` is for the cache's one signal variance.
    """
    alpha, s, mu, z, pairs = cache.alpha, cache.s, cache.mu, cache.z, cache.pairs
    n, m = cache.psi1.shape
    q = z.shape[1]
    flat = np.reshape(dpsi2, (-1, m * m))
    dpair = (flat[:, pairs.flat_ab] + flat[:, pairs.flat_ba]) * pairs.diag_half     # (G, P)
    groups = dpair.shape[0]

    # Psi1 channel, per coordinate: exponent -v (mu - z_m)^2 / 2, v = alpha / d1
    d1, v = cache.d1, cache.v
    t1 = dpsi1 * cache.psi1                                         # (N, M)
    by_row1 = _by_group(t1, cache.rhs1, groups)                     # [t1 z | t1 z^2 | sum_m t1]
    t1_z, t1_sum = by_row1[:, :q], by_row1[:, 2 * q:]
    sq1 = mu**2 * t1_sum - 2.0 * mu * t1_z + by_row1[:, q:2 * q]    # sum_m t1 (mu - z_m)^2
    gmu = -v * (mu * t1_sum - t1_z)
    gs = 0.5 * v**2 * sq1 - 0.5 * v * t1_sum
    by_col1 = _cross_by_group(t1, cache.lhs1, groups).sum(axis=0)   # [sum_n t1 v mu | -sum_n t1 v / 2 | .]
    gz = by_col1[:, :q] + 2.0 * z * by_col1[:, q:2 * q]
    galpha = -0.5 * np.sum(sq1 / d1**2 + t1_sum * s / d1, axis=0)

    # Psi2 channel, per coordinate: exponent -alpha/4 dz_ab^2 - w (mu - zbar_ab)^2
    # with zbar_ab = (z_a + z_b) / 2; t2 = dpair Psi2 weighs both orders of
    # each pair and is never built: dpair is folded into the small factors
    w, d2 = cache.w, cache.d2
    by_row = _by_group(cache.psi2_rows, dpair[:, :, None] * cache.rhs, groups)   # sum_ab t2 [zbar | zbar^2 | c | 1]
    t2_z, t2_sum = by_row[:, :q], by_row[:, 2 * q + 1:]
    sq2 = mu**2 * t2_sum - 2.0 * mu * t2_z + by_row[:, q:2 * q]     # sum_ab t2 (mu - zbar_ab)^2
    gmu -= 2.0 * w * (mu * t2_sum - t2_z)
    gs += 2.0 * w**2 * sq2 - w * t2_sum
    by_pair = _cross_by_group(cache.psi2_rows, cache.lhs, groups)
    by_pair = np.einsum("gp,gpk->pk", dpair, by_pair)               # sum_n t2 [2 w mu | -w | 1 | .]
    pair = by_pair[:, 2 * q]                                        # sum_n t2
    galpha -= 0.25 * (pair @ cache.dz**2) + np.sum(sq2 / d2**2 + t2_sum * s / d2, axis=0)
    # pair (a, b) gives a and b each half of 2 sum_n t2 w (mu - zbar_ab), and
    # -/+ half of alpha pair (z_a - z_b)
    toward = by_pair[:, :q] + 2.0 * by_pair[:, q:2 * q] * cache.rhs[:, :q]
    lin = (alpha * pair[:, None]) * cache.dz
    gz += pairs.spread @ np.concatenate((toward, lin))

    # All three statistics are monomials in sigma2 (degrees 1, 1, 2).
    gsigma2 = (np.sum(t1_sum) + 2.0 * np.sum(pair) + dpsi0 * n * cache.sigma2) / cache.sigma2

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
