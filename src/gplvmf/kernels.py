"""ARD squared-exponential kernel and its Gaussian-expectation statistics.

The kernel between two latent vectors is

    k(x, x') = sigma2 * exp(-0.5 * sum_q alpha_q * (x_q - x'_q)^2)

with one inverse length-scale ``alpha_q`` per latent coordinate.  Training
needs three expectations of kernel matrices under a diagonal-Gaussian
posterior over the inputs (rows are independent, coordinates independent):

    psi0 = Tr <K_NN>        Psi1 = <K_NM>        Psi2 = <K_MN K_NM>

For this kernel family all three are closed-form products of 1-D Gaussian
integrals.

The signal variance enters only as a factor: psi0 = N sigma2, and Psi1 and
Psi2 are sigma2 and sigma2^2 times their unit-signal values.  So the psi
code below (:class:`_PsiCache`, :func:`psi_backward`, :func:`psi1_factor`)
computes unit-signal statistics from plain arrays (means, variances) and
the :class:`_InducingSide` of the inducing inputs and inverse length-scales;
the bound brings each user's sigma2 in through its whitening
(:mod:`gplvmf.bound`).

Both Psi1 and Psi2 are exponentials of products of small factors.  Row n
of Psi2 (one rating's term of the sum) has, per coordinate q, the exponent
``-alpha/4 (z_a - z_b)^2 - w (mu - zbar_ab)^2 - log(d2)/2`` with
``zbar_ab = (z_a + z_b)/2``, ``d2 = 1 + 2 alpha s`` and ``w = alpha / d2``.
Psi2 is symmetric in (a, b), so the rows are kept over the P = M(M+1)/2
pairs a <= b only, as an (N, P) array.  Expanding the middle term as
``-w mu^2 + 2 w mu zbar_ab - w zbar_ab^2`` makes the whole exponent an
(N, 2Q+2) @ (2Q+2, P) product, one per user (below), of the left factor
``[2 w mu | -w | 1 | -r2]`` with the right factor ``[zbar | zbar^2 | c | 1]``:
the row term ``r2 = sum_q (w mu^2 + log(d2)/2)`` sits opposite the ones
column, and the ones column opposite the per-pair constant
``c_ab = -alpha/4 (z_a - z_b)^2``, so no pass over the (N, P) rows adds
either.  Psi1 is the same form at c = 1 where Psi2 is at c = 2: with
``d1 = 1 + alpha s`` and ``v = alpha / d1`` its exponent is the left factor
``[v mu | -v/2 | 0 | -r1]``, ``r1 = sum_q (v mu^2 + log d1) / 2``, times the
right factor's rows at the pairs (a, a), ``[z | z^2 | 0 | 1]``.  Every
per-pair quantity is built from ``z_a + z_b`` and ``(z_a - z_b)^2``, which
round the same for (a, b) and (b, a): a duplicated inducing input gives rows
and columns of Psi2, and columns of Psi1, equal bit for bit.

The predictor's per-entity tables take Psi1 over one latent block each in
the plain difference form ``mu - z`` (:func:`psi1_factor`).

The right factors, the pair tables and the unit-signal inducing gram,
``exp(2 c)`` over the pairs, depend on (Z, alpha) alone and are built once
per (Z, alpha) by :class:`_InducingSide`; the bound builds one per call,
and its psi caches and backward passes read it.  The expansion cancels
terms of size ``w mu^2``, so means and inducing inputs are centred on the
inducing inputs' column mean; Psi1, Psi2 and their gradients are invariant
to that common shift.

The rows of a chunk of users fall into G equal consecutive groups, one per
user, and every product over rows, forward and backward, is a stacked
product with one group per slice (:func:`_by_group`,
:func:`_cross_by_group`).  Each slice has one user's shapes, whatever G
is: a user's rows round as in a cache of its own, and a product runs on
more than one OpenBLAS thread only where one user's product already does
(the library threads a product by its size).  The chunk size bounds memory
alone.

The backward pass folds the cotangent into the small factors instead of
weighting the (N, P) rows.  Per channel, the sums over inducing inputs or
pairs, ``t @ right factor``, are the cotangent of the left factor, and the
sums over rows, ``t^T @ left factor``, that of the right factor's rows, with
``t = dPsi1 * Psi1`` or, for Psi2, each pair weighed by ``dpair`` (dPsi2,
both orders off the diagonal; one vector per group, folded into the right
factor).  Psi1's column sums join the pairs (a, a).  A gram cotangent joins
the pair constant's, since d gram / d c = 2 gram.  No (N, M, M, Q) or
(N, M, Q) array is built, and memory is one (N, P) array for the rows of
Psi2.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np


def _left_factor(c: float, alpha_c: np.ndarray, alpha: np.ndarray, mu: np.ndarray, s: np.ndarray):
    """``d``, ``v`` and the left factor ``[c v mu | -c v / 2 | c - 1 | -r]``
    (N, 2Q+2) of channel ``c``'s exponent (:class:`_InducingSide`), for
    centred ``mu``; ``alpha_c`` is ``c * alpha``."""
    d = 1.0 + alpha_c * s
    v = alpha / d
    vmu = v * mu
    row = vmu * mu
    row += np.log(d) if c == 1.0 else np.log(d) / c
    q = mu.shape[1]
    lhs = np.empty((len(mu), 2 * q + 2))
    np.multiply(vmu, c, out=lhs[:, :q])
    np.multiply(v, -c / 2, out=lhs[:, q:2 * q])
    lhs[:, 2 * q] = c - 1.0
    np.multiply(row.sum(axis=1), -c / 2, out=lhs[:, 2 * q + 1])
    return d, v, lhs


def psi1_factor(alpha: np.ndarray, mu: np.ndarray, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unit-signal Psi1 (E, M) over a subset of the coordinates, of rows with
    means ``mu`` and variances ``s`` (E, q) against inducing inputs ``z`` (M, q):
    prod_q (1 + alpha s)^-1/2 exp(-alpha (mu - z)^2 / (2 (1 + alpha s))).
    Over any split of the coordinates, Psi1 is the product of its factors.
    Every array is C-ordered and the sum over q is an ``np.einsum``, so a row
    does not depend on the batch or on the inputs' layout.  Inputs are not
    validated.
    """
    mu, s = np.ascontiguousarray(mu), np.ascontiguousarray(s)
    d = 1.0 + alpha * s
    diff = np.subtract(mu[:, None, :], z, order="C")                # (E, M, q)
    expo = np.einsum("emq,eq->em", np.square(diff, out=diff), -0.5 * alpha / d)
    expo -= 0.5 * np.log(d).sum(axis=1, keepdims=True)
    return np.exp(expo, out=expo)


class _PairTables(NamedTuple):
    """Read-only index tables of the P = M(M+1)/2 inducing pairs a <= b,
    in ``np.triu_indices`` order; they depend on M alone."""

    ab: np.ndarray           # (2, P) a and b of each pair, b >= a
    spread: np.ndarray       # (M, 2P) [one-hot of a + of b | one-hot of b - of a] / 2, transposed
    unpack: np.ndarray       # (M, M) the pair of each entry, for both orders
    flat_ab: np.ndarray      # (P,) flat index of (a, b) in an (M, M) matrix
    flat_ba: np.ndarray      # (P,) flat index of (b, a)
    diag_half: np.ndarray    # (P,) 1/2 on the diagonal pairs, else 1
    diag: np.ndarray         # (M,) the pair (a, a) of each a


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
        diag=np.flatnonzero(ia == ib),
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


class _InducingSide:
    """What the unit-signal psi statistics and the inducing gram take from
    the inducing inputs ``z`` (M, Q) and inverse length-scales ``alpha``
    alone (module docstring): the centre, the pair tables, the centred
    ``z_a - z_b``, its square and ``z_a + z_b``, Psi2's right factor over
    the pairs and Psi1's, its rows at the pairs (a, a), both also
    transposed, and the gram, twice over the pairs (``gram2``) and as
    (M, M)."""

    __slots__ = ("alpha", "alpha2", "centre", "pairs", "dz", "dz2", "rhs", "rhs1", "rhs_t", "rhs1_t", "zbar2", "gram2",
                 "gram")

    def __init__(self, alpha: np.ndarray, z: np.ndarray):
        (m, q), pairs = z.shape, _pair_tables(z.shape[0])
        self.alpha, self.pairs = alpha, pairs
        self.alpha2 = 2.0 * alpha
        self.centre = z.sum(axis=0) / m
        za, zb = (z - self.centre)[pairs.ab]                        # (P, Q) each
        self.dz = za - zb
        self.dz2 = self.dz**2
        self.rhs = rhs = np.empty((pairs.ab.shape[1], 2 * q + 2))
        self.zbar2 = np.add(za, zb)                                 # 2 zbar
        zbar = np.multiply(self.zbar2, 0.5, out=rhs[:, :q])
        np.square(zbar, out=rhs[:, q:2 * q])
        c = np.multiply(self.dz2 @ alpha, -0.25, out=rhs[:, 2 * q])
        rhs[:, 2 * q + 1] = 1.0
        self.rhs1 = rhs[pairs.diag]
        # contiguous: a stacked product with a transposed view runs at half the speed
        self.rhs_t, self.rhs1_t = np.ascontiguousarray(rhs.T), np.ascontiguousarray(self.rhs1.T)
        gram = np.exp(2.0 * c)                                      # exp(-1/2 sum_q alpha_q (z_a - z_b)^2)
        self.gram2, self.gram = 2.0 * gram, gram[pairs.unpack]


class _PsiCache:
    """Unit-signal Psi1 and Psi2 of rows with means ``mu`` and variances
    ``s`` (N, Q) against the inducing inputs (M, Q) of ``side`` at its
    inverse length-scales, and the forward intermediates reused by the
    backward pass.  Inputs are not validated.

    ``mu`` is kept centred on the column mean of the inducing inputs; Psi1,
    Psi2 and every gradient are invariant to that shift.  ``channels`` holds
    per channel (Psi1, Psi2; :class:`_InducingSide`) ``d``, ``v`` (``w``
    for Psi2) and the left factor of the exponent, (N, 2Q+2).  ``psi2_rows``
    holds row n's Psi2 over the pairs a <= b, (N, P).  The rows fall into
    ``groups`` equal consecutive groups (the users of a chunk), and every
    product over rows is taken per group.
    """

    __slots__ = ("side", "mu", "s", "groups", "channels", "psi1", "psi2_rows")

    def __init__(self, side: _InducingSide, mu: np.ndarray, s: np.ndarray, groups: int = 1):
        self.side = side
        self.mu = mu = mu - side.centre
        self.s, self.groups = s, groups
        self.channels, exps = [], []
        for c, alpha_c, rhs_t in ((1.0, side.alpha, side.rhs1_t), (2.0, side.alpha2, side.rhs_t)):
            self.channels.append(_left_factor(c, alpha_c, side.alpha, mu, s))
            expo = _by_group(self.channels[-1][2], rhs_t, groups)
            exps.append(np.exp(expo, out=expo))
        self.psi1, self.psi2_rows = exps                            # (N, M), (N, P)

    def psi2_sums(self) -> np.ndarray:
        """Psi2 summed over each of the cache's row groups, (G, M, M)."""
        sums = self.psi2_rows.reshape(self.groups, -1, self.psi2_rows.shape[1]).sum(axis=1)
        return sums[:, self.side.pairs.unpack]


class PsiGradients(NamedTuple):
    """Gradients of a scalar objective through the unit-signal psi statistics.

    ``dmu``/``dvar`` are per-row (N x Q); ``dz`` is (M x Q); ``dalpha`` is
    in the raw (not log) parameterization.
    """

    dmu: np.ndarray
    dvar: np.ndarray
    dz: np.ndarray
    dalpha: np.ndarray


def psi_backward(cache: _PsiCache, dpsi1: np.ndarray, dpsi2: np.ndarray, dgram=None) -> PsiGradients:
    """Chain ``d objective / d (Psi1, Psi2)`` of the cache's unit-signal
    statistics back to its inputs; a caller with signal variance sigma2
    passes sigma2 * dPsi1 and sigma2^2 * dPsi2.

    ``dpsi2`` is the gradient with respect to the summed (M x M) Psi2, or a
    (G, M, M) stack of them when the rows fall into G equal consecutive
    groups that each sum their own Psi2 (a chunk of users).  Each pair a < b
    takes ``dpsi2[a, b] + dpsi2[b, a]``, so callers may pass either triangle
    convention.  Every sum over inducing inputs, pairs or rows is one
    product with a small factor, and ``dpsi2`` is folded into the small
    factors, so no weighted copy of the (N, P) Psi2 rows is made (module
    docstring).

    ``dgram``, when given, is the gradient with respect to the side's
    unit-signal inducing gram (or a (G, M, M) stack, summed), whose (z,
    alpha) part is added: the gram is ``exp(2 c)`` over the pairs, so its
    cotangent joins the pair constant's.
    """
    side, mu, s = cache.side, cache.mu, cache.s
    pairs, (n, q), m = side.pairs, mu.shape, len(side.gram)
    flat = np.reshape(dpsi2, (-1, m * m))
    groups = flat.shape[0]
    if dgram is not None:
        flat = np.concatenate((flat, np.reshape(dgram, (-1, flat.shape[1]))))
    dpair = (flat[:, pairs.flat_ab] + flat[:, pairs.flat_ba]) * pairs.diag_half     # (G [+ gram], P)

    # per row and channel, with t1 = dPsi1 * Psi1 over inducing inputs and
    # t2 = dpair * Psi2 over pairs (never built: dpair is folded into the
    # small factor), [sum t z | sum t z^2 | . | sum t] (zbar_ab for z in
    # Psi2) is the cotangent of the left factor [c v mu | -c v / 2 | . | -r]
    t1 = dpsi1 * cache.psi1                                         # (N, M)
    by_rows = (_by_group(t1, side.rhs1, groups),
               _by_group(cache.psi2_rows, dpair[:groups, :, None] * side.rhs, groups))
    parts = []
    for c, (d, v, _), by_row in zip((1.0, 2.0), cache.channels, by_rows):
        t_z, t_sum = by_row[:, :q], by_row[:, 2 * q + 1:]
        lean = mu * t_sum - t_z                                     # sum t (mu - z)
        sq = mu * (lean - t_z) + by_row[:, q:2 * q]                 # sum t (mu - z)^2
        cv = -c * v
        # d/dmu, d/ds and, summed over rows, -d/dalpha * (2 / c) of the channel
        parts.append((cv * lean, (0.5 * cv) * (cv * sq + t_sum), ((sq / d + t_sum * s) / d).sum(axis=0)))
    (gmu1, gs1, sum1), (gmu2, gs2, sum2) = parts
    # per pair, sum_n t2 [2 w mu | -w | 1 | .]; Psi1's columns are the pairs
    # (a, a), with sum_n t1 [v mu | -v/2 | 0 | .]
    by_pair = _cross_by_group(cache.psi2_rows, cache.channels[1][2], groups)
    if groups == 1:     # the same products; the einsum below sums one term
        by_pair = dpair[0][:, None] * by_pair[0]
    else:
        by_pair = np.einsum("gp,gpk->pk", dpair[:groups], by_pair)
    by_pair[pairs.diag] += _cross_by_group(t1, cache.channels[0][2], groups).sum(axis=0)
    pair = by_pair[:, 2 * q]                                        # sum_n t2
    if dgram is not None:
        pair += side.gram2 * dpair[groups:].sum(axis=0)             # d gram / d c = 2 gram
    galpha = -0.5 * sum1 - (0.25 * (pair @ side.dz2) + sum2)
    # pair (a, b) gives a and b each half of 2 sum_n t2 w (mu - zbar_ab), and
    # -/+ half of alpha pair (z_a - z_b)
    spread = np.empty((2 * len(pair), q))
    toward = np.multiply(by_pair[:, q:2 * q], side.zbar2, out=spread[: len(pair)])
    toward += by_pair[:, :q]
    np.multiply(side.alpha * pair[:, None], side.dz, out=spread[len(pair):])
    gz = pairs.spread @ spread
    return PsiGradients(dmu=gmu1 + gmu2, dvar=gs1 + gs2, dz=gz, dalpha=galpha)
