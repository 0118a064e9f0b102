"""Bias mean function over latent bias variables and its expectations.

Each rating row gets a mean

    m_t = b_user + sum_q item_bias[l_t, q]
        + sum_d sum_q context_bias_d[c_dt, q]
        + sum_d weight_d * value_dt          (real-valued contexts)

where the item/context bias coordinates are diagonal-Gaussian variational
latents and ``b_user`` plus the real-context weights are point parameters.
Because the mean is linear in the latents, its first moment phi1 is the mean
evaluated at the variational means, and the second moment phi0 adds the
summed variances row-wise: phi0 = sum_t (phi1_t^2 + Var[m_t]).  phi0 has no
cross-row terms, so rows sharing an entity need no special handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UserBlock


@dataclass
class BiasLatents:
    """Variational bias latents plus the point bias parameters.

    Entity tables carry one extra trailing row (the "unknown" entity) held at
    the prior so queries with unseen codes degrade gracefully.  Variances are
    stored as logs; use :meth:`item_var` / :meth:`context_var` for the raw
    values.
    """

    user_bias: np.ndarray                 # (N,)
    item_mean: np.ndarray                 # (L+1, Qb_item)
    item_log_var: np.ndarray
    context_mean: list                    # per categorical context: (L_d+1, Qb_ctx)
    context_log_var: list
    real_weights: np.ndarray              # (D_real,)

    def item_var(self) -> np.ndarray:
        return np.exp(self.item_log_var)

    def context_var(self, j: int) -> np.ndarray:
        return np.exp(self.context_log_var[j])

    def copy(self) -> "BiasLatents":
        return BiasLatents(
            user_bias=self.user_bias.copy(),
            item_mean=self.item_mean.copy(),
            item_log_var=self.item_log_var.copy(),
            context_mean=[a.copy() for a in self.context_mean],
            context_log_var=[a.copy() for a in self.context_log_var],
            real_weights=self.real_weights.copy(),
        )


@dataclass(frozen=True)
class PhiStats:
    """First and second moments of the mean vector for one user block;
    ``row_var`` is Var[m_t] per row, so phi0 = sum(phi1^2) + sum(row_var)."""

    phi1: np.ndarray
    phi0: float
    row_var: np.ndarray | None = None


def mean_vector(bias: BiasLatents, block: UserBlock) -> np.ndarray:
    """The mean function evaluated at the variational means, row by row."""
    out = np.full(block.count, bias.user_bias[block.user], dtype=float)
    out += bias.item_mean[block.items].sum(axis=1)
    for j in range(block.cat_values.shape[1]):
        out += bias.context_mean[j][block.cat_values[:, j]].sum(axis=1)
    out += block.real_values @ bias.real_weights
    return out


def _row_variances(bias: BiasLatents, block: UserBlock) -> np.ndarray:
    var = bias.item_var()[block.items].sum(axis=1)
    for j in range(block.cat_values.shape[1]):
        var += bias.context_var(j)[block.cat_values[:, j]].sum(axis=1)
    return var


def phi_statistics(bias: BiasLatents, block: UserBlock) -> PhiStats:
    """phi1 = <m> and phi0 = <m^T m> under the variational posterior."""
    phi1 = mean_vector(bias, block)
    row_var = _row_variances(bias, block)
    return PhiStats(phi1=phi1, phi0=float(np.sum(phi1**2) + np.sum(row_var)), row_var=row_var)


@dataclass(frozen=True)
class PhiGradients:
    """Gradients of a scalar objective through phi1/phi0, per rating row.

    Row t reads one entry of every bias table (the bias tables of
    :attr:`gplvmf.state.KernelLayout.tables`).  Each mean coordinate of such
    an entry receives ``mean_rows[t]``, and each variance receives ``var``
    (the given ``dphi0``: one value, or one per row) once per reading row,
    i.e. its log-variance receives ``var * variance``;
    :func:`gplvmf.bound._scatter` adds these into the tables as it does the
    kernel row gradients.  ``user_bias`` and ``real_weights`` are the point
    parameters' gradients.
    """

    user_bias: float
    real_weights: np.ndarray
    mean_rows: np.ndarray
    var: float | np.ndarray


def phi_backward(
    bias: BiasLatents,
    block: UserBlock,
    dphi1: np.ndarray,
    dphi0: float | np.ndarray,
    phi1: np.ndarray | None = None,
) -> PhiGradients:
    if phi1 is None:
        phi1 = mean_vector(bias, block)
    g = dphi1 + 2.0 * dphi0 * phi1                                    # (N,)
    return PhiGradients(
        user_bias=float(g.sum()), real_weights=block.real_values.T @ g, mean_rows=g, var=dphi0
    )


def mc_phi_oracle(bias: BiasLatents, block: UserBlock, samples: int, seed: int):
    """Monte-Carlo phi statistics for validation.

    Samples the *entity* biases (not per-row copies), so correlation between
    rows that share an item or context category is fully represented.
    Returns ((phi1, phi0), (phi1_se, phi0_se)).
    """
    rng = np.random.default_rng(seed)
    base = mean_vector(bias, block)

    item_sd = np.sqrt(bias.item_var())
    ctx_sd = [np.sqrt(bias.context_var(j)) for j in range(len(bias.context_mean))]

    sum1 = np.zeros(block.count)
    sumsq1 = np.zeros(block.count)
    sum0 = 0.0
    sumsq0 = 0.0
    chunk = max(1, min(samples, 20_000))
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        dev = np.einsum(
            "siq->si", rng.standard_normal((size,) + bias.item_mean.shape) * item_sd[None]
        )[:, block.items]
        for j, sd in enumerate(ctx_sd):
            dev += np.einsum(
                "siq->si", rng.standard_normal((size,) + bias.context_mean[j].shape) * sd[None]
            )[:, block.cat_values[:, j]]
        m = base[None, :] + dev
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
    return PhiStats(phi1=phi1, phi0=float(phi0)), (phi1_se, float(phi0_se))
