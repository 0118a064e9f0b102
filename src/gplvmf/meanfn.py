"""Bias mean function over latent bias variables and its expectations.

Each rating row gets a mean

    m_t = b_user + sum_q item_bias[l_t, q]
        + sum_d sum_q context_bias_d[c_dt, q]
        + sum_d weight_d * value_dt          (real-valued contexts)

where ``b_user`` (``user_bias``) and the real-context weights
(``real_weights``) are point parameters and every other term reads a bias
table: a diagonal-Gaussian latent table under the same standard-normal prior
as the kernel latents, listed in :attr:`gplvmf.state.KernelLayout.tables`
with an empty kernel slice.  :func:`phi_statistics` reads those tables from
the rows' :meth:`~gplvmf.state.VariationalState.row_entries`, as
:meth:`~gplvmf.state.VariationalState.assemble_rows` reads the kernel
tables, and serves the bound's chunks and the predictor's query rows alike.

Because the mean is linear in the latents, its first moment phi1 is the mean
evaluated at the variational means, and the second moment phi0 adds the
summed variances row-wise: phi0 = sum_t (phi1_t^2 + Var[m_t]).  phi0 has no
cross-row terms, so rows sharing an entity need no special handling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import UserBlock
from .state import VariationalState


class PhiStats(NamedTuple):
    """First moment of the mean per row and ``row_var``, Var[m_t] per row."""

    phi1: np.ndarray
    row_var: np.ndarray

    @property
    def phi0(self) -> float:
        """<m^T m> = sum(phi1^2) + sum(row_var)."""
        return float(np.sum(self.phi1**2) + np.sum(self.row_var))


def phi_statistics(state: VariationalState, rows: UserBlock, entries=None) -> PhiStats:
    """phi1 = <m> and the row variances under the variational posterior, for
    rows whose ``user`` is one user or one per row, from their
    :meth:`~gplvmf.state.VariationalState.row_entries`; zero without a mean
    function."""
    if not state.dims.use_mean:
        return PhiStats(phi1=np.zeros(rows.count), row_var=np.zeros(rows.count))
    p = state.params
    entries = state.row_entries(rows) if entries is None else entries
    layout = state.layout
    means, variances = entries[:, layout.bias_means], entries[:, layout.bias_vars]
    phi1 = np.full(rows.count, p["user_bias"][rows.user], dtype=float)
    row_var = np.zeros(rows.count)
    for sl in layout.bias_columns:
        for acc, part in ((phi1, means[:, sl]), (row_var, variances[:, sl])):
            acc += part[:, 0] if part.shape[1] == 1 else part.sum(axis=1)
    if rows.real_values.shape[1]:
        phi1 += np.einsum("qd,d->q", rows.real_values, p["real_weights"])
    return PhiStats(phi1=phi1, row_var=row_var)


class PhiGradients(NamedTuple):
    """Gradients of a scalar objective through phi1/phi0, per rating row.

    Row t reads ``user_bias`` of its user and one entry of every bias table.
    Each of these, per mean coordinate, receives ``mean_rows[t]``; each bias
    variance receives the given ``dphi0`` once per reading row, i.e. its
    log-variance receives ``dphi0 * variance``.  :func:`gplvmf.bound._scatter`
    lays these out for the tables as it does the kernel row gradients.
    """

    real_weights: np.ndarray
    mean_rows: np.ndarray


def phi_backward(rows: UserBlock, dphi1: np.ndarray, dphi0, phi1: np.ndarray) -> PhiGradients:
    """Backward pass of :func:`phi_statistics` for cotangents ``dphi1`` (per
    row) and ``dphi0`` (one value, or one per row) at its ``phi1``."""
    g = dphi1 + 2.0 * dphi0 * phi1                                    # (N,)
    return PhiGradients(real_weights=rows.real_values.T @ g, mean_rows=g)
