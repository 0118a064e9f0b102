"""Output checks made apart from the program: closed forms written out here,
finite differences, and properties the method must have.

Every check returns ``(ok, detail)`` and takes the program's output as an
argument, so the benchmark's tests can hand it a perturbed output and see
it fail.
"""

from __future__ import annotations

import numpy as np


def psi_reference(mu, var, z, alpha, sigma2):
    """Psi1 (N, M) and summed Psi2 (M, M) of the ARD kernel under diagonal
    Gaussian rows, one entry at a time from the 1-D Gaussian integrals."""
    n = mu.shape[0]
    m = z.shape[0]
    psi1 = np.empty((n, m))
    psi2 = np.zeros((m, m))
    for i in range(n):
        for a in range(m):
            d1 = 1.0 + alpha * var[i]
            psi1[i, a] = sigma2 * np.prod(d1**-0.5 * np.exp(-0.5 * alpha * (mu[i] - z[a]) ** 2 / d1))
            for b in range(m):
                d2 = 1.0 + 2.0 * alpha * var[i]
                zbar = 0.5 * (z[a] + z[b])
                psi2[a, b] += sigma2**2 * np.prod(
                    d2**-0.5
                    * np.exp(-0.25 * alpha * (z[a] - z[b]) ** 2 - alpha * (mu[i] - zbar) ** 2 / d2)
                )
    return psi1, psi2


def check_psi(psi1, psi2, mu, var, z, alpha, sigma2, rtol=1e-10):
    ref1, ref2 = psi_reference(mu, var, z, alpha, sigma2)
    err1 = np.max(np.abs(psi1 - ref1)) / max(np.max(np.abs(ref1)), 1e-300)
    err2 = np.max(np.abs(psi2 - ref2)) / max(np.max(np.abs(ref2)), 1e-300)
    return bool(err1 <= rtol and err2 <= rtol), f"psi1 rel err {err1:.2e}, psi2 rel err {err2:.2e}"


def check_directional_derivative(value_at, grad, x, direction, step=1e-3, rtol=1e-4):
    """``grad . direction`` against the central difference of ``value_at``."""
    analytic = float(grad @ direction)
    numeric = (value_at(x + step * direction) - value_at(x - step * direction)) / (2.0 * step)
    err = abs(analytic - numeric) / max(1.0, abs(numeric))
    return bool(err <= rtol), f"analytic {analytic:.10g}, central difference {numeric:.10g}, rel err {err:.2e}"


def check_identical(name, expected, actual):
    """Exact equality, element by element (the same arithmetic on the same inputs)."""
    expected, actual = np.asarray(expected), np.asarray(actual)
    if expected.shape != actual.shape:
        return False, f"{name}: shape {actual.shape} != {expected.shape}"
    differ = np.flatnonzero(~((expected == actual) | (np.isnan(expected) & np.isnan(actual))))
    if differ.size:
        i = differ[0]
        return False, f"{name}: {differ.size} entries differ, first at {i}: {actual.flat[i]!r} != {expected.flat[i]!r}"
    return True, f"{name}: {expected.size} entries identical"


def check_variance_range(variances, sigma2, noise=None, rtol=1e-12):
    """Predictive variances are finite and lie in [0, sigma2] (+ 1/beta when
    the noise is included); ``sigma2`` and ``noise`` are per query."""
    variances = np.asarray(variances, dtype=float)
    upper = np.asarray(sigma2, dtype=float) + (0.0 if noise is None else np.asarray(noise, dtype=float))
    bad = ~np.isfinite(variances) | (variances < 0.0) | (variances > upper * (1.0 + rtol))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return False, f"{int(bad.sum())} variances out of range, first {variances[i]!r} not in [0, {upper[i]!r}]"
    return True, f"{variances.size} variances in range"


def check_scg_monotone(f0, history):
    """``history`` is ``(f, accepted)`` per iteration of a minimization from
    ``f0``; no accepted step may increase the objective."""
    prev = f0
    for k, (f, accepted) in enumerate(history, start=1):
        if accepted:
            if not f <= prev:
                return False, f"iteration {k} accepted {f!r} after {prev!r}"
            prev = f
    return True, f"{sum(a for _, a in history)} of {len(history)} steps accepted, objective {f0:.6g} -> {prev:.6g}"


def per_user_mean_rmse(train_users, train_ratings, test_users, test_ratings):
    """RMSE of predicting each held-out rating by its user's training mean."""
    means = {u: train_ratings[train_users == u].mean() for u in np.unique(train_users)}
    pred = np.array([means[u] for u in test_users])
    return float(np.sqrt(np.mean((pred - test_ratings) ** 2)))


def check_beats_baseline(rmse, baseline):
    return bool(rmse < baseline), f"held-out RMSE {rmse:.4f} vs per-user-mean baseline {baseline:.4f}"
