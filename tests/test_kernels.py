"""ARD kernel, closed-form psi statistics, their Monte-Carlo oracle and gradients."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gplvmf import ArdKernel, LatentPoints, kernel_matrix, mc_psi_oracle, psi_statistics
from gplvmf.kernels import _InducingSide, _PsiCache, psi1_factor, psi_backward
from conftest import max_rel_error


def random_setup(seed, n=3, m=4, q=2):
    rng = np.random.default_rng(seed)
    kern = ArdKernel(rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.0, size=q))
    pts = LatentPoints(rng.normal(size=(n, q)), rng.uniform(0.05, 1.0, size=(n, q)))
    z = rng.normal(size=(m, q))
    return kern, pts, z


def unit_cache(kern, pts, z, groups=1):
    """The unit-signal cache of the setup's inverse length-scales and points."""
    return _PsiCache(_InducingSide(kern.inv_length_scales, z), pts.mean, pts.var, groups=groups)


class TestKernelMatrix:
    def test_zero_distance_gives_signal_variance(self):
        kern = ArdKernel(2.5, np.array([1.0, 3.0]))
        k = kernel_matrix(kern, [[0.4, -0.2]], [[0.4, -0.2]])
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(2.5)

    def test_alpha_zero_limit(self):
        kern = ArdKernel(1.7, np.zeros(3))
        rng = np.random.default_rng(0)
        k = kernel_matrix(kern, rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
        assert np.allclose(k, 1.7)

    def test_hand_evaluation(self):
        # sigma2=1, alpha=[2], points 0 and 1: exp(-0.5*2*1) = exp(-1)
        kern = ArdKernel(1.0, np.array([2.0]))
        k = kernel_matrix(kern, [[0.0]], [[1.0]])
        assert k[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_exchange_symmetry(self):
        kern, pts, z = random_setup(1)
        kab = kernel_matrix(kern, pts.mean, z)
        kba = kernel_matrix(kern, z, pts.mean)
        assert np.allclose(kab, kba.T)

    def test_row_blocks_equal_the_broadcast_form_bit_for_bit(self):
        from gplvmf.reference import _KERNEL_ROWS

        rng = np.random.default_rng(3)
        kern = ArdKernel(1.3, rng.uniform(0.1, 2.0, size=6))
        a, b = rng.normal(size=(2 * _KERNEL_ROWS + 17, 6)), rng.normal(size=(90, 6))
        diff = a[:, None, :] - b[None, :, :]
        broadcast = kern.signal_variance * np.exp(-0.5 * np.einsum("q,nmq->nm", kern.inv_length_scales, diff**2))
        assert np.array_equal(kernel_matrix(kern, a, b), broadcast)

    def test_dimension_mismatch(self):
        kern = ArdKernel(1.0, np.ones(2))
        with pytest.raises(ValueError, match="dimension"):
            kernel_matrix(kern, np.zeros((2, 3)), np.zeros((2, 2)))

    def test_cholesky_after_jitter(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            kern = ArdKernel(rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0, size=3))
            a = rng.normal(size=(6, 3))
            k = kernel_matrix(kern, a, a)
            np.linalg.cholesky(k + 1e-6 * kern.signal_variance * np.eye(6))

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 2))
        alpha = np.array([0.5, 1.0])
        base = kernel_matrix(ArdKernel(1.0, alpha), a, a)
        for q in range(2):
            bumped = alpha.copy()
            bumped[q] += 0.5
            k2 = kernel_matrix(ArdKernel(1.0, bumped), a, a)
            off = ~np.eye(5, dtype=bool)
            assert np.all(k2[off] <= base[off] + 1e-15)
            differs = np.abs(a[:, None, q] - a[None, :, q]) > 1e-12
            assert np.all(k2[off & differs] < base[off & differs])


class TestPsiStatistics:
    def test_zero_variance_collapses_to_kernel_matrices(self):
        kern, pts, z = random_setup(2)
        pts0 = LatentPoints(pts.mean, np.zeros_like(pts.var))
        stats = psi_statistics(kern, pts0, z)
        k_nm = kernel_matrix(kern, pts.mean, z)
        assert np.allclose(stats.psi1, k_nm)
        assert np.allclose(stats.psi2, k_nm.T @ k_nm)

    def test_psi0_is_count_times_signal_variance(self):
        kern, pts, z = random_setup(3)
        stats = psi_statistics(kern, pts, z)
        assert stats.psi0 == pytest.approx(pts.count * kern.signal_variance)

    def test_single_point_against_monte_carlo(self):
        # mu=0, s=1, sigma2=1, alpha=1, Z=0: E exp(-x^2/2), x ~ N(0,1)
        kern = ArdKernel(1.0, np.array([1.0]))
        pts = LatentPoints([[0.0]], [[1.0]])
        stats = psi_statistics(kern, pts, [[0.0]])
        est = mc_psi_oracle(kern, pts, [[0.0]], samples=1_000_000, seed=0)
        assert abs(stats.psi1[0, 0] - est.stats.psi1[0, 0]) < 3 * est.psi1_se[0, 0]
        # exact value is (1 + 1)^(-1/2)
        assert stats.psi1[0, 0] == pytest.approx(2**-0.5, abs=1e-12)

    def test_closed_form_matches_oracle(self):
        for seed in range(5):
            kern, pts, z = random_setup(seed + 10)
            stats = psi_statistics(kern, pts, z)
            est = mc_psi_oracle(kern, pts, z, samples=200_000, seed=seed)
            dev1 = np.abs(stats.psi1 - est.stats.psi1) / (est.psi1_se + 1e-12)
            dev2 = np.abs(stats.psi2 - est.stats.psi2) / (est.psi2_se + 1e-12)
            assert dev1.max() < 4.0
            assert dev2.max() < 4.0

    def test_zero_signal_variance_gives_zero_statistics_silently(self):
        kern, pts, z = random_setup(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = psi_statistics(ArdKernel(0.0, kern.inv_length_scales), pts, z)
        assert not np.any(stats.psi1) and not np.any(stats.psi2)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LatentPoints([[0.0]], [[-0.1]])

    def test_dimension_mismatch_rejected(self):
        kern, pts, z = random_setup(9)
        with pytest.raises(ValueError, match="dimension Q"):
            psi_statistics(kern, pts, z[:, :1])
        with pytest.raises(ValueError, match="dimension Q"):
            psi_statistics(kern, LatentPoints(pts.mean[:, :1], pts.var[:, :1]), z)


class TestMcOracle:
    def test_zero_variance_exact_for_any_sample_count(self):
        kern, pts, z = random_setup(4)
        pts0 = LatentPoints(pts.mean, np.zeros_like(pts.var))
        k_nm = kernel_matrix(kern, pts.mean, z)
        for samples in (1, 10):
            est = mc_psi_oracle(kern, pts0, z, samples=samples, seed=1)
            assert np.allclose(est.stats.psi1, k_nm)
            assert np.allclose(est.stats.psi2, k_nm.T @ k_nm)
            # degenerate posterior: only rounding noise in the error bars
            assert np.all(est.psi1_se < 1e-6)

    def test_error_bars_shrink(self):
        kern, pts, z = random_setup(5)
        small = mc_psi_oracle(kern, pts, z, samples=2_000, seed=2)
        large = mc_psi_oracle(kern, pts, z, samples=200_000, seed=3)
        assert large.psi1_se.max() < small.psi1_se.max()
        # consistent estimates: difference within joint error bars
        joint = 5 * np.sqrt(small.psi1_se**2 + large.psi1_se**2)
        assert np.all(np.abs(small.stats.psi1 - large.stats.psi1) < joint)

    def test_sample_count_validated(self):
        kern, pts, z = random_setup(6)
        with pytest.raises(ValueError, match="sample"):
            mc_psi_oracle(kern, pts, z, samples=0, seed=0)


def edge_setup(case, seed):
    """Psi inputs at the edge shapes training meets."""
    if case == "single_row":
        return random_setup(seed, n=1, m=3, q=2)
    if case == "one_inducing":
        return random_setup(seed, n=3, m=1, q=2)
    if case == "two_inducing":
        return random_setup(seed, n=3, m=2, q=2)
    if case == "more_inducing_than_rows":
        return random_setup(seed, n=2, m=5, q=2)
    if case == "coinciding_inducing":
        kern, pts, z = random_setup(seed, n=3, m=4, q=2)
        z[3] = z[1]
        return kern, pts, z
    if case == "fixed_column":
        kern, pts, z = random_setup(seed, n=3, m=4, q=6)
        mask = np.zeros(6, dtype=bool)
        mask[-1] = True
        var = pts.var.copy()
        var[:, mask] = 0.0
        return kern, LatentPoints(pts.mean, var), z
    raise ValueError(case)


EDGE_CASES = ["single_row", "one_inducing", "two_inducing", "more_inducing_than_rows", "coinciding_inducing",
              "fixed_column"]


def random_probe(rng, n, m):
    """Cotangents (R1, R2) of the scalar probe <R1, Psi1> + <R2, Psi2>."""
    r1 = rng.normal(size=(n, m))
    r2 = rng.normal(size=(m, m))
    return r1, 0.5 * (r2 + r2.T)


def loop_reference(kern, pts, z, r1, r2):
    """Psi1 and Psi2 at the kernel's signal variance and the probe's gradients
    at unit signal, one (row, a) or (row, a, b) entry at a time in the
    difference form of the closed-form statistics."""
    alpha, sigma2 = kern.inv_length_scales, kern.signal_variance
    n, m = pts.count, z.shape[0]
    psi1, psi2 = np.zeros((n, m)), np.zeros((m, m))
    gmu, gvar = np.zeros(pts.mean.shape), np.zeros(pts.mean.shape)
    gz, galpha = np.zeros(z.shape), np.zeros(alpha.shape)
    for i in range(n):
        mu, s = pts.mean[i], pts.var[i]
        d1, d2 = 1.0 + alpha * s, 1.0 + 2.0 * alpha * s
        for a in range(m):
            e = mu - z[a]
            k1 = np.prod(d1**-0.5 * np.exp(-0.5 * alpha * e**2 / d1))
            psi1[i, a] = sigma2 * k1
            t = r1[i, a] * k1
            gmu[i] -= t * alpha * e / d1
            gvar[i] += t * (0.5 * alpha**2 * e**2 / d1**2 - 0.5 * alpha / d1)
            gz[a] += t * alpha * e / d1
            galpha -= t * 0.5 * (e**2 / d1**2 + s / d1)
            for b in range(m):
                dz, e2 = z[a] - z[b], mu - 0.5 * (z[a] + z[b])
                k2 = np.prod(d2**-0.5 * np.exp(-0.25 * alpha * dz**2 - alpha * e2**2 / d2))
                psi2[a, b] += sigma2**2 * k2
                t = r2[a, b] * k2
                gmu[i] -= t * 2.0 * alpha * e2 / d2
                gvar[i] += t * (2.0 * alpha**2 * e2**2 / d2**2 - alpha / d2)
                gz[a] += t * (-0.5 * alpha * dz + alpha * e2 / d2)
                gz[b] += t * (0.5 * alpha * dz + alpha * e2 / d2)
                galpha -= t * (0.25 * dz**2 + e2**2 / d2**2 + s / d2)
    return [psi1, psi2, gmu, gvar, gz, galpha]


def closed_form(kern, pts, z, r1, r2):
    """The same six outputs from psi_statistics and psi_backward."""
    stats = psi_statistics(kern, pts, z)
    g = psi_backward(unit_cache(kern, pts, z), r1, r2)
    return [stats.psi1, stats.psi2, g.dmu, g.dvar, g.dz, g.dalpha]


def error_to_largest(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


class TestPsiGradients:
    @staticmethod
    def check_finite_differences(kern, pts, z, rng):
        # scalar probe T = <R1, Psi1> + <R2, Psi2> at unit signal, FD in every input
        q = pts.dim
        r1, r2 = random_probe(rng, pts.count, z.shape[0])

        def probe(mu, var, zz, log_alpha):
            st = psi_statistics(ArdKernel(1.0, np.exp(log_alpha)), LatentPoints(mu, var), zz)
            return np.sum(r1 * st.psi1) + np.sum(r2 * st.psi2)

        grads = psi_backward(unit_cache(kern, pts, z), r1, r2)

        eps = 1e-6
        la0 = np.log(kern.inv_length_scales)

        def fd(setter, one_sided=False):
            def h(e):
                args = setter(e)
                return probe(*args)
            if one_sided:
                return (h(eps) - h(0.0)) / eps
            return (h(eps) - h(-eps)) / (2 * eps)

        for i in range(pts.count):
            for j in range(pts.dim):
                dmu = fd(lambda e, i=i, j=j: (
                    pts.mean + e * np.eye(pts.count)[i][:, None] * np.eye(pts.dim)[j][None, :],
                    pts.var, z, la0))
                assert max_rel_error(grads.dmu[i, j], dmu) < 1e-4
                # a zero-variance coordinate can only be perturbed upwards
                dvar = fd(lambda e, i=i, j=j: (
                    pts.mean,
                    pts.var + e * np.eye(pts.count)[i][:, None] * np.eye(pts.dim)[j][None, :],
                    z, la0), one_sided=pts.var[i, j] == 0.0)
                assert max_rel_error(grads.dvar[i, j], dvar) < 1e-4
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                dz = fd(lambda e, i=i, j=j: (
                    pts.mean, pts.var,
                    z + e * np.eye(z.shape[0])[i][:, None] * np.eye(z.shape[1])[j][None, :],
                    la0))
                assert max_rel_error(grads.dz[i, j], dz) < 1e-4
        for j in range(q):
            dla = fd(lambda e, j=j: (pts.mean, pts.var, z, la0 + e * np.eye(q)[j]))
            analytic = grads.dalpha[j] * kern.inv_length_scales[j]
            assert max_rel_error(analytic, dla) < 1e-4

    def test_backward_matches_finite_differences(self):
        for seed in range(4):
            kern, pts, z = random_setup(seed + 30, n=3, m=3, q=2)
            self.check_finite_differences(kern, pts, z, np.random.default_rng(seed + 20))

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_backward_matches_finite_differences_at_edge_shapes(self, case):
        for seed in range(2):
            kern, pts, z = edge_setup(case, seed + 40)
            self.check_finite_differences(kern, pts, z, np.random.default_rng(seed + 50))

    @pytest.mark.parametrize("case", ["random", *EDGE_CASES])
    def test_matches_loop_reference(self, case):
        kern, pts, z = random_setup(60, n=4, m=5, q=3) if case == "random" else edge_setup(case, 61)
        probe = random_probe(np.random.default_rng(62), pts.count, z.shape[0])
        expected = loop_reference(kern, pts, z, *probe)
        for got, ref in zip(closed_form(kern, pts, z, *probe), expected):
            assert error_to_largest(got, ref) < 1e-12

    def test_invariant_to_translating_points_and_inducing_inputs(self):
        # Psi1 and Psi2 depend on mu - z only; the expanded Psi2 exponent must
        # not lose that far from the origin
        kern, pts, z = random_setup(70, n=20, m=8, q=6)
        probe = random_probe(np.random.default_rng(71), pts.count, z.shape[0])
        shifted = LatentPoints(pts.mean + 100.0, pts.var)
        for got, ref in zip(closed_form(kern, shifted, z + 100.0, *probe), closed_form(kern, pts, z, *probe)):
            assert error_to_largest(got, ref) < 1e-12

    def test_peak_memory_below_one_four_dimensional_tensor(self):
        # forward and backward at the heavy-user shape must not build an
        # (N, M, M, Q) float64 array (21.6 MB here)
        n, m, q = 500, 30, 6
        kern, pts, z = random_setup(80, n=n, m=m, q=q)
        r1, r2 = random_probe(np.random.default_rng(81), n, m)
        tracemalloc.start()
        try:
            psi_backward(unit_cache(kern, pts, z), r1, r2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * m * q * 8

    def test_peak_memory_within_the_packed_rows(self):
        # the packed Psi2 rows are (N, P), P = M(M+1)/2; forward and backward
        # hold them and one weighted copy, not the parent layout's (N, M, M)
        n, m, q = 500, 30, 6
        kern, pts, z = random_setup(82, n=n, m=m, q=q)
        r1, r2 = random_probe(np.random.default_rng(83), n, m)
        tracemalloc.start()
        try:
            psi_backward(unit_cache(kern, pts, z), r1, r2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * (m * (m + 1) // 2) * 8

    def test_peak_memory_below_two_packed_row_arrays(self):
        # the backward pass folds dPsi2 into the small factors instead of
        # weighting a copy of the (N, P) Psi2 rows
        n, m, q = 500, 30, 6
        kern, pts, z = random_setup(84, n=n, m=m, q=q)
        r1, r2 = random_probe(np.random.default_rng(85), n, m)
        tracemalloc.start()
        try:
            psi_backward(unit_cache(kern, pts, z), r1, r2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * (m * (m + 1) // 2) * 8

    @pytest.mark.parametrize("rows_per_group", [1, 4])
    def test_stacked_cotangents_match_one_call_per_group(self, rows_per_group):
        # G consecutive row groups, each with its own dPsi2 against its own
        # summed Psi2, give the G one-group calls' row gradients and the sum
        # of their shared ones
        groups, m, q = 5, 6, 3
        n = groups * rows_per_group
        kern, pts, z = random_setup(100 + rows_per_group, n=n, m=m, q=q)
        rng = np.random.default_rng(101)
        r1, r2 = rng.normal(size=(n, m)), rng.normal(size=(groups, m, m))
        stacked = psi_backward(unit_cache(kern, pts, z), r1, r2)
        parts = []
        for g in range(groups):
            sl = slice(g * rows_per_group, (g + 1) * rows_per_group)
            cache = unit_cache(kern, LatentPoints(pts.mean[sl], pts.var[sl]), z)
            parts.append(psi_backward(cache, r1[sl], r2[g]))
        expected = [
            np.concatenate([part.dmu for part in parts]),
            np.concatenate([part.dvar for part in parts]),
            sum(part.dz for part in parts),
            sum(part.dalpha for part in parts),
        ]
        got = [stacked.dmu, stacked.dvar, stacked.dz, stacked.dalpha]
        for value, reference in zip(got, expected):
            assert error_to_largest(value, reference) < 1e-12

    @pytest.mark.parametrize("groups", [1, 2, 5])
    def test_group_rows_equal_a_cache_of_their_own(self, groups):
        # every product over rows is taken per group, so each group's Psi1
        # and Psi2 rows and row gradients are those of a one-group cache, bit
        # for bit; at (100, 20, 6) five groups in one product would also
        # cross OpenBLAS's threading size
        per_group, m, q = 100, 20, 6
        n = groups * per_group
        kern, pts, z = random_setup(102 + groups, n=n, m=m, q=q)
        rng = np.random.default_rng(103)
        r1, r2 = rng.normal(size=(n, m)), rng.normal(size=(groups, m, m))
        cache = unit_cache(kern, pts, z, groups=groups)
        grads = psi_backward(cache, r1, r2)
        for g in range(groups):
            sl = slice(g * per_group, (g + 1) * per_group)
            one = unit_cache(kern, LatentPoints(pts.mean[sl], pts.var[sl]), z)
            one_grads = psi_backward(one, r1[sl], r2[g])
            assert np.array_equal(cache.psi1[sl], one.psi1)
            assert np.array_equal(cache.psi2_rows[sl], one.psi2_rows)
            assert np.array_equal(cache.psi2_sums()[g], one.psi2_sums()[0])
            assert np.array_equal(grads.dmu[sl], one_grads.dmu)
            assert np.array_equal(grads.dvar[sl], one_grads.dvar)

    @pytest.mark.parametrize("shift", [0.0, 100.0])
    def test_psi1_rows_match_the_cache(self, shift):
        # a row of Psi1 is the product of psi1_factor over any split of the coordinates
        kern, pts, z = random_setup(92, n=20, m=8, q=6)
        expected = unit_cache(kern, pts, z).psi1
        alpha, mu, s, z = kern.inv_length_scales, pts.mean + shift, pts.var, z + shift
        for bounds in ((0, 6), (0, 2, 3, 6), (0, 1, 2, 3, 4, 5, 6)):
            got = np.ones_like(expected)
            for sl in (slice(a, b) for a, b in zip(bounds, bounds[1:])):
                got *= psi1_factor(alpha[sl], mu[:, sl], s[:, sl], z[:, sl])
            assert error_to_largest(got, expected) < 1e-12

    @pytest.mark.parametrize("n, m, q", [(7, 6, 3), (40, 30, 12), (3, 9, 25)])
    def test_psi1_rows_do_not_depend_on_the_batch(self, n, m, q):
        kern, pts, z = random_setup(93, n=n, m=m, q=q)
        alpha = kern.inv_length_scales
        batch = psi1_factor(alpha, pts.mean, pts.var, z)
        for i in range(n):
            assert np.array_equal(batch[i], psi1_factor(alpha, pts.mean[i:i + 1], pts.var[i:i + 1], z)[0])

    @pytest.mark.parametrize("n, m, q", [(7, 6, 3), (600, 8, 6), (40, 30, 12)])
    def test_psi1_rows_do_not_depend_on_the_layout(self, n, m, q):
        # column slices of a table, and transposed copies, are not C-ordered
        kern, pts, z = random_setup(95, n=n, m=m, q=q)
        alpha = kern.inv_length_scales
        batch = psi1_factor(alpha, np.asfortranarray(pts.mean), np.asfortranarray(pts.var), np.asfortranarray(z))
        assert np.array_equal(batch, psi1_factor(alpha, pts.mean, pts.var, z))

    @pytest.mark.parametrize("first, second", [(1, 4), (0, 5), (2, 3)])
    @pytest.mark.parametrize("n", [7, 500])
    def test_duplicate_inducing_input_gives_equal_psi1_columns(self, first, second, n):
        kern, pts, z = random_setup(94, n=n, m=6, q=3)
        z[second] = z[first]
        for psi1 in (psi_statistics(kern, pts, z).psi1, psi1_factor(kern.inv_length_scales, pts.mean, pts.var, z)):
            assert np.array_equal(psi1[:, first], psi1[:, second])

    @pytest.mark.parametrize("first, second", [(1, 4), (0, 5), (2, 3)])
    def test_duplicate_inducing_input_gives_equal_rows_and_columns(self, first, second):
        # the packed layout keeps one of (a, b) and (b, a'); both must round alike
        kern, pts, z = random_setup(90, n=7, m=6, q=3)
        z[second] = z[first]
        psi2 = psi_statistics(kern, pts, z).psi2
        assert np.array_equal(psi2[first], psi2[second])
        assert np.array_equal(psi2[:, first], psi2[:, second])
