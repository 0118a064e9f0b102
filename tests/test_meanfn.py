"""Bias mean function and its first/second-moment statistics."""

import numpy as np
import pytest

from gplvmf import BiasLatents, mc_phi_oracle, mean_vector, phi_statistics
from gplvmf.meanfn import phi_backward
from conftest import build_table, max_rel_error
from gplvmf import ContextSchema, ContextVariable, group_by_user


def make_bias(rng, n_users, n_items, cat_cards, n_real=0, item_dim=1, ctx_dim=1,
              zero_means=False, zero_vars=False):
    def table(rows, dim):
        mean = np.zeros((rows + 1, dim)) if zero_means else rng.normal(0, 0.7, size=(rows + 1, dim))
        log_var = np.full((rows + 1, dim), -60.0) if zero_vars else rng.normal(-1.0, 0.5, size=(rows + 1, dim))
        return mean, log_var

    item_mean, item_log_var = table(n_items, item_dim)
    ctx_mean, ctx_log_var = [], []
    for card in cat_cards:
        m, v = table(card, ctx_dim)
        ctx_mean.append(m)
        ctx_log_var.append(v)
    return BiasLatents(
        user_bias=rng.normal(0, 1, size=n_users),
        item_mean=item_mean,
        item_log_var=item_log_var,
        context_mean=ctx_mean,
        context_log_var=ctx_log_var,
        real_weights=rng.normal(0, 0.5, size=n_real),
    )


def one_block(seed, n_rows=6, n_items=4, cat_cards=(3,), n_real=1, repeat_item=False):
    rng = np.random.default_rng(seed)
    contexts = [ContextVariable(f"c{i}", "categorical", c) for i, c in enumerate(cat_cards)]
    contexts += [ContextVariable(f"r{i}", "real") for i in range(n_real)]
    schema = ContextSchema(1, n_items, tuple(contexts))
    items = rng.integers(0, n_items, size=n_rows)
    if repeat_item:
        items[1] = items[0]
    table = build_table(
        schema,
        users=np.zeros(n_rows),
        items=items,
        cat=np.column_stack([rng.integers(0, c, size=n_rows) for c in cat_cards]) if cat_cards else None,
        real=rng.normal(size=(n_rows, n_real)) if n_real else None,
        ratings=rng.normal(3, 1, size=n_rows),
    )
    return group_by_user(table)[0], rng


class TestMeanVector:
    def test_all_zero_biases_give_constant(self):
        block, rng = one_block(0, n_real=0)
        bias = make_bias(rng, 1, 4, (3,), zero_means=True)
        bias.user_bias[0] = 2.5
        assert np.allclose(mean_vector(bias, block), 2.5)

    def test_hand_sum(self):
        block, rng = one_block(1, n_rows=1, n_items=1, cat_cards=(1,), n_real=0)
        bias = make_bias(rng, 1, 1, (1,), zero_means=True)
        bias.user_bias[0] = 1.0
        bias.item_mean[0, 0] = 0.5
        bias.context_mean[0][0, 0] = -0.25
        assert mean_vector(bias, block)[0] == pytest.approx(1.25)

    def test_brute_force_sum(self):
        # independent term-by-term re-summation over every row
        block, rng = one_block(2, n_rows=8, n_items=5, cat_cards=(3, 2), n_real=2)
        bias = make_bias(rng, 1, 5, (3, 2), n_real=2)
        got = mean_vector(bias, block)
        for t in range(block.count):
            expected = bias.user_bias[block.user]
            expected += sum(bias.item_mean[block.items[t]])
            for j in range(2):
                expected += sum(bias.context_mean[j][block.cat_values[t, j]])
            for r in range(2):
                expected += bias.real_weights[r] * block.real_values[t, r]
            assert got[t] == pytest.approx(expected, rel=1e-12)

    def test_linearity(self):
        block, rng = one_block(3)
        b1 = make_bias(rng, 1, 4, (3,), n_real=1)
        b2 = make_bias(rng, 1, 4, (3,), n_real=1)
        summed = BiasLatents(
            user_bias=b1.user_bias + b2.user_bias,
            item_mean=b1.item_mean + b2.item_mean,
            item_log_var=b1.item_log_var,
            context_mean=[a + b for a, b in zip(b1.context_mean, b2.context_mean)],
            context_log_var=b1.context_log_var,
            real_weights=b1.real_weights + b2.real_weights,
        )
        lhs = phi_statistics(summed, block).phi1
        rhs = phi_statistics(b1, block).phi1 + phi_statistics(b2, block).phi1
        assert np.allclose(lhs, rhs)


class TestPhiStatistics:
    def test_zero_variance_second_moment(self):
        block, rng = one_block(4)
        bias = make_bias(rng, 1, 4, (3,), n_real=1, zero_vars=True)
        phi = phi_statistics(bias, block)
        assert phi.phi0 == pytest.approx(np.sum(phi.phi1**2), rel=1e-9)

    def test_unit_variance_single_coordinate(self):
        # one row, one bias coordinate with mean 0 variance 1: phi1=0, phi0=1
        block, rng = one_block(5, n_rows=1, n_items=1, cat_cards=(), n_real=0)
        bias = make_bias(rng, 1, 1, (), zero_means=True)
        bias.item_log_var[:] = -60.0
        bias.item_log_var[0, 0] = 0.0
        bias.user_bias[0] = 0.0
        phi = phi_statistics(bias, block)
        assert phi.phi1[0] == pytest.approx(0.0)
        assert phi.phi0 == pytest.approx(1.0, abs=1e-12)

    def test_phi0_dominates_squared_phi1(self):
        for seed in range(5):
            block, rng = one_block(seed + 10)
            bias = make_bias(rng, 1, 4, (3,), n_real=1)
            phi = phi_statistics(bias, block)
            assert phi.phi0 >= np.sum(phi.phi1**2) - 1e-12

    def test_matches_monte_carlo(self):
        for seed in range(4):
            block, rng = one_block(seed + 20, n_rows=5)
            bias = make_bias(rng, 1, 4, (3,), n_real=1)
            phi = phi_statistics(bias, block)
            est, (se1, se0) = mc_phi_oracle(bias, block, samples=150_000, seed=seed)
            assert np.all(np.abs(phi.phi1 - est.phi1) < 4 * se1 + 1e-12)
            assert abs(phi.phi0 - est.phi0) < 4 * se0 + 1e-12

    def test_repeated_entity_rows_against_monte_carlo(self):
        # two rows sharing an item: the oracle sees the correlation, the
        # closed form has no cross-row terms, and they must still agree
        block, rng = one_block(30, n_rows=6, repeat_item=True)
        assert block.items[0] == block.items[1]
        bias = make_bias(rng, 1, 4, (3,), n_real=1)
        phi = phi_statistics(bias, block)
        est, (se1, se0) = mc_phi_oracle(bias, block, samples=300_000, seed=1)
        assert np.all(np.abs(phi.phi1 - est.phi1) < 4 * se1 + 1e-12)
        assert abs(phi.phi0 - est.phi0) < 4 * se0 + 1e-12


class TestPhiGradients:
    def test_backward_matches_finite_differences(self):
        block, rng = one_block(40, n_rows=7, repeat_item=True)
        bias = make_bias(rng, 1, 4, (3,), n_real=1)
        r1 = rng.normal(size=block.count)
        r0 = rng.normal()

        def probe(b):
            phi = phi_statistics(b, block)
            return float(r1 @ phi.phi1 + r0 * phi.phi0)

        grads = phi_backward(bias, block, r1, r0)
        eps = 1e-6

        def fd_entry(mutate):
            bp = bias.copy()
            mutate(bp, eps)
            bm = bias.copy()
            mutate(bm, -eps)
            return (probe(bp) - probe(bm)) / (2 * eps)

        # each bias table: its (mean, log_var) arrays and the codes the rows read
        tables = [(lambda b: (b.item_mean, b.item_log_var), block.items)]
        tables += [(lambda b, j=j: (b.context_mean[j], b.context_log_var[j]), block.cat_values[:, j])
                   for j in range(block.cat_values.shape[1])]
        for arrays, codes in tables:
            mean, log_var = arrays(bias)
            # the oracle aggregates the row gradients onto the entries the rows read
            want_mean = np.zeros_like(mean)
            np.add.at(want_mean, codes, grads.mean_rows[:, None])
            want_log_var = grads.var * np.bincount(codes, minlength=mean.shape[0])[:, None] * np.exp(log_var)
            for k, want in ((0, want_mean), (1, want_log_var)):
                for idx in np.ndindex(mean.shape):
                    def mutate(b, e, k=k, idx=idx):
                        arrays(b)[k][idx] += e

                    got = fd_entry(mutate)
                    assert max_rel_error(want[idx], got) < 1e-4
        got = fd_entry(lambda b, e: b.user_bias.__setitem__(0, b.user_bias[0] + e))
        assert max_rel_error(grads.user_bias, got) < 1e-4
        got = fd_entry(lambda b, e: b.real_weights.__setitem__(0, b.real_weights[0] + e))
        assert max_rel_error(grads.real_weights[0], got) < 1e-4
