"""Bias mean function and its first/second-moment statistics."""

import numpy as np
import pytest

from gplvmf import ModelDims, VariationalState, mc_phi_oracle, phi_statistics
from gplvmf.data import UserBlock
from gplvmf.meanfn import phi_backward
from gplvmf.state import KernelLayout
from conftest import build_table, max_rel_error
from gplvmf import ContextSchema, ContextVariable, group_by_user


def make_state(rng, schema, bias_dim=1, zero_means=False, zero_vars=False):
    """A state with random bias tables and point parameters of the mean
    function; the kernel parameters, which it does not read, are zero."""
    dims = ModelDims(inducing_count=1, item_dim=1, context_dim=1,
                     item_bias_dim=bias_dim, context_bias_dim=bias_dim)
    layout = KernelLayout(schema, dims)
    params = {}
    for t in layout.tables:
        if t.in_kernel:
            params[t.mean], params[t.log_var] = np.zeros(t.shape), np.zeros(t.shape)
        else:
            params[t.mean] = np.zeros(t.shape) if zero_means else rng.normal(0, 0.7, size=t.shape)
            params[t.log_var] = np.full(t.shape, -60.0) if zero_vars else rng.normal(-1.0, 0.5, size=t.shape)
    params["user_bias"] = rng.normal(0, 1, size=schema.user_count)
    params["real_weights"] = rng.normal(0, 0.5, size=len(schema.real_indices))
    params.update(z=np.zeros((1, layout.dim)), log_alpha=np.zeros(layout.dim),
                  log_sigma2=np.zeros(schema.user_count), log_beta=np.zeros(schema.user_count))
    return VariationalState(schema, dims, layout, params)


def make_blocks(seed, n_users=1, n_rows=6, n_items=4, cat_cards=(3,), n_real=1, repeat_item=False):
    """Blocks of ``n_rows`` ratings per user over a fresh schema."""
    rng = np.random.default_rng(seed)
    contexts = [ContextVariable(f"c{i}", "categorical", c) for i, c in enumerate(cat_cards)]
    contexts += [ContextVariable(f"r{i}", "real") for i in range(n_real)]
    schema = ContextSchema(n_users, n_items, tuple(contexts))
    n = n_users * n_rows
    items = rng.integers(0, n_items, size=n)
    if repeat_item:
        items[1] = items[0]
    table = build_table(
        schema,
        users=np.repeat(np.arange(n_users), n_rows),
        items=items,
        cat=np.column_stack([rng.integers(0, c, size=n) for c in cat_cards]) if cat_cards else None,
        real=rng.normal(size=(n, n_real)) if n_real else None,
        ratings=rng.normal(3, 1, size=n),
    )
    return group_by_user(table), schema, rng


def one_block(seed, **kwargs):
    blocks, schema, rng = make_blocks(seed, **kwargs)
    return blocks[0], schema, rng


class TestMeanVector:
    def test_all_zero_biases_give_constant(self):
        block, schema, rng = one_block(0, n_real=0)
        state = make_state(rng, schema, zero_means=True)
        state.params["user_bias"][0] = 2.5
        assert np.allclose(phi_statistics(state, block).phi1, 2.5)

    def test_hand_sum(self):
        block, schema, rng = one_block(1, n_rows=1, n_items=1, cat_cards=(1,), n_real=0)
        state = make_state(rng, schema, zero_means=True)
        state.params["user_bias"][0] = 1.0
        state.params["bias_item_mean"][0, 0] = 0.5
        state.params["bias_ctx_mean_0"][0, 0] = -0.25
        assert phi_statistics(state, block).phi1[0] == pytest.approx(1.25)

    def test_brute_force_sum(self):
        # independent term-by-term re-summation over every row
        block, schema, rng = one_block(2, n_rows=8, n_items=5, cat_cards=(3, 2), n_real=2)
        state = make_state(rng, schema)
        p = state.params
        got = phi_statistics(state, block).phi1
        for t in range(block.count):
            expected = p["user_bias"][block.user]
            expected += sum(p["bias_item_mean"][block.items[t]])
            for j in range(2):
                expected += sum(p[f"bias_ctx_mean_{j}"][block.cat_values[t, j]])
            for r in range(2):
                expected += p["real_weights"][r] * block.real_values[t, r]
            assert got[t] == pytest.approx(expected, rel=1e-12)

    def test_linearity(self):
        # phi1 reads only means and point parameters, which add with the vectors
        block, schema, rng = one_block(3)
        s1, s2 = make_state(rng, schema), make_state(rng, schema)
        summed = s1.from_vector(s1.flat + s2.flat)
        lhs = phi_statistics(summed, block).phi1
        rhs = phi_statistics(s1, block).phi1 + phi_statistics(s2, block).phi1
        assert np.allclose(lhs, rhs)


class TestPhiStatistics:
    def test_zero_variance_second_moment(self):
        block, schema, rng = one_block(4)
        state = make_state(rng, schema, zero_vars=True)
        phi = phi_statistics(state, block)
        assert phi.phi0 == pytest.approx(np.sum(phi.phi1**2), rel=1e-9)

    def test_unit_variance_single_coordinate(self):
        # one row, one bias coordinate with mean 0 variance 1: phi1=0, phi0=1
        block, schema, rng = one_block(5, n_rows=1, n_items=1, cat_cards=(), n_real=0)
        state = make_state(rng, schema, zero_means=True)
        state.params["bias_item_log_var"][:] = -60.0
        state.params["bias_item_log_var"][0, 0] = 0.0
        state.params["user_bias"][0] = 0.0
        phi = phi_statistics(state, block)
        assert phi.phi1[0] == pytest.approx(0.0)
        assert phi.phi0 == pytest.approx(1.0, abs=1e-12)

    def test_phi0_dominates_squared_phi1(self):
        for seed in range(5):
            block, schema, rng = one_block(seed + 10)
            phi = phi_statistics(make_state(rng, schema), block)
            assert phi.phi0 >= np.sum(phi.phi1**2) - 1e-12

    def test_matches_monte_carlo(self):
        for seed in range(4):
            block, schema, rng = one_block(seed + 20, n_rows=5)
            state = make_state(rng, schema)
            phi = phi_statistics(state, block)
            (phi1, phi0), (se1, se0) = mc_phi_oracle(state, block, samples=150_000, seed=seed)
            assert np.all(np.abs(phi.phi1 - phi1) < 4 * se1 + 1e-12)
            assert abs(phi.phi0 - phi0) < 4 * se0 + 1e-12

    def test_repeated_entity_rows_against_monte_carlo(self):
        # two rows sharing an item: the oracle sees the correlation, the
        # closed form has no cross-row terms, and they must still agree
        block, schema, rng = one_block(30, n_rows=6, repeat_item=True)
        assert block.items[0] == block.items[1]
        state = make_state(rng, schema)
        phi = phi_statistics(state, block)
        (phi1, phi0), (se1, se0) = mc_phi_oracle(state, block, samples=300_000, seed=1)
        assert np.all(np.abs(phi.phi1 - phi1) < 4 * se1 + 1e-12)
        assert abs(phi.phi0 - phi0) < 4 * se0 + 1e-12

    @pytest.mark.parametrize("n_real, bias_dim", [(0, 1), (1, 2), (2, 1), (2, 0)])
    def test_chunk_rows_equal_block_and_one_row_calls(self, n_real, bias_dim, monkeypatch):
        # the bound reads a chunk of stacked blocks through its plan's flat
        # positions and the predictor single query rows; every row must come
        # out the same, bit for bit
        import gplvmf.bound as bound

        blocks, schema, rng = make_blocks(50 + n_real, n_users=4, n_rows=5, cat_cards=(3, 2), n_real=n_real)
        state = make_state(rng, schema, bias_dim=bias_dim)
        seen = []

        def spy(state, rows, bias=None):
            seen.append((rows, phi_statistics(state, rows, bias)))
            return seen[-1][1]

        monkeypatch.setattr(bound, "phi_statistics", spy)
        bound._forward(bound.Chunk(blocks, state), state, bound.shared_factors(state))
        ((stacked, chunk),) = seen
        for parts in ([phi_statistics(state, b) for b in blocks],
                      [phi_statistics(state, UserBlock(*(f[i:i + 1] for f in stacked))) for i in range(stacked.count)]):
            assert np.array_equal(chunk.phi1, np.concatenate([p.phi1 for p in parts]))
            assert np.array_equal(chunk.row_var, np.concatenate([p.row_var for p in parts]))


class TestPhiGradients:
    def test_backward_matches_finite_differences(self):
        block, schema, rng = one_block(40, n_rows=7, repeat_item=True)
        state = make_state(rng, schema)
        r1 = rng.normal(size=block.count)
        r0 = rng.normal()

        def probe(st):
            phi = phi_statistics(st, block)
            return float(r1 @ phi.phi1 + r0 * phi.phi0)

        grads = phi_backward(block, r1, r0, phi_statistics(state, block).phi1)
        eps = 1e-6

        def fd_entry(key, idx):
            plus, minus = state.copy(), state.copy()
            plus.params[key][idx] += eps
            minus.params[key][idx] -= eps
            return (probe(plus) - probe(minus)) / (2 * eps)

        for t in state.layout.tables:
            if t.in_kernel:
                continue
            codes, mean, log_var = t.codes(block), state.params[t.mean], state.params[t.log_var]
            # the oracle aggregates the row gradients onto the entries the rows read
            want_mean = np.zeros_like(mean)
            np.add.at(want_mean, codes, grads.mean_rows[:, None])
            want_log_var = r0 * np.bincount(codes, minlength=mean.shape[0])[:, None] * np.exp(log_var)
            for key, want in ((t.mean, want_mean), (t.log_var, want_log_var)):
                for idx in np.ndindex(want.shape):
                    assert max_rel_error(want[idx], fd_entry(key, idx)) < 1e-4
        assert max_rel_error(grads.mean_rows.sum(), fd_entry("user_bias", 0)) < 1e-4
        assert max_rel_error(grads.real_weights[0], fd_entry("real_weights", 0)) < 1e-4
