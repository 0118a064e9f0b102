"""Storage of the variational state: one flat vector and its per-key views,
and the kernel layout that rows and the relevance report read."""

import re

import numpy as np
import pytest

from gplvmf import (
    ContextSchema,
    ContextVariable,
    TrainConfig,
    VariationalState,
    context_relevance,
    group_by_user,
    init_state,
    load_model,
    save_model,
)
from gplvmf.model import TrainedModel
from conftest import build_table, codec_schema, codec_table, random_instance


def test_every_table_is_a_view_of_the_flat_vector():
    _, _, state, _ = random_instance(3)
    offsets = state.layout.offsets
    for key, start, stop in zip(state.layout.keys, offsets, offsets[1:]):
        arr = state.params[key]
        assert np.shares_memory(arr, state.flat), key
        assert np.array_equal(arr.ravel(), state.flat[start:stop]), key
        arr[...] = np.arange(arr.size).reshape(arr.shape) + start
    assert np.array_equal(state.flat, np.arange(state.flat.size))
    assert offsets[-1] == state.flat.size
    assert [key for key, _ in state.param_entries()] == state.layout.keys


def test_from_vector_checks_length_and_copies():
    _, _, state, _ = random_instance(4)
    vec = state.to_vector()
    assert not np.shares_memory(vec, state.flat)
    for bad in (vec[:-1], np.append(vec, 0.0)):
        with pytest.raises(ValueError, match="does not match state size"):
            state.from_vector(bad)
    fresh = state.from_vector(vec)
    assert not np.shares_memory(fresh.flat, vec)
    vec[:] = 0.0
    assert np.array_equal(fresh.flat, state.flat)
    assert fresh.flat.any()


def test_copy_shares_no_memory():
    _, _, state, _ = random_instance(5)
    twin = state.copy()
    assert np.array_equal(twin.flat, state.flat)
    assert not np.shares_memory(twin.flat, state.flat)
    for key, arr in twin.param_entries():
        assert not np.shares_memory(arr, state.flat), key
        assert np.shares_memory(arr, twin.flat), key


def test_assigning_a_table_writes_in_place():
    _, _, state, _ = random_instance(6, m=3)
    flat, z = state.flat, state.z
    before = {key: arr.copy() for key, arr in state.param_entries()}
    new_z = np.full(z.shape, 0.25)
    state.z = new_z
    assert state.flat is flat and state.z is z and np.shares_memory(state.z, state.flat)
    vec, offsets = state.to_vector(), state.layout.offsets
    for key, start, stop in zip(state.layout.keys, offsets, offsets[1:]):
        expected = new_z if key == "z" else before[key]
        assert np.array_equal(vec[start:stop], expected.ravel()), key
    state.log_sigma2 = [1.0, 2.0]
    assert state.to_vector()[offsets[state.layout.keys.index("log_sigma2")] + 1] == 2.0


@pytest.mark.parametrize("key, shape", [("z", (4, 5)), ("z", (15,)), ("log_alpha", (6,)), ("log_sigma2", (1,)),
                                        ("item_mean", (4, 2))])
def test_a_table_of_another_shape_is_rejected(key, shape):
    # the layout fixes every shape: neither assignment nor a new state
    # re-packs the vector
    _, _, state, _ = random_instance(6, m=3)
    expected = state.params[key].shape
    vec = state.to_vector()
    message = re.escape(f"{key} has shape {shape}, expected {expected}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        setattr(state, key, np.zeros(shape))
    assert np.array_equal(state.flat, vec)
    with pytest.raises(ValueError, match=f"^{message}$"):
        VariationalState(state.schema, state.dims, state.layout, {**state.params, key: np.zeros(shape)})


@pytest.mark.parametrize("use_mean", [True, False], ids=["mean", "no_mean"])
def test_point_positions_are_the_point_keys_offset_ranges(use_mean):
    _, _, state, _ = random_instance(8, n_users=4, use_mean=use_mean)
    layout, users = state.layout, np.array([3, 0, 2])
    per_user = {"user_bias", "log_sigma2", "log_beta"} if use_mean else {"log_sigma2", "log_beta"}
    assert {key for key, each in layout.points if each} == per_user
    assert [key for key, _ in layout.points] == layout.keys[len(layout.keys) - len(layout.points) :]
    assert layout.offsets[len(layout.keys) - len(layout.points)] == layout.table_end
    for (key, each), pos in zip(layout.points, state.point_positions(users)):
        k = layout.keys.index(key)
        start, stop = layout.offsets[k], layout.offsets[k + 1]
        assert np.array_equal(pos, start + users if each else np.arange(start, stop)), key
        assert [state.key_at(i) for i in pos] == [key] * pos.size


def test_model_file_round_trip_is_identical(tmp_path):
    table, _, state, cfg = random_instance(7)
    path = tmp_path / "model.npz"
    save_model(TrainedModel(state=state, table=table, config=cfg, rating_scale=(1.0, 5.0)), path)
    again = load_model(path).state
    assert np.array_equal(again.flat, state.flat)
    for key, arr in state.param_entries():
        assert np.array_equal(again.params[key], arr), key
        assert np.shares_memory(again.params[key], again.flat), key


@pytest.mark.parametrize("kind", ["interleaved", "no_contexts"])
def test_assemble_rows_matches_per_entity_loop(kind):
    schema = codec_schema(kind)
    blocks = group_by_user(codec_table(schema))
    cfg = TrainConfig(inducing_count=3, item_dim=2, context_dim=3, seed=1)
    state = init_state(schema, blocks, cfg)
    vec = state.to_vector()
    state = state.from_vector(vec + np.random.default_rng(2).normal(0.0, 0.3, size=vec.size))
    p = state.params
    for block in blocks:
        mu, var = state.assemble_rows(block)
        assert mu.shape == var.shape == (block.count, state.kernel_dim)
        for t in range(block.count):
            item = block.items[t]
            row_mu, row_var = [p["item_mean"][item]], [np.exp(p["item_log_var"][item])]
            ci = ri = 0
            for ctx in schema.contexts:
                if ctx.is_categorical:
                    code = block.cat_values[t, ci]
                    row_mu.append(p[f"ctx_mean_{ci}"][code])
                    row_var.append(np.exp(p[f"ctx_log_var_{ci}"][code]))
                    ci += 1
                else:
                    row_mu.append([block.real_values[t, ri]])
                    row_var.append([0.0])
                    ri += 1
            assert np.array_equal(mu[t], np.concatenate(row_mu))
            assert np.array_equal(var[t], np.concatenate(row_var))


@pytest.mark.parametrize("kind", ["interleaved", "no_contexts"])
def test_positions_are_c_ordered_and_those_the_chunks_gather(kind):
    # indexing the stacked codes by column is Fortran-ordered, so positions
    # allocates its own C-ordered result; chunks pass theirs as ``out``
    from gplvmf.bound import plan

    schema = codec_schema(kind)
    blocks = group_by_user(codec_table(schema))
    state = init_state(schema, blocks, TrainConfig(inducing_count=3, item_dim=2, context_dim=3, seed=1))
    for chunk in plan(blocks, state).chunks:
        pos = state.layout.positions(chunk.rows)
        assert pos.flags.c_contiguous and pos.dtype == np.int64
        assert np.array_equal(pos, chunk.gather)


def test_context_named_item_keeps_its_own_relevance_entry():
    schema = ContextSchema(
        user_count=2, item_count=3,
        contexts=(ContextVariable("item", "categorical", 2), ContextVariable("price", "real")),
    )
    table = build_table(schema, users=[0, 1], items=[0, 2], cat=[[0], [1]], real=[0.5, -0.5], ratings=[1.0, 2.0])
    state = init_state(schema, group_by_user(table), TrainConfig(inducing_count=2, item_dim=2, context_dim=3))
    state.log_alpha = np.log([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert [name for name, _ in state.layout.slices] == ["item", "item", "price"]
    rel = context_relevance(state)
    assert [(name, score) for name, score, _ in rel.entries] == [("item", 3.0), ("item", 12.0), ("price", 6.0)]
    # a lookup by a name that two entries share is refused, not answered by the last entry
    for lookup in (rel.score, rel.share):
        with pytest.raises(ValueError, match="2 relevance entries are named 'item'"):
            lookup("item")
    assert rel.score("price") == 6.0
    assert rel.share("price") == pytest.approx(6.0 / 21.0)
