"""Storage of the variational state: one flat vector and its per-key views."""

import numpy as np
import pytest

from gplvmf import load_model, save_model
from gplvmf.model import TrainedModel
from conftest import random_instance


def test_every_table_is_a_view_of_the_flat_vector():
    _, _, state, _ = random_instance(3)
    for key, start, stop in zip(state.layout.keys, state.offsets, state.offsets[1:]):
        arr = state.params[key]
        assert np.shares_memory(arr, state.flat), key
        assert np.array_equal(arr.ravel(), state.flat[start:stop]), key
        arr[...] = np.arange(arr.size).reshape(arr.shape) + start
    assert np.array_equal(state.flat, np.arange(state.flat.size))
    assert state.offsets[-1] == state.flat.size
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


def test_rebinding_a_table_repacks_the_vector():
    _, _, state, _ = random_instance(6, m=3)
    before = {key: arr.copy() for key, arr in state.param_entries()}
    bigger = np.vstack([state.z, np.full((1, state.kernel_dim), 0.25)])
    state.z = bigger
    assert state.inducing_count == 4
    assert state.flat.size == sum(arr.size for arr in before.values()) + state.kernel_dim
    assert np.shares_memory(state.z, state.flat)
    vec = state.to_vector()
    for key, start, stop in zip(state.layout.keys, state.offsets, state.offsets[1:]):
        expected = bigger if key == "z" else before[key]
        assert np.array_equal(vec[start:stop], expected.ravel()), key
    state.z[0, 0] = 9.0
    assert state.to_vector()[state.offsets[state.layout.keys.index("z")]] == 9.0


def test_model_file_round_trip_is_identical(tmp_path):
    table, _, state, cfg = random_instance(7)
    path = tmp_path / "model.npz"
    save_model(TrainedModel(state=state, table=table, config=cfg, rating_scale=(1.0, 5.0)), path)
    again = load_model(path).state
    assert np.array_equal(again.flat, state.flat)
    for key, arr in state.param_entries():
        assert np.array_equal(again.params[key], arr), key
        assert np.shares_memory(again.params[key], again.flat), key
