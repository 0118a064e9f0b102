"""Trained model container and its on-disk format.

A model is the variational state plus everything prediction needs: the
schema, the training table, the real-context standardization statistics,
and the rating scale used for clamping.  The table's per-user blocks are
built when a predictor is made (:meth:`TrainedModel.predictor`), not when a
model is trained or loaded.  Files are NumPy ``.npz`` archives with a JSON
metadata entry; the format is versioned (``gplvmf.model/1``) and stable
within a major version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .data import (
    ContextSchema,
    RatingTable,
    RealStandardization,
    check_keys,
    check_rating_scale,
    group_by_user,
    schema_from_dict,
    schema_to_dict,
)
from .optim import TrainConfig, TrainTrace
from .predict import Predictor
from .state import KernelLayout, VariationalState

FORMAT_VERSION = "gplvmf.model/1"
# The file stores each state array under its ``param_entries`` key, except these.
_FILE_NAMES = {"user_bias": "bias_user"}
# The file's other arrays, beside ``meta``: the training table and its standardization.
_TABLE_ARRAYS = ("table_users", "table_items", "table_cat", "table_real_raw", "table_ratings", "std_mean", "std_std")


@dataclass
class TrainedModel:
    state: VariationalState
    table: RatingTable
    config: TrainConfig
    rating_scale: tuple[float, float]
    trace: TrainTrace | None = None

    @property
    def schema(self) -> ContextSchema:
        return self.table.schema

    def predictor(self) -> Predictor:
        """A predictor over the state and the table's user blocks, grouped now."""
        return Predictor(
            self.state,
            group_by_user(self.table),
            standardization=self.table.standardization,
            rating_scale=self.rating_scale,
            jitter=self.config.jitter,
        )


def save_model(model: TrainedModel, path) -> None:
    state = model.state
    meta = {
        "format": FORMAT_VERSION,
        "schema": schema_to_dict(model.schema),
        "config": model.config.to_dict(),
        "rating_scale": list(model.rating_scale),
    }
    arrays = {_FILE_NAMES.get(key, key): arr for key, arr in state.param_entries()}
    arrays.update(
        table_users=model.table.users,
        table_items=model.table.items,
        table_cat=model.table.cat_values,
        table_real_raw=model.table.real_raw,
        table_ratings=model.table.ratings,
        std_mean=model.table.standardization.mean,
        std_std=model.table.standardization.std,
    )
    with open(path, "wb") as f:   # np.savez would add ".npz" to a bare path
        np.savez(f, meta=json.dumps(meta), **arrays)


def _check_arrays(path, names, expected) -> None:
    """A ``ValueError`` naming each array of ``expected`` not in ``names``, and each of ``names`` not expected."""
    missing, extra = [n for n in expected if n not in names], [n for n in names if n not in expected]
    found = [f"{what} {', '.join(map(repr, which))}" for what, which in (("lacks", missing),
                                                                          ("has unexpected arrays", extra)) if which]
    if found:
        raise ValueError(f"model file {path} {' and '.join(found)}")


def load_model(path) -> TrainedModel:
    """The model in the file at ``path``; a file whose arrays are not those
    its schema and config call for, or whose arrays do not fit them, is a
    ``ValueError`` naming the arrays, and so is one whose rating scale is
    not two finite numbers lo <= hi."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    if "meta" not in arrays:
        raise ValueError(f"model file {path} lacks 'meta'")
    meta = json.loads(str(arrays.pop("meta")))
    if meta.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {meta.get('format')!r}")
    check_keys(meta["config"], [f.name for f in fields(TrainConfig)], f"the config stored in {path}")
    config = TrainConfig(**meta["config"])
    schema = schema_from_dict(meta["schema"], f"the schema stored in {path}")
    dims = config.dims()
    layout = KernelLayout(schema, dims)
    state_names = {_FILE_NAMES.get(key, key): key for key in layout.keys}
    _check_arrays(path, arrays, [*state_names, *_TABLE_ARRAYS])
    table = RatingTable(
        schema=schema,
        users=arrays["table_users"],
        items=arrays["table_items"],
        cat_values=arrays["table_cat"],
        real_raw=arrays["table_real_raw"],
        ratings=arrays["table_ratings"],
        standardization=RealStandardization(mean=arrays["std_mean"], std=arrays["std_std"]),
    )
    state = VariationalState(schema, dims, layout, {key: arrays[name] for name, key in state_names.items()})
    scale = check_rating_scale(meta["rating_scale"], f"the rating_scale stored in {path}")
    return TrainedModel(state=state, table=table, config=config, rating_scale=scale)
