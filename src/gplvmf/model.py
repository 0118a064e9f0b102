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
    group_by_user,
    schema_from_dict,
    schema_to_dict,
)
from .optim import TrainConfig, TrainTrace
from .predict import Predictor
from .state import VariationalState

FORMAT_VERSION = "gplvmf.model/1"
# The file stores each state array under its ``param_entries`` key, except these.
_FILE_NAMES = {"user_bias": "bias_user"}
_STATE_KEYS = {name: key for key, name in _FILE_NAMES.items()}


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


def load_model(path) -> TrainedModel:
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    if meta.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {meta.get('format')!r}")
    check_keys(meta["config"], [f.name for f in fields(TrainConfig)], f"the config stored in {path}")
    config = TrainConfig(**meta["config"])
    schema = schema_from_dict(meta["schema"], f"the schema stored in {path}")
    table = RatingTable(
        schema=schema,
        users=arrays["table_users"],
        items=arrays["table_items"],
        cat_values=arrays["table_cat"],
        real_raw=arrays["table_real_raw"],
        ratings=arrays["table_ratings"],
        standardization=RealStandardization(mean=arrays["std_mean"], std=arrays["std_std"]),
    )
    state = VariationalState.from_tables(
        schema, config.dims(), {_STATE_KEYS.get(name, name): arr for name, arr in arrays.items()}
    )
    return TrainedModel(
        state=state,
        table=table,
        config=config,
        rating_scale=tuple(meta["rating_scale"]),
    )
