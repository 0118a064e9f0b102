"""Trained model container and its on-disk format.

A model is the variational state plus everything prediction needs: the
schema, the training table (per-user blocks are rebuilt on load), the
real-context standardization statistics, and the rating scale used for
clamping.  Files are NumPy ``.npz`` archives with a JSON metadata entry;
the format is versioned (``gplvmf.model/1``) and stable within a major
version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (
    ContextSchema,
    RatingTable,
    RealStandardization,
    group_by_user,
    schema_from_dict,
    schema_to_dict,
)
from .meanfn import BiasLatents
from .optim import TrainConfig, TrainTrace
from .predict import Predictor
from .state import VariationalState

FORMAT_VERSION = "gplvmf.model/1"


@dataclass
class TrainedModel:
    state: VariationalState
    table: RatingTable
    config: TrainConfig
    rating_scale: tuple[float, float]
    trace: TrainTrace | None = None

    def __post_init__(self):
        self.blocks = group_by_user(self.table)

    @property
    def schema(self) -> ContextSchema:
        return self.table.schema

    def predictor(self, jitter: float | None = None) -> Predictor:
        return Predictor(
            self.state,
            self.blocks,
            standardization=self.table.standardization,
            rating_scale=self.rating_scale,
            jitter=self.config.jitter if jitter is None else jitter,
        )


def save_model(model: TrainedModel, path) -> None:
    state = model.state
    meta = {
        "format": FORMAT_VERSION,
        "schema": schema_to_dict(model.schema),
        "config": model.config.to_dict(),
        "rating_scale": list(model.rating_scale),
        "n_categorical": len(state.ctx_mean),
        "use_mean": state.bias is not None,
    }
    arrays = {
        "item_mean": state.item_mean,
        "item_log_var": state.item_log_var,
        "z": state.z,
        "log_alpha": state.log_alpha,
        "log_sigma2": state.log_sigma2,
        "log_beta": state.log_beta,
        "table_users": model.table.users,
        "table_items": model.table.items,
        "table_cat": model.table.cat_values,
        "table_real_raw": model.table.real_raw,
        "table_ratings": model.table.ratings,
        "std_mean": model.table.standardization.mean,
        "std_std": model.table.standardization.std,
    }
    for j, (m, v) in enumerate(zip(state.ctx_mean, state.ctx_log_var)):
        arrays[f"ctx_mean_{j}"] = m
        arrays[f"ctx_log_var_{j}"] = v
    if state.bias is not None:
        arrays["bias_user"] = state.bias.user_bias
        arrays["bias_item_mean"] = state.bias.item_mean
        arrays["bias_item_log_var"] = state.bias.item_log_var
        arrays["real_weights"] = state.bias.real_weights
        for j, (m, v) in enumerate(zip(state.bias.context_mean, state.bias.context_log_var)):
            arrays[f"bias_ctx_mean_{j}"] = m
            arrays[f"bias_ctx_log_var_{j}"] = v
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_model(path) -> TrainedModel:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != FORMAT_VERSION:
            raise ValueError(f"unsupported model format {meta.get('format')!r}")
        schema = schema_from_dict(meta["schema"])
        config = TrainConfig(**meta["config"])
        ncat = meta["n_categorical"]

        table = RatingTable(
            schema=schema,
            users=data["table_users"],
            items=data["table_items"],
            cat_values=data["table_cat"],
            real_raw=data["table_real_raw"],
            ratings=data["table_ratings"],
            standardization=RealStandardization(mean=data["std_mean"], std=data["std_std"]),
        )
        bias = None
        if meta["use_mean"]:
            bias = BiasLatents(
                user_bias=data["bias_user"],
                item_mean=data["bias_item_mean"],
                item_log_var=data["bias_item_log_var"],
                context_mean=[data[f"bias_ctx_mean_{j}"] for j in range(ncat)],
                context_log_var=[data[f"bias_ctx_log_var_{j}"] for j in range(ncat)],
                real_weights=data["real_weights"],
            )
        state = VariationalState(
            schema=schema,
            dims=config.dims(),
            item_mean=data["item_mean"],
            item_log_var=data["item_log_var"],
            ctx_mean=[data[f"ctx_mean_{j}"] for j in range(ncat)],
            ctx_log_var=[data[f"ctx_log_var_{j}"] for j in range(ncat)],
            bias=bias,
            z=data["z"],
            log_alpha=data["log_alpha"],
            log_sigma2=data["log_sigma2"],
            log_beta=data["log_beta"],
        )
    return TrainedModel(
        state=state,
        table=table,
        config=config,
        rating_scale=tuple(meta["rating_scale"]),
    )
