"""Declarative JSON configuration: schema, model dimensions, training options.

One file drives the whole pipeline::

    {
      "seed": 0,
      "delimiter": ",",
      "rating_scale": [1, 5],
      "schema": {
        "user_count": 50,
        "item_count": 30,
        "contexts": [
          {"name": "mood", "kind": "categorical", "cardinality": 6},
          {"name": "price", "kind": "real"}
        ]
      },
      "model": {"inducing_count": 10, "item_dim": 2, "context_dim": 2,
                "item_bias_dim": 1, "context_bias_dim": 1, "use_mean": true},
      "train": {"method": "sgd", "epochs": 150, "learning_rate": 0.02,
                "lr_decay": 0.998, "clip_norm": 100.0},
      "synthetic": { ... SyntheticSpec fields ... }
    }

Only ``schema`` is mandatory for training; every other key has defaults.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .data import ContextSchema, schema_from_dict
from .harness import SyntheticSpec
from .optim import TrainConfig
from .state import ModelDims

_MODEL_KEYS = tuple(f.name for f in fields(ModelDims))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name not in _MODEL_KEYS and f.name != "seed")


def load_config(path) -> dict:
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def schema_from_config(cfg: dict) -> ContextSchema:
    try:
        sd = cfg["schema"]
    except KeyError as exc:
        raise KeyError("config is missing the 'schema' section") from exc
    return schema_from_dict(sd)


def train_config_from_config(cfg: dict) -> TrainConfig:
    kwargs = {"seed": cfg.get("seed", 0)}
    for section, keys in (("model", _MODEL_KEYS), ("train", _TRAIN_KEYS)):
        given = cfg.get(section, {})
        for key in given:
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in config section {section!r}; known keys: {', '.join(keys)}")
        kwargs.update(given)
    return TrainConfig(**kwargs)


def rating_scale_from_config(cfg: dict):
    scale = cfg.get("rating_scale")
    return tuple(float(v) for v in scale) if scale is not None else None


def synthetic_spec_from_config(cfg: dict) -> SyntheticSpec:
    try:
        sd = cfg["synthetic"]
    except KeyError as exc:
        raise KeyError("config is missing the 'synthetic' section") from exc
    schema = schema_from_config(cfg)
    return SyntheticSpec(
        user_count=schema.user_count,
        item_count=schema.item_count,
        contexts=schema.contexts,
        ratings_per_user=sd["ratings_per_user"],
        item_dim=sd.get("item_dim", 2),
        context_dim=sd.get("context_dim", 2),
        item_alpha=sd.get("item_alpha", 1.0),
        context_alphas=tuple(sd.get("context_alphas", [1.0] * schema.context_count)),
        signal_variance=sd.get("signal_variance", 1.0),
        noise_precision=sd.get("noise_precision", 4.0),
        include_bias=sd.get("include_bias", True),
        user_bias_mean=sd.get("user_bias_mean", 0.0),
        user_bias_std=sd.get("user_bias_std", 1.0),
        bias_scale=sd.get("bias_scale", 1.0),
        real_weights=tuple(sd.get("real_weights", [])),
        seed=sd.get("seed", cfg.get("seed", 0)),
    )
