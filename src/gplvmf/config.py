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
An unknown key, at the top level or in any section or context, is a
``ValueError`` naming it (a misspelt key must not fall back to a default).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .data import ContextSchema, check_keys, schema_from_dict
from .harness import SyntheticSpec
from .optim import TrainConfig
from .state import ModelDims

_TOP_KEYS = ("seed", "delimiter", "rating_scale", "schema", "model", "train", "synthetic")
_MODEL_KEYS = tuple(f.name for f in fields(ModelDims))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name not in _MODEL_KEYS and f.name != "seed")
# the schema gives the synthetic table's entity counts and contexts
_SYNTHETIC_KEYS = tuple(
    f.name for f in fields(SyntheticSpec) if f.name not in ("user_count", "item_count", "contexts")
)


def load_config(path) -> dict:
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def schema_from_config(cfg: dict) -> ContextSchema:
    check_keys(cfg, _TOP_KEYS, "config")
    try:
        sd = cfg["schema"]
    except KeyError as exc:
        raise KeyError("config is missing the 'schema' section") from exc
    return schema_from_dict(sd, "config section 'schema'")


def train_config_from_config(cfg: dict) -> TrainConfig:
    check_keys(cfg, _TOP_KEYS, "config")
    kwargs = {"seed": cfg.get("seed", 0)}
    for section, keys in (("model", _MODEL_KEYS), ("train", _TRAIN_KEYS)):
        given = cfg.get(section, {})
        check_keys(given, keys, f"config section {section!r}")
        kwargs.update(given)
    return TrainConfig(**kwargs)


def rating_scale_from_config(cfg: dict):
    check_keys(cfg, _TOP_KEYS, "config")
    scale = cfg.get("rating_scale")
    return tuple(float(v) for v in scale) if scale is not None else None


def synthetic_spec_from_config(cfg: dict) -> SyntheticSpec:
    """The ``synthetic`` section over the config's schema.  Unset fields take
    the :class:`SyntheticSpec` defaults, except ``context_alphas`` (1.0 per
    context) and ``seed`` (the top-level seed)."""
    check_keys(cfg, _TOP_KEYS, "config")
    try:
        sd = cfg["synthetic"]
    except KeyError as exc:
        raise KeyError("config is missing the 'synthetic' section") from exc
    check_keys(sd, _SYNTHETIC_KEYS, "config section 'synthetic'")
    if "ratings_per_user" not in sd:
        raise KeyError("config section 'synthetic' is missing 'ratings_per_user'")
    schema = schema_from_config(cfg)
    defaults = {"context_alphas": [1.0] * schema.context_count, "seed": cfg.get("seed", 0)}
    return SyntheticSpec(
        user_count=schema.user_count, item_count=schema.item_count, contexts=schema.contexts, **{**defaults, **sd}
    )
