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

:func:`read_config` is the one reader: every command reads the whole file
into a :class:`RunConfig`, so every section is checked whichever command
runs.  Only ``schema`` is mandatory; every other key has defaults.  An
unknown key, at the top level or in any section or context, is a
``ValueError`` naming it (a misspelt key must not fall back to a default),
and so is a value its section rejects: ``rating_scale`` must be two finite
numbers lo <= hi, and the ``synthetic`` section, when present, must give
``ratings_per_user`` and fields that :class:`SyntheticSpec` accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .data import ContextSchema, check_keys, check_rating_scale, schema_from_dict
from .harness import SyntheticSpec
from .optim import TrainConfig
from .state import ModelDims

_TOP_KEYS = ("seed", "delimiter", "rating_scale", "schema", "model", "train", "synthetic")
_MODEL_KEYS = tuple(f.name for f in fields(ModelDims))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name not in _MODEL_KEYS and f.name != "seed")
# the schema gives the synthetic table's entity counts and contexts
_SYNTHETIC_KEYS = tuple(f.name for f in fields(SyntheticSpec) if f.name not in ("user_count", "item_count", "contexts"))


@dataclass(frozen=True)
class RunConfig:
    """A config file, read and checked whole.  ``rating_scale`` is ``None``
    when the file gives none (training then clamps to the table's range), and
    ``synthetic`` when the file has no ``synthetic`` section."""

    schema: ContextSchema
    train: TrainConfig
    delimiter: str
    rating_scale: tuple[float, float] | None
    synthetic: SyntheticSpec | None

    @property
    def seed(self) -> int:
        """The top-level seed, which the training config holds."""
        return self.train.seed


def read_config(path) -> RunConfig:
    """The config file at ``path``.  Unset fields take the :class:`TrainConfig`
    and :class:`SyntheticSpec` defaults, except the synthetic ``context_alphas``
    (1.0 per context) and ``seed`` (the top-level seed)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    check_keys(raw, _TOP_KEYS, "config")
    if "schema" not in raw:
        raise KeyError("config is missing the 'schema' section")
    schema = schema_from_dict(raw["schema"], "config section 'schema'")

    kwargs = {"seed": raw["seed"]} if "seed" in raw else {}
    for section, keys in (("model", _MODEL_KEYS), ("train", _TRAIN_KEYS)):
        given = raw.get(section, {})
        check_keys(given, keys, f"config section {section!r}")
        kwargs.update(given)
    train = TrainConfig(**kwargs)

    delimiter = raw.get("delimiter", ",")
    if not isinstance(delimiter, str) or not delimiter:
        raise ValueError(f"delimiter must be a non-empty string, got {delimiter!r}")
    scale = raw.get("rating_scale")

    synthetic = raw.get("synthetic")
    if synthetic is not None:
        check_keys(synthetic, _SYNTHETIC_KEYS, "config section 'synthetic'")
        if "ratings_per_user" not in synthetic:
            raise KeyError("config section 'synthetic' is missing 'ratings_per_user'")
        defaults = {"context_alphas": [1.0] * schema.context_count, "seed": train.seed}
        synthetic = SyntheticSpec(user_count=schema.user_count, item_count=schema.item_count,
                                  contexts=schema.contexts, **{**defaults, **synthetic})
    return RunConfig(schema=schema, train=train, delimiter=delimiter, synthetic=synthetic,
                     rating_scale=None if scale is None else check_rating_scale(scale))
