"""Context-aware rating data: schema, delimited-text ingestion, user grouping, folds.

A rating dataset is a flat table of (user, item, context values..., rating)
tuples.  Contexts are either categorical (a small integer code) or
real-valued (an arbitrary float that is z-scored against training
statistics).  Training operates user-centrically, so the table is regrouped
into one block per user.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

CATEGORICAL = "categorical"
REAL = "real"


class DataError(ValueError):
    """Malformed input file or a record violating the declared schema."""


@dataclass(frozen=True)
class ContextVariable:
    """One context column: categorical with a fixed cardinality, or real-valued."""

    name: str
    kind: str
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, REAL):
            raise ValueError(f"unknown context kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.cardinality is None or self.cardinality < 1:
                raise ValueError(f"context {self.name!r}: cardinality must be >= 1")
        elif self.cardinality is not None:
            raise ValueError(f"context {self.name!r}: real-valued context takes no cardinality")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass(frozen=True)
class ContextSchema:
    """Declares the entity counts and context columns of a rating dataset."""

    user_count: int
    item_count: int
    contexts: tuple[ContextVariable, ...] = ()

    def __post_init__(self):
        if self.user_count < 1 or self.item_count < 1:
            raise ValueError("user_count and item_count must be positive")
        names = [c.name for c in self.contexts]
        if len(set(names)) != len(names):
            raise ValueError("context names must be unique")

    @property
    def context_count(self) -> int:
        return len(self.contexts)

    @property
    def categorical_indices(self) -> list[int]:
        return [d for d, c in enumerate(self.contexts) if c.is_categorical]

    @property
    def real_indices(self) -> list[int]:
        return [d for d, c in enumerate(self.contexts) if not c.is_categorical]


def schema_to_dict(schema: ContextSchema) -> dict:
    """The JSON form of a schema, as config files and model files store it."""
    return {
        "user_count": schema.user_count,
        "item_count": schema.item_count,
        "contexts": [
            {"name": c.name, "kind": c.kind, **({"cardinality": c.cardinality} if c.is_categorical else {})}
            for c in schema.contexts
        ],
    }


def schema_from_dict(d: dict) -> ContextSchema:
    """Inverse of :func:`schema_to_dict`."""
    contexts = tuple(
        ContextVariable(name=c["name"], kind=c["kind"], cardinality=c.get("cardinality"))
        for c in d.get("contexts", [])
    )
    return ContextSchema(user_count=d["user_count"], item_count=d["item_count"], contexts=contexts)


@dataclass(frozen=True)
class RatingRecord:
    """A single observation; ``context_values`` follows schema order."""

    user: int
    item: int
    context_values: tuple
    rating: float


@dataclass(frozen=True)
class RealStandardization:
    """Per-column z-scoring statistics for the real-valued contexts.

    Columns whose raw variance is zero keep std 1 and pass through unscaled.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.mean) / self.std


def fit_standardization(raw: np.ndarray, names: list[str] | None = None) -> RealStandardization:
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        ncol = raw.shape[1] if raw.ndim == 2 else 0
        return RealStandardization(np.zeros(ncol), np.ones(ncol))
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    constant = std == 0.0
    if np.any(constant):
        cols = [names[j] if names else str(j) for j in np.flatnonzero(constant)]
        warnings.warn(
            f"real-valued context column(s) {cols} are constant; passing through unscaled",
            stacklevel=2,
        )
        mean = np.where(constant, 0.0, mean)
        std = np.where(constant, 1.0, std)
    return RealStandardization(mean, std)


@dataclass(frozen=True)
class RatingTable:
    """Column-wise storage of all rating records, plus standardization state.

    ``real_values`` holds the z-scored real contexts; ``real_raw`` keeps the
    original values so subsets can refit or reuse statistics without leakage.
    Instances are immutable and safe to share across threads.
    """

    schema: ContextSchema
    users: np.ndarray
    items: np.ndarray
    cat_values: np.ndarray
    real_raw: np.ndarray
    ratings: np.ndarray
    standardization: RealStandardization
    real_values: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "real_values", self.standardization.apply(self.real_raw))

    def __len__(self) -> int:
        return self.users.shape[0]

    @property
    def rating_range(self) -> tuple[float, float]:
        return float(self.ratings.min()), float(self.ratings.max())

    def record(self, i: int) -> RatingRecord:
        values = []
        ci = ri = 0
        for ctx in self.schema.contexts:
            if ctx.is_categorical:
                values.append(int(self.cat_values[i, ci]))
                ci += 1
            else:
                values.append(float(self.real_values[i, ri]))
                ri += 1
        return RatingRecord(int(self.users[i]), int(self.items[i]), tuple(values), float(self.ratings[i]))

    def subset(self, indices, standardization: RealStandardization | str = "refit") -> "RatingTable":
        """Select rows; ``standardization`` is ``"refit"`` (fit on the subset,
        the training-side behaviour) or an existing statistics object to reuse
        (the test-side behaviour)."""
        indices = np.asarray(indices)
        raw = self.real_raw[indices]
        if standardization == "refit":
            names = [self.schema.contexts[d].name for d in self.schema.real_indices]
            standardization = fit_standardization(raw, names)
        return RatingTable(
            schema=self.schema,
            users=self.users[indices],
            items=self.items[indices],
            cat_values=self.cat_values[indices],
            real_raw=raw,
            ratings=self.ratings[indices],
            standardization=standardization,
        )


def parse_finite(text: str, path, lineno: int, what: str) -> float:
    """``float(text)``; a :class:`DataError` naming the file, line and ``what``
    unless it is a finite number (nan or inf would poison training)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(f"{path}, line {lineno}: non-numeric {what} {text!r}") from exc
    if not math.isfinite(value):
        raise DataError(f"{path}, line {lineno}: non-finite {what} {text!r}")
    return value


def _header_names(schema: ContextSchema) -> list[str]:
    return ["user", "item"] + [c.name for c in schema.contexts] + ["rating"]


def load_table(path, schema: ContextSchema, delimiter: str = ",") -> RatingTable:
    """Read a delimited text file (one header line, then one record per line).

    Each row must carry ``2 + D + 1`` fields: user index, item index, the D
    context values in schema order, and the rating.  Real-valued context
    columns are standardized to zero mean / unit variance over the loaded
    records; the statistics are kept on the table for prediction-time reuse.
    """
    path = Path(path)
    nfields = 3 + schema.context_count
    cat_idx = schema.categorical_indices
    real_idx = schema.real_indices
    real_what = {d: f"context {schema.contexts[d].name!r} value" for d in real_idx}

    users, items, ratings = [], [], []
    cats, reals = [], []
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: no records")
    header = lines[0].split(delimiter)
    if len(header) != nfields:
        raise DataError(
            f"{path}, line 1: header has {len(header)} fields, expected {nfields} "
            f"(user, item, {schema.context_count} contexts, rating)"
        )
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) != nfields:
            raise DataError(f"{path}, line {lineno}: malformed row ({len(parts)} fields, expected {nfields})")
        try:
            user = int(parts[0])
            item = int(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}, line {lineno}: non-integer user/item index") from exc
        if not 0 <= user < schema.user_count:
            raise DataError(f"{path}, line {lineno}: user index {user} out of range [0, {schema.user_count})")
        if not 0 <= item < schema.item_count:
            raise DataError(f"{path}, line {lineno}: item index {item} out of range [0, {schema.item_count})")
        ctx_fields = parts[2:-1]
        row_cat, row_real = [], []
        for d, ctx in enumerate(schema.contexts):
            if ctx.is_categorical:
                try:
                    code = int(ctx_fields[d])
                except ValueError as exc:
                    raise DataError(
                        f"{path}, line {lineno}: context {ctx.name!r} expects an integer code"
                    ) from exc
                if not 0 <= code < ctx.cardinality:
                    raise DataError(
                        f"{path}, line {lineno}: context {ctx.name!r} code {code} "
                        f"out of range [0, {ctx.cardinality})"
                    )
                row_cat.append(code)
            else:
                row_real.append(parse_finite(ctx_fields[d], path, lineno, real_what[d]))
        rating = parse_finite(parts[-1], path, lineno, "rating")
        users.append(user)
        items.append(item)
        cats.append(row_cat)
        reals.append(row_real)
        ratings.append(rating)

    if not users:
        raise DataError(f"{path}: no records")

    raw = np.asarray(reals, dtype=float).reshape(len(users), len(real_idx))
    names = [schema.contexts[d].name for d in real_idx]
    return RatingTable(
        schema=schema,
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        cat_values=np.asarray(cats, dtype=np.int64).reshape(len(users), len(cat_idx)),
        real_raw=raw,
        ratings=np.asarray(ratings, dtype=float),
        standardization=fit_standardization(raw, names),
    )


def save_table(table: RatingTable, path, delimiter: str = ",") -> None:
    """Write a table back to delimited text (raw, un-standardized real values)."""
    path = Path(path)
    cat_idx = table.schema.categorical_indices
    lines = [delimiter.join(_header_names(table.schema))]
    cat_pos = {d: j for j, d in enumerate(cat_idx)}
    real_pos = {d: j for j, d in enumerate(table.schema.real_indices)}
    for i in range(len(table)):
        fields = [str(int(table.users[i])), str(int(table.items[i]))]
        for d, ctx in enumerate(table.schema.contexts):
            if ctx.is_categorical:
                fields.append(str(int(table.cat_values[i, cat_pos[d]])))
            else:
                fields.append(repr(float(table.real_raw[i, real_pos[d]])))
        fields.append(repr(float(table.ratings[i])))
        lines.append(delimiter.join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class UserBlock(NamedTuple):
    """All ratings by one user, in input order.  A named tuple: immutable,
    and cheap to build once per user in :func:`group_by_user`."""

    user: int
    items: np.ndarray
    cat_values: np.ndarray
    real_values: np.ndarray
    ratings: np.ndarray
    record_indices: np.ndarray

    @property
    def count(self) -> int:
        return self.ratings.shape[0]


def group_by_user(table: RatingTable) -> list[UserBlock]:
    """Split the table into one immutable block per user appearing in it,
    in ascending user order; each block keeps its rows in input order.
    One stable sort orders every column, and a block's arrays are slices of
    the sorted columns."""
    if len(table) == 0:
        raise ValueError("cannot group an empty table")
    order = np.argsort(table.users, kind="stable")
    users = table.users[order]
    bounds = np.flatnonzero(np.r_[True, users[1:] != users[:-1], True]).tolist()
    items, cats = table.items[order], table.cat_values[order]
    reals, ratings = table.real_values[order], table.ratings[order]
    return [
        UserBlock(int(users[a]), items[a:b], cats[a:b], reals[a:b], ratings[a:b], order[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


@dataclass(frozen=True)
class FoldPlan:
    """A k-way partition of record indices; fold sizes differ by at most one."""

    k: int
    assignments: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def make_folds(table: RatingTable, k: int, seed: int) -> FoldPlan:
    n = len(table)
    if k < 2:
        raise ValueError("fold count must be at least 2")
    if k > n:
        raise ValueError(f"fold count {k} exceeds record count {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.arange(n) % k
    return FoldPlan(k=k, assignments=assignments)
