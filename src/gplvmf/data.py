"""Context-aware rating data: schema, delimited-text ingestion, user grouping, folds.

A rating dataset is a flat table of (user, item, context values..., rating)
tuples.  Contexts are either categorical (a small integer code) or
real-valued (an arbitrary float that is z-scored against training
statistics).  Training operates user-centrically, so the table is regrouped
into one block per user.

Data files and query files share one reader, :func:`read_columns`.  It
converts whole columns with Python's own ``int`` and ``float``, so it
accepts exactly the fields :func:`parse_field` accepts; only a file with a
bad field or a malformed row is read again field by field, so that the error
names the same first bad line as a field-by-field reader would.  Tables hold
read-only columns.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
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
            check_field(f"context {self.name!r}: cardinality", self.cardinality, True, 1)
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
        check_field("user_count", self.user_count, True, 1)
        check_field("item_count", self.item_count, True, 1)
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


def schema_from_dict(d: dict, where: str = "the schema") -> ContextSchema:
    """Inverse of :func:`schema_to_dict`; an unknown or missing key of the
    schema or of a context, found ``where``, is a ``ValueError``, and so are
    ``contexts`` that are not a list and a context that is not an object."""
    check_keys(d, ("user_count", "item_count", "contexts"), where, required=("user_count", "item_count"))
    given = d.get("contexts", [])
    if not isinstance(given, list):
        raise ValueError(f"'contexts' of {where} must be a list, got {given!r}")
    contexts = []
    for i, c in enumerate(given):
        check_keys(c, ("name", "kind", "cardinality"), f"context {i} of {where}", required=("name", "kind"))
        contexts.append(ContextVariable(name=c["name"], kind=c["kind"], cardinality=c.get("cardinality")))
    return ContextSchema(user_count=d["user_count"], item_count=d["item_count"], contexts=tuple(contexts))


def check_field(name: str, value, integer: bool, bound, strict: bool = False, note: str = "") -> None:
    """A ``ValueError`` naming field ``name`` unless ``value`` is an integer
    (``integer``; not a bool) or a finite real number, at least ``bound``
    (above it if ``strict``); the schema and every config check their counts
    and settings here."""
    number = isinstance(value, (int, np.integer) if integer else (int, float, np.integer, np.floating))
    if not number or isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    if value < bound or (strict and value == bound):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {bound}{note}, got {value!r}")


def check_rating_scale(scale, name: str = "rating_scale") -> tuple[float, float]:
    """``scale`` as a (lo, hi) pair of floats; a ``ValueError`` naming ``name``
    unless it is two finite numbers, lo <= hi (the range of equal ratings has
    lo == hi).  Configs, training and model files check their scales here."""
    try:
        lo, hi = scale
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be two numbers [lo, hi], got {scale!r}") from None
    check_field(f"{name} lo", lo, False, -math.inf)
    check_field(f"{name} hi", hi, False, lo)
    return float(lo), float(hi)


def check_keys(given, known, where: str, required=()) -> None:
    """A ``ValueError`` naming the first key of ``given`` not in ``known``, or
    the first key of ``required`` missing from it, and ``where`` it was
    found; every config decoder checks its keys here."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be a JSON object, got {given!r}")
    for key in given:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {where}; known keys: {', '.join(known)}")
    for key in required:
        if key not in given:
            raise ValueError(f"missing key {key!r} in {where}")


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
    Instances are immutable and safe to share across threads.  A table checks
    its columns when it is made: a :class:`DataError` names the first column
    whose shape does not fit the schema, whose codes are not integers, or
    whose first bad row holds a code out of range or a non-finite rating or
    raw real value.  It holds read-only copies of them, so no later write,
    through the table or through the caller's arrays, reaches training
    unchecked.  A pickle or a copy (``copy.copy``, ``copy.deepcopy``) is
    rebuilt through the constructor, so it is checked and read-only too.
    """

    schema: ContextSchema
    users: np.ndarray
    items: np.ndarray
    cat_values: np.ndarray
    real_raw: np.ndarray
    ratings: np.ndarray
    standardization: RealStandardization
    real_values: np.ndarray = field(init=False)

    _COLUMNS = ("users", "items", "cat_values", "real_raw", "ratings")

    def __post_init__(self):
        for name in self._COLUMNS:
            object.__setattr__(self, name, np.array(getattr(self, name)))
        schema, n = self.schema, (len(self.users),)
        widths = {"cat_values": (len(schema.categorical_indices),), "real_raw": (len(schema.real_indices),)}
        for name in self._COLUMNS:
            shape, expected = getattr(self, name).shape, n + widths.get(name, ())
            if shape != expected:
                raise DataError(f"column {name} has shape {shape}, expected {expected}")
        for name in ("users", "items", "cat_values"):
            if getattr(self, name).dtype.kind not in "iu":
                raise DataError(f"column {name} holds {getattr(self, name).dtype} values, not integer codes")
        found = out_of_range(schema, self.users, self.items, self.cat_values)
        if found:
            what, row, code, count = found
            raise DataError(f"row {row}: {what} {code} out of range [0, {count})")
        bad = np.argwhere(~np.isfinite(self.real_raw))
        if bad.size:
            row, col = bad[0]
            context = schema.contexts[schema.real_indices[col]]
            raise DataError(f"row {row}: {context_value_error(context, float(self.real_raw[row, col]))}")
        bad = np.flatnonzero(~np.isfinite(self.ratings))
        if bad.size:
            raise DataError(f"row {bad[0]}: rating {float(self.ratings[bad[0]])!r} is not finite")
        object.__setattr__(self, "real_values", self.standardization.apply(self.real_raw))
        for name in (*self._COLUMNS, "real_values"):
            getattr(self, name).flags.writeable = False

    def __reduce__(self):
        return type(self), (self.schema, *(getattr(self, name) for name in self._COLUMNS), self.standardization)

    def __len__(self) -> int:
        return self.users.shape[0]

    @property
    def rating_range(self) -> tuple[float, float]:
        return float(self.ratings.min()), float(self.ratings.max())

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


def out_of_range(schema: ContextSchema, users, items, cats):
    """The first code outside its range [0, count), as (what, row, code,
    count), or None.  The user index, the item index and each categorical
    context's code (``cats`` holds their columns in schema order) are
    checked in that order; :func:`load_table` and :class:`RatingTable` share
    this rule."""
    columns = [("user index", users, schema.user_count), ("item index", items, schema.item_count)]
    categorical = [schema.contexts[d] for d in schema.categorical_indices]
    columns += [(f"context {c.name!r} code", cats[:, j], c.cardinality) for j, c in enumerate(categorical)]
    for what, codes, count in columns:
        bad = np.flatnonzero((codes < 0) | (codes >= count))
        if bad.size:
            return what, int(bad[0]), int(codes[bad[0]]), count
    return None


def context_columns(schema: ContextSchema, rows) -> tuple[np.ndarray, np.ndarray]:
    """Context values in schema order, one sequence per row, as the table's
    columns: int64 categorical codes ``(n, categorical count)`` and float
    real values ``(n, real count)``, both C-ordered (a column mean sums in
    memory order).  Inverse of :func:`context_rows`.  A code that is not an
    integer code (:func:`is_code`) or a real value that is not finite is a
    ``ValueError`` naming its context."""
    raw = np.asarray(rows, dtype=float).reshape(len(rows), schema.context_count)
    cats, reals = raw.take(schema.categorical_indices, axis=1), raw.take(schema.real_indices, axis=1)
    for columns, indices, bad in ((cats, schema.categorical_indices, ~code_mask(cats)),
                                  (reals, schema.real_indices, ~np.isfinite(reals))):
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise context_value_error(schema.contexts[indices[col]], float(columns[row, col]))
    return cats.astype(np.int64), reals


def is_code(value) -> bool:
    """Whether a scalar is an integer code: integral and inside the int64
    range, so that its int64 cast is exact (:func:`code_mask` for arrays)."""
    return -2**63 <= value < 2**63 and float(value).is_integer()


def code_mask(values: np.ndarray) -> np.ndarray:
    """Where float ``values`` are integer codes (:func:`is_code`)."""
    return (np.floor(values) == values) & (values >= -2.0**63) & (values < 2.0**63)


def code_error(what: str, value) -> ValueError:
    """The error for a value of ``what`` that is not an integer code."""
    return ValueError(f"{what} value {value!r} is not an integer code")


def integer_codes(values, what: str) -> np.ndarray:
    """``values`` as int64 codes; one that is not an integer code
    (:func:`is_code`) is a :func:`code_error` naming ``what``."""
    values = np.asarray(values)
    if values.dtype.kind != "i":
        values = values.astype(float)
        bad = ~code_mask(values)
        if bad.any():
            raise code_error(what, float(values[bad][0]))
    return values.astype(np.int64)


def context_value_error(context: ContextVariable, value) -> ValueError:
    """The error for a context value that is not an integer code (categorical)
    or not finite (real), naming the context."""
    if context.is_categorical:
        return code_error(f"context {context.name!r}", value)
    return ValueError(f"context {context.name!r} value {value!r} is not finite")


def context_rows(schema: ContextSchema, codes, reals) -> list[tuple]:
    """The categorical-code and real-value columns as one schema-order tuple
    per row, of Python ints and floats.  Inverse of :func:`context_columns`."""
    columns = [None] * schema.context_count
    for d, column in zip(schema.categorical_indices, np.asarray(codes, dtype=np.int64).T.tolist()):
        columns[d] = column
    for d, column in zip(schema.real_indices, np.asarray(reals, dtype=float).T.tolist()):
        columns[d] = column
    return list(zip(*columns)) if columns else [()] * len(codes)


def parse_field(text: str, integer: bool, path, lineno: int, what: str):
    """``int(text)``, or ``float(text)`` if finite (nan or inf would poison
    training); otherwise a :class:`DataError` naming the file, the line and
    ``what`` the column holds."""
    try:
        value = int(text) if integer else float(text)
    except ValueError as exc:
        kind = "integer" if integer else "numeric"
        raise DataError(f"{path}, line {lineno}: non-{kind} {what} {text!r}") from exc
    if not integer and not math.isfinite(value):
        raise DataError(f"{path}, line {lineno}: non-finite {what} {text!r}")
    return value


def _header_names(schema: ContextSchema) -> list[str]:
    return ["user", "item"] + [c.name for c in schema.contexts] + ["rating"]


def read_columns(
    path, schema: ContextSchema, delimiter: str, rating: bool = True
) -> tuple[Sequence[int], list[np.ndarray]]:
    """Parse a delimited text file: a header line with one field per column
    (user, item, the contexts in schema order and, with ``rating``, the
    rating), then one record per line; blank lines are skipped.

    Returns the records' line numbers and one array per column, in that
    order: int64 codes for the user, the item and categorical contexts (an
    object array of Python ints if a code lies beyond the int64 range), and
    finite floats for real values and the rating.  Each column is converted
    with Python's ``int`` or ``float`` in one pass, so a field is accepted
    exactly when :func:`parse_field` accepts it.  A malformed row or a field
    that does not convert is the :class:`DataError` of the first bad line,
    found by reading the records again field by field with
    :func:`parse_field`.  Ranges are not checked.
    """
    names = _header_names(schema)[: None if rating else -1]
    kinds = [(True, "user index"), (True, "item index")]
    kinds += [(c.is_categorical, f"context {c.name!r} value") for c in schema.contexts]
    if rating:
        kinds.append((False, "rating"))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path}: no records")
    header = lines[0].split(delimiter)
    if len(header) != len(names):
        raise DataError(
            f"{path}, line 1: header has {len(header)} fields, expected {len(names)} ({', '.join(names)})"
        )
    linenos, body = range(2, len(lines) + 1), lines[1:]
    if not all(map(str.strip, body)):
        linenos = [lineno for lineno, line in zip(linenos, body) if line.strip()]
        body = [lines[lineno - 1] for lineno in linenos]
    rows = list(map(str.split, body, repeat(delimiter)))
    try:
        if list(map(len, rows)).count(len(kinds)) != len(rows):
            raise ValueError("malformed row")
        texts = zip(*rows) if rows else repeat(())  # typed, and empty without records
        return linenos, [_column(column, integer) for column, (integer, _) in zip(texts, kinds)]
    except ValueError:
        _raise_first_error(path, linenos, rows, kinds)
        raise


def _column(texts, integer: bool) -> np.ndarray:
    """One column's fields as int64 codes (Python ints in an object array
    when one overflows int64) or as finite floats; a ``ValueError`` if a
    field does not convert or a float is not finite."""
    if integer:
        values = list(map(int, texts))
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    values = np.array(list(map(float, texts)), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def _raise_first_error(path, linenos, rows, kinds) -> None:
    """Parse the records field by field in file order, raising the
    :class:`DataError` of the first malformed row or bad field."""
    for lineno, parts in zip(linenos, rows):
        if len(parts) != len(kinds):
            raise DataError(f"{path}, line {lineno}: malformed row ({len(parts)} fields, expected {len(kinds)})")
        for text, (integer, what) in zip(parts, kinds):
            parse_field(text, integer, path, lineno, what)


def load_table(path, schema: ContextSchema, delimiter: str = ",") -> RatingTable:
    """Read a delimited text file (one header line, then one record per line).

    Each row must carry ``2 + D + 1`` fields: user index, item index, the D
    context values in schema order, and the rating.  Real-valued context
    columns are standardized to zero mean / unit variance over the loaded
    records; the statistics are kept on the table for prediction-time reuse.
    """
    linenos, (users, items, *contexts, ratings) = read_columns(path, schema, delimiter)
    if not ratings.size:
        raise DataError(f"{path}: no records")
    cats = _stack([contexts[d] for d in schema.categorical_indices], len(ratings), np.int64)
    found = out_of_range(schema, users, items, cats)
    if found:
        what, row, code, count = found
        raise DataError(f"{path}, line {linenos[row]}: {what} {code} out of range [0, {count})")
    raw = _stack([contexts[d] for d in schema.real_indices], len(ratings), float)
    return RatingTable(
        schema=schema,
        users=users,
        items=items,
        cat_values=cats,
        real_raw=raw,
        ratings=ratings,
        standardization=fit_standardization(raw, [schema.contexts[d].name for d in schema.real_indices]),
    )


def _stack(columns: list[np.ndarray], n: int, dtype) -> np.ndarray:
    """Columns side by side as one C-ordered ``(n, len(columns))`` array."""
    return np.column_stack(columns) if columns else np.empty((n, 0), dtype=dtype)


def save_table(table: RatingTable, path, delimiter: str = ",") -> None:
    """Write a table back to delimited text (raw, un-standardized real values)."""
    contexts = context_rows(table.schema, table.cat_values, table.real_raw)
    records = zip(table.users.tolist(), table.items.tolist(), contexts, table.ratings.tolist())
    lines = [delimiter.join(_header_names(table.schema))]
    lines += [delimiter.join(map(repr, (user, item, *ctx, rating))) for user, item, ctx, rating in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class UserBlock(NamedTuple):
    """All ratings by one user, in input order.  A named tuple: immutable,
    and cheap to build once per user in :func:`group_by_user`."""

    user: int
    items: np.ndarray
    cat_values: np.ndarray
    real_values: np.ndarray
    ratings: np.ndarray

    @property
    def count(self) -> int:
        return self.ratings.shape[0]


class UserBlocks(tuple):
    """What :func:`group_by_user` returns: an immutable sequence of blocks over
    read-only columns.  ``plans`` is the memo of :func:`gplvmf.bound.plan`;
    slices and sums of it are plain tuples, which hold no memo."""

    def __new__(cls, blocks):
        self = super().__new__(cls, blocks)
        self.plans = {}
        return self


def group_by_user(table: RatingTable) -> UserBlocks:
    """Split the table into one block per user appearing in it, in ascending
    user order; each block keeps its rows in input order.  One stable sort
    orders every column, and a block's arrays are slices of the sorted
    columns, which are read-only so that a memoized plan cannot go stale."""
    if len(table) == 0:
        raise ValueError("cannot group an empty table")
    order = np.argsort(table.users, kind="stable")
    users = table.users[order]
    bounds = np.flatnonzero(np.r_[True, users[1:] != users[:-1], True]).tolist()
    items, cats = table.items[order], table.cat_values[order]
    reals, ratings = table.real_values[order], table.ratings[order]
    for column in (items, cats, reals, ratings):
        column.flags.writeable = False
    return UserBlocks([
        UserBlock(int(users[a]), items[a:b], cats[a:b], reals[a:b], ratings[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ])


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
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"fold count must be an integer, got {k!r}")
    if k < 2:
        raise ValueError("fold count must be at least 2")
    if k > n:
        raise ValueError(f"fold count {k} exceeds record count {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.arange(n) % k
    return FoldPlan(k=k, assignments=assignments)
