"""Trainable state: shared latent tables, inducing inputs, per-user parameters.

Layout of the kernel-space latent vector for one rating row (dimension Q):

    [ item latents | context 1 latents | ... | context D latents ]

Categorical contexts contribute ``context_dim`` free coordinates per
category; real-valued contexts contribute one coordinate pinned to the
standardized observed value (zero variance, excluded from optimization).

Every free latent coordinate lives in a *latent table*: a diagonal-Gaussian
table under the standard-normal prior, with one row per item (or per
category of one categorical context) and one extra trailing "unknown" row
held at the prior so unseen codes can be queried after training.  The
kernel latents and the bias latents of the mean function are tables of the
same kind.  :class:`KernelLayout` is the one description of this layout:
``tables`` lists every table once (keys, the block column that indexes
each, and the kernel slice, empty for a bias table), ``fixed_mask`` marks
the pinned real-context coordinates and ``slices`` names each block's
kernel slice.  The row assembly, the mean function
(:func:`gplvmf.meanfn.phi_statistics`), the bound's gradient scatter, the
KL, SGD's step, the query lookup, initialization, the relevance report and
the model file all walk that description; none of them re-derives it from
the schema.

The state keeps every parameter in one float64 vector, ``flat``, in the
order of :attr:`KernelLayout.keys`: the latent tables, then the *point
block*.  :attr:`KernelLayout.points` lists the point block once, as (key,
per user) pairs in flat order: the mean function's ``real_weights`` and
per-user ``user_bias`` (with ``use_mean``), the inducing inputs ``z``, the
inverse length-scales ``log_alpha`` and the per-user ``log_sigma2`` and
``log_beta``.  ``params`` maps each key to a reshaped view of its slice
(``offsets`` holds the bounds), and the familiar attributes (``item_mean``,
``z``, ...) read it; assigning one (``state.z = ...``, maybe with a new
shape) re-packs the vector.  This module alone reads ``offsets``: the bound's
gather and scatter, SGD's steps and its value check ask the state for flat
positions (:meth:`KernelLayout.positions`,
:meth:`VariationalState.point_positions`) and for the key at a position
(:meth:`VariationalState.key_at`).  All positive parameters (variances,
inverse length-scales, signal variance, noise precision) are stored as logs,
making the flat optimization vector unconstrained.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import ContextSchema, UserBlock, check_field


@dataclass(frozen=True)
class ModelDims:
    """Dimension/size choices that shape the state."""

    inducing_count: int
    item_dim: int
    context_dim: int
    item_bias_dim: int = 1
    context_bias_dim: int = 1
    use_mean: bool = True

    def __post_init__(self):
        for name, least in (("inducing_count", 1), ("item_dim", 1), ("context_dim", 1),
                            ("item_bias_dim", 0), ("context_bias_dim", 0)):
            check_field(name, getattr(self, name), True, least)


@dataclass(frozen=True)
class LatentTable:
    """One diagonal-Gaussian table of latents, shape ``(entities + 1, width)``.

    ``mean``/``log_var`` are its two ``param_entries`` keys.  Row t of a user
    block reads entry ``block.items[t]`` (``column`` None) or
    ``block.cat_values[t, column]``; a query with an unseen code reads the
    trailing prior row.  ``sl`` is the table's kernel slice, empty for a
    bias table.
    """

    mean: str
    log_var: str
    column: int | None
    sl: slice
    shape: tuple

    @property
    def in_kernel(self) -> bool:
        return self.sl.stop > self.sl.start

    def codes(self, block: UserBlock) -> np.ndarray:
        return block.items if self.column is None else block.cat_values[:, self.column]


class KernelLayout:
    """Mapping between schema entities, kernel latent coordinates and the
    latent tables; ``keys`` is the canonical flat-vector order: every table's
    two keys, then the point block, which ``points`` lists once as (key, per
    user) pairs.

    ``slices`` lists (name, kernel slice) for the item block and then each
    context in schema order; it is a list because a context may be named
    ``item``.  ``fixed_mask`` marks the pinned real-context coordinates, in
    schema order of the real contexts.  ``kernel_means``, ``bias_means``,
    ``kernel_vars``, ``bias_vars`` and ``variances`` name the ranges of the
    K entries a row reads (:meth:`VariationalState.row_entries`); every
    reader of those entries indexes them through these names.
    """

    def __init__(self, schema: ContextSchema, dims: ModelDims):
        item = slice(0, dims.item_dim)
        self.tables = [LatentTable("item_mean", "item_log_var", None, item, (schema.item_count + 1, dims.item_dim))]
        self.slices = [("item", item)]
        fixed = [False] * dims.item_dim
        for ctx in schema.contexts:
            width = dims.context_dim if ctx.is_categorical else 1
            sl = slice(len(fixed), len(fixed) + width)
            if ctx.is_categorical:
                j = len(self.tables) - 1
                self.tables.append(LatentTable(f"ctx_mean_{j}", f"ctx_log_var_{j}", j, sl,
                                               (ctx.cardinality + 1, dims.context_dim)))
            self.slices.append((ctx.name, sl))
            fixed += [not ctx.is_categorical] * width
        self.dim = len(fixed)
        self.fixed_mask = np.array(fixed, dtype=bool)

        # a step reads a per-user key at its user alone, any other key whole
        self.points = [("z", False), ("log_alpha", False), ("log_sigma2", True), ("log_beta", True)]
        if dims.use_mean:
            self.tables += [
                LatentTable(f"bias_{t.mean}", f"bias_{t.log_var}", t.column, slice(0, 0),
                            (t.shape[0], dims.item_bias_dim if t.column is None else dims.context_bias_dim))
                for t in self.tables
            ]
            self.points = [("real_weights", False), ("user_bias", True)] + self.points
        self.keys = [key for t in self.tables for key in (t.mean, t.log_var)] + [key for key, _ in self.points]

        # A row reads K entries of the tables: the means, then the
        # log-variances in the same order, kernel tables before bias tables in
        # each half.  Per entry, ``entries`` holds the block column it reads
        # (-1: items), its table's width and its flat position at code 0,
        # which the tables fix as they lead ``flat``.
        sizes = [t.shape[0] * t.shape[1] for t in self.tables]
        starts = np.cumsum([0] + [2 * size for size in sizes])
        # the tables' prefix of ``flat`` ends at ``table_end``; ``is_var``
        # marks its log-variance entries
        self.table_end = int(starts[-1])
        self.is_var = np.repeat(np.tile([False, True], len(sizes)), np.repeat(sizes, 2))
        self.entries = np.array([(-1 if t.column is None else t.column, t.shape[1], start + half * size + c)
                                 for half in (0, 1) for t, start, size in zip(self.tables, starts, sizes)
                                 for c in range(t.shape[1])]).T.copy()
        # the free kernel coordinates, as an index of a row's Q
        self.free = ~self.fixed_mask if self.fixed_mask.any() else slice(None)
        # ``bias_columns`` holds each bias table's columns within a bias range
        width, half = int(np.count_nonzero(~self.fixed_mask)), sum(t.shape[1] for t in self.tables)
        self.kernel_means, self.bias_means = slice(0, width), slice(width, half)
        self.kernel_vars, self.bias_vars = slice(half, half + width), slice(half + width, 2 * half)
        self.variances = slice(half, 2 * half)
        bounds = np.cumsum([0] + [t.shape[1] for t in self.tables if not t.in_kernel])
        self.bias_columns = [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def positions(self, rows: UserBlock, out=None) -> np.ndarray:
        """Flat positions of the (N, K) table entries ``rows`` read, written
        into ``out`` when it is given."""
        column, width, base = self.entries
        return np.add(np.column_stack([rows.cat_values, rows.items])[:, column] * width, base, out=out)


class _Param:
    """Attribute access to one entry of ``VariationalState.params``; assigning re-packs ``flat``."""

    def __set_name__(self, owner, name):
        self.key = name

    def __get__(self, state, owner=None):
        return self if state is None else state.params[self.key]

    def __set__(self, state, value):
        state._pack({**state.params, self.key: value})


class VariationalState:
    """All free parameters of the model; ``flat`` is mutated in place by training."""

    item_mean = _Param()
    item_log_var = _Param()
    z = _Param()
    log_alpha = _Param()
    log_sigma2 = _Param()
    log_beta = _Param()

    def __init__(self, schema: ContextSchema, dims: ModelDims, layout: KernelLayout, params):
        """Copies ``params[key]`` for every ``layout.keys`` key into a new flat vector."""
        self.schema = schema
        self.dims = dims
        self.layout = layout
        self._pack(params)

    def _pack(self, params) -> None:
        arrays = [np.asarray(params[key], dtype=float) for key in self.layout.keys]
        self.offsets = np.cumsum([0] + [a.size for a in arrays])
        self._shapes = [a.shape for a in arrays]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.params = self.views(self.flat)

    @classmethod
    def from_tables(cls, schema: ContextSchema, dims: ModelDims, tables) -> "VariationalState":
        """A state over copies of the arrays ``tables[key]`` for every ``param_entries`` key."""
        return cls(schema, dims, KernelLayout(schema, dims), tables)

    # -- structure ---------------------------------------------------------

    @property
    def kernel_dim(self) -> int:
        return self.layout.dim

    @property
    def inducing_count(self) -> int:
        return self.z.shape[0]

    def copy(self) -> "VariationalState":
        return self.from_vector(self.flat)

    def point_positions(self, users: np.ndarray) -> list:
        """Flat positions of the point block for ``users``, one array per
        ``layout.points`` key in flat order: a per-user key's at the users,
        any other key's whole."""
        starts = self.offsets[len(self.layout.keys) - len(self.layout.points) :]
        return [start + (users if per_user else np.arange(self.params[key].size))
                for (key, per_user), start in zip(self.layout.points, starts)]

    def key_at(self, index: int) -> str:
        """The key whose block holds flat entry ``index``."""
        return self.layout.keys[np.searchsorted(self.offsets, index, side="right") - 1]

    def row_entries(self, rows: UserBlock, gather=None) -> np.ndarray:
        """The (N, K) table entries ``rows`` read, in the order of
        ``layout.entries``: their means, then their variances.  ``gather``
        holds their flat positions when planned ahead (``layout.positions``)."""
        entries = self.flat[self.layout.positions(rows) if gather is None else gather]
        variances = entries[:, self.layout.variances]
        np.exp(variances, out=variances)
        return entries

    def assemble_rows(self, block: UserBlock, entries=None):
        """Per-row latent means and variances (N x Q) for one user block, from
        its :meth:`row_entries`.

        Real-context columns carry the observed standardized values with
        exactly zero variance.
        """
        entries = self.row_entries(block) if entries is None else entries
        layout = self.layout
        means, variances = entries[:, layout.kernel_means], entries[:, layout.kernel_vars]
        if layout.kernel_means.stop == layout.dim:    # nothing pinned: C-ordered copies
            return np.array(means, order="C"), np.array(variances, order="C")
        free = ~layout.fixed_mask
        mu, var = np.empty((block.count, self.kernel_dim)), np.zeros((block.count, self.kernel_dim))
        mu[:, free], var[:, free] = means, variances
        mu[:, ~free] = block.real_values
        return mu, var

    # -- flat packing --------------------------------------------------------

    def param_entries(self):
        """(key, array) pairs in the canonical flat-vector order."""
        return self.params.items()

    def views(self, vec: np.ndarray) -> dict:
        """Every key mapped to the reshaped slice of ``vec`` (a vector laid out
        like ``flat``) that holds it; no copy."""
        return {
            key: vec[start:stop].reshape(shape)
            for key, start, stop, shape in zip(self.layout.keys, self.offsets, self.offsets[1:], self._shapes)
        }

    def to_vector(self) -> np.ndarray:
        return self.flat.copy()

    def from_vector(self, vec: np.ndarray) -> "VariationalState":
        """A fresh state with parameters copied from ``vec`` (self unchanged)."""
        vec = np.asarray(vec)
        if vec.shape != self.flat.shape:
            raise ValueError(f"vector length {vec.size} does not match state size {self.flat.size}")
        out = copy.copy(self)
        out.flat = np.array(vec, dtype=float)
        out.params = out.views(out.flat)
        return out

    def zero_grads(self) -> tuple:
        """A zero gradient vector laid out like ``flat`` and its :meth:`views`."""
        flat = np.zeros_like(self.flat)
        return flat, self.views(flat)
