"""Training: state initialization, per-user SGD, and scaled conjugate gradients.

Both optimizers work on the unconstrained parameterization (positive
quantities as logs), the state's flat vector.  SGD visits users in a seeded
shuffled order and each step ascends the gradient of ``F_n - KL/N`` over the
entries touched by that user plus the shared slice (inducing inputs and
inverse length-scales); the KL gradient is shared out at weight 1/N per step.
Its per-user gradient comes from the same forward pass and scatter as the
full batch, on the user's one-user chunk of the blocks' plan
(:meth:`gplvmf.bound.Plan.steps`, which also holds the entries it steps).
SCG is full-batch on the negated total bound, following Moller's algorithm
with the scalar lambda regulator.  :func:`train` runs either method with one
trace and one early-stopping record.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bound import DEFAULT_JITTER, kl_gradient, kl_to_prior, plan, shared_factors, total_bound, _scatter, _user_terms
from .data import ContextSchema, UserBlock, check_field
from .meanfn import phi_backward  # noqa: F401  looked up here by perfbench's traced run
from .state import KernelLayout, ModelDims, VariationalState


class OptimizationError(RuntimeError):
    """Non-finite gradients or an unrecoverable optimizer breakdown."""


@dataclass
class TrainConfig:
    """Everything that shapes a training run; all randomness flows from ``seed``."""

    method: str = "sgd"                  # "sgd" or "scg"
    epochs: int = 150
    learning_rate: float = 0.02
    lr_decay: float = 0.998
    seed: int = 0
    inducing_count: int = 10
    item_dim: int = 2
    context_dim: int = 2
    item_bias_dim: int = 1
    context_bias_dim: int = 1
    use_mean: bool = True
    init_mean_scale: float = 0.1
    init_variance: float = 0.5
    tolerance: float = 1e-6
    patience: int = 20
    clip_norm: float = 100.0
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        if self.method not in ("sgd", "scg"):
            raise ValueError(f"unknown optimization method {self.method!r}")
        # A fractional count or a string fails only later, in range() or
        # np.empty; a negative clip_norm or lr_decay steps down the bound; and
        # a non-positive variance or jitter fails only later, as a non-finite
        # gradient or a failed factorization.
        for name, integer, bound, strict, note in (
            ("epochs", True, 1, False, ""),
            ("seed", True, 0, False, ""),
            ("patience", True, 1, False, ""),
            ("learning_rate", False, 0, False, ""),
            ("lr_decay", False, 0, True, ""),
            ("init_mean_scale", False, 0, False, ""),
            ("init_variance", False, 0, True, ""),
            ("tolerance", False, 0, False, ""),
            ("clip_norm", False, 0, False, " (0 turns clipping off)"),
            ("jitter", False, 0, True, ""),
        ):
            check_field(name, getattr(self, name), integer, bound, strict, note)
        self.dims()  # checks the model dimensions

    def dims(self) -> ModelDims:
        return ModelDims(**{f.name: getattr(self, f.name) for f in fields(ModelDims)})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TraceRow:
    step: int
    bound: float
    val_mae: float
    val_rmse: float
    seconds: float


@dataclass
class TrainTrace:
    """Per-epoch (SGD) or per-iteration (SCG) progress, writable as CSV.

    ``bound_column`` names what each row's ``bound`` holds, and heads that
    CSV column: ``"bound"``, the exact bound at an SCG iterate, or
    ``"bound_estimate"``, SGD's running estimate over an epoch
    (:func:`sgd_epoch`).
    """

    bound_column: str = "bound"
    rows: list = field(default_factory=list)

    def append(self, step, bound, val_mae=float("nan"), val_rmse=float("nan"), seconds=0.0):
        self.rows.append(TraceRow(step, float(bound), float(val_mae), float(val_rmse), float(seconds)))

    def bounds(self) -> np.ndarray:
        return np.array([r.bound for r in self.rows])

    def write_csv(self, path) -> None:
        lines = [f"step,{self.bound_column},val_mae,val_rmse,seconds"]
        for r in self.rows:
            lines.append(f"{r.step},{r.bound!r},{r.val_mae!r},{r.val_rmse!r},{r.seconds!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def init_state(schema: ContextSchema, blocks: list, config: TrainConfig) -> VariationalState:
    """Deterministic starting point.

    Free latent means start near zero (N(0, init_mean_scale^2)), variances at
    ``init_variance``; the trailing "unknown" row of every entity table sits
    exactly at the prior.  Inducing inputs are sampled from the assembled row
    means with small jitter.  Per-user: sigma2 = beta = 1 and the bias starts
    at the user's mean rating.  alpha starts uniform at 1/Q.
    """
    rng = np.random.default_rng(config.seed)
    dims = config.dims()
    layout = KernelLayout(schema, dims)
    log_v0 = np.log(config.init_variance)

    tables = {}
    for t in layout.tables:
        entities = t.shape[0] - 1
        mean = np.zeros(t.shape)
        mean[:entities] = rng.normal(0.0, config.init_mean_scale, size=(entities, t.shape[1]))
        log_var = np.full(t.shape, log_v0)
        log_var[entities] = 0.0  # unknown row: exact prior
        tables[t.mean], tables[t.log_var] = mean, log_var
    if dims.use_mean:
        all_mean = np.mean(np.concatenate([b.ratings for b in blocks])) if blocks else 0.0
        user_bias = np.full(schema.user_count, all_mean)
        # one row mean per user, over a stack of every block of the same
        # count: each row sums as the block's own mean would, bit for bit
        by_count = {}
        for b in blocks:
            by_count.setdefault(b.count, []).append(b)
        for same in by_count.values():
            user_bias[[b.user for b in same]] = np.stack([b.ratings for b in same]).mean(axis=1)
        tables["real_weights"] = np.zeros(len(schema.real_indices))
        tables["user_bias"] = user_bias
    q = layout.dim
    tables["z"] = np.empty((dims.inducing_count, q))
    tables["log_alpha"] = np.full(q, -np.log(q))
    tables["log_sigma2"] = np.zeros(schema.user_count)
    tables["log_beta"] = np.zeros(schema.user_count)
    state = VariationalState.from_tables(schema, dims, tables)

    # inducing inputs: mean rows of randomly chosen rating rows, plus jitter
    starts = np.cumsum([0] + [blk.count for blk in blocks])
    z = state.z
    if starts[-1]:
        picks = rng.choice(starts[-1], size=dims.inducing_count, replace=starts[-1] < dims.inducing_count)
        picked = [(blocks[b], pick - starts[b]) for b, pick in zip(np.searchsorted(starts, picks, "right") - 1, picks)]
        z[:] = state.assemble_rows(UserBlock(0, *(np.array([blk[f][t] for blk, t in picked]) for f in range(1, 5))))[0]
    z += rng.normal(0.0, 0.05, size=z.shape)
    return state


def _non_finite(what: str, state: VariationalState, i: int, user: int) -> OptimizationError:
    return OptimizationError(f"non-finite {what} in parameter block {state.key_at(i)!r} while processing user {user}")


def sgd_epoch(
    blocks: list,
    state: VariationalState,
    config: TrainConfig,
    epoch_index: int,
) -> tuple[VariationalState, float]:
    """One seeded shuffled pass over all users; mutates and returns ``state``.

    A step gathers the entries of ``state.flat`` the user touches
    (:meth:`gplvmf.bound.Plan.steps`), checks those of the point block
    (log-parameters finite under exp, the others finite), sums the user's
    gradient onto them with one ``np.bincount``, subtracts the 1/N KL share
    on the latent-table entries, clips it over those entries (each counted
    once) and steps them, so no step reads an entry its user does not touch.
    A non-finite value or squared norm names the first bad entry's block.
    Returns the running bound estimate: the per-user terms as they were
    computed during the pass, minus the KL at the end of the epoch.
    """
    n_users = len(blocks)
    rng = np.random.default_rng([config.seed, 7919, epoch_index])
    order = rng.permutation(n_users)
    lr = config.learning_rate * config.lr_decay**epoch_index
    steps = plan(blocks, state).steps(state)
    pflat = state.flat
    # a step's point entries follow its latent-table ones, in the layout's order
    points, cap = state.layout.points, np.log(np.finfo(float).max)
    logs = np.repeat([key.startswith("log_") for key, _ in points],
                     [1 if per_user else state.params[key].size for key, per_user in points])
    value_sum = 0.0

    for bi in order:
        chunk, idx, local, is_var = steps[bi]
        p = pflat[idx]
        ok = np.where(logs, p[is_var.size :] <= cap, np.isfinite(p[is_var.size :]))
        if not ok.all():
            raise _non_finite("value", state, idx[is_var.size + np.argmin(ok)], chunk.rows.user)
        shared = shared_factors(state, config.jitter)
        terms = _user_terms(chunk, state, shared, want_gradients=True)
        value_sum += terms.value[0]
        g = np.bincount(local, _scatter(state, chunk, terms), minlength=idx.size)
        g[: is_var.size] -= kl_gradient(p[: is_var.size], is_var) / n_users
        norm2 = g @ g
        if not np.isfinite(norm2) and not np.isfinite(g).all():
            raise _non_finite("gradient", state, idx[np.argmin(np.isfinite(g))], chunk.rows.user)
        scale = lr
        norm = np.sqrt(norm2)
        if config.clip_norm and norm > config.clip_norm:
            scale = lr * config.clip_norm / norm
        pflat[idx] += scale * g

    return state, value_sum - kl_to_prior(state)


@dataclass
class ScgResult:
    x: np.ndarray
    f: float
    iterations: int
    converged: bool
    reason: str


# Moller's curvature probe step and starting lambda
SCG_SIGMA0 = 1e-7
SCG_LAMBDA0 = 1e-8


def scg_minimize(
    fun,
    x0: np.ndarray,
    max_iters: int = 500,
    grad_tol: float = 1e-6,
    callback=None,
) -> ScgResult:
    """Scaled conjugate gradients (Moller, 1993) on ``fun(x) -> (f, grad)``.

    The curvature along the search direction is probed with one extra
    gradient evaluation per successful step; the lambda regulator keeps the
    effective quadratic model positive definite.  On a line-scale collapse
    (non-finite trial or lambda overflow) the direction is restarted from
    steepest descent once, then the run aborts.  ``callback(k, x, f,
    accepted)`` runs after every iteration; a true return stops the run
    with reason ``"early stop"``.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    f, g = fun(x)
    if not np.isfinite(f):
        raise OptimizationError("objective not finite at the starting point")
    r = -g
    p = r.copy()
    lam, lam_bar = SCG_LAMBDA0, 0.0
    success = True
    delta = 0.0
    s = np.zeros(n)
    restarted = False
    reason = "max iterations"
    converged = False
    k = 0

    while k < max_iters:
        k += 1
        pp = float(p @ p)
        if pp == 0.0 or not np.isfinite(pp):
            converged, reason = True, "search direction vanished"
            k -= 1
            break
        if success:
            sigma = SCG_SIGMA0 / np.sqrt(pp)
            _, g_trial = fun(x + sigma * p)
            s = (g_trial - g) / sigma
            delta = float(p @ s)
        delta_k = delta + (lam - lam_bar) * pp
        if delta_k <= 0:
            lam_bar = 2.0 * (lam - delta_k / pp)
            delta_k = -delta_k + lam * pp
            lam = lam_bar
        mu = float(p @ r)
        alpha = mu / delta_k
        x_trial = x + alpha * p
        f_trial, g_trial = fun(x_trial)
        comparison = 2.0 * delta_k * (f - f_trial) / mu**2 if mu != 0 else -1.0

        collapse = not np.isfinite(f_trial) or not np.isfinite(comparison)
        if not collapse and comparison >= 0:
            x, f, g = x_trial, f_trial, g_trial
            r_new = -g
            lam_bar = 0.0
            success = True
            if k % n == 0:
                p = r_new.copy()
            else:
                beta_cg = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta_cg * p
            r = r_new
            if comparison >= 0.75:
                lam = max(0.25 * lam, 1e-300)
            accepted = True
        else:
            lam_bar = lam
            success = False
            accepted = False
        if not collapse and comparison < 0.25:
            lam = lam + delta_k * (1.0 - comparison) / pp

        if callback is not None and callback(k, x, f, accepted):
            reason = "early stop"
            break

        if collapse or lam > 1e100:
            if restarted:
                reason = "line-scale collapse"
                break
            restarted = True
            lam, lam_bar = SCG_LAMBDA0, 0.0
            p = r.copy()
            success = True
            continue
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            converged, reason = True, "gradient tolerance reached"
            break

    return ScgResult(x=x, f=f, iterations=k, converged=converged, reason=reason)


def train(
    blocks: list,
    state: VariationalState,
    config: TrainConfig,
    validation=None,
) -> tuple[VariationalState, TrainTrace]:
    """Run ``config.method`` for at most ``config.epochs`` steps from ``state``.

    A step is an SGD epoch (:func:`sgd_epoch`, which mutates ``state``) or
    one SCG iteration on the negated :func:`total_bound` over the flat
    vector.  ``validation``, when given, is a callable ``state -> (mae,
    rmse)``, run after every SGD epoch and after every accepted SCG
    iteration (a rejected one does not move the iterate, and its trace row
    keeps NaN validation columns).  The run then returns the best-MAE state
    and stops after ``config.patience`` validations that do not improve it.
    """
    trace = TrainTrace(bound_column="bound_estimate" if config.method == "sgd" else "bound")
    t0 = time.perf_counter()
    best_mae, best, since = np.inf, None, 0

    def record(step, bound, current) -> bool:
        """Trace one step, validating ``current`` unless it is None; true
        once patience has run out."""
        nonlocal best_mae, best, since
        val_mae = val_rmse = float("nan")
        if validation is not None and current is not None:
            val_mae, val_rmse = validation(current)
            if val_mae < best_mae - 1e-12:
                best_mae, best, since = val_mae, current.copy(), 0
            else:
                since += 1
        trace.append(step, bound, val_mae, val_rmse, time.perf_counter() - t0)
        return since >= config.patience

    if config.method == "sgd":
        for epoch in range(config.epochs):
            state, estimate = sgd_epoch(blocks, state, config, epoch)
            if record(epoch, estimate, state):
                break
    else:
        def objective(vec):
            report = total_bound(blocks, state.from_vector(vec), jitter=config.jitter, want_gradients=True)
            return -report.total, -report.gradients

        result = scg_minimize(
            objective,
            state.to_vector(),
            max_iters=config.epochs,
            grad_tol=config.tolerance,
            callback=lambda k, vec, f, accepted: record(k, -f, state.from_vector(vec) if accepted else None),
        )
        state = state.from_vector(result.x)
    return (state if best is None else best), trace
