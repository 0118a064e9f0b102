#!/usr/bin/env python3
"""Benchmark of gplvmf: SGD training, the full-batch bound under SCG, and prediction.

    python3 perfbench/run.py --workload many_small --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) in this process against the
package under ``src/`` of the checkout it sits in.  It makes its inputs
from ``--seed``, trains the reported model with fixed seeds and a fixed
epoch count, checks the outputs (``checks.py``), then measures for
``--seconds`` seconds in whole rounds; each round runs every phase once, so
a slow spell on the host spreads over every metric instead of landing on
one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record (environment, seeds, operations per phase, samples, each
metric's estimator and spread, check details) goes to
``perfbench/out/<workload>-s<seed>-t<trace>-<pid>/result.json``, and the
traced run's spans to ``trace.json`` beside it.

BLAS threading is left at the program's default and recorded, because its
cost is part of what is measured.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One round runs every phase once: SETUP_PER_ROUND set-ups, one SGD epoch,
# one SCG iteration from the fixed state, one prediction batch and
# LATENCY_PER_ROUND warm predictions.  Rounds are kept short (1-2 s) so that
# the host's brief fast spells hold whole rounds.
SETUP_PER_ROUND = 2
LATENCY_PER_ROUND = 1000
# Minimum rounds per run, whatever --seconds says.
MIN_ROUNDS = 8
# Traced runs only: pairs of total_bound calls with and without the spans per
# round, to measure what the spans cost.
OVERHEAD_PAIRS = 3
# Set-ups are repeated until the middle half of their samples lies within
# this share of the median, or until TOP_UP_LIMIT more rounds of set-ups.
SHORT_PHASE_SPREAD = 0.10
TOP_UP_LIMIT = 10
# Every timing is reported as mean(samples) * HOST_REF / mean(host probes
# next to them): the host switches between a fast and a ~1.5x slower state
# for seconds to minutes at a time, and the probe's time follows it (README,
# "Host drift").  HOST_REF is the probe's time in the fast state of the
# reference host.
HOST_REF = 0.85e-3


def import_program():
    """Import gplvmf from this checkout's ``src/``; any other copy is refused."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gplvmf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gplvmf from {src}: {exc}")
    if Path(gplvmf.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported gplvmf from {gplvmf.__file__}, not from {src}")
    return gplvmf


# ---------------------------------------------------------------------------
# environment


def blas_libraries():
    """Every OpenBLAS mapped into this process, with its configuration and
    thread count, read through the library's own entry points."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("", "64_"):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                entry["threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
        found.append(entry)
    return found


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# host speed

_PROBE_ROW = [float(i) for i in range(64)]


def host_probe():
    """Seconds taken by a fixed piece of interpreter and small-array work
    that uses no BLAS; timed next to every sample to tell how fast the host
    ran at that moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    row = np.asarray(_PROBE_ROW)
    for _ in range(100):
        np.exp(-0.5 * row * row).sum()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# bookkeeping


class Ops:
    """Operations attempted and failed, per phase.  A failed output check
    fails its operation.  An error raised by the program ends the run with
    its traceback: no operation of these workloads is expected to raise."""

    def __init__(self):
        self.phases: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def record(self, phase: str, ok: bool = True, detail: str = ""):
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += 1
        if not ok:
            counts[1] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{phase}: {detail}")

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


class Checks:
    """Outcome of every output check, counted into the operations."""

    def __init__(self, ops: Ops):
        self.ops = ops
        self.results: dict[str, dict] = {}

    def __call__(self, name: str, phase: str, outcome) -> bool:
        ok, detail = outcome
        self.ops.record(phase, ok, f"check {name} failed: {detail}")
        entry = self.results.setdefault(name, {"passed": 0, "failed": 0, "detail": detail})
        entry["passed" if ok else "failed"] += 1
        if not ok:
            entry["detail"] = detail
        return ok

    @property
    def all_passed(self) -> bool:
        return all(r["failed"] == 0 for r in self.results.values())


class Tracer:
    """Spans (id, name, parent, start, end) kept in memory and written at the end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def _span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, parent, start, end)

    def span(self, name):
        return self._span(name) if self.enabled else nullcontext()

    def write(self, path):
        path.write_text(
            json.dumps(
                [{"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4]} for s in self.spans]
            )
        )


def spread(samples):
    """Distance between the first and third quartile, as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------------------
# the run


class Run:
    """One workload in this process: its inputs, the reported model, the
    rounds and their samples."""

    def __init__(self, g, workload, seed, seconds, traced, work):
        from workloads import make_inputs

        self.g, self.wl, self.seed, self.seconds = g, workload, seed, seconds
        self.tracer = Tracer(traced)
        self.ops = Ops()
        self.check = Checks(self.ops)
        self.cfg = workload.train_config()
        self.samples: dict[str, list[float]] = {}   # raw seconds (or counts)
        self.hosts: dict[str, list[float]] = {}     # host probe seconds next to each sample
        self.probes: list[float] = []

        self.inputs = make_inputs(workload, seed)
        self.schema = self.inputs.train.schema
        self.data_path = work / "ratings.csv"
        self.model_path = work / "model.npz"
        g.save_table(self.inputs.train, self.data_path)
        held = self.inputs.heldout
        self.queries = list(zip(held.users.tolist(), held.items.tolist(), self.inputs.query_contexts))

    def add(self, key, value, host=HOST_REF):
        self.samples.setdefault(key, []).append(value)
        self.hosts.setdefault(key, []).append(host)

    def probed(self, fn):
        """``fn()`` between two host probes: its result and the mean probe."""
        p0 = host_probe()
        out = fn()
        p1 = host_probe()
        self.probes += [p0, p1]
        return out, 0.5 * (p0 + p1)

    # -- preparation: the reported model and the one-off checks -------------

    def train_reported_model(self):
        from gplvmf.model import TrainedModel

        g, cfg = self.g, self.cfg
        table = g.load_table(self.data_path, self.schema)
        blocks = g.group_by_user(table)
        state = g.init_state(self.schema, blocks, cfg)
        for epoch in range(cfg.epochs):
            g.sgd_epoch(blocks, state, cfg, epoch)
        self.ops.record("train", True)
        self.blocks, self.state = blocks, state
        self.model = TrainedModel(state=state, table=table, config=cfg, rating_scale=table.rating_range)
        g.save_model(self.model, self.model_path)

    def prepare_checks(self):
        g, state, blocks = self.g, self.state, self.blocks
        rng = np.random.default_rng([self.seed, 29])

        # Psi1/Psi2 for a sample of rows of three users, against the closed form.
        alpha = np.exp(state.log_alpha)
        for bi in rng.choice(len(blocks), size=min(3, len(blocks)), replace=False):
            block = blocks[bi]
            rows = rng.choice(block.count, size=min(4, block.count), replace=False)
            mu, var = state.assemble_rows(block)
            sigma2 = float(np.exp(state.log_sigma2[block.user]))
            stats = g.psi_statistics(g.ArdKernel(sigma2, alpha), g.LatentPoints(mu[rows], var[rows]), state.z)
            self.check("psi_closed_form", "kernels", checks.check_psi(
                stats.psi1, stats.psi2, mu[rows], var[rows], state.z, alpha, sigma2))

        # Directional derivative of total_bound on three users' blocks.
        sub = [blocks[i] for i in rng.choice(len(blocks), size=min(3, len(blocks)), replace=False)]
        x = state.to_vector()
        direction = rng.standard_normal(x.size)
        direction /= np.linalg.norm(direction)
        report = g.total_bound(sub, state, jitter=self.cfg.jitter, want_gradients=True)
        self.check("bound_directional_derivative", "bound", checks.check_directional_derivative(
            lambda v: g.total_bound(sub, state.from_vector(v), jitter=self.cfg.jitter, want_gradients=False).total,
            report.gradients, x, direction))

        # In-memory model: held-out RMSE, predict_rows against predict, variance ranges.
        users, items, contexts = zip(*self.queries)
        pred = self.model.predictor()
        means, variances, clamped = pred.predict_rows(users, items, contexts)
        single = [pred.predict(u, i, c) for u, i, c in self.queries]
        self.check("predict_rows_equals_predict", "predict", checks.check_identical(
            "predict_rows vs predict",
            np.concatenate([means, variances, clamped]),
            np.array([p.mean for p in single] + [p.variance for p in single] + [p.clamped_mean for p in single])))
        sigma2 = np.exp(state.log_sigma2[list(users)])
        self.check("variance_range", "predict", checks.check_variance_range(variances, sigma2))
        _, noisy, _ = pred.predict_rows(users, items, contexts, include_noise=True)
        self.check("variance_range_with_noise", "predict", checks.check_variance_range(
            noisy, sigma2, 1.0 / np.exp(state.log_beta[list(users)])))
        self.memory_predictions = np.concatenate([means, variances])
        self.sigma2_per_query = sigma2

        held, train = self.inputs.heldout, self.inputs.train
        self.heldout_rmse = float(np.sqrt(np.mean((clamped - held.ratings) ** 2)))
        self.baseline_rmse = checks.per_user_mean_rmse(train.users, train.ratings, held.users, held.ratings)
        self.check("heldout_rmse_beats_baseline", "predict",
                   checks.check_beats_baseline(self.heldout_rmse, self.baseline_rmse))

    # -- one round: every phase once ----------------------------------------

    def setup_once(self):
        g, span = self.g, self.tracer.span

        def setup():
            t0 = time.perf_counter()
            with span("setup"):
                with span("data.load_table"):
                    table = g.load_table(self.data_path, self.schema)
                with span("data.group_by_user"):
                    blocks = g.group_by_user(table)
                with span("optim.init_state"):
                    g.init_state(self.schema, blocks, self.cfg)
            return time.perf_counter() - t0

        wall, host = self.probed(setup)
        self.add("setup_s", wall, host)
        self.ops.record("setup", True)

    def sgd_once(self, epoch):
        def epoch_pass():
            t0, c0 = time.perf_counter(), time.process_time()
            with self.tracer.span("optim.sgd_epoch"):
                self.g.sgd_epoch(self.blocks, self.sgd_state, self.cfg, epoch)
            return time.perf_counter() - t0, time.process_time() - c0

        (wall, cpu), host = self.probed(epoch_pass)
        self.add("sgd_epoch_s", wall, host)
        self.add("sgd_epoch_cpu_s", cpu, host)
        self.ops.record("sgd", True)

    def scg_once(self):
        g, blocks, template, jitter = self.g, self.blocks, self.state, self.cfg.jitter
        span = self.tracer.span
        calls = [0]
        marks = []      # end of the starting evaluation, then end of every iteration

        def objective(vec):
            calls[0] += 1
            report = g.total_bound(blocks, template.from_vector(vec), jitter=jitter, want_gradients=True)
            if calls[0] == 1:
                marks.append(time.perf_counter())
            return -report.total, -report.gradients

        history = []

        def on_iteration(k, x, f, accepted):
            marks.append(time.perf_counter())
            history.append((f, accepted))

        def minimize():
            with span("optim.scg_minimize"):
                return g.scg_minimize(objective, self.scg_x0, max_iters=1, callback=on_iteration)

        result, host = self.probed(minimize)
        for a, b in zip(marks, marks[1:]):
            self.add("scg_iter_s", b - a, host)
        self.add("scg_evals_per_iter", (calls[0] - 1) / max(result.iterations, 1))
        self.check("scg_monotone", "scg", checks.check_scg_monotone(self.scg_f0, history))

    def predict_batch_once(self, first):
        g, span = self.g, self.tracer.span
        users, items, contexts = zip(*self.queries)

        def batch():
            t0 = time.perf_counter()
            with span("predict.batch"):
                with span("model.load_model"):
                    model = g.load_model(self.model_path)
                with span("predict.predictor"):
                    pred = model.predictor()
                with span("predict.predict_rows"):
                    means, variances, _ = pred.predict_rows(users, items, contexts)
            return time.perf_counter() - t0, pred, means, variances

        (wall, pred, means, variances), host = self.probed(batch)
        self.add("predict_batch_s", wall, host)
        ok = self.check("variance_range", "predict_batch",
                        checks.check_variance_range(variances, self.sigma2_per_query))
        if first and ok:
            self.check("loaded_model_identical", "predict_batch", checks.check_identical(
                "loaded vs in-memory model", self.memory_predictions, np.concatenate([means, variances])))
        return pred

    def latency_once(self, pred, start):
        span, queries = self.tracer.span, self.queries

        def closed_loop():
            lat = []
            for j in range(start, start + LATENCY_PER_ROUND):
                u, i, c = queries[j % len(queries)]
                t0 = time.perf_counter()
                with span("predict.predict"):
                    pred.predict(u, i, c)
                lat.append(time.perf_counter() - t0)
            return lat

        lat, host = self.probed(closed_loop)
        q = statistics.quantiles(lat, n=100)
        self.add("predict_p50_s", q[49], host)
        self.add("predict_p99_s", q[98], host)
        for _ in lat:
            self.ops.record("predict_query", True)

    def rounds(self):
        self.sgd_state = self.state.copy()
        self.scg_x0 = self.state.to_vector()
        self.scg_f0 = -self.g.total_bound(self.blocks, self.state, jitter=self.cfg.jitter, want_gradients=False).total
        layers = Layers(self) if self.tracer.enabled else None
        t_start = time.perf_counter()
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() - t_start < self.seconds:
            p0 = host_probe()
            with self.tracer.span("round"):
                for _ in range(SETUP_PER_ROUND):
                    self.setup_once()
                self.sgd_once(self.cfg.epochs + r)
                self.scg_once()
                pred = self.predict_batch_once(first=r == 0)
                self.latency_once(pred, r * LATENCY_PER_ROUND)
                if layers is not None:
                    layers.round(r)
            self.add("round_host", 0.5 * (p0 + host_probe()))
            r += 1
        self.round_count = r
        self.measure_seconds = time.perf_counter() - t_start
        top_up = 0
        while spread(self.calibrated("setup_s")) > SHORT_PHASE_SPREAD and top_up < TOP_UP_LIMIT:
            for _ in range(SETUP_PER_ROUND):
                self.setup_once()
            top_up += 1
        self.setup_top_up = top_up
        return layers

    # -- results --------------------------------------------------------------

    def calibrated(self, key):
        """Each sample scaled by HOST_REF over the probe next to it."""
        return [v * HOST_REF / h for v, h in zip(self.samples[key], self.hosts[key])]

    def estimate(self, key, unit, per=None, scale=1.0):
        """mean(samples) * HOST_REF / mean(probes next to them): the ratio of
        means weighs every sample by its length, so a slow or fast spell
        counts for the time it lasted.  ``per`` turns seconds into a rate."""
        raw, hosts = self.samples[key], self.hosts[key]
        value = statistics.fmean(raw) * HOST_REF / statistics.fmean(hosts) * scale
        return {
            "value": per / value if per else value, "unit": unit,
            "estimator": "mean of samples x HOST_REF / mean of host probes", "samples": len(raw),
            "spread": spread(self.calibrated(key)),
            "raw_median": statistics.median(raw) * scale, "raw_min": min(raw) * scale,
        }

    def end_to_end(self):
        n_ratings, n_queries = len(self.inputs.train), len(self.queries)
        return {
            "setup_s": self.estimate("setup_s", "s"),
            "sgd_ratings_per_s": self.estimate("sgd_epoch_s", "ratings/s", per=n_ratings),
            "sgd_epoch_cpu_s": self.estimate("sgd_epoch_cpu_s", "s"),
            "scg_iter_s": self.estimate("scg_iter_s", "s"),
            "predict_batch_qps": self.estimate("predict_batch_s", "queries/s", per=n_queries),
            # Percentiles of each round's 1000 latencies (10 lie beyond the p99).
            "predict_p50_ms": self.estimate("predict_p50_s", "ms", scale=1e3),
            # The tail does not follow the host's speed state, so calibration
            # does not steady it; recorded only, not in BENCHMARK.json (README).
            "predict_p99_ms": {"value": statistics.median(self.samples["predict_p99_s"]) * 1e3, "unit": "ms",
                               "estimator": "median over rounds of the raw p99",
                               "samples": len(self.samples["predict_p99_s"]),
                               "spread": spread(self.samples["predict_p99_s"])},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "estimator": "ru_maxrss"},
            "heldout_rmse": {"value": self.heldout_rmse, "unit": "rating", "estimator": "clamped predictions",
                             "baseline": self.baseline_rmse},
        }

    def host(self):
        """How fast the host ran during the run, from every probe taken."""
        p = self.probes
        return {"probe_median_ms": statistics.median(p) * 1e3, "probe_min_ms": min(p) * 1e3,
                "fast_share": sum(v <= 1.2 * HOST_REF for v in p) / len(p), "probes": len(p)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Layers:
    """Per-layer spans of the traced run.  While the run lasts, the names that
    ``bound``, ``optim`` and ``predict`` look up are wrapped in spans, so each
    layer is timed inside the very ``total_bound``, ``sgd_epoch`` and
    ``Predictor`` calls the run makes, and a layer's time is the sum of its
    spans under the call it belongs to."""

    WRAP = {
        "bound": {"_PsiCache": "kernels.psi_statistics", "psi_backward": "kernels.psi_backward",
                  "phi_statistics": "meanfn.phi", "phi_backward": "meanfn.phi",
                  "shared_factors": "bound.shared_factors"},
        "optim": {"_user_terms": "bound.user_terms", "phi_backward": "meanfn.phi",
                  "shared_factors": "bound.shared_factors"},
        "predict": {"user_posterior": "predict.user_posterior"},
    }

    def __init__(self, run: Run):
        import importlib

        self.run = run
        self.originals = []     # (module, attribute, original, span name)
        self.overhead = []      # per round: traced / untraced forward-backward time
        for module_name, names in self.WRAP.items():
            module = importlib.import_module(f"gplvmf.{module_name}")
            for attr, span_name in names.items():
                self.originals.append((module, attr, getattr(module, attr), span_name))
        self.install()

    def install(self):
        span = self.run.tracer.span

        def wrapped(original, name):
            def call(*args, **kwargs):
                with span(name):
                    return original(*args, **kwargs)
            return call

        for module, attr, original, name in self.originals:
            setattr(module, attr, wrapped(original, name))

    def close(self):
        for module, attr, original, _ in self.originals:
            setattr(module, attr, original)

    def round(self, r):
        run, g, span = self.run, self.run.g, self.run.tracer.span
        state, blocks, jitter = run.state, run.blocks, run.cfg.jitter
        with span("bound.forward"):
            g.total_bound(blocks, state, jitter=jitter, want_gradients=False)

        # total_bound with gradients, OVERHEAD_PAIRS times with the spans and
        # as often without them, in pairs that take turns at going first: the
        # traced calls are the layers' figures, and traced / untraced is the
        # tracing overhead.
        for k in range(OVERHEAD_PAIRS):
            times = {}
            for traced in ((True, False) if (r + k) % 2 else (False, True)):
                if not traced:
                    self.close()
                    run.tracer.enabled = False
                t0 = time.perf_counter()
                with span("bound.forward_backward"):
                    g.total_bound(blocks, state, jitter=jitter, want_gradients=True)
                times[traced] = time.perf_counter() - t0
                if not traced:
                    run.tracer.enabled = True
                    self.install()
            self.overhead.append(times[True] / times[False])
        for _ in range(10):
            with span("state.vector_roundtrip"):
                state.from_vector(state.to_vector())

    def metrics(self):
        """Each layer per round, scaled by the round's host probe, then the
        median over rounds."""
        run = self.run
        med = statistics.median
        spans = run.tracer.spans
        children = [0.0] * len(spans)     # per span: time of its direct children
        for sid, name, parent, start, end in spans:
            if parent is not None:
                children[parent] += end - start
        rounds = []         # per round: name -> durations, (name, call) -> durations, name -> self times
        for sid, name, parent, start, end in spans:
            if name == "round":
                rounds.append({})
                continue
            if not rounds:
                continue
            d = rounds[-1]
            d.setdefault(name, []).append(end - start)
            d.setdefault(("self", name), []).append(end - start - children[sid])
            # the nearest enclosing call this layer belongs to
            while parent is not None and spans[parent][1] not in CALLS:
                parent = spans[parent][2]
            if parent is not None:
                d.setdefault((name, spans[parent][1]), []).append(end - start)

        def layers_of(d, scale):
            def under(name, call):
                return sum(d.get((name, call), [0.0])) * scale

            calls = len(d["bound.forward_backward"])
            psi_f = under("kernels.psi_statistics", "bound.forward_backward") / calls
            psi_b = under("kernels.psi_backward", "bound.forward_backward") / calls
            phi = under("meanfn.phi", "bound.forward_backward") / calls
            return {
                "data.load_table_s": med(d["data.load_table"]) * scale,
                "data.group_by_user_s": med(d["data.group_by_user"]) * scale,
                "optim.init_state_s": med(d["optim.init_state"]) * scale,
                "kernels.psi_forward_s": psi_f,
                "kernels.psi_backward_s": psi_b,
                "meanfn.phi_s": phi,
                "bound.shared_factors_ms": med(d[("bound.shared_factors", "optim.sgd_epoch")]) * scale * 1e3,
                "bound.forward_s": d["bound.forward"][0] * scale,
                "bound.forward_backward_s": med(d["bound.forward_backward"]) * scale,
                # The bound's own work: the whitened solves, the gram backward and the scatter.
                "bound.self_s": med(d[("self", "bound.forward_backward")]) * scale,
                "optim.sgd_epoch_s": d["optim.sgd_epoch"][0] * scale,
                # SGD's own work: the per-step compaction, KL share, clipping and update.
                "optim.sgd_self_s": d[("self", "optim.sgd_epoch")][0] * scale,
                "state.vector_roundtrip_ms": med(d["state.vector_roundtrip"]) * scale * 1e3,
                "predict.posterior_build_ms": med(d["predict.user_posterior"]) * scale * 1e3,
                "predict.posterior_builds": len(d[("predict.user_posterior", "predict.batch")]),
                "predict.query_ms": med(d["predict.predict"]) * scale * 1e3,
                "model.load_s": d["model.load_model"][0] * scale,
            }

        per_round = [layers_of(d, HOST_REF / h) for d, h in zip(rounds, run.samples["round_host"])]
        units = {"_s": "s", "_ms": "ms"}
        out = {}
        for name in per_round[0]:
            unit = "count" if name == "predict.posterior_builds" else units[name[name.rindex("_"):]]
            out[name] = {"value": med(r[name] for r in per_round), "unit": unit}
        out["optim.scg_evals_per_iter"] = {"value": med(run.samples["scg_evals_per_iter"]), "unit": "count"}
        out["work.ratings"] = {"value": len(run.inputs.train), "unit": "count"}
        out["work.users"] = {"value": len(run.blocks), "unit": "count"}
        out["work.queries"] = {"value": len(run.queries), "unit": "count"}
        out["trace.overhead_pct"] = {
            "value": 100.0 * (med(self.overhead) - 1.0), "unit": "%",
            "estimator": "median of traced / untraced total_bound pairs, minus 1",
            "samples": len(self.overhead), "spread": spread(self.overhead)}
        return out


# The calls a layer's span is attributed to: its nearest enclosing one.
CALLS = {"bound.forward", "bound.forward_backward", "optim.sgd_epoch", "optim.scg_minimize", "predict.batch"}


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    g = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)

    work = OUT / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    t_begin = time.perf_counter()
    try:
        run = Run(g, wl, args.seed, args.seconds, traced, work)
        run.train_reported_model()
        run.prepare_checks()
        layers = run.rounds()
        if layers is not None:
            layers.close()
            metrics = layers.metrics()
            run.tracer.write(work / "trace.json")
        else:
            metrics = run.end_to_end()
    finally:
        for name in ("ratings.csv", "model.npz"):
            (work / name).unlink(missing_ok=True)

    record = {
        "workload": wl.name,
        "traced": traced,
        "environment": environment(),
        "seeds": {"ratings": args.seed, "truth": wl.spec.seed, "train": run.cfg.seed,
                  "checks": [args.seed, 29], "sgd_order": [run.cfg.seed, 7919, "epoch"]},
        "shape": {"users": len(run.blocks), "train_ratings": len(run.inputs.train),
                  "queries": len(run.queries), "inducing": wl.inducing_count,
                  "kernel_dim": run.state.kernel_dim},
        "rounds": run.round_count,
        "setup_top_up": run.setup_top_up,
        "measure_s": run.measure_seconds,
        "wall_s": time.perf_counter() - t_begin,
        "ops": {k: {"attempted": a, "failed": f} for k, (a, f) in run.ops.phases.items()},
        "failures": run.ops.failures,
        "checks": run.check.results,
        "host": run.host(),
        "host_ref_s": HOST_REF,
        "metrics": metrics,
        "samples": {k: {"raw": v, "host": run.hosts[k]} for k, v in run.samples.items()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))

    ops = " ".join(f"{k}={a}/{f}" for k, (a, f) in run.ops.phases.items())
    blas = ", ".join(f"{b['library']} threads={b.get('threads')}" for b in record["environment"]["blas"])
    print(f"perfbench {wl.name} seed={args.seed} rounds={run.round_count} ops(attempted/failed): {ops}")
    print(f"perfbench blas: {blas}; nproc={record['environment']['nproc']}; record: {work / 'result.json'}")
    print(f"perfbench host: {json.dumps(record['host'])}")
    for name, m in metrics.items():
        extra = f"  [{m['estimator']}, n={m['samples']}, spread {m['spread']:.3f}]" if "spread" in m else ""
        listed_only = "" if any(b["name"] == name for b in bench["end_to_end"] + bench["per_layer"]) else "  (recorded only)"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{extra}{listed_only}")
    listed = [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]
    print(json.dumps({
        "correct": run.check.all_passed,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in listed},
    }))


if __name__ == "__main__":
    main()
