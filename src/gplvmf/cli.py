"""Command-line entry points: train, evaluate, predict, analyze-contexts, synthesize."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import read_config
from .data import DataError, load_table, read_columns, save_table
from .harness import const_baseline_cv, evaluate_cv, synthesize, train_model
from .model import load_model, save_model
from .predict import context_relevance


def _add_config_data(p):
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--data", required=True, help="delimited ratings file")


def _load(args):
    cfg = read_config(args.config)
    return cfg, load_table(args.data, cfg.schema, delimiter=cfg.delimiter)


def cmd_train(args) -> int:
    cfg, table = _load(args)
    model = train_model(table, cfg.train, rating_scale=cfg.rating_scale)
    save_model(model, args.out)
    trace = model.trace
    if args.trace:
        trace.write_csv(args.trace)
    final = trace.rows[-1].bound if trace.rows else float("nan")
    print(f"trained {cfg.train.method} on {len(table)} ratings; final {trace.bound_column} {final:.4f}")
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, table = _load(args)
    result = evaluate_cv(table, cfg.train, k=args.folds, seed=cfg.seed, rating_scale=cfg.rating_scale)
    lines = ["fold,mae,rmse"]
    for fold, mae, rmse in zip(result.folds, result.fold_mae, result.fold_rmse):
        lines.append(f"{fold},{float(mae)!r},{float(rmse)!r}")
    lines += [f"failed,{fold}" for fold in result.failed_folds]
    lines.append(f"mean,{result.mae!r},{result.rmse!r}")
    lines.append(f"std,{result.mae_std!r},{result.rmse_std!r}")
    if args.baseline:
        base = const_baseline_cv(table, k=args.folds, seed=cfg.seed)
        lines.append(f"const_mean,{base.mae!r},{base.rmse!r}")
    report = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    print(report)
    return 0


def _read_queries(path, schema, delimiter):
    """The users, the items and the schema-order context tuples of the query
    lines of ``path``, as lists in file order."""
    _, (users, items, *contexts) = read_columns(path, schema, delimiter, rating=False)
    rows = zip(*(column.tolist() for column in contexts)) if contexts else [()] * len(users)
    return users.tolist(), items.tolist(), list(rows)


def cmd_predict(args) -> int:
    model = load_model(args.model)
    users, items, contexts = _read_queries(args.queries, model.schema, args.delimiter)
    means, variances, clamped = model.predictor().predict_rows(
        users,
        items,
        contexts,
        include_noise=args.include_noise,
        unknown_user="global_mean" if args.allow_unknown_users else "error",
    )
    lines = ["user,item,mean,variance,clamped_mean"]
    for user, item, mean, variance, clamp in zip(users, items, means, variances, clamped):
        lines.append(f"{user},{item},{float(mean)!r},{float(variance)!r},{float(clamp)!r}")
    out = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(out + "\n", encoding="utf-8")
    else:
        print(out)
    return 0


def cmd_analyze_contexts(args) -> int:
    model = load_model(args.model)
    relevance = context_relevance(model.state)
    lines = ["context,score,share"]
    for name, score, share in relevance.entries:
        lines.append(f"{name},{score!r},{share!r}")
    out = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(out + "\n", encoding="utf-8")
    print(out)
    return 0


def cmd_synthesize(args) -> int:
    cfg = read_config(args.config)
    spec = cfg.synthetic
    if spec is None:
        raise KeyError("config is missing the 'synthetic' section")
    table, truth = synthesize(spec)
    save_table(table, args.out, delimiter=cfg.delimiter)
    if args.truth:
        with open(args.truth, "wb") as f:   # np.savez would add ".npz" to a bare path
            np.savez(f, alphas=truth.alphas, sigma2=spec.signal_variance, beta=spec.noise_precision,
                     item_latents=truth.item_latents, user_bias=truth.user_bias)
    print(f"wrote {len(table)} synthetic ratings to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gplvmf",
        description="Context-aware rating prediction with per-user sparse variational GPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and serialize it")
    _add_config_data(p)
    p.add_argument("--out", required=True, help="output model file (.npz)")
    p.add_argument("--trace", help="optional training trace CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validation")
    _add_config_data(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--baseline", action="store_true", help="also report the constant predictor")
    p.add_argument("--out", help="optional results CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="batch predictions for query rows")
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True, help="CSV with header: user,item,<contexts...>")
    p.add_argument("--out", help="output CSV (stdout if omitted)")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--include-noise", action="store_true", help="add 1/beta observation noise")
    p.add_argument("--allow-unknown-users", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("analyze-contexts", help="inverse length-scale relevance report")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(func=cmd_analyze_contexts)

    p = sub.add_parser("synthesize", help="draw a dataset from the generative model")
    p.add_argument("--config", required=True, help="JSON config with a 'synthetic' section")
    p.add_argument("--out", required=True, help="output ratings CSV")
    p.add_argument("--truth", help="optional ground-truth .npz")
    p.set_defaults(func=cmd_synthesize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
