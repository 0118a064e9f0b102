"""The benchmark's three input shapes and how their inputs are made from a seed.

Each workload fixes a generative truth (latents, biases, inverse
length-scales) and a design (which user rates which item in which context)
from its own constant seed; ``--seed`` draws the ratings from that truth
with :func:`gplvmf.sample_ratings`.  The shapes and the per-layer costs they
stress therefore stay the same from run to run, while every run sees new
ratings and so a newly trained model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gplvmf import (
    ContextVariable,
    RatingTable,
    SyntheticSpec,
    TrainConfig,
    raw_context_rows,
    sample_ratings,
    synthesize,
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    inducing_count: int
    heldout_per_user: int     # last ratings of each user, held out as queries
    train_epochs: int         # SGD epochs of the model whose RMSE is reported

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            inducing_count=self.inducing_count,
            item_dim=2,
            context_dim=2,
            epochs=self.train_epochs,
            learning_rate=0.05,
            lr_decay=0.99,
            seed=0,
        )


def _spec(users, items, contexts, alphas, per_user, real_weights=(), seed=0):
    return SyntheticSpec(
        user_count=users,
        item_count=items,
        contexts=contexts,
        ratings_per_user=per_user,
        context_alphas=alphas,
        real_weights=real_weights,
        noise_precision=4.0,
        user_bias_mean=3.0,
        seed=seed,
    )


_CATEGORICAL = (
    ContextVariable("mood", "categorical", 4),
    ContextVariable("place", "categorical", 3),
)

WORKLOADS = {
    w.name: w
    for w in (
        # Per-user fixed costs dominate: 300 users of 18 training ratings, M=8.
        Workload(
            "many_small",
            _spec(300, 40, _CATEGORICAL, (1.0, 0.5), 20, seed=101),
            inducing_count=8,
            heldout_per_user=2,
            train_epochs=8,
        ),
        # Psi forward/backward dominate: 3 users of 500 training ratings, M=30, so
        # (N, M, M, Q) = (500, 30, 30, 6) temporaries of 21.6 MB each.
        Workload(
            "heavy_users",
            _spec(3, 100, _CATEGORICAL, (1.0, 0.5), 650, seed=202),
            inducing_count=30,
            heldout_per_user=150,
            train_epochs=16,
        ),
        # Neither dominates: 30 users of 100 training ratings, M=20; the only
        # shape with real-valued contexts.
        Workload(
            "medium_real",
            _spec(
                30,
                60,
                (
                    ContextVariable("mood", "categorical", 4),
                    ContextVariable("temperature", "real"),
                    ContextVariable("price", "real"),
                ),
                (1.0, 0.5, 0.5),
                120,
                real_weights=(0.5, -0.3),
                seed=303,
            ),
            inducing_count=20,
            heldout_per_user=20,
            train_epochs=8,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    train: RatingTable
    heldout: RatingTable
    query_contexts: list      # raw schema-order context tuples, one per held-out row


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Ratings drawn from the workload's fixed truth with ``seed``; the last
    ``heldout_per_user`` ratings of every user become the held-out queries."""
    full, truth = synthesize(workload.spec)
    ratings = sample_ratings(truth, np.random.default_rng([seed, 17]))
    table = RatingTable(
        schema=full.schema,
        users=full.users,
        items=full.items,
        cat_values=full.cat_values,
        real_raw=full.real_raw,
        ratings=ratings,
        standardization=full.standardization,
    )
    per_user = workload.spec.ratings_per_user
    position = np.tile(np.arange(per_user), workload.spec.user_count)
    held = position >= per_user - workload.heldout_per_user
    train = table.subset(np.flatnonzero(~held), standardization="refit")
    heldout = table.subset(np.flatnonzero(held), standardization=train.standardization)
    return Inputs(train=train, heldout=heldout, query_contexts=raw_context_rows(heldout))
