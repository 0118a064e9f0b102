"""Seeded results do not depend on the BLAS thread count.

OpenBLAS threads a dgemm of 2^19 multiply-adds or more; every product over
a user's rows is split into row blocks below that size
(``gplvmf.kernels._by_group`` and ``_cross_by_group``).  A table of two
heavy users is built here once and saved; two subprocesses, at 1 and at 2 BLAS
threads, load it and run ``init_state``, two SGD epochs, ``total_bound``
(value and gradient) and ``predict_rows``, and every output must agree bit
for bit.  The table is not synthesized in the subprocesses: ``synthesize``'s
Cholesky of one user's covariance threads inside LAPACK at this size.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gplvmf import ContextVariable, SyntheticSpec, save_table, synthesize
from gplvmf.data import schema_to_dict
from gplvmf.kernels import _ONE_THREAD

ROOT = Path(__file__).resolve().parent.parent

_CONFIG = {"inducing_count": 30, "item_dim": 2, "context_dim": 2, "learning_rate": 0.05, "seed": 0}

_CHILD = """
import json, sys
import numpy as np
from gplvmf import TrainConfig, group_by_user, init_state, load_table, raw_context_rows, sgd_epoch, total_bound
from gplvmf.data import schema_from_dict
from gplvmf.model import TrainedModel

data, schema_path, out = sys.argv[1:]
schema = schema_from_dict(json.loads(open(schema_path).read()))
config = TrainConfig(**json.loads(sys.stdin.read()))
table = load_table(data, schema)
blocks = group_by_user(table)
state = init_state(schema, blocks, config)
start = state.to_vector()
for epoch in range(2):
    sgd_epoch(blocks, state, config, epoch)
report = total_bound(blocks, state, jitter=config.jitter, want_gradients=True)
model = TrainedModel(state=state, table=table, config=config, rating_scale=table.rating_range)
means, variances, _ = model.predictor().predict_rows(
    table.users.tolist(), table.items.tolist(), raw_context_rows(table))
np.savez(out, start=start, state=state.to_vector(), total=report.total, gradient=report.gradients,
         means=means, variances=variances)
"""


def _run(tmp_path, threads: int) -> dict:
    out = tmp_path / f"threads_{threads}.npz"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": str(threads)}
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "table.csv"), str(tmp_path / "schema.json"), str(out)],
        input=json.dumps(_CONFIG), env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    with np.load(out) as arrays:
        return dict(arrays)


def test_heavy_user_outputs_equal_at_one_and_two_blas_threads(tmp_path):
    contexts = (ContextVariable("mood", "categorical", 4), ContextVariable("place", "categorical", 3))
    spec = SyntheticSpec(user_count=2, item_count=60, contexts=contexts, ratings_per_user=460,
                         context_alphas=(1.0, 0.5), noise_precision=4.0, user_bias_mean=3.0, seed=7)
    table, _ = synthesize(spec)
    save_table(table, tmp_path / "table.csv")
    (tmp_path / "schema.json").write_text(json.dumps(schema_to_dict(table.schema)))

    # one user's Psi2 exponent product, (n, 2Q+2) @ (2Q+2, P), must stay at
    # a size OpenBLAS threads; every context here is categorical
    q = _CONFIG["item_dim"] + _CONFIG["context_dim"] * len(contexts)
    m = _CONFIG["inducing_count"]
    assert spec.ratings_per_user * (2 * q + 2) * (m * (m + 1) // 2) >= _ONE_THREAD

    one, two = _run(tmp_path, 1), _run(tmp_path, 2)
    assert one.keys() == two.keys()
    for name in one:
        assert np.array_equal(one[name], two[name]), name
