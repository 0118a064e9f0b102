"""The walkthrough demos still run end to end.

Each demo runs as a subprocess and calls the public API: the data files
(``load_table``/``save_table``), the state's parameters and the mean
function (``state.params``, ``phi_statistics``), the bound
(``total_bound``), training with the relevance report
(``context_relevance``), and the predictor's query path.  Demos 03 and 04
train models and take several seconds each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("[0-9]*.py")))
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
