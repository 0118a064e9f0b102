"""The walkthrough demos still run end to end.

Demos 01 and 02 run in under a second each and call the public data and
bound API (``load_table``/``save_table``, ``state.bias``, ``mean_vector``,
``total_bound``), so they run here as subprocesses.  Demos 03 and 04 train
models for several seconds each and stay out of this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_data_and_folds.py", "02_bound_and_statistics.py"])
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
