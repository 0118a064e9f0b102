"""The names the traced benchmark wraps must stay callable where it looks them up.

``perfbench/run.py`` times each layer by replacing module attributes listed in
``Layers.WRAP`` (for example ``gplvmf.optim.phi_backward``) with timed
wrappers.  The table is read from the source with ``ast`` so that nothing
under ``perfbench/`` is imported or changed.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def wrapped_names() -> dict:
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    layers = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Layers")
    wrap = next(
        n for n in layers.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "WRAP" for t in n.targets)
    )
    return ast.literal_eval(wrap.value)


def test_traced_benchmark_hooks_are_callable():
    wrap = wrapped_names()
    assert wrap
    for module_name, names in wrap.items():
        module = importlib.import_module(f"gplvmf.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gplvmf.{module_name}.{name} is not callable"
