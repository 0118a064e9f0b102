"""Every name a ``gplvmf`` module imports is used there.

An import is used when its name is read anywhere in the module or listed
in ``__all__``.  An import line that carries ``# noqa`` is kept on purpose
(a name looked up on the module from outside) and is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gplvmf"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_unused_names_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from numpy import (\n"
        "    array,\n"
        "    zeros,\n"
        ")\n"
        "from .meanfn import phi_backward  # noqa: F401\n"
        "from .kernels import ArdKernel as Kernel\n"
        "__all__ = ['zeros']\n"
        "x = os.path.join(array([1]))\n"
    )
    assert unused_imports(source) == [(2, "math"), (9, "Kernel")]
