"""Every name a ``gplvmf`` module imports is used there, and every private
name it defines is read somewhere.

An import is used when its name is read anywhere in the module or listed
in ``__all__``.  An import line that carries ``# noqa`` is kept on purpose
(a name looked up on the module from outside) and is not checked.

A module-level private name (``_name``: a function, class or constant) is
read when some module under ``src/``, ``tests/`` or ``perfbench/`` loads
it as a name or an attribute, or spells it as a string (a ``setattr`` or
``getattr`` lookup), so a helper whose last caller is gone fails here.

The trained modules, which training and queries run, import neither the
validation oracles (``reference``) nor the harness, nor the package root,
which imports both; the package still exports every oracle.  Of them only
``state`` reads ``offsets``, the key bounds of the flat vector: the others
ask the state for the positions they need.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gplvmf"


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


def private_definitions(source: str) -> list:
    """(line, name) of each module-level private function, class or constant."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set:
    """Names a module loads, attributes it loads and identifiers it spells as strings."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return read


def test_every_private_module_name_is_read():
    readers = [path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")]
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in readers))
    unread = [
        (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in private_definitions(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert unread == []


def test_check_finds_unread_private_names():
    defining = (
        "import numpy as np\n"
        "_LIMIT = 3\n"
        "_TABLE: dict = {}\n"
        "__all__ = []\n"
        "def _helper(x):\n"
        "    _local = _helper(x - 1)\n"
        "    return _local\n"
        "class _Box:\n"
        "    _inner = 1\n"
        "def _dead():\n"
        "    pass\n"
        "def public():\n"
        "    return _LIMIT\n"
    )
    assert private_definitions(defining) == [(2, "_LIMIT"), (3, "_TABLE"), (5, "_helper"), (8, "_Box"), (10, "_dead")]
    reading = "import m\nm._Box()\nsetattr(m, '_TABLE', {})\nm._dead = None\n"
    read = names_read(defining) | names_read(reading)
    assert [name for _, name in private_definitions(defining) if name not in read] == ["_dead"]



# What training and queries run, and what they must not import.
TRAINED = ("state", "data", "kernels", "meanfn", "bound", "optim", "predict", "model")
OUTSIDE_TRAINED = {"reference", "harness", "gplvmf"}
ORACLES = ("ArdKernel", "LatentPoints", "McPsiEstimate", "PsiStats", "kernel_matrix", "mc_phi_oracle",
           "mc_psi_oracle", "optimal_qu", "psi_statistics", "user_bound")


def gplvmf_imports(source: str) -> set:
    """The ``gplvmf`` modules a module imports, relative or absolute and at
    any depth; ``gplvmf`` for the package root."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [".".join(["gplvmf"] + ([node.module] if node.module else [])) if node.level else node.module]
        else:
            continue
        found.update(name.split(".")[1] if "." in name else name for name in names if name.split(".")[0] == "gplvmf")
    return found


@pytest.mark.parametrize("name", TRAINED)
def test_trained_module_imports_no_oracle_or_harness(name):
    assert gplvmf_imports((SRC / f"{name}.py").read_text(encoding="utf-8")) & OUTSIDE_TRAINED == set()
    module = importlib.import_module(f"gplvmf.{name}")
    assert [oracle for oracle in ORACLES if hasattr(module, oracle)] == []


def test_package_exports_every_oracle():
    import gplvmf
    import gplvmf.reference as reference

    assert [name for name in ORACLES if getattr(gplvmf, name, None) is not getattr(reference, name)] == []
    assert set(ORACLES) <= set(gplvmf.__all__)


def test_check_finds_imports_of_the_oracles_and_the_harness():
    source = (
        "import numpy as np\n"
        "from .bound import plan\n"
        "import gplvmf.reference as ref\n"
        "def later():\n"
        "    from gplvmf.harness import synthesize\n"
        "from gplvmf import total_bound\n"
    )
    assert gplvmf_imports(source) == {"bound", "reference", "harness", "gplvmf"}
    assert gplvmf_imports("from . import data\nfrom .kernels import psi1_factor\n") == {"gplvmf", "kernels"}


def offsets_reads(source: str) -> list:
    """Lines that read an ``offsets`` attribute or spell it as a string (a
    ``getattr`` lookup)."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "offsets" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Constant) and node.value == "offsets")
    )


@pytest.mark.parametrize("name", [name for name in TRAINED if name != "state"])
def test_only_the_state_reads_the_flat_offsets(name):
    assert offsets_reads((SRC / f"{name}.py").read_text(encoding="utf-8")) == []


def test_check_finds_reads_of_the_offsets():
    source = (
        "def first(state):\n"
        "    return state.offsets[0]\n"
        "def bounds(state, offsets):\n"
        "    return offsets, getattr(state, 'offsets')\n"
        "def layout(state):\n"
        "    '''``offsets`` stay in the state.'''\n"
        "    return state.point_positions([0])\n"
    )
    assert offsets_reads(source) == [2, 4]
