"""Every name a package module imports is used, every public function is
read somewhere, and importing the CLI stays light.

No linter is part of the toolchain, so this reads each module's syntax tree:
an imported name counts as used when the module reads it anywhere or lists
it in ``__all__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fasttrack"
# Code that may read a package function: the package itself and the benchmark.
READERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")])


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(ast.literal_eval(node.value))
    return out


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never uses."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used - exported(tree))


def names_read(source: str) -> set[str]:
    """Every name ``source`` reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unread_functions(source: str, read: set[str]) -> list[str]:
    """Public top-level functions of ``source`` that are neither in ``read``
    nor listed in its ``__all__``."""
    tree = ast.parse(source)
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    return sorted(public - read - exported(tree))


def test_checker_flags_unused_names_and_accepts_exports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .design import derive, DesignParams\n"
        "__all__ = ['DesignParams']\n"
        "def f(x: np.ndarray):\n"
        "    return derive(x)\n"
    )
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unread_checker_flags_dead_functions_and_accepts_exports():
    source = (
        "__all__ = ['shown']\n"
        "def used(): ...\n"
        "def dead(): ...\n"
        "def shown(): ...\n"
        "def _private(): ...\n"
    )
    read = names_read("import m\nm.used()\n")
    assert unread_functions(source, read) == ["dead"]


def test_every_public_function_is_read_by_the_package_or_the_benchmark():
    # Code only tests reach belongs in tests/, next to what it checks.
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unread_functions(path.read_text(encoding="utf-8"), read)
    ]
    assert unread == []


def test_cli_import_leaves_scipy_optimize_out():
    # numerics has its own root finder; scipy.optimize would double the
    # import time that every command pays.
    code = (
        "import sys, fasttrack.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
