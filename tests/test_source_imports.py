"""Source hygiene: no module of the package imports a name it never uses, and
importing the package leaves out the code that only `skewcodes verify` runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import skewcodes

SRC = Path(skewcodes.__file__).parent


def _names_in_annotation(node):
    """Names used by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str):
    """The names bound by imports of ``source`` (other than __future__) that it never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _names_in_annotation(node.returns)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    sample = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .a import B, C\n"
        "def f(x: 'B') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(sample) == [(2, "sys"), (3, "C")]
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_import_leaves_verify_unloaded():
    """Importing the package and its CLI does not load (or compile) ``verify``."""
    code = "import sys, skewcodes, skewcodes.cli; print('skewcodes.verify' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
