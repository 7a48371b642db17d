"""Source hygiene: no module of the package imports a name it never uses, every
private function and method is used somewhere in the package, the private names
modules take from each other are pinned, and importing the package leaves out
the code that only `skewcodes verify` runs."""

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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unreferenced_private_defs(sources):
    """(module, name) of each private module-level function or method in ``sources``
    (module name -> source) that no name, attribute or import of any module reads
    outside the def's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            for d in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(d.name):
                    defs.append((module, d))
    refs = []  # (name, node) for every read of a name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                refs += [(alias.name, node) for alias in node.names]
    out = []
    for module, d in defs:
        own = set(map(id, ast.walk(d)))
        if not any(name == d.name and id(node) not in own for name, node in refs):
            out.append((module, d.name))
    return sorted(out)


def test_no_unreferenced_private_defs():
    sample = {
        "a": "def _used(): return 1\n"
             "def _recursive(n): return _recursive(n - 1)\n"
             "class K:\n"
             "    def __init__(self): self._m()\n"
             "    def _m(self): pass\n"
             "    def _orphan(self): pass\n",
        "b": "from .a import _used\n",
    }
    assert unreferenced_private_defs(sample) == [("a", "_orphan"), ("a", "_recursive")]
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def private_imports(source: str):
    """{sibling module: sorted private names} that ``source`` imports by relative imports."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names if _is_private(alias.name)]
            if names:
                found.setdefault(node.module, []).extend(names)
    return {module: sorted(names) for module, names in found.items()}


# every private name a module takes from a sibling: a new cross-module
# dependency on a private name shows up as a change here
PRIVATE_IMPORTS = {
    "catalogue": {"classify": ["_Orbits"], "codes": ["_orbit_distances"],
                  "skewpoly": ["_divisor_cap", "_divisor_tuples"]},
    "codes": {"classify": ["_Orbits", "_witness_map"], "skewpoly": ["_product"]},
    "petit": {"skewpoly": ["_product"]},
}


def test_private_imports_pinned():
    sample = "from .a import _x, y, __version__\nfrom os import _exit\nfrom .b import _z\n"
    assert private_imports(sample) == {"a": ["_x"], "b": ["_z"]}
    found = {p.stem: private_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: hits for module, hits in found.items() if hits} == PRIVATE_IMPORTS


def test_import_leaves_verify_unloaded():
    """Importing the package and its CLI does not load (or compile) ``verify``."""
    code = "import sys, skewcodes, skewcodes.cli; print('skewcodes.verify' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
