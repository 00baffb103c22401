"""No unused imports in the package or in its tests, and no package code
that only tests use.

Two stdlib ``ast`` scans. Imports: every name an import statement binds in
``src/iterreg/*.py`` or ``tests/*.py`` must be read somewhere in the same
module. Names a module lists in its ``__all__`` count as read (the package
``__init__`` re-exports that way). ``from __future__`` imports and imports
marked ``# noqa: F401`` (kept for their side effects) are exempt.

Dead code: every function, class and method defined in ``src/iterreg/*.py``
must be named, as a variable or an attribute, somewhere in ``src/``,
``demos/`` or ``perfbench/`` besides its own definition. Dunders are exempt,
and so is ``DenseOracle.trace_phi``, the reference the Phi acceptance check
compares the estimators against.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "iterreg").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
CALLERS = sorted([*PACKAGE, *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])
TEST_ONLY_REFERENCES = {"DenseOracle.trace_phi"}


def unused_imports(source):
    """Names bound by imports in ``source`` that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(elt.value for elt in node.value.elts)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in FILES}
    assert not {path: names for path, names in found.items() if names}


def test_scan_flags_unused_and_keeps_used_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import os.path  # noqa: F401\n"
              "from json import (dumps,\n"
              "                  loads)\n"
              "from math import pi\n"
              "__all__ = ['pi']\n"
              "def f():\n"
              "    return np.zeros(1), dumps\n")
    assert unused_imports(source) == ["loads (line 5)", "os (line 2)"]


def definitions(tree):
    """(qualified name, bare name, node) of every function, class and method
    defined in ``tree``; dunders are left out."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    found.append((prefix + child.name, child.name, child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def referenced_names(tree):
    """How often ``tree`` names each identifier as a variable or an
    attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced(package, callers):
    """Qualified names of the definitions in the ``package`` trees that no
    ``callers`` tree names outside the definition itself."""
    used = sum((referenced_names(tree) for tree in callers), Counter())
    return [qual for tree in package for qual, name, node in definitions(tree)
            if used[name] == referenced_names(node)[name]]


def test_no_package_code_only_tests_use():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    dead = set(unreferenced([trees[p] for p in PACKAGE], trees.values()))
    assert dead <= TEST_ONLY_REFERENCES, dead - TEST_ONLY_REFERENCES


def test_dead_code_scan_flags_unreferenced_definitions():
    source = ("class Box:\n"
              "    def __init__(self):\n"
              "        self.size = helper()\n"
              "    def used(self):\n"
              "        def inner():\n"
              "            return 1\n"
              "        return inner\n"
              "    def unused(self):\n"
              "        return 'helper'\n"
              "def helper():\n"
              "    return Box().used\n"
              "def recursive(n):\n"
              "    return recursive(n - 1)\n")
    tree = ast.parse(source)
    assert [q for q, _, _ in definitions(tree)] == [
        "Box", "Box.used", "Box.used.inner", "Box.unused", "helper",
        "recursive"]
    # a name inside a string is no reference, nor is a self-reference
    assert unreferenced([tree], [tree]) == ["Box.unused", "recursive"]
    caller = ast.parse("from box import recursive\nrecursive(3)\n")
    assert unreferenced([tree], [tree, caller]) == ["Box.unused"]
