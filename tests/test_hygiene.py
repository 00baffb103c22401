"""No unused imports in the package or in its tests.

A stdlib ``ast`` scan: every name an import statement binds in
``src/iterreg/*.py`` or ``tests/*.py`` must be read somewhere in the same
module. Names a module lists in its ``__all__`` count as read (the package
``__init__`` re-exports that way). ``from __future__`` imports and imports
marked ``# noqa: F401`` (kept for their side effects) are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "iterreg").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


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
