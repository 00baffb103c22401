"""No unused imports in the package or in its tests, no package code that
only tests use, and no undeclared or unused dependency.

Three stdlib ``ast`` scans. Imports: every name an import statement binds in
``src/iterreg/*.py`` or ``tests/*.py`` must be read somewhere in the same
module. Names a module lists in its ``__all__`` count as read (the package
``__init__`` re-exports that way). ``from __future__`` imports and imports
marked ``# noqa: F401`` (kept for their side effects) are exempt.

Dead code: every function, class and method defined in ``src/iterreg/*.py``
must be named, as a variable or an attribute, somewhere in ``src/``,
``demos/`` or ``perfbench/`` besides its own definition. Dunders are exempt,
and so is ``DenseOracle.trace_phi``, the reference the Phi acceptance check
compares the estimators against.

Dead constants: every module-level UPPER_CASE constant that
``src/iterreg/*.py`` assigns must be read, as a variable or an attribute,
somewhere in ``src/``, so a retired policy leaves no constant behind that
only tests or docs still name.

Dependencies: the third scan reads the non-stdlib imports of
``src/iterreg/*.py``. Those at module level may only be numpy, so importing
iterreg loads nothing else; a builder that needs another library imports it
inside its own function. The third-party packages imported anywhere must be
exactly the ``dependencies`` of ``pyproject.toml``. A fresh interpreter that
imports the CLI and runs one small solve must not load scipy.

Terminal reasons: the string values of the module-level ``TERMINAL_*``
constants of ``solvers.py`` must be exactly the reasons ``csv_schema.md``
lists after "The terminal reason", so none goes undocumented.

INI keys: every key of ``cli._SCHEMA`` must be set, as a line ``key = ...``,
in ``perfbench/workloads.py`` or in a demo, read as text. A key that only
tests set is an option no run uses.

Exceptions: every exception class the package defines derives from
``ContractError``, the root of a numerical failure, which ``cli.main``
reports with exit 3 in its one ``except ContractError``. Two do not:
``cli.ConfigError``, which exits 2, and ``cli.StudyBreakdownError``, which
the stopping-study verb catches after writing its outputs.

Run parameters: the library run the CLI binds for each method
(``cli._bind_method``) takes exactly the problem (model, y_obs, x0), the
stop driver, the truth and the keywords the binding sets. A parameter the
CLI never binds selects a path that no CLI run takes.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from iterreg import cli
from iterreg.operators import ContractError

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


def module_constants(tree):
    """Names of the UPPER_CASE constants ``tree`` assigns at module level."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.isupper()}


def names_read(tree):
    """Identifiers ``tree`` reads as a variable or names as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}


def test_every_package_constant_is_read_in_the_package():
    trees = [ast.parse(path.read_text()) for path in PACKAGE]
    constants = set().union(*map(module_constants, trees))
    assert not constants - set().union(*map(names_read, trees))


def test_constant_scan_reads_module_level_upper_case_names():
    tree = ast.parse("A = 1\n_B = A\nlow = 4\nD = 5\n"
                     "def f():\n    E = 6\n    return obj.D, E\n")
    assert module_constants(tree) == {"A", "_B", "D"}
    assert module_constants(tree) - names_read(tree) == {"_B"}


MODULE_LEVEL_THIRD_PARTY = {"numpy"}


def third_party_imports(source):
    """(top-level name, line, at module level) of each import in ``source``
    of a module outside the standard library and the package itself. An
    import inside a function body is not at module level; one in a class
    body is, since it runs when the module is imported."""
    tree = ast.parse(source)
    nested = {id(inner) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(node) if inner is not node}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "iterreg":
                found.append((top, node.lineno, id(node) not in nested))
    return sorted(found)


def declared_dependencies():
    """Distribution names in ``pyproject.toml`` ``[project] dependencies``,
    lower-cased with dashes as underscores."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_package_imports_only_numpy_at_module_level():
    found = {f"{path.name}:{line} {name}"
             for path in PACKAGE
             for name, line, module_level
             in third_party_imports(path.read_text())
             if module_level and name not in MODULE_LEVEL_THIRD_PARTY}
    assert not found


def test_package_imports_match_declared_dependencies():
    imported = {name for path in PACKAGE
                for name, _, _ in third_party_imports(path.read_text())}
    assert imported == declared_dependencies()


def test_dependency_scan_classifies_imports():
    source = ("import os, numpy as np\n"
              "from numpy.linalg import eigh\n"
              "from . import krylov\n"
              "from iterreg.operators import as_vector\n"
              "try:\n"
              "    import yaml\n"
              "except ImportError:\n"
              "    pass\n"
              "def build():\n"
              "    import scipy.special\n"
              "    from scipy.sparse.linalg import gmres\n"
              "class Box:\n"
              "    import json, toml\n")
    assert third_party_imports(source) == [
        ("numpy", 1, True), ("numpy", 2, True), ("scipy", 10, False),
        ("scipy", 11, False), ("toml", 13, True), ("yaml", 6, True)]


def test_cli_import_and_solve_load_no_scipy(tmp_path):
    # A fresh interpreter, so no other test's imports count.
    ini = tmp_path / "exp.ini"
    ini.write_text("[problem]\nm = 20\nn = 28\n[solver]\nmax_newton = 4\n")
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy')\n"
        "import iterreg.cli\n"
        "after_import = scipy_modules()\n"
        "status = iterreg.cli.main(['solve', '--config', sys.argv[1],\n"
        "                           '--out', sys.argv[2]])\n"
        "print(json.dumps([status, after_import, scipy_modules()]))\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ini), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                 OPENBLAS_NUM_THREADS="1"))
    status, after_import, after_solve = json.loads(
        done.stdout.splitlines()[-1])
    assert status == 0
    assert after_import == []
    assert after_solve == []


def terminal_constants(source):
    """Values of the module-level ``TERMINAL_*`` string constants."""
    return sorted(node.value.value for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name)
                          and t.id.startswith("TERMINAL_")
                          for t in node.targets))


def documented_terminals(text):
    """The reasons listed as "The terminal reason (A, B, ...)"."""
    lists = re.findall(r"The terminal reason\s+\(([^)]*)\)", text)
    assert len(lists) == 1, lists
    return sorted(" ".join(name.split()) for name in lists[0].split(","))


def test_every_terminal_reason_is_documented():
    package = ROOT / "src" / "iterreg"
    assert terminal_constants((package / "solvers.py").read_text()) \
        == documented_terminals((package / "csv_schema.md").read_text())


def test_terminal_scans_read_constants_and_the_schema_list():
    source = ('TERMINAL_A = "Alpha"\n'
              'EVENT_B = "Beta"\n'
              'def f():\n'
              '    TERMINAL_C = "Gamma"\n')
    assert terminal_constants(source) == ["Alpha"]
    text = "The terminal reason (Beta,\nAlpha) is in summary.json."
    assert documented_terminals(text) == ["Alpha", "Beta"]


def keys_never_set(schema, sources):
    """Keys of the INI ``schema`` that no line ``key = ...`` of the
    ``sources`` texts sets, in schema order."""
    keys = dict.fromkeys(key for section in schema.values() for key in section)
    return [key for key in keys
            if not any(re.search(rf"^\s*{key}\s*=(?!=)", text, re.M)
                       for text in sources)]


def test_every_ini_key_is_set_by_a_workload_or_a_demo():
    sources = [path.read_text() for path in (
        ROOT / "perfbench" / "workloads.py",
        *sorted((ROOT / "demos").glob("*.py")))]
    unset = keys_never_set(cli._SCHEMA, sources)
    assert not unset, f"INI keys that only tests set: {', '.join(unset)}"


def test_key_scan_reads_assignment_lines():
    schema = {"a": {"m": None, "seed": None}, "b": {"seed": None, "tau": None,
                                                   "rho": None}}
    sources = ['ini = """\n[a]\nm = 3\n  seed=1\n"""\n',
               "tau == 2\nx = rho = 4\n"]
    assert keys_never_set(schema, sources) == ["tau", "rho"]


@pytest.mark.parametrize("method", cli._METHODS)
def test_each_run_takes_only_what_the_cli_binds(method):
    run = cli._bind_method(cli.ExperimentConfig(), method)
    assert set(inspect.signature(run.func).parameters) \
        == {"model", "y_obs", "x0", "stop", "truth", *run.keywords}


def package_exceptions():
    """Names of the exception classes defined in ``src/iterreg/*.py``,
    mapped to whether each derives from ContractError."""
    found = {}
    for path in PACKAGE:
        name = "iterreg" if path.stem == "__init__" else f"iterreg.{path.stem}"
        for cls in vars(importlib.import_module(name)).values():
            if isinstance(cls, type) and issubclass(cls, BaseException) \
                    and cls.__module__ == name:
                found[cls.__name__] = issubclass(cls, ContractError)
    return found


def test_every_package_exception_is_a_contract_error():
    found = package_exceptions()
    assert {"ContractError", "CgBreakdownError", "OracleRefusal"} <= set(found)
    assert {name for name, rooted in found.items() if not rooted} \
        == {"ConfigError", "StudyBreakdownError"}
