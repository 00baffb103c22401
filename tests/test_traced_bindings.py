"""The benchmark's traced mode must still find every function it patches.

``perfbench/tracer.py`` wraps iterreg functions by module and name, and
``perfbench/smoke.py`` lists the module bindings the traced mode must reach.
Renaming or deleting one of them breaks ``perfbench/run.py --trace 1``; this
test makes that a tier-1 failure. Both files are imported without writing
bytecode next to them.
"""

import importlib
import sys
from pathlib import Path

import iterreg.cli  # noqa: F401  (loads every iterreg module)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve_to_expected_bindings(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    smoke = importlib.import_module("smoke")
    traced = tracer.Tracer()
    traced._resolve()
    missing = set(smoke.EXPECTED_BINDINGS) - set(traced.bindings)
    assert not missing, missing
