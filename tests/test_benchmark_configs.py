"""The benchmark's workload configs must still pass the CLI's own checks.

Each workload in ``perfbench/workloads.py`` parses an INI template and
runs one verb on it. A schema change that breaks one of those INIs (a
removed key, a narrowed range) would otherwise only show when the
benchmark runs; this test makes it a tier-1 failure. The module is
imported without writing bytecode next to it.
"""

import importlib
import sys
from pathlib import Path

from iterreg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# How each verb validates its config before the build, keyed by the traced
# verb function a workload lists in ``must_hit``.
_VALIDATE = {
    "cli.run_single": lambda cfg: cfg.validate(),
    "cli.run_work_precision": cli.expand_methods,
    "cli.run_stopping_study": lambda cfg: cfg.validate(rules=cli.STUDY_RULES),
}


def test_workload_configs_pass_their_verbs_validation(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        verbs = [verb for verb in _VALIDATE if verb in workload.must_hit]
        assert len(verbs) == 1, (name, verbs)
        _VALIDATE[verbs[0]](workload.template())
