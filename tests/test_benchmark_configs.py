"""The benchmark's workloads must still pass the CLI's own checks and run.

Each workload in ``perfbench/workloads.py`` parses an INI template and
runs one verb on it. A schema change that breaks one of those INIs (a
removed key, a narrowed range) would otherwise only show when the
benchmark runs; the first test makes it a tier-1 failure. The second runs
each workload of ``BENCHMARK.json`` for one traced second, so a change that
fails an op or stops calling a function a workload must reach fails here
too. Neither writes bytecode next to the benchmark.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from iterreg import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

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


@pytest.mark.parametrize("workload", [
    w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_benchmark_run_is_correct_and_hits_its_layers(workload):
    # The run writes its outputs under the gitignored .perfbench/.
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert done.returncode == 0, done.stderr
    assert "traced run never called" not in done.stderr, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, \
        done.stderr
