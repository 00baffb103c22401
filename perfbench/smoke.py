"""Smoke self-test of the benchmark; not part of the package's test suite.

Runs one op of every workload in each mode (``--seconds 1``), including
workloads that BENCHMARK.json leaves out, and asserts that every metric of
BENCHMARK.json is printed with its unit, that the ops
pass their checks, that the traced mode patched every module binding of the
traced functions, and that the runner refuses to run without ``src``.

Usage: python3 perfbench/smoke.py   (about a minute)
"""

import json
import os
import shutil
import subprocess
import sys

import bootstrap

RUN = os.path.join(bootstrap.ROOT, "perfbench", "run.py")

# Module bindings the traced mode must patch; calls through an unpatched
# one would go unseen.
EXPECTED_BINDINGS = (
    "krylov.pcg_solve", "solvers.pcg_solve", "cli.pcg_solve",
    "operators.as_vector", "krylov.as_vector", "preconditioner.as_vector",
    "stopping.as_vector", "testbed.as_vector", "solvers.as_vector",
    "solvers.merge_pairs", "solvers.ritz_from_trace", "solvers.select_ritz",
    "cli.discrepancy_stop", "cli.lepskii_from_history", "cli.build_problem",
    "cli.build_data",
)


def run(workload, trace, cwd=bootstrap.ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload, trace, expected):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, (workload, trace, printed)
    table = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for name, unit in expected.items():
        assert table.get(name) == unit, (workload, trace, name)
    print(f"ok  {workload} --trace {trace}: {len(printed)} metrics")


def check_bindings():
    import iterreg.cli  # noqa: F401  (loads every iterreg module)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    missing = set(EXPECTED_BINDINGS) - set(tracer.bindings)
    assert not missing, missing
    print(f"ok  {len(tracer.bindings)} traced bindings")


def check_bare_directory():
    """Without src the runner must fail fast and print no result."""
    bare = os.path.join(bootstrap.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(bootstrap.ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), bare)
    done = run("conv-solve", 0, cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    print(f"ok  bare directory exits {done.returncode}")


def main():
    bootstrap.use_checkout_source()
    import metrics
    from workloads import WORKLOADS

    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec == metrics.benchmark_json(), \
        "BENCHMARK.json is stale: python3 perfbench/metrics.py > BENCHMARK.json"
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        check_run(name, 0, end_to_end)
        check_run(name, 1, per_layer)
    check_bindings()
    check_bare_directory()


if __name__ == "__main__":
    main()
