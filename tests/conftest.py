import sys
from pathlib import Path

import pytest

# Test-local helpers (dense model factories, stacked oracles).
sys.path.insert(0, str(Path(__file__).parent))

# The package sources whose line total the summary prints.
PACKAGE_SOURCES = Path(__file__).parent.parent / "src" / "iterreg"

# Acceptance-criterion results, filled by tests/test_acceptance.py and
# printed as one line per criterion after the normal pytest summary.
ACCEPTANCE_LABELS = {
    1: "preconditioner inverse, spectrum, and back-map identities",
    2: "Ritz residual identity against dense matvec",
    3: "CG accuracy contract and full-spectrum one-step solve",
    4: "inner-iteration payoff of preconditioner builds",
    5: "multiplicity capture and condition-number decrease",
    6: "propagated-noise estimators against the exact trace",
    7: "stopping-rule study orderings",
    8: "work-precision ordering of the four methods",
    9: "byte-identical rerun of a solve",
    10: "exact-data work-precision frontier of irgnm-prec",
}
_acceptance_results = {}
# Readings of the unnumbered claim checks, printed after the criteria.
_claim_lines = []


def record_acceptance(number, ok, detail=""):
    _acceptance_results[number] = (bool(ok), detail)


@pytest.fixture
def acceptance():
    """Callable (number, ok, detail) -> None used by the acceptance tests."""
    return record_acceptance


@pytest.fixture
def claim_report():
    """Callable (line) -> None: a claim check's reading for the summary."""
    return _claim_lines.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_results:
        _write_criteria(terminalreporter)
    if _claim_lines:
        terminalreporter.section("claim checks")
        for line in _claim_lines:
            terminalreporter.write_line(line)


def _write_criteria(terminalreporter):
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_LABELS):
        label = ACCEPTANCE_LABELS[number]
        if number in _acceptance_results:
            ok, detail = _acceptance_results[number]
            status = "PASS" if ok else "FAIL"
        else:
            ok, detail = False, "test did not run to completion"
            status = "FAIL"
        line = f"criterion {number} {status} - {label}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line, green=ok, red=not ok)
    lines = sum(len(path.read_text().splitlines())
                for path in PACKAGE_SOURCES.glob("*.py"))
    terminalreporter.write_line(f"src/iterreg/*.py: {lines} lines")
