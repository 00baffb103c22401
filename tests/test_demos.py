"""The narrative demos and README's quickstart run end to end, and the
package exports resolve."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import iterreg
from iterreg.cli import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_demos_run_and_exports_resolve():
    # Each demo runs twice and must print the same text both times.
    assert not [name for name in iterreg.__all__ if not hasattr(iterreg, name)]
    assert len(DEMOS) == 4
    for path in DEMOS:
        first = _run_demo(path)
        assert first.strip(), f"{path.name} printed nothing"
        assert _run_demo(path) == first, f"{path.name} printed other text"


def _readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$",
                      (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_quickstart_runs():
    # The one ```python block of README.md, run as a script: a stale import
    # or call in it fails here.
    blocks = _readme_blocks("python")
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert len(out.getvalue().splitlines()) == 26  # k = 0 .. 25


def test_readme_minimal_config_is_valid():
    # README's ```ini block is the config a user copies first.
    blocks = _readme_blocks("ini")
    assert len(blocks) == 1
    cfg = ExperimentConfig.from_text(blocks[0])
    cfg.validate()
    assert (cfg.problem["kind"], cfg.solver["method"]) \
        == ("nonlinear-diagonal", "irgnm-prec")
