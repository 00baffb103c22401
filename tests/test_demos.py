"""The narrative demos run end to end and the package exports resolve."""

import contextlib
import io
import runpy
from pathlib import Path

import iterreg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
