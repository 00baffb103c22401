"""Process start-up shared by the runner and the set-up probe.

Pins BLAS to one thread and puts the checkout's ``src`` first on the import
path. Both must happen before numpy or iterreg is imported, so this module
imports neither.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas():
    """Pin BLAS to BLAS_THREADS threads for this process and its children."""
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source():
    """Import iterreg from this checkout's ``src``, or exit with status 2.

    The benchmark measures the code it ships with; an iterreg installed
    elsewhere must not stand in for a missing ``src``.
    """
    if not os.path.isfile(os.path.join(SRC, "iterreg", "__init__.py")):
        print(f"perfbench: no iterreg package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
