"""Work-precision comparison of the four solvers.

Runs Landweber, truncated Newton-CG, and the plain and preconditioned
regularized Newton methods on one problem, all metered in model units (one
unit = one forward evaluation, Jacobian apply, or adjoint apply). Each
table gives each method's best error within a growing cost budget, then the
units each method spent and why its run ended.

- Low-noise data (level 0.001, acceptance criterion 8): Landweber's
  logarithmic resolution growth loses to the Newton methods at every budget
  past the warm-up. Each method levels off at its own noise floor, so this
  table shows the baselines' relative cost, not a paper claim. Newton-CG
  ends at its first capped inner solve (terminal InnerCap), once its steps
  start to fit noise.
- Exact data (level 0, acceptance criterion 10): the paper's claim that the
  preconditioned method compares favorably with the other iterative methods
  in work-precision diagrams for exact data. irgnm-prec has the smallest
  error at each budget from 250 units on.

The same experiment is available from the command line:

    iterreg work-precision --config <file.ini> --out <dir>

Run:  python3 demos/work_precision.py
"""

import tempfile

from iterreg.cli import ExperimentConfig, expand_methods, run_work_precision

CONFIG = """
[problem]
kind = nonlinear-diagonal
seed = 0

[solver]
method = irgnm-prec
methods = irgnm-prec, irgnm-plain, newton-cg, landweber
rhs_kind = levenberg-marquardt
max_newton = 40
landweber_steps = 650

[noise]
level = 0.001
seed = 7

[stopping]
rule = none
"""

NAMES = ("landweber", "newton-cg", "irgnm-plain", "irgnm-prec")


def frontier(points, budget):
    errs = [e for c, e in points if c <= budget]
    return min(errs) if errs else float("nan")


def table(title, level, budgets):
    cfg = ExperimentConfig.from_text(CONFIG)
    cfg.noise["level"] = level
    with tempfile.TemporaryDirectory() as out_dir:
        histories = {h.method: h
                     for h in run_work_precision(expand_methods(cfg), out_dir)}
    series = {name: [(r.cumulative_cost, r.error) for r in h.records]
              for name, h in histories.items()}
    print(f"\n{title}")
    print(f"{'budget':>9} " + " ".join(f"{n:>12}" for n in NAMES))
    for budget in budgets:
        row = " ".join(f"{frontier(series[n], budget):12.3e}" for n in NAMES)
        print(f"{budget:9d} {row}")
    print(f"{'units':>9} "
          + " ".join(f"{histories[n].total_cost():12d}" for n in NAMES))
    print(f"{'terminal':>9} "
          + " ".join(f"{histories[n].terminal_reason:>12}" for n in NAMES))


print("rows go to work_precision.csv in a temporary directory (deleted "
      "after this demo; the CLI's --out keeps them)")
table("low-noise data (level 0.001): the baselines' relative cost",
      0.001, (150, 200, 300, 500, 800, 1321))
table("exact data (level 0): the paper's work-precision claim",
      0.0, (250, 300, 500, 1000))
