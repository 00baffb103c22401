"""Work-precision comparison of the four solvers.

Runs Landweber, truncated Newton-CG, and the plain and preconditioned
regularized Newton methods on identical low-noise data, all metered in
model units (one unit = one forward evaluation, Jacobian apply, or
adjoint apply). The printed frontier gives each method's best error
within a growing cost budget: Landweber's logarithmic resolution growth
loses to the geometric regularization schedule of the Newton methods at
every budget past the warm-up, and the preconditioner pushes the
Newton frontier further left.

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

cfg = ExperimentConfig.from_text(CONFIG)
with tempfile.TemporaryDirectory() as out_dir:
    histories = run_work_precision(expand_methods(cfg), out_dir)
    print("rows written to work_precision.csv in a temporary directory "
          "(deleted after this demo; the CLI's --out keeps them)\n")

series = {h.method: [(r.cumulative_cost, r.error) for r in h.records]
          for h in histories}


def frontier(points, budget):
    errs = [e for c, e in points if c <= budget]
    return min(errs) if errs else float("nan")


budgets = (150, 200, 300, 500, 800, 1321)
names = ("landweber", "newton-cg", "irgnm-plain", "irgnm-prec")
print(f"{'budget':>7} " + " ".join(f"{n:>12}" for n in names))
for budget in budgets:
    row = " ".join(f"{frontier(series[n], budget):12.4f}" for n in names)
    print(f"{budget:7d} {row}")

print("\ntotal model units spent:")
for name in names:
    print(f"  {name:<12} {max(c for c, _ in series[name]):6d}")
