"""Semi-frozen regularized Newton on the nonlinear testbed.

Runs the preconditioned solver three ways on the same 2% noisy data:

- updates (``variant="prec"``, the default): the preconditioner is
  rebuilt from a fresh Jacobian when the square-number schedule is due and
  the frozen Jacobian no longer predicts the residual, and cheaply updated
  in between,
- frozen (``variant="frozen"``): no update ever; the preconditioner is
  rebuilt from a fresh Jacobian exactly on the square-number schedule
  k = 0, 3, 8, 15, 24, stale or not,
- plain (``variant="plain"``): no preconditioner, every step
  relinearizes and runs CG with Gram-Schmidt reorthogonalization.

The per-step table shows the payoff: right after every Recompute/Update
event the standard steps need fewer inner CG iterations, and the total
inner work drops well below the frozen and plain totals at the same
iterate quality.

Run:  python3 demos/semi_frozen_newton.py
"""

import numpy as np

from iterreg import irgnm_run
from iterreg.testbed import (generate_noise, make_diagonal_problem,
                             make_nonlinear_composite, noise_sigma_for_level)

problem = make_nonlinear_composite(make_diagonal_problem())
y_exact = problem.model.evaluate(problem.truth)
sigma = noise_sigma_for_level(y_exact, 0.02)
y_obs = y_exact + generate_noise(sigma, y_exact.size, 1, seed=2)[0]
x0 = np.zeros(problem.model.domain_dim)

runs = {"updates": "prec", "frozen": "frozen", "plain": "plain"}
histories = {name: irgnm_run(problem.model, y_obs, x0, variant=variant,
                             max_newton=25, truth=problem.truth)
             for name, variant in runs.items()}

print("per-step trace of the updates-enabled run:")
print(f"{'k':>3} {'event':<10} {'inner':>5} {'gamma':>9} "
      f"{'residual':>9} {'error':>7}")
for r in histories["updates"].records:
    print(f"{r.k:3d} {r.event:<10} {r.inner_iterations:5d} "
          f"{r.gamma_k:9.2e} {r.residual_norm:9.3e} {r.error:7.3f}")

print("\ntotals at 25 Newton steps:")
print(f"{'run':<9} {'inner':>6} {'model units':>12} {'best error':>11}")
for name, h in histories.items():
    print(f"{name:<9} {h.total_inner():6d} {h.total_cost():12d} "
          f"{min(r.error for r in h.records):11.4f}")

ratio = histories["updates"].total_inner() / histories["frozen"].total_inner()
print(f"\ninner-iteration ratio updates/frozen: {ratio:.3f}")
