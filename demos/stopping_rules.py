"""Data-driven stopping on a single noisy run.

Drives the preconditioned Newton solver to the propagated-noise budget
(the last index where the estimated noise amplification Phi stays below
the error bound R), then reads three stopping decisions off the same
history:

- discrepancy: first k with residual <= tau * delta; reliable but early,
- balancing (Lepskii-type): smallest k whose iterate stays within
  rho * Phi of all later ones; needs no delta at the decision point,
- oracle-optimal: argmin of the true error, available only on testbeds.

The printed table shows the semiconvergence the rules have to detect:
the error falls, bottoms out, and grows again while the residual keeps
shrinking.

A sweep over the data size N then runs the 15-sample stopping study of
``iterreg stopping-study`` at N = 200, 500, 1000 and 2000 and prints the mean
error of each rule, and whether the ordering oracle <= balancing <
discrepancy holds. The noise norm grows like sigma sqrt(N) while the
propagated noise does not, so balancing should gain on discrepancy as N
grows. The sweep checks nothing: it prints what it finds. Its files go to a
temporary directory.

Run:  python3 demos/stopping_rules.py
"""

import tempfile

import numpy as np

from iterreg import (PhiBudgetDriver, WhiteNoisePhi, discrepancy_stop,
                     irgnm_run, lepskii_from_history)
from iterreg.cli import ExperimentConfig, run_stopping_study
from iterreg.stopping import RHO, TAU
from iterreg.testbed import (generate_noise, make_diagonal_problem,
                             make_nonlinear_composite, noise_sigma_for_level)

problem = make_nonlinear_composite(make_diagonal_problem())
y_exact = problem.model.evaluate(problem.truth)
sigma = noise_sigma_for_level(y_exact, 0.02)
noise = generate_noise(sigma, y_exact.size, 1, seed=7)[0]
y_obs = y_exact + noise
delta = float(np.linalg.norm(noise))
x0 = np.zeros(problem.model.domain_dim)

R_BOUND = 5.0
history = irgnm_run(problem.model, y_obs, x0, max_newton=25,
                    stop=PhiBudgetDriver(R_BOUND),
                    phi_estimator=WhiteNoisePhi(sigma), truth=problem.truth)

print(f"noise level delta = {delta:.4f}, tau = {TAU}, rho = {RHO}, "
      f"budget R = {R_BOUND}")
print(f"\n{'k':>3} {'residual':>9} {'phi':>9} {'error':>7}")
for r in history.records:
    print(f"{r.k:3d} {r.residual_norm:9.4f} {r.phi_k:9.4f} {r.error:7.4f}")

disc = discrepancy_stop(history.residual_norms(), TAU, delta)
bal = lepskii_from_history(history, RHO, R_BOUND)
errors = [r.error for r in history.records]
best = int(np.argmin(errors))

print("\nstopping decisions:")
print(f"{'rule':<16} {'index':>5} {'error':>8}")
print(f"{'discrepancy':<16} {disc:5d} {errors[disc]:8.4f}")
print(f"{'balancing':<16} {bal:5d} {errors[bal]:8.4f}")
print(f"{'oracle-optimal':<16} {best:5d} {errors[best]:8.4f}")

STUDY = """
[problem]
kind = nonlinear-diagonal
n = {n}
[solver]
max_newton = {max_newton}
[noise]
level = 0.02
samples = 15
[stopping]
r_bound = {r_bound}
"""

print("\nN sweep: mean error over 15 noise samples at level 0.02")
print(f"{'N':>5} {'max_newton':>10} {'discrepancy':>11} {'balancing':>9} "
      f"{'oracle':>7}  ordering")
with tempfile.TemporaryDirectory() as out:
    for n in (200, 500, 1000, 2000):
        for max_newton in (25, 40):
            cfg = ExperimentConfig.from_text(
                STUDY.format(n=n, max_newton=max_newton, r_bound=R_BOUND))
            _, stats = run_stopping_study(cfg, out)
            disc, bal, best = (stats[rule]["mean_error"] for rule in (
                "discrepancy", "lepskii", "oracle-optimal"))
            holds = "holds" if best <= bal < disc else "fails"
            print(f"{n:5d} {max_newton:10d} {disc:11.4f} {bal:9.4f} "
                  f"{best:7.4f}  {holds}")
