"""End-to-end acceptance gate.

Ten numbered checks, one per release criterion. Each computes its
measurements first, reports a single pass/fail line through the
``acceptance`` fixture (printed in the terminal summary), then asserts.
Tolerances and wall-time caps are stated inline next to each check. After
criterion 7 an unnumbered check tests claim 2 at N = 2000 data, and after
criterion 10 one tests claim 1 over a family of nonlinearities; the latter
prints its readings under "claim checks".
"""

import csv
import time

import numpy as np
import pytest

from helpers import dense_tikhonov_solution, linear_model, tikhonov_system
from iterreg.cli import (ExperimentConfig, expand_methods, run_single,
                         run_stopping_study, run_work_precision)
from iterreg.krylov import pcg_solve, ritz_from_trace
from iterreg.operators import TikhonovSystem
from iterreg.preconditioner import (SpectralPreconditioner, TwoSidedSystem,
                                    merge_pairs,
                                    preconditioned_spectrum_check)
from iterreg.solvers import (EVENT_PLAIN, EVENT_RECOMPUTE, EVENT_UPDATE,
                             TERMINAL_MAX, _harvest, irgnm_run, newton_cg_run)
from iterreg.stopping import SampledPhi, WhiteNoisePhi
from iterreg.testbed import (DenseOracle, generate_noise,
                             make_convolution_problem, make_diagonal_problem,
                             make_nonlinear_composite, noise_sigma_for_level)


def test_criterion_1_preconditioner_identities(acceptance):
    # 25 seeded dense instances of dimension <= 60: apply_inverse matches
    # the dense solve to 1e-10 relative, the preconditioned spectrum matches
    # the predicted multiset {1} + {1 + lambda/gamma} to 1e-9, and the
    # back-map gamma * (mu - 1) recovers the uncaptured eigenvalues of
    # A^T A to 1e-9 (instances scaled to unit gram norm). Under 5 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_inverse = worst_spectrum = worst_backmap = 0.0
    for _ in range(25):
        m = int(rng.integers(8, 61))
        n = m + int(rng.integers(2, 20))
        a = rng.standard_normal((n, m))
        a /= np.linalg.norm(a, 2)
        w, v = np.linalg.eigh(a.T @ a)
        w, v = w[::-1].copy(), v[:, ::-1].copy()
        count = int(rng.integers(1, m))
        gamma = float(rng.uniform(0.05, 1.0))
        precond = SpectralPreconditioner(gamma, w[:count], v[:, :count])

        x = rng.standard_normal(m)
        direct = np.linalg.solve(precond.dense(), x)
        worst_inverse = max(worst_inverse, float(
            np.linalg.norm(precond.apply_inverse(x) - direct)
            / np.linalg.norm(direct)))

        report = preconditioned_spectrum_check(precond, a)
        worst_spectrum = max(worst_spectrum, report.max_abs_error)

        mu = np.sort(DenseOracle(a).preconditioned_gram_spectrum(
            precond.dense(), gamma))
        recovered = gamma * (mu[count:] - 1.0)
        expected = np.sort(w[count:])
        worst_backmap = max(worst_backmap,
                            float(np.max(np.abs(recovered - expected))))
    elapsed = time.perf_counter() - t0
    ok = (worst_inverse <= 1e-10 and worst_spectrum <= 1e-9
          and worst_backmap <= 1e-9 and elapsed < 5.0)
    acceptance(1, ok, f"inverse {worst_inverse:.1e}, spectrum "
                      f"{worst_spectrum:.1e}, back-map {worst_backmap:.1e}, "
                      f"{elapsed:.1f}s")
    assert worst_inverse <= 1e-10
    assert worst_spectrum <= 1e-9
    assert worst_backmap <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_ritz_residual_identity(acceptance):
    # Without a preconditioner the Lanczos coefficients predict the Ritz
    # residual: | ||G^T G (Q w_i) - theta_i (Q w_i)|| - bound_i | <= 1e-8 at
    # l in {3, 5, 10}, where bound_i = b_l |w_i(l)| + RITZ_ROUNDING eps
    # theta_max, with the left side computed by a dense matvec. Under 5 s.
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(14, 25))
        n = m + 10
        a = rng.standard_normal((n, m))
        gamma = float(rng.uniform(0.05, 0.5))
        gtg = a.T @ a + gamma * np.eye(m)
        for l in (3, 5, 10):
            sys = tikhonov_system(a, gamma, rhs_data=rng.standard_normal(n))
            _, trace = pcg_solve(sys, epsilon=1e-13, max_iterations=l)
            assert trace.iterations == l
            for pair in ritz_from_trace(trace):
                direct = float(np.linalg.norm(
                    gtg @ pair.vector - pair.theta * pair.vector))
                worst = max(worst, abs(direct - pair.residual_bound))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    acceptance(2, ok, f"worst defect {worst:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_3_cg_contract_and_full_spectrum(acceptance):
    # On 10 seeded systems the CG solution lands within eps/(1-eps) relative
    # of the dense Tikhonov solution at eps in {1/3, 1e-9}; a preconditioner
    # holding every eigenpair turns the system into the identity and CG
    # finishes in exactly one iteration. Under 10 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    contract_ok = True
    one_step_ok = True
    worst_fill = 0.0    # achieved error as a fraction of the allowed bound
    for _ in range(10):
        m = int(rng.integers(6, 16))
        n = m + int(rng.integers(2, 12))
        a = rng.standard_normal((n, m))
        gamma = float(rng.uniform(0.05, 2.0))
        data = rng.standard_normal(n)
        prior = rng.standard_normal(m)
        exact = dense_tikhonov_solution(a, gamma, data, prior)
        scale = float(np.linalg.norm(exact))
        for eps in (1.0 / 3.0, 1e-9):
            h, trace = pcg_solve(tikhonov_system(a, gamma, data, prior),
                                 epsilon=eps)
            err = float(np.linalg.norm(h - exact))
            # a whisker of float fuzz on top of the analytic bound
            bound = eps / (1.0 - eps) * scale + 1e-12 * scale
            worst_fill = max(worst_fill, err / bound)
            if err > bound or not trace.converged:
                contract_ok = False
        w, v = np.linalg.eigh(a.T @ a)
        precond = SpectralPreconditioner(gamma, w[::-1].copy(),
                                         v[:, ::-1].copy())
        _, trace = pcg_solve(tikhonov_system(a, gamma, data, prior), precond)
        if trace.iterations != 1:
            one_step_ok = False
    elapsed = time.perf_counter() - t0
    ok = contract_ok and one_step_ok and elapsed < 10.0
    acceptance(3, ok, f"worst error at {worst_fill:.2f}x the bound, "
                      f"full spectrum = 1 iteration: {one_step_ok}, "
                      f"{elapsed:.1f}s")
    assert contract_ok
    assert one_step_ok
    assert elapsed < 10.0


def test_criterion_4_preconditioner_payoff(acceptance):
    # Default nonlinear testbed, 25 Newton steps, 2% white noise: (a) the
    # standard step right after every preconditioner build needs strictly
    # fewer inner iterations than the standard step right before it, and
    # (b) total inner iterations with updates enabled stay at or below 0.8x
    # the total of the frozen run (variant "frozen": no update, and a
    # rebuild from a fresh Jacobian only on the square-number schedule
    # k = 0, 3, 8, 15, 24, with no inner-iteration guard). Under 2 min.
    t0 = time.perf_counter()
    problem = make_nonlinear_composite(make_diagonal_problem())
    y_exact = problem.model.evaluate(problem.truth)
    sigma = noise_sigma_for_level(y_exact, 0.02)
    y_obs = y_exact + generate_noise(sigma, y_exact.size, 1, 2)[0]
    x0 = np.zeros(problem.model.domain_dim)

    updated = irgnm_run(problem.model, y_obs, x0, max_newton=25,
                        truth=problem.truth)
    frozen = irgnm_run(problem.model, y_obs, x0, variant="frozen",
                       max_newton=25, truth=problem.truth)

    comparisons = []
    records = updated.records
    for i, rec in enumerate(records):
        if rec.event not in (EVENT_RECOMPUTE, EVENT_UPDATE):
            continue
        if i == 0 or i + 1 >= len(records):
            continue
        if records[i + 1].event != EVENT_PLAIN:
            continue
        comparisons.append((records[i - 1].inner_iterations,
                            records[i + 1].inner_iterations))
    strict = bool(comparisons) and all(after < before
                                       for before, after in comparisons)
    ratio = updated.total_inner() / frozen.total_inner()
    elapsed = time.perf_counter() - t0
    ok = strict and ratio <= 0.8 and elapsed < 120.0
    acceptance(4, ok, f"{len(comparisons)} builds all strictly cheaper "
                      f"after, inner ratio {ratio:.3f} <= 0.8, {elapsed:.1f}s")
    assert strict
    assert ratio <= 0.8
    assert elapsed < 120.0


def test_criterion_5_multiplicity_and_condition(acceptance):
    # The convolution gram matrix carries double eigenvalues. A single
    # Lanczos pass captures at most one vector per double (each captured
    # vector verified to lie in the dense eigenspace), and merging the
    # harvest of one further pass at a smaller gamma strictly decreases the
    # preconditioned condition number measured by the dense pencil route.
    # Under 1 min.
    t0 = time.perf_counter()
    problem = make_convolution_problem()
    a = problem.jacobian_matrix()
    dim = a.shape[1]
    w, v = np.linalg.eigh(a.T @ a)

    groups = []
    start = 0
    for i in range(1, dim + 1):
        if i == dim or abs(w[i] - w[i - 1]) > 1e-8 * max(w[i], w[i - 1]):
            groups.append(list(range(start, i)))
            start = i

    y_obs = problem.model.evaluate(problem.truth)
    jac = problem.model.linearize(problem.truth)
    gamma0 = 0.05 * float(w[-1])
    sys0 = TikhonovSystem(jac, gamma0, y_obs, np.zeros(dim))
    base0 = SpectralPreconditioner.empty(gamma0, dim)
    tsys0 = TwoSidedSystem(sys0, base0)
    h0, trace0 = pcg_solve(tsys0, epsilon=1e-9, max_iterations=30)
    pairs0 = _harvest(trace0, base0)

    per_group = {}
    worst_defect = 0.0
    for lam, u in pairs0:
        g = min(range(len(groups)), key=lambda gi: abs(w[groups[gi][0]] - lam))
        per_group[g] = per_group.get(g, 0) + 1
        basis = v[:, groups[g]]
        defect = float(np.linalg.norm(u - basis @ (basis.T @ u)))
        worst_defect = max(worst_defect, defect)
    multiple = {g: c for g, c in per_group.items() if len(groups[g]) >= 2}
    one_per_double = bool(multiple) and all(c <= 1 for c in multiple.values())
    in_eigenspace = bool(pairs0) and worst_defect <= 1e-5

    gamma1 = gamma0 / 10.0
    lams = np.array([lam for lam, _ in pairs0])
    vecs = np.column_stack([u for _, u in pairs0])
    order = np.argsort(lams)[::-1]
    p1 = SpectralPreconditioner(gamma1, lams[order], vecs[:, order])
    x1 = tsys0.pull_back(h0)
    resid1 = y_obs - problem.model.evaluate(x1)
    sys1 = TikhonovSystem(jac, gamma1, resid1, -x1)
    tsys1 = TwoSidedSystem(sys1, p1)
    _, trace1 = pcg_solve(tsys1, epsilon=1e-9, max_iterations=30)
    new_pairs = _harvest(trace1, p1)
    p2 = merge_pairs(p1, new_pairs)

    oracle = DenseOracle(a)
    spec_before = oracle.preconditioned_gram_spectrum(p1.dense(), gamma1)
    spec_after = oracle.preconditioned_gram_spectrum(p2.dense(), gamma1)
    cond_before = float(spec_before[-1] / spec_before[0])
    cond_after = float(spec_after[-1] / spec_after[0])
    improved = bool(new_pairs) and cond_after < cond_before

    elapsed = time.perf_counter() - t0
    ok = one_per_double and in_eigenspace and improved and elapsed < 60.0
    acceptance(5, ok, f"{len(pairs0)} captured, {len(multiple)} double "
                      f"eigenvalues hit once, subspace defect "
                      f"{worst_defect:.1e}, condition {cond_before:.1f} -> "
                      f"{cond_after:.1f}, {elapsed:.1f}s")
    assert one_per_double
    assert in_eigenspace
    assert improved
    assert elapsed < 60.0


def test_criterion_6_phi_estimators(acceptance):
    # With the complete eigenset the white-noise estimator reproduces the
    # exact trace value sigma * sqrt(trace(R R^T)) to 1e-10 relative; the
    # Monte-Carlo estimator with L = 500 samples lands within 15% of it.
    # Under 30 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(64)
    a = rng.standard_normal((40, 24))
    a /= np.linalg.norm(a, 2)
    sigma = 0.3
    oracle = DenseOracle(a)
    w, v = np.linalg.eigh(a.T @ a)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    jac = linear_model(a).linearize(np.zeros(24))
    worst_white = worst_sampled = 0.0
    for gamma in (0.5, 0.05, 0.005):
        exact = oracle.trace_phi(sigma, gamma)
        precond = SpectralPreconditioner(gamma, w, v).attach_left_vectors(jac)
        est = WhiteNoisePhi(sigma).evaluate(gamma, precond)
        worst_white = max(worst_white, abs(est - exact) / exact)
        samples = generate_noise(sigma, 40, 500, seed=11)
        mc = SampledPhi(samples).evaluate(gamma, precond)
        worst_sampled = max(worst_sampled, abs(mc - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst_white <= 1e-10 and worst_sampled <= 0.15 and elapsed < 30.0
    acceptance(6, ok, f"trace match {worst_white:.1e}, sampled within "
                      f"{100 * worst_sampled:.1f}%, {elapsed:.1f}s")
    assert worst_white <= 1e-10
    assert worst_sampled <= 0.15
    assert elapsed < 30.0


STUDY_INI = """
[problem]
kind = nonlinear-diagonal

[solver]
method = irgnm-prec
max_newton = 25

[noise]
level = 0.02
seed = 7
samples = 15

[stopping]
rule = lepskii
r_bound = 5.0
phi = white
"""


def test_criterion_7_stopping_study(acceptance, tmp_path):
    # 15 noise replicas at 2% relative white noise on the nonlinear testbed:
    # mean stop indices order discrepancy < lepskii <= oracle-optimal and
    # mean errors order oracle-optimal <= lepskii < discrepancy.
    # Under 10 min.
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_text(STUDY_INI)
    _rows, stats = run_stopping_study(cfg, out_dir=str(tmp_path))
    rules = ("discrepancy", "lepskii", "oracle-optimal")
    idx = {r: stats[r]["mean_stop_index"] for r in rules}
    err = {r: stats[r]["mean_error"] for r in rules}
    used_ok = all(stats[r]["samples_used"] == 15 for r in rules)
    idx_ok = idx["discrepancy"] < idx["lepskii"] <= idx["oracle-optimal"]
    err_ok = err["oracle-optimal"] <= err["lepskii"] < err["discrepancy"]
    elapsed = time.perf_counter() - t0
    ok = used_ok and idx_ok and err_ok and elapsed < 600.0
    acceptance(7, ok, f"indices {idx['discrepancy']:.2f} < "
                      f"{idx['lepskii']:.2f} <= {idx['oracle-optimal']:.2f}, "
                      f"errors {err['oracle-optimal']:.3f} <= "
                      f"{err['lepskii']:.3f} < {err['discrepancy']:.3f}, "
                      f"{elapsed:.0f}s")
    assert used_ok
    assert idx_ok
    assert err_ok
    assert elapsed < 600.0


@pytest.mark.parametrize("level, max_newton", [
    (0.005, 25), (0.005, 40), (0.02, 25),
    (0.02, 40),
])
def test_claim_2_stopping_study_at_2000_data(tmp_path, level, max_newton):
    # Claim 2 where the theory expects it: the noise norm grows like
    # sigma sqrt(N) while the propagated noise does not, so at N = 2000 the
    # 15-sample study of criterion 7 must order the mean errors
    # oracle-optimal <= lepskii < discrepancy. Not one of the ten criteria.
    cfg = ExperimentConfig.from_text(STUDY_INI)
    cfg.problem["n"] = 2000
    cfg.noise["level"] = level
    cfg.solver["max_newton"] = max_newton
    _rows, stats = run_stopping_study(cfg, out_dir=str(tmp_path))
    disc, lep, best = (stats[rule]["mean_error"] for rule in (
        "discrepancy", "lepskii", "oracle-optimal"))
    assert all(stats[rule]["samples_used"] == 15 for rule in stats)
    assert best <= lep < disc, (best, lep, disc)


WP_INI = """
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


def test_criterion_8_work_precision(acceptance, tmp_path):
    # Work-precision benchmark at 0.1% noise: at every cost budget beyond
    # the first 10% of the Landweber run, Landweber's best error so far is
    # strictly worse than that of each Newton-type method, and the
    # preconditioned method reaches the truncated-CG plateau error (its
    # lowest error) with at most 2/3 of its model units. Under 10 min.
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_text(WP_INI)
    run_work_precision(expand_methods(cfg), str(tmp_path))

    series = {}
    with open(tmp_path / "work_precision.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            series.setdefault(row["method"], []).append(
                (int(row["model_units"]), float(row["error"])))

    def frontier(points, budget):
        errs = [e for c, e in points if c <= budget]
        return min(errs) if errs else float("inf")

    land = series["landweber"]
    total = max(c for c, _ in land)
    threshold = 0.1 * total
    newton_methods = ("irgnm-prec", "irgnm-plain", "newton-cg")
    violations = 0
    for budget, _ in land:
        if budget <= threshold:
            continue
        land_best = frontier(land, budget)
        for name in newton_methods:
            if frontier(series[name], budget) >= land_best:
                violations += 1
    dominated = violations == 0

    ncg = series["newton-cg"]
    plateau = min(e for _, e in ncg)
    ncg_cost = max(c for c, _ in ncg)
    hit = next((c for c, e in series["irgnm-prec"] if e <= plateau), None)
    reach_ok = hit is not None and hit <= 2.0 * ncg_cost / 3.0

    elapsed = time.perf_counter() - t0
    ok = dominated and reach_ok and elapsed < 600.0
    acceptance(8, ok, f"{violations} domination violations past budget "
                      f"{threshold:.0f}, plateau {plateau:.4f} reached at "
                      f"{hit} of {ncg_cost} units, {elapsed:.0f}s")
    assert dominated
    assert reach_ok
    assert elapsed < 600.0


def test_criterion_10_exact_data_work_precision(acceptance, tmp_path):
    # The paper's work-precision claim on exact data: criterion 8's problem
    # and methods at level 0. At every checkpoint budget B >= 250 model
    # units, up to the end of the longest run, irgnm-prec's best error so
    # far is at most that of irgnm-plain and of Newton-CG. The detail also
    # reports the lead at B = 300, the tightest margin, and the units each
    # method needs to first reach each method's plateau (its lowest error).
    # Under 10 min.
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_text(WP_INI)
    cfg.noise["level"] = 0.0
    run_work_precision(expand_methods(cfg), str(tmp_path))

    series = {}
    with open(tmp_path / "work_precision.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            series.setdefault(row["method"], []).append(
                (int(row["model_units"]), float(row["error"])))

    def frontier(name, budget):
        return min((e for c, e in series[name] if c <= budget),
                   default=float("inf"))

    budgets = sorted({c for points in series.values() for c, _ in points
                      if c >= 250})
    rivals = ("irgnm-plain", "newton-cg")
    margins = [(frontier(r, b) / frontier("irgnm-prec", b), r, b)
               for b in budgets for r in rivals]
    violations = sum(ratio < 1.0 for ratio, _, _ in margins)
    tight, tight_rival, tight_budget = min(margins)
    lead = ", ".join(f"{frontier(r, 300) / frontier('irgnm-prec', 300):.1f}x "
                     f"over {r}" for r in rivals)

    def first_reach(points, level):
        return next((c for c, e in points if e <= level), "-")

    plateau = {name: min(e for _, e in points)
               for name, points in series.items()}
    reach = "; ".join(
        f"{target} {plateau[target]:.2e}: " + ", ".join(
            f"{name} {first_reach(points, plateau[target])}"
            for name, points in series.items())
        for target in series)

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 600.0
    acceptance(10, ok, f"{violations} violations at {len(budgets)} budgets "
                       f"{budgets[0]}..{budgets[-1]}, lead at 300: {lead}, "
                       f"tightest {tight:.3f}x over {tight_rival} at "
                       f"{tight_budget}; units to reach each plateau: "
                       f"{reach}; {elapsed:.0f}s")
    assert violations == 0
    assert elapsed < 600.0


@pytest.mark.parametrize("c3", [0.1, 0.5, 1.0, 2.0])
def test_claim_1_over_the_nonlinearity_family(claim_report, c3):
    # Criterion 10's claim over the strength c3 of the nonlinearity
    # F(x) = K (x + c3 x^3): on WP_INI's problem with exact data, irgnm-prec
    # runs its max_newton steps (MaxNewton, no Breakdown), and at every
    # checkpoint budget B in [250, irgnm-prec's last cumulative cost] its
    # best error so far is at most that of irgnm-plain and of Newton-CG.
    cfg = ExperimentConfig.from_text(WP_INI)
    p, solver = cfg.problem, cfg.solver
    problem = make_nonlinear_composite(make_diagonal_problem(
        m=p["m"], n=p["n"], decay_a=p["decay_a"], seed=p["seed"]), c3=c3)
    y = problem.model.evaluate(problem.truth)
    x0 = np.zeros(problem.model.domain_dim)
    runs = {f"irgnm-{variant}": irgnm_run(
        problem.model, y, x0, variant=variant, rhs_kind=solver["rhs_kind"],
        max_newton=solver["max_newton"], truth=problem.truth)
        for variant in ("prec", "plain")}
    runs["newton-cg"] = newton_cg_run(problem.model, y, x0,
                                      max_newton=solver["max_newton"],
                                      truth=problem.truth)

    def frontier(name, budget):
        return min((r.error for r in runs[name].records
                    if r.cumulative_cost <= budget), default=float("inf"))

    prec = runs["irgnm-prec"]
    last = prec.total_cost()
    budgets = sorted({r.cumulative_cost for h in runs.values()
                      for r in h.records if 250 <= r.cumulative_cost <= last})
    margins = [(frontier(rival, b) / frontier("irgnm-prec", b), rival, b)
               for b in budgets for rival in ("irgnm-plain", "newton-cg")]
    violations = sum(ratio < 1.0 for ratio, _, _ in margins)
    best = min(prec.records, key=lambda r: r.error)
    tight = "tightest {:.3f}x over {} at {}".format(*min(margins)) \
        if margins else "no budget"
    claim_report(f"claim 1 at c3 = {c3}: irgnm-prec {prec.terminal_reason}, "
                 f"best {best.error:.3g} at {best.cumulative_cost} units, "
                 f"{violations} violations at {len(budgets)} budgets "
                 f"250..{last}, {tight}")
    assert prec.terminal_reason == TERMINAL_MAX
    assert budgets and violations == 0


SOLVE_INI = """
[problem]
kind = nonlinear-diagonal
m = 20
n = 28
decay_a = 0.35
seed = 3

[solver]
method = irgnm-prec
max_newton = 6

[noise]
level = 0.02
seed = 11

[stopping]
rule = discrepancy
"""


def test_criterion_9_solve_rerun_is_byte_identical(acceptance, tmp_path):
    # Repeating a solve with the identical config writes the identical CSV,
    # byte for byte.
    cfg = ExperimentConfig.from_text(SOLVE_INI)
    run_single(cfg, str(tmp_path / "first"))
    run_single(cfg, str(tmp_path / "second"))
    first = (tmp_path / "first" / "run.csv").read_bytes()
    second = (tmp_path / "second" / "run.csv").read_bytes()
    ok = len(first) > 0 and first == second
    acceptance(9, ok, f"{len(first)} bytes twice")
    assert len(first) > 0
    assert first == second
