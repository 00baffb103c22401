"""Outer Newton loops: schedules, build/update policy, baselines, accounting."""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (GRAM_ESTIMATE_STEPS, GRAM_ESTIMATE_UNITS, linear_model,
                     must_update, nan_on_call, nan_on_evaluation, ritz_pair,
                     should_recompute, truncated_cgne_reference)
from iterreg import krylov, solvers, stopping
from iterreg.krylov import pcg_solve, ritz_from_trace
from iterreg.operators import (IRGNM, LEVENBERG_MARQUARDT, ContractError,
                               ForwardModel, TikhonovSystem)
from iterreg.preconditioner import SpectralPreconditioner, TwoSidedSystem
from iterreg.solvers import (EPS_STANDARD, EVENT_BASELINE, EVENT_FINAL,
                             EVENT_PLAIN, EVENT_RECOMPUTE, EVENT_UPDATE,
                             TERMINAL_BREAKDOWN, TERMINAL_INNER_CAP,
                             TERMINAL_MAX, TERMINAL_STEP_CAP, TERMINAL_STOP,
                             _harvest, _plan_step, estimate_gram_norm,
                             irgnm_run, landweber_run, newton_cg_run)
from iterreg.stopping import DeterministicPhi, WhiteNoisePhi
from iterreg.testbed import (DenseOracle, generate_noise,
                             make_convolution_problem, make_diagonal_problem,
                             make_nonlinear_composite, noise_sigma_for_level)


def _gammas(max_newton):
    """(gamma0, [gamma_k]) of an irgnm run on A = diag(1, 2, 3)."""
    history = irgnm_run(linear_model(np.diag([1.0, 2.0, 3.0])), np.ones(3),
                        np.zeros(3), max_newton=max_newton)
    return history.meta["gamma0"], [r.gamma_k for r in history.records]


def test_schedule_gamma_values(monkeypatch):
    # gamma_k = gamma0 * GAMMA_FACTOR^(-k), the factor read at each step.
    gamma0, gammas = _gammas(2)
    assert gamma0 == pytest.approx(9.0, rel=1e-12)
    assert gammas == pytest.approx([gamma0, gamma0 / 1.5, gamma0 / 2.25])
    monkeypatch.setattr(solvers, "GAMMA_FACTOR", 2.0)
    gamma0, gammas = _gammas(3)
    assert gammas[0] == gamma0
    assert gammas[3] == pytest.approx(0.125 * gamma0)
    # gamma_k = gamma0 * max(GAMMA_FACTOR^(-k), GAMMA_FLOOR): the floor
    # holds the shift once the schedule falls below it.
    monkeypatch.setattr(solvers, "GAMMA_FLOOR", 0.2)
    gamma0, gammas = _gammas(4)
    assert gammas == pytest.approx(
        [gamma0, gamma0 / 2, gamma0 / 4, gamma0 / 5, gamma0 / 5])


def test_constants_meet_the_conditions_of_the_theory():
    # The stop rules and the Ritz selection read these constants instead of
    # checking a parameter per call: the discrepancy principle needs tau > 1
    # and the balancing rule rho > 4; the selection keeps theta away from
    # the cluster at 1 with a relative residual bound; the shift floor is
    # relative to gamma0.
    assert stopping.TAU > 1.0
    assert stopping.RHO > 4.0
    assert krylov.RITZ_SEPARATION > 1.0
    assert 0.0 < krylov.RITZ_RESIDUAL_TOL < 1.0
    assert 0.0 < solvers.GAMMA_FLOOR < 1.0


RECOMPUTE = (EVENT_RECOMPUTE, True)
UPDATE = (EVENT_UPDATE, False)
PLAIN = (EVENT_PLAIN, False)


def test_plan_step_recompute_policy():
    # Arguments: k, m, the Plain steps' inner iterations since the last
    # build, that build's inner iterations.
    assert _plan_step(0, 0, 0, 0, "prec") == RECOMPUTE
    # sqrt(4) = sqrt(1) + 1 and the frozen Jacobian is stale, whether or
    # not the Plain steps have paid for the last build
    assert _plan_step(3, 0, 2, 10, "prec", True) == RECOMPUTE
    assert _plan_step(3, 0, 10, 10, "prec", True) == RECOMPUTE
    # sqrt(9) = sqrt(4) + 1, after a build of no iterations too
    assert _plan_step(8, 3, 0, 0, "prec", True) == RECOMPUTE
    assert _plan_step(8, 3, 50, 10, "prec", True) == RECOMPUTE
    # due but not stale: no Recompute
    assert _plan_step(3, 0, 2, 10, "prec", False) == PLAIN
    assert _plan_step(3, 0, 0, 0, "prec") == PLAIN
    # stale but not yet due: no Recompute
    assert _plan_step(2, 0, 2, 10, "prec", True) == PLAIN
    assert _plan_step(7, 3, 0, 50, "prec", True) == PLAIN
    # the frozen ablation ignores staleness
    assert _plan_step(3, 0, 0, 0, "frozen", False) == RECOMPUTE
    assert _plan_step(7, 3, 50, 1, "frozen", True) == PLAIN


def test_plan_step_update_policy():
    # m = 10: the schedule is not due before k = 18. An Update comes once
    # the Plain steps since the last build have together spent as many
    # inner iterations as that build did, and at least one.
    assert _plan_step(14, 10, 10, 10, "prec") == UPDATE  # paid exactly
    assert _plan_step(14, 10, 9, 10, "prec") == PLAIN    # one short
    # no age gate: one expensive Plain step pays at once
    assert _plan_step(12, 10, 40, 10, "prec") == UPDATE
    # a build of no iterations is paid by the first iteration, not by none
    assert _plan_step(12, 10, 0, 0, "prec") == PLAIN
    assert _plan_step(12, 10, 1, 0, "prec") == UPDATE
    # an Update keeps m, so the schedule still counts from the Recompute
    assert _plan_step(17, 10, 7, 7, "prec") == UPDATE
    # a due step whose Jacobian is not stale follows the same rule, and so
    # does a stale step that is not due
    assert _plan_step(18, 10, 6, 6, "prec", False) == UPDATE
    assert _plan_step(18, 10, 5, 6, "prec", False) == PLAIN
    assert _plan_step(17, 10, 6, 6, "prec", True) == UPDATE
    assert _plan_step(17, 10, 5, 6, "prec", True) == PLAIN
    # the frozen ablation never updates
    assert _plan_step(14, 10, 50, 1, "frozen") == PLAIN


@pytest.mark.parametrize("rhs_kind, convolution", [
    pytest.param(IRGNM, False, id="irgnm"),
    pytest.param(LEVENBERG_MARQUARDT, False, id="levenberg-marquardt"),
    pytest.param(IRGNM, True, id="convolution")])
def test_predicted_misfit_is_the_frozen_linear_model_misfit(monkeypatch,
                                                          rhs_kind,
                                                          convolution):
    # At every step of an irgnm-prec and an irgnm-plain run, the misfit
    # the staleness test reads equals ||r_k - A_m h_k|| with the dense
    # Jacobian at x_m, to 1e-8 relative, and costs no model unit: on the
    # k = 0 Recompute and Plain, later Recomputes, Updates, and Plain steps
    # with pairs (Lanczos in the M-inner product) and without. irgnm-prec
    # recomputes exactly when the schedule is due and the residual exceeds
    # STALE_RATIO times the last prediction. On the nonlinear convolution,
    # some Plain steps with pairs take the Galerkin start over the pair
    # set and no iteration; pcg_solve still runs them.
    base = make_convolution_problem(n=64, seed=0) if convolution \
        else make_diagonal_problem(m=30, n=40, seed=0)
    problem = make_nonlinear_composite(base, c3=1.0 if convolution else 2.0)
    dim, n = problem.model.domain_dim, problem.model.range_dim
    y = problem.model.evaluate(problem.truth)
    y = y + generate_noise(noise_sigma_for_level(y, 0.01), n, seed=3)[0]
    cost = problem.model.cost
    predict = solvers._predicted_misfit
    calls, preconditioned, started = [], [], []

    def solve_spy(sys, precond, *args, **kwargs):
        preconditioned.append(precond is not None)
        return pcg_solve(sys, precond, *args, **kwargs)

    def spy(sys, h, trace, residual_norm):
        before = cost.total
        predicted = predict(sys, h, trace, residual_norm)
        assert cost.total == before
        # the k = 0 solve continues the gamma0 estimate, not pcg_solve
        left = preconditioned.pop() if preconditioned else False
        calls.append((sys.rhs_data, h.copy(), left, predicted))
        if left and trace.iterations == 0:
            started.append(trace)
        return predicted

    monkeypatch.setattr(solvers, "pcg_solve", solve_spy)
    monkeypatch.setattr(solvers, "_predicted_misfit", spy)
    steps = set()
    for variant in ("prec", "plain"):
        calls.clear()
        history = irgnm_run(problem.model, y, np.zeros(dim),
                            variant=variant, rhs_kind=rhs_kind, max_newton=20)
        records = history.records
        assert history.terminal_reason == TERMINAL_MAX
        assert len(calls) == len(records) - 1
        for rec, (r, h, left, predicted) in zip(records, calls):
            a = problem.jacobian_matrix(records[rec.m].x_k)
            dense = np.linalg.norm(r - a @ h)
            assert predicted == pytest.approx(dense, rel=1e-8, abs=0.0)
            steps.add((rec.event, rec.k > 0, left))
        if variant == "prec":
            for k in range(1, len(calls)):
                stale = records[k].residual_norm \
                    > solvers.STALE_RATIO * calls[k - 1][3]
                assert (records[k].event == EVENT_RECOMPUTE) \
                    == should_recompute(k, records[k - 1].m, stale, "prec")
    assert {(EVENT_RECOMPUTE, False, False), (EVENT_RECOMPUTE, True, False),
            (EVENT_UPDATE, True, False), (EVENT_PLAIN, True, True),
            (EVENT_PLAIN, True, False)} <= steps
    assert started or not convolution


def test_frozen_ablation_rebuilds_on_schedule_without_guard():
    # With updates off a due rebuild needs no expensive standard step, an
    # undue one still waits for the schedule, and nothing updates.
    assert _plan_step(3, 0, 0, 0, "frozen") == RECOMPUTE
    assert _plan_step(8, 3, 3, 0, "frozen") == RECOMPUTE
    assert _plan_step(2, 0, 50, 1, "frozen") == PLAIN
    assert _plan_step(7, 3, 50, 1, "frozen") == PLAIN


def test_frozen_ablation_rebuilds_exactly_at_squares_minus_one():
    # Walking the schedule rebuilds at k = j^2 - 1 and at no other step.
    builds, m = [], 0
    for k in range(200_000):
        if _plan_step(k, m, 0, 0, "frozen")[1]:
            builds.append(k)
            m = k
    assert builds == [j * j - 1 for j in range(1, 448)]
    # Far out, where float square roots of k + 1 no longer resolve a unit
    # step, a build at j^2 - 1 is due at (j+1)^2 - 1 and not one step before.
    for j in (10**4, 10**6, 10**8, 10**9 + 7):
        m = j * j - 1
        assert _plan_step((j + 1) ** 2 - 2, m, 0, 0, "frozen") == PLAIN
        assert _plan_step((j + 1) ** 2 - 1, m, 0, 0, "frozen") == RECOMPUTE


def test_schedule_test_agrees_with_its_float_form():
    # The reference: the schedule test in floating point, with its 1e-12
    # allowance for rounding in the square roots.
    def due_float(k, m):
        return np.sqrt(k + 1.0) + 1e-12 >= np.sqrt(m + 1.0) + 1.0

    # For each m, k runs past the first due step, m + 1 + 2 sqrt(m + 1).
    for m in range(3000):
        for k in range(max(m, 1), m + 2 * math.isqrt(m + 1) + 4):
            assert (_plan_step(k, m, 0, 0, "frozen") == RECOMPUTE) \
                == due_float(k, m), (k, m)


@st.composite
def _step_states(draw):
    k = draw(st.integers(0, 200))
    return (k, draw(st.integers(0, k)), draw(st.integers(0, 40)),
            draw(st.integers(0, 40)), draw(st.booleans()))


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(_step_states(), st.sampled_from(("prec", "plain", "frozen")))
def test_plan_step_matches_the_reference_predicates(state, variant):
    # The plan irgnm_run made from the two reference predicates: irgnm-plain
    # relinearizes at every step; irgnm-prec and the frozen ablation rebuild
    # when should_recompute holds, and irgnm-prec otherwise updates when
    # must_update holds.
    k, m, plain_inner, build_inner, stale = state
    if variant == "plain":
        expected = (EVENT_PLAIN, True)
    elif should_recompute(k, m, stale, variant):
        expected = RECOMPUTE
    elif variant == "prec" and must_update(plain_inner, build_inner):
        expected = UPDATE
    else:
        expected = PLAIN
    assert _plan_step(k, m, plain_inner, build_inner, variant, stale) \
        == expected


def test_irgnm_run_validates_its_settings():
    # Each bad setting is refused before the gamma0 estimate or F(x0).
    cases = [({"rhs_kind": "gradient"}, "unknown rhs_kind 'gradient'"),
             ({"variant": "bogus"}, "unknown variant 'bogus'"),
             ({"max_newton": 0}, "max_newton must be positive")]
    for bad, message in cases:
        model = linear_model(np.eye(3))
        with pytest.raises(ContractError, match=message):
            irgnm_run(model, np.ones(3), np.zeros(3), **bad)
        assert model.cost.total == 0, bad


@pytest.mark.parametrize("run", [irgnm_run, landweber_run, newton_cg_run])
def test_runs_share_one_calling_convention(run):
    # (model, y_obs, x0, *, <settings>, stop=None, truth=None): a fourth
    # positional argument is refused before anything runs.
    params = inspect.signature(run).parameters
    assert list(params)[:3] == ["model", "y_obs", "x0"]
    assert all(p.kind is p.KEYWORD_ONLY for p in list(params.values())[3:])
    assert params["stop"].default is None and params["truth"].default is None
    model = linear_model(np.eye(3))
    with pytest.raises(TypeError):
        run(model, np.ones(3), np.zeros(3), 5)
    assert model.cost.total == 0


def test_identity_model_first_step(monkeypatch):
    # A = I, so gamma0 = ||A^T A|| = 1: the first Newton step lands on
    # y / (1 + gamma0).
    monkeypatch.setattr(solvers, "EPS_ACCURATE", 1e-12)
    model = linear_model(np.eye(4))
    y = np.array([2.0, -4.0, 1.0, 0.0])
    history = irgnm_run(model, y, np.zeros(4), max_newton=1)
    assert history.meta["gamma0"] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(history.records[-1].x_k, y / 2.0, rtol=1e-9)
    assert history.records[0].event == EVENT_RECOMPUTE
    assert history.records[-1].event == EVENT_FINAL
    assert history.terminal_reason == TERMINAL_MAX


def test_square_number_build_schedule_guards_disabled():
    # With updates off the rebuild guard is off too, so rebuilds happen
    # exactly when k+1 is the next perfect square: k = 0, 3, 8, 15, 24.
    problem = make_diagonal_problem(m=12, n=16, decay_a=0.4, seed=0)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(12), max_newton=25,
                        variant="frozen")
    rebuilds = [r.k for r in history.records if r.event == EVENT_RECOMPUTE]
    assert rebuilds == [0, 3, 8, 15, 24]
    # every other non-final step keeps the frozen Jacobian: m = last rebuild
    for r in history.records[:-1]:
        expected_m = max(b for b in rebuilds if b <= r.k)
        assert r.m == expected_m


def test_cost_audit_and_arrival_semantics():
    problem = make_diagonal_problem(m=10, n=14, seed=3)
    y = problem.model.evaluate(problem.truth)
    before = problem.model.cost.total
    history = irgnm_run(problem.model, y, np.zeros(10), max_newton=6)
    # the terminal row carries the full cost of the run
    assert history.total_cost() == problem.model.cost.total - before
    costs = [r.cumulative_cost for r in history.records]
    assert all(b > a for a, b in zip(costs, costs[1:]))
    # cumulative_cost is the meter reading at iterate arrival: the first
    # record has paid only its own evaluation, the gamma0 estimate coming
    # after it
    assert costs[0] == 1


def test_gamma0_auto_resolution_costs_the_estimate():
    problem = make_diagonal_problem(m=10, n=14, seed=3)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(10), max_newton=2)
    # The estimate runs after F(x0), from the first solve's right-hand side,
    # and that solve continues its Lanczos run: the k = 0 row has paid only
    # its evaluation, and a first solve of at least GRAM_ESTIMATE_STEPS
    # iterations reuses every unit of the estimate.
    first = history.records[0]
    assert first.inner_iterations >= GRAM_ESTIMATE_STEPS
    assert first.cumulative_cost == 1
    assert history.records[1].cumulative_cost \
        == 1 + (1 + 2 * first.inner_iterations) + 1
    assert history.meta["estimate_units"] == 0
    # sigma_0 = 1 so ||A^T A|| = 1; the estimate must be close
    assert history.meta["gamma0"] == pytest.approx(1.0, rel=0.1)


@pytest.mark.parametrize("variant", ["prec", "plain", "frozen"])
@pytest.mark.parametrize("rhs_kind", [IRGNM, LEVENBERG_MARQUARDT])
def test_first_step_of_an_estimating_run_costs_its_solve(variant, rhs_kind):
    # The first solve of l0 iterations costs 1 + 2 l0 units, as a cold CG
    # solve would; the estimate's 2 GRAM_ESTIMATE_STEPS units (the start
    # vector's adjoint apply and five Lanczos steps but the last adjoint)
    # are part of them once l0 >= GRAM_ESTIMATE_STEPS, and the rest is
    # estimate_units. irgnm-plain's first solve, at EPS_STANDARD, is short.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=10, n=14, seed=3), c3=0.5)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(10), max_newton=2,
                        variant=variant, rhs_kind=rhs_kind)
    l0 = history.records[0].inner_iterations
    # the k = 1 row has paid F(x0), the first step and F(x1)
    spent = history.records[1].cumulative_cost - 2
    assert history.meta["estimate_units"] \
        == max(0, 2 * GRAM_ESTIMATE_STEPS - 1 - 2 * l0)
    assert spent == 1 + 2 * l0 + history.meta["estimate_units"]
    assert (l0 >= GRAM_ESTIMATE_STEPS) == (variant != "plain")


def test_estimating_run_stopped_at_k0_counts_the_estimate():
    # A stop at k = 0 takes no step: the estimate's units are all unused,
    # and the only row, re-read when the run ends, carries them.
    problem = make_diagonal_problem(m=10, n=14, seed=3)
    y = problem.model.evaluate(problem.truth)
    before = problem.model.cost.total
    history = irgnm_run(problem.model, y, np.zeros(10), max_newton=2,
                        stop=lambda k, rn, phi: True)
    assert history.terminal_reason == TERMINAL_STOP
    assert history.meta["estimate_units"] == 2 * GRAM_ESTIMATE_STEPS
    assert history.total_cost() == problem.model.cost.total - before \
        == 1 + 2 * GRAM_ESTIMATE_STEPS


def test_first_solve_without_a_start_vector_estimates_from_a_random_one():
    # y = F(x0) makes b0 = A^T (y - F(x0)) = 0: gamma0 is the random-start
    # estimate, its GRAM_ESTIMATE_UNITS units are unused, and the first
    # solve returns h = 0 after no iteration, as a cold CG solve does.
    a = np.diag(np.linspace(1.0, 3.0, 10))
    model = linear_model(a)
    x0 = np.linspace(-1.0, 1.0, 10)
    history = irgnm_run(model, model.evaluate(x0), x0, max_newton=1)
    assert history.meta["gamma0"] \
        == estimate_gram_norm(model.linearize(x0))
    assert history.meta["estimate_units"] == GRAM_ESTIMATE_UNITS
    assert history.records[0].inner_iterations == 0
    assert history.records[1].cumulative_cost == 2 + 1 + GRAM_ESTIMATE_UNITS
    np.testing.assert_array_equal(history.records[1].x_k, x0)


@pytest.mark.parametrize("rhs_kind", [IRGNM, LEVENBERG_MARQUARDT])
def test_a_build_of_no_iterations_is_not_paid_for_by_none(rhs_kind):
    # Exact data at x0 = truth: every right-hand side is zero, so the k = 0
    # Recompute takes 0 inner iterations, and so does every Plain step.
    # Plain steps of no iteration never pay for that build, so no step
    # updates (a rule of plain >= build alone would update at each one).
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=20, n=30, seed=0))
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, problem.truth, rhs_kind=rhs_kind,
                        max_newton=10)
    assert [rec.event for rec in history.records] \
        == [EVENT_RECOMPUTE] + [EVENT_PLAIN] * 9 + [EVENT_FINAL]
    assert history.total_inner() == 0
    assert history.terminal_reason == TERMINAL_MAX


def test_gamma0_from_an_exhausted_krylov_space_is_the_random_estimate():
    # b0 lies in the span of two eigenvectors of A^T A, so its Krylov space
    # is exhausted after two Lanczos steps, whose T_2 has the eigenvalues 4
    # and 2.25 while ||A^T A|| = 9. gamma0 is then the random-start
    # estimate, close to 9;
    # the first solve, a Recompute, continues the exhausted run to the
    # exact Tikhonov step, in the two steps a cold solve takes, and returns
    # the first Galerkin iterate that meets the standard test
    # ||r|| <= EPS_STANDARD gamma0 ||h||: here the first, along b = A^T y.
    a = np.diag([3.0, 2.0, 1.5, 1.0, 0.8, 0.6, 0.5, 0.4])
    model = linear_model(a)
    y = np.zeros(8)
    y[1:3] = [1.0, -2.0]
    history = irgnm_run(model, y, np.zeros(8), max_newton=1)
    gamma0 = history.meta["gamma0"]
    assert gamma0 == estimate_gram_norm(model.linearize(np.zeros(8)))
    assert gamma0 == pytest.approx(9.0, rel=1e-3)
    assert history.records[0].inner_iterations == 2
    assert history.meta["estimate_units"] == GRAM_ESTIMATE_UNITS
    b, shifted = a.T @ y, a.T @ a + gamma0 * np.eye(8)
    first = (b @ b) / (b @ shifted @ b) * b
    assert np.linalg.norm(b - shifted @ first) \
        <= EPS_STANDARD * gamma0 * np.linalg.norm(first)
    np.testing.assert_allclose(history.records[1].x_k, first, rtol=1e-12)


def test_gamma0_on_a_domain_below_the_estimate_steps_is_exact():
    # On a domain of 3 the Lanczos run from b0 fills the space in 3 steps:
    # gamma0 is ||A^T A|| itself, and the first solve ends on the exhausted
    # space after 3 iterations, having reused every unit.
    a = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 0.7],
                  [0.2, 0.4, 0.1]])
    model = linear_model(a)
    history = irgnm_run(model, np.ones(4), np.zeros(3), max_newton=1)
    assert history.meta["gamma0"] \
        == pytest.approx(np.linalg.norm(a, 2) ** 2, rel=1e-13)
    assert history.records[0].inner_iterations == 3
    assert history.meta["estimate_units"] == 0


def test_first_solve_is_capped_at_max_inner_below_the_estimate_steps(
        monkeypatch):
    # MAX_INNER = 2 < GRAM_ESTIMATE_STEPS: the estimate still runs its five
    # steps, in a basis of max(GRAM_ESTIMATE_STEPS, MAX_INNER) + 1 rows, and
    # the first solve reports 2 unconverged iterations, as a cold one would.
    monkeypatch.setattr(solvers, "MAX_INNER", 2)
    problem = make_diagonal_problem(m=10, n=14, seed=3)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(10), max_newton=1)
    assert history.records[0].inner_iterations == 2
    assert history.meta["inner_unconverged"] == 1
    assert history.meta["estimate_units"] == 2 * GRAM_ESTIMATE_STEPS - 1 - 4


def test_landweber_and_newton_cg_report_their_estimate_units():
    problem = make_diagonal_problem(m=10, n=14, seed=3)
    y = problem.model.evaluate(problem.truth)
    x0 = np.zeros(10)
    estimated = landweber_run(problem.model, y, x0, max_steps=2)
    assert estimated.meta["estimate_units"] == GRAM_ESTIMATE_UNITS == 9
    assert estimated.records[0].cumulative_cost == GRAM_ESTIMATE_UNITS + 1
    history = newton_cg_run(problem.model, y, x0, max_newton=2)
    assert history.meta["estimate_units"] == 0
    assert history.records[0].cumulative_cost == 1


def test_plain_mode_relinearizes_every_step():
    problem = make_diagonal_problem(m=8, n=10, seed=1)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(8), max_newton=5,
                        variant="plain")
    assert history.method == "irgnm-plain"
    for r in history.records[:-1]:
        assert r.event == EVENT_PLAIN
        assert r.m == r.k


def test_each_variant_names_its_history():
    # The frozen ablation reports itself, not as irgnm-prec.
    problem = make_diagonal_problem(m=8, n=10, seed=1)
    y = problem.model.evaluate(problem.truth)
    for variant in ("prec", "plain", "frozen"):
        history = irgnm_run(problem.model, y, np.zeros(8), max_newton=2,
                            variant=variant)
        assert history.method == f"irgnm-{variant}"


def test_stop_driver_terminates_run():
    problem = make_diagonal_problem(m=8, n=10, seed=1)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(8), max_newton=20,
                        stop=lambda k, residual_norm, phi: k >= 2)
    assert history.terminal_reason == TERMINAL_STOP
    assert history.records[-1].k == 2
    assert len(history.records) == 3
    final = history.records[-1]
    assert final.event == EVENT_FINAL
    assert final.inner_iterations == 0


def test_harvest_back_map(monkeypatch):
    # Every harvested pair is (gamma (theta - 1), M^{-1/2} v normalized) for
    # a selected Ritz pair (theta, v) of the two-sided operator.
    problem = make_diagonal_problem(m=12, n=16, seed=4)
    a = problem.jacobian_matrix()
    lam, v = np.linalg.eigh(a.T @ a)
    gamma = 0.05
    base = SpectralPreconditioner(gamma, lam[-2:], v[:, -2:])
    sys = TikhonovSystem(problem.model.linearize(np.zeros(12)), gamma,
                         np.ones(16), np.zeros(12))
    _, trace = pcg_solve(TwoSidedSystem(sys, base), epsilon=1e-9)
    pairs = _harvest(trace, base)
    kept = [p for p in ritz_from_trace(trace)
            if p.theta >= 1.1 and p.residual_bound <= 1e-6 * p.theta]
    assert pairs and len(pairs) == len(kept)
    for (value, u), p in zip(pairs, kept):
        assert value == gamma * (p.theta - 1.0)
        raw = base.apply_inv_sqrt(p.vector)
        np.testing.assert_array_equal(u, raw / np.linalg.norm(raw))
    # Pairs with theta <= 1 carry no spectral information; the selection
    # threshold RITZ_SEPARATION > 1 keeps them out of the harvest.
    e = np.eye(3)
    thetas = (0.5, 1.0, 1.5, 3.0)
    monkeypatch.setattr(solvers, "ritz_from_trace", lambda trace: [
        ritz_pair(theta, e[:, i % 3], 0.0) for i, theta in enumerate(thetas)])
    trace = type("Trace", (), {"iterations": 4})()
    pairs = _harvest(trace, SpectralPreconditioner.empty(0.2, 3))
    assert [value for value, _ in pairs] == [0.2 * 0.5, 0.2 * 2.0]
    np.testing.assert_array_equal(np.column_stack([u for _, u in pairs]),
                                  e[:, [2, 0]])


def test_truth_and_phi_columns(monkeypatch):
    monkeypatch.setattr(solvers, "GAMMA_FACTOR", 2.0)
    problem = make_diagonal_problem(m=8, n=10, seed=2)
    y = problem.model.evaluate(problem.truth)
    kwargs = dict(max_newton=4)
    est = DeterministicPhi(0.08)
    history = irgnm_run(problem.model, y, np.zeros(8), **kwargs,
                        phi_estimator=est, truth=problem.truth)
    for r in history.records:
        assert r.phi_k == pytest.approx(0.08 / (2.0 * np.sqrt(r.gamma_k)))
        assert r.error is not None
    assert history.records[-1].error < history.records[0].error

    bare = irgnm_run(problem.model, y, np.zeros(8), **kwargs)
    assert all(r.error is None for r in bare.records)
    assert all(r.phi_k is None for r in bare.records)


def test_white_noise_phi_zero_until_first_build():
    problem = make_diagonal_problem(m=8, n=10, seed=2)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(8), max_newton=4,
                        phi_estimator=WhiteNoisePhi(0.01))
    phis = [r.phi_k for r in history.records]
    assert phis[0] == 0.0          # evaluated before the k=0 build
    assert all(p > 0.0 for p in phis[1:])


def test_irgnm_matches_dense_newton_recursion(monkeypatch):
    # For a linear model the frozen Jacobian is exact, so with tight inner
    # tolerances the iterates must track the dense Tikhonov recursion.
    monkeypatch.setattr(solvers, "EPS_STANDARD", 1e-9)
    monkeypatch.setattr(solvers, "EPS_ACCURATE", 1e-11)
    monkeypatch.setattr(solvers, "GAMMA_FACTOR", 2.0)
    problem = make_diagonal_problem(m=12, n=16, decay_a=0.3, seed=4)
    a = problem.matrix
    y = problem.model.evaluate(problem.truth)
    oracle = DenseOracle(a)
    for rhs_kind in ("irgnm", LEVENBERG_MARQUARDT):
        history = irgnm_run(problem.model, y, np.zeros(12), max_newton=5,
                            rhs_kind=rhs_kind)
        x = np.zeros(12)
        for k in range(5):
            gamma_k = history.meta["gamma0"] * 2.0 ** (-k)
            prior = -x if rhs_kind == "irgnm" else None
            x = x + oracle.tikhonov_solve(gamma_k, y - a @ x, prior)
        np.testing.assert_allclose(history.records[-1].x_k, x, rtol=1e-6,
                                   atol=1e-9)


def test_plain_probe_follows_every_build():
    # A build resets the inner-iteration probe, so the step right after a
    # Recompute or Update is always a Plain step (never another build).
    base = make_diagonal_problem(m=15, n=20, decay_a=0.5, seed=6)
    problem = make_nonlinear_composite(base, c3=1.0)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(15), max_newton=20)
    events = [r.event for r in history.records]
    for i, event in enumerate(events[:-1]):
        if event in (EVENT_RECOMPUTE, EVENT_UPDATE):
            assert events[i + 1] in (EVENT_PLAIN, EVENT_FINAL)


def test_landweber_identity_closed_form():
    # On F(x) = x the step size is mu = 0.95 / ||I|| and
    # x_k = (1 - (1 - mu)^k) y.
    model = linear_model(np.eye(3))
    y = np.ones(3)
    history = landweber_run(model, y, np.zeros(3), max_steps=6)
    mu = history.meta["mu"]
    assert mu == pytest.approx(0.95, rel=1e-12)
    for r in history.records:
        expected = (1.0 - (1.0 - mu) ** r.k) * y
        np.testing.assert_allclose(r.x_k, expected, rtol=1e-12, atol=1e-12)
        # one evaluation + one adjoint per completed step, after the
        # estimate of mu
        assert r.cumulative_cost \
            == 2 * r.k + 1 + history.meta["estimate_units"]
    assert history.method == "landweber"
    assert history.records[-1].event == EVENT_FINAL


def test_capped_landweber_run_ends_with_step_cap():
    # Landweber takes no Newton step, so reaching its step cap is StepCap,
    # not MaxNewton; a stop rule that fires first still outranks the cap.
    model = linear_model(np.eye(3))
    capped = landweber_run(model, np.ones(3), np.zeros(3), max_steps=6)
    assert capped.terminal_reason == TERMINAL_STEP_CAP
    assert [r.k for r in capped.records] == list(range(7))
    stopped = landweber_run(model, np.ones(3), np.zeros(3), max_steps=6,
                            stop=lambda k, rn, phi: k == 3)
    assert stopped.terminal_reason == TERMINAL_STOP
    assert stopped.records[-1].k == 3


def test_landweber_distinguishes_divergence():
    # F(x) = 0.01 x + x^3 entrywise: the step size fitted to F'(0) = 0.01 I
    # overshoots to x_1 = 95 in every entry, where the residual is about
    # 8.6e5 times the starting one.
    model = ForwardModel(3, 3, lambda x: 0.01 * x + x ** 3,
                         lambda x: (lambda v: (0.01 + 3 * x ** 2) * v,
                                    lambda w: (0.01 + 3 * x ** 2) * w))
    history = landweber_run(model, np.ones(3), np.zeros(3), max_steps=20)
    assert history.terminal_reason == TERMINAL_BREAKDOWN
    assert len(history.records) < 20
    assert "exceeds 10.0 times the starting residual" \
        in history.meta["breakdown"]


def test_landweber_refuses_a_step_size_that_overflows():
    # ||A^T A|| = 1e-320 is subnormal but positive, so it admits an
    # estimate, and mu = 0.95 / 1e-320 overflows: the run refuses it before
    # F(x0).
    model = linear_model(np.diag([1e-160, 1e-160, 1e-160]))
    with pytest.raises(ContractError, match=r"mu = 0\.95 / .* overflows"):
        landweber_run(model, np.ones(3), np.zeros(3))
    assert model.cost.evaluations == 0


def test_landweber_auto_step_size():
    problem = make_diagonal_problem(m=6, n=8, seed=7)
    y = problem.model.evaluate(problem.truth)
    history = landweber_run(problem.model, y, np.zeros(6), max_steps=30,
                            truth=problem.truth)
    # ||A^T A|| = 1 here, so the automatic mu sits just under 0.95
    assert history.meta["mu"] == pytest.approx(0.95, rel=0.1)
    assert history.records[-1].residual_norm \
        < history.records[0].residual_norm


def test_newton_cg_reduces_residual_and_counts_cost():
    base = make_diagonal_problem(m=10, n=14, seed=8)
    problem = make_nonlinear_composite(base, c3=0.5)
    y = problem.model.evaluate(problem.truth)
    before = problem.model.cost.total
    history = newton_cg_run(problem.model, y, np.zeros(10), max_newton=8,
                            truth=problem.truth)
    assert history.method == "newton-cg"
    assert history.records[-1].residual_norm \
        < 0.5 * history.records[0].residual_norm
    assert history.total_cost() == problem.model.cost.total - before
    events = {r.event for r in history.records}
    assert events == {EVENT_BASELINE, EVENT_FINAL}


@pytest.mark.parametrize("run", [
    lambda model, y, x0: irgnm_run(model, y, x0, max_newton=6),
    lambda model, y, x0: irgnm_run(model, y, x0, max_newton=6,
                                   variant="plain"),
    lambda model, y, x0: newton_cg_run(model, y, x0, max_newton=6),
    lambda model, y, x0: landweber_run(model, y, x0, max_steps=6),
], ids=["irgnm-prec", "irgnm-plain", "newton-cg", "landweber"])
def test_records_hold_distinct_iterates_and_leave_x0_alone(run):
    # The records keep the loop's iterates without copies: no two records,
    # and no record and the caller's x0, share memory; x0 keeps its values,
    # and each record still holds the iterate its residual was taken at.
    problem = make_nonlinear_composite(make_diagonal_problem(m=10, n=14,
                                                             seed=8), c3=0.5)
    y = problem.model.evaluate(problem.truth)
    x0 = np.full(10, 0.1)
    before = x0.copy()
    history = run(problem.model, y, x0)
    iterates = [r.x_k for r in history.records]
    assert len(iterates) == 7
    for a, b in itertools.combinations([x0, *iterates], 2):
        assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(x0, before)
    for r in history.records:
        assert r.residual_norm == pytest.approx(
            np.linalg.norm(y - problem.model.evaluate(r.x_k)), rel=1e-12)


def test_newton_cg_inner_solve_skips_the_adjoint_it_never_reads():
    # One adjoint, then per iteration one apply and one adjoint but the
    # last: 2 * iterations units, one fewer than the loop that also formed
    # A^T d after its last iteration, whether the target ends the solve or
    # the cap does (capped: the target is still unmet).
    problem = make_diagonal_problem(m=10, n=14, seed=8)
    jac = problem.model.linearize(np.zeros(10))
    b = problem.model.evaluate(problem.truth)
    cost = problem.model.cost
    for rho, cap, capped in ((0.5, 200, False), (1e-12, 3, True)):
        results = []
        for solve in (solvers._truncated_cgne, truncated_cgne_reference):
            before = cost.total
            results.append((*solve(jac, b, rho, cap), cost.total - before))
        (h, iterations, was_capped, units), reference = results
        assert h.tobytes() == reference[0].tobytes()
        assert (iterations, was_capped) == reference[1:3]
        assert 1 <= iterations <= cap and was_capped == capped
        assert units == 2 * iterations == reference[3] - 1
        if capped:
            assert iterations == cap
            assert np.linalg.norm(b - jac.apply(h)) > rho * np.linalg.norm(b)


def _zero_on_apply(a, call):
    """Model of the matrix ``a`` whose ``call``-th Jacobian apply returns
    zeros."""
    count = 0

    def apply(v):
        nonlocal count
        count += 1
        return np.zeros(a.shape[0]) if count == call else a @ v

    return ForwardModel(a.shape[1], a.shape[0], lambda x: a @ x,
                        lambda x: (apply, lambda w: a.T @ w))


@pytest.mark.parametrize("model, b_vec, rho, units", [
    # d = (0, 0, 1) after one iteration is above the target 0.8 ||b||, and
    # A^T d = 0: the solve ends having read that adjoint apply, at 2i + 1
    (linear_model(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])),
     np.array([0.1, 0.1, 1.0]), 0.8, 3),
    # the second Jacobian apply collapses the search direction: the solve
    # ends having read it, at 2i + 2
    (_zero_on_apply(np.diag([1.0, 2.0, 3.0]), 2), np.ones(3), 0.01, 4),
], ids=["adjoint-vanishes", "direction-collapses"])
def test_newton_cg_inner_solve_early_exits(model, b_vec, rho, units):
    # The two exits csv_schema.md documents besides the target and the
    # cap: neither is capped, and each costs the units it read.
    jac = model.linearize(np.zeros(model.domain_dim))
    h, iterations, capped = solvers._truncated_cgne(jac, b_vec, rho,
                                                    solvers.MAX_INNER)
    assert (iterations, capped, model.cost.total) == (1, False, units)
    assert np.linalg.norm(b_vec - jac.apply(h)) > rho * np.linalg.norm(b_vec)


def test_newton_cg_run_cost_counts_two_units_per_inner_iteration():
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=10, n=14, seed=8), c3=0.5)
    y = problem.model.evaluate(problem.truth)
    history = newton_cg_run(problem.model, y, np.zeros(10), max_newton=8)
    steps = history.records[:-1]
    assert all(r.inner_iterations >= 1 for r in steps)
    assert history.total_cost() == len(history.records) \
        + sum(2 * r.inner_iterations for r in steps)


def test_runs_and_solves_write_no_array_they_are_given(monkeypatch):
    # The loops update only arrays they allocate. Every array a caller
    # passes in, and the residual vector the outer loop hands each step, is
    # made read-only here, so an in-place write to one of them raises.
    def frozen(*arrays):
        for a in arrays:
            a.flags.writeable = False
        return arrays

    run = solvers._OuterLoop.run

    def run_with_frozen_steps(self, step, *args, **kwargs):
        def frozen_step(rec, x, residual_vec):
            return step(rec, *frozen(x, residual_vec))
        return run(self, frozen_step, *args, **kwargs)

    monkeypatch.setattr(solvers._OuterLoop, "run", run_with_frozen_steps)
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=10, n=14, seed=8), c3=0.5)
    rng = np.random.default_rng(4)
    y, x0 = frozen(problem.model.evaluate(problem.truth)
                   + 1e-3 * rng.standard_normal(14), np.zeros(10))
    histories = [
        irgnm_run(problem.model, y, x0, max_newton=6),
        irgnm_run(problem.model, y, x0, max_newton=3, variant="plain"),
        newton_cg_run(problem.model, y, x0, max_newton=4),
        landweber_run(problem.model, y, x0, max_steps=5),
    ]
    assert [h.terminal_reason for h in histories] \
        == [TERMINAL_MAX] * 3 + [TERMINAL_STEP_CAP]
    jac = problem.model.linearize(x0)
    data, prior = frozen(rng.standard_normal(14), rng.standard_normal(10))
    sys = TikhonovSystem(jac, 0.1, data, prior)
    pairs = SpectralPreconditioner(0.1, [2.0], np.eye(10)[:, :1])
    for solver, precond in ((sys, None), (sys, pairs),
                            (TwoSidedSystem(sys, pairs), None)):
        pcg_solve(solver, precond)


def _assert_breakdown_at_failing_step(history, model, cost_start,
                                      max_steps):
    # The run ends at the step whose model call failed, with a Final record
    # of that iterate and the failure in meta. Its cost includes the units
    # the failed step spent.
    last = _assert_failed_run(history, model, cost_start)
    assert last.inner_iterations == 0
    assert 1 <= last.k < max_steps
    return last.k


def _assert_failed_run(history, model, cost_start):
    last = history.records[-1]
    assert history.total_cost() == model.cost.total - cost_start
    assert history.terminal_reason == TERMINAL_BREAKDOWN
    assert "non-finite" in history.meta["breakdown"]
    assert last.event == EVENT_FINAL
    assert EVENT_FINAL not in [r.event for r in history.records[:-1]]
    assert [r.k for r in history.records] == list(range(last.k + 1))
    return last


# Each method's run, and the call of a Jacobian callback that fails in its
# run: the (GRAM_ESTIMATE_STEPS + 20)th apply or adjoint apply, past the
# first step of irgnm, whose solve continues the gamma0 estimate, and the
# GRAM_ESTIMATE_STEPS applies and GRAM_ESTIMATE_STEPS - 1 adjoint applies
# of Landweber's mu estimate, and within the 12 of each that Newton-CG
# makes in 8 steps.
_NAN_RUNS = {
    "irgnm-prec": (GRAM_ESTIMATE_STEPS + 20, 8, lambda model, y: irgnm_run(
        model, y, np.zeros(10), max_newton=8)),
    "irgnm-plain": (GRAM_ESTIMATE_STEPS + 20, 8, lambda model, y: irgnm_run(
        model, y, np.zeros(10), max_newton=8, variant="plain")),
    "newton-cg": (10, 8, lambda model, y: newton_cg_run(
        model, y, np.zeros(10), max_newton=8)),
    "landweber": (GRAM_ESTIMATE_STEPS + 20, 40, lambda model, y:
                  landweber_run(model, y, np.zeros(10), max_steps=40)),
}


@pytest.mark.parametrize("method, adjoint", [
    ("irgnm-prec", False), ("irgnm-plain", False), ("newton-cg", False),
    ("irgnm-prec", True), ("irgnm-plain", True), ("newton-cg", True),
    ("landweber", True),
], ids=lambda v: {False: "apply", True: "adjoint"}.get(v, v))
def test_nan_callback_ends_in_breakdown(method, adjoint):
    # A NaN from the apply or adjoint callback fails its output check. The
    # run ends in Breakdown at the step that made the call, which is the
    # last call of that callback, and the cost of the step is re-read.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=10, n=14, seed=8), c3=0.5)
    y = problem.model.evaluate(problem.truth)
    call, max_steps, run = _NAN_RUNS[method]
    model = nan_on_call(problem.model, call, adjoint=adjoint)
    history = run(model, y)
    _assert_breakdown_at_failing_step(history, model, 0, max_steps)
    kind = "adjoint" if adjoint else "Jacobian"
    assert f"{kind} output" in history.meta["breakdown"]
    assert (model.cost.adjoint_applies if adjoint
            else model.cost.jacobian_applies) == call - 1
    if method == "landweber":  # one adjoint apply per step
        assert history.records[-1].k == call - (GRAM_ESTIMATE_STEPS - 1) - 1


@pytest.mark.parametrize("run", [
    lambda model, y: irgnm_run(model, y, np.zeros(3), max_newton=8),
    lambda model, y: irgnm_run(model, y, np.zeros(3), max_newton=8,
                               variant="plain"),
    lambda model, y: newton_cg_run(model, y, np.zeros(3), max_newton=8),
    lambda model, y: landweber_run(model, y, np.zeros(3), max_steps=8),
], ids=["irgnm-prec", "irgnm-plain", "newton-cg", "landweber"])
def test_nan_evaluation_ends_run_at_previous_step(run):
    # F(x_3) is NaN: the step that produced x_3 failed, so the run ends at
    # k = 2 with a Final record whose cost includes that step's units.
    model = nan_on_evaluation(linear_model(np.diag([1.0, 0.5, 0.25])), 4)
    history = run(model, np.ones(3))
    assert len(history.records) == 3
    _assert_failed_run(history, model, 0)


def _decaying_diagonal(adjoint_defect=False):
    """F(x) = A x with A = diag(exp(-0.2 j)), j < 30; with
    ``adjoint_defect`` its adjoint is A^T w - B^T w for a Gaussian B of
    seed 0, so the Lanczos matrix of a solve loses definiteness."""
    a = np.diag(np.exp(-0.2 * np.arange(30)))
    b = np.random.default_rng(0).standard_normal((30, 30))
    if not adjoint_defect:
        return linear_model(a)
    return ForwardModel(30, 30, lambda x: a @ x, lambda x: (
        lambda v: a @ v, lambda w: a.T @ w - b.T @ w))


@pytest.mark.parametrize("model, message, k", [
    (_decaying_diagonal(adjoint_defect=True), "pivot d_3 = ", 1),
    (nan_on_call(_decaying_diagonal(), 8), "Jacobian output", 2),
], ids=["pivot", "nan-callback"])
def test_failed_step_leaves_a_final_row_of_no_inner_iterations(model,
                                                               message, k):
    # A solve that breaks down at its third pivot, and one whose Jacobian
    # callback returns NaN, both end the run on a Final row of 0 inner
    # iterations, as csv_schema.md states; the row's cost still counts the
    # units the failed step spent.
    history = irgnm_run(model, model.evaluate(np.ones(30)), np.zeros(30),
                        variant="plain", max_newton=10)
    last = history.records[-1]
    assert history.terminal_reason == TERMINAL_BREAKDOWN
    assert message in history.meta["breakdown"]
    assert (last.k, last.event, last.inner_iterations, last.cumulative_cost) \
        == (k, EVENT_FINAL, 0, 19)


def test_nan_initial_evaluation_raises():
    model = nan_on_evaluation(linear_model(np.eye(3)), 1)
    with pytest.raises(ContractError, match="non-finite"):
        landweber_run(model, np.ones(3), np.zeros(3), max_steps=8)


@pytest.mark.parametrize("run, message", [
    (lambda model: landweber_run(model, np.ones(3), np.zeros(3),
                                 max_steps=-1), "nonnegative"),
    (lambda model: newton_cg_run(model, np.ones(3), np.zeros(3),
                                 max_newton=-1), "max_newton .* positive"),
], ids=["landweber", "newton-cg"])
def test_negative_step_cap_rejected(run, message):
    model = linear_model(np.eye(3))
    with pytest.raises(ContractError, match=message):
        run(model)
    assert model.cost.total == 0


def test_newton_cg_rejects_zero_newton_cap_as_irgnm_does():
    # A Newton-CG run takes the [solver] max_newton key that irgnm reads,
    # and refuses 0 with irgnm's words.
    model = linear_model(np.eye(3))
    with pytest.raises(ContractError) as info:
        irgnm_run(model, np.ones(3), np.zeros(3), max_newton=0)
    with pytest.raises(ContractError, match=str(info.value)):
        newton_cg_run(model, np.ones(3), np.zeros(3), max_newton=0)
    assert model.cost.total == 0


@pytest.mark.parametrize("run", [
    lambda model: landweber_run(model, np.ones(4), np.zeros(3)),
    lambda model: irgnm_run(model, np.ones(4), np.zeros(3)),
], ids=["landweber", "irgnm"])
def test_zero_jacobian_has_no_gram_norm_estimate(run):
    # A^T A = 0 admits neither Landweber's mu nor IRGNM's gamma0.
    with pytest.raises(ContractError, match="vanishes"):
        run(linear_model(np.zeros((4, 3))))


def _model_exploding_off_zero(dim=3):
    """F(x) = A x at x = 0 and 1e200 in every entry elsewhere: finite, but
    ||y - F(x)||^2 overflows."""
    a = np.diag(np.linspace(1.0, 2.0, dim))

    def evaluate(x):
        return np.full(dim, 1e200) if np.any(x) else a @ x

    return ForwardModel(dim, dim, evaluate,
                        lambda x: (lambda v: a @ v, lambda w: a.T @ w))


@pytest.mark.parametrize("run", [irgnm_run, landweber_run, newton_cg_run],
                         ids=["irgnm", "landweber", "newton-cg"])
def test_residual_whose_squared_norm_overflows(run):
    # Past k = 0 the residual norm is inf, which trips the divergence guard
    # and ends the run in Breakdown, without an overflow warning; at x0 no
    # residual can be recorded, so the run raises as a failed F(x0) does.
    model = _model_exploding_off_zero()
    history = run(model, np.ones(3), np.zeros(3))
    assert history.terminal_reason == TERMINAL_BREAKDOWN
    assert [r.residual_norm for r in history.records][1:] == [math.inf]
    assert "exceeds" in history.meta["breakdown"]
    with pytest.raises(ContractError, match="exceeds the float range"):
        run(model, np.ones(3), np.full(3, 0.5))


def test_inner_unconverged_counts_solves_stopped_by_the_cap(monkeypatch):
    # An irgnm run ends after its first capped solve, so it counts at most
    # one: at a cap of 1, irgnm-prec's accurate k = 0 solve is capped, and
    # irgnm-plain's first two solves need one and two iterations.
    base = make_diagonal_problem(m=10, n=14, seed=8)
    problem = make_nonlinear_composite(base, c3=0.5)
    y = problem.model.evaluate(problem.truth)
    x0 = np.zeros(10)
    for variant, records in (("prec", 2), ("plain", 3)):
        kwargs = dict(max_newton=6, variant=variant)
        monkeypatch.setattr(solvers, "MAX_INNER", 1)
        capped = irgnm_run(problem.model, y, x0, **kwargs)
        assert (capped.terminal_reason, capped.meta["inner_unconverged"],
                len(capped.records)) == (TERMINAL_INNER_CAP, 1, records)
        monkeypatch.setattr(solvers, "MAX_INNER", 200)
        assert irgnm_run(problem.model, y, x0, **kwargs) \
            .meta["inner_unconverged"] == 0
    # Two Newton-CG steps need two inner iterations, and a cap of 2 stops
    # neither. A cap of 1 stops the first of them: that step is taken, and
    # the run ends at the Final row of the iterate it produced, whose cost
    # includes the capped solve (2 units) and its evaluation (1 unit).
    monkeypatch.setattr(solvers, "MAX_INNER", 2)
    exact = newton_cg_run(problem.model, y, x0, max_newton=6)
    inner = [r.inner_iterations for r in exact.records]
    assert inner.count(2) == 2
    assert exact.meta["inner_unconverged"] == 0
    first = inner.index(2)
    monkeypatch.setattr(solvers, "MAX_INNER", 1)
    capped = newton_cg_run(problem.model, y, x0, max_newton=6)
    assert capped.terminal_reason == TERMINAL_INNER_CAP
    assert capped.meta["inner_unconverged"] == 1
    *steps, last = capped.records
    assert [r.k for r in capped.records] == list(range(first + 2))
    for short, full in zip(steps[:first], exact.records):
        assert (short.inner_iterations, short.cumulative_cost) \
            == (full.inner_iterations, full.cumulative_cost)
    assert steps[-1].inner_iterations == 1
    assert [r.event for r in steps] == [EVENT_BASELINE] * (first + 1)
    assert (last.k, last.inner_iterations, last.event) \
        == (first + 1, 0, EVENT_FINAL)
    assert last.cumulative_cost == steps[-1].cumulative_cost + 2 + 1
    assert landweber_run(problem.model, y, x0, max_steps=5) \
        .meta["inner_unconverged"] == 0


@pytest.mark.parametrize("max_newton, stop_at, terminal", [
    (5, None, TERMINAL_INNER_CAP),
    (6, 5, TERMINAL_STOP),
])
def test_newton_cg_inner_cap_ends_the_run_at_the_next_record(
        monkeypatch, max_newton, stop_at, terminal):
    # Step 4 is the first capped solve at MAX_INNER = 1. Its Final row at
    # k = 5 is recorded whatever else ends the run there: InnerCap outranks
    # the step cap, and a stop rule that fires at k = 5 outranks InnerCap.
    monkeypatch.setattr(solvers, "MAX_INNER", 1)
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=10, n=14, seed=8), c3=0.5)
    y = problem.model.evaluate(problem.truth)
    history = newton_cg_run(problem.model, y, np.zeros(10),
                            max_newton=max_newton,
                            stop=lambda k, rn, phi: k == stop_at)
    assert history.terminal_reason == terminal
    assert [r.event for r in history.records][-2:] \
        == [EVENT_BASELINE, EVENT_FINAL]
    assert history.records[-1].k == 5
    assert history.meta["inner_unconverged"] == 1


@pytest.mark.parametrize("max_newton, stop_at, terminal", [
    (1, None, TERMINAL_INNER_CAP),
    (2, 1, TERMINAL_STOP),
])
def test_irgnm_inner_cap_ends_the_run_at_the_next_record(
        monkeypatch, max_newton, stop_at, terminal):
    # At MAX_INNER = 1 the accurate k = 0 solve, which continues the gamma0
    # estimate, is capped. As for Newton-CG, the Final row at k = 1 is
    # recorded whatever else ends the run there: InnerCap outranks the step
    # cap, and a stop rule that fires at k = 1 outranks InnerCap.
    monkeypatch.setattr(solvers, "MAX_INNER", 1)
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=10, n=14, seed=8), c3=0.5)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(10),
                        max_newton=max_newton,
                        stop=lambda k, rn, phi: k == stop_at)
    assert history.terminal_reason == terminal
    assert [(r.k, r.event) for r in history.records] \
        == [(0, EVENT_RECOMPUTE), (1, EVENT_FINAL)]
    assert (history.records[0].inner_iterations,
            history.meta["inner_unconverged"]) == (1, 1)


def test_estimate_gram_norm_diagonal():
    # A domain of 3 is filled before GRAM_ESTIMATE_STEPS steps: exact.
    model = linear_model(np.diag([3.0, 1.0, 0.5]))
    jac = model.linearize(np.zeros(3))
    assert estimate_gram_norm(jac) == pytest.approx(9.0, rel=1e-12)


def test_estimate_gram_norm_skips_the_last_adjoint():
    # Five steps on a domain of 10, and the three that fill a domain of 3:
    # each step but the last makes one Jacobian and one adjoint apply.
    for dim, steps in ((10, GRAM_ESTIMATE_STEPS), (3, 3)):
        model = linear_model(np.diag(np.linspace(1.0, 2.0, dim)))
        estimate_gram_norm(model.linearize(np.zeros(dim)))
        assert (model.cost.jacobian_applies, model.cost.adjoint_applies) \
            == (steps, steps - 1)


@pytest.mark.parametrize("dim", [1, GRAM_ESTIMATE_STEPS])
def test_estimate_gram_norm_refuses_a_norm_past_the_float_range(dim):
    # ||A q||^2 = 1e310 overflows on the first step: the last one, which
    # makes no adjoint apply, on a domain of 1, and one of five otherwise.
    jac = linear_model(1e155 * np.eye(dim)).linearize(np.zeros(dim))
    with pytest.raises(ContractError, match="exceeds the float range"):
        estimate_gram_norm(jac)


def test_estimate_gram_norm_refuses_an_overflowing_lanczos_vector():
    # ||A^T A q||^2 overflows long before ||A^T A|| = 1e200 does; the
    # estimate refuses it instead of stopping after one step at 3.6e198.
    jac = linear_model(np.diag([1e100, 1.0, 0.5])).linearize(np.zeros(3))
    with pytest.raises(ContractError, match="exceeds the float range"):
        estimate_gram_norm(jac)


def test_irgnm_step_on_an_overflowing_gradient_ends_in_breakdown():
    # ||A^T (y - F(x))||^2 = 2.5e319 at x_1 of irgnm-plain, where the
    # Jacobian becomes diag(1e100, 1, 0.5): the step's solve refuses its
    # first residual, so the run ends there instead of taking h = 0 for
    # solved. At x0 the gamma0 estimate refuses such a gradient, and the
    # run raises, as a failed F(x0) does.
    def linearize(x):
        d = np.array([1e100 if np.any(x) else 1.0, 1.0, 0.5])
        return (lambda v: d * v), (lambda w: d * w)

    model = ForwardModel(3, 3, lambda x: np.array([1.0, 1.0, 0.5]) * x,
                         linearize)
    y = np.array([1e60, 1.0, 1.0])
    history = irgnm_run(model, y, np.zeros(3), max_newton=3, variant="plain")
    assert history.terminal_reason == TERMINAL_BREAKDOWN
    assert "exceeds the float range" in history.meta["breakdown"]
    assert [(r.k, r.event) for r in history.records] \
        == [(0, EVENT_PLAIN), (1, EVENT_FINAL)]
    with pytest.raises(ContractError, match="exceeds the float range"):
        irgnm_run(model, y, np.full(3, 1e-300), max_newton=3)


def test_run_history_helpers():
    problem = make_diagonal_problem(m=6, n=8, seed=9)
    y = problem.model.evaluate(problem.truth)
    history = irgnm_run(problem.model, y, np.zeros(6), max_newton=3,
                        truth=problem.truth)
    assert history.total_inner() == sum(r.inner_iterations
                                        for r in history.records)
    assert history.residual_norms()[0] == pytest.approx(np.linalg.norm(y))


def test_long_exact_data_runs_reach_the_float_floor_under_data_rounding():
    # The CLI's exact-data run (m = 30, n = 40, max_newton = 100) that
    # test_main_long_exact_data_run_reaches_its_cap makes, on its data and
    # on the data perturbed as y (1 + 4e-16 u), u uniform in [-1, 1] from
    # default_rng(seed) for seeds 1-23: each run ends at an error of at most
    # 1e-12, between 4.9e-13 and 6.4e-13 after 971 to 1,003 units.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=30, n=40, decay_a=0.25, seed=1))
    y = problem.model.evaluate(problem.truth)
    errors = {}
    for seed in (None, *range(1, 24)):
        u = 0.0 if seed is None \
            else np.random.default_rng(seed).uniform(-1.0, 1.0, y.shape)
        y_obs = y * (1.0 + 4e-16 * u)
        history = irgnm_run(problem.model, y_obs, np.zeros(30),
                            max_newton=100, truth=problem.truth)
        errors[seed] = history.records[-1].error
    assert max(errors.values()) <= 1e-12, errors
