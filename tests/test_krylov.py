"""CG on the stacked normal equations, Lanczos extraction, and Ritz filtering."""

import re

import numpy as np
import pytest

from helpers import (dense_tikhonov_solution, linear_model, ritz_pair,
                     tikhonov_system)
from iterreg.krylov import (RITZ_RESIDUAL_TOL, RITZ_ROUNDING,
                            RITZ_SEPARATION, CgBreakdownError,
                            GramSchmidtBasis, Lanczos, pcg_solve,
                            reorthogonalize_indexed, ritz_from_trace,
                            select_ritz)
from iterreg.operators import ContractError
from iterreg.preconditioner import SpectralPreconditioner


def test_identity_system_converges_in_one_iteration():
    # A = 0 and gamma = 1 make G^T G the identity; CG must land on the
    # prior right-hand side after exactly one step.
    b = np.array([2.0, -1.0, 0.5])
    sys = tikhonov_system(np.zeros((4, 3)), 1.0, rhs_prior=b)
    h, trace = pcg_solve(sys)
    np.testing.assert_allclose(h, b, rtol=1e-14)
    assert trace.iterations == 1
    assert trace.converged


def test_zero_rhs_returns_zero_without_iterating():
    sys = tikhonov_system(np.zeros((4, 3)), 1.0)
    h, trace = pcg_solve(sys)
    np.testing.assert_array_equal(h, np.zeros(3))
    assert trace.iterations == 0
    assert trace.converged


def test_cg_accuracy_contract_loose_and_tight():
    # Stop test ||r|| <= eps * gamma * ||h|| guarantees relative error
    # eps / (1 - eps) against the dense Tikhonov solution.
    rng = np.random.default_rng(21)
    for trial in range(10):
        n, m = 12, 8
        a = rng.standard_normal((n, m))
        gamma = float(rng.uniform(0.05, 2.0))
        data = rng.standard_normal(n)
        prior = rng.standard_normal(m)
        sys = tikhonov_system(a, gamma, data, prior)
        exact = dense_tikhonov_solution(a, gamma, data, prior)
        for eps in (1.0 / 3.0, 1e-9):
            h, trace = pcg_solve(sys, epsilon=eps)
            assert trace.converged
            bound = eps / (1.0 - eps) * np.linalg.norm(exact)
            # allow a whisker of float fuzz on top of the analytic bound
            assert np.linalg.norm(h - exact) <= bound + 1e-12 * np.linalg.norm(exact)


def test_full_spectrum_preconditioner_one_iteration():
    # With every eigenpair of A^T A captured, M equals G^T G and the
    # preconditioned operator is the identity: one CG iteration suffices.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((10, 6))
    gamma = 0.7
    w, v = np.linalg.eigh(a.T @ a)
    precond = SpectralPreconditioner(gamma, w[::-1].copy(), v[:, ::-1].copy())
    sys = tikhonov_system(a, gamma, rhs_data=rng.standard_normal(10))
    h, trace = pcg_solve(sys, precond)
    assert trace.iterations == 1
    exact = dense_tikhonov_solution(a, gamma, sys.rhs_data, np.zeros(6))
    np.testing.assert_allclose(h, exact, rtol=1e-10, atol=1e-12)


def test_iteration_cap_flags_not_converged():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((15, 10))
    sys = tikhonov_system(a, 1e-4, rhs_data=rng.standard_normal(15))
    h, trace = pcg_solve(sys, epsilon=1e-12, max_iterations=3)
    assert trace.iterations == 3
    assert not trace.converged


def test_misfit_norms_monotone():
    # CG minimizes ||g - G h|| over a growing Krylov space, so the misfit of
    # the iterate h_l, computed with the dense G, never grows with l.
    rng = np.random.default_rng(13)
    for trial in range(5):
        a = rng.standard_normal((20, 12))
        sys = tikhonov_system(a, 0.01, rhs_data=rng.standard_normal(20),
                              rhs_prior=rng.standard_normal(12))
        g_dense = np.vstack([a, np.sqrt(0.01) * np.eye(12)])
        g = sys.stacked_rhs()
        _, trace = pcg_solve(sys, epsilon=1e-9)
        mis = [np.linalg.norm(g)]
        for l in range(1, trace.iterations + 1):
            h, _ = pcg_solve(sys, epsilon=1e-9, max_iterations=l)
            mis.append(np.linalg.norm(g - g_dense @ h))
        mis = np.asarray(mis)
        assert np.all(mis[1:] <= mis[:-1] * (1.0 + 1e-10) + 1e-300)


def test_lanczos_basis_orthonormal():
    rng = np.random.default_rng(34)
    a = rng.standard_normal((40, 30))
    sys = tikhonov_system(a, 1e-6, rhs_data=rng.standard_normal(40))
    _, trace = pcg_solve(sys, epsilon=1e-11, max_iterations=30)
    q = trace.basis.T
    gram = q.T @ q
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


def test_tridiagonal_matches_projected_operator():
    # Two routes to T_l: the Lanczos coefficients a_j = ||G q_j||^2 and b_j
    # vs explicit projection Q^T (G^T G) Q of the dense operator onto the
    # Lanczos basis.
    rng = np.random.default_rng(55)
    a = rng.standard_normal((18, 12))
    gamma = 0.3
    sys = tikhonov_system(a, gamma, rhs_data=rng.standard_normal(18))
    _, trace = pcg_solve(sys, epsilon=1e-10, max_iterations=8)
    q = trace.basis.T
    gtg = a.T @ a + gamma * np.eye(12)
    projected = q.T @ gtg @ q
    off = trace.offdiag[:-1]
    dense_t = np.diag(trace.diag) + np.diag(off, 1) + np.diag(off, -1)
    np.testing.assert_allclose(dense_t, projected, atol=1e-8)


def test_lanczos_solve_at_a_shift_reports_the_scaled_operator():
    # The Lanczos run on A^T A, solved at shift 0.3, is CG on
    # (A^T A + 0.3 I)/0.3 from b/sqrt(0.3): its trace holds that operator's
    # T_l over the run's own basis, and h solves (A^T A + 0.3 I) h = b to
    # the stop test ||r|| <= tol ||h||. At shift 0 the trace holds the
    # run's own T_l.
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 9))
    b = rng.standard_normal(9)
    run = Lanczos(linear_model(a).linearize(np.zeros(9)), b)
    h, trace = run.solve(0.3, 1e-10, 6)
    assert trace.iterations == 6
    assert not trace.converged
    np.testing.assert_array_equal(trace.diag,
                                  (np.array(run.diag) + 0.3) / 0.3)
    np.testing.assert_array_equal(trace.offdiag, np.array(run.offdiag) / 0.3)
    np.testing.assert_array_equal(trace.basis, run.basis.rows[:6])
    h_full, full = run.solve(0.3, 1e-10, 9)
    assert full.converged and full.iterations <= 9
    exact = np.linalg.solve(a.T @ a + 0.3 * np.eye(9), b)
    np.testing.assert_allclose(h_full, exact, rtol=1e-9)
    # the partial iterate is the Galerkin one, ||b|| Q (T + 0.3 I)^{-1} e_1
    t = np.diag(np.add(run.diag[:6], 0.3)) + np.diag(run.offdiag[:5], 1) \
        + np.diag(run.offdiag[:5], -1)
    y = np.linalg.solve(t, np.linalg.norm(b) * np.eye(6)[0])
    np.testing.assert_allclose(h, y @ run.basis.rows[:6], rtol=1e-12)
    h0, unshifted = run.solve(0.0, 1e-10, 9)
    l = unshifted.iterations
    assert unshifted.converged and l <= 9
    np.testing.assert_array_equal(unshifted.diag, run.diag[:l])
    np.testing.assert_array_equal(unshifted.offdiag, run.offdiag[:l])
    np.testing.assert_allclose(h0, np.linalg.solve(a.T @ a, b), rtol=1e-8)


def test_nonpositive_pivot_raises_a_breakdown_naming_the_pivot():
    # A negative shift below -a_1 makes the first pivot negative: the solve
    # raises before iterating, and the message names d_1.
    run = Lanczos(linear_model(np.eye(3)).linearize(np.zeros(3)),
                  np.ones(3))
    with pytest.raises(CgBreakdownError, match="pivot d_1 = "):
        run.solve(-2.0, 1e-10, 3)


def test_single_iteration_ritz_data():
    # After l = 1 iteration: theta = a_1, vector = q_1, and the residual
    # bound is b_1 plus the rounding term RITZ_ROUNDING eps theta.
    rng = np.random.default_rng(2)
    a = np.diag([2.0, 1.0])
    sys = tikhonov_system(a, 1.0, rhs_data=rng.standard_normal(2))
    _, trace = pcg_solve(sys, epsilon=1e-14, max_iterations=1)
    assert trace.iterations == 1
    pairs = ritz_from_trace(trace)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.theta == pytest.approx(trace.diag[0], rel=1e-14)
    np.testing.assert_allclose(np.abs(pair.vector), np.abs(trace.basis[0]),
                               rtol=1e-14)
    assert pair.residual_bound == pytest.approx(
        trace.offdiag[0] + RITZ_ROUNDING * np.finfo(float).eps * pair.theta,
        rel=1e-14)


def test_ritz_residual_identity_dense_oracle():
    # || G^T G (Q w) - theta (Q w) || equals b_l |w(l)| up to rounding for
    # the Euclidean Lanczos basis; verify against a dense matvec.
    rng = np.random.default_rng(77)
    a = rng.standard_normal((25, 15))
    gamma = 0.05
    gtg = a.T @ a + gamma * np.eye(15)
    sys = tikhonov_system(a, gamma, rhs_data=rng.standard_normal(25))
    _, trace = pcg_solve(sys, epsilon=1e-13, max_iterations=6)
    for pair in ritz_from_trace(trace):
        direct = np.linalg.norm(gtg @ pair.vector - pair.theta * pair.vector)
        assert direct == pytest.approx(pair.residual_bound, abs=1e-9)


def test_ritz_bound_after_a_dependent_residual_is_the_rounding_term():
    # Five iterations exhaust a 5-dimensional space: the solve ends on a
    # residual dependent on its basis, b_l = 0, and the Lanczos residual
    # would certify every pair as exact. Each bound is the rounding term
    # RITZ_ROUNDING eps theta_max alone, and bounds the true residual.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 5))
    _, trace = pcg_solve(tikhonov_system(a, 0.5, rng.standard_normal(8)),
                         epsilon=1e-12)
    assert (trace.iterations, trace.offdiag[-1]) == (5, 0.0)
    pairs = ritz_from_trace(trace)
    rounding = RITZ_ROUNDING * np.finfo(float).eps * pairs[0].theta
    assert [p.residual_bound for p in pairs] == [rounding] * 5 != [0.0] * 5
    gtg = a.T @ a + 0.5 * np.eye(5)
    for pair in pairs:
        assert np.linalg.norm(gtg @ pair.vector - pair.theta * pair.vector) \
            <= pair.residual_bound


def test_ritz_pairs_sorted_and_inside_spectrum():
    rng = np.random.default_rng(91)
    a = rng.standard_normal((30, 20))
    gamma = 0.01
    sys = tikhonov_system(a, gamma, rhs_data=rng.standard_normal(30))
    _, trace = pcg_solve(sys, epsilon=1e-12, max_iterations=12)
    pairs = ritz_from_trace(trace)
    thetas = [p.theta for p in pairs]
    assert thetas == sorted(thetas, reverse=True)
    w = np.linalg.eigvalsh(a.T @ a + gamma * np.eye(20))
    assert thetas[0] <= w[-1] * (1.0 + 1e-10)
    assert thetas[-1] >= w[0] * (1.0 - 1e-10)


def test_select_ritz_separation_threshold():
    # theta >= RITZ_SEPARATION = 1.1 survives, the cluster at 1 goes.
    pairs = [ritz_pair(5.0, np.array([1.0]), 0.0),
             ritz_pair(RITZ_SEPARATION, np.array([1.0]), 0.0),
             ritz_pair(1.05, np.array([1.0]), 0.0),
             ritz_pair(1.0, np.array([1.0]), 0.0)]
    kept = select_ritz(pairs)
    assert [p.theta for p in kept] == [5.0, RITZ_SEPARATION]


def test_select_ritz_residual_tolerance():
    # theta = 2 survives with a bound up to RITZ_RESIDUAL_TOL * 2.
    loose = ritz_pair(2.0, np.array([1.0]), 1.5 * RITZ_RESIDUAL_TOL * 2.0)
    tight = ritz_pair(2.0, np.array([1.0]), RITZ_RESIDUAL_TOL * 2.0)
    assert select_ritz([loose]) == []
    assert select_ritz([tight]) == [tight]


def test_full_basis_grows_instead_of_raising():
    # e_0, e_1, e_2 into a basis of capacity 2 fill three rows of a block
    # doubled to four, with and without an inverse M^{-1} = I/4, whose
    # M-orthonormal rows e_j/2 grow together with their duals 2 e_j.
    e = np.eye(10)
    for inverse, scale in ((None, 1.0), (lambda x: x / 4.0, 2.0)):
        basis = GramSchmidtBasis(10, 2, inverse)
        assert [basis.add(x)[1] for x in e[:3]] == [1.0 / scale] * 3
        assert (basis.count, len(basis._q)) == (3, 4)
        np.testing.assert_array_equal(basis.rows, e[:3] / scale)
        np.testing.assert_array_equal(basis.duals, e[:3] * scale)
        assert basis.dual_norms == [scale] * 3


def test_grown_basis_without_inverse_holds_one_block():
    # 17 adds at dim 40 outgrow the 16 rows a Lanczos basis starts with.
    # Without an inverse the duals are the rows themselves, so the basis
    # holds one (32, 40) block and no unused dual block beside it.
    rng = np.random.default_rng(17)
    basis = GramSchmidtBasis(40, 16)
    for x in rng.standard_normal((17, 40)):
        basis.add(x)
    assert basis.count == 17 and basis._q.shape == (32, 40)
    assert basis._q.base is None and basis._dual is basis._q


def test_reorthogonalize_nearly_dependent_pair():
    e1 = np.array([1.0, 0.0, 0.0])
    nearly = np.array([1.0, 1e-3, 0.0])
    basis, _ = reorthogonalize_indexed([e1, nearly])
    assert basis.shape == (3, 2)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0, 0.0],
                               atol=1e-14)
    np.testing.assert_allclose(np.abs(basis[:, 1]), [0.0, 1.0, 0.0],
                               atol=1e-12)
    gram = basis.T @ basis
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)


def test_reorthogonalize_drops_duplicates():
    v = np.array([3.0, 4.0])
    kept, indices = reorthogonalize_indexed([v, v.copy()])
    assert kept.shape == (2, 1)
    assert indices == [0]


def test_reorthogonalize_input_validation():
    with pytest.raises(ContractError):
        reorthogonalize_indexed([])
    with pytest.raises(ContractError):
        reorthogonalize_indexed([np.zeros(3), np.zeros(3)])
    with pytest.raises(ContractError):
        reorthogonalize_indexed([np.ones(3), np.ones(2)])


def test_breakdown_on_indefinite_preconditioner():
    # M^{-1} = -I fails on the right-hand side; M^{-1} turning indefinite
    # on its third call fails the second iteration.
    class NegatingPrecond:
        def __init__(self, from_call):
            self.calls, self.from_call = 0, from_call

        def apply_inverse(self, r):
            self.calls += 1
            return -r if self.calls >= self.from_call else r

    sys = tikhonov_system(np.diag([3.0, 2.0, 1.0]), 1.0, rhs_data=np.ones(3))
    with pytest.raises(CgBreakdownError, match="preconditioner is not SPD"):
        pcg_solve(sys, NegatingPrecond(1))
    precond = NegatingPrecond(3)
    with pytest.raises(CgBreakdownError, match="preconditioner is not SPD"):
        pcg_solve(sys, precond)
    assert precond.calls == 3


@pytest.mark.parametrize("left", [False, True],
                         ids=["unpreconditioned", "left-preconditioned"])
def test_residual_whose_squared_norm_overflows_is_refused(left):
    # At 1e160, ||A^T b||^2 = 5.25e320 exceeds the float range: the solve
    # refuses it, instead of taking the residual as dependent on the empty
    # basis and returning h = 0 as converged, or blaming a one-pair
    # preconditioner for a non-finite w^T M^{-1} w. At 1e150 it solves.
    a = np.diag([2.0, 1.0, 0.5])
    precond = SpectralPreconditioner(1.0, np.array([4.0]), np.eye(3)[:, :1]) \
        if left else None
    b = np.full(3, 1e150)
    h, trace = pcg_solve(tikhonov_system(a, 1.0, b), precond, epsilon=1e-9)
    assert trace.converged and trace.iterations > 0
    np.testing.assert_allclose(
        h, dense_tikhonov_solution(a, 1.0, b, np.zeros(3)), rtol=1e-8)
    with pytest.raises(ContractError, match="exceeds the float range"):
        pcg_solve(tikhonov_system(a, 1.0, np.full(3, 1e160)), precond)


def test_cg_config_validation():
    sys = tikhonov_system(np.eye(3), 1.0, np.ones(3))
    for kwargs, message in (
            ({"epsilon": 0.0}, "epsilon must lie in (0, 1), got 0.0"),
            ({"epsilon": 1.0}, "epsilon must lie in (0, 1), got 1.0"),
            ({"step_epsilon": 0.0},
             "step_epsilon must lie in (0, 1), got 0.0"),
            ({"max_iterations": 0}, "max_iterations must be at least 1")):
        with pytest.raises(ContractError, match=re.escape(message)):
            pcg_solve(sys, **kwargs)


def test_ritz_requires_lanczos_collection():
    # A solve of no iteration, on a zero right-hand side, preconditioned or
    # not, holds no Lanczos data to extract from; a preconditioned solve
    # that iterates keeps its M-orthonormal basis.
    precond = SpectralPreconditioner(1.0, np.array([4.0]), np.eye(3)[:, :1])
    for rhs in (np.zeros(3), np.ones(3)):
        sys = tikhonov_system(np.eye(3), 1.0, rhs_data=rhs)
        for left in (None, precond):
            _, trace = pcg_solve(sys, left)
            assert trace.basis.shape == (trace.iterations, 3)
            if not rhs.any():
                assert trace.iterations == 0
                with pytest.raises(ContractError, match="no Lanczos basis"):
                    ritz_from_trace(trace)
