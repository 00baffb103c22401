"""Property checks of the one pair-set constructor ``merge_pairs``, the
Gram-Schmidt basis behind every reorthogonalization (against a Householder
reflector loop, and on inputs already orthonormal), the Ritz residual
identity of the Lanczos extraction, the Ritz pairs the solver keeps and
their residual bounds, the left vectors and the sampled Phi built on them,
the two-sided system over merged pairs and its spectrum bound 1 - delta,
the preconditioned-spectrum identity, the Cholesky-reduced pencil against
the similarity route on random pair sets, the CG accuracy contract,
Newton-CG's CGNE against its reference implementation, the Lanczos loop of
every reorthogonalized solve against its relation and the CG contract, the
finiteness check of ``as_vector``, the Lanczos estimate of ||A^T A||
against the power iteration it replaced and the dense norm, the first irgnm
solve that continues that estimate against a solve from scratch, the
standard step and the unchanged harvest of every build, the images every
build stores and the Galerkin starts of 0-iteration Plain steps, the inner
counts every Update reads, the divergence guard on every recorded row, the
equivariance of every method under the problem's scale, and the agreement
of each CLI stop rule's driver with its resolver.

Instances are drawn by hypothesis (derandomized, so every run sees the same
examples) with dimensions up to 40 (one explicit example has 300): for
``merge_pairs`` an orthonormal existing pair set and random newcomers; for
the basis a stream of random, dependent, nearly dependent and zero vectors;
for the identity, the kept pairs, the left vectors and the two-sided system
a random Tikhonov system checked against ``DenseOracle`` or dense matrices,
as for the CG contract; for the sampled Phi, the spectrum and the pencil
random dense operators; for ``as_vector`` arrays with NaN, infinite and huge
entries mixed in; for the ||A^T A|| estimate the Jacobian of a random
diagonal or nonlinear-composite problem, and for its continuation that of
a diagonal or convolution composite, and for the builds that of a
nonlinear-diagonal composite, checked against ``DenseOracle``; for the
scale, the divergence guard and the stop rules a random nonlinear-diagonal
problem and noise draw. The Update check draws 16 such problems from a
seeded generator instead, so it can also require that some run updates;
the image check draws 16 nonlinear-diagonal and -convolution problems so,
to require each kind of build and some 0-iteration Plain step.
"""

import collections
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (GRAM_ESTIMATE_STEPS, as_vector_reference,
                     explode_from_evaluation, householder_loop,
                     linear_model, phi_sampled_loop,
                     power_gram_norm_reference,
                     ritz_vectors_reference, shifted_apply_reference,
                     stacked_apply_reference, truncated_cgne_reference)
from iterreg import cli, krylov, solvers, stopping
from iterreg.krylov import (RITZ_RESIDUAL_TOL, RITZ_ROUNDING,
                            GramSchmidtBasis, pcg_solve,
                            reorthogonalize_indexed, ritz_from_trace,
                            select_ritz)
from iterreg.operators import (IRGNM, LEVENBERG_MARQUARDT, ContractError,
                               TikhonovSystem, as_vector)
from iterreg.preconditioner import (SpectralPreconditioner, TwoSidedSystem,
                                    merge_pairs, preconditioned_spectrum_check)
from iterreg.solvers import (EPS_ACCURATE, EPS_STANDARD, EVENT_PLAIN,
                             EVENT_RECOMPUTE, EVENT_UPDATE, GAMMA_FACTOR,
                             MAX_INNER, TERMINAL_BREAKDOWN, TERMINAL_MAX,
                             TERMINAL_STOP, _estimate_from_gradient, _harvest,
                             _truncated_cgne, estimate_gram_norm, irgnm_run,
                             landweber_run, newton_cg_run)
from iterreg.stopping import (DiscrepancyDriver, PhiBudgetDriver, SampledPhi,
                              WhiteNoisePhi, discrepancy_stop,
                              lepskii_from_history)
from iterreg.testbed import (DenseOracle, generate_noise,
                             make_convolution_problem, make_diagonal_problem,
                             make_nonlinear_composite, noise_sigma_for_level)

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None,
                    database=None)


def _orthonormal(rng, dim, count):
    q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    return q


@st.composite
def instances(draw):
    """(existing pair set, newcomer pairs) over a shared dimension."""
    dim = draw(st.integers(1, 40))
    old = draw(st.integers(0, dim))
    new = draw(st.integers(0, dim - old + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    existing = SpectralPreconditioner(
        draw(st.floats(1e-3, 1e3)), rng.uniform(0.1, 10.0, old),
        _orthonormal(rng, dim, old))
    pairs = [(float(lam), rng.standard_normal(dim))
             for lam in rng.uniform(0.1, 10.0, new)]
    return existing, pairs


def _gram_defect(p):
    return np.max(np.abs(p.vectors.T @ p.vectors - np.eye(p.pair_count)),
                  initial=0.0)


@PROPERTY
@given(instances())
def test_merge_output_is_orthonormal(case):
    existing, pairs = case
    merged = merge_pairs(existing, pairs)
    assert merged.gamma == existing.gamma
    assert merged.pair_count <= min(existing.dim,
                                    existing.pair_count + len(pairs))
    assert _gram_defect(merged) <= 1e-12


@PROPERTY
@given(instances())
def test_existing_pairs_pass_through(case):
    existing, pairs = case
    merged = merge_pairs(existing, pairs)
    j = existing.pair_count
    np.testing.assert_array_equal(merged.lambdas[:j], existing.lambdas)
    np.testing.assert_allclose(merged.vectors[:, :j], existing.vectors,
                               rtol=0, atol=1e-12)


@PROPERTY
@given(instances())
def test_merging_a_pair_set_into_itself_adds_nothing(case):
    existing, pairs = case
    merged = merge_pairs(existing, pairs)
    again = merge_pairs(merged, list(zip(merged.lambdas, merged.vectors.T)))
    np.testing.assert_array_equal(again.lambdas, merged.lambdas)
    np.testing.assert_allclose(again.vectors, merged.vectors,
                               rtol=0, atol=1e-12)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 40), st.floats(1e-3, 1e3),
       st.integers(0, 2**32 - 1))
def test_merge_into_empty_applies_like_direct_construction(dim, count, gamma,
                                                           seed):
    # A fresh pair set built by merging into the empty preconditioner acts
    # as the one constructed directly from the same orthonormal pairs.
    rng = np.random.default_rng(seed)
    count = min(count, dim)
    lambdas = rng.uniform(0.1, 10.0, count)
    vectors = _orthonormal(rng, dim, count)
    merged = merge_pairs(SpectralPreconditioner.empty(gamma, dim),
                         list(zip(lambdas, vectors.T)))
    direct = SpectralPreconditioner(gamma, lambdas, vectors)
    assert merged.pair_count == direct.pair_count
    x = rng.standard_normal(dim)
    # The inverse adds x/gamma to a low-rank correction. At small gamma the
    # two cancel down to a result of size ||x||/(gamma + lambda), so its
    # round-off scales with the term ||x||/gamma instead of the result.
    for apply in ("dense", "apply_inverse", "apply_inv_sqrt"):
        if apply == "dense":
            got, want = merged.dense() @ x, direct.dense() @ x
        else:
            got, want = getattr(merged, apply)(x), getattr(direct, apply)(x)
        scale = np.linalg.norm(want)
        if apply == "apply_inverse":
            scale = max(scale, np.linalg.norm(x) / gamma)
        assert np.linalg.norm(got - want) <= 1e-12 * scale


def _vector_stream(dim, count, dependent, seed, offset=0.0):
    """``count`` vectors of length dim: Gaussian ones at scales 1e-5..1e5,
    with a share ``dependent`` of zero vectors and combinations c of earlier
    vectors mixed in. A positive ``offset`` adds offset * ||c|| z to each
    combination, z a unit vector orthogonal to every earlier vector (none
    once they span the space); later combinations leave such vectors out,
    so each offset stays the whole complement of its vector."""
    rng = np.random.default_rng(seed)
    out, sources = [], []
    for _ in range(count):
        if out and rng.uniform() < dependent:
            weights = rng.standard_normal(len(sources))
            x = weights @ np.array(sources) if rng.uniform() < 0.9 \
                else np.zeros(dim)
            if offset:
                earlier = np.array(out)
                rank = np.linalg.matrix_rank(earlier)
                if rank < dim:
                    z = rng.standard_normal(dim - rank) \
                        @ np.linalg.svd(earlier)[2][rank:]
                    x = x + offset * np.linalg.norm(x) * z / np.linalg.norm(z)
                out.append(x)
                continue
        else:
            x = 10.0 ** rng.uniform(-5, 5) * rng.standard_normal(dim)
        out.append(x)
        sources.append(x)
    return out


# The basis holds min(dim, count) vectors, so the first three explicit
# examples fill it to dim and then offer more. In the fourth, inputs
# x = Q c + 1e-3 ||Q c|| z lose all but 1e-3 of their norm to the first
# projection, so every one takes the second pass; in the fifth their
# complement lands at 0.9e-12 ||x||, just under the drop tolerance.
@PROPERTY
@given(st.integers(1, 40), st.integers(1, 45), st.floats(0.0, 0.5),
       st.integers(0, 2**32 - 1), st.sampled_from((0.0, 1e-3, 0.9e-12)))
@example(dim=40, count=45, dependent=0.0, seed=1, offset=0.0)
@example(dim=33, count=40, dependent=0.2, seed=2, offset=0.0)
@example(dim=17, count=17, dependent=0.0, seed=3, offset=0.0)
@example(dim=30, count=40, dependent=0.5, seed=4, offset=1e-3)
@example(dim=30, count=40, dependent=0.5, seed=5, offset=0.9e-12)
def test_householder_basis_matches_reflector_loop_and_qr(dim, count,
                                                         dependent, seed,
                                                         offset):
    # The Gram-Schmidt basis against the Householder reflector loop.
    vectors = _vector_stream(dim, count, dependent, seed, offset)
    basis = GramSchmidtBasis(dim, count)
    got = [basis.add(x) for x in vectors]
    want = householder_loop(vectors)
    assert [q is None for q, _ in got] == [q is None for q, _ in want]
    kept = [i for i, (q, _) in enumerate(got) if q is not None]
    assert basis.count == len(kept) <= dim
    if not kept:
        return
    q_mat = np.column_stack([got[i][0] for i in kept])
    assert np.max(np.abs(q_mat.T @ q_mat - np.eye(len(kept)))) <= 1e-13
    for i in kept:
        (q, pnorm), (q_ref, pnorm_ref) = got[i], want[i]
        scale = np.linalg.norm(vectors[i])
        assert abs(pnorm - pnorm_ref) <= 1e-12 * scale
        assert abs(vectors[i] @ q - pnorm) <= 1e-12 * scale
        assert np.linalg.norm(q - q_ref) <= 1e-10
    # The kept vectors span what the kept inputs span.
    q_qr, _ = np.linalg.qr(np.column_stack([vectors[i] for i in kept]))
    assert np.linalg.norm(q_mat @ q_mat.T - q_qr @ q_qr.T, 2) <= 1e-10
    if len(kept) == dim:
        assert basis.add(np.ones(dim)) == (None, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 17, 40, 201])
def test_basis_filled_to_capacity_is_orthonormal(dim):
    # The rows start unfilled; with NaN in every row the basis has not yet
    # written, a basis of capacity dim filled with dim vectors still comes
    # out orthonormal, and the space is then exhausted. A basis of capacity
    # 1 grows by doubling to dim rows and fills the same way.
    for capacity in (dim, 1):
        rng = np.random.default_rng(dim)
        basis = GramSchmidtBasis(dim, capacity)
        basis._q.fill(np.nan)
        q = np.column_stack([basis.add(rng.standard_normal(dim))[0]
                             for _ in range(dim)])
        assert basis.count == dim == len(basis._q)
        assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-13
        assert basis.add(np.ones(dim)) == (None, 0.0)


@PROPERTY
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_reorthogonalizing_an_orthonormal_set_keeps_it(dim, count, seed):
    # Each input is orthogonal to the ones before it, so every index is kept
    # and no vector moves by more than round-off.
    vectors = _orthonormal(np.random.default_rng(seed), dim, min(dim, count))
    kept, indices = reorthogonalize_indexed(list(vectors.T))
    assert indices == list(range(vectors.shape[1]))
    assert np.max(np.linalg.norm(kept - vectors, axis=0)) <= 1e-14


@PROPERTY
@given(st.integers(2, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(1e-3, 10.0), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_ritz_residual_identity_against_dense_oracle(m, extra, decay, gamma,
                                                     steps, seed):
    # ||G^T G (Q w) - theta (Q w)|| = b_l |w(l)| for every Ritz pair of an
    # unpreconditioned solve, after at most ``steps`` iterations, to
    # 1e-13 ||G^T G||: the bound's rounding term RITZ_ROUNDING eps theta_max
    # is within that, and the Lanczos loop builds T_l from its own basis, so
    # its relation does not drift however far the residual falls.
    problem = make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                                    seed=seed % 2**16)
    gtg = DenseOracle.for_problem(problem).gram + gamma * np.eye(m)
    rng = np.random.default_rng(seed)
    sys = TikhonovSystem(problem.model.linearize(np.zeros(m)), gamma,
                         rng.standard_normal(m + extra), np.zeros(m))
    _, trace = pcg_solve(sys, epsilon=1e-13, max_iterations=min(steps, m))
    tol = np.linalg.norm(gtg, 2) * 1e-13
    for pair in ritz_from_trace(trace):
        direct = np.linalg.norm(gtg @ pair.vector - pair.theta * pair.vector)
        assert abs(direct - pair.residual_bound) <= tol


@PROPERTY
@given(st.integers(2, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(0.0, 0.5), st.integers(0, 40), st.integers(0, 2**32 - 1))
@example(m=300, extra=300, decay=0.05, c3=0.1, k=40, seed=3)
@example(m=12, extra=7, decay=0.02, c3=0.0, k=17, seed=0)
def test_kept_ritz_pairs_meet_residual_tol_against_dense_oracle(
        m, extra, decay, c3, k, seed):
    # The accurate two-sided solves of a Recompute at gamma_k and of the
    # Update that follows at gamma_{k+1} (same frozen Jacobian, the merged
    # pairs as preconditioner). Every Ritz pair the harvest selects from
    # has a true residual against the dense two-sided operator of at most
    # its bound, b_l |e_l^T w| + RITZ_ROUNDING eps (theta_max + 1 +
    # lambda_max/gamma), however far the residual of the solve fell below
    # its start; so every pair select_ritz keeps meets the residual
    # tolerance. The last term is the rounding of M^{-1/2}, through which
    # the dense operator of the Update is formed: it reaches
    # eps ||A^T A + gamma I|| / gamma while theta_max falls to the spread of
    # the spectrum left uncaptured.
    # The first example has the shape of diag-work-precision's problem at
    # oracle size: its Recompute runs 165 iterations, drops the residual by
    # 8.9e12 and keeps 143 pairs. In the second, the Recompute exhausts the
    # 12-dimensional space after a drop of 4.1e11; with the bound 0 its
    # pairs were all kept, one at a true residual of 1.12e-6 theta.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                              seed=seed % 2**16), c3=c3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    jac = problem.model.linearize(x)
    gram = DenseOracle.for_problem(problem, x).gram
    gamma0 = float(np.linalg.norm(gram, 2))
    base = SpectralPreconditioner.empty(gamma0 * GAMMA_FACTOR ** -k, m)
    for step in (k, k + 1):
        gamma = gamma0 * GAMMA_FACTOR ** -step
        base = base.with_gamma(gamma)
        tsys = TwoSidedSystem(
            TikhonovSystem(jac, gamma, rng.standard_normal(m + extra),
                           rng.standard_normal(m)), base)
        _, trace = pcg_solve(tsys, None, EPS_ACCURATE, MAX_INNER)
        inv_sqrt = np.column_stack([base.apply_inv_sqrt(e)
                                    for e in np.eye(m)])
        two_sided = inv_sqrt @ (gram + gamma * np.eye(m)) @ inv_sqrt
        seen = []  # the pairs the harvest selects from, and those it keeps

        def selecting(pairs):
            seen.extend([pairs, select_ritz(pairs)])
            return seen[-1]

        with mock.patch.object(solvers, "select_ritz", selecting):
            harvest = _harvest(trace, base)
        pairs, kept = seen
        kept = {id(p) for p in kept}
        for pair in pairs:
            residual = np.linalg.norm(two_sided @ pair.vector
                                      - pair.theta * pair.vector)
            assert residual <= pair.residual_bound
            if id(pair) in kept:
                assert residual <= RITZ_RESIDUAL_TOL * pair.theta
        base = merge_pairs(base, harvest)


@PROPERTY
@given(st.booleans(), st.integers(2, 40), st.integers(0, 20),
       st.floats(0.02, 1.0), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_first_solve_continuing_the_estimate_matches_a_cold_solve(
        convolution, m, extra, decay, c3, seed):
    # The first solve of an estimating irgnm run continues the Lanczos run
    # that estimated gamma0 from b0 = A^T r0. Its step and stop must be
    # those of pcg_solve from scratch at the same gamma0, for the two-sided
    # Recompute at EPS_ACCURATE and the Plain step at EPS_STANDARD. The
    # Recompute must also harvest the same pairs, and its trace satisfy
    # the Ritz residual identity against the dense two-sided operator, as
    # in the test above. The continued trace is that of the two-sided
    # system at either tolerance, and the cold Plain trace is not, so the
    # Plain step compares what Plain steps read: the count, the
    # convergence, h and h^T b.
    base = make_convolution_problem(n=m + 6, seed=seed % 2**16) \
        if convolution else make_diagonal_problem(
            m=m, n=m + extra, decay_a=decay, seed=seed % 2**16)
    problem = make_nonlinear_composite(base, c3=c3)
    m = problem.model.domain_dim
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    residual = rng.standard_normal(problem.model.range_dim)
    gram = DenseOracle.for_problem(problem, x).gram
    for accurate in (True, False):
        jac = problem.model.linearize(x)
        gamma0, lanczos = _estimate_from_gradient(jac, residual)
        empty = SpectralPreconditioner.empty(gamma0, m)
        sys = TikhonovSystem(jac, gamma0, residual, np.zeros(m))
        if accurate:
            h, trace = lanczos.solve(gamma0, EPS_ACCURATE * gamma0,
                                     MAX_INNER)
            tsys = TwoSidedSystem(sys, empty)
            h_cold, cold = pcg_solve(tsys, None, EPS_ACCURATE, MAX_INNER)
            h_cold = tsys.pull_back(h_cold)
        else:
            h, trace = lanczos.solve(gamma0, EPS_STANDARD * gamma0,
                                     MAX_INNER)
            h_cold, cold = pcg_solve(sys, None, EPS_STANDARD, MAX_INNER)
        assert (trace.iterations, trace.converged) \
            == (cold.iterations, cold.converged)
        assert np.linalg.norm(h - h_cold) <= 1e-12 * np.linalg.norm(h_cold)
        if not accurate:
            assert abs(trace.rhs_product - cold.rhs_product) \
                <= 1e-12 * abs(cold.rhs_product)
            continue
        # Both solves run the Lanczos loop, whose data do not drift with
        # the fall of the residual.
        pairs, pairs_cold = _harvest(trace, empty), _harvest(cold, empty)
        assert len(pairs) == len(pairs_cold)
        for (lam, _), (lam_cold, _) in zip(pairs, pairs_cold):
            assert abs(lam - lam_cold) <= 1e-10 * lam_cold
        operator = (gram + gamma0 * np.eye(m)) / gamma0
        if trace.iterations:
            tol = np.linalg.norm(operator, 2) * 1e-13
            for pair in ritz_from_trace(trace):
                direct = np.linalg.norm(operator @ pair.vector
                                        - pair.theta * pair.vector)
                assert abs(direct - pair.residual_bound) <= tol


def _same_trace(trace, ref):
    """Whether two CgTraces hold the same Lanczos data, bit for bit."""
    return (trace.iterations, trace.converged) \
        == (ref.iterations, ref.converged) and all(
            _bits(getattr(trace, name)) == _bits(getattr(ref, name))
            for name in ("diag", "offdiag", "basis"))


def _same_pairs(pairs, ref):
    return len(pairs) == len(ref) and all(
        lam == lam_ref and _bits(u) == _bits(u_ref)
        for (lam, u), (lam_ref, u_ref) in zip(pairs, ref))


@PROPERTY
@given(st.integers(2, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(0.0, 0.5), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_build_steps_are_standard_and_keep_the_accurate_harvest(
        m, extra, decay, c3, k, seed):
    # A build returns the first Galerkin iterate that meets the standard
    # stop test, while its run goes on to EPS_ACCURATE. For the k = 0
    # Recompute, which continues the gamma0 estimate, a Recompute at
    # gamma_k over the empty pair set and the Update that follows it at
    # gamma_{k+1} over the merged pairs, against the dense operator S of
    # each (A^T A + gamma I, or its two-sided form):
    # - the step meets the CG contract eps/(1 - eps) relative to the dense
    #   solution at eps = EPS_STANDARD stop_scale / lambda_min(S);
    # - it is bit for bit the step of the same solve at EPS_STANDARD;
    # - the trace and the harvested pairs are bit for bit those of the
    #   same build without the step test.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                              seed=seed % 2**16), c3=c3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    jac = problem.model.linearize(x)
    gram = DenseOracle.for_problem(problem, x).gram
    residual = rng.standard_normal(m + extra)

    def check(step, trace, standard, accurate, dense, rhs, scale):
        assert _same_trace(trace, accurate[1])
        assert _bits(step) == _bits(standard[0])
        assert trace.rhs_product == standard[1].rhs_product
        assert trace.converged
        exact = np.linalg.solve(dense, rhs)
        eps = EPS_STANDARD * scale / np.linalg.eigvalsh(dense)[0]
        assert np.linalg.norm(step - exact) \
            <= (eps / (1.0 - eps) + 1e-10) * np.linalg.norm(exact)

    # k = 0: three continuations of the same, deterministic estimate
    solves = []
    for tol, step_tol in ((EPS_ACCURATE, EPS_STANDARD),
                          (EPS_STANDARD, None), (EPS_ACCURATE, None)):
        gamma0, lanczos = _estimate_from_gradient(jac, residual)
        solves.append(lanczos.solve(
            gamma0, tol * gamma0, MAX_INNER,
            None if step_tol is None else step_tol * gamma0))
    (step, trace), standard, accurate = solves
    empty = SpectralPreconditioner.empty(gamma0, m)
    assert _same_pairs(_harvest(trace, empty), _harvest(accurate[1], empty))
    check(step, trace, standard, accurate, gram + gamma0 * np.eye(m),
          jac.apply_adjoint(residual), gamma0)

    gamma_k = float(np.linalg.norm(gram, 2)) * GAMMA_FACTOR ** -k
    base = SpectralPreconditioner.empty(gamma_k, m)
    for gamma in (gamma_k, gamma_k / GAMMA_FACTOR):
        base = base.with_gamma(gamma)
        tsys = TwoSidedSystem(
            TikhonovSystem(jac, gamma, residual, rng.standard_normal(m)),
            base)
        step, trace = pcg_solve(tsys, None, EPS_ACCURATE, MAX_INNER,
                                step_epsilon=EPS_STANDARD)
        accurate = pcg_solve(tsys, None, EPS_ACCURATE, MAX_INNER)
        harvest = _harvest(trace, base)
        assert _same_pairs(harvest, _harvest(accurate[1], base))
        inv_sqrt = np.column_stack([base.apply_inv_sqrt(e)
                                    for e in np.eye(m)])
        check(step, trace, pcg_solve(tsys, None, EPS_STANDARD, MAX_INNER),
              accurate, inv_sqrt @ (gram + gamma * np.eye(m)) @ inv_sqrt,
              tsys.apply_adjoint(tsys.stacked_rhs()), 1.0)
        base = merge_pairs(base, harvest)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 20), st.integers(1, 40),
       st.integers(1, 30), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_phi_sampled_is_the_dense_surrogate_norm(m, extra, count, samples,
                                                 gamma, seed):
    # With orthonormal U, ||R_app eps|| = ||diag(c) W^T eps||, so the
    # one-product Phi equals ||R_app^dense E^T||_F / sqrt(L) for the dense
    # R_app = U diag(c) W^T, c_j = sqrt(lambda_j)/(gamma + lambda_j), and the
    # per-pair, per-sample loop it replaced; it costs no model call.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m + extra, m))
    model = linear_model(a)
    lam = rng.uniform(0.1, 10.0, min(count, m))
    u = _orthonormal(rng, m, lam.shape[0])
    p = SpectralPreconditioner(1.0, lam, u).attach_left_vectors(
        model.linearize(np.zeros(m)))
    noise = rng.standard_normal((samples, m + extra))
    before = model.cost.total
    got = SampledPhi(noise).evaluate(gamma, p)
    assert model.cost.total == before
    w = a @ u / np.linalg.norm(a @ u, axis=0)
    r_app = (u * (np.sqrt(lam) / (gamma + lam))) @ w.T
    dense = np.linalg.norm(r_app @ noise.T) / np.sqrt(samples)
    assert abs(got - dense) <= 1e-12 * dense
    assert abs(got - phi_sampled_loop(p, noise, gamma)) <= 1e-12 * dense


@PROPERTY
@given(st.integers(2, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(0.0, 0.5), st.integers(0, 40), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_left_vectors_track_every_pair_across_updates(m, extra, decay, c3, k,
                                                      updates, seed):
    # A Recompute at gamma_k, then Updates on the same frozen Jacobian, as
    # irgnm_run builds them with a sampled Phi. After each merge and attach,
    # column j of W is A u_j / ||A u_j||, and attach_left_vectors spends one
    # Jacobian apply per column it adds and none on the columns it keeps.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                              seed=seed % 2**16), c3=c3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    jac = problem.model.linearize(x)
    a = problem.jacobian_matrix(x)
    gamma0 = float(np.linalg.norm(a, 2) ** 2)
    precond = SpectralPreconditioner.empty(gamma0 * GAMMA_FACTOR ** -k, m)
    for step in range(k, k + 1 + updates):
        gamma = gamma0 * GAMMA_FACTOR ** -step
        base = precond.with_gamma(gamma)
        tsys = TwoSidedSystem(
            TikhonovSystem(jac, gamma, rng.standard_normal(m + extra),
                           rng.standard_normal(m)), base)
        _, trace = pcg_solve(tsys, None, EPS_ACCURATE, MAX_INNER)
        merged = merge_pairs(base, _harvest(trace, base))
        kept = 0 if merged.left_vectors is None \
            else merged.left_vectors.shape[1]
        # the existing pairs pass through, and their left vectors with them
        assert kept == (0 if base.left_vectors is None else base.pair_count)
        before = problem.model.cost.jacobian_applies
        precond = merged.attach_left_vectors(jac)
        added = problem.model.cost.jacobian_applies - before
        assert added == precond.pair_count - kept
        if precond.pair_count == 0:
            continue
        images = a @ precond.vectors
        np.testing.assert_allclose(
            precond.left_vectors, images / np.linalg.norm(images, axis=0),
            rtol=0, atol=1e-10)


@PROPERTY
@given(st.integers(2, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(0.0, 0.5), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_two_sided_system_with_merged_pairs_matches_dense_conjugation(
        m, extra, decay, c3, k, seed):
    # Over the inexact pairs of a Recompute at gamma_k merged with those of
    # the Update at gamma_{k+1}, the two-sided system is G S with
    # G = [A; sqrt(gamma) I] and S = M^{-1/2} from eigh(M): apply is G S,
    # apply_adjoint S G^T and pull_back S, to 1e-12 relative. eigh resolves
    # the eigenvalue gamma of M only to about eps ||M||, so the dense S is
    # itself off by up to about eps cond(M) (3e-9 at cond(M) = 1.7e7 over
    # 300 random draws); the tolerance adds 1e-14 cond(M) for that.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                              seed=seed % 2**16), c3=c3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    jac = problem.model.linearize(x)
    a = problem.jacobian_matrix(x)
    gamma0 = float(np.linalg.norm(a, 2) ** 2)
    precond = SpectralPreconditioner.empty(gamma0 * GAMMA_FACTOR ** -k, m)
    for step in (k, k + 1):
        gamma = gamma0 * GAMMA_FACTOR ** -step
        base = precond.with_gamma(gamma)
        sys = TikhonovSystem(jac, gamma, rng.standard_normal(m + extra),
                             rng.standard_normal(m))
        _, trace = pcg_solve(TwoSidedSystem(sys, base), None, EPS_ACCURATE,
                             MAX_INNER)
        precond = merge_pairs(base, _harvest(trace, base))
    tsys = TwoSidedSystem(sys, precond)
    w, q = np.linalg.eigh(precond.dense())
    s = (q / np.sqrt(w)) @ q.T
    g = np.vstack([a, np.sqrt(gamma) * np.eye(m)])
    tol = 1e-12 + 1e-14 * w[-1] / w[0]
    v, d = rng.standard_normal(m), rng.standard_normal(m + extra + m)
    for got, want in ((tsys.apply(v), g @ s @ v),
                      (tsys.apply_adjoint(d), s @ g.T @ d),
                      (tsys.pull_back(v), s @ v)):
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def _two_sided_delta(gram, precond):
    """The bound of TwoSidedSystem: lambda_min of M^{-1/2} (A^T A + gamma I)
    M^{-1/2} is at least 1 - delta for the pair residual R = A^T A U - U
    diag(lambda), here measured in the Frobenius norm."""
    gamma, lam, u = precond.gamma, precond.lambdas, precond.vectors
    residual = np.linalg.norm(gram @ u - u * lam)
    gamma_c = gamma + lam.min()
    return residual * (1.0 + np.sqrt(1.0 + 4.0 * gamma_c / gamma)) \
        / (2.0 * gamma_c)


@PROPERTY
@given(st.integers(2, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(0.0, 0.5), st.integers(0, 40),
       st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_two_sided_spectrum_is_at_least_one_minus_delta(m, extra, decay, c3,
                                                        k, gaps, seed):
    # A Recompute at gamma_k, then Updates after the given step gaps on the
    # same frozen Jacobian, as irgnm_run builds them. The two-sided system
    # of each Update, over the pairs merged so far at the Update's gamma,
    # and the pair set left after the last merge satisfy lambda_min(M^{-1/2}
    # (A^T A + gamma I) M^{-1/2}) >= 1 - delta by DenseOracle's pencil. The
    # pencil resolves it to about eps cond(M), so the whisker is (1e-12 +
    # 1e-14 cond(M)) times the largest eigenvalue, as for the pencil above.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                              seed=seed % 2**16), c3=c3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    jac = problem.model.linearize(x)
    oracle = DenseOracle.for_problem(problem, x)
    gamma0 = float(np.linalg.norm(oracle.gram, 2))

    def assert_bound(p):
        if not p.pair_count:
            return
        spectrum = oracle.preconditioned_gram_spectrum(p.dense(), p.gamma)
        cond = 1.0 + p.lambdas.max() / p.gamma
        whisker = (1e-12 + 1e-14 * cond) * max(1.0, spectrum[-1])
        assert spectrum[0] >= 1.0 - _two_sided_delta(oracle.gram, p) - whisker

    precond = SpectralPreconditioner.empty(gamma0 * GAMMA_FACTOR ** -k, m)
    for step in itertools.accumulate([k, *gaps]):
        gamma = gamma0 * GAMMA_FACTOR ** -step
        base = precond.with_gamma(gamma)
        assert_bound(base)
        tsys = TwoSidedSystem(
            TikhonovSystem(jac, gamma, rng.standard_normal(m + extra),
                           rng.standard_normal(m)), base)
        _, trace = pcg_solve(tsys, None, EPS_ACCURATE, MAX_INNER)
        precond = merge_pairs(base, _harvest(trace, base))
    assert_bound(precond)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 20), st.integers(0, 40),
       st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
def test_preconditioned_spectrum_identity_with_exact_pairs(m, extra, count,
                                                           gamma, seed):
    # Capturing exact eigenpairs (lambda_j, v_j) of A^T A maps them onto 1
    # and leaves 1 + lambda/gamma for the rest: the similarity-transform
    # check passes, and the generalized pencil (A^T A + gamma I, M) of
    # DenseOracle, an independent route, gives the same spectrum.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m + extra, m))
    oracle = DenseOracle(a)
    lam, v = oracle.gram_spectrum()
    count = min(count, m)
    p = SpectralPreconditioner(gamma, lam[:count], v[:, :count])
    report = preconditioned_spectrum_check(p, a)
    assert report.ok, report.max_abs_error
    pencil = np.sort(oracle.preconditioned_gram_spectrum(p.dense(), gamma))
    scale = max(1.0, float(report.expected.max()))
    assert np.max(np.abs(pencil - report.observed)) <= 1e-9 * scale


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 20), st.integers(0, 40),
       st.floats(1e-3, 10.0), st.floats(0.0, 12.0), st.integers(0, 2**32 - 1))
@example(m=30, extra=5, count=12, gamma=1e-3, spread=12.0, seed=7)
def test_cholesky_pencil_matches_similarity_route(m, extra, count, gamma,
                                                  spread, seed):
    # On a random pair set (orthonormal u_j that are no eigenvectors of
    # A^T A, weights up to 10^spread gamma) the two routes to
    # sigma(M^{-1} G^T G) agree: DenseOracle's pencil reduced by the
    # Cholesky factor of M, and preconditioned_spectrum_check's
    # M^{-1/2} G^T G M^{-1/2} from the closed-form inverse square root.
    # The factor of M resolves it only to about eps cond(M), so the
    # tolerance is 1e-12 plus 1e-14 cond(M), relative to the largest
    # eigenvalue (over 3000 scratch draws up to cond(M) = 1e12 the
    # mismatch stayed below 1.6e-15 cond(M)).
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m + extra, m))
    count = min(count, m)
    lam = gamma * 10.0 ** rng.uniform(-2.0, spread, count)
    p = SpectralPreconditioner(gamma, lam, _orthonormal(rng, m, count))
    similarity = preconditioned_spectrum_check(p, a).observed
    pencil = np.sort(DenseOracle(a).preconditioned_gram_spectrum(p.dense(),
                                                                 gamma))
    cond = 1.0 + (lam.max() / gamma if count else 0.0)
    scale = max(1.0, float(similarity.max()))
    assert np.max(np.abs(pencil - similarity)) <= (1e-12 + 1e-14 * cond) * scale


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(1e-3, 10.0), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_cg_accuracy_contract_against_dense_oracle(m, extra, decay, gamma,
                                                   count, seed):
    # The stop test ||r|| <= eps * stop_scale * ||h|| with stop_scale a lower
    # bound of the normal operator's spectrum gives ||h - h*|| <= eps/(1-eps)
    # ||h*||: for h itself in plain and left-preconditioned solves (scale
    # gamma), and for h~ = M^{1/2} h in two-sided solves with exact pairs
    # (scale 1). The whisker covers the dense solve's own round-off.
    problem = make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                                    seed=seed % 2**16)
    oracle = DenseOracle.for_problem(problem)
    rng = np.random.default_rng(seed)
    data, prior = rng.standard_normal(m + extra), rng.standard_normal(m)
    sys = TikhonovSystem(problem.model.linearize(np.zeros(m)), gamma, data,
                         prior)
    exact = oracle.tikhonov_solve(gamma, data, prior)
    lam, v = oracle.gram_spectrum()
    count = min(count, int(np.sum(lam > 0)))
    p = SpectralPreconditioner(gamma, lam[:count], v[:, :count])
    exact_two = p.dense() @ p.apply_inv_sqrt(exact)
    for eps in (1.0 / 3.0, 1e-2, 1e-4, 1e-8):
        for solver, precond, target in ((sys, None, exact), (sys, p, exact),
                                        (TwoSidedSystem(sys, p), None,
                                         exact_two)):
            h, trace = pcg_solve(solver, precond, eps)
            if trace.converged:
                bound = (eps / (1.0 - eps) + 1e-12) * np.linalg.norm(target)
                assert np.linalg.norm(h - target) <= bound


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class _StridedAdjoint:
    """``sys`` with every adjoint result handed back as a strided view, as
    a user-supplied system may return it."""

    def __init__(self, sys):
        self.sys, self.domain_dim = sys, sys.domain_dim
        self.stop_scale, self.apply = sys.stop_scale, sys.apply
        self.stacked_rhs = sys.stacked_rhs

    def apply_adjoint(self, d):
        out = np.zeros((self.domain_dim, 2))
        out[:, 0] = self.sys.apply_adjoint(d)
        return out[:, 0]


@PROPERTY
@given(st.integers(2, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.integers(1, 60), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_cg_loops_match_their_reference_bit_for_bit(m, extra, decay, cap,
                                                    rho, seed):
    # Newton-CG's in-place truncated CGNE against the loop that allocated
    # fresh arrays and called np.linalg.norm (tests/helpers.py): the same h
    # bit for bit, one adjoint apply fewer once it has iterated. Below m
    # iterations CGNE cannot exhaust the Krylov space, so it ends on its
    # target or its cap, not on A^T d = 0 (where both loops read the last
    # adjoint, and a capped flag no longer asks for rho_c > 0). The Tikhonov
    # solves, which run the Lanczos loop, are checked against DenseOracle
    # in the property below.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                              seed=seed % 2**16), c3=0.1)
    rng = np.random.default_rng(seed)
    jac = problem.model.linearize(rng.uniform(-1.0, 1.0, m))
    cost = problem.model.cost
    b = rng.standard_normal(m + extra)
    outcomes = []
    for solve in (_truncated_cgne, truncated_cgne_reference):
        before = cost.jacobian_applies, cost.adjoint_applies
        h, iterations, capped = solve(jac, b, rho, min(cap, m - 1))
        outcomes.append((_bits(h), iterations, capped,
                         cost.jacobian_applies - before[0],
                         cost.adjoint_applies - before[1]))
    (h, iterations, capped, applies, adjoints), ref = outcomes
    assert (h, iterations, capped, applies) == ref[:4]
    assert ref[4] == iterations + 1 and adjoints == max(iterations, 1)


def _random_pairs(rng, gamma, m, count):
    """A merged pair set of min(count, m) random pairs at shift gamma."""
    return merge_pairs(
        SpectralPreconditioner.empty(gamma, m),
        [(lam, rng.standard_normal(m))
         for lam in rng.uniform(0.1, 10.0, min(count, m))])


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(1e-3, 10.0), st.integers(0, 40), st.integers(1, 60),
       st.sampled_from((1.0 / 3.0, 1e-9)), st.integers(0, 2**32 - 1))
def test_lanczos_solves_meet_their_contracts_against_dense_oracle(
        m, extra, decay, gamma, count, cap, eps, seed):
    # Every Tikhonov solve is one Lanczos loop. On the Tikhonov system,
    # preconditioned by merged pairs M or not, its two-sided form over the
    # same pairs, and, preconditioned or not, a system whose adjoint
    # returns strided vectors, against the dense normal operator B and M
    # (I when unpreconditioned):
    # - the Lanczos vectors are M-orthonormal, Q^T W = I for W = M Q;
    # - the Lanczos relation B Q - W T = b_l w_{l+1} e_l^T holds at working
    #   precision, that is, B Q - W T vanishes but in its last column,
    #   which is orthogonal to Q with M^{-1}-norm b_l;
    # - a converged h meets the CG contract eps'/(1 - eps') relative to the
    #   dense solution, eps' = eps stop_scale / lambda_min(B), which is eps
    #   for the Tikhonov system, preconditioned or not, and may exceed it
    #   for the two-sided form over inexact pairs;
    # - a solve of l iterations costs 1 + 2l model units and l + 1
    #   applications of M^{-1}, or l when it ends on an exhausted Krylov
    #   space, whose dependent last vector is not normalized.
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                              seed=seed % 2**16), c3=0.1)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    jac = problem.model.linearize(x)
    sys = TikhonovSystem(jac, gamma, rng.standard_normal(m + extra),
                         rng.standard_normal(m))
    pairs = _random_pairs(rng, gamma, m, count)
    inv_sqrt = np.column_stack([pairs.apply_inv_sqrt(e) for e in np.eye(m)])
    gtg = DenseOracle.for_problem(problem, x).gram + gamma * np.eye(m)
    rhs = sys.apply_adjoint(sys.stacked_rhs())
    eye, cost = np.eye(m), problem.model.cost
    for solver, precond, dense, m_dense, start in (
            (sys, None, gtg, eye, rhs),
            (_StridedAdjoint(sys), None, gtg, eye, rhs),
            (sys, _CountingInverse(pairs), gtg, pairs.dense(), rhs),
            (_StridedAdjoint(sys), _CountingInverse(pairs), gtg,
             pairs.dense(), rhs),
            (TwoSidedSystem(sys, pairs), None, inv_sqrt @ gtg @ inv_sqrt,
             eye, inv_sqrt @ rhs)):
        before = cost.total
        h, trace = pcg_solve(solver, precond, eps, cap)
        l = trace.iterations
        assert cost.total - before == 1 + 2 * l
        if precond is not None:
            assert precond.calls == l + 1 \
                or (precond.calls == l and trace.converged)
        q = trace.basis.T
        w = m_dense @ q
        off = trace.offdiag[:l - 1]
        relation = dense @ q - w @ (np.diag(trace.diag) + np.diag(off, 1)
                                    + np.diag(off, -1))
        last = relation[:, -1]
        # relative to ||B|| ||Q||^j; the dense M and the pair set's M^{-1}
        # round differently, and the preconditioned checks read both
        # (random draws reached 6.4e3 eps)
        rel, q_norm = 1e-13 if precond is None else 1e-11, np.linalg.norm(q, 2)
        tol = rel * np.linalg.norm(dense, 2) * q_norm
        assert np.abs(q.T @ w - np.eye(l)).max() \
            <= rel * np.linalg.norm(m_dense, 2) * q_norm ** 2
        assert np.abs(relation[:, :-1]).max(initial=0.0) <= tol
        assert np.abs(q.T @ last).max() <= tol * q_norm
        assert abs(math.sqrt(last @ np.linalg.solve(m_dense, last))
                   - trace.offdiag[-1]) <= tol
        if trace.converged:
            exact = np.linalg.solve(dense, start)
            scaled = eps * solver.stop_scale / np.linalg.eigvalsh(dense)[0]
            if scaled < 1.0:
                bound = scaled / (1.0 - scaled) + 1e-10
                assert np.linalg.norm(h - exact) \
                    <= bound * np.linalg.norm(exact)


class _CountingInverse:
    """A pair set that counts its ``apply_inverse`` calls."""

    def __init__(self, pairs):
        self.pairs, self.calls = pairs, 0

    def apply_inverse(self, x):
        self.calls += 1
        return self.pairs.apply_inverse(x)


_SPECIALS = (np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0, 5e-324)


@PROPERTY
@given(st.lists(st.floats(-1e3, 1e3), max_size=40),
       st.lists(st.tuples(st.integers(0, 39),
                          st.one_of(st.sampled_from(_SPECIALS),
                                    st.floats(1e154, 1e155),
                                    st.floats(-1e155, -1e154))),
                max_size=6),
       st.booleans())
@example(values=[1.0, -2.0], injected=[(1, 1e155)], as_list=False)
def test_as_vector_rejects_exactly_the_non_finite(values, injected, as_list):
    # Entries from 1e154 up square past the float range: finite input whose
    # sum of squares overflows takes the per-entry fallback and is accepted,
    # as by the per-entry test alone (tests/helpers.py).
    v = np.array(values, dtype=float)
    for i, special in injected:
        if i < v.shape[0]:
            v[i] = special
    arg = list(v) if as_list else v
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.all(np.isfinite(v)):
            out = as_vector(arg, v.shape[0])
            np.testing.assert_array_equal(out, v)
            assert _bits(out) == _bits(as_vector_reference(arg, v.shape[0]))
        else:
            with pytest.raises(ContractError, match="non-finite"):
                as_vector(arg, v.shape[0])
            with pytest.raises(ContractError, match="non-finite"):
                as_vector_reference(arg, v.shape[0])


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 40), st.floats(1e-3, 1e3),
       st.floats(1e-3, 1e3), st.floats(0.0, 16.0), st.integers(0, 2**32 - 1))
def test_with_gamma_clone_applies_like_a_validated_preconditioner(
        dim, count, gamma, new_gamma, spread, seed):
    # with_gamma shares the validated pair arrays, skips the checks and
    # forms its own weights on its first apply. Its applies, first and
    # repeated, equal bit for bit those of a freshly validated
    # preconditioner and of weights formed on every call (tests/helpers.py),
    # also after the original has cached the weights of its own shift.
    # Eigenvalues spread over up to 16 decades, so the floor drops some.
    rng = np.random.default_rng(seed)
    count = min(count, dim)
    lambdas = 10.0 ** rng.uniform(-spread, 0.0, count)
    original = SpectralPreconditioner(gamma, lambdas,
                                      _orthonormal(rng, dim, count))
    x = rng.standard_normal(dim)
    original.apply_inverse(x)
    original.apply_inv_sqrt(x)
    clone = original.with_gamma(new_gamma)
    fresh = SpectralPreconditioner(new_gamma, original.lambdas,
                                   original.vectors)
    assert clone.vectors is original.vectors
    assert clone.lambdas is original.lambdas
    for inv_sqrt in (False, True):
        name = "apply_inv_sqrt" if inv_sqrt else "apply_inverse"
        for v in (x, rng.standard_normal(dim)):
            ref = _bits(shifted_apply_reference(fresh, v, inv_sqrt))
            assert _bits(getattr(clone, name)(v)) == ref
            assert _bits(getattr(fresh, name)(v)) == ref
    with pytest.raises(ContractError):
        original.with_gamma(0.0)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.floats(1e-3, 10.0), st.integers(1, 40), st.floats(1e-3, 10.0),
       st.floats(1e-12, 1.0), st.integers(0, 2**32 - 1))
def test_kept_ritz_vectors_equal_the_eager_products(m, extra, decay, gamma,
                                                   steps, separation, tol,
                                                   seed):
    # ritz_from_trace returns every candidate and forms a vector only when
    # it is read. The pairs select_ritz keeps, read first, and then all the
    # others carry Z @ w_i bit for bit as forming every vector at once did
    # (tests/helpers.py). The stacked apply matches np.concatenate too.
    problem = make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                                    seed=seed % 2**16)
    rng = np.random.default_rng(seed)
    sys = TikhonovSystem(problem.model.linearize(np.zeros(m)), gamma,
                         rng.standard_normal(m + extra), np.zeros(m))
    v = rng.standard_normal(m)
    assert _bits(sys.apply(v)) == _bits(stacked_apply_reference(sys, v))
    _, trace = pcg_solve(sys, epsilon=1e-13, max_iterations=min(steps, m))
    pairs = ritz_from_trace(trace)
    eager = ritz_vectors_reference(trace)
    assert len(pairs) == len(eager) == trace.iterations
    with mock.patch.multiple(krylov, RITZ_SEPARATION=separation,
                             RITZ_RESIDUAL_TOL=tol):
        kept = select_ritz(pairs)
    for pair in kept:
        i = next(j for j, p in enumerate(pairs) if p is pair)
        assert _bits(pair.vector) == _bits(eager[i])
    for pair, vector in zip(pairs, eager):
        assert _bits(pair.vector) == _bits(vector)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 20), st.floats(0.02, 1.0),
       st.booleans(), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(m=3, extra=2, decay=0.25, nonlinear=True,
         steps=GRAM_ESTIMATE_STEPS, seed=5)
def test_lanczos_gram_norm_between_power_estimate_and_dense_norm(
        m, extra, decay, nonlinear, steps, seed):
    # j Lanczos steps return the largest Rayleigh quotient of A^T A over the
    # Krylov space K_j of their start vector, which holds the last iterate
    # of j power steps from the same vector, and no quotient exceeds
    # ||A||^2. A domain of fewer than j dimensions is exhausted first, and
    # the estimate is then exact. The whiskers are round-off.
    # estimate_gram_norm is the run of GRAM_ESTIMATE_STEPS steps from the
    # start vector of seed GRAM_ESTIMATE_SEED.
    problem = make_diagonal_problem(m=m, n=m + extra, decay_a=decay,
                                    seed=seed % 2**16)
    if nonlinear:
        problem = make_nonlinear_composite(problem)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, m)
    jac = problem.model.linearize(x)
    norm_sq = float(np.linalg.norm(DenseOracle.for_problem(problem, x).a,
                                   2) ** 2)
    run = krylov.Lanczos(jac, np.random.default_rng(
        solvers.GRAM_ESTIMATE_SEED).standard_normal(m))
    run.grow_to(steps)
    lanczos = run.theta_max()
    if steps == GRAM_ESTIMATE_STEPS:
        assert estimate_gram_norm(jac) == lanczos
    assert power_gram_norm_reference(jac, steps) <= lanczos * (1.0 + 1e-12)
    assert lanczos <= norm_sq * (1.0 + 1e-12)
    if m < steps:
        assert lanczos == pytest.approx(norm_sq, rel=1e-12)


# (method, stop rule) pairs of the scale check; lepskii reads WhiteNoisePhi.
_SCALED_RUNS = (("irgnm-prec", "discrepancy"), ("irgnm-prec", "lepskii"),
                ("irgnm-plain", "discrepancy"), ("landweber", "discrepancy"),
                ("newton-cg", "discrepancy"))


def _scaled_run(scale, method, rule, seed):
    """(stop index, model units, error at the stop) of one run on the
    30 x 40 nonlinear-diagonal problem of the given scale, at relative noise
    level 0.02, as the CLI runs it: gamma0 and mu estimated, the discrepancy
    rule at TAU, the balancing rule at RHO with the budget R = 5."""
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=30, n=40, scale=scale, seed=seed))
    y_exact = problem.model.evaluate(problem.truth)
    sigma = noise_sigma_for_level(y_exact, 0.02)
    y_obs = y_exact + generate_noise(sigma, 40, count=1, seed=seed)[0]
    delta = sigma * np.sqrt(40)
    x0, phi = np.zeros(30), None
    if rule == "lepskii":
        stop, phi = PhiBudgetDriver(5.0), WhiteNoisePhi(sigma)
    else:
        stop = DiscrepancyDriver(delta)
    kwargs = {"stop": stop, "truth": problem.truth}
    if method == "landweber":
        history = landweber_run(problem.model, y_obs, x0, **kwargs)
    elif method == "newton-cg":
        history = newton_cg_run(problem.model, y_obs, x0, **kwargs)
    else:
        history = irgnm_run(problem.model, y_obs, x0,
                            variant=method.removeprefix("irgnm-"),
                            phi_estimator=phi, **kwargs)
    index = lepskii_from_history(history, 5.0) if rule == "lepskii" \
        else discrepancy_stop(history.residual_norms(), delta)
    error = None if index is None else history.records[index].error
    return index, history.total_cost(), error


@pytest.mark.parametrize("scale", [1e-3, 7.0])
@pytest.mark.parametrize("run", _SCALED_RUNS, ids="-".join)
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(seed=st.integers(0, 2**16 - 1))
def test_every_method_is_equivariant_under_the_problem_scale(run, scale,
                                                             seed):
    # Scaling K by c scales F, its Jacobians, the exact data and, at a
    # relative noise level, the noise by c; the gamma0 and mu estimates
    # scale by c^2, and Phi and the errors not at all. So every method
    # takes the same steps on the scaled problem: the same stop index and
    # model units, and errors equal up to rounding. The CLI therefore
    # builds every problem at scale 1.
    index, units, error = _scaled_run(scale, *run, seed)
    ref_index, ref_units, ref_error = _scaled_run(1.0, *run, seed)
    assert (index, units) == (ref_index, ref_units)
    assert index is not None
    assert error == pytest.approx(ref_error, rel=1e-9)


def test_every_update_follows_an_expensive_plain_step():
    # The inner counts irgnm_run hands _plan_step are those of the records:
    # on random irgnm-prec runs of a nonlinear-diagonal problem, every
    # Update follows Plain rows since the last build (Recompute or Update)
    # whose inner_iterations sum to at least that build's, and to at least
    # 1, and no earlier Plain row since that build had reached that sum.
    rng = np.random.default_rng(35)
    updates = 0
    for seed in range(16):
        m, extra = int(rng.integers(2, 41)), int(rng.integers(0, 21))
        problem = make_nonlinear_composite(
            make_diagonal_problem(m=m, n=m + extra,
                                  decay_a=rng.uniform(0.02, 1.0), seed=seed),
            c3=rng.uniform(0.0, 2.0))
        y = problem.model.evaluate(problem.truth)
        y = y + generate_noise(noise_sigma_for_level(
            y, rng.uniform(1e-3, 0.05)), m + extra, seed=seed)[0]
        records = irgnm_run(problem.model, y, np.zeros(m),
                            rhs_kind=(IRGNM, LEVENBERG_MARQUARDT)[seed % 2],
                            max_newton=25).records
        assert records[0].event == EVENT_RECOMPUTE
        plain = build = 0
        for rec in records:
            paid = plain >= max(build, 1)
            if rec.event == EVENT_UPDATE:
                assert paid and records[rec.k - 1].event == EVENT_PLAIN
                updates += 1
            elif rec.event == EVENT_PLAIN:
                assert not paid
                plain += rec.inner_iterations
            if rec.event in (EVENT_RECOMPUTE, EVENT_UPDATE):
                plain, build = 0, rec.inner_iterations
    assert updates > 0


def test_images_and_galerkin_starts_against_dense_oracle():
    # On random irgnm-prec runs of nonlinear-diagonal and -convolution
    # composites, against the dense Jacobian at each build's x_m:
    # - the images of every pair set a build merges are A^T A U to
    #   ||Z - A^T A U|| <= RITZ_ROUNDING eps mu_max, the rounding the
    #   Galerkin start charges (at most 3.3 eps mu_max here), after the
    #   k = 0 build, after later Recomputes and after Updates over a
    #   nonempty set, some at kappa(M) = 1 + lambda_max/gamma >= 1e5;
    # - every Plain step of 0 iterations meets eps/(1 - eps) against the
    #   dense solution of its system at eps = EPS_STANDARD (at most 0.56
    #   of it here), its trace holds h^T b, and h^T (b - B h) is 0 to
    #   rounding, for B = A^T A + gamma I and b = G^T g as applied.
    rng = np.random.default_rng(39)
    eps = np.finfo(float).eps
    seen = collections.Counter()
    for seed in range(16):
        if seed % 2:
            base = make_convolution_problem(n=int(rng.integers(8, 41)),
                                            seed=seed)
        else:
            m = int(rng.integers(2, 41))
            base = make_diagonal_problem(
                m=m, n=m + int(rng.integers(0, 21)),
                decay_a=rng.uniform(0.02, 1.0), seed=seed)
        problem = make_nonlinear_composite(base, c3=rng.uniform(0.0, 2.0))
        m, n = problem.model.domain_dim, problem.model.range_dim
        y = problem.model.evaluate(problem.truth)
        y = y + generate_noise(noise_sigma_for_level(
            y, rng.uniform(1e-3, 0.05)), n, seed=seed)[0]
        merged, starts = [], []

        def merging(existing, new_pairs):
            merged.append((existing, merge_pairs(existing, new_pairs)))
            return merged[-1][1]

        def solving(sys, precond=None, *args, **kwargs):
            h, trace = pcg_solve(sys, precond, *args, **kwargs)
            if trace.iterations == 0 and precond is not None:
                starts.append((sys, h, trace))
            return h, trace

        with mock.patch.object(solvers, "merge_pairs", merging), \
                mock.patch.object(solvers, "pcg_solve", solving):
            records = irgnm_run(problem.model, y, np.zeros(m),
                                max_newton=40).records
        builds = [r for r in records
                  if r.event in (EVENT_RECOMPUTE, EVENT_UPDATE)]
        assert len(builds) == len(merged)
        for rec, (existing, p) in zip(builds, merged):
            gram = DenseOracle.for_problem(problem, records[rec.m].x_k).gram
            mu_max = p.projection[0].max(initial=0.0)
            assert np.linalg.norm(p.images - gram @ p.vectors, 2) \
                <= RITZ_ROUNDING * eps * mu_max
            if rec.event == EVENT_UPDATE and existing.pair_count:
                kappa = 1.0 + existing.lambdas.max() / existing.gamma
                seen["update" if kappa < 1e5 else "update at 1e5"] += 1
            else:
                seen[rec.event if rec.k else "k = 0"] += 1
        zero = [r for r in records if r.event == EVENT_PLAIN
                and r.k > 0 and r.inner_iterations == 0]
        assert len(zero) == len(starts)
        for rec, (sys, h, trace) in zip(zero, starts):
            a = problem.jacobian_matrix(records[rec.m].x_k)
            b = sys.apply_adjoint(sys.stacked_rhs())
            normal = a.T @ a + sys.gamma * np.eye(m)
            exact = np.linalg.solve(normal, b)
            assert np.linalg.norm(h - exact) <= (
                EPS_STANDARD / (1.0 - EPS_STANDARD) + 1e-12) \
                * np.linalg.norm(exact)
            assert trace.converged and trace.rhs_product == h.dot(b)
            assert abs(h.dot(b - normal @ h)) \
                <= RITZ_ROUNDING * eps * np.linalg.norm(h) * (
                    np.linalg.norm(b)
                    + np.linalg.norm(normal, 2) * np.linalg.norm(h))
            seen["0-iteration Plain"] += 1
    assert min(seen[event] for event in (
        "k = 0", EVENT_RECOMPUTE, "update", "update at 1e5",
        "0-iteration Plain")) > 0, seen


_EXPLODING_RUNS = {
    "irgnm": lambda model, y, cap, stop: irgnm_run(
        model, y, np.zeros(10), max_newton=cap, stop=stop),
    "landweber": lambda model, y, cap, stop: landweber_run(
        model, y, np.zeros(10), max_steps=cap, stop=stop),
    "newton-cg": lambda model, y, cap, stop: newton_cg_run(
        model, y, np.zeros(10), max_newton=cap, stop=stop),
}


@PROPERTY
@given(st.sampled_from(sorted(_EXPLODING_RUNS)), st.integers(1, 8),
       st.integers(1, 8), st.booleans(), st.booleans(),
       st.integers(0, 2**16 - 1))
@example(method="irgnm", cap=5, explode=5, discrepancy=False,
         inner_cap=False, seed=0)
@example(method="newton-cg", cap=8, explode=6, discrepancy=False,
         inner_cap=True, seed=8)
def test_a_residual_exploding_at_any_recorded_row_ends_in_breakdown(
        method, cap, explode, discrepancy, inner_cap, seed):
    # F returns 1e100 in every entry from x_explode on. The divergence guard
    # reads every recorded row after the stop driver: the cap row (first
    # example), and the Final row at k = 6 that a capped Newton-CG solve
    # (MAX_INNER = 1) ends the run on (second example), included. So a run
    # that reaches row explode ends there in Breakdown, and one that the
    # stop driver (or a capped solve) ends sooner ends as it does on the
    # model that never explodes.
    explode = min(explode, cap)
    problem = make_nonlinear_composite(
        make_diagonal_problem(m=10, n=14, seed=seed))
    y_exact = problem.model.evaluate(problem.truth)
    sigma = noise_sigma_for_level(y_exact, 0.01)
    y = y_exact + generate_noise(sigma, 14, count=1, seed=seed)[0]
    stop = DiscrepancyDriver(sigma * np.sqrt(14)) if discrepancy else None
    run = _EXPLODING_RUNS[method]
    with mock.patch.object(solvers, "MAX_INNER", 1 if inner_cap
                           else MAX_INNER):
        healthy = run(problem.model, y, cap, stop)
        exploding = run(explode_from_evaluation(problem.model, explode + 1),
                        y, cap, stop)
    end = healthy.records[-1].k
    if explode <= end:
        assert exploding.terminal_reason == TERMINAL_BREAKDOWN
        assert exploding.records[-1].k == explode
        assert "exceeds" in exploding.meta["breakdown"]
    else:
        assert exploding.terminal_reason == healthy.terminal_reason
        assert exploding.records[-1].k == end


@PROPERTY
@given(st.integers(15, 30), st.integers(4, 15), st.integers(0, 2**16 - 1),
       st.integers(0, 2**16 - 1), st.sampled_from((0.01, 0.02, 0.05)),
       st.sampled_from(("deterministic", "white")),
       st.sampled_from((0.05, 0.1)))
@example(m=30, extra=8, seed=0, noise_seed=0, level=0.05,
         phi="deterministic", bound=0.05)
def test_each_stop_rule_driver_agrees_with_its_resolver(
        m, extra, seed, noise_seed, level, phi, bound):
    # cli._bind_rule gives each rule the driver a run consults and the
    # resolver read off the finished run. A discrepancy run that stops at
    # record K resolves to K. A lepskii run that stops at K, the first
    # record whose Phi exceeds R, balances over x_0..x_{K-1}, so K_max is
    # K - 1 (none at K = 0, where the rule is not reached). oracle-optimal
    # and none bind no driver, so their runs go to the step cap.
    cfg = cli.ExperimentConfig.from_text(
        f"[problem]\nm = {m}\nn = {m + extra}\nseed = {seed}\n"
        "[solver]\nmax_newton = 25\n"
        f"[noise]\nlevel = {level}\nseed = {noise_seed}\n"
        f"[stopping]\nr_bound = {bound}\nphi = {phi}\n")
    problem = cli.build_problem(cfg)
    y_obs, sigma, delta = cli.build_data(cfg, problem)

    def bound_run(rule):
        drive, resolve = cli._bind_rule(cfg, rule)
        history = cli.run_method(
            cfg, problem, y_obs, stop=drive and drive(delta),
            phi_estimator=cli.build_phi_estimator(
                cfg, sigma, delta, problem.model.range_dim, noise_seed))
        return drive, resolve, history, len(history.records) - 1

    _, resolve, history, k = bound_run("discrepancy")
    assert history.terminal_reason == TERMINAL_STOP
    assert resolve(history, delta) == k

    with mock.patch.object(stopping, "lepskii_select",
                           wraps=stopping.lepskii_select) as select:
        _, resolve, history, k = bound_run("lepskii")
        index = resolve(history, delta)
    assert history.terminal_reason == TERMINAL_STOP
    if k == 0:
        assert index is None and not select.called
    else:
        assert len(select.call_args.args[0]) - 1 == k - 1
        assert 0 <= index <= k - 1

    for rule in ("oracle-optimal", "none"):
        drive, _, history, k = bound_run(rule)
        assert drive is None
        assert (history.terminal_reason, k) == (TERMINAL_MAX, 25)
