"""Synthetic problem families, noise calibration, and the dense oracle."""

import inspect

import numpy as np
import pytest

from helpers import convolution_apply_reference
from iterreg.operators import ContractError, adjoint_mismatch
from iterreg.testbed import (DENSE_ORACLE_MAX_DIM, DenseOracle, OracleRefusal,
                             cosine_basis, generate_noise,
                             make_convolution_problem, make_diagonal_problem,
                             make_nonlinear_composite, noise_sigma_for_level,
                             random_orthonormal_columns, two_bump_profile)


def test_two_bump_profile_shape():
    profile = two_bump_profile(50)
    assert profile.shape == (50,)
    assert np.all(profile >= 0)
    assert 0.9 < profile.max() <= 1.9  # bumps may overlap slightly


def test_random_orthonormal_columns_match_square_qr():
    # The thin QR keeps the first columns of the full square QR of the same
    # Gaussian draw, sign fix included.
    for dim, count in [(7, 7), (7, 3), (40, 17), (1, 1)]:
        q = random_orthonormal_columns(dim, count, np.random.default_rng(0))
        assert q.shape == (dim, count)
        np.testing.assert_allclose(q.T @ q, np.eye(count), atol=1e-12)
        full, r = np.linalg.qr(
            np.random.default_rng(0).standard_normal((dim, dim)))
        full = full * np.sign(np.diag(r))
        np.testing.assert_allclose(q, full[:, :count], rtol=0, atol=1e-14)


def test_diagonal_problem_explicit_singular_values():
    problem = make_diagonal_problem(m=3, n=5, decay_a=np.log(10), scale=2.0,
                                    seed=4)
    sv = np.linalg.svd(problem.matrix, compute_uv=False)
    np.testing.assert_allclose(sv, [2.0, 0.2, 0.02], rtol=1e-12)


def test_diagonal_problem_decay_ratio():
    # decay_a = 0.5: consecutive eigenvalues of A^T A differ by e^{2 * 0.5}.
    problem = make_diagonal_problem(m=10, n=12, decay_a=0.5, seed=1)
    w = np.linalg.eigvalsh(problem.matrix.T @ problem.matrix)[::-1]
    ratios = w[:-1] / w[1:]
    np.testing.assert_allclose(ratios, np.e, rtol=1e-8)


def test_diagonal_truth_is_recoverable_smooth_profile():
    # The truth is the smooth two-bump profile and the domain singular
    # vectors are frequency-ordered cosines, so the truth's coefficients in
    # the singular basis decay fast: the recoverable low-index modes carry
    # essentially all of its energy.
    problem = make_diagonal_problem(m=60, n=70, seed=3)
    np.testing.assert_array_equal(problem.truth, two_bump_profile(60))
    u = cosine_basis(60)
    np.testing.assert_allclose(u.T @ u, np.eye(60), atol=1e-12)
    coeffs = u.T @ problem.truth
    # the boundary kink of the truncated Gaussians leaves an O(j^-2) tail
    tail = np.linalg.norm(coeffs[30:]) / np.linalg.norm(coeffs)
    assert tail < 1e-3
    sv = np.linalg.svd(problem.matrix, compute_uv=False)
    assert sv[0] == pytest.approx(1.0)


def test_diagonal_problem_validation():
    with pytest.raises(ContractError):
        make_diagonal_problem(m=10, n=5)
    with pytest.raises(ContractError):
        make_diagonal_problem(m=4, n=4, decay_a=-1.0)


def test_diagonal_model_matches_matrix():
    problem = make_diagonal_problem(m=8, n=11, seed=9)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    np.testing.assert_allclose(problem.model.evaluate(x), problem.matrix @ x,
                               rtol=1e-13)
    jac = problem.model.linearize(x)
    assert adjoint_mismatch(jac, np.random.default_rng(1)) < 1e-13


@pytest.mark.parametrize("m,n", [(4, 7), (3, 3), (6, 11), (1, 2), (2, 2),
                                 (1, 1)])
def test_diagonal_blocked_operator_matches_matrix(m, n):
    # The operator runs on two row blocks of ``matrix``: results agree with
    # the dense products, and both blocks are views, not copies.
    problem = make_diagonal_problem(m=m, n=n, seed=5)
    a = problem.matrix
    apply, adjoint = problem.operator
    rng = np.random.default_rng(7)
    x, w = rng.standard_normal(m), rng.standard_normal(n)
    np.testing.assert_allclose(problem.model.evaluate(x), a @ x, rtol=1e-13)
    np.testing.assert_allclose(apply(x), a @ x, rtol=1e-13)
    np.testing.assert_allclose(adjoint(w), a.T @ w, rtol=1e-13)
    jac = problem.model.linearize(x)
    np.testing.assert_allclose(jac.apply(x), a @ x, rtol=1e-13)
    np.testing.assert_allclose(jac.apply_adjoint(w), a.T @ w, rtol=1e-13)
    assert adjoint_mismatch(jac, np.random.default_rng(1)) < 1e-13
    for fn in (apply, adjoint):
        blocks = [v for v in inspect.getclosurevars(fn).nonlocals.values()
                  if isinstance(v, np.ndarray)]
        assert len(blocks) == 2
        assert sum(b.shape[0] for b in blocks) == n
        for block in blocks:
            assert block.base is a
            assert block.size == 0 or np.shares_memory(block, a)


def test_convolution_preserves_constants():
    # The kernel has unit mass, so the DC mode is an eigenvector with
    # eigenvalue 1: convolving a constant returns it unchanged.
    problem = make_convolution_problem(n=32, seed=0)
    ones = np.ones(32)
    np.testing.assert_allclose(problem.model.evaluate(ones), ones, rtol=1e-12)


def test_convolution_symbol_matches_dense_eigenvalues():
    problem = make_convolution_problem(n=24, seed=1)
    symbol = np.fft.rfft(problem.jacobian_matrix()[:, 0]).real
    w = np.linalg.eigvalsh(problem.jacobian_matrix())
    # eigenvalues of the symmetric circulant are the symbol values with
    # multiplicity two on interior frequencies
    n = 24
    expected = [symbol[0], symbol[n // 2]]
    expected += [symbol[j] for j in range(1, n // 2) for _ in range(2)]
    np.testing.assert_allclose(np.sort(w), np.sort(expected), atol=1e-12)


def test_convolution_double_eigenvalues():
    problem = make_convolution_problem(n=16, seed=0)
    w = np.sort(np.linalg.eigvalsh(problem.jacobian_matrix()))[::-1]
    # frequencies 1..n/2-1 give pairs: entries 1,2 then 3,4 etc. coincide
    for j in range(1, 8, 2):
        assert w[j] == pytest.approx(w[j + 1], rel=1e-12)


@pytest.mark.parametrize("n, kernel_width", [(8, 0.05), (33, 0.2),
                                             (2048, 0.05)])
def test_convolution_apply_matches_fresh_spectrum_reference(n, kernel_width):
    # The apply multiplies the symbol into rfft's result in place; each call
    # returns a fresh array, bit for bit the out-of-place product
    # (tests/helpers.py), and a later call leaves it untouched.
    apply, adjoint = make_convolution_problem(n=n,
                                              kernel_width=kernel_width).operator
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    first = apply(x)
    kept = first.copy()
    second = adjoint(y)
    assert first is not second
    assert first.tobytes() == kept.tobytes() \
        == convolution_apply_reference(n, kernel_width, x).tobytes()
    assert second.tobytes() \
        == convolution_apply_reference(n, kernel_width, y).tobytes()


def test_convolution_self_adjoint():
    problem = make_convolution_problem(n=20, seed=2)
    jac = problem.model.linearize(np.zeros(20))
    assert adjoint_mismatch(jac, np.random.default_rng(0)) < 1e-13
    dense = problem.jacobian_matrix()
    np.testing.assert_allclose(dense, dense.T, atol=1e-15)


def test_convolution_validation():
    with pytest.raises(ContractError):
        make_convolution_problem(n=4)
    with pytest.raises(ContractError):
        make_convolution_problem(n=16, kernel_width=0.0)


# Composite tests run on both linear bases: the dense m x n diagonal map and
# the FFT-applied convolution, whose dense circulant is built only on demand.
# The convolution base is always square at n = 32.
LINEAR_BASES = [
    pytest.param(lambda m, n, seed: make_diagonal_problem(m=m, n=n, seed=seed),
                 id="diagonal"),
    pytest.param(lambda m, n, seed: make_convolution_problem(n=32, seed=seed),
                 id="convolution"),
]


@pytest.mark.parametrize("c3", [None, 0.5], ids=["linear", "composite"])
@pytest.mark.parametrize("make_base", LINEAR_BASES)
def test_successive_model_results_never_share_memory(make_base, c3):
    # The CG loops update the arrays they allocate in place, so no model
    # call may hand back memory that an earlier result or its input holds.
    problem = make_base(6, 9, seed=5)
    if c3 is not None:
        problem = make_nonlinear_composite(problem, c3=c3)
    model = problem.model
    rng = np.random.default_rng(3)
    x = rng.standard_normal(model.domain_dim)
    w = rng.standard_normal(model.range_dim)
    jac = model.linearize(x)
    for call, arg in ((model.evaluate, x), (jac.apply, x),
                      (jac.apply_adjoint, w)):
        first, second = call(arg), call(arg)
        np.testing.assert_array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, arg)


@pytest.mark.parametrize("make_base", LINEAR_BASES)
def test_nonlinear_c3_zero_degenerates_to_base(make_base):
    base = make_base(6, 9, seed=5)
    composite = make_nonlinear_composite(base, c3=0.0)
    m = base.model.domain_dim
    rng = np.random.default_rng(7)
    x = rng.standard_normal(m)
    np.testing.assert_allclose(composite.model.evaluate(x),
                               base.model.evaluate(x), rtol=1e-14)
    v = rng.standard_normal(m)
    np.testing.assert_allclose(composite.model.linearize(x).apply(v),
                               base.model.linearize(x).apply(v), rtol=1e-14)


@pytest.mark.parametrize("make_base", LINEAR_BASES)
def test_nonlinear_jacobian_at_zero_is_base_operator(make_base):
    base = make_base(6, 9, seed=5)
    composite = make_nonlinear_composite(base, c3=2.0)
    m = base.model.domain_dim
    rng = np.random.default_rng(8)
    v = rng.standard_normal(m)
    jac = composite.model.linearize(np.zeros(m))
    np.testing.assert_allclose(jac.apply(v), base.jacobian_matrix() @ v,
                               rtol=1e-14)


@pytest.mark.parametrize("make_base", LINEAR_BASES)
def test_nonlinear_jacobian_matches_dense_and_adjoint(make_base):
    base = make_base(7, 10, seed=6)
    composite = make_nonlinear_composite(base, c3=1.5)
    m, n = base.model.domain_dim, base.model.range_dim
    rng = np.random.default_rng(11)
    x = rng.standard_normal(m)
    dense = composite.jacobian_matrix(x)
    jac = composite.model.linearize(x)
    v = rng.standard_normal(m)
    w = rng.standard_normal(n)
    np.testing.assert_allclose(composite.model.evaluate(x),
                               base.jacobian_matrix() @ (x + 1.5 * x ** 3),
                               rtol=1e-13)
    np.testing.assert_allclose(jac.apply(v), dense @ v, rtol=1e-13)
    np.testing.assert_allclose(jac.apply_adjoint(w), dense.T @ w, rtol=1e-13)
    assert adjoint_mismatch(jac, np.random.default_rng(3)) < 1e-13


def test_nonlinear_requires_linearization_point_for_dense_jacobian():
    base = make_diagonal_problem(m=4, n=6, seed=0)
    composite = make_nonlinear_composite(base, c3=1.0)
    with pytest.raises(ContractError):
        composite.jacobian_matrix()


def test_nonlinear_composite_validation():
    base = make_diagonal_problem(m=4, n=6, seed=0)
    with pytest.raises(ContractError):
        make_nonlinear_composite(base, c3=-1.0)
    stripped = make_nonlinear_composite(base, c3=1.0)
    with pytest.raises(ContractError):
        make_nonlinear_composite(stripped, c3=1.0)


def test_generate_noise_statistics():
    # At L = 1e4 samples of dimension 10 the empirical component variance
    # lands within 5 percent of sigma^2.
    sigma = 0.7
    samples = generate_noise(sigma, 10, count=10000, seed=12)
    flat = np.concatenate(samples)
    assert flat.mean() == pytest.approx(0.0, abs=0.05 * sigma)
    assert flat.var() == pytest.approx(sigma ** 2, rel=0.05)


def test_generate_noise_rows_are_the_sequential_draws():
    # One (count, dim) draw holds the numbers of count draws of length dim.
    samples = generate_noise(0.5, 7, count=4, seed=9)
    assert samples.shape == (4, 7)
    rng = np.random.default_rng(9)
    for row in samples:
        np.testing.assert_array_equal(row, 0.5 * rng.standard_normal(7))


def test_generate_noise_deterministic():
    a = generate_noise(1.0, 5, count=2, seed=3)
    b = generate_noise(1.0, 5, count=2, seed=3)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_noise_sigma_for_level_calibration():
    # sigma = level * ||y|| / sqrt(N) makes E||eps|| ~ level * ||y||.
    y = np.full(400, 2.0)
    sigma = noise_sigma_for_level(y, 0.02)
    assert sigma * np.sqrt(400) == pytest.approx(0.02 * np.linalg.norm(y))
    samples = generate_noise(sigma, 400, count=200, seed=5)
    rms = np.sqrt(np.mean([np.linalg.norm(s) ** 2 for s in samples]))
    assert rms == pytest.approx(0.02 * np.linalg.norm(y), rel=0.05)


def test_oracle_identity_solve():
    # A = I, gamma = 1, y = 2 e_1: h = (I + I)^{-1} 2 e_1 = e_1.
    oracle = DenseOracle(np.eye(3))
    y = np.array([2.0, 0.0, 0.0])
    np.testing.assert_allclose(oracle.tikhonov_solve(1.0, y),
                               [1.0, 0.0, 0.0], rtol=1e-14)


def test_oracle_solve_with_prior():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((8, 5))
    oracle = DenseOracle(a)
    gamma = 0.3
    y = rng.standard_normal(8)
    prior = rng.standard_normal(5)
    h = oracle.tikhonov_solve(gamma, y, prior)
    lhs = a.T @ a + gamma * np.eye(5)
    np.testing.assert_allclose(lhs @ h, a.T @ y + gamma * prior, rtol=1e-11)


def test_oracle_refuses_large_domains():
    with pytest.raises(OracleRefusal):
        DenseOracle(np.zeros((10, DENSE_ORACLE_MAX_DIM + 1)))


def test_oracle_refuses_before_building_dense_operator():
    base = make_convolution_problem(n=2048)
    built = []
    base.dense_jacobian = built.append  # records a dense build, returns None
    composite = make_nonlinear_composite(base)
    with pytest.raises(OracleRefusal):
        DenseOracle.for_problem(composite, np.zeros(2048))
    assert built == []
    assert base.matrix is None


def test_oracle_gram_spectrum_descending():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((10, 6))
    w, v = DenseOracle(a).gram_spectrum()
    assert np.all(np.diff(w) <= 0)
    np.testing.assert_allclose(a.T @ a @ v, v * w, atol=1e-10)


def test_oracle_r_matrix_is_regularized_inverse():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((9, 6))
    gamma = 0.4
    r = DenseOracle(a).r_matrix(gamma)
    expected = np.linalg.solve(a.T @ a + gamma * np.eye(6), a.T)
    np.testing.assert_allclose(r, expected, rtol=1e-10, atol=1e-12)


def test_oracle_trace_phi_against_monte_carlo():
    # Two routes: sigma * sqrt(trace(R R^T)) vs the RMS of ||R eps|| over
    # 4000 white-noise draws; they agree within 5 percent.
    rng = np.random.default_rng(33)
    a = rng.standard_normal((12, 7))
    oracle = DenseOracle(a)
    sigma, gamma = 0.25, 0.2
    exact = oracle.trace_phi(sigma, gamma)
    r = oracle.r_matrix(gamma)
    samples = generate_noise(sigma, 12, count=4000, seed=21)
    mc = np.sqrt(np.mean([np.linalg.norm(r @ eps) ** 2 for eps in samples]))
    assert mc == pytest.approx(exact, rel=0.05)


def test_oracle_for_problem_nonlinear_needs_point():
    base = make_diagonal_problem(m=5, n=7, seed=2)
    composite = make_nonlinear_composite(base, c3=1.0)
    x = np.linspace(-1.0, 1.0, 5)
    oracle = DenseOracle.for_problem(composite, x)
    np.testing.assert_allclose(oracle.a, composite.jacobian_matrix(x))


def test_problem_describe():
    problem = make_diagonal_problem(m=5, n=7, seed=2)
    info = problem.describe()
    assert info["kind"] == "diagonal"
    assert info["domain_dim"] == 5
    assert info["range_dim"] == 7
    assert info["seed"] == 2
