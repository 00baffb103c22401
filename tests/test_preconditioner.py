"""Closed-form spectral preconditioner algebra, merging, and spectrum checks."""

import numpy as np
import pytest

from helpers import dense_tikhonov_solution, tikhonov_system
from iterreg.krylov import pcg_solve
from iterreg.operators import ContractError
from iterreg.preconditioner import (MERGE_DROP_TOL, SpectralPreconditioner,
                                    TwoSidedSystem, merge_pairs,
                                    preconditioned_spectrum_check)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_single_pair_closed_forms():
    # M = I + 3 u u^T acts on u as multiplication by 4.
    u = unit([1.0, 2.0, -2.0])
    p = SpectralPreconditioner(1.0, [3.0], u[:, None])
    np.testing.assert_allclose(p.dense() @ u, 4.0 * u, rtol=1e-14)
    np.testing.assert_allclose(p.apply_inverse(u), u / 4.0, rtol=1e-14)
    np.testing.assert_allclose(p.apply_inv_sqrt(u), u / 2.0, rtol=1e-14)
    np.testing.assert_allclose(p.apply_inv_sqrt(p.apply_inv_sqrt(u)),
                               np.linalg.solve(p.dense(), u), rtol=1e-14)
    # orthogonal directions only see the gamma shift
    w = unit(np.cross(u, [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(p.apply_inverse(w), w, rtol=1e-14, atol=1e-15)


def test_empty_preconditioner_is_scaled_identity():
    x = np.array([3.0, -1.0, 2.0, 0.5])
    p2 = SpectralPreconditioner.empty(2.0, 4)
    np.testing.assert_allclose(p2.apply_inverse(x), x / 2.0, rtol=1e-15)
    p4 = SpectralPreconditioner.empty(4.0, 4)
    np.testing.assert_allclose(p4.apply_inv_sqrt(x), x / 2.0, rtol=1e-15)
    np.testing.assert_allclose(p4.apply_inv_sqrt(p4.apply_inv_sqrt(x)),
                               np.linalg.solve(p4.dense(), x), rtol=1e-15)
    assert p4.pair_count == 0


def test_inverse_and_roots_against_dense_oracle():
    rng = np.random.default_rng(42)
    for trial in range(8):
        dim = int(rng.integers(4, 12))
        count = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
        lam = np.sort(rng.uniform(0.2, 8.0, count))[::-1]
        gamma = float(rng.uniform(0.05, 3.0))
        p = SpectralPreconditioner(gamma, lam, q)
        m = p.dense()
        m_inv = np.linalg.inv(m)
        x = rng.standard_normal(dim)
        np.testing.assert_allclose(p.apply_inverse(x), m_inv @ x, rtol=1e-11,
                                   atol=1e-13)
        # the inverse root composes to the inverse
        np.testing.assert_allclose(p.apply_inv_sqrt(p.apply_inv_sqrt(x)),
                                   m_inv @ x, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(p.apply_inverse(p.dense() @ x), x,
                                   rtol=1e-11, atol=1e-13)


def test_spectrum_example_diagonal():
    # A = diag(2, 1), gamma = 1: G^T G = diag(5, 2). Capturing (4, e1)
    # maps direction e1 to 1 and leaves 1 + 1/1 = 2 on e2.
    p = SpectralPreconditioner(1.0, [4.0], np.array([[1.0], [0.0]]))
    report = preconditioned_spectrum_check(p, np.diag([2.0, 1.0]))
    np.testing.assert_allclose(report.observed, [1.0, 2.0], atol=1e-12)
    assert report.ok


def test_spectrum_check_random_instances():
    rng = np.random.default_rng(9)
    for trial in range(6):
        n, m = 14, 9
        a = rng.standard_normal((n, m))
        w, v = np.linalg.eigh(a.T @ a)
        count = int(rng.integers(1, m))
        gamma = float(rng.uniform(0.01, 1.0))
        p = SpectralPreconditioner(gamma, w[::-1][:count].copy(),
                                   v[:, ::-1][:, :count].copy())
        report = preconditioned_spectrum_check(p, a)
        assert report.ok, report.max_abs_error
        # cluster at 1 has exactly `count` members
        ones = np.sum(np.abs(report.observed - 1.0) < 1e-9)
        assert ones >= count


def test_merge_drops_duplicate_direction():
    u = unit([1.0, 1.0, 0.0])
    existing = SpectralPreconditioner(1.0, [3.0], u[:, None])
    # same direction up to a relative complement of ~1.4e-5 (< merge drop tol)
    dup = unit(u + 1e-5 * unit([0.0, 0.0, 1.0]))
    assert abs(dup @ u) > 1.0 - 1e-10
    merged = merge_pairs(existing, [(1.0, dup)])
    assert merged.pair_count == 1
    assert merged.gamma == existing.gamma
    np.testing.assert_allclose(merged.lambdas, [3.0])
    np.testing.assert_allclose(merged.vectors[:, 0], u, rtol=1e-14)


def test_merge_keeps_new_direction_and_existing_pairs():
    u = np.array([1.0, 0.0, 0.0])
    existing = SpectralPreconditioner(1.0, [5.0], u[:, None])
    newcomer = unit([1.0, 1.0, 0.0])  # overlaps u but is genuinely new
    merged = merge_pairs(existing, [(2.0, newcomer)])
    assert merged.pair_count == 2
    np.testing.assert_allclose(merged.lambdas, [5.0, 2.0])
    # existing vector passes through unchanged; newcomer is orthogonalized
    np.testing.assert_allclose(merged.vectors[:, 0], u, atol=1e-14)
    np.testing.assert_allclose(np.abs(merged.vectors[:, 1]), [0.0, 1.0, 0.0],
                               atol=1e-12)
    gram = merged.vectors.T @ merged.vectors
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-13)


def test_merge_rejects_nonpositive_values():
    existing = SpectralPreconditioner.empty(1.0, 3)
    with pytest.raises(ContractError):
        merge_pairs(existing, [(0.0, np.array([1.0, 0.0, 0.0]))])


def test_merge_preserves_left_vectors():
    u = np.array([[1.0], [0.0]])
    left = np.array([[0.0], [1.0]])
    existing = SpectralPreconditioner(1.0, [2.0], u, left_vectors=left)
    merged = merge_pairs(existing, [(1.0, np.array([0.0, 1.0]))])
    # the existing pair keeps its left vector as the leading block; the
    # newcomer has none until attach_left_vectors appends it
    assert merged.pair_count == 2
    np.testing.assert_array_equal(merged.left_vectors, left)


def test_merge_maps_newcomer_images_through_gram_schmidt():
    # A^T A = diag(9, 4, 4, 1, 0.25) has the double eigenvalue 4. Two
    # newcomers span its eigenspace but are not orthogonal, and a third
    # lies within 1e-6 of the existing e_1, below MERGE_DROP_TOL, so it is
    # dropped with its value and image. The merged images are A^T A U of
    # the merged vectors, the existing column and its image unchanged.
    gram = np.diag([9.0, 4.0, 4.0, 1.0, 0.25])
    e = np.eye(5)
    existing = SpectralPreconditioner(0.1, [9.0], e[:, :1],
                                      images=gram @ e[:, :1])
    newcomers = [unit(e[1] + e[2]), unit(e[1] - 0.2 * e[2]),
                 unit(e[0] + 1e-6 * e[3])]
    merged = merge_pairs(existing, [(4.0, newcomers[0], gram @ newcomers[0]),
                                    (4.0, newcomers[1], gram @ newcomers[1]),
                                    (9.0, newcomers[2], gram @ newcomers[2])])
    assert merged.pair_count == 3
    np.testing.assert_array_equal(merged.lambdas, [9.0, 4.0, 4.0])
    np.testing.assert_array_equal(merged.vectors[:, 0], e[0])
    np.testing.assert_array_equal(merged.images[:, 0], existing.images[:, 0])
    np.testing.assert_allclose(merged.images, gram @ merged.vectors,
                               rtol=0, atol=1e-14)
    # the double eigenspace is spanned, so the images are 4 U there
    np.testing.assert_allclose(merged.images[:, 1:],
                               4.0 * merged.vectors[:, 1:], rtol=0, atol=1e-14)
    # one newcomer without an image, or an existing set without images,
    # leaves the merged set without images
    assert merge_pairs(existing, [(4.0, newcomers[0])]).images is None
    bare = SpectralPreconditioner(0.1, [9.0], e[:, :1])
    assert merge_pairs(bare, [(4.0, newcomers[0], gram @ newcomers[0])]) \
        .images is None
    fresh = merge_pairs(SpectralPreconditioner.empty(0.1, 5),
                        [(4.0, newcomers[0], gram @ newcomers[0])])
    np.testing.assert_allclose(fresh.images, gram @ fresh.vectors, atol=1e-15)


def test_copies_share_images_and_their_projection():
    # with_gamma and attach_left_vectors keep the images, and the
    # eigendecomposition of U^T Z is formed once for the pair set and all
    # its copies.
    from helpers import linear_model
    a = np.diag([3.0, 2.0, 1.0])
    u = np.eye(3)[:, :2]
    p = SpectralPreconditioner(1.0, [9.0, 4.0], u, images=a.T @ a @ u)
    q = p.with_gamma(0.5)
    assert q.images is p.images
    mu, v = q.projection
    np.testing.assert_allclose(mu, [4.0, 9.0])
    assert p.projection is q.projection
    left = q.attach_left_vectors(linear_model(a).linearize(np.zeros(3)))
    assert left.images is p.images and left.projection is q.projection
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [9.0], u[:, :1], images=u)


def test_with_gamma_shares_pairs():
    u = np.array([0.0, 1.0])
    p = SpectralPreconditioner(1.0, [3.0], u[:, None])
    q = p.with_gamma(2.0)
    assert q.gamma == 2.0
    assert q.vectors is p.vectors
    # shift changes: (M x)|_u = (gamma + lambda) u
    np.testing.assert_allclose(q.dense() @ u, 5.0 * u, rtol=1e-15)
    np.testing.assert_allclose(p.dense() @ u, 4.0 * u, rtol=1e-15)


def test_validation_rejects_bad_input():
    skewed = np.column_stack([[1.0, 0.0], [0.9, 0.1]])
    e1 = np.array([[1.0], [0.0]])
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [1.0, 1.0], skewed)
    with pytest.raises(ContractError):
        SpectralPreconditioner(0.0, [1.0], e1)
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [-1.0], e1)
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [1.0], e1, left_vectors=np.zeros((2, 2)))


def test_validation_rejects_non_finite_pairs():
    # NaN fails every comparison, so a check written as `defect > tol`
    # lets it through; eigenvectors and left vectors must both be rejected.
    e1 = np.array([[1.0], [0.0]])
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [1.0], np.array([[np.nan], [0.0]]))
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [1.0, 1.0],
                               np.array([[1.0, 0.0], [0.0, np.inf]]))
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [1.0], e1, left_vectors=[[np.nan]])
    with pytest.raises(ContractError):
        SpectralPreconditioner(1.0, [1.0, 1.0], np.eye(2),
                               left_vectors=np.array([[1.0], [np.nan]]))


def test_tiny_lambda_dropped():
    u = np.eye(3)[:, :2]
    p = SpectralPreconditioner(1.0, [1.0, 1e-20], u)
    assert p.pair_count == 1
    np.testing.assert_allclose(p.lambdas, [1.0])
    # a dropped pair takes its image along
    p = SpectralPreconditioner(1.0, [1.0, 1e-20], u, images=u * [1.0, 1e-20])
    np.testing.assert_array_equal(p.images, u[:, :1])


def test_attach_left_vectors_counts_cost():
    from helpers import linear_model
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 4))
    model = linear_model(a)
    jac = model.linearize(np.zeros(4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    p = SpectralPreconditioner(1.0, [2.0, 1.0], q)
    before = model.cost.total
    filled = p.attach_left_vectors(jac)
    assert model.cost.total == before + 2
    assert filled.left_vectors.shape == (6, 2)
    for j in range(2):
        expected = a @ q[:, j]
        np.testing.assert_allclose(filled.left_vectors[:, j],
                                   expected / np.linalg.norm(expected),
                                   rtol=1e-13)
    # already-filled slots are not recomputed
    again = filled.attach_left_vectors(jac)
    assert model.cost.total == before + 2
    assert again.left_vectors.shape == (6, 2)


def test_attach_left_vectors_null_space_raises():
    from helpers import linear_model
    model = linear_model(np.array([[1.0, 0.0]]))
    jac = model.linearize(np.zeros(2))
    p = SpectralPreconditioner(1.0, [1.0], np.array([[0.0], [1.0]]))
    with pytest.raises(ContractError):
        p.attach_left_vectors(jac)


def test_two_sided_system_matches_dense_conjugation():
    rng = np.random.default_rng(17)
    n, m = 9, 6
    a = rng.standard_normal((n, m))
    gamma = 0.4
    w, v = np.linalg.eigh(a.T @ a)
    p = SpectralPreconditioner(gamma, w[::-1][:2].copy(),
                               v[:, ::-1][:, :2].copy())
    sys = tikhonov_system(a, gamma, rhs_data=rng.standard_normal(n))
    tsys = TwoSidedSystem(sys, p)
    assert tsys.stop_scale == 1.0
    assert tsys.domain_dim == m

    m_inv_sqrt = np.column_stack([p.apply_inv_sqrt(col) for col in np.eye(m)])
    g = np.vstack([a, np.sqrt(gamma) * np.eye(m)])
    vvec = rng.standard_normal(m)
    dvec = rng.standard_normal(n + m)
    np.testing.assert_allclose(tsys.apply(vvec), g @ m_inv_sqrt @ vvec,
                               rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(tsys.apply_adjoint(dvec),
                               m_inv_sqrt @ g.T @ dvec, rtol=1e-12, atol=1e-13)


def test_two_sided_solve_pulls_back_to_tikhonov_solution():
    rng = np.random.default_rng(23)
    n, m = 12, 8
    a = rng.standard_normal((n, m))
    gamma = 0.2
    data = rng.standard_normal(n)
    prior = rng.standard_normal(m)
    sys = tikhonov_system(a, gamma, data, prior)
    w, v = np.linalg.eigh(a.T @ a)
    p = SpectralPreconditioner(gamma, w[::-1][:3].copy(),
                               v[:, ::-1][:, :3].copy())
    tsys = TwoSidedSystem(sys, p)
    h_t, trace = pcg_solve(tsys, epsilon=1e-10, max_iterations=100)
    assert trace.converged
    h = tsys.pull_back(h_t)
    exact = dense_tikhonov_solution(a, gamma, data, prior)
    np.testing.assert_allclose(h, exact, rtol=1e-8, atol=1e-10)


def test_two_sided_spectrum_bounded_below_by_one():
    # With exact captured pairs the transformed normal operator has no
    # eigenvalue below 1, which is why stop_scale can be 1.
    rng = np.random.default_rng(29)
    a = rng.standard_normal((10, 7))
    gamma = 0.1
    w, v = np.linalg.eigh(a.T @ a)
    p = SpectralPreconditioner(gamma, w[::-1][:3].copy(),
                               v[:, ::-1][:, :3].copy())
    m_inv_sqrt = np.column_stack([p.apply_inv_sqrt(col) for col in np.eye(7)])
    sym = m_inv_sqrt @ (a.T @ a + gamma * np.eye(7)) @ m_inv_sqrt
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    assert eigs[0] >= 1.0 - 1e-10


def test_merge_drop_tolerance_is_coarser_than_qr_drop():
    # Duplicate detection at merge time keys on the *merge* tolerance, which
    # must dominate the complement left by a dot product of 1 - 1e-10.
    complement = np.sqrt(2.0 * 1e-10)
    assert complement < MERGE_DROP_TOL
