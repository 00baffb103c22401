"""Stacked Tikhonov operator and cost accounting."""

import numpy as np
import pytest

from helpers import dense_stacked, linear_model, tikhonov_system
from iterreg.operators import (ContractError, ForwardModel, TikhonovSystem,
                               adjoint_mismatch, as_vector, jacobian_fd_order)


def test_stacked_apply_zero_operator():
    # A = 0 (3x2), gamma = 4: G v = (0, 0, 0, 2 v1, 2 v2).
    sys = tikhonov_system(np.zeros((3, 2)), gamma=4.0)
    out = sys.apply(np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 2.0, 2.0])


def test_stacked_adjoint_tail_scaling():
    # d = (0_N; u), gamma = 9: G^T d = 3 u regardless of A acting on the head.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 4))
    sys = tikhonov_system(a, gamma=9.0)
    u = rng.standard_normal(4)
    d = np.concatenate([np.zeros(5), u])
    np.testing.assert_allclose(sys.apply_adjoint(d), 3.0 * u,
                               rtol=1e-14)


def test_stacked_matches_dense_form():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n, m = rng.integers(2, 9, size=2)
        a = rng.standard_normal((n, m))
        gamma = float(rng.uniform(0.1, 5.0))
        sys = tikhonov_system(a, gamma)
        g = dense_stacked(a, gamma)
        v = rng.standard_normal(m)
        d = rng.standard_normal(n + m)
        np.testing.assert_allclose(sys.apply(v), g @ v, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(sys.apply_adjoint(d), g.T @ d, rtol=1e-13,
                                   atol=1e-13)


def test_stacked_apply_costs_one_jacobian_apply():
    model = linear_model(np.eye(3))
    sys = TikhonovSystem(model.linearize(np.zeros(3)), 1.0, np.zeros(3),
                         np.zeros(3))
    before = model.cost.total
    sys.apply(np.ones(3))
    assert model.cost.total == before + 1
    assert model.cost.jacobian_applies == 1


def test_stacked_rhs_layout():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 3))
    data = rng.standard_normal(4)
    prior = rng.standard_normal(3)
    sys = tikhonov_system(a, 2.25, data, prior)
    np.testing.assert_allclose(sys.stacked_rhs(),
                               np.concatenate([data, 1.5 * prior]))


def test_normal_equations_identity():
    # <G v, G v> = <v, G^T G v> ties apply and apply_adjoint together.
    rng = np.random.default_rng(19)
    for trial in range(20):
        n, m = rng.integers(2, 10, size=2)
        a = rng.standard_normal((n, m))
        sys = tikhonov_system(a, float(rng.uniform(0.05, 3.0)))
        v = rng.standard_normal(m)
        gv = sys.apply(v)
        gtgv = sys.apply_adjoint(gv)
        assert abs(gv @ gv - v @ gtgv) <= 1e-12 * max(1.0, gv @ gv)


def test_gamma_must_be_positive():
    for gamma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ContractError):
            tikhonov_system(np.eye(2), gamma)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ContractError):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ContractError):
        as_vector([1.0, np.nan])
    with pytest.raises(ContractError):
        as_vector([1.0, 2.0], dim=3)


def test_jacobian_handle_counts_and_dim_checks():
    model = linear_model(np.ones((3, 2)))
    jac = model.linearize(np.zeros(2))
    jac.apply(np.ones(2))
    jac.apply_adjoint(np.ones(3))
    jac.apply(np.ones(2))
    assert model.cost.jacobian_applies == 2
    assert model.cost.adjoint_applies == 1
    with pytest.raises(ContractError):
        jac.apply(np.ones(3))
    with pytest.raises(ContractError):
        jac.apply_adjoint(np.ones(2))


def test_frozen_handle_survives_iterate_motion():
    # The handle must keep applying the Jacobian from its minting point even
    # after new linearizations are requested elsewhere.
    state = {"scale": 1.0}

    def linearize(x):
        s = state["scale"]
        return (lambda v: s * v, lambda w: s * w)

    model = ForwardModel(2, 2, lambda x: state["scale"] * x, linearize)
    old = model.linearize(np.zeros(2))
    state["scale"] = 10.0
    new = model.linearize(np.zeros(2))
    np.testing.assert_allclose(old.apply(np.ones(2)), [1.0, 1.0])
    np.testing.assert_allclose(new.apply(np.ones(2)), [10.0, 10.0])


def test_model_cost_totals():
    model = linear_model(np.eye(2))
    model.evaluate(np.ones(2))
    jac = model.linearize(np.ones(2))
    jac.apply(np.ones(2))
    jac.apply_adjoint(np.ones(2))
    assert model.cost.total == 3
    assert model.cost.evaluations == 1


def test_adjoint_mismatch_clean_and_broken():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 5))
    good = linear_model(a).linearize(np.zeros(5))
    assert adjoint_mismatch(good, np.random.default_rng(1)) < 1e-14

    def bad_linearize(_x):
        return (lambda v: a @ v, lambda w: (a.T @ w) * 1.001)

    bad_model = ForwardModel(5, 6, lambda x: a @ x, bad_linearize)
    bad = bad_model.linearize(np.zeros(5))
    assert adjoint_mismatch(bad, np.random.default_rng(1)) > 1e-5


def test_jacobian_fd_order_quadratic_model():
    # Exact Jacobian: forward-difference errors shrink linearly in the step,
    # so the fitted slope is about 1. A broken Jacobian stalls near 0.
    def linearize(x):
        d = 1.0 + 2.0 * x
        return (lambda v: d * v, lambda w: d * w)

    model = ForwardModel(4, 4, lambda x: x + x * x, linearize)
    rng = np.random.default_rng(5)
    order, errors = jacobian_fd_order(model, rng.standard_normal(4),
                                      rng.standard_normal(4))
    assert order == np.inf or order > 0.9
    assert len(errors) == 3


def test_jacobian_fd_order_linear_model_hits_roundoff():
    # For a linear model the difference quotient is exact; the helper
    # reports an infinite order instead of fitting noise.
    model = linear_model(np.diag([1.0, 2.0, 3.0]))
    order, errors = jacobian_fd_order(model, np.ones(3), np.ones(3))
    assert order == np.inf
    assert max(errors) < 1e-10


def test_jacobian_fd_order_flags_wrong_jacobian():
    def linearize(x):
        d = 1.0 + 1.5 * x  # wrong: should be 1 + 2x
        return (lambda v: d * v, lambda w: d * w)

    model = ForwardModel(4, 4, lambda x: x + x * x, linearize)
    rng = np.random.default_rng(5)
    order, _ = jacobian_fd_order(model, rng.standard_normal(4),
                                 rng.standard_normal(4))
    assert order < 0.9
