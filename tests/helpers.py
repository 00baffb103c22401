"""Shared test utilities: dense-matrix forward models and stacked oracles."""

from __future__ import annotations

import numpy as np

from iterreg.operators import ForwardModel, TikhonovSystem


def linear_model(a, name="dense-linear"):
    """ForwardModel wrapping a dense matrix; Jacobian is the matrix itself."""
    a = np.asarray(a, dtype=float)
    n, m = a.shape

    def linearize(_x):
        return (lambda v: a @ v, lambda w: a.T @ w)

    return ForwardModel(m, n, lambda x: a @ x, linearize, name=name)


def nan_on_call(model, call, adjoint=False):
    """Copy of ``model`` whose ``call``-th Jacobian apply (counted over all
    linearizations; adjoint applies with ``adjoint=True``) returns NaN."""
    count = 0

    def poison(fn):
        def wrapped(v):
            nonlocal count
            count += 1
            out = fn(v)
            return np.full_like(out, np.nan) if count == call else out
        return wrapped

    def linearize(x):
        jac = model.linearize(x)
        if adjoint:
            return jac.apply, poison(jac.apply_adjoint)
        return poison(jac.apply), jac.apply_adjoint

    return ForwardModel(model.domain_dim, model.range_dim, model.evaluate,
                        linearize, name=model.name)


def tikhonov_system(a, gamma, rhs_data=None, rhs_prior=None):
    """TikhonovSystem over a dense matrix with optional default zero rhs."""
    a = np.asarray(a, dtype=float)
    n, m = a.shape
    jac = linear_model(a).linearize(np.zeros(m))
    if rhs_data is None:
        rhs_data = np.zeros(n)
    if rhs_prior is None:
        rhs_prior = np.zeros(m)
    return TikhonovSystem(jac, gamma, rhs_data, rhs_prior)


def dense_stacked(a, gamma):
    """Dense G = [A; sqrt(gamma) I], the brute-force image of the system."""
    a = np.asarray(a, dtype=float)
    return np.vstack([a, np.sqrt(gamma) * np.eye(a.shape[1])])


def dense_tikhonov_solution(a, gamma, rhs_data, rhs_prior):
    """Direct solve of (A^T A + gamma I) h = A^T b + gamma b0."""
    a = np.asarray(a, dtype=float)
    m = a.shape[1]
    lhs = a.T @ a + gamma * np.eye(m)
    rhs = a.T @ np.asarray(rhs_data, float) + gamma * np.asarray(rhs_prior, float)
    return np.linalg.solve(lhs, rhs)


def random_spd_pairs(m, count, rng, gamma=1.0):
    """Random orthonormal vectors and positive weights for a preconditioner."""
    q, _ = np.linalg.qr(rng.standard_normal((m, count)))
    lambdas = np.sort(rng.uniform(0.5, 5.0, size=count))[::-1]
    return gamma, lambdas, q
