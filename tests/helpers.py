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


def nan_on_evaluation(model, call):
    """Copy of ``model`` whose ``call``-th evaluation returns NaN."""
    count = 0

    def evaluate(x):
        nonlocal count
        count += 1
        out = model.evaluate(x)
        return np.full_like(out, np.nan) if count == call else out

    def linearize(x):
        jac = model.linearize(x)
        return jac.apply, jac.apply_adjoint

    return ForwardModel(model.domain_dim, model.range_dim, evaluate,
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


def householder_loop(vectors, drop_tol=1e-12):
    """Reference basis growth, one reflector at a time: ``(q, pnorm)`` or
    ``(None, pnorm)`` per input, as ``HouseholderBasis.add`` returns."""
    reflectors, out = [], []
    for x in vectors:
        x, k = np.asarray(x, dtype=float), len(reflectors)
        xnorm = np.linalg.norm(x)
        if xnorm == 0.0 or k >= x.shape[0]:
            out.append((None, 0.0))
            continue
        for v in reflectors:
            x = x - (2.0 * (v @ x)) * v
        pnorm = float(np.linalg.norm(x[k:]))
        if pnorm <= drop_tol * xnorm:
            out.append((None, pnorm))
            continue
        alpha = -np.copysign(pnorm, x[k])
        v = np.zeros(x.shape[0])
        v[k:] = x[k:]
        v[k] -= alpha
        reflectors.append(v / np.linalg.norm(v))
        q = np.zeros(x.shape[0])
        q[k] = 1.0
        for v in reversed(reflectors):
            q = q - (2.0 * (v @ q)) * v
        out.append((-q if alpha < 0.0 else q, pnorm))
    return out
