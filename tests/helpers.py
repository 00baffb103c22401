"""Shared test utilities: dense-matrix forward models, stacked oracles, and
reference implementations of Newton-CG's CGNE loop and of the step policy."""

from __future__ import annotations

import numpy as np

from iterreg.krylov import RitzPair
from iterreg.operators import ContractError, ForwardModel, TikhonovSystem
from iterreg.solvers import (GRAM_ESTIMATE_STEPS, UPDATE_AGE_MIN,
                             UPDATE_INNER_MIN)
from iterreg.testbed import two_bump_profile


def ritz_pair(theta, vector, residual_bound):
    """A RitzPair holding a given vector."""
    return RitzPair(theta, lambda: vector, residual_bound)


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


def explode_from_evaluation(model, call):
    """Copy of ``model`` whose evaluations from the ``call``-th on return
    1e100 in every entry: finite, but far past any starting residual."""
    count = 0

    def evaluate(x):
        nonlocal count
        count += 1
        out = model.evaluate(x)
        return np.full_like(out, 1e100) if count >= call else out

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


def householder_loop(vectors, drop_tol=1e-12):
    """Reference basis growth, one reflector at a time: ``(q, pnorm)`` or
    ``(None, pnorm)`` per input, as ``GramSchmidtBasis.add`` returns."""
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


def phi_sampled_loop(precond, samples, gamma):
    """Reference sampled Phi, one sample and one pair at a time: the RMS
    over the rows eps of ``samples`` of ||sum_j c_j <w_j, eps> u_j||, with
    c_j = sqrt(lambda_j)/(gamma + lambda_j)."""
    acc = 0.0
    for eps in samples:
        out = np.zeros(precond.dim)
        for j in range(precond.pair_count):
            lam = precond.lambdas[j]
            coeff = float(precond.left_vectors[:, j] @ eps)
            out += (np.sqrt(lam) / (gamma + lam)) * coeff * precond.vectors[:, j]
        acc += float(np.linalg.norm(out) ** 2)
    return float(np.sqrt(acc / len(samples)))


# Reference implementation: Newton-CG's CGNE loop as it stood before its
# in-place rewrite (fresh arrays on every update, np.linalg.norm, and the
# adjoint computed after its last iteration too). The package must
# reproduce its iterates bit for bit.


def truncated_cgne_reference(jac, b_vec, rho, max_iterations):
    """``solvers._truncated_cgne`` as it stood before the rewrite: one
    adjoint apply more than the package for a solve that iterates."""
    target = rho * np.linalg.norm(b_vec)
    h = np.zeros(jac.domain_dim)
    d = b_vec.copy()
    r = jac.apply_adjoint(d)
    rho_c = float(r @ r)
    p = r.copy()
    iterations = 0
    while np.linalg.norm(d) > target and rho_c > 0.0:
        if iterations >= max_iterations:
            return h, iterations, True
        q = jac.apply(p)
        qq = float(q @ q)
        if qq == 0.0 or not np.isfinite(qq):
            break
        a = rho_c / qq
        h = h + a * p
        d = d - a * q
        r = jac.apply_adjoint(d)
        rho_new = float(r @ r)
        p = r + (rho_new / rho_c) * p
        rho_c = rho_new
        iterations += 1
    return h, iterations, False


# Each of the GRAM_ESTIMATE_STEPS Lanczos steps of
# ``solvers.estimate_gram_norm`` costs one Jacobian and one adjoint apply
# but the last, which skips the adjoint, so a run that estimates mu, or
# gamma0 from a random start, spends GRAM_ESTIMATE_UNITS =
# 2 * GRAM_ESTIMATE_STEPS - 1 model units on it that no solve reuses.
GRAM_ESTIMATE_UNITS = 2 * GRAM_ESTIMATE_STEPS - 1


def power_gram_norm_reference(jac, iterations, seed=0):
    """The power-iteration estimate of ||A^T A|| that ``estimate_gram_norm``
    replaced: ``iterations`` steps from its seeded start vector, returning
    the Rayleigh quotient of the last iterate, which lies in the Krylov
    space of as many Lanczos steps."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(jac.domain_dim)
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iterations):
        w = jac.apply_adjoint(jac.apply(v))
        value = float(v @ w)
        v = w / np.linalg.norm(w)
    return value


# Reference implementations of the per-call bookkeeping as it stood before
# it was trimmed: the per-entry finiteness test of as_vector, preconditioner
# weights formed on every apply, the stacked apply through np.concatenate,
# every Ritz vector formed eagerly, and the convolution symbol multiplied
# out of place. The package must match them bit for bit.


def as_vector_reference(x, dim=None, name="vector"):
    """``operators.as_vector`` with the per-entry ``isfinite`` test only."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ContractError(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not np.logical_and.reduce(np.isfinite(v)):
        raise ContractError(f"{name} contains non-finite entries")
    return v


def shifted_apply_reference(precond, x, inv_sqrt=False):
    """M^{-1} x (or M^{-1/2} x) with the weights formed on this call."""
    gamma, lam, u = precond.gamma, precond.lambdas, precond.vectors
    if inv_sqrt:
        g = np.sqrt(gamma)
        base, weights = 1.0 / g, 1.0 / np.sqrt(lam + gamma) - 1.0 / g
    else:
        base, weights = 1.0 / gamma, 1.0 / (lam + gamma) - 1.0 / gamma
    x = as_vector_reference(x, precond.dim, "input")
    if lam.shape[0] == 0:
        return base * x
    coeff = u.T @ x
    return base * x + u @ (weights * coeff)


def stacked_apply_reference(sys, v):
    """G v = (A v; sqrt(gamma) v) joined by np.concatenate."""
    return np.concatenate([sys.jac.apply(v), np.sqrt(sys.gamma) * v])


def ritz_vectors_reference(trace):
    """Every Ritz vector Q w_i of ``trace``, by descending theta, formed at
    once from the dense T_l of its Lanczos data."""
    off = trace.offdiag[:trace.iterations - 1]
    _, vecs = np.linalg.eigh(
        np.diag(trace.diag) + np.diag(off, -1) + np.diag(off, 1))
    return [vecs[:, i] @ trace.basis
            for i in range(trace.iterations - 1, -1, -1)]


def convolution_apply_reference(n, kernel_width, x):
    """The periodic Gaussian convolution of ``testbed`` with the symbol
    multiplied out of place, built as make_convolution_problem builds it."""
    idx = np.arange(n)
    dist = np.minimum(idx, n - idx) / n
    kernel = np.exp(-0.5 * (dist / kernel_width) ** 2)
    kernel /= kernel.sum()
    symbol = np.fft.rfft(kernel).real
    symbol = np.maximum(symbol, 1e-14 * symbol.max())
    return np.fft.irfft(np.fft.rfft(x) * symbol, n)


def diagonal_problem_reference(m, n, decay_a=0.25, scale=1.0, seed=0):
    """(matrix, truth) of ``testbed.make_diagonal_problem`` built as it
    stood before its in-place rewrite: the full (n, n) Gaussian draw, an
    out-of-place sign fix, sigma scaling and cosine basis."""
    rng = np.random.default_rng(seed)
    sigma = scale * np.exp(-decay_a * np.arange(m))
    sigma = np.maximum(sigma, 1e-14 * sigma[0])
    t = np.arange(m) + 0.5
    u = np.cos(np.pi * np.outer(t, np.arange(m)) / m)
    u[:, 0] *= np.sqrt(1.0 / m)
    u[:, 1:] *= np.sqrt(2.0 / m)
    q, r = np.linalg.qr(rng.standard_normal((n, n))[:, :m])
    v = q * np.sign(np.diag(r))
    return (v * sigma) @ u.T, two_bump_profile(m)


def should_recompute(k, m, stale, variant):
    """Reference rebuild test of irgnm-prec and the frozen ablation:
    square-number schedule, rebuild when sqrt(k+1) >= sqrt(m+1) + 1 and,
    unless the variant is "frozen", the frozen Jacobian is stale; k = 0
    builds."""
    if k == 0:
        return True
    if k < m:
        raise ContractError("Newton index precedes the linearization point")
    d = k - m - 1  # sqrt(k+1) >= sqrt(m+1) + 1 in exact integer arithmetic
    due = d >= 0 and d * d >= 4 * (m + 1)
    return due and (variant == "frozen" or stale)


def must_update(k, last_build_step, prev_inner_iterations):
    """Reference update test of irgnm-prec: incremental update once the
    last build is stale and steps got expensive."""
    if k < last_build_step:
        raise ContractError("Newton index precedes the last build")
    return (k - last_build_step) >= UPDATE_AGE_MIN \
        and prev_inner_iterations > UPDATE_INNER_MIN
