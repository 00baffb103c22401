"""Conjugate gradients on regularized normal equations, with Lanczos extraction.

Solves G^T G h = G^T g for a stacked Tikhonov operator G accessed only through
apply/adjoint calls, optionally left-preconditioned. Unpreconditioned runs
reorthogonalize every residual by Gram-Schmidt against the rows of one
stored basis, with a second pass only when the first removed most of the
residual, so each new vector costs two or four matrix-vector products; the
stored rows are the Lanczos basis, and the CG coefficients double as a
Lanczos tridiagonalization of the normal operator, from which Ritz pairs
are extracted together with an exact residual bound
||G^T G (Z w_i) - theta_i (Z w_i)|| = (sqrt(beta_l)/alpha_l) |w_i(l)|.
``select_ritz`` keeps the pairs with theta >= RITZ_SEPARATION = 1.1 and a
residual bound <= RITZ_RESIDUAL_TOL = 1e-6 times theta.
``trace_from_lanczos`` gives the trace of a CG run from Lanczos data of the
same Krylov space.

The loops update in place only arrays they allocated themselves (the
iterate, the residual, the search direction, the basis and the vector it
projects); an array a caller passes in or a model or preconditioner call
returns is never written. Norms of vectors are sqrt(v.dot(v)) and inner
products v.dot(w), the same ddot that np.linalg.norm and v @ w run, without
their Python-level dispatch, or np.vdot where they may overflow, which sets
off no warning; a vector that may be strided is first raveled, as
np.linalg.norm does, since a strided ddot rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .operators import ContractError, as_vector

_SQRT_HALF = math.sqrt(0.5)
RITZ_SEPARATION = 1.1
RITZ_RESIDUAL_TOL = 1e-6


class CgBreakdownError(RuntimeError):
    """CG lost positive definiteness or produced a non-finite coefficient.

    Carries the partial trace, whose iteration count a run records.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class CgTrace:
    """Per-solve ledger: CG coefficients, Lanczos basis, and residual norms.

    ``alphas`` holds alpha_1..alpha_l and ``betas`` holds beta_1..beta_{l-1};
    the stray beta_l of the last iteration only enters
    ``final_beta_over_alpha`` = sqrt(beta_l)/alpha_l, the scale of the Ritz
    residual bounds. ``z_basis`` is the (l, dim) block whose rows are the
    normalized residuals z~^0..z~^{l-1} of an unpreconditioned solve, kept
    orthonormal by Gram-Schmidt reorthogonalization; it is None for
    left-preconditioned solves, which are not reorthogonalized and yield no
    Ritz pairs.
    """

    alphas: list
    betas: list
    z_basis: np.ndarray | None
    final_beta_over_alpha: float
    iterations: int
    converged: bool
    residual_norms: list


class GramSchmidtBasis:
    """Orthonormal basis grown one vector at a time by Gram-Schmidt.

    Each input x is projected as w = x - Q^T (Q x), Q holding the basis
    vectors as rows, and once more when that first pass leaves
    ||w|| < ||x||/sqrt(2), the test of Daniel, Gragg, Kaufman & Stewart
    (Math. Comp. 30, 1976); two passes keep the basis orthonormal to
    working precision (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50,
    2005). Q has ``min(dim, capacity)`` rows, allocated unfilled; ``add``
    fills each row, and ``rows`` is the filled block.
    """

    def __init__(self, dim, capacity):
        self.dim = int(dim)
        self.count = 0
        self._q = np.empty((min(self.dim, capacity), self.dim))

    @property
    def rows(self):
        return self._q[:self.count]

    def add(self, x, drop_tol=1e-12):
        """Extend the basis with the normalized complement of ``x``.

        Returns ``(q, pnorm)`` where q, the new row of the basis, is the
        unit vector aligned with the complement of x and pnorm its
        unnormalized length, or ``(None, pnorm)`` when x is numerically
        dependent on the basis (``pnorm <= drop_tol * ||x||``) or the space
        is exhausted. An x whose ||x||^2 overflows raises a ContractError.
        """
        x = np.asarray(x, dtype=float)
        flat = x.ravel(order="K")  # as np.linalg.norm copies a strided x
        xnorm = math.sqrt(np.vdot(flat, flat))  # vdot: no overflow warning
        if not math.isfinite(xnorm):
            raise ContractError("||x||^2 exceeds the float range")
        k = self.count
        if xnorm == 0.0 or k >= self.dim:
            return None, 0.0
        q = self._q[:k]
        w = x - (q @ x) @ q  # a fresh array
        pnorm = math.sqrt(w.dot(w))
        if pnorm < _SQRT_HALF * xnorm:
            w -= (q @ w) @ q
            pnorm = math.sqrt(w.dot(w))
        if pnorm <= drop_tol * xnorm:
            return None, pnorm
        row = self._q[k]
        np.divide(w, pnorm, out=row)
        self.count = k + 1
        return row, pnorm


# The benchmark's tracer binds krylov.HouseholderBasis.add; the alias goes
# when the benchmark is refreshed to bind GramSchmidtBasis.add.
HouseholderBasis = GramSchmidtBasis


def reorthogonalize_indexed(vectors, drop_tol=1e-12):
    """Gram-Schmidt orthonormalization, reporting which inputs survived.

    Returns ``(kept, indices)``: a (dim, r) array whose orthonormal columns
    span the input space (the transposed rows of the basis they fill), and
    the positions of the r inputs that contributed them. Vectors whose
    component orthogonal to the preceding ones falls below
    ``drop_tol * ||vector||`` are dropped.
    """
    if len(vectors) == 0:
        raise ContractError("cannot orthonormalize an empty vector set")
    dim = as_vector(vectors[0], name="basis vector").shape[0]
    vectors = [as_vector(v, dim, "basis vector") for v in vectors]
    if all(np.linalg.norm(v) == 0.0 for v in vectors):
        raise ContractError("cannot orthonormalize an all-zero vector set")
    basis = GramSchmidtBasis(dim, len(vectors))
    indices = [i for i, v in enumerate(vectors)
               if basis.add(v, drop_tol=drop_tol)[0] is not None]
    return basis.rows.T, indices


def tridiagonal_from_trace(trace: CgTrace):
    """Assemble the symmetric tridiagonal Lanczos matrix T_l as (diag, offdiag):
    diag = (1/a_1, 1/a_{j+1} + b_j/a_j), offdiag = -sqrt(b_j)/a_j."""
    if trace.iterations < 1:
        raise ContractError("trace holds no completed CG iterations")
    a = np.asarray(trace.alphas, dtype=float)
    b = np.asarray(trace.betas, dtype=float)
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    offdiag = -np.sqrt(b) / a[:-1]
    return diag, offdiag


def trace_from_lanczos(diag, offdiag, rows, shift, scale, start_norm,
                       converged):
    """The CgTrace of CG on a normal operator S = (B + shift I)/scale, from
    l Lanczos steps on B.

    ``diag`` (a_1..a_l), ``offdiag`` (b_1..b_l) and the basis ``rows``
    (q_1..q_l) come from Lanczos on a symmetric B from a start vector of norm
    ``start_norm``; b_l is the norm that continues the run, 0 once its
    Krylov space is exhausted. CG from r^0 = start / sqrt(scale) spans the
    same spaces. Inverting the recurrence of ``tridiagonal_from_trace``
    through the pivots d_j of T_l + shift I = L D L^T (d_1 = a_1 + shift,
    d_{j+1} = a_{j+1} + shift - b_j^2/d_j) gives its coefficients
    alpha_j = scale/d_j and beta_j = (b_j/d_j)^2, its residual norms
    ||r^j|| = ||r^{j-1}|| b_j/d_j, its basis rows (-1)^j q_{j+1} and
    sqrt(beta_l)/alpha_l = b_l/scale.
    """
    l = len(diag)
    pivots = np.empty(l)
    for j in range(l):
        pivots[j] = diag[j] + shift \
            - (offdiag[j - 1] ** 2 / pivots[j - 1] if j else 0.0)
    ratios = np.asarray(offdiag, dtype=float) / pivots
    norms = start_norm / math.sqrt(scale) * np.cumprod(np.append(1.0, ratios))
    signs = np.where(np.arange(l) % 2, -1.0, 1.0)
    return CgTrace(
        alphas=(scale / pivots).tolist(), betas=(ratios[:-1] ** 2).tolist(),
        z_basis=rows * signs[:, None],
        final_beta_over_alpha=float(offdiag[l - 1] / scale) if l else 0.0,
        iterations=l, converged=converged, residual_norms=norms.tolist())


@dataclass
class RitzPair:
    """Approximate eigenpair of the (preconditioned) normal operator.

    ``residual_bound`` is the exact value of ||G^T G (Z w) - theta (Z w)||
    when the basis is Euclidean-orthonormal (identity preconditioner).
    ``vector`` is ``form_vector()``, called on the first read and kept.
    """

    theta: float
    form_vector: Callable[[], np.ndarray] = field(repr=False)
    residual_bound: float

    @cached_property
    def vector(self):
        return self.form_vector()


def ritz_from_trace(trace: CgTrace):
    """Ritz pairs of the normal operator from a Lanczos-collecting CG run.

    Returns every pair, sorted by descending theta. Requires the trace to
    carry the z basis; raises a diagnostic error when T_l fails to be
    positive definite, which signals lost orthogonality. A pair's Ritz
    vector Z w_i (``w_i @ trace.z_basis``, Z having the basis rows as its
    columns) is formed on the first read of its ``vector``, so the pairs a
    selection drops cost no product with Z. A solve that ended on a residual
    dependent on its basis has no Lanczos residual, so each bound is the
    drift of the Lanczos relation, eps ||r_0|| / ||r_{l-1}|| theta_max.
    """
    if trace.z_basis is None or len(trace.z_basis) != trace.iterations:
        raise ContractError("trace was collected without a complete Lanczos basis")
    diag, offdiag = tridiagonal_from_trace(trace)
    theta, vecs = np.linalg.eigh(
        np.diag(diag) + np.diag(offdiag, -1) + np.diag(offdiag, 1))
    if theta[0] <= 0.0:
        raise ContractError(
            "tridiagonal matrix is not positive definite; "
            "orthogonality was lost during CG"
        )
    l = trace.iterations
    bounds = trace.final_beta_over_alpha * np.abs(vecs[l - 1])
    if trace.final_beta_over_alpha == 0.0:
        norms = trace.residual_norms
        bounds[:] = np.finfo(float).eps * norms[0] / norms[l - 1] * theta[-1]
    return [RitzPair(float(theta[i]),
                     partial(np.matmul, vecs[:, i], trace.z_basis),
                     float(bounds[i]))
            for i in range(l - 1, -1, -1)]


def select_ritz(pairs):
    """Keep pairs separated from the cluster at 1 and converged tightly enough.

    A pair survives iff ``theta >= RITZ_SEPARATION`` and
    ``residual_bound <= RITZ_RESIDUAL_TOL * theta``. Order is preserved.
    """
    return [p for p in pairs if p.theta >= RITZ_SEPARATION
            and p.residual_bound <= RITZ_RESIDUAL_TOL * p.theta]


def pcg_solve(sys, precond=None, epsilon=1.0 / 3.0, max_iterations=200):
    """Preconditioned CG on the normal equations G^T G h = G^T g.

    Parameters
    ----------
    sys : stacked system
        Provides ``apply``, ``apply_adjoint``, ``stacked_rhs``, ``domain_dim``
        and ``stop_scale`` (a lower bound of the spectrum of G^T G; the
        Tikhonov system exposes gamma).
    precond : SpectralPreconditioner or None
        Applied from the left through its ``apply_inverse``. ``None`` runs
        plain CGNE; symmetric two-sided preconditioning is achieved by
        wrapping ``sys`` instead, which keeps reorthogonalization Euclidean.
    epsilon : float in (0, 1)
        Enters the stop test below; when ``stop_scale`` is a lower bound for
        the spectrum of G^T G this guarantees relative accuracy
        ``epsilon/(1-epsilon)`` against the exact solution.
    max_iterations : int >= 1
        Caps the solve.

    Returns
    -------
    (h, trace) : solution estimate and a CgTrace. Hitting the iteration cap
    flags ``trace.converged = False`` instead of raising; genuine breakdowns
    raise ``CgBreakdownError`` carrying the partial trace.

    Notes
    -----
    The loop runs while ``||r^l|| > epsilon * stop_scale * ||h^l||``; with
    h^0 = 0 the first iteration always executes. Without ``precond`` each
    residual is replaced by its component orthogonal to the earlier ones,
    taken from a Gram-Schmidt basis whose rows, the z~ vectors, stay
    orthonormal to working precision; a residual dependent on them ends the
    solve as converged.
    Left-preconditioned runs use z = M^{-1} r as is and store no basis.
    """
    if not 0.0 < epsilon < 1.0:
        raise ContractError(f"epsilon must lie in (0, 1), got {epsilon}")
    if max_iterations < 1:
        raise ContractError("max_iterations must be at least 1")
    g = sys.stacked_rhs()
    m_dim = sys.domain_dim
    stop_scale = float(sys.stop_scale)

    alphas, betas_all = [], []
    residual_norms = []
    # a vector for r^0 and one per iteration
    basis = GramSchmidtBasis(m_dim, max_iterations + 1) \
        if precond is None else None

    def precondition(r):
        """Return (z, <r, z>, ||r||); without a preconditioner r is first
        cut to its component orthogonal to the earlier residuals."""
        if basis is None:
            flat = r.ravel(order="K")  # as np.linalg.norm copies a strided r
            rr = np.vdot(flat, flat)  # vdot: no overflow warning
            if not math.isfinite(rr):
                raise ContractError("||x||^2 exceeds the float range")
            z = precond.apply_inverse(r)
            return z, float(np.vdot(r, z)), math.sqrt(rr)
        q, pnorm = basis.add(r)
        if q is None:
            return np.zeros(m_dim), 0.0, 0.0
        rho = pnorm * pnorm
        return pnorm * q, rho, math.sqrt(rho)

    def finalize(converged):
        if alphas:
            fba = float(np.sqrt(max(betas_all[-1], 0.0)) / alphas[-1])
        else:
            fba = 0.0
        return CgTrace(
            alphas=list(alphas), betas=betas_all[:-1],
            z_basis=None if basis is None else basis.rows[:len(alphas)],
            final_beta_over_alpha=fba, iterations=len(alphas),
            converged=converged, residual_norms=list(residual_norms),
        )

    h = np.zeros(m_dim)
    d = g.copy()
    z, rho, r_norm = precondition(sys.apply_adjoint(d))
    residual_norms.append(r_norm)
    if r_norm == 0.0:
        return h, finalize(True)
    if not math.isfinite(rho) or rho <= 0.0:
        raise CgBreakdownError(
            f"initial <r, z> = {rho} is not positive; preconditioner is not SPD",
            trace=finalize(False))

    p = z.copy()
    h_norm = 0.0
    converged = False

    while True:
        if r_norm <= epsilon * stop_scale * h_norm:
            converged = True
            break
        if len(alphas) >= max_iterations:
            converged = False
            break

        q = sys.apply(p)
        # np.vdot runs the same ddot as q @ q but sets off no overflow
        # warning; an overflowing ||G p||^2 is the breakdown below
        qq = float(np.vdot(q, q))
        if qq == 0.0 or not math.isfinite(qq):
            raise CgBreakdownError(
                "search direction collapsed: ||G p||^2 = " + repr(qq),
                trace=finalize(False))
        alpha = rho / qq
        if not (0.0 < alpha < 1e16):
            raise CgBreakdownError(
                f"CG coefficient alpha = {alpha} outside (0, 1e16)",
                trace=finalize(False))
        h += alpha * p
        d -= alpha * q
        z, rho_new, r_norm = precondition(sys.apply_adjoint(d))
        if not math.isfinite(rho_new) or rho_new < 0.0:
            raise CgBreakdownError(f"<r, z> = {rho_new} lost positivity",
                                   trace=finalize(False))

        beta = rho_new / rho
        alphas.append(alpha)
        betas_all.append(beta)
        rho = rho_new
        h_norm = math.sqrt(h.dot(h))
        p *= beta
        p += z

        residual_norms.append(r_norm)
        if rho == 0.0:
            converged = True
            break

    return h, finalize(converged)
