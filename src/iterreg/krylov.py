"""Conjugate gradients on regularized normal equations, with Lanczos extraction.

Solves G^T G h = G^T g for a stacked Tikhonov operator G accessed only through
apply/adjoint calls, optionally left-preconditioned. One Lanczos loop
(``Lanczos``) runs every reorthogonalized solve: the gamma0 estimate of an
irgnm run and the k = 0 solve that continues it, the accurate two-sided
solves of the preconditioner builds, and the unpreconditioned Plain steps,
which reach it through ``pcg_solve``. It tridiagonalizes the normal operator
B = op^T op into T_l over a basis kept orthonormal by Gram-Schmidt, with a
second pass only when the first removed most of the vector, so each step
costs two matrix-vector products, and solves (B + shift I) h = b as CG does
through the LDL^T factors of T_l + shift I (D-Lanczos); one basis serves any
shift (Saad, Yeung, Erhel & Guyomarc'h, SIAM J. Sci. Comput. 21, 2000). The
Ritz pairs of T_l come with a residual bound
||B (Q w_i) - theta_i (Q w_i)|| <= b_l |w_i(l)| + RITZ_ROUNDING eps theta_max,
RITZ_ROUNDING = 32. ``select_ritz`` keeps the pairs with theta >=
RITZ_SEPARATION = 1.1 and a residual bound <= RITZ_RESIDUAL_TOL = 1e-6 times
theta. Left-preconditioned solves run plain PCG and store no basis.

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
RITZ_ROUNDING = 32


class CgBreakdownError(RuntimeError):
    """CG lost positive definiteness or produced a non-finite coefficient.

    Carries the partial trace, whose iteration count a run records.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class CgTrace:
    """Per-solve ledger: Lanczos matrix, Lanczos basis, and residual norms.

    ``diag`` holds a_1..a_l and ``offdiag`` b_1..b_l of the Lanczos run of
    a solve of l iterations (see ``Lanczos``): T_l has the diagonal a and
    the off-diagonal b_1..b_{l-1}, and b_l scales the Ritz residual bounds.
    ``basis`` is the (l, dim) block of the orthonormal Lanczos vectors
    q_1..q_l. Left-preconditioned solves run no Lanczos loop and carry None
    in all three fields, so they yield no Ritz pairs.
    """

    diag: np.ndarray | None
    offdiag: np.ndarray | None
    basis: np.ndarray | None
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


class Lanczos:
    """Lanczos tridiagonalization of B = op^T op from a start vector b, the
    one loop behind every reorthogonalized solve.

    ``op`` is any object with ``apply``, ``apply_adjoint`` and
    ``domain_dim``: a Jacobian handle, a Tikhonov system or its two-sided
    form. The basis q_1, q_2, ... is kept orthonormal in a GramSchmidtBasis
    of ``capacity`` rows. ``diag`` holds a_j = ||op q_j||^2 and ``offdiag``
    b_j, the length of the component of B q_j orthogonal to q_1..q_j, which
    normalized is q_{j+1} unless it is dependent on the basis: then the
    Krylov space is exhausted, and b_j is the length the basis dropped.
    ``grow`` adds a_{j+1} for one apply, after the adjoint apply that b_j
    waits for, so a run read after j steps has cost 2j - 1 units past the
    start vector. ``solve`` continues the run as CG on (B + shift I) h = b.
    """

    def __init__(self, op, start, capacity):
        self.op = op
        self.basis = GramSchmidtBasis(op.domain_dim, capacity)
        self._q, self.start_norm = self.basis.add(start)
        self._image = None  # op q_j while b_j waits for its adjoint apply
        self.diag, self.offdiag = [], []

    def _close(self):
        """Add b_j for the last a_j, unless it is there."""
        if self._image is not None:
            self._q, b = self.basis.add(self.op.apply_adjoint(self._image))
            self.offdiag.append(b)
            self._image = None

    def grow(self):
        """Add a step; False, and no apply, once the Krylov space is
        exhausted. An ||op q||^2 that overflows raises a ContractError."""
        self._close()
        if self._q is None:
            return False
        self._image = self.op.apply(self._q)
        a = float(np.vdot(self._image, self._image))  # no overflow warning
        if not math.isfinite(a):
            raise ContractError("||A^T A|| exceeds the float range")
        self.diag.append(a)
        return True

    def grow_to(self, steps):
        """Grow to min(steps, dim) steps unless the space is exhausted first;
        return whether it was."""
        steps = min(steps, self.op.domain_dim)
        while len(self.diag) < steps and self.grow():
            pass
        return len(self.diag) < steps

    def theta_max(self):
        """The largest eigenvalue of T_j, refused unless positive."""
        j = len(self.diag)
        # eigvalsh reads the lower triangle of T_j, which holds j - 1 b's
        theta = float(np.linalg.eigvalsh(
            np.diag(self.diag) + np.diag(self.offdiag[:j - 1], -1))[-1])
        if not theta > 0.0:
            raise ContractError(
                "A^T A vanishes on the start vector: no estimate of ||A^T A||")
        return theta

    def solve(self, shift, tol, max_iterations, scale=1.0):
        """Continue the run as CG on (B + shift I) h = b (D-Lanczos, Saad,
        Iterative Methods for Sparse Linear Systems, 2nd ed., 6.7.1).

        Step l factors T_l + shift I = L D L^T by its pivots d_1 = a_1 +
        shift, d_{j+1} = a_{j+1} + shift - b_j l_j with l_j = b_j/d_j, and
        adds (zeta_l/d_l) p_l to the Galerkin iterate h_l = ||b|| Q_l
        (T_l + shift I)^{-1} e_1, where zeta_1 = ||b||, zeta_{j+1} =
        -l_j zeta_j, p_1 = q_1 and p_{j+1} = q_{j+1} - l_j p_j. Its residual
        norm is ||r_l|| = b_l |zeta_l/d_l|, and the solve ends once that is
        at most tol ||h_l|| (an exhausted space ends it too), or after
        ``max_iterations`` steps unconverged. Each step costs O(dim) past
        its two model calls. A pivot that is not positive raises a
        CgBreakdownError carrying the trace so far.

        Returns (h, trace): h solves the system above, and the trace is that
        of CG on (B + shift I)/scale from b/sqrt(scale), whose T_l is
        (T_l + shift I)/scale over the same basis.
        """
        h, p = np.zeros(self.op.domain_dim), np.zeros(self.op.domain_dim)
        zeta, norms = self.start_norm, [self.start_norm]
        l, b, ratio = 0, 0.0, 0.0
        converged = zeta == 0.0

        def trace(converged):
            return CgTrace(
                diag=(np.array(self.diag[:l]) + shift) / scale,
                offdiag=np.array(self.offdiag[:l]) / scale,
                basis=self.basis.rows[:l], iterations=l, converged=converged,
                residual_norms=[n / math.sqrt(scale) for n in norms])

        while not converged and l < max_iterations:
            if len(self.diag) == l:
                self.grow()
            if len(self.offdiag) == l:
                self._close()
            d = self.diag[l] + shift - b * ratio
            if not d > 0.0:
                raise CgBreakdownError(
                    f"pivot d_{l + 1} = {d} of T_l + shift I is not positive",
                    trace=trace(False))
            p *= -ratio
            p += self.basis.rows[l]
            h += (zeta / d) * p
            b = self.offdiag[l]
            norms.append(b * abs(zeta / d))
            ratio = b / d
            zeta *= -ratio
            l += 1
            converged = self.basis.count == l \
                or norms[-1] <= tol * math.sqrt(h.dot(h))
        return h, trace(converged)


@dataclass
class RitzPair:
    """Approximate eigenpair of the (preconditioned) normal operator.

    ``residual_bound`` bounds ||B (Q w) - theta (Q w)|| for the normal
    operator B of the Lanczos run whose basis Q yielded the pair (see
    ``ritz_from_trace``).
    ``vector`` is ``form_vector()``, called on the first read and kept.
    """

    theta: float
    form_vector: Callable[[], np.ndarray] = field(repr=False)
    residual_bound: float

    @cached_property
    def vector(self):
        return self.form_vector()


def ritz_from_trace(trace: CgTrace):
    """Ritz pairs of the normal operator from the Lanczos data of a solve.

    Returns every pair, sorted by descending theta. Requires the trace to
    carry its Lanczos basis; raises a diagnostic error when T_l fails to be
    positive definite, which signals lost orthogonality. A pair's Ritz
    vector Q w_i (``w_i @ trace.basis``, Q having the basis rows as its
    columns) is formed on the first read of its ``vector``, so the pairs a
    selection drops cost no product with Q. Its residual bound is
    b_l |e_l^T w_i| + RITZ_ROUNDING eps theta_max: the Lanczos residual,
    plus the rounding of the Lanczos relation, of the eigenvectors of T_l
    and of forming Q w_i, which the reorthogonalized run keeps at a small
    multiple of eps ||B|| however far its residual falls (at most 5 eps
    theta_max in random Recompute solves), and which alone remains once
    the Krylov space is exhausted. It bounds the residual against B as
    applied; a two-sided operator formed densely through M^{-1/2} differs
    from it by the rounding of M^{-1/2}, up to eps ||G^T G|| / gamma.
    """
    l = trace.iterations
    if trace.basis is None or l < 1:
        raise ContractError("trace holds no Lanczos basis to extract from")
    off = trace.offdiag[:l - 1]
    theta, vecs = np.linalg.eigh(
        np.diag(trace.diag) + np.diag(off, -1) + np.diag(off, 1))
    if theta[0] <= 0.0:
        raise ContractError(
            "tridiagonal matrix is not positive definite; "
            "orthogonality was lost during CG"
        )
    bounds = trace.offdiag[l - 1] * np.abs(vecs[l - 1]) \
        + RITZ_ROUNDING * np.finfo(float).eps * theta[-1]
    return [RitzPair(float(theta[i]),
                     partial(np.matmul, vecs[:, i], trace.basis),
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
        the reorthogonalized Lanczos loop; symmetric two-sided
        preconditioning is achieved by wrapping ``sys`` instead, which keeps
        reorthogonalization Euclidean.
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
    h^0 = 0 the first iteration always executes, and a solve of l
    iterations costs 1 + 2l model units. Without ``precond`` it is one call
    of ``Lanczos.solve`` on ``sys`` at shift 0, from r^0 = G^T g: each
    Lanczos vector is the component of G^T G q orthogonal to the earlier
    ones, taken from a Gram-Schmidt basis that stays orthonormal to working
    precision, and a dependent one ends the solve as converged.
    Left-preconditioned runs are plain PCG: they use z = M^{-1} r as is and
    store no basis.
    """
    if not 0.0 < epsilon < 1.0:
        raise ContractError(f"epsilon must lie in (0, 1), got {epsilon}")
    if max_iterations < 1:
        raise ContractError("max_iterations must be at least 1")
    g = sys.stacked_rhs()
    tol = epsilon * float(sys.stop_scale)
    if precond is None:
        # a row for r^0 and one per iteration
        return Lanczos(sys, sys.apply_adjoint(g), max_iterations + 1) \
            .solve(0.0, tol, max_iterations)

    norms, iterations = [], 0

    def precondition(r):
        """(z, <r, z>) for z = M^{-1} r; ||r|| joins the residual norms."""
        flat = r.ravel(order="K")  # as np.linalg.norm copies a strided r
        rr = np.vdot(flat, flat)  # vdot: no overflow warning
        if not math.isfinite(rr):
            raise ContractError("||x||^2 exceeds the float range")
        norms.append(math.sqrt(rr))
        z = precond.apply_inverse(r)
        return z, float(np.vdot(r, z))

    def breakdown(message):
        return CgBreakdownError(message, trace=CgTrace(
            None, None, None, iterations, False, list(norms)))

    h = np.zeros(sys.domain_dim)
    d = g.copy()
    z, rho = precondition(sys.apply_adjoint(d))
    if norms[0] and not 0.0 < rho < math.inf:
        raise breakdown(f"initial <r, z> = {rho} is not positive; "
                        "preconditioner is not SPD")
    p = z.copy()
    h_norm = 0.0
    while norms[-1] > tol * h_norm and rho != 0.0:
        if iterations >= max_iterations:
            return h, CgTrace(None, None, None, iterations, False, norms)
        q = sys.apply(p)
        # np.vdot runs the same ddot as q @ q but sets off no overflow
        # warning; an overflowing ||G p||^2 is the breakdown below
        qq = float(np.vdot(q, q))
        if qq == 0.0 or not math.isfinite(qq):
            raise breakdown(f"search direction collapsed: ||G p||^2 = {qq!r}")
        alpha = rho / qq
        if not 0.0 < alpha < 1e16:
            raise breakdown(f"CG coefficient alpha = {alpha} outside (0, 1e16)")
        h += alpha * p
        d -= alpha * q
        z, rho_new = precondition(sys.apply_adjoint(d))
        if not 0.0 <= rho_new < math.inf:
            raise breakdown(f"<r, z> = {rho_new} lost positivity")
        p *= rho_new / rho
        p += z
        rho = rho_new
        iterations += 1
        h_norm = math.sqrt(h.dot(h))
    return h, CgTrace(None, None, None, iterations, True, norms)
