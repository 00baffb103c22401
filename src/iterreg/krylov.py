"""Conjugate gradients on regularized normal equations, with Lanczos extraction.

Solves G^T G h = G^T g for a stacked Tikhonov operator G accessed only through
apply/adjoint calls, optionally preconditioned. One Lanczos loop
(``Lanczos``) runs every Tikhonov solve: the gamma0 estimate of an irgnm run,
every solve over the empty pair set, on the Jacobian at shift gamma_k (at
k = 0 continuing the estimate's run), and, through ``pcg_solve``, the
solves over pairs: two-sided for a build, preconditioned for a Plain
step. It tridiagonalizes the normal operator B = op^T op into T_l
over a basis kept orthonormal by Gram-Schmidt, with a second pass only when
the first removed most of the vector, so each step costs two matrix-vector
products, and solves (B + shift I) h = b as CG does through the LDL^T
factors of T_l + shift I (D-Lanczos); one basis serves any shift (Saad,
Yeung, Erhel & Guyomarc'h, SIAM J. Sci. Comput. 21, 2000). Preconditioned,
it runs in the M-inner product, which is PCG (Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., 9.2). A pair set that carries its images
A^T A U gives ``pcg_solve`` a Galerkin start: the solution over span U,
whose residual the images give exactly at no model unit, is returned with
no iteration when it meets the stop test (the deflation of Saad et al.,
restricted to the captured pairs, as in recycling for shifted systems:
Kilmer & de Sturler, SIAM J. Sci. Comput. 27, 2006). The Ritz pairs of
T_l come with a residual bound
||B (Q w_i) - theta_i (Q w_i)|| <= b_l |w_i(l)| + RITZ_ROUNDING eps theta_max,
RITZ_ROUNDING = 32. ``select_ritz`` keeps the pairs with theta >=
RITZ_SEPARATION = 1.1 and a residual bound <= RITZ_RESIDUAL_TOL = 1e-6 times
theta.

The loops update in place only arrays they allocated themselves (the
iterate, the search direction, the basis and the vector it projects); an
array a caller passes in or a model or preconditioner call returns is never
written. Norms of vectors are sqrt(v.dot(v)) and inner products v.dot(w),
the same ddot that np.linalg.norm and v @ w run, without their Python-level
dispatch, or np.vdot where they may overflow, which sets off no warning; a
vector that may be strided is first raveled, as np.linalg.norm does, since a
strided ddot rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import ContractError, as_vector

_SQRT_HALF = math.sqrt(0.5)
RITZ_SEPARATION = 1.1
RITZ_RESIDUAL_TOL = 1e-6
RITZ_ROUNDING = 32


class CgBreakdownError(ContractError):
    """CG lost positive definiteness: a pivot of T_l + shift I, or the M of
    a preconditioned solve, is not positive. It carries only its message,
    which names the failing pivot or product."""


@dataclass
class CgTrace:
    """Per-solve ledger: Lanczos matrix and Lanczos basis.

    ``diag`` holds a_1..a_l and ``offdiag`` b_1..b_l of the Lanczos run of
    a solve of l iterations, shifted and scaled (see ``Lanczos.solve``):
    T_l has the diagonal a and the off-diagonal b_1..b_{l-1}, and b_l
    scales the Ritz residual bounds.
    ``basis`` is the (l, dim) block of the Lanczos vectors q_1..q_l,
    orthonormal, or M-orthonormal in a preconditioned solve.
    ``rhs_product`` is h^T b for the returned h and the right-hand side
    b = G^T g; a scaled or two-sided system, solved for h~ = c h from
    b~ = b/c, has the same h~^T b~.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    basis: np.ndarray
    iterations: int
    converged: bool
    rhs_product: float


class GramSchmidtBasis:
    """Orthonormal basis grown one vector at a time by Gram-Schmidt.

    Each input x is projected as w = x - Q^T (Q x), Q holding the basis
    vectors as rows, and once more when that first pass leaves
    ||w|| < ||x||/sqrt(2), the test of Daniel, Gragg, Kaufman & Stewart
    (Math. Comp. 30, 1976); two passes keep the basis orthonormal to
    working precision (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50,
    2005). Q starts with ``min(dim, capacity)`` rows, allocated unfilled,
    and doubles, up to ``dim`` rows, when ``add`` finds it full; ``rows``
    is the filled block.

    Given ``inverse``, x -> M^{-1} x for an SPD M, the rows of Q are
    M-orthonormal and the ``duals`` W = Q M, ||w_j|| in ``dual_norms``; an
    input x, such as a residual, is projected as w = x - W^T (Q x), M times
    the M-orthogonal projection of M^{-1} x, with the tests above on
    Euclidean norms. Without ``inverse`` W is Q, and each ||w_j|| is 1.
    """

    def __init__(self, dim, capacity, inverse=None):
        self.dim = int(dim)
        self.count = 0
        self.inverse = inverse
        self.dual_norms = []
        self._q = np.empty((min(self.dim, capacity), self.dim))
        self._dual = self._q if inverse is None else np.empty_like(self._q)

    @property
    def rows(self):
        return self._q[:self.count]

    def fill(self, rows):
        """Start an empty basis without ``inverse`` from orthonormal rows,
        taken as they are."""
        self._q[:len(rows)] = rows
        self.count = len(rows)
        self.dual_norms = [1.0] * self.count

    @property
    def duals(self):
        return self._dual[:self.count]

    def add(self, x, drop_tol=1e-12):
        """Extend the basis with the normalized complement of ``x``.

        Returns ``(q, pnorm)`` where q, the new row of the basis, is the
        unit vector aligned with the complement of x and pnorm its
        unnormalized length, or ``(None, pnorm)`` when x is numerically
        dependent on the basis (``pnorm <= drop_tol * ||x||``) or the space
        is exhausted. Given ``inverse``, q is M^{-1} w / pnorm with pnorm =
        sqrt(w^T M^{-1} w), a CgBreakdownError unless positive and finite.
        An x whose ||x||^2 overflows raises a ContractError.
        """
        x = np.asarray(x, dtype=float)
        flat = x.ravel(order="K")  # as np.linalg.norm copies a strided x
        xnorm = math.sqrt(np.vdot(flat, flat))  # vdot: no overflow warning
        if not math.isfinite(xnorm):
            raise ContractError("||x||^2 exceeds the float range")
        k = self.count
        if xnorm == 0.0 or k >= self.dim:
            return None, 0.0
        q, dual = self._q[:k], self._dual[:k]
        w = x - (q @ x) @ dual if k else x.copy()  # a fresh array
        pnorm = math.sqrt(w.dot(w))
        if pnorm < _SQRT_HALF * xnorm:
            w -= (q @ w) @ dual
            pnorm = math.sqrt(w.dot(w))
        if pnorm <= drop_tol * xnorm:
            return None, pnorm
        if k == len(self._q):  # full: double the rows, up to dim
            q = np.empty((min(self.dim, 2 * k), self.dim))
            q[:k] = self._q
            dual = q
            if self.inverse is not None:
                dual = np.empty_like(q)
                dual[:k] = self._dual
            self._q, self._dual = q, dual
        dual_norm = 1.0
        if self.inverse is not None:
            z = self.inverse(w)
            mm = float(np.vdot(w, z))  # vdot: no overflow warning
            if not 0.0 < mm < math.inf:
                raise CgBreakdownError(f"w^T M^-1 w = {mm} is not positive; "
                                       "preconditioner is not SPD")
            dual_norm, pnorm = pnorm / math.sqrt(mm), math.sqrt(mm)
            np.divide(w, pnorm, out=self._dual[k])
            w = z
        row = self._q[k]
        np.divide(w, pnorm, out=row)
        self.dual_norms.append(dual_norm)
        self.count = k + 1
        return row, pnorm


class RowBuffer:
    """Vectors of one length appended as the rows of one array, which
    doubles when full: n vectors cost one block, and ``rows`` reads them
    as a matrix without a copy."""

    def __init__(self, dim):
        self._rows = np.empty((8, int(dim)))
        self.count = 0

    @property
    def rows(self):
        return self._rows[:self.count]

    def append(self, x):
        if self.count == len(self._rows):
            grown = np.empty((2 * self.count, self._rows.shape[1]))
            grown[:self.count] = self._rows
            self._rows = grown
        self._rows[self.count] = x
        self.count += 1


# The benchmark's tracer binds krylov.HouseholderBasis.add; the alias goes
# when the benchmark is refreshed to bind GramSchmidtBasis.add.
HouseholderBasis = GramSchmidtBasis


def reorthogonalize_indexed(vectors, drop_tol=1e-12, images=None,
                            leading=0):
    """Gram-Schmidt orthonormalization, reporting which inputs survived.

    Returns ``(kept, indices)``: a (dim, r) array whose orthonormal columns
    span the input space (the transposed rows of the basis they fill), and
    the positions of the r inputs that contributed them. Vectors whose
    component orthogonal to the preceding ones falls below
    ``drop_tol * ||vector||`` are dropped. The first ``leading`` inputs,
    orthonormal already, fill the basis as they are.

    Given ``images``, z_i = B x_i for each input x_i and one linear B,
    returns ``(kept, indices, kept_images)`` with kept_images = B kept:
    an input kept as q_k = (x - c_1 q_1 - ... - c_{k-1} q_{k-1}) / p,
    c = Q^T x and p its complement's length, has the image
    (z - c_1 B q_1 - ... - c_{k-1} B q_{k-1}) / p, at no apply of B, and
    a leading input keeps its own.
    """
    if len(vectors) == 0:
        raise ContractError("cannot orthonormalize an empty vector set")
    dim = as_vector(vectors[0], name="basis vector").shape[0]
    vectors = [as_vector(v, dim, "basis vector") for v in vectors]
    if all(np.linalg.norm(v) == 0.0 for v in vectors):
        raise ContractError("cannot orthonormalize an all-zero vector set")
    basis = GramSchmidtBasis(dim, len(vectors))
    mapped = None if images is None else np.empty((len(vectors), dim))
    if leading:
        basis.fill(vectors[:leading])
        if mapped is not None:
            mapped[:leading] = images[:leading]
    indices = list(range(leading))
    for i in range(leading, len(vectors)):
        k = basis.count
        row, pnorm = basis.add(vectors[i], drop_tol=drop_tol)
        if row is None:
            continue
        indices.append(i)
        if mapped is not None:
            np.subtract(images[i], (basis.rows[:k] @ vectors[i]) @ mapped[:k],
                        out=mapped[k])
            mapped[k] /= pnorm
    if mapped is None:
        return basis.rows.T, indices
    return basis.rows.T, indices, mapped[:basis.count].T


class Lanczos:
    """Lanczos tridiagonalization of B = op^T op from a start vector b, the
    one loop behind every Tikhonov solve.

    ``op`` is any object with ``apply``, ``apply_adjoint`` and
    ``domain_dim``: a Jacobian handle, a Tikhonov system or its two-sided
    form. The basis q_1, q_2, ... is kept orthonormal in a GramSchmidtBasis
    of 16 rows to start, or M-orthonormal given ``inverse`` (x -> M^{-1} x)
    for a run on M^{-1} B from M^{-1} b. ``diag`` holds a_j = ||op q_j||^2
    and ``offdiag`` b_j, the length of the component of B q_j orthogonal
    to q_1..q_j, which normalized is q_{j+1} unless it is dependent on the
    basis: then the Krylov space is exhausted, and b_j is the length the
    basis dropped. ``grow`` adds a_{j+1} for one apply, after the adjoint
    apply that b_j waits for, so a run read after j steps has cost 2j - 1
    units past the start vector. ``solve`` continues the run as CG on
    (B + shift M) h = b, M = I without ``inverse``. Given
    ``keep_products``, ``products`` holds B q_1, B q_2, ... as rows, the
    adjoint outputs the run already makes, for a harvest's images.
    """

    def __init__(self, op, start, inverse=None, keep_products=False):
        self.op = op
        self.basis = GramSchmidtBasis(op.domain_dim, 16, inverse)
        self._q, self.start_norm = self.basis.add(start)
        self._image = None  # op q_j while b_j waits for its adjoint apply
        self.diag, self.offdiag = [], []
        self.products = RowBuffer(op.domain_dim) if keep_products else None

    def _close(self):
        """Add b_j for the last a_j, unless it is there."""
        if self._image is not None:
            product = self.op.apply_adjoint(self._image)
            if self.products is not None:
                self.products.append(product)
            self._q, b = self.basis.add(product)
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

    def solve(self, shift, tol, max_iterations, step_tol=None):
        """Continue the run as CG on (B + shift M) h = b (D-Lanczos, Saad,
        Iterative Methods for Sparse Linear Systems, 2nd ed., 6.7.1).

        Step l factors T_l + shift I = L D L^T by its pivots d_1 = a_1 +
        shift, d_{j+1} = a_{j+1} + shift - b_j l_j with l_j = b_j/d_j, and
        adds (zeta_l/d_l) p_l to the Galerkin iterate h_l = ||b|| Q_l
        (T_l + shift I)^{-1} e_1, where zeta_1 = ||b|| (in the M^{-1}-norm),
        zeta_{j+1} = -l_j zeta_j, p_1 = q_1 and p_{j+1} = q_{j+1} - l_j p_j.
        Its residual norm is ||r_l|| = b_l |zeta_l/d_l| ||M q_{l+1}||, and
        the solve ends once that is at most tol ||h_l|| (an exhausted
        space ends it too), or after ``max_iterations`` steps unconverged.
        Given ``step_tol``, the returned h is the first h_l whose residual
        is at most step_tol ||h_l||, or the last one if none is: the run
        still goes on to tol, so its trace is the one without step_tol.
        Each step costs O(dim) past its two model calls and its
        Gram-Schmidt projection. A pivot that is not positive, or a
        breakdown of M, raises a CgBreakdownError, which carries only its
        message.

        Returns (h, trace): h solves the system above, and the trace is that
        of CG on (B + shift M)/c from b/sqrt(c), c = shift if positive, else
        1: T_l + shift I scaled by 1/c over the same basis. At a shift gamma
        that is the two-sided system over the empty pair set of shift gamma.
        Its ``rhs_product`` is that of the returned h.
        """
        basis, scale = self.basis, shift if shift > 0.0 else 1.0
        h, p = np.zeros(self.op.domain_dim), np.zeros(self.op.domain_dim)
        kept = None  # the first h_l that met step_tol
        zeta = self.start_norm
        l, b, ratio = 0, 0.0, 0.0
        converged = zeta == 0.0
        while not converged and l < max_iterations:
            if len(self.diag) == l:
                self.grow()
            if len(self.offdiag) == l:
                self._close()
            d = self.diag[l] + shift - b * ratio
            if not d > 0.0:
                raise CgBreakdownError(
                    f"pivot d_{l + 1} = {d} of T_l + shift I is not positive")
            p *= -ratio
            p += basis.rows[l]
            h += (zeta / d) * p
            b = self.offdiag[l]
            r_norm = b * abs(zeta / d)
            if basis.count > l + 1:
                r_norm *= basis.dual_norms[l + 1]
            ratio = b / d
            zeta *= -ratio
            l += 1
            h_norm = math.sqrt(h.dot(h))
            converged = basis.count == l or r_norm <= tol * h_norm
            if kept is None and step_tol is not None \
                    and r_norm <= step_tol * h_norm:
                kept = h.copy()
        if kept is not None:
            h = kept
        return h, CgTrace(
            diag=np.add(self.diag[:l], shift) / scale,
            offdiag=np.divide(self.offdiag[:l], scale),
            basis=basis.rows[:l], iterations=l, converged=converged,
            # h^T b with b = ||b|| w_1
            rhs_product=self.start_norm * float(h.dot(basis.duals[0]))
            if l else 0.0)


@dataclass
class RitzPair:
    """Approximate eigenpair of the (preconditioned) normal operator.

    ``residual_bound`` bounds ||B (Q w) - theta (Q w)|| for the normal
    operator B of the Lanczos run whose basis Q, the rows of ``basis``,
    yielded the pair (see ``ritz_from_trace``). ``coefficients`` is w, the
    vector's coordinates in the rows of Q, and ``vector`` is
    ``coefficients @ basis``, formed on the first read and kept.
    """

    theta: float
    residual_bound: float
    coefficients: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)

    @cached_property
    def vector(self):
        return self.coefficients @ self.basis


def ritz_from_trace(trace: CgTrace):
    """Ritz pairs of the normal operator from the Lanczos data of a solve.

    Returns every pair, sorted by descending theta. Requires a trace of at
    least one iteration; raises a diagnostic error when T_l fails to be
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
    applied (see ``solvers._harvest`` for a two-sided B), for the Euclidean
    basis of an unpreconditioned run.
    """
    l = trace.iterations
    if l < 1:
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
    return [RitzPair(float(theta[i]), float(bounds[i]), vecs[:, i],
                     trace.basis) for i in range(l - 1, -1, -1)]


def select_ritz(pairs):
    """Keep pairs separated from the cluster at 1 and converged tightly enough.

    A pair survives iff ``theta >= RITZ_SEPARATION`` and
    ``residual_bound <= RITZ_RESIDUAL_TOL * theta``. Order is preserved.
    """
    return [p for p in pairs if p.theta >= RITZ_SEPARATION
            and p.residual_bound <= RITZ_RESIDUAL_TOL * p.theta]


def _galerkin_start(b, gamma, precond, tol):
    """(h0, trace) of the Galerkin solution over the span of the pair set
    ``precond``, or None unless it meets the stop test at ``tol``.

    With U the pair vectors, Z = A^T A U their images and U^T Z =
    V diag(mu) V^T (``precond.projection``), h0 = U y with
    y = V diag(1/(mu + gamma)) V^T U^T b solves U^T (A^T A + gamma I) h = U^T b
    over span U, and r0 = b - Z y - gamma h0 is its residual. It is exact
    but for the rounding of Z, which carries that of the model applies it
    was formed from, a small multiple of eps ||A^T A|| per unit column, as
    in the Lanczos relation of ``ritz_from_trace``. So r0 is charged
    RITZ_ROUNDING eps mu_max ||h0||, mu_max standing for ||A^T A|| as
    theta_max does there: h0 is taken iff
    ||r0|| <= (tol - RITZ_ROUNDING eps mu_max) ||h0||, which the true
    residual then meets at tol, and a tol below that rounding, as a shift
    near GAMMA_FLOOR gives, takes none. The trace has no iteration and
    h0^T b for ``rhs_product``, and h0^T (b - (A^T A + gamma I) h0) = 0.
    """
    mu, v = precond.projection
    slack = tol - RITZ_ROUNDING * np.finfo(float).eps * mu.max(initial=0.0)
    if not slack > 0.0:
        return None
    u = precond.vectors
    y = v @ ((v.T @ (u.T @ b)) / (mu + gamma))
    h = u @ y
    r = b - precond.images @ y
    r -= gamma * h
    if not math.sqrt(r.dot(r)) <= slack * math.sqrt(h.dot(h)):
        return None
    return h, CgTrace(diag=np.empty(0), offdiag=np.empty(0),
                      basis=np.empty((0, b.shape[0])), iterations=0,
                      converged=True, rhs_product=float(h.dot(b)))


def pcg_solve(sys, precond=None, epsilon=1.0 / 3.0, max_iterations=200, *,
              step_epsilon=None):
    """Preconditioned CG on the normal equations G^T G h = G^T g.

    Parameters
    ----------
    sys : stacked system
        Provides ``apply``, ``apply_adjoint``, ``stacked_rhs``, ``domain_dim``
        and ``stop_scale`` (a lower bound of the spectrum of G^T G; the
        Tikhonov system exposes gamma).
    precond : SpectralPreconditioner or None
        The M of the solve, applied through its ``apply_inverse``. If it
        has images, they are A^T A U for the Jacobian A of ``sys``, a
        Tikhonov system with G^T G = A^T A + gamma I, and the solve first
        tries the Galerkin solution over span U (see Notes).
        Symmetric two-sided preconditioning is achieved by wrapping ``sys``
        instead, which keeps reorthogonalization Euclidean.
    epsilon : float in (0, 1)
        Enters the stop test below; when ``stop_scale`` is a lower bound for
        the spectrum of G^T G this guarantees relative accuracy
        ``epsilon/(1-epsilon)`` against the exact solution.
    max_iterations : int >= 1
        Caps the solve.
    step_epsilon : float in (0, 1) or None
        Given, h is the first iterate that meets the stop test at
        ``step_epsilon`` in place of ``epsilon`` (or the last one), while
        the run and its trace go on to ``epsilon``: an accurate solve that
        harvests Ritz pairs returns a standard-accuracy step.

    Returns
    -------
    (h, trace) : solution estimate and a CgTrace. Hitting the iteration cap
    flags ``trace.converged = False`` instead of raising; genuine breakdowns
    raise ``CgBreakdownError``, a ContractError that carries no trace; a
    pivot's message names the iteration at which the solve failed.

    Notes
    -----
    The solve forms b = G^T g (1 model unit). Given a ``precond`` with
    images, it first forms the Galerkin solution h0 over the pair set's
    span and its exact residual from the images, at no model unit and no
    application of M^{-1}, and returns h0 with a trace of 0 iterations if
    it meets the stop test below, charged for the rounding of the images.
    Otherwise, or without images, it is one call of ``Lanczos.solve`` on
    ``sys`` at shift 0 from b, in the M-inner product given ``precond``,
    as without the start. It runs while the Euclidean
    ``||r^l|| > epsilon * stop_scale * ||h^l||``; from h = 0 the first
    iteration always executes. A solve of l iterations, l = 0 allowed,
    costs 1 + 2l model units, and applies M^{-1} l + 1 times if l >= 1,
    never if l = 0.
    """
    if not 0.0 < epsilon < 1.0:
        raise ContractError(f"epsilon must lie in (0, 1), got {epsilon}")
    if step_epsilon is not None and not 0.0 < step_epsilon < 1.0:
        raise ContractError(
            f"step_epsilon must lie in (0, 1), got {step_epsilon}")
    if max_iterations < 1:
        raise ContractError("max_iterations must be at least 1")
    scale = float(sys.stop_scale)
    b = sys.apply_adjoint(sys.stacked_rhs())
    if getattr(precond, "images", None) is not None:
        start = _galerkin_start(b, sys.gamma, precond, epsilon * scale)
        if start is not None:
            return start
    inverse = None if precond is None else precond.apply_inverse
    return Lanczos(sys, b, inverse).solve(
        0.0, epsilon * scale, max_iterations,
        None if step_epsilon is None else step_epsilon * scale)
