"""Synthetic exponentially ill-posed test problems, noise generation, and a
dense brute-force oracle against which the matrix-free code is verified.

Three model families: a linear map with prescribed exponentially decaying
singular values (cosine domain basis, random data basis), a periodic
Gaussian convolution (whose cosine/sine mode pairs force double
eigenvalues), and a nonlinear composite F(x) = K s(x) with the pointwise
cubic s(t) = t + c3 t^3 wrapped around either linear map.

The diagonal problem applies its dense matrix as two row-block GEMVs, top
then bottom, and its transpose in the reverse order. A matrix of the
benchmark's size (800 x 400 float64, 2.56 MB) does not fit a 2 MiB L2
cache, but each half does. CG, Newton-CG and Landweber alternate apply and
adjoint, so every call starts on the half the previous call just read. The
apply writes both halves into one fresh array and forms each entry from the
same row as ``matrix @ x``; the adjoint sums the two halves separately,
which moves its result by round-off.

The diagonal build holds each array once. It draws the Gaussian for V in
blocks of rows and keeps only the m columns it uses, scales V by sigma and
forms the cosine basis in place, and builds that basis only after the QR.
Its peak, about 3.6 m n float64s at m = 400, n = 800 (tracemalloc), is
therefore inside ``np.linalg.qr``: the kept n x m columns plus the copies
the QR makes itself (its Fortran-order work array, Q and R, about 2.6 m n).
numpy's QR has no form that overwrites its input, so those copies stay.

The convolution problem multiplies the symbol in place into the fresh
spectrum that ``rfft`` returns. Every model call returns a fresh array,
which callers may keep or overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import ContractError, ForwardModel, as_vector

DENSE_ORACLE_MAX_DIM = 300

_SIGMA_FLOOR = 1e-14

# Rows per block of the Gaussian draw in random_orthonormal_columns.
_DRAW_BLOCK_ROWS = 64


class OracleRefusal(ContractError):
    """A dense-oracle computation was requested above the feasibility cap,
    or of a problem without dense access."""


@dataclass
class Problem:
    """A shipped test problem: model, ground truth, and oracle access.

    ``operator`` is the matrix-free pair (K v, K^T w) of a linear problem and
    is None for nonlinear ones. ``matrix`` is the dense array the problem
    already holds, if any: the diagonal problem holds one, the convolution
    problem holds none. Dense access goes through ``jacobian_matrix``, which
    returns ``matrix`` when present and otherwise builds the operator with
    ``dense_jacobian`` (x -> dense A_x; linear problems ignore x) on demand.
    ``params`` records enough to reconstruct the instance.
    """

    model: ForwardModel
    truth: np.ndarray
    kind: str
    params: dict
    operator: tuple[Callable, Callable] | None = None
    matrix: np.ndarray | None = None
    dense_jacobian: Callable | None = None

    def describe(self):
        """Compact provenance snapshot for experiment records."""
        out = {"kind": self.kind, "domain_dim": self.model.domain_dim,
               "range_dim": self.model.range_dim}
        out.update(self.params)
        return out

    def jacobian_matrix(self, x=None):
        """Dense Jacobian at x (or the operator itself when linear)."""
        if self.matrix is not None:
            return self.matrix
        if self.dense_jacobian is None:
            raise OracleRefusal("problem carries no dense operator access")
        if self.operator is None:
            if x is None:
                raise ContractError(
                    "nonlinear problem needs a linearization point")
            x = np.asarray(x, dtype=float)
        return self.dense_jacobian(x)


def two_bump_profile(m, centers=(0.30, 0.72)):
    """Smooth sum of two Gaussians of widths 0.12 and 0.09 and heights 1 and
    0.8 about ``centers``, sampled on a length-m grid."""
    t = (np.arange(m) + 0.5) / m
    out = np.zeros(m)
    for c, w, h in zip(centers, (0.12, 0.09), (1.0, 0.8)):
        out += h * np.exp(-(((t - c) / w) ** 2))
    return out


def random_orthonormal_columns(dim, count, rng):
    """Thin QR of the first ``count`` columns of a dim x dim Gaussian draw,
    with a deterministic sign fix: up to round-off, the leading columns of
    the Haar-ish orthogonal factor of that draw's square QR.

    The draw is taken ``_DRAW_BLOCK_ROWS`` rows at a time, in the order one
    (dim, dim) draw takes it from ``rng``, and each block keeps only its
    first ``count`` columns, so the square draw is never held.
    """
    if not 1 <= count <= dim:
        raise ContractError(f"need 1 <= count <= dim, got count={count}, "
                            f"dim={dim}")
    kept = np.empty((dim, count))
    block = np.empty((min(_DRAW_BLOCK_ROWS, dim), dim))
    for start in range(0, dim, _DRAW_BLOCK_ROWS):
        rows = block[:dim - start]
        rng.standard_normal(out=rows)
        kept[start:start + rows.shape[0]] = rows[:, :count]
    del block, rows
    q, r = np.linalg.qr(kept)
    q *= np.sign(np.diag(r))
    return q


def cosine_basis(m):
    """Orthonormal cosine (DCT-II) basis; column j oscillates j times."""
    u = np.outer(np.arange(m) + 0.5, np.arange(m))
    u *= np.pi
    u /= m
    np.cos(u, out=u)
    u[:, 0] *= np.sqrt(1.0 / m)
    u[:, 1:] *= np.sqrt(2.0 / m)
    return u


def make_diagonal_problem(m=100, n=200, decay_a=0.25, scale=1.0, seed=0):
    """Linear model with prescribed SVD A = V diag(sigma) U^T.

    sigma_j = scale * exp(-decay_a * j) for a positive, finite scale and
    decay_a, floored at 1e-14 * sigma_0 so the operator keeps full
    rank. The domain basis U is the frequency-ordered cosine basis, so the
    map damps oscillatory components exponentially the way a smoothing
    operator does; the data-side basis V is seeded random. The truth, the
    smooth two-bump profile, is recoverable from low-index cosine modes.
    """
    if m < 1 or n < m:
        raise ContractError(f"need 1 <= m <= n, got m={m}, n={n}")
    if not 0 < decay_a < np.inf:
        raise ContractError("decay_a must be positive and finite")
    if not 0 < scale < np.inf:
        raise ContractError("scale must be positive and finite")
    rng = np.random.default_rng(seed)
    # A decay_a near the float limit sends exponents to -inf; their exp, 0,
    # is the right limit, and the floor lifts it.
    with np.errstate(over="ignore"):
        sigma = scale * np.exp(-decay_a * np.arange(m))
    sigma = np.maximum(sigma, _SIGMA_FLOOR * sigma[0])

    # The cosine basis is built after the draw, so it is not held while
    # the QR runs; see the module docstring.
    v = random_orthonormal_columns(n, m, rng)
    v *= sigma
    a = v @ cosine_basis(m).T
    truth = two_bump_profile(m)

    # Row blocks of ``a`` as views, no copy; see the module docstring for
    # the block order.
    half = n // 2
    top, bottom = a[:half], a[half:]

    def apply(vec):
        out = np.empty(n)
        np.matmul(top, vec, out=out[:half])
        np.matmul(bottom, vec, out=out[half:])
        return out

    def adjoint(w):
        out = bottom.T @ w[half:]
        out += top.T @ w[:half]
        return out

    operator = apply, adjoint
    model = ForwardModel(m, n, apply, lambda _x: operator, name="diagonal")
    return Problem(
        model=model, truth=truth, kind="diagonal",
        params={"m": m, "n": n, "decay_a": decay_a, "scale": scale,
                "seed": seed},
        operator=operator, matrix=a,
    )


def make_convolution_problem(n=64, kernel_width=0.05, seed=0):
    """Periodic Gaussian convolution on n grid points (M = N = n).

    The operator is a symmetric circulant, so its eigenvalues are the real
    Fourier symbol values and every non-constant, non-Nyquist mode comes as
    a cosine/sine pair with a doubly degenerate eigenvalue. The symbol is
    floored at 1e-14 of its peak to keep full rank.

    The operator is applied by FFT in O(n log n) and the problem holds no
    dense matrix; ``jacobian_matrix()`` builds the n x n circulant on demand.
    """
    if n < 8:
        raise ContractError(f"grid size must be at least 8, got {n}")
    if not kernel_width > 0:
        raise ContractError("kernel_width must be positive")
    rng = np.random.default_rng(seed)

    idx = np.arange(n)
    dist = np.minimum(idx, n - idx) / n
    # A kernel_width near zero squares distances to inf; their exp, 0, is
    # the right limit (the kernel becomes the identity's delta).
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (dist / kernel_width) ** 2)
    kernel /= kernel.sum()
    symbol = np.fft.rfft(kernel).real
    symbol = np.maximum(symbol, _SIGMA_FLOOR * symbol.max())
    kernel_eff = np.fft.irfft(symbol, n)

    def apply(x):
        spectrum = np.fft.rfft(x)
        spectrum *= symbol
        return np.fft.irfft(spectrum, n)

    jitter = rng.uniform(-0.03, 0.03, size=2)
    truth = two_bump_profile(n, centers=(0.30 + jitter[0], 0.72 + jitter[1]))

    model = ForwardModel(n, n, apply, lambda _x: (apply, apply),
                         name="convolution")
    return Problem(
        model=model, truth=truth, kind="convolution",
        params={"n": n, "kernel_width": kernel_width, "seed": seed},
        operator=(apply, apply),
        dense_jacobian=lambda _x: kernel_eff[(idx[:, None] - idx) % n],
    )


def make_nonlinear_composite(base: Problem, c3=0.1):
    """Nonlinear model F(x) = K s(x) with s(t) = t + c3 t^3 around a linear K.

    The Jacobian is A_x = K diag(s'(x)) with s'(t) = 1 + 3 c3 t^2, applied
    and adjointed matrix-free through the base problem's own (K, K^T) pair,
    so every model call costs what a base apply costs: two row-block dense
    GEMVs on the diagonal base (the adjoint takes the blocks in reverse
    order, so an apply/adjoint pair starts each call on the cached half),
    O(n log n) FFTs on the convolution base. c3 must be finite and >= 0;
    c3 = 0 degenerates to the base model exactly. The default c3 = 0.1 keeps
    a frozen linearization usable across the build schedule; much stronger
    cubics make stale Jacobians diverge under small regularization.
    """
    if base.operator is None:
        raise ContractError("composite needs a linear base problem")
    if not 0 <= c3 < np.inf:
        raise ContractError("c3 must be nonnegative and finite")
    k_apply, k_adjoint = base.operator
    m = base.model.domain_dim
    n = base.model.range_dim
    c3 = float(c3)

    def evaluate(x):
        # the cubic overflows for |x| above ~(1e308 / c3)^(1/3), and K may
        # mix the infinities to NaN; the model contract then rejects the
        # non-finite output
        with np.errstate(over="ignore", invalid="ignore"):
            return k_apply(x + c3 * (x * x * x))

    def linearize(x):
        sp = 1.0 + 3.0 * c3 * x ** 2

        def apply(v):
            return k_apply(sp * v)

        def adjoint(w):
            return sp * k_adjoint(w)

        return apply, adjoint

    model = ForwardModel(m, n, evaluate, linearize,
                         name=f"{base.model.name}+cubic")
    params = {"c3": c3, "base": base.kind}
    params.update({f"base_{k}": v for k, v in base.params.items()})
    return Problem(
        model=model,
        truth=base.truth.copy(),
        kind=f"nonlinear-{base.kind}",
        params=params,
        dense_jacobian=lambda x: (base.jacobian_matrix()
                                  * (1.0 + 3.0 * c3 * x ** 2)),
    )


def generate_noise(sigma, dim, count=1, seed=0):
    """(count, dim) array of independent N(0, sigma^2) entries."""
    if sigma < 0:
        raise ContractError("sigma must be nonnegative")
    if count < 1:
        raise ContractError("count must be at least 1")
    rng = np.random.default_rng(seed)
    return sigma * rng.standard_normal((count, dim))


def noise_sigma_for_level(y, level):
    """Component std giving a relative noise level ||eps||/||y|| ~= level."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(y)
        if not np.isfinite(norm):
            raise ContractError("data norm overflows the float range")
        # a level near the float limit may overflow sigma; build_data
        # reports that as a configuration error
        return level * norm / np.sqrt(y.shape[0])


def check_oracle_dim(dim):
    """Refuse a dense oracle above DENSE_ORACLE_MAX_DIM domain unknowns."""
    if dim > DENSE_ORACLE_MAX_DIM:
        raise OracleRefusal(f"domain dimension {dim} exceeds the dense cap "
                            f"{DENSE_ORACLE_MAX_DIM}")


class DenseOracle:
    """Direct dense computations: exact Tikhonov solves, spectra, traces.

    Deliberately refuses domains above DENSE_ORACLE_MAX_DIM; everything here
    is O(dim^3) and exists only to check the matrix-free code.
    """

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2:
            raise ContractError("oracle needs a dense 2-D operator")
        check_oracle_dim(a.shape[1])
        self.a = a
        self.gram = a.T @ a
        self._eig = None

    @classmethod
    def for_problem(cls, problem: Problem, x=None):
        # refuse before jacobian_matrix may build a large dense operator
        check_oracle_dim(problem.model.domain_dim)
        return cls(problem.jacobian_matrix(x))

    def gram_spectrum(self):
        """Eigenvalues (descending) and eigenvectors of A^T A."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.gram)
            self._eig = (w[::-1].copy(), v[:, ::-1].copy())
        return self._eig

    def _regularized_solve(self, gamma, rhs):
        """(A^T A + gamma I)^{-1} rhs from a Cholesky factor and two solves."""
        if not gamma > 0:
            raise ContractError("gamma must be positive")
        low = np.linalg.cholesky(self.gram + gamma * np.eye(self.a.shape[1]))
        return np.linalg.solve(low.T, np.linalg.solve(low, rhs))

    def tikhonov_solve(self, gamma, y_part, prior=None):
        """Direct factorization solve of (A^T A + gamma I) h = A^T y + gamma b."""
        y_part = as_vector(y_part, self.a.shape[0], "data part")
        rhs = self.a.T @ y_part
        if prior is not None:
            rhs = rhs + gamma * as_vector(prior, self.a.shape[1], "prior part")
        return self._regularized_solve(gamma, rhs)

    def r_matrix(self, gamma):
        """Exact regularized inverse R = (A^T A + gamma I)^{-1} A^T."""
        return self._regularized_solve(gamma, self.a.T)

    def trace_phi(self, sigma, gamma):
        """Exact sqrt(E ||R eps||^2) = sigma * sqrt(trace(R R^T)) for white noise."""
        r = self.r_matrix(gamma)
        return float(sigma * np.sqrt(np.sum(r * r)))

    def preconditioned_gram_spectrum(self, precond_dense, gamma):
        """Eigenvalues of M^{-1}(A^T A + gamma I) via the generalized problem.

        Solves the pencil (A^T A + gamma I) x = mu M x, reduced by the
        Cholesky factor M = L L^T to the symmetric L^{-1} (A^T A + gamma I)
        L^{-T}. This is the second, independent route to the preconditioned
        spectrum (the first being the symmetric similarity transform
        M^{-1/2} (A^T A + gamma I) M^{-1/2} in the preconditioner module).
        """
        gtg = self.gram + gamma * np.eye(self.a.shape[1])
        low = np.linalg.cholesky(np.asarray(precond_dense, dtype=float))
        reduced = np.linalg.solve(low, np.linalg.solve(low, gtg).T)
        return np.linalg.eigvalsh((reduced + reduced.T) / 2.0)
