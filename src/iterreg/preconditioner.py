"""Spectral preconditioners assembled from approximate eigenpairs.

M = gamma I + sum_j lambda_j u_j u_j^T with orthonormal u_j maps the captured
eigenvalues of the regularized normal operator G^T G = A^T A + gamma I onto
the cluster at 1 and leaves the remaining spectrum at 1 + lambda/gamma.
Inverse and square roots are available in closed form, so applications cost
O(#pairs * dim) with no factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .krylov import reorthogonalize_indexed
from .operators import ContractError, as_vector

# Newcomers whose component orthogonal to the existing span is below this
# fraction duplicate a known direction and are dropped on merge.
MERGE_DROP_TOL = 2e-5

_RELATIVE_LAMBDA_FLOOR = 1e-14
SPECTRUM_TOL = 1e-9


class SpectralPreconditioner:
    """Immutable low-rank spectral shift M = gamma I + sum lambda_j u_j u_j^T.

    Parameters
    ----------
    gamma : float
        Positive shift; every eigenvalue of M is at least gamma.
    lambdas : array-like, shape (J,)
        Positive eigenvalue estimates. Values below 1e-14 times the largest
        are discarded together with their vectors.
    vectors : array-like, shape (dim, J)
        Orthonormal columns u_j.
    left_vectors : array-like, shape (N, J_w) with J_w <= J, or None
        Normalized images w_j = A u_j / ||A u_j|| of the leading J_w pairs,
        for the sampled noise estimator; ``attach_left_vectors`` appends the
        trailing ones, and ``merge_pairs`` keeps existing pairs first.

    The per-pair weights of ``apply_inverse`` and ``apply_inv_sqrt`` depend
    only on the pair set and the shift, so each is computed on the first
    apply and kept for every later one. ``with_gamma`` gives a new shift a
    fresh object, and with it fresh weights.
    """

    def __init__(self, gamma, lambdas, vectors, left_vectors=None, validate=True):
        if not (gamma > 0 and np.isfinite(gamma)):
            raise ContractError(f"gamma must be positive and finite, got {gamma}")
        self.gamma = float(gamma)

        lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
        # asarray keeps with_gamma alias-sharing the pair arrays
        u = np.asarray(vectors, dtype=float)
        w = None if left_vectors is None else np.asarray(left_vectors, dtype=float)
        if u.ndim != 2 or u.shape[1] != lam.shape[0]:
            raise ContractError(
                f"{lam.shape[0]} values for vectors of shape {u.shape}")
        if w is not None and (w.ndim != 2 or w.shape[1] > lam.shape[0]):
            raise ContractError(f"left vectors of shape {w.shape} for "
                                f"{lam.shape[0]} pairs")

        if lam.shape[0]:
            if validate and (np.any(lam <= 0) or not np.all(np.isfinite(lam))):
                raise ContractError("all lambda values must be positive and finite")
            keep = lam >= _RELATIVE_LAMBDA_FLOOR * lam.max()
            if not np.all(keep):
                lam = lam[keep]
                u = u[:, keep]
                if w is not None:
                    w = w[:, keep[:w.shape[1]]]
        if validate and lam.shape[0]:
            if not np.isfinite(u).all():
                raise ContractError("eigenvectors contain non-finite entries")
            defect = np.max(np.abs(u.T @ u - np.eye(lam.shape[0])))
            if defect > 1e-8:
                raise ContractError(
                    f"eigenvectors are not orthonormal (defect {defect:.2e})")
            if w is not None and not np.all(
                    np.abs(np.linalg.norm(w, axis=0) - 1.0) <= 1e-8):
                raise ContractError("left vectors must be finite and normalized")

        self.lambdas = lam
        self.vectors = u
        self.left_vectors = w

    @classmethod
    def empty(cls, gamma, dim):
        """Pair-free preconditioner M = gamma I."""
        return cls(gamma, np.empty(0), np.zeros((int(dim), 0)), validate=False)

    @property
    def dim(self):
        return self.vectors.shape[0]

    @property
    def pair_count(self):
        return int(self.lambdas.shape[0])

    def with_gamma(self, gamma):
        """Same pair set under a different shift (the per-step gamma_k)."""
        return SpectralPreconditioner(gamma, self.lambdas, self.vectors,
                                      self.left_vectors, validate=False)

    @cached_property
    def _inverse_weights(self):
        return (1.0 / self.gamma,
                1.0 / (self.lambdas + self.gamma) - 1.0 / self.gamma)

    @cached_property
    def _inv_sqrt_weights(self):
        g = np.sqrt(self.gamma)
        return 1.0 / g, 1.0 / np.sqrt(self.lambdas + self.gamma) - 1.0 / g

    def _shifted_apply(self, x, weights):
        base, pair_weights = weights
        out = base * x
        if pair_weights.shape[0]:
            out += self.vectors @ (pair_weights * (self.vectors.T @ x))
        return out

    def apply_inverse(self, x):
        """M^{-1} x = x/gamma + sum (1/(lambda_j+gamma) - 1/gamma) <x,u_j> u_j,
        for an unchecked 1-D ``x`` of length ``dim`` (see ``operators``)."""
        return self._shifted_apply(x, self._inverse_weights)

    def apply_inv_sqrt(self, x):
        """M^{-1/2} x, with ``x`` unchecked as in ``apply_inverse``."""
        return self._shifted_apply(x, self._inv_sqrt_weights)

    def dense(self):
        """Materialized M, for oracle-scale verification only."""
        m = self.gamma * np.eye(self.dim)
        if self.pair_count:
            m = m + (self.vectors * self.lambdas) @ self.vectors.T
        return m

    def attach_left_vectors(self, jac):
        """Append w_j = A u_j / ||A u_j|| for the pairs past the leading
        block that already has them, one Jacobian apply per new pair."""
        have = 0 if self.left_vectors is None else self.left_vectors.shape[1]
        if have == self.pair_count:
            return self
        images = np.column_stack([jac.apply(u) for u in self.vectors[:, have:].T])
        norms = np.linalg.norm(images, axis=0)
        if not np.all(norms > 0.0):
            raise ContractError(
                "captured eigenvector lies in the Jacobian null space")
        images /= norms
        if have:
            images = np.hstack([self.left_vectors, images])
        return SpectralPreconditioner(self.gamma, self.lambdas, self.vectors,
                                      images, validate=False)


class TwoSidedSystem:
    """Stacked system conjugated by M^{-1/2} on both sides.

    CG on G M^{-1/2} runs in the Euclidean inner product, so
    reorthogonalization stays exact. Its normal operator S = M^{-1/2} G^T G
    M^{-1/2} has spectrum bounded below by 1 for exact pairs, hence
    ``stop_scale`` is 1: the eps/(1-eps) contract holds for h~, while the
    pull-back h = M^{-1/2} h~ may miss it (by up to 1.9x in random trials).
    For inexact pairs, R = A^T A U - U diag(lambda) and gamma_c = gamma +
    min_j lambda_j, lambda_min(S) >= 1 - delta with delta = ||R|| (1 +
    sqrt(1 + 4 gamma_c/gamma)) / (2 gamma_c), so the contract weakens by at
    most 1/(1 - delta): for x = U c + z, U^T z = 0, x^T (G^T G - (1-delta) M) x
    >= (delta gamma_c - ||R||)|c|^2 - 2||R|| |c||z| + delta gamma |z|^2 >= 0.
    Random Recompute -> Update sequences reach 1 - lambda_min(S) = 5e-5,
    at most 0.76 delta.
    """

    stop_scale = 1.0

    def __init__(self, sys, precond):
        if precond.dim != sys.domain_dim:
            raise ContractError("preconditioner dimension mismatch")
        self.sys = sys
        self.precond = precond

    @property
    def domain_dim(self):
        return self.sys.domain_dim

    def apply(self, v):
        return self.sys.apply(self.precond.apply_inv_sqrt(v))

    def apply_adjoint(self, d):
        return self.precond.apply_inv_sqrt(self.sys.apply_adjoint(d))

    def stacked_rhs(self):
        return self.sys.stacked_rhs()

    def pull_back(self, h_transformed):
        """Map the transformed solution back: h = M^{-1/2} h~."""
        return self.precond.apply_inv_sqrt(h_transformed)


def merge_pairs(existing: SpectralPreconditioner, new_pairs):
    """Union of the existing pair set and newly harvested pairs, at its shift.

    Every harvested pair set is built here; a fresh one merges into
    ``SpectralPreconditioner.empty``. The existing vectors are
    reorthogonalized first and never dropped, so they and their left vectors
    move only by rounding; each kept vector keeps the lambda of its pair,
    and newcomers dependent on the span are dropped with their values.
    """
    lambdas = list(existing.lambdas)
    new_vectors = []
    for lam, u in new_pairs:
        if not lam > 0:
            raise ContractError(f"merged eigenvalue must be positive, got {lam}")
        lambdas.append(float(lam))
        new_vectors.append(as_vector(u, existing.dim, "merged eigenvector"))
    if not lambdas:
        return SpectralPreconditioner.empty(existing.gamma, existing.dim)
    kept, indices = reorthogonalize_indexed(
        [*existing.vectors.T, *new_vectors], drop_tol=MERGE_DROP_TOL)
    left = existing.left_vectors
    if left is not None:
        left = left[:, [i for i in indices if i < left.shape[1]]]
    return SpectralPreconditioner(existing.gamma, np.array(lambdas)[indices],
                                  kept, left, validate=False)


@dataclass
class SpectrumReport:
    """Observed vs predicted spectrum of the preconditioned normal operator."""

    observed: np.ndarray
    expected: np.ndarray
    max_abs_error: float
    ok: bool


def preconditioned_spectrum_check(precond, dense_a):
    """Verify sigma(M^{-1} G^T G) = {1 + lambda_j/gamma : j not captured} + {1}.

    Computes the spectrum through the symmetric form
    M^{-1/2} (A^T A + gamma I) M^{-1/2} and compares it against the
    prediction built from the dense eigenvalues of A^T A, with the captured
    values matched greedily. Only meaningful when the captured pairs are
    (near-)exact eigenpairs; errors above SPECTRUM_TOL are flagged, not raised.
    """
    a = np.asarray(dense_a, dtype=float)
    gamma = precond.gamma
    gtg = a.T @ a + gamma * np.eye(a.shape[1])
    inv_sqrt = np.column_stack(
        [precond.apply_inv_sqrt(col) for col in np.eye(a.shape[1])])
    sym = inv_sqrt @ gtg @ inv_sqrt
    observed = np.linalg.eigvalsh((sym + sym.T) / 2.0)

    gram_eigs = list(np.linalg.eigvalsh(a.T @ a))
    for lam in precond.lambdas:
        nearest = min(range(len(gram_eigs)), key=lambda i: abs(gram_eigs[i] - lam))
        gram_eigs.pop(nearest)
    expected = np.sort(np.array(
        [1.0 + l / gamma for l in gram_eigs] + [1.0] * precond.pair_count))
    err = float(np.max(np.abs(observed - expected))) if expected.size else 0.0
    scale = max(1.0, float(expected.max())) if expected.size else 1.0
    return SpectrumReport(observed=observed, expected=expected,
                          max_abs_error=err, ok=err <= SPECTRUM_TOL * scale)
