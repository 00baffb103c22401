"""Data-driven stopping: discrepancy principle, propagated-noise estimates
Phi(k), and the Lepskii balancing selection over stored iterates.

Phi(k) estimates ||R_k eps||, the data noise pushed through the regularized
inverse R_k = (G^T G)^{-1} A^T. Three estimators are provided, each an object
whose ``evaluate(gamma_k, precond)`` uses the pair set current at step k:

- ``DeterministicPhi``: the worst-case bound delta ||R_k|| over all noise
  of norm delta, delta / (2 sqrt(gamma_k));
- ``WhiteNoisePhi``: sigma * sqrt(sum_j lambda_j / (gamma_k + lambda_j)^2)
  over the captured eigenvalues, exact (equal to the trace formula) for the
  complete eigenvalue set of A^T A, an underestimate otherwise;
- ``SampledPhi``: a Monte-Carlo form that pushes stored noise samples
  through the low-rank surrogate R_k^app = U diag(c) W^T of the pairs,
  c_j = sqrt(lambda_j)/(gamma_k+lambda_j), w_j = A u_j/||A u_j||. U has
  orthonormal columns, so ||R_k^app eps|| = ||diag(c) W^T eps|| needs only W
  and costs no forward-model call.

Before the first spectral build nothing of the noise has entered the
iterate, so the last two return exactly 0 while no pairs exist.

A stop driver is called once per Newton step, before the step is taken, as
``stop(k, residual_norm, phi)`` and returns True to stop at k. There are
two: ``DiscrepancyDriver`` (residual at or below TAU delta) and
``PhiBudgetDriver`` (Phi above the error budget R). A run stops at a fixed
index through its step cap instead (``max_newton``, or ``max_steps`` for
Landweber). The offline resolvers ``discrepancy_stop`` and
``lepskii_from_history`` apply the same drivers to a finished run.

The rules read their constants themselves: the discrepancy factor
TAU = 2 (> 1) and the balancing constant RHO = 4.1 (> 4).
"""

from __future__ import annotations

import numpy as np

from .operators import ContractError, as_vector

TAU = 2.0
RHO = 4.1


def discrepancy_stop(residual_norms, delta):
    """First index K at which ``DiscrepancyDriver(delta)`` fires, that is
    ||F(x_K) - y|| <= TAU * delta, or None if never."""
    if len(residual_norms) == 0:
        raise ContractError("no residual norms supplied")
    fires = DiscrepancyDriver(delta)
    return next((k for k, rn in enumerate(residual_norms)
                 if fires(k, rn, None)), None)


def lepskii_select(iterates, phi):
    """Balancing index K_bal = min{k : ||x_k - x_m|| <= RHO Phi(m), m > k}.

    ``iterates`` are x_0..x_{K_max} and ``phi`` the matching Phi values. At
    k = K_max the condition is vacuous, so a valid index always exists.
    """
    values = list(phi)
    if len(values) != len(iterates):
        raise ContractError("need one Phi value per iterate")
    if len(iterates) == 0:
        raise ContractError("no iterates supplied")
    xs = [np.asarray(x) for x in iterates]
    k_max = len(xs) - 1
    for k in range(k_max):
        if all(np.linalg.norm(xs[k] - xs[m]) <= RHO * values[m]
               for m in range(k + 1, k_max + 1)):
            return k
    return k_max


def _check_gamma(gamma_k):
    if not gamma_k > 0:
        raise ContractError("gamma_k must be positive")


class DeterministicPhi:
    """Worst-case propagated-noise bound Phi(k) = delta / (2 sqrt(gamma_k)):
    delta times the norm of the regularized inverse (A^T A + gamma_k I)^{-1}
    A^T, whose largest singular value s / (s^2 + gamma_k) peaks at
    s = sqrt(gamma_k) (Bauer, Hohage & Munk, SIAM J. Numer. Anal. 47, 2009).
    """

    needs_left_vectors = False

    def __init__(self, delta):
        if delta < 0:
            raise ContractError("delta must be nonnegative")
        self.delta = float(delta)

    def evaluate(self, gamma_k, precond=None):
        _check_gamma(gamma_k)
        return self.delta / (2.0 * np.sqrt(gamma_k))


class WhiteNoisePhi:
    """Phi(k) = sigma * sqrt(sum_j lambda_j / (gamma_k + lambda_j)^2) over the
    pair set's eigenvalues: exact for the complete eigenvalue set, an
    underestimate otherwise."""

    needs_left_vectors = False

    def __init__(self, sigma):
        if not 0 <= sigma < np.inf:
            raise ContractError("sigma must be nonnegative and finite")
        self.sigma = float(sigma)

    def evaluate(self, gamma_k, precond=None):
        _check_gamma(gamma_k)
        if precond is None or precond.pair_count == 0:
            return 0.0
        lam = precond.lambdas
        return float(self.sigma * np.sqrt(np.sum(lam / (gamma_k + lam) ** 2)))


class SampledPhi:
    """Root-mean-square of ||R_k^app eps_l|| over the stored noise samples
    eps_l, the rows of E: ||E W diag(c)||_F / sqrt(L). Costs no
    forward-model call; the pair set must carry its left vectors."""

    needs_left_vectors = True

    def __init__(self, samples):
        if len(samples) < 1:
            raise ContractError("need at least one noise sample")
        dim = as_vector(samples[0], name="noise sample").shape[0]
        self.samples = np.array(
            [as_vector(s, dim, "noise sample") for s in samples])

    def evaluate(self, gamma_k, precond=None):
        _check_gamma(gamma_k)
        if precond is None or precond.pair_count == 0:
            return 0.0
        left = precond.left_vectors
        if left is None or left.shape[1] < precond.pair_count:
            raise ContractError("preconditioner lacks left vectors; "
                                "call attach_left_vectors first")
        if self.samples.shape[1] != left.shape[0]:
            raise ContractError(
                f"noise samples have length {self.samples.shape[1]}, "
                f"left vectors {left.shape[0]}")
        lam = precond.lambdas
        coeff = self.samples @ left * (np.sqrt(lam) / (gamma_k + lam))
        return float(np.sqrt(np.sum(coeff ** 2) / self.samples.shape[0]))


class DiscrepancyDriver:
    """Stop at the first residual at or below TAU * delta."""

    def __init__(self, delta):
        if delta < 0:
            raise ContractError("delta must be nonnegative")
        self.delta = float(delta)

    def __call__(self, k, residual_norm, phi):
        return residual_norm <= TAU * self.delta


class PhiBudgetDriver:
    """Stop once Phi(k) exceeds the error budget R (the step after K_max);
    a NaN Phi counts as over budget."""

    def __init__(self, bound):
        if not bound > 0:
            raise ContractError("bound must be positive")
        self.bound = float(bound)

    def __call__(self, k, residual_norm, phi):
        return phi is not None and not phi <= self.bound


def lepskii_from_history(history, bound):
    """Apply the balancing selection to a finished run.

    K_max is the index before ``PhiBudgetDriver(bound)`` first fires on the
    run's Phi values; returns the balancing index over x_0..x_{K_max}, or
    None when Phi(0) already exceeds the bound, as ``discrepancy_stop`` does
    when its rule never fires. A history of more than one record whose Phi
    is 0 at every step (exact data, or a Phi estimator that saw no pair
    set) is refused: the balancing rule has nothing to balance there.
    """
    records = history.records
    if not records:
        raise ContractError("history holds no records")
    if any(r.phi_k is None for r in records):
        raise ContractError("history was run without a Phi estimator")
    if len(records) > 1 and all(r.phi_k == 0.0 for r in records):
        raise ContractError("Phi is 0 at every step, so the balancing rule "
                            "has nothing to balance")
    over = PhiBudgetDriver(bound)
    k_max = next((k for k, r in enumerate(records)
                  if over(k, r.residual_norm, r.phi_k)), len(records)) - 1
    if k_max < 0:
        return None
    kept = records[:k_max + 1]
    return lepskii_select([r.x_k for r in kept], [r.phi_k for r in kept])
