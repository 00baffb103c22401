"""Data-driven stopping: discrepancy principle, propagated-noise estimates
Phi(k), and the Lepskii balancing selection over stored iterates.

Phi(k) estimates ||R_k eps||, the data noise pushed through the regularized
inverse R_k = (G^T G)^{-1} A^T. Three estimators are provided: the worst-case
bound delta/(2 gamma_k), the white-noise closed form over a captured
eigenvalue set, and a Monte-Carlo form that pushes stored noise samples
through the low-rank surrogate R_k^app = U diag(c) W^T of the preconditioner
pairs, c_j = sqrt(lambda_j)/(gamma_k+lambda_j), w_j = A u_j/||A u_j||. U has
orthonormal columns, so ||R_k^app eps|| = ||diag(c) W^T eps|| needs only W.
"""

from __future__ import annotations

import warnings

import numpy as np

from .operators import ContractError, as_vector


class PhiWarning(UserWarning):
    """The noise estimate is uninformative or possibly underestimating."""


def discrepancy_stop(residual_norms, tau, delta):
    """First index K with ||F(x_K) - y|| <= tau * delta, or None if never.

    tau must exceed 1; delta is the noise-norm level.
    """
    if len(residual_norms) == 0:
        raise ContractError("no residual norms supplied")
    if not tau > 1.0:
        raise ContractError(f"tau must exceed 1, got {tau}")
    if delta < 0:
        raise ContractError("delta must be nonnegative")
    for k, rn in enumerate(residual_norms):
        if rn <= tau * delta:
            return k
    return None


def phi_deterministic(gamma_k, delta):
    """Worst-case propagated-noise bound delta / (2 gamma_k)."""
    if not gamma_k > 0:
        raise ContractError("gamma_k must be positive")
    if delta < 0:
        raise ContractError("delta must be nonnegative")
    return delta / (2.0 * gamma_k)


def phi_white_noise(sigma, lambdas, gamma_k):
    """White-noise estimate sigma * sqrt(sum_j lambda_j / (gamma_k+lambda_j)^2).

    Exact (equal to the trace formula) when ``lambdas`` is the complete
    eigenvalue set of A^T A; with a partial set it may underestimate. An
    empty set returns 0 with a PhiWarning.
    """
    if not gamma_k > 0:
        raise ContractError("gamma_k must be positive")
    if sigma < 0:
        raise ContractError("sigma must be nonnegative")
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lam.size == 0:
        warnings.warn("no eigenvalues captured yet; Phi estimate is 0",
                      PhiWarning)
        return 0.0
    if np.any(lam < 0):
        raise ContractError("eigenvalues must be nonnegative")
    return float(sigma * np.sqrt(np.sum(lam / (gamma_k + lam) ** 2)))


def phi_sampled(precond, noise_samples, gamma_k=None):
    """Root-mean-square of ||R_k^app eps_l|| over the rows eps_l of the
    (L, N) array ``noise_samples``: ||E W diag(c)||_F / sqrt(L), with the
    weights c of the module docstring. Costs no forward-model call."""
    samples = np.asarray(noise_samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ContractError("need at least one noise sample, as an (L, N) array")
    if not np.isfinite(samples).all():
        raise ContractError("noise samples contain non-finite entries")
    p = precond if gamma_k is None else precond.with_gamma(gamma_k)
    if p.pair_count == 0:
        warnings.warn("no eigenpairs captured yet; Phi estimate is 0",
                      PhiWarning)
        return 0.0
    left = p.left_vectors
    if left is None or left.shape[1] < p.pair_count:
        raise ContractError("preconditioner lacks left vectors; "
                            "call attach_left_vectors first")
    if samples.shape[1] != left.shape[0]:
        raise ContractError(f"noise samples have length {samples.shape[1]}, "
                            f"left vectors {left.shape[0]}")
    coeff = samples @ left * (np.sqrt(p.lambdas) / (p.gamma + p.lambdas))
    return float(np.sqrt(np.sum(coeff ** 2) / samples.shape[0]))


def lepskii_select(iterates, phi, rho):
    """Balancing index K_bal = min{k : ||x_k - x_m|| <= rho Phi(m), m > k}.

    ``iterates`` are x_0..x_{K_max} and ``phi`` the matching Phi values;
    rho must exceed 4. At k = K_max the condition is vacuous, so a valid
    index always exists.
    """
    values = list(phi)
    if len(values) != len(iterates):
        raise ContractError("need one Phi value per iterate")
    if len(iterates) == 0:
        raise ContractError("no iterates supplied")
    if not rho > 4.0:
        raise ContractError(f"rho must exceed 4, got {rho}")
    k_max = len(iterates) - 1
    for k in range(k_max + 1):
        if all(
            np.linalg.norm(np.asarray(iterates[k]) - np.asarray(iterates[m]))
            <= rho * values[m]
            for m in range(k + 1, k_max + 1)
        ):
            return k
    return k_max


# Estimator objects consumed by the outer solvers: evaluate(gamma_k, precond)
# returns Phi(k) using whatever eigenpair set is current at step k.

class DeterministicPhi:
    method = "deterministic"
    needs_left_vectors = False

    def __init__(self, delta):
        if delta < 0:
            raise ContractError("delta must be nonnegative")
        self.delta = float(delta)

    def evaluate(self, gamma_k, precond=None):
        return phi_deterministic(gamma_k, self.delta)


class WhiteNoisePhi:
    method = "white"
    needs_left_vectors = False

    def __init__(self, sigma):
        if sigma < 0:
            raise ContractError("sigma must be nonnegative")
        self.sigma = float(sigma)

    def evaluate(self, gamma_k, precond=None):
        # Before the first spectral build nothing of the noise has entered
        # the iterate, so the propagated-noise estimate is exactly 0.
        if precond is None or precond.pair_count == 0:
            return 0.0
        return phi_white_noise(self.sigma, precond.lambdas, gamma_k)


class SampledPhi:
    method = "sampled"
    needs_left_vectors = True

    def __init__(self, samples):
        if len(samples) < 1:
            raise ContractError("need at least one noise sample")
        dim = as_vector(samples[0], name="noise sample").shape[0]
        self.samples = np.array(
            [as_vector(s, dim, "noise sample") for s in samples])

    def evaluate(self, gamma_k, precond=None):
        # Same convention as the white-noise estimator: zero before any
        # spectral information exists.
        if precond is None or precond.pair_count == 0:
            return 0.0
        return phi_sampled(precond, self.samples, gamma_k)


# Stop drivers consumed by the outer solvers. A driver is called once per
# Newton step, before the step is taken, with the freshly evaluated state.

class DiscrepancyDriver:
    """Stop at the first residual at or below tau * delta."""

    def __init__(self, tau, delta):
        if not tau > 1.0:
            raise ContractError(f"tau must exceed 1, got {tau}")
        if delta < 0:
            raise ContractError("delta must be nonnegative")
        self.tau = float(tau)
        self.delta = float(delta)

    def __call__(self, k, x, residual_norm, phi):
        return residual_norm <= self.tau * self.delta


class PhiBudgetDriver:
    """Stop once Phi(k) exceeds the error budget R (the step after K_max)."""

    def __init__(self, bound):
        if not bound > 0:
            raise ContractError("bound must be positive")
        self.bound = float(bound)

    def __call__(self, k, x, residual_norm, phi):
        return phi is not None and phi > self.bound


class FixedIndexDriver:
    """Stop exactly at Newton index K."""

    def __init__(self, index):
        if index < 0:
            raise ContractError("index must be nonnegative")
        self.index = int(index)

    def __call__(self, k, x, residual_norm, phi):
        return k >= self.index


def lepskii_from_history(history, rho, bound):
    """Apply the balancing selection to a finished run.

    Collects (x_k, Phi(k)) from the run records, truncates to
    K_max = max{k : Phi(k) <= bound}, and returns the balancing index.
    """
    records = history.records
    if not records:
        raise ContractError("history holds no records")
    if any(r.phi_k is None for r in records):
        raise ContractError("history was run without a Phi estimator")
    k_max = -1
    for r in records:
        if r.phi_k <= bound:
            k_max = r.k
        else:
            break
    if k_max < 0:
        raise ContractError("Phi(0) already exceeds the bound")
    iterates = [r.x_k for r in records[: k_max + 1]]
    values = [r.phi_k for r in records[: k_max + 1]]
    return lepskii_select(iterates, values, rho)
