"""Data-driven stopping: discrepancy principle, propagated-noise estimates
Phi(k), and the Lepskii balancing selection over stored iterates.

Phi(k) estimates ||R_k eps||, the data noise pushed through the regularized
inverse R_k = (G^T G)^{-1} A^T. Three estimators are provided: the worst-case
bound delta/(2 gamma_k), the white-noise closed form over a captured
eigenvalue set, and a Monte-Carlo form that pushes stored noise samples
through the low-rank surrogate R_k^app built from the preconditioner pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import ContractError, as_vector


class PhiWarning(UserWarning):
    """The noise estimate is uninformative or possibly underestimating."""


@dataclass
class NoiseSpec:
    """What is known about the data noise.

    variant "deterministic" carries a norm bound delta; "white" a
    per-component standard deviation sigma; "sampled" a list of independent
    noise realizations.
    """

    variant: str
    delta: float = 0.0
    sigma: float = 0.0
    samples: list = field(default_factory=list)

    _VARIANTS = ("deterministic", "white", "sampled")

    def __post_init__(self):
        if self.variant not in self._VARIANTS:
            raise ContractError(
                f"unknown noise variant {self.variant!r}, expected {self._VARIANTS}")
        if self.delta < 0 or self.sigma < 0:
            raise ContractError("noise magnitudes must be nonnegative")
        if self.variant == "sampled" and len(self.samples) < 1:
            raise ContractError("sampled noise needs at least one realization")

    @classmethod
    def deterministic(cls, delta):
        return cls("deterministic", delta=delta)

    @classmethod
    def white(cls, sigma):
        return cls("white", sigma=sigma)

    @classmethod
    def sampled(cls, samples):
        return cls("sampled", samples=list(samples))

    def delta_estimate(self, dim):
        """Expected noise norm ||eps|| for use in the discrepancy test."""
        if self.variant == "deterministic":
            return self.delta
        if self.variant == "white":
            return self.sigma * np.sqrt(dim)
        return float(np.sqrt(np.mean([np.linalg.norm(s) ** 2 for s in self.samples])))


@dataclass
class PhiSeries:
    """Propagated-noise estimates Phi(0..k_max) with their provenance."""

    values: list
    method: str
    k_max: int

    def __post_init__(self):
        if self.k_max != len(self.values) - 1:
            raise ContractError("k_max must index the last stored value")
        if any(v < 0 for v in self.values):
            raise ContractError("Phi values must be nonnegative")


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


def apply_R_app(precond, eps_vec):
    """Low-rank surrogate of the regularized inverse applied to a noise vector.

    R_k^app eps = sum_j (sqrt(lambda_j) / (gamma + lambda_j)) <w_j, eps> u_j
    over the preconditioner pairs, where w_j = A u_j / ||A u_j||. Uses no
    forward-model calls; the gamma is taken from ``precond``, so pass
    ``precond.with_gamma(gamma_k)`` for step-k estimates.
    """
    if precond.pair_count and not precond.has_left_vectors:
        raise ContractError(
            "preconditioner carries no left vectors; "
            "call attach_left_vectors first")
    eps_vec = as_vector(eps_vec, name="noise vector")
    out = np.zeros(precond.dim)
    for j in range(precond.pair_count):
        lam = precond.lambdas[j]
        weight = np.sqrt(lam) / (precond.gamma + lam)
        out += weight * float(precond.left_vectors[j] @ eps_vec) \
            * precond.vectors[:, j]
    return out


def phi_sampled(precond, noise_samples, gamma_k=None):
    """Root-mean-square of ||R_k^app eps_l|| over stored noise samples."""
    if len(noise_samples) < 1:
        raise ContractError("need at least one noise sample")
    p = precond if gamma_k is None else precond.with_gamma(gamma_k)
    if p.pair_count == 0:
        warnings.warn("no eigenpairs captured yet; Phi estimate is 0",
                      PhiWarning)
        return 0.0
    acc = 0.0
    for eps in noise_samples:
        acc += float(np.linalg.norm(apply_R_app(p, eps)) ** 2)
    return float(np.sqrt(acc / len(noise_samples)))


def lepskii_select(iterates, phi, rho):
    """Balancing index K_bal = min{k : ||x_k - x_m|| <= rho Phi(m), m > k}.

    ``iterates`` are x_0..x_{K_max} and ``phi`` the matching Phi values
    (a PhiSeries or a plain sequence); rho must exceed 4. At k = K_max the
    condition is vacuous, so a valid index always exists.
    """
    values = phi.values if isinstance(phi, PhiSeries) else list(phi)
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
        self.samples = [as_vector(s, name="noise sample") for s in samples]

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
        self.reason = f"discrepancy(tau={tau})"

    def __call__(self, k, x, residual_norm, phi):
        return residual_norm <= self.tau * self.delta


class PhiBudgetDriver:
    """Stop once Phi(k) exceeds the error budget R (the step after K_max)."""

    def __init__(self, bound):
        if not bound > 0:
            raise ContractError("bound must be positive")
        self.bound = float(bound)
        self.reason = f"phi-budget(R={bound})"

    def __call__(self, k, x, residual_norm, phi):
        return phi is not None and phi > self.bound


class FixedIndexDriver:
    """Stop exactly at Newton index K."""

    def __init__(self, index):
        if index < 0:
            raise ContractError("index must be nonnegative")
        self.index = int(index)
        self.reason = f"fixed-K(K={index})"

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
