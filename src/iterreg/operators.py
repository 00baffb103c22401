"""Matrix-free forward models, frozen Jacobian handles, and stacked Tikhonov systems.

A forward model is a nonlinear map F: R^M -> R^N accessed only through
evaluations and through Jacobian/adjoint matrix-vector products. Each call
is counted in "model units" (one unit per evaluation, Jacobian apply, or
adjoint apply), the hardware-independent cost currency used by all
benchmarks in this package.

``as_vector`` checks each vector where it enters the package (arguments of
constructors and run functions, the iterate before each ``evaluate`` and
``linearize``) and where a model callback returns it, not the vectors the
package builds and passes to callbacks. A callback output that fails the
check raises a ContractError, which ends a run in a Breakdown record.

``IRGNM`` and ``LEVENBERG_MARQUARDT`` name the two right-hand-side kinds of
a Newton step's Tikhonov system: its prior offset is x0 - x_k for IRGNM and
zero for Levenberg-Marquardt.
"""

from __future__ import annotations

import math

import numpy as np

LEVENBERG_MARQUARDT = "levenberg-marquardt"
IRGNM = "irgnm"
ADJOINT_TRIALS = 100
FD_STEPS = (1e-3, 1e-4, 1e-5)


class ContractError(ValueError):
    """Raised when an operator contract is violated (dimensions, finiteness);
    the root of every numerical failure, CgBreakdownError and OracleRefusal
    among them."""


def as_vector(x, dim=None, name="vector"):
    """Coerce ``x`` to a finite 1-D float64 array, checking its length.

    Finiteness is tested on the sum of squares first: a finite
    ``np.vdot(v, v)`` proves every entry finite, at half the cost of a
    per-entry test. Only a non-finite sum, which a NaN, an infinity or an
    entry above about 1.34e154 in magnitude (whose square overflows) gives,
    falls back to the per-entry ``isfinite`` test. vdot runs BLAS ddot,
    which raises no overflow warning, so the array accepted and the error
    raised are those of the per-entry test alone.

    Raises
    ------
    ContractError
        If the array is not 1-D, contains NaN/Inf, or has the wrong length.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ContractError(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not math.isfinite(np.vdot(v, v)) \
            and not np.logical_and.reduce(np.isfinite(v)):
        raise ContractError(f"{name} contains non-finite entries")
    return v


class ModelCost:
    """Running totals of forward-model work, in model units.

    One model unit is one evaluation of F, one Jacobian apply, or one
    adjoint apply.
    """

    def __init__(self):
        self.evaluations = 0
        self.jacobian_applies = 0
        self.adjoint_applies = 0

    @property
    def total(self) -> int:
        return self.evaluations + self.jacobian_applies + self.adjoint_applies


class JacobianHandle:
    """Frozen linearization of a forward model at a fixed point.

    The handle stays valid after the Newton iterate moves on, which is what
    semi-frozen Newton schemes rely on. Its applies check each callback
    output but pass their input on unchecked.

    Parameters
    ----------
    apply_fn, adjoint_fn : callable
        v -> A v (R^M -> R^N) and w -> A^T w (R^N -> R^M).
    domain_dim, range_dim : int
        M and N.
    cost : ModelCost
        Cost ledger of the owning model; each apply and adjoint apply
        counts one unit there.
    """

    def __init__(self, apply_fn, adjoint_fn, domain_dim, range_dim, cost):
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.domain_dim = int(domain_dim)
        self.range_dim = int(range_dim)
        self._cost = cost

    def apply(self, v):
        out = as_vector(self._apply(v), self.range_dim, "Jacobian output")
        self._cost.jacobian_applies += 1
        return out

    def apply_adjoint(self, w):
        out = as_vector(self._adjoint(w), self.domain_dim, "adjoint output")
        self._cost.adjoint_applies += 1
        return out


class ForwardModel:
    """Nonlinear map F: R^M -> R^N with matrix-free Jacobian access.

    Parameters
    ----------
    domain_dim, range_dim : int
        Dimensions M and N.
    evaluate_fn : callable
        x -> F(x). It must not write to x: the outer loops hand it the
        iterate they record, without a copy.
    linearize_fn : callable
        x -> (apply_fn, adjoint_fn) for the Jacobian at x; like
        evaluate_fn, it must not write to x. The returned
        pair must implement the exact adjoint; there is no automatic
        differentiation here. The CG loops overwrite the vectors they pass
        to apply_fn and adjoint_fn once the call has returned, so a
        callback that keeps its input must copy it; they never write to
        what a callback returns.
    name : str, optional
        Label used in reports.
    """

    def __init__(self, domain_dim, range_dim, evaluate_fn, linearize_fn,
                 name="model"):
        self.domain_dim = int(domain_dim)
        self.range_dim = int(range_dim)
        self._evaluate = evaluate_fn
        self._linearize = linearize_fn
        self.name = name
        self.cost = ModelCost()

    def evaluate(self, x):
        x = as_vector(x, self.domain_dim, "model input")
        y = as_vector(self._evaluate(x), self.range_dim, "model output")
        self.cost.evaluations += 1
        return y

    def linearize(self, x) -> JacobianHandle:
        """Return a frozen Jacobian handle at ``x``. Minting one is free."""
        x = as_vector(x, self.domain_dim, "linearization point")
        apply_fn, adjoint_fn = self._linearize(x)
        return JacobianHandle(apply_fn, adjoint_fn, self.domain_dim,
                              self.range_dim, self.cost)


class TikhonovSystem:
    """Stacked operator G = [A; sqrt(gamma) I] and right-hand side, matrix-free.

    Encodes the regularized normal equations G^T G h = G^T g with
    g = (rhs_data; sqrt(gamma) * rhs_prior) without materializing G.

    Attributes
    ----------
    jac : JacobianHandle
        The frozen linearization A.
    gamma : float
        Regularization parameter, > 0.
    rhs_data : ndarray, shape (N,)
        Data-space part of g (the residual y_obs - F(x_k)).
    rhs_prior : ndarray, shape (M,)
        Prior offset b_k (zero for Levenberg-Marquardt).
    """

    def __init__(self, jac: JacobianHandle, gamma: float, rhs_data, rhs_prior):
        if not (gamma > 0 and np.isfinite(gamma)):
            raise ContractError(f"gamma must be positive and finite, got {gamma}")
        self.jac = jac
        self.gamma = float(gamma)
        self.rhs_data = as_vector(rhs_data, jac.range_dim, "rhs_data")
        self.rhs_prior = as_vector(rhs_prior, jac.domain_dim, "rhs_prior")
        self._sqrt_gamma = np.sqrt(self.gamma)

    @property
    def domain_dim(self):
        return self.jac.domain_dim

    @property
    def stop_scale(self):
        # Lower bound of the spectrum of G^T G, used in the CG stop test.
        return self.gamma

    def apply(self, v):
        """Return G v = (A v; sqrt(gamma) v). Costs exactly one Jacobian apply."""
        n = self.jac.range_dim
        out = np.empty(n + self.jac.domain_dim)
        out[:n] = self.jac.apply(v)
        np.multiply(v, self._sqrt_gamma, out=out[n:])
        return out

    def apply_adjoint(self, d):
        """Return G^T d = A^T d_head + sqrt(gamma) d_tail; d is not checked."""
        n = self.jac.range_dim
        return self.jac.apply_adjoint(d[:n]) + self._sqrt_gamma * d[n:]

    def stacked_rhs(self):
        """Return g = (rhs_data; sqrt(gamma) rhs_prior)."""
        return np.concatenate([self.rhs_data, self._sqrt_gamma * self.rhs_prior])


def adjoint_mismatch(jac: JacobianHandle, rng):
    """Largest normalized adjoint defect |<Av,w> - <v,A^T w>| of random pairs.

    Over ADJOINT_TRIALS pairs, each defect is normalized by
    ||Av|| ||w|| + ||v|| ||A^T w||; exact adjoint pairs give round-off.
    """
    worst = 0.0
    for _ in range(ADJOINT_TRIALS):
        v = rng.standard_normal(jac.domain_dim)
        w = rng.standard_normal(jac.range_dim)
        av = jac.apply(v)
        atw = jac.apply_adjoint(w)
        scale = np.linalg.norm(av) * np.linalg.norm(w) \
            + np.linalg.norm(v) * np.linalg.norm(atw)
        if scale == 0.0:
            continue
        worst = max(worst, abs(av @ w - v @ atw) / scale)
    return worst


def jacobian_fd_order(model: ForwardModel, x, direction):
    """Observed order of the finite-difference Jacobian check.

    Compares (F(x + t v) - F(x)) / t against A_x v over the step sizes t
    in FD_STEPS and returns ``(order, errors)``, ``order`` being the fitted
    slope of log error against log t. For exactly linear models the errors
    sit at round-off; the order is then reported as inf.
    """
    x = as_vector(x, model.domain_dim, "x")
    v = as_vector(direction, model.domain_dim, "direction")
    jac = model.linearize(x)
    av = jac.apply(v)
    fx = model.evaluate(x)
    errors = []
    for t in FD_STEPS:
        fd = (model.evaluate(x + t * v) - fx) / t
        errors.append(np.linalg.norm(fd - av))
    errors = np.asarray(errors)
    # Cancellation in the difference quotient leaves ~eps * |F| / t noise,
    # so the round-off floor grows as the step shrinks.
    scale = max(np.linalg.norm(av), np.linalg.norm(fx), 1.0)
    floors = 64.0 * np.finfo(float).eps * scale / np.asarray(FD_STEPS)
    if np.all(errors <= floors):
        return np.inf, errors
    logt = np.log(np.asarray(FD_STEPS))
    loge = np.log(np.maximum(errors, 1e-300))
    order = np.polyfit(logt, loge, 1)[0]
    return order, errors
