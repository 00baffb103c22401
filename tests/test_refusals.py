"""Refusals across the package, each with its exception type and message,
and two guarded paths that return instead of refusing.

Every numerical refusal is a ContractError (OracleRefusal among them); only
the CLI's own refusals are ConfigErrors, which exit 2 instead of 3.
"""

import re

import numpy as np
import pytest

from helpers import linear_model, tikhonov_system
from iterreg.cli import ConfigError, run_work_precision
from iterreg.krylov import CgTrace, ritz_from_trace
from iterreg.operators import ContractError, adjoint_mismatch
from iterreg.preconditioner import SpectralPreconditioner, TwoSidedSystem
from iterreg.solvers import RunHistory
from iterreg.stopping import (DeterministicPhi, SampledPhi, WhiteNoisePhi,
                              lepskii_from_history)
from iterreg.testbed import (DenseOracle, OracleRefusal, Problem,
                             generate_noise, make_diagonal_problem)


def _indefinite_trace():
    return CgTrace(diag=np.array([-1.0]), offdiag=np.array([0.0]),
                   basis=np.eye(1), iterations=1, converged=False,
                   rhs_product=0.0)


def _problem_without_dense_access():
    return Problem(model=linear_model(np.eye(3)), truth=np.zeros(3),
                   kind="dense-linear", params={})


REFUSALS = {
    "work-precision-of-nothing": (
        lambda: run_work_precision([], "."), ConfigError,
        "work-precision needs at least one configuration"),
    "ritz-of-an-indefinite-trace": (
        lambda: ritz_from_trace(_indefinite_trace()), ContractError,
        "tridiagonal matrix is not positive definite"),
    "preconditioner-values-and-vectors": (
        lambda: SpectralPreconditioner(1.0, [1.0, 2.0], np.eye(3)[:, :1]),
        ContractError, "2 values for vectors of shape (3, 1)"),
    "two-sided-dimension-mismatch": (
        lambda: TwoSidedSystem(tikhonov_system(np.eye(3), 1.0),
                               SpectralPreconditioner.empty(1.0, 4)),
        ContractError, "preconditioner dimension mismatch"),
    "deterministic-phi-negative": (
        lambda: DeterministicPhi(-1.0), ContractError,
        "delta must be nonnegative"),
    "white-noise-phi-negative": (
        lambda: WhiteNoisePhi(-1.0), ContractError,
        "sigma must be nonnegative and finite"),
    "white-noise-phi-infinite": (
        lambda: WhiteNoisePhi(np.inf), ContractError,
        "sigma must be nonnegative and finite"),
    "sampled-phi-empty": (
        lambda: SampledPhi([]), ContractError,
        "need at least one noise sample"),
    "lepskii-of-an-empty-history": (
        lambda: lepskii_from_history(
            RunHistory([], "MaxNewton", "irgnm-prec"), 1.0),
        ContractError, "history holds no records"),
    "dense-jacobian-without-access": (
        lambda: _problem_without_dense_access().jacobian_matrix(),
        OracleRefusal, "problem carries no dense operator access"),
    "diagonal-problem-of-scale-0": (
        lambda: make_diagonal_problem(scale=0.0), ContractError,
        "scale must be positive and finite"),
    "noise-of-negative-sigma": (
        lambda: generate_noise(-1.0, 3), ContractError,
        "sigma must be nonnegative"),
    "oracle-of-a-vector": (
        lambda: DenseOracle(np.ones(3)), ContractError,
        "oracle needs a dense 2-D operator"),
    "oracle-tikhonov-at-gamma-0": (
        lambda: DenseOracle(np.eye(3)).tikhonov_solve(0.0, np.ones(3)),
        ContractError, "gamma must be positive"),
}


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal_names_its_cause(call, kind, message):
    with pytest.raises(kind, match=re.escape(message)) as info:
        call()
    assert type(info.value) is kind
    # every refusal but the CLI's own is a ContractError
    assert isinstance(info.value, ContractError) is (kind is not ConfigError)


def test_adjoint_mismatch_of_a_zero_jacobian_is_zero():
    # Every pair has a zero normalization, so none contributes a defect.
    jac = linear_model(np.zeros((4, 3))).linearize(np.zeros(3))
    assert adjoint_mismatch(jac, np.random.default_rng(0)) == 0.0


def test_lambda_below_the_relative_floor_drops_its_left_vector():
    # 1e-20 is below 1e-14 times the largest value: the pair goes, and its
    # left vector with it.
    precond = SpectralPreconditioner(1.0, [1.0, 1e-20], np.eye(3)[:, :2],
                                     left_vectors=np.eye(4)[:, :2])
    np.testing.assert_array_equal(precond.lambdas, [1.0])
    np.testing.assert_array_equal(precond.vectors, np.eye(3)[:, :1])
    np.testing.assert_array_equal(precond.left_vectors, np.eye(4)[:, :1])
