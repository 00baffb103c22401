"""Matrix-free iterative regularization with incrementally updated spectral
preconditioners.

The package solves ill-posed operator equations F(x) = y from noisy data by
regularized Newton methods (iteratively regularized Gauss-Newton and
Levenberg-Marquardt variants) whose inner Tikhonov systems are handled by
conjugate gradients. One reorthogonalized Lanczos loop, which solves as CG
does, serves the estimate of the first regularization weight, every inner
solve without captured pairs (on the Jacobian, at the step's shift, the
first continuing the estimate) and every solve with them, preconditioned
in the inner product of their preconditioner. The Lanczos data of the accurate solves yield
approximate eigenpairs of the Gauss-Newton operator; these are frozen into a
spectral preconditioner that is cheaply updated across Newton steps while
the regularization weight decays. Stopping
is data driven: Morozov's discrepancy principle and a balancing (Lepskii-type)
rule fed by estimated noise-propagation curves. Landweber iteration and a
truncated Newton-CG method serve as baselines, and dense brute-force oracles
over small instances back every matrix-free claim in the test suite.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .krylov import (CgBreakdownError, CgTrace, RitzPair, pcg_solve,
                     ritz_from_trace, select_ritz)
from .operators import (IRGNM, LEVENBERG_MARQUARDT, ContractError,
                        ForwardModel, JacobianHandle, ModelCost,
                        TikhonovSystem, adjoint_mismatch, jacobian_fd_order)
from .preconditioner import (SpectralPreconditioner, SpectrumReport,
                             TwoSidedSystem, merge_pairs,
                             preconditioned_spectrum_check)
from .solvers import (RunHistory, RunRecord, irgnm_run, landweber_run,
                      newton_cg_run)
from .stopping import (DeterministicPhi, DiscrepancyDriver, PhiBudgetDriver,
                       SampledPhi, WhiteNoisePhi, discrepancy_stop,
                       lepskii_from_history, lepskii_select)
from .testbed import (DenseOracle, OracleRefusal, Problem, generate_noise,
                      make_convolution_problem, make_diagonal_problem,
                      make_nonlinear_composite, noise_sigma_for_level)

__all__ = [
    "__version__",
    # operators
    "ContractError", "ForwardModel", "JacobianHandle", "ModelCost",
    "TikhonovSystem", "IRGNM", "LEVENBERG_MARQUARDT", "adjoint_mismatch",
    "jacobian_fd_order",
    # krylov
    "CgBreakdownError", "CgTrace", "RitzPair", "pcg_solve",
    "ritz_from_trace", "select_ritz",
    # preconditioner
    "SpectralPreconditioner", "SpectrumReport", "TwoSidedSystem",
    "merge_pairs", "preconditioned_spectrum_check",
    # solvers
    "RunHistory", "RunRecord", "irgnm_run", "landweber_run", "newton_cg_run",
    # stopping
    "DeterministicPhi", "DiscrepancyDriver", "PhiBudgetDriver",
    "SampledPhi", "WhiteNoisePhi",
    "discrepancy_stop", "lepskii_from_history", "lepskii_select",
    # testbed
    "DenseOracle", "OracleRefusal", "Problem", "generate_noise",
    "make_convolution_problem", "make_diagonal_problem",
    "make_nonlinear_composite", "noise_sigma_for_level",
]
