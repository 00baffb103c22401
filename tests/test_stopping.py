"""Discrepancy principle, propagated-noise estimators, and balancing rule."""

import numpy as np
import pytest

from helpers import linear_model
from iterreg.operators import ContractError
from iterreg.preconditioner import SpectralPreconditioner
from iterreg.solvers import RunHistory, RunRecord, irgnm_run
from iterreg.stopping import (RHO, TAU, DeterministicPhi, DiscrepancyDriver,
                              PhiBudgetDriver, SampledPhi, WhiteNoisePhi,
                              discrepancy_stop, lepskii_from_history,
                              lepskii_select)
from iterreg.testbed import (DenseOracle, generate_noise,
                             make_diagonal_problem, noise_sigma_for_level)


def test_discrepancy_first_crossing():
    # residuals (5, 3, 1, 0.5) with TAU * delta = 2 stop at index 2.
    assert TAU == 2.0
    assert discrepancy_stop([5.0, 3.0, 1.0, 0.5], delta=1.0) == 2


def test_discrepancy_never_reached():
    assert discrepancy_stop([5.0, 4.0], delta=0.1) is None


def test_discrepancy_validation():
    with pytest.raises(ContractError):
        discrepancy_stop([], 1.0)
    with pytest.raises(ContractError):
        discrepancy_stop([1.0], -1.0)


def _pairs(lambdas):
    """Pair set with the given eigenvalues on the unit vectors."""
    return SpectralPreconditioner(1.0, lambdas, np.eye(len(lambdas)))


def test_phi_deterministic_value():
    # delta / (2 sqrt(gamma)) = 0.1 / (2 * 0.5)
    assert DeterministicPhi(0.1).evaluate(0.25) == pytest.approx(0.1)
    with pytest.raises(ContractError):
        DeterministicPhi(0.1).evaluate(0.0)


def test_phi_deterministic_is_the_regularized_inverse_norm():
    # ||(A^T A + gamma I)^{-1} A^T|| = max_s s / (s^2 + gamma), attained at
    # s = sqrt(gamma); on either side of gamma = 1 the bound with delta = 1
    # is that norm when sqrt(gamma) is a singular value, and above it when
    # it is not.
    def norm(singular, gamma):
        r = DenseOracle(np.diag(singular)).r_matrix(gamma)
        return np.linalg.norm(r, 2)

    for gamma in (0.01, 4.0):
        bound = DeterministicPhi(1.0).evaluate(gamma)
        attained = norm([0.05, np.sqrt(gamma), 5.0], gamma)
        assert bound == pytest.approx(attained, rel=1e-12)
        assert norm([0.05, 5.0], gamma) < bound


def test_estimators_reject_nonpositive_gamma():
    p = _pairs([1.0])
    for estimator in (DeterministicPhi(0.1), WhiteNoisePhi(1.0),
                      SampledPhi([np.ones(3)])):
        for gamma in (0.0, -1.0, np.nan):
            with pytest.raises(ContractError, match="gamma_k"):
                estimator.evaluate(gamma, p)
            with pytest.raises(ContractError, match="gamma_k"):
                estimator.evaluate(gamma, None)


def test_phi_white_noise_single_eigenvalue():
    # sigma sqrt(lambda / (gamma+lambda)^2) = sqrt(1/4) = 0.5
    assert WhiteNoisePhi(1.0).evaluate(1.0, _pairs([1.0])) \
        == pytest.approx(0.5)


def test_phi_white_noise_grows_as_gamma_decays():
    p = _pairs([4.0, 1.0, 0.25])
    gammas = [2.0 ** (-k) for k in range(10)]
    values = [WhiteNoisePhi(0.1).evaluate(g, p) for g in gammas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_deterministic_bound_dominates_white_noise_estimate():
    # With delta = sigma sqrt(N) and at most N eigenvalues, the worst-case
    # bound sits above the white-noise closed form: each term
    # lambda / (gamma + lambda)^2 is at most 1 / (4 gamma).
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        j = int(rng.integers(1, n))
        p = _pairs(rng.uniform(1e-4, 10.0, size=j))
        sigma = float(rng.uniform(0.01, 2.0))
        gamma = float(rng.uniform(1e-4, 1.0))
        det = DeterministicPhi(sigma * np.sqrt(n)).evaluate(gamma, p)
        white = WhiteNoisePhi(sigma).evaluate(gamma, p)
        assert white <= det * (1.0 + 1e-12)


def test_phi_sampled_exact_pairs_match_trace_formula():
    # With the complete exact eigenset, R^app equals the true regularized
    # inverse composed with the projector onto the data-space images, and the
    # sampled estimate converges to the white-noise value as L grows.
    rng = np.random.default_rng(44)
    n, m = 12, 5
    a = rng.standard_normal((n, m))
    model = linear_model(a)
    jac = model.linearize(np.zeros(m))
    w, v = np.linalg.eigh(a.T @ a)
    gamma = 0.5
    sigma = 0.3
    p = SpectralPreconditioner(gamma, w[::-1].copy(),
                               v[:, ::-1].copy()).attach_left_vectors(jac)
    samples = generate_noise(sigma, n, count=4000, seed=8)
    estimate = SampledPhi(samples).evaluate(gamma, p)
    exact = WhiteNoisePhi(sigma).evaluate(gamma, p)
    assert estimate == pytest.approx(exact, rel=0.1)


def test_phi_sampled_gamma_override():
    # Phi(k) is computed at the gamma_k it is given, whatever shift the pair
    # set carries.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 4))
    model = linear_model(a)
    jac = model.linearize(np.zeros(4))
    w, v = np.linalg.eigh(a.T @ a)
    p = SpectralPreconditioner(1.0, w[::-1].copy(),
                               v[:, ::-1].copy()).attach_left_vectors(jac)
    for estimator in (SampledPhi(generate_noise(0.1, 8, count=10, seed=1)),
                      WhiteNoisePhi(0.1)):
        assert estimator.evaluate(0.25, p) \
            == estimator.evaluate(0.25, p.with_gamma(2.0))
        assert estimator.evaluate(0.25, p) != estimator.evaluate(2.0, p)


def _exact_pairs_with_left_vectors(n, m, seed):
    a = np.random.default_rng(seed).standard_normal((n, m))
    model = linear_model(a)
    w, v = np.linalg.eigh(a.T @ a)
    p = SpectralPreconditioner(1.0, w[::-1].copy(), v[:, ::-1].copy())
    return model, p, p.attach_left_vectors(model.linearize(np.zeros(m)))


def test_phi_sampled_requires_left_vectors_of_the_sample_length():
    _, bare, p = _exact_pairs_with_left_vectors(40, 5, seed=2)
    samples = generate_noise(0.1, 40, count=3, seed=4)
    assert samples.shape == (3, 40)
    with pytest.raises(ContractError, match="attach_left_vectors"):
        SampledPhi(samples).evaluate(0.5, bare)
    with pytest.raises(ContractError, match="39.*40"):
        SampledPhi(samples[:, :39]).evaluate(0.5, p)
    with pytest.raises(ContractError, match="39.*40"):
        SampledPhi([np.ones(39)]).evaluate(0.5, p)
    with pytest.raises(ContractError):
        SampledPhi(samples[0])
    bad = samples.copy()
    bad[1, 7] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        SampledPhi(bad)


def test_sampled_phi_rejects_mixed_lengths():
    with pytest.raises(ContractError):
        SampledPhi([np.ones(40), np.ones(39)])
    with pytest.raises(ContractError):
        SampledPhi([np.ones(40), np.full(40, np.nan)])
    np.testing.assert_array_equal(SampledPhi([[1.0, 2.0], [3.0, 4.0]]).samples,
                                  [[1.0, 2.0], [3.0, 4.0]])


def test_irgnm_run_with_short_noise_samples_raises_contract_error():
    # The samples must live in the data space; on a range of 40 a sample of
    # length 39 is a contract violation, not a shape error inside numpy.
    model, _, _ = _exact_pairs_with_left_vectors(40, 5, seed=2)
    y = model.evaluate(np.ones(5))
    with pytest.raises(ContractError, match="39.*40"):
        irgnm_run(model, y, np.zeros(5),
                  phi_estimator=SampledPhi([np.ones(39)]))


def test_lepskii_hand_case_matches_brute_force():
    iterates = [np.array([0.0]), np.array([1.0]), np.array([1.05]),
                np.array([3.0])]
    phis = [0.01, 0.1, 0.5, 1.0]

    def brute_force():
        k_max = len(iterates) - 1
        for k in range(k_max + 1):
            ok = True
            for m in range(k + 1, k_max + 1):
                if np.linalg.norm(iterates[k] - iterates[m]) > RHO * phis[m]:
                    ok = False
                    break
            if ok:
                return k
        return k_max

    got = lepskii_select(iterates, phis)
    assert got == brute_force()
    # The hand value at RHO = 4.1: |x_0-x_1|=1 <= 0.41? no.
    # |x_1-x_2|=0.05 <= 2.05 and |x_1-x_3|=2 <= 4.1, so k=1 balances.
    assert got == 1


def test_lepskii_random_against_brute_force():
    rng = np.random.default_rng(71)
    for trial in range(25):
        count = int(rng.integers(1, 12))
        iterates = [rng.standard_normal(3) for _ in range(count)]
        phis = np.sort(rng.uniform(0.01, 2.0, size=count)).tolist()
        k_max = count - 1
        expected = k_max
        for k in range(count):
            if all(np.linalg.norm(iterates[k] - iterates[m]) <= RHO * phis[m]
                   for m in range(k + 1, count)):
                expected = k
                break
        assert lepskii_select(iterates, phis) == expected


def test_lepskii_validation():
    x = [np.zeros(2), np.ones(2)]
    with pytest.raises(ContractError):
        lepskii_select(x, [0.1])
    with pytest.raises(ContractError):
        lepskii_select([], [])


def test_lepskii_last_index_vacuous():
    # With a huge jump right at the end, only k = K_max satisfies the
    # (vacuous) condition.
    iterates = [np.array([0.0]), np.array([100.0])]
    assert lepskii_select(iterates, [0.01, 0.01]) == 1


def test_estimators_before_first_build_return_zero():
    # irgnm_run passes an empty pair set before its first build; it reads
    # the same as no pair set at all.
    for precond in (None, SpectralPreconditioner.empty(0.5, 3)):
        assert WhiteNoisePhi(1.0).evaluate(0.5, precond) == 0.0
        assert SampledPhi([np.ones(3)]).evaluate(0.5, precond) == 0.0
        assert DeterministicPhi(0.1).evaluate(0.25, precond) \
            == pytest.approx(0.1)


def test_stop_drivers():
    disc = DiscrepancyDriver(0.5)
    assert not disc(0, 1.5, None)
    assert disc(k=1, residual_norm=1.0, phi=None)
    budget = PhiBudgetDriver(0.3)
    assert not budget(0, 1.0, 0.3)
    assert budget(1, 1.0, 0.31)
    assert not budget(2, 1.0, None)
    # a NaN Phi counts as over budget, online as offline
    assert budget(3, 1.0, float("nan"))
    with pytest.raises(ContractError):
        DiscrepancyDriver(-0.5)
    with pytest.raises(ContractError):
        PhiBudgetDriver(0.0)


def _history_from(xs, phis):
    records = [
        RunRecord(k=k, m=0, gamma_k=1.0, x_k=np.asarray(x, float),
                  residual_norm=1.0, inner_iterations=1, cumulative_cost=k,
                  phi_k=phi, event="Plain")
        for k, (x, phi) in enumerate(zip(xs, phis))
    ]
    return RunHistory(records=records, terminal_reason="MaxNewton",
                      method="test")


def test_lepskii_from_history_truncates_at_budget():
    xs = [[0.0], [1.0], [1.05], [3.0], [50.0]]
    phis = [0.01, 0.1, 0.5, 1.0, 9.0]
    history = _history_from(xs, phis)
    # bound 2.0 truncates to K_max = 3, reproducing the hand case
    assert lepskii_from_history(history, bound=2.0) == 1
    # a NaN Phi ends the admissible range like an over-budget one
    nan_at_3 = _history_from(xs, phis[:3] + [float("nan"), 0.5])
    assert lepskii_from_history(nan_at_3, bound=2.0) == 1
    for bound in (0.0, -1.0):
        with pytest.raises(ContractError):
            lepskii_from_history(history, bound=bound)


def test_lepskii_from_history_phi0_over_budget_is_not_reached():
    # Phi(0) above the budget leaves no K_max, so the rule never fires, as
    # discrepancy_stop returns None when its rule never does; that holds
    # for the full run and for the one-record run that the budget driver
    # stops at k = 0.
    xs = [[0.0], [1.0], [1.05]]
    history = _history_from(xs, [0.01, 0.1, 0.5])
    assert lepskii_from_history(history, bound=0.001) is None
    assert lepskii_from_history(_history_from(xs[:1], [0.01]),
                                bound=0.001) is None


@pytest.mark.parametrize("variant, phi, level", [
    ("plain", "white", 0.02), ("plain", "sampled", 0.02),
    ("prec", "white", 0.0), ("prec", "deterministic", 0.0)],
    ids=["plain-white", "plain-sampled", "exact-white", "exact-deterministic"])
def test_lepskii_from_history_refuses_phi_zero_at_every_step(
        variant, phi, level):
    # irgnm-plain builds no pair set, so white and sampled Phi read 0 at
    # every step; exact data (sigma = delta = 0) zero every estimator.
    problem = make_diagonal_problem(m=20, n=30, seed=1)
    y_exact = problem.model.evaluate(problem.truth)
    sigma = noise_sigma_for_level(y_exact, level)
    y = y_exact + generate_noise(sigma, 30, seed=7)[0]
    estimator = {"white": WhiteNoisePhi(sigma),
                 "sampled": SampledPhi(generate_noise(sigma, 30, count=5)),
                 "deterministic": DeterministicPhi(sigma * np.sqrt(30))}[phi]
    history = irgnm_run(problem.model, y, np.zeros(20), variant=variant,
                        max_newton=12, phi_estimator=estimator)
    assert len(history.records) > 1
    assert {r.phi_k for r in history.records} == {0.0}
    with pytest.raises(ContractError, match="nothing to balance"):
        lepskii_from_history(history, bound=5.0)


def test_lepskii_from_history_one_record_with_phi_zero():
    # A run that ended at k = 0 (a breakdown there) has one record; its
    # balancing index is 0 whatever its Phi.
    assert lepskii_from_history(_history_from([[1.0]], [0.0]),
                                bound=1.0) == 0
    with pytest.raises(ContractError, match="nothing to balance"):
        lepskii_from_history(_history_from([[1.0], [2.0]], [0.0, 0.0]),
                             bound=1.0)


def test_lepskii_from_history_requires_phi():
    history = _history_from([[0.0], [1.0]], [0.1, None])
    with pytest.raises(ContractError):
        lepskii_from_history(history, bound=1.0)
