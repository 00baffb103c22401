"""Discrepancy principle, propagated-noise estimators, and balancing rule."""

import numpy as np
import pytest

from helpers import linear_model
from iterreg.operators import ContractError
from iterreg.preconditioner import SpectralPreconditioner
from iterreg.solvers import RunHistory, RunRecord
from iterreg.stopping import (DeterministicPhi, DiscrepancyDriver,
                              FixedIndexDriver, PhiBudgetDriver, PhiWarning,
                              SampledPhi, WhiteNoisePhi, apply_R_app,
                              discrepancy_stop,
                              lepskii_from_history, lepskii_select,
                              phi_deterministic, phi_sampled, phi_white_noise)
from iterreg.testbed import generate_noise


def test_discrepancy_first_crossing():
    # residuals (5, 3, 1, 0.5) with tau*delta = 2 stop at index 2.
    assert discrepancy_stop([5.0, 3.0, 1.0, 0.5], tau=2.0, delta=1.0) == 2


def test_discrepancy_never_reached():
    assert discrepancy_stop([5.0, 4.0], tau=2.0, delta=0.1) is None


def test_discrepancy_validation():
    with pytest.raises(ContractError):
        discrepancy_stop([], 2.0, 1.0)
    with pytest.raises(ContractError):
        discrepancy_stop([1.0], 1.0, 1.0)
    with pytest.raises(ContractError):
        discrepancy_stop([1.0], 2.0, -1.0)


def test_phi_deterministic_value():
    assert phi_deterministic(0.5, 0.1) == pytest.approx(0.1)
    with pytest.raises(ContractError):
        phi_deterministic(0.0, 0.1)


def test_phi_white_noise_single_eigenvalue():
    # sigma sqrt(lambda / (gamma+lambda)^2) = sqrt(1/4) = 0.5
    assert phi_white_noise(1.0, [1.0], 1.0) == pytest.approx(0.5)


def test_phi_white_noise_empty_warns_zero():
    with pytest.warns(PhiWarning):
        assert phi_white_noise(1.0, [], 1.0) == 0.0


def test_phi_white_noise_grows_as_gamma_decays():
    lam = np.array([4.0, 1.0, 0.25])
    gammas = [2.0 ** (-k) for k in range(10)]
    values = [phi_white_noise(0.1, lam, g) for g in gammas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_deterministic_bound_dominates_white_noise_estimate():
    # With delta = sigma sqrt(N), gamma <= 1 and at most N eigenvalues, the
    # worst-case bound sits above the white-noise closed form.
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        j = int(rng.integers(1, n))
        lam = rng.uniform(1e-4, 10.0, size=j)
        sigma = float(rng.uniform(0.01, 2.0))
        gamma = float(rng.uniform(1e-4, 1.0))
        det = phi_deterministic(gamma, sigma * np.sqrt(n))
        white = phi_white_noise(sigma, lam, gamma)
        assert white <= det * (1.0 + 1e-12)


def test_apply_R_app_matches_dense_surrogate_and_costs_nothing():
    rng = np.random.default_rng(12)
    n, m = 10, 6
    a = rng.standard_normal((n, m))
    model = linear_model(a)
    jac = model.linearize(np.zeros(m))
    w, v = np.linalg.eigh(a.T @ a)
    lam = w[::-1][:3].copy()
    u = v[:, ::-1][:, :3].copy()
    gamma = 0.3
    p = SpectralPreconditioner(gamma, lam, u).attach_left_vectors(jac)

    dense_r = np.zeros((m, n))
    for jdx in range(3):
        img = a @ u[:, jdx]
        wj = img / np.linalg.norm(img)
        dense_r += (np.sqrt(lam[jdx]) / (gamma + lam[jdx])) \
            * np.outer(u[:, jdx], wj)

    eps = rng.standard_normal(n)
    cost_before = model.cost.total
    out = apply_R_app(p, eps)
    assert model.cost.total == cost_before
    np.testing.assert_allclose(out, dense_r @ eps, rtol=1e-12, atol=1e-14)


def test_apply_R_app_requires_left_vectors():
    p = SpectralPreconditioner(1.0, [1.0], [np.array([1.0, 0.0])])
    with pytest.raises(ContractError):
        apply_R_app(p, np.ones(4))


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
    estimate = phi_sampled(p, samples)
    exact = phi_white_noise(sigma, w, gamma)
    assert estimate == pytest.approx(exact, rel=0.1)


def test_phi_sampled_gamma_override():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 4))
    model = linear_model(a)
    jac = model.linearize(np.zeros(4))
    w, v = np.linalg.eigh(a.T @ a)
    p = SpectralPreconditioner(1.0, w[::-1].copy(),
                               v[:, ::-1].copy()).attach_left_vectors(jac)
    samples = generate_noise(0.1, 8, count=10, seed=1)
    direct = phi_sampled(p.with_gamma(0.25), samples)
    via_arg = phi_sampled(p, samples, gamma_k=0.25)
    assert direct == pytest.approx(via_arg, rel=1e-14)


def test_lepskii_hand_case_matches_brute_force():
    iterates = [np.array([0.0]), np.array([1.0]), np.array([1.05]),
                np.array([3.0])]
    phis = [0.01, 0.1, 0.5, 1.0]
    rho = 4.1

    def brute_force():
        k_max = len(iterates) - 1
        for k in range(k_max + 1):
            ok = True
            for m in range(k + 1, k_max + 1):
                if np.linalg.norm(iterates[k] - iterates[m]) > rho * phis[m]:
                    ok = False
                    break
            if ok:
                return k
        return k_max

    got = lepskii_select(iterates, phis, rho)
    assert got == brute_force()
    # x_0 fails against x_3 (3 > 4.1*1 is false) -> check the hand value too:
    # |x_0-x_1|=1 <= 0.41? no. |x_1-x_2|=0.05 <= 2.05 and |x_1-x_3|=2 <= 4.1,
    # so k=1 balances.
    assert got == 1


def test_lepskii_random_against_brute_force():
    rng = np.random.default_rng(71)
    for trial in range(25):
        count = int(rng.integers(1, 12))
        iterates = [rng.standard_normal(3) for _ in range(count)]
        phis = np.sort(rng.uniform(0.01, 2.0, size=count)).tolist()
        rho = float(rng.uniform(4.01, 8.0))
        k_max = count - 1
        expected = k_max
        for k in range(count):
            if all(np.linalg.norm(iterates[k] - iterates[m]) <= rho * phis[m]
                   for m in range(k + 1, count)):
                expected = k
                break
        assert lepskii_select(iterates, phis, rho) == expected


def test_lepskii_validation():
    x = [np.zeros(2), np.ones(2)]
    with pytest.raises(ContractError):
        lepskii_select(x, [0.1], 4.1)
    with pytest.raises(ContractError):
        lepskii_select(x, [0.1, 0.2], 4.0)
    with pytest.raises(ContractError):
        lepskii_select([], [], 4.1)


def test_lepskii_last_index_vacuous():
    # With a huge jump right at the end, only k = K_max satisfies the
    # (vacuous) condition.
    iterates = [np.array([0.0]), np.array([100.0])]
    assert lepskii_select(iterates, [0.01, 0.01], 4.1) == 1


def test_estimators_before_first_build_return_zero():
    assert WhiteNoisePhi(1.0).evaluate(0.5, None) == 0.0
    assert SampledPhi([np.ones(3)]).evaluate(0.5, None) == 0.0
    assert DeterministicPhi(0.1).evaluate(0.5, None) == pytest.approx(0.1)


def test_stop_drivers():
    disc = DiscrepancyDriver(2.0, 0.5)
    assert not disc(k=0, x=None, residual_norm=1.5, phi=None)
    assert disc(k=1, x=None, residual_norm=1.0, phi=None)
    budget = PhiBudgetDriver(0.3)
    assert not budget(k=0, x=None, residual_norm=1.0, phi=0.3)
    assert budget(k=1, x=None, residual_norm=1.0, phi=0.31)
    assert not budget(k=2, x=None, residual_norm=1.0, phi=None)
    fixed = FixedIndexDriver(2)
    assert not fixed(k=1, x=None, residual_norm=1.0, phi=None)
    assert fixed(k=2, x=None, residual_norm=1.0, phi=None)
    with pytest.raises(ContractError):
        DiscrepancyDriver(1.0, 0.5)
    with pytest.raises(ContractError):
        PhiBudgetDriver(0.0)
    with pytest.raises(ContractError):
        FixedIndexDriver(-1)


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
    assert lepskii_from_history(history, rho=4.1, bound=2.0) == 1
    with pytest.raises(ContractError):
        lepskii_from_history(history, rho=4.1, bound=0.001)


def test_lepskii_from_history_requires_phi():
    history = _history_from([[0.0], [1.0]], [0.1, None])
    with pytest.raises(ContractError):
        lepskii_from_history(history, rho=4.1, bound=1.0)
