import numpy as np
import pytest

from dpem.accountant import PrivacyBudget
from dpem.data import BoundedDataset, preprocess
from dpem.errors import DataError, UnattainableBudgetError
from dpem.fa import (
    PSI_FLOOR,
    FAParams,
    SecondMoment,
    fa_average_log_likelihood,
    perturb_second_moment,
    run_fa_em,
    second_moment,
)


def planted_moment(d=6, q=2, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(d, q)) * 0.3
    psi = rng.uniform(0.05, 0.2, size=d)
    lam = w @ w.T + np.diag(psi)
    return SecondMoment(0.5 * (lam + lam.T), 1000), w, psi


def test_second_moment_single_row():
    mom = second_moment(BoundedDataset(np.array([[1.0, 0.0]])))
    np.testing.assert_allclose(mom.matrix, [[1.0, 0.0], [0.0, 0.0]])


def test_second_moment_orthonormal_rows():
    mom = second_moment(BoundedDataset(np.array([[1.0, 0.0], [0.0, 1.0]])))
    np.testing.assert_allclose(mom.matrix, 0.5 * np.eye(2))


def test_second_moment_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.4, 0.4, size=(40, 3))
    mom = second_moment(BoundedDataset(X))
    oracle = np.zeros((3, 3))
    for row in X:
        oracle += np.outer(row, row)
    oracle /= 40
    np.testing.assert_allclose(mom.matrix, oracle, atol=1e-12)


def test_perturb_second_moment_symmetric_psd_single_record():
    rng = np.random.default_rng(0)
    X = rng.uniform(-0.4, 0.4, size=(50, 3))
    mom = second_moment(BoundedDataset(X))
    noised, trace = perturb_second_moment(mom, PrivacyBudget(0.3, 1e-4),
                                          np.random.default_rng(1))
    assert len(trace) == 1
    assert trace[0].kind == "gaussian"
    assert trace[0].sensitivity == pytest.approx(2.0 / 50)
    assert np.array_equal(noised.matrix, noised.matrix.T)
    assert np.linalg.eigvalsh(noised.matrix).min() >= 1e-6 - 1e-9


def test_perturb_second_moment_rejects_eps_at_least_one():
    mom = SecondMoment(np.eye(2) * 0.1, 10)
    with pytest.raises(UnattainableBudgetError):
        perturb_second_moment(mom, PrivacyBudget(1.5, 1e-4),
                              np.random.default_rng(0))


def test_run_fa_em_recovers_planted_model():
    mom, w_true, psi_true = planted_moment()
    params = run_fa_em(mom, 2, iters=20_000, tol=1e-12)
    resid = np.linalg.norm(params.model_covariance() - mom.matrix, "fro")
    assert resid < 1e-6


def test_run_fa_em_zero_factors():
    mom, _, _ = planted_moment()
    params = run_fa_em(mom, 0)
    np.testing.assert_allclose(params.psi, np.diag(mom.matrix))
    assert params.loading.shape == (6, 0)


def test_run_fa_em_depends_only_on_moment():
    mom, _, _ = planted_moment(seed=5)
    a = run_fa_em(mom, 2, iters=50)
    b = run_fa_em(SecondMoment(mom.matrix.copy(), mom.n), 2, iters=50)
    np.testing.assert_array_equal(a.loading, b.loading)


def test_run_fa_em_monotone_likelihood():
    mom, _, _ = planted_moment(seed=7)
    lls = []
    for iters in range(1, 25):
        params = run_fa_em(mom, 2, iters=iters, tol=0.0)
        lls.append(fa_average_log_likelihood(mom, params))
    for a, b in zip(lls, lls[1:]):
        assert b >= a - 1e-8


def test_model_covariance_psd_at_every_iterate():
    mom, _, _ = planted_moment(seed=11)
    for iters in (1, 3, 10, 40):
        params = run_fa_em(mom, 3, iters=iters, tol=0.0)
        cov = params.model_covariance()
        assert np.abs(cov - cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(cov).min() > 0


def test_fa_params_validation():
    with pytest.raises(ValueError):
        FAParams(np.full((4, 2), 0.3), np.full(3, 0.1))  # d mismatch
    with pytest.raises(ValueError):
        FAParams(np.full((4, 2), 0.3), np.full(4, PSI_FLOOR / 2))
    mom, _, _ = planted_moment()
    params = run_fa_em(mom, 2)
    w, psi = params.loading, params.psi
    g = np.linalg.inv(np.eye(2) + (w.T / psi) @ w)
    np.testing.assert_array_equal(params.posterior_cov, 0.5 * (g + g.T))
    zero = run_fa_em(mom, 0)
    assert zero.loading.shape == (6, 0)
    assert zero.posterior_cov.shape == (0, 0)
    np.testing.assert_array_equal(zero.psi, np.maximum(np.diag(mom.matrix), PSI_FLOOR))


@pytest.mark.parametrize("loading, psi", [
    (np.full((3, 1), np.nan), np.full(3, 0.1)),
    (np.full((3, 1), 0.3), np.full(3, np.nan)),
    (np.full((3, 1), 0.3), np.full(3, np.inf)),
])
def test_fa_params_reject_non_finite(loading, psi):
    with pytest.raises(ValueError):
        FAParams(loading, psi)


@pytest.mark.parametrize("matrix, n", [
    (np.full((2, 2), np.nan), 10),
    (np.diag([np.inf, 1.0]), 10),
    (np.eye(2), float("nan")),
    (np.ones((2, 3)), 10),
])
def test_second_moment_rejects_nan(matrix, n):
    with pytest.raises(DataError):
        SecondMoment(matrix, n)


def test_run_fa_em_rejects_bad_latent_dim():
    mom, _, _ = planted_moment()
    with pytest.raises(ValueError):
        run_fa_em(mom, 6)


def test_run_fa_em_rejects_indefinite_moment():
    with pytest.raises(DataError):
        run_fa_em(SecondMoment(np.diag([1.0, -0.5]), 10), 1)


def test_dp_fa_pipeline_smoke():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(500, 2))
    w = np.array([[0.5, 0.0], [0.3, 0.2], [0.0, 0.4], [0.1, 0.1]])
    raw = z @ w.T + rng.normal(scale=0.1, size=(500, 4))
    data = preprocess(raw)
    mom = second_moment(data)
    noised, trace = perturb_second_moment(mom, PrivacyBudget(0.5, 1e-4),
                                          np.random.default_rng(3))
    params = run_fa_em(noised, 2)
    assert len(trace) == 1  # however many EM iterations ran
    assert np.isfinite(fa_average_log_likelihood(mom, params))
