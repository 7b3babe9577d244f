import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp
from scipy.stats import norm

from dpem.data import BoundedDataset, _uniform_ball, preprocess
from dpem.dataio import synth_mog
from dpem.errors import DegenerateComponentError, SingularCovarianceError
from dpem.mog import (
    PSD_FLOOR,
    MapPrior,
    MoGParams,
    Responsibilities,
    e_step,
    fit_em,
    init_params,
    log_likelihood,
    m_step_map,
    m_step_mle,
)


def mk_params(weights, means, covs):
    return MoGParams(np.asarray(weights, float), np.asarray(means, float),
                     np.asarray(covs, float))


def small_data():
    rng = np.random.default_rng(0)
    return BoundedDataset(rng.uniform(-0.4, 0.4, size=(10, 2)))


# --- e_step -----------------------------------------------------------------


def test_e_step_single_component_all_ones():
    data = small_data()
    params = mk_params([1.0], [[0.0, 0.0]], [np.eye(2)])
    resp = e_step(data, params)
    np.testing.assert_allclose(resp.gamma, 1.0)


def test_e_step_symmetric_components_split_evenly():
    data = BoundedDataset(np.array([[0.0, 0.0]]))
    params = mk_params([0.5, 0.5], [[-0.5, 0.0], [0.5, 0.0]],
                       [np.eye(2), np.eye(2)])
    resp = e_step(data, params)
    np.testing.assert_allclose(resp.gamma, [[0.5, 0.5]], atol=1e-12)


def test_e_step_matches_scalar_density_oracle():
    # independent oracle: scipy's scalar normal pdf, no log-sum-exp
    data = BoundedDataset(np.array([[0.5]]))
    params = mk_params([0.5, 0.5], [[-1.0], [1.0]],
                       [np.array([[1.0]]), np.array([[1.0]])])
    p1 = 0.5 * norm.pdf(0.5, loc=-1.0, scale=1.0)
    p2 = 0.5 * norm.pdf(0.5, loc=1.0, scale=1.0)
    expected = np.array([p1, p2]) / (p1 + p2)
    resp = e_step(data, params)
    np.testing.assert_allclose(resp.gamma[0], expected, atol=1e-12)


def test_e_step_rows_sum_to_one():
    rng = np.random.default_rng(3)
    data = BoundedDataset(rng.uniform(-0.3, 0.3, size=(200, 3)))
    params = init_params(data, 4, rng)
    resp = e_step(data, params)
    np.testing.assert_allclose(resp.gamma.sum(axis=1), 1.0, atol=1e-12)


def test_e_step_handles_zero_weight():
    data = small_data()
    params = mk_params([0.0, 1.0], [[0.0, 0.0], [0.1, 0.1]],
                       [np.eye(2), np.eye(2)])
    resp = e_step(data, params)
    np.testing.assert_allclose(resp.gamma[:, 0], 0.0)


# --- numpy E-step against the per-component scipy computation -----------------


def reference_log_joint(X, params):
    """log(pi_k) + log N(x_i | mu_k, Sigma_k) one component at a time, with
    scipy's Cholesky and triangular solve; also the Mahalanobis distances."""
    n, d = X.shape
    out = np.empty((n, params.n_components))
    dist = np.empty_like(out)
    for k in range(params.n_components):
        chol = cholesky(params.covariances[k], lower=True)
        solved = solve_triangular(chol, (X - params.means[k]).T, lower=True)
        maha = (solved ** 2).sum(axis=0)
        with np.errstate(divide="ignore"):
            log_w = np.log(params.weights[k])
        out[:, k] = log_w - 0.5 * (d * np.log(2.0 * np.pi)
                                   + 2.0 * np.log(np.diag(chol)).sum() + maha)
        dist[:, k] = np.sqrt(maha)
    return out, dist


def log_density_tolerance(X, params, dist):
    """Bound on |numpy - scipy| for each log density, fixed from float64
    epsilon and each covariance's condition number kappa_k.

    The numpy path whitens with the inverse factor L_k^{-1}, whose relative
    error is about d * eps * cond(L_k) = d * eps * sqrt(kappa_k); applied to
    x_i and mu_k it errs by that times ||L_k^{-1}|| (|x_i| + |mu_k|), and the
    log density moves by the Mahalanobis distance r_ik times that. The
    scipy path's triangular solve and log-determinant err by about
    d * eps * kappa_k (r_ik^2 + d). The factor 8 covers the constants.
    """
    eps = np.finfo(float).eps
    d = X.shape[1]
    eig = np.linalg.eigvalsh(params.covariances)
    kappa = eig[:, -1] / eig[:, 0]
    inv_norm = 1.0 / np.sqrt(eig[:, 0])
    reach = np.linalg.norm(X, axis=1)[:, None] \
        + np.linalg.norm(params.means, axis=1)[None, :]
    return 8.0 * eps * d * (np.sqrt(kappa) * inv_norm * reach * (dist + 1.0)
                            + kappa * (dist ** 2 + d))


def random_mixture(d, K, rng):
    """Rotated covariances with eigenvalues in [1e-2, 1], except that
    component 1 sits wholly at the PSD floor and components 2, 5, 8 have
    their smallest eigenvalue on it; the last component has zero weight when
    K > 1. Means lie close together, so many rows split their
    responsibility. Rows are drawn around each mean and uniformly in the
    ball."""
    covs = np.empty((K, d, d))
    for k in range(K):
        vals = 10.0 ** rng.uniform(-2.0, 0.0, size=d)
        if k == 1:
            vals[:] = PSD_FLOOR
        elif k % 3 == 2:
            vals[0] = PSD_FLOOR
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        cov = (q * vals) @ q.T
        covs[k] = 0.5 * (cov + cov.T)
    means = rng.uniform(-0.2, 0.2, size=(K, d)) / np.sqrt(d)
    weights = rng.uniform(0.5, 1.0, size=K)
    if K > 1:
        weights[-1] = 0.0
    params = mk_params(weights / weights.sum(), means, covs)
    near = np.concatenate([
        means[k] + rng.normal(size=(20, d)) @ np.linalg.cholesky(covs[k]).T
        for k in range(K)])
    far = rng.uniform(-1.0, 1.0, size=(60, d)) / np.sqrt(d)
    X = np.concatenate([near, far])
    X /= np.maximum(np.linalg.norm(X, axis=1), 1.0)[:, None]
    return BoundedDataset(X), params


@pytest.mark.parametrize("K", [1, 3, 10])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_e_step_and_log_likelihood_match_scipy_reference(d, K):
    rng = np.random.default_rng(100 * d + K)
    data, params = random_mixture(d, K, rng)
    log_joint, dist = reference_log_joint(data.rows, params)
    tol = log_density_tolerance(data.rows, params, dist)
    row_ll = logsumexp(log_joint, axis=1)
    gamma = np.exp(log_joint - row_ll[:, None])
    # first-order effect of the log-density errors on each responsibility,
    # d gamma_ik = gamma_ik ((1 - gamma_ik) dl_ik - sum_{j != k} gamma_ij dl_ij),
    # plus rounding in log_joint - row_ll and in the normalisation
    others = (gamma * tol).sum(axis=1, keepdims=True) - gamma * tol
    resp_tol = gamma * ((1.0 - gamma) * tol + others) \
        + 4.0 * np.finfo(float).eps * (K + np.abs(row_ll))[:, None]
    err = np.abs(e_step(data, params).gamma - gamma)
    assert (err <= resp_tol).all(), float((err / resp_tol).max())
    ll_tol = (gamma * tol).sum() \
        + 4.0 * np.finfo(float).eps * np.log2(data.n) * np.abs(row_ll).sum()
    assert abs(log_likelihood(data, params) - row_ll.sum()) <= ll_tol


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.0], [0.0, -5e-10]]),  # passes validation at floor 0
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
])
def test_singular_covariance_names_its_component(bad):
    covs = np.stack([np.eye(2), np.eye(2), bad])
    params = MoGParams(np.full(3, 1.0 / 3), np.zeros((3, 2)), covs,
                       psd_floor=0.0)
    for fn in (e_step, log_likelihood):
        with pytest.raises(SingularCovarianceError) as info:
            fn(small_data(), params)
        assert info.value.component == 2


# --- m_step_mle ---------------------------------------------------------------


def test_m_step_mle_sample_moments():
    data = BoundedDataset(np.array([[0.5], [-0.5]]))
    resp = Responsibilities(np.ones((2, 1)))
    params = m_step_mle(data, resp)
    np.testing.assert_allclose(params.weights, [1.0])
    np.testing.assert_allclose(params.means, [[0.0]], atol=1e-15)
    np.testing.assert_allclose(params.covariances, [[[0.25]]])


def test_m_step_mle_empty_cluster_raises():
    data = small_data()
    gamma = np.zeros((10, 2))
    gamma[:, 0] = 1.0
    with pytest.raises(DegenerateComponentError) as err:
        m_step_mle(data, Responsibilities(gamma))
    assert err.value.component == 1


def test_m_step_mle_matches_weighted_moment_oracle():
    rng = np.random.default_rng(7)
    X = rng.uniform(-0.5, 0.5, size=(10, 2))
    gamma = rng.dirichlet([1.0, 1.0], size=10)
    params = m_step_mle(BoundedDataset(X), Responsibilities(gamma))
    for k in range(2):
        nk = sum(gamma[i, k] for i in range(10))
        mean = sum(gamma[i, k] * X[i] for i in range(10)) / nk
        cov = sum(gamma[i, k] * np.outer(X[i] - mean, X[i] - mean)
                  for i in range(10)) / nk
        assert abs(params.weights[k] - nk / 10) < 1e-10
        assert np.abs(params.means[k] - mean).max() < 1e-10
        assert np.abs(params.covariances[k] - cov).max() < 1e-10


def test_m_step_mle_one_hot_equals_per_cluster_moments():
    rng = np.random.default_rng(11)
    X = rng.uniform(-0.5, 0.5, size=(20, 2))
    labels = rng.integers(0, 2, size=20)
    gamma = np.eye(2)[labels]
    params = m_step_mle(BoundedDataset(X), Responsibilities(gamma))
    for k in range(2):
        sel = X[labels == k]
        np.testing.assert_allclose(params.means[k], sel.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(params.covariances[k],
                                   np.cov(sel.T, bias=True), atol=1e-12)


# --- m_step_map ---------------------------------------------------------------


def test_m_step_map_approaches_mle_for_large_n():
    rng = np.random.default_rng(5)
    X = rng.normal(scale=0.1, size=(100_000, 2))
    X += np.array([0.2, -0.1])
    data = preprocess(X)
    resp = Responsibilities(np.ones((data.n, 1)))
    mle = m_step_mle(data, resp)
    mapped = m_step_map(data, resp, MapPrior.default(1, 2))
    rel = np.abs(mapped.means - mle.means).max() / np.abs(mle.means).max()
    assert rel < 1e-4


def test_m_step_map_empty_component_keeps_prior_mass():
    data = small_data()
    gamma = np.zeros((10, 2))
    gamma[:, 0] = 1.0
    prior = MapPrior.default(2, 2)
    params = m_step_map(data, Responsibilities(gamma), prior)
    n, alpha_sum, k = 10, 4.0, 2
    assert params.weights[1] == pytest.approx(1.0 / (n + alpha_sum - k))
    assert params.weights[1] > 0


def test_m_step_map_single_point_hand_value():
    # hand evaluation with N_k=1, mean 0: numerator is S0 alone and the
    # denominator is nu0 + N_k + d + 2 = 3 + 1 + 1 + 2 = 7
    data = BoundedDataset(np.array([[0.0]]))
    resp = Responsibilities(np.ones((1, 1)))
    params = m_step_map(data, resp, MapPrior.default(1, 1))
    assert params.covariances[0, 0, 0] == pytest.approx(0.1 / 7.0)


# --- log_likelihood -----------------------------------------------------------


def test_log_likelihood_standard_normal_at_mode():
    data = BoundedDataset(np.array([[0.0]]))
    params = mk_params([1.0], [[0.0]], [np.array([[1.0]])])
    assert log_likelihood(data, params) == pytest.approx(-0.5 * np.log(2 * np.pi))


def test_log_likelihood_duplication_doubles_total():
    rng = np.random.default_rng(2)
    X = rng.uniform(-0.4, 0.4, size=(30, 2))
    params = init_params(BoundedDataset(X), 2, np.random.default_rng(0))
    single = log_likelihood(BoundedDataset(X), params)
    double = log_likelihood(BoundedDataset(np.vstack([X, X])), params)
    assert double == pytest.approx(2.0 * single, rel=1e-12)


def test_log_likelihood_matches_direct_density_oracle():
    rng = np.random.default_rng(9)
    X = rng.uniform(-0.4, 0.4, size=(25, 2))
    data = BoundedDataset(X)
    params = init_params(data, 3, np.random.default_rng(1))
    total = 0.0
    for x in X:
        dens = 0.0
        for k in range(3):
            cov = params.covariances[k]
            diff = x - params.means[k]
            quad = diff @ np.linalg.inv(cov) @ diff
            dens += params.weights[k] * np.exp(-0.5 * quad) / (
                2 * np.pi * np.sqrt(np.linalg.det(cov)))
        total += np.log(dens)
    assert log_likelihood(data, params) == pytest.approx(total, abs=1e-10)


# --- init_params ---------------------------------------------------------------


class RowlessData:
    """A dataset that has a dimension but refuses to show a row."""

    d = 3

    @property
    def rows(self):
        raise AssertionError("init_params read a data row")


def test_init_params_reads_no_row():
    params = init_params(RowlessData(), 4, np.random.default_rng(0))
    assert isinstance(params, MoGParams)
    # the same draws as a k-means seed from the same stream
    np.testing.assert_array_equal(params.means,
                                  _uniform_ball(4, 3, np.random.default_rng(0)))
    np.testing.assert_array_equal(params.covariances, np.stack([np.eye(3) / 3] * 4))
    np.testing.assert_array_equal(params.weights, np.full(4, 0.25))


# --- EM loop -------------------------------------------------------------------


def test_em_monotone_likelihood():
    raw, _ = synth_mog(500, 2, 2, separation=3.0, seed=4)
    data = preprocess(raw)
    rng = np.random.default_rng(0)
    params = init_params(data, 2, rng)
    prev = log_likelihood(data, params)
    for _ in range(15):
        params = m_step_mle(data, e_step(data, params))
        cur = log_likelihood(data, params)
        assert cur >= prev - 1e-8
        prev = cur


def test_fit_em_runs_fixed_iterations_map():
    raw, _ = synth_mog(400, 2, 2, separation=4.0, seed=8)
    data = preprocess(raw)
    params = fit_em(data, 2, 10, estimator="map", seed=1)
    assert params.weights.shape == (2,)
    assert abs(params.weights.sum() - 1.0) < 1e-9


def test_params_invariant_validation():
    with pytest.raises(ValueError):
        mk_params([0.6, 0.6], [[0.0], [0.0]],
                  [np.array([[1.0]]), np.array([[1.0]])])
    with pytest.raises(ValueError):
        mk_params([1.0], [[0.0, 0.0]], [np.array([[1.0, 0.0], [0.0, -1.0]])])
