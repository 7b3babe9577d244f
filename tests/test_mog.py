import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp
from scipy.stats import norm

from dpem.accountant import PrivacyBudget
from dpem.data import BoundedDataset, _uniform_ball, preprocess
from dpem.dataio import synth_mog
from dpem.dpem_mog import DpEmConfig, _PrivateRelease, run_dpem_mog
from dpem.errors import DegenerateComponentError, SingularCovarianceError
from dpem.mechanisms import psd_project, unpack_triu
from dpem.mog import (
    EXP_FAST_MIN,
    EXP_ZERO_BELOW,
    PSD_FLOOR,
    MoGParams,
    Responsibilities,
    _log_joint,
    _reassign_degenerate,
    _shifted_exp,
    e_step,
    fit_em,
    init_params,
    log_likelihood,
    m_step,
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


def assert_matches_scipy_reference(data, params):
    """e_step and log_likelihood agree with the per-component scipy
    computation within the bounds of ``log_density_tolerance``."""
    K = params.n_components
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


@pytest.mark.parametrize("K", [1, 3, 10])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_e_step_and_log_likelihood_match_scipy_reference(d, K):
    rng = np.random.default_rng(100 * d + K)
    assert_matches_scipy_reference(*random_mixture(d, K, rng))


# --- component-major layout ---------------------------------------------------


@pytest.mark.parametrize("n, d, K", [(1, 1, 1), (1, 3, 4), (40, 1, 4), (40, 3, 1)])
def test_e_step_and_log_likelihood_match_reference_at_unit_sizes(n, d, K):
    rng = np.random.default_rng(10 * n + d + K)
    full, params = random_mixture(d, K, rng)
    assert_matches_scipy_reference(BoundedDataset(full.rows[rng.permutation(full.n)[:n]]),
                                   params)


def far_component_mixture():
    """Three components; the last sits so far from the unit ball, with a
    variance so small, that its density underflows to exactly 0 on every
    row."""
    rng = np.random.default_rng(21)
    data = BoundedDataset(0.5 * _uniform_ball(50, 2, rng))
    params = mk_params([0.4, 0.4, 0.2], [[-0.2, 0.0], [0.2, 0.1], [30.0, 30.0]],
                       [np.eye(2) * 0.05, np.eye(2) * 0.02, np.eye(2) * 1e-3])
    return data, params


def test_e_step_and_log_likelihood_match_reference_when_a_column_underflows():
    data, params = far_component_mixture()
    gamma = e_step(data, params).gamma
    np.testing.assert_array_equal(gamma[:, 2], 0.0)
    assert_matches_scipy_reference(data, params)


def test_e_step_gamma_is_a_column_major_view():
    data, params = far_component_mixture()
    gamma = e_step(data, params).gamma
    assert gamma.shape == (data.n, 3)
    assert gamma.flags.f_contiguous and not gamma.flags.c_contiguous


@pytest.mark.parametrize("map_estimate", [False, True])
def test_m_step_on_column_major_gamma_equals_row_major_copy(map_estimate):
    rng = np.random.default_rng(5)
    data, params = random_mixture(3, 4, rng)
    # every component keeps mass, so the MLE step divides by no zero count
    params = mk_params(np.full(4, 0.25), params.means, params.covariances)
    resp = e_step(data, params)
    copy = Responsibilities(np.ascontiguousarray(resp.gamma))
    assert copy.gamma.flags.c_contiguous
    got, want = m_step(data, resp, map_estimate), m_step(data, copy, map_estimate)
    # as in the pair-products test, scatter minus c m m^T cancels in a
    # near-zero covariance entry, so that entry is bounded by the largest
    for field in ("weights", "means", "covariances"):
        expected = getattr(want, field)
        np.testing.assert_allclose(getattr(got, field), expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


def test_reassign_degenerate_accepts_column_major_gamma():
    data, params = far_component_mixture()
    resp = e_step(data, params)
    assert resp.gamma.flags.f_contiguous
    out = _reassign_degenerate(resp, data.n, np.random.default_rng(0))
    donor = np.flatnonzero(out.gamma[:, 2])
    assert len(donor) == 1
    np.testing.assert_array_equal(out.gamma[donor[0]], [0.0, 0.0, 1.0])
    keep = np.setdiff1d(np.arange(data.n), donor)
    np.testing.assert_array_equal(out.gamma[keep], resp.gamma[keep])
    np.testing.assert_array_equal(out.counts[2], 1.0)


@pytest.mark.parametrize("case", [
    lambda: random_mixture(3, 4, np.random.default_rng(8)),
    far_component_mixture,
])
def test_e_step_gamma_passes_the_public_checks(case):
    # e_step skips Responsibilities' checks; its gamma must still pass them
    data, params = case()
    Responsibilities(e_step(data, params).gamma)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_e_step_refuses_a_row_without_positive_density():
    # a variance of 1e-310 makes the Mahalanobis distance of the first row
    # overflow, so its only component gives it density 0
    params = MoGParams(np.ones(1), np.zeros((1, 2)), np.eye(2)[None] * 1e-310,
                       psd_floor=0.0)
    data = BoundedDataset(np.array([[0.5, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        e_step(data, params)


# --- _shifted_exp's bands -----------------------------------------------------


def reference_shifted_exp(log_joint):
    """The plain form: one exp over the whole shifted matrix."""
    shift = log_joint.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    log_joint -= shift
    np.exp(log_joint, out=log_joint)
    return shift, log_joint, log_joint.sum(axis=0)


def band_matrix():
    """A (4, N) log joint whose columns each hold a 0 (so most shifts are
    0 and the values below are exact after the shift) and values in every
    band: the fast range, [-708.4, EXP_FAST_MIN), subnormal results, both
    constants, below EXP_ZERO_BELOW, -inf, NaN, then scattered uniform
    values over [-900, 0] and a column shifted by a finite maximum."""
    nan, inf = np.nan, np.inf
    cols = [
        [0.0, -1.5, -699.99, EXP_FAST_MIN],
        [0.0, -700.0000001, -707.9, -708.4],
        [0.0, -709.0, -730.5, -745.13],
        [0.0, -745.1, -742.0, -745.14],
        [0.0, -760.0, -799.999, EXP_ZERO_BELOW],
        [0.0, -800.0001, -1e4, -4e9],
        [0.0, -inf, -720.0, -3.0],
        [-inf, -inf, -inf, -inf],
        [nan, 0.0, -750.0, -1.0],
        [5.0, 5.0 - 705.0, 5.0 - 730.0, 5.0 - 900.0],
    ]
    rng = np.random.default_rng(3)
    scattered = rng.uniform(-900.0, 0.0, size=(4, 300))
    scattered[rng.integers(0, 4, size=300), np.arange(300)] = 0.0
    return np.concatenate([np.array(cols).T, scattered], axis=1)


def assert_shifted_exp_equals_reference(log_joint):
    got = _shifted_exp(log_joint.copy())
    want = reference_shifted_exp(log_joint.copy())
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def test_shifted_exp_equals_plain_exp_in_every_band():
    m = band_matrix()
    assert ((m >= EXP_ZERO_BELOW) & (m < EXP_FAST_MIN)).sum() > 20
    assert_shifted_exp_equals_reference(m)
    assert_shifted_exp_equals_reference(np.ascontiguousarray(m[:1]))  # K = 1
    for j in range(m.shape[1]):                                       # N = 1
        assert_shifted_exp_equals_reference(np.ascontiguousarray(m[:, j:j + 1]))


def test_e_step_and_log_likelihood_equal_plain_exp_on_a_private_fit():
    # one ggg iteration at eps = 0.5 floors covariance eigenvalues, so most
    # of the shifted log joint lies below EXP_FAST_MIN, a few entries in
    # the band
    raw, _ = synth_mog(2000, 5, 3, 1.0, seed=0)
    data = preprocess(raw)
    cfg = DpEmConfig(components=3, iterations=1, total=PrivacyBudget(0.5, 1e-4),
                     scenario="ggg", seed=2)
    params, _ = run_dpem_mog(data, cfg)
    assert (np.linalg.eigvalsh(params.covariances) < 1.001 * PSD_FLOOR).any()
    shift, shifted, col_sums = reference_shifted_exp(_log_joint(data, params))
    lj = _log_joint(data, params) - shift
    assert (lj < EXP_FAST_MIN).mean() > 0.5
    assert ((lj >= EXP_ZERO_BELOW) & (lj < EXP_FAST_MIN)).any()
    assert np.array_equal(e_step(data, params).gamma, (shifted / col_sums).T)
    assert log_likelihood(data, params) == float((np.log(col_sums) + shift).sum())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.0], [0.0, -5e-10]]),  # passes validation at floor 0
    np.array([[np.inf, 0.0], [0.0, 1.0]]),  # refused before any fit factors it
])
def test_singular_covariance_names_its_component(bad):
    covs = np.stack([np.eye(2), np.eye(2), bad])
    if not np.isfinite(bad).all():
        with pytest.raises(ValueError, match="finite"):
            MoGParams(np.full(3, 1.0 / 3), np.zeros((3, 2)), covs, psd_floor=0.0)
        return
    params = MoGParams(np.full(3, 1.0 / 3), np.zeros((3, 2)), covs,
                       psd_floor=0.0)
    for fn in (e_step, log_likelihood):
        with pytest.raises(SingularCovarianceError) as info:
            fn(small_data(), params)
        assert info.value.component == 2


@pytest.mark.parametrize("field", ["weights", "means", "covariances"])
def test_mog_params_reject_nan(field):
    fields = dict(weights=np.full(2, 0.5), means=np.zeros((2, 2)),
                  covariances=np.stack([np.eye(2)] * 2))
    fields[field].flat[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MoGParams(**fields)


@pytest.mark.parametrize("gamma", [
    np.full((3, 2), np.nan),
    np.array([[1.0, 0.0], [np.nan, 1.0], [0.5, 0.5]]),
    np.full(3, 1.0),                          # not N x K
    np.array([[0.5, 0.4], [0.5, 0.5]]),       # a row short of 1
])
def test_responsibilities_reject_nan(gamma):
    with pytest.raises(ValueError):
        Responsibilities(gamma)


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


# --- m_step: pair-product scatters --------------------------------------------


def per_component_m_step(data, resp, map_estimate=False, release=None):
    """Reference M-step: each scatter from its own weighted copy of X,
    ``(gamma[:, k, None] * X).T @ X``, in the statistics' draw order. MAP
    uses its own literal prior: alpha = 2, kappa0 = 1, nu0 = d + 2,
    S0 = 0.1 I."""
    X, gamma = data.rows, resp.gamma
    n, d = X.shape
    K = gamma.shape[1]
    pi = resp.counts / n
    pi = pi / pi.sum()
    if release is not None:
        pi = release.weights(pi)
    weights = pi
    if map_estimate:
        alpha = np.full(K, 2.0)
        weights = (n * pi + alpha - 1.0) / (n + alpha.sum() - K)
        weights = weights / weights.sum()
    counts = n * pi if release is None else release.counts(n * pi)
    denom = counts + 1.0 if map_estimate else counts
    means = (gamma.T @ X) / denom[:, None]
    if release is not None:
        means = np.array([release.mean(k, means[k], denom[k]) for k in range(K)])
    covs = []
    for k in range(K):
        scatter = (gamma[:, k, None] * X).T @ X
        if map_estimate:
            cov_denom = counts[k] + float(d + 2) + d + 2.0
            num = 0.1 * np.eye(d) + scatter - denom[k] * np.outer(means[k], means[k])
        else:
            cov_denom, num = counts[k], scatter - counts[k] * np.outer(means[k], means[k])
        cov = num / cov_denom
        cov = 0.5 * (cov + cov.T)
        covs.append(psd_project(cov, PSD_FLOOR) if release is None
                    else release.covariance(k, cov, cov_denom))
    return weights, means, np.array(covs)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("estimator", ["mle", "map"])
@pytest.mark.parametrize("private", [False, True])
def test_m_step_pair_products_match_per_component_scatters(d, K, estimator, private):
    rng = np.random.default_rng(100 * d + K)
    X = 0.4 * _uniform_ball(600, d, rng) + 0.5 * _uniform_ball(1, d, rng)
    data = BoundedDataset(X)
    resp = Responsibilities(rng.dirichlet(np.ones(K), size=data.n))
    map_estimate = estimator == "map"

    scatters = unpack_triu(resp.gamma.T @ data.pairs, d)
    assert np.array_equal(scatters, scatters.transpose(0, 2, 1))
    want = np.array([(resp.gamma[:, k, None] * X).T @ X for k in range(K)])
    np.testing.assert_allclose(scatters, want, rtol=1e-13, atol=0)

    def release():  # eps_i = inf: every noise scale 0, counts still floored
        return _PrivateRelease("ggg", np.inf, 1e-6, np.random.default_rng(0), data.n, d) \
            if private else None

    got_release, want_release = release(), release()
    got = m_step(data, resp, map_estimate, got_release)
    weights, means, covs = per_component_m_step(data, resp, map_estimate, want_release)
    # the weights and means do not read the scatters
    np.testing.assert_array_equal(got.weights, weights)
    np.testing.assert_array_equal(got.means, means)
    # scatter minus c m m^T cancels in a near-zero entry, which keeps the
    # scatter's rounding: the bound there is 1e-13 of the largest entry
    np.testing.assert_allclose(got.covariances, covs, rtol=1e-13,
                               atol=1e-13 * np.abs(covs).max())
    assert np.array_equal(got.covariances, got.covariances.transpose(0, 2, 1))
    if private:
        assert got_release.trace.records == want_release.trace.records


# --- m_step, MAP ---------------------------------------------------------------


def test_m_step_map_approaches_mle_for_large_n():
    rng = np.random.default_rng(5)
    X = rng.normal(scale=0.1, size=(100_000, 2))
    X += np.array([0.2, -0.1])
    data = preprocess(X)
    resp = Responsibilities(np.ones((data.n, 1)))
    mle = m_step_mle(data, resp)
    mapped = m_step(data, resp, map_estimate=True)
    rel = np.abs(mapped.means - mle.means).max() / np.abs(mle.means).max()
    assert rel < 1e-4


def test_m_step_map_empty_component_keeps_prior_mass():
    data = small_data()
    gamma = np.zeros((10, 2))
    gamma[:, 0] = 1.0
    params = m_step(data, Responsibilities(gamma), map_estimate=True)
    n, alpha_sum, k = 10, 4.0, 2
    assert params.weights[1] == pytest.approx(1.0 / (n + alpha_sum - k))
    assert params.weights[1] > 0


def test_m_step_map_single_point_hand_value():
    # hand evaluation with N_k=1, mean 0: numerator is S0 alone and the
    # denominator is nu0 + N_k + d + 2 = 3 + 1 + 1 + 2 = 7
    data = BoundedDataset(np.array([[0.0]]))
    resp = Responsibilities(np.ones((1, 1)))
    params = m_step(data, resp, map_estimate=True)
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


def test_reassign_degenerate_gives_each_dead_component_one_donor():
    # components 2 and 3 hold no mass: each takes one distinct row wholly
    gamma = np.tile([0.5, 0.5, 0.0, 0.0], (6, 1))
    resp = Responsibilities(gamma)
    out = _reassign_degenerate(resp, 6, np.random.default_rng(0))
    changed = np.flatnonzero((out.gamma != gamma).any(axis=1))
    assert len(changed) == 2
    assert sorted(out.gamma[changed].argmax(axis=1)) == [2, 3]
    np.testing.assert_array_equal(out.gamma[changed].max(axis=1), 1.0)
    np.testing.assert_array_equal(out.gamma[changed].sum(axis=1), 1.0)
    unchanged = np.setdiff1d(np.arange(6), changed)
    np.testing.assert_array_equal(out.gamma[unchanged], gamma[unchanged])
    np.testing.assert_array_equal(resp.gamma, gamma)  # the input is not written


def test_reassign_degenerate_uses_at_most_n_donors():
    # four dead components but two rows: both rows go to the first two
    gamma = np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (2, 1))
    out = _reassign_degenerate(Responsibilities(gamma), 2, np.random.default_rng(0))
    np.testing.assert_array_equal(out.counts, [0.0, 1.0, 1.0, 0.0, 0.0])


def test_reassign_degenerate_without_dead_component_returns_its_input():
    resp = Responsibilities(np.tile([0.25, 0.75], (4, 1)))
    assert _reassign_degenerate(resp, 4, np.random.default_rng(0)) is resp


def test_params_invariant_validation():
    with pytest.raises(ValueError):
        mk_params([0.6, 0.6], [[0.0], [0.0]],
                  [np.array([[1.0]]), np.array([[1.0]])])
    with pytest.raises(ValueError):
        mk_params([1.0], [[0.0, 0.0]], [np.array([[1.0, 0.0], [0.0, -1.0]])])
    with pytest.raises(ValueError, match="1-d"):
        mk_params([[1.0]], [[0.0]], [np.array([[1.0]])])
    with pytest.raises(ValueError, match="inconsistent"):
        mk_params([0.5, 0.5], [[0.0]], [np.array([[1.0]])] * 2)
    with pytest.raises(ValueError, match="symmetric"):
        mk_params([1.0], [[0.0, 0.0]], [np.array([[1.0, 0.5], [0.0, 1.0]])])


def three_covariances(last):
    return np.stack([np.eye(2), np.eye(2), last])


@pytest.mark.parametrize("bad, message", [
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "covariance 2 is not symmetric"),
    (np.array([[1.0, 0.0], [0.0, 1e-8]]), "covariance 2 has eigenvalue 1.000e-08 below floor"),
])
def test_params_validation_names_the_offending_component(bad, message):
    with pytest.raises(ValueError, match=message):
        mk_params(np.full(3, 1.0 / 3), np.zeros((3, 2)), three_covariances(bad))


def test_params_validation_checks_symmetry_before_eigenvalues():
    covs = three_covariances(np.array([[1.0, 0.5], [0.0, 1.0]]))
    covs[0] = np.diag([1.0, 1e-8])
    with pytest.raises(ValueError, match="covariance 2 is not symmetric"):
        mk_params(np.full(3, 1.0 / 3), np.zeros((3, 2)), covs)


def test_params_validation_keeps_the_relative_slack():
    # an eigenvalue just under the floor, within 1e-9 of the largest entry
    scale = 100.0
    under = np.diag([scale, PSD_FLOOR - 0.5e-9 * scale])
    assert mk_params(np.full(3, 1.0 / 3), np.zeros((3, 2)),
                     three_covariances(under)).n_components == 3
    with pytest.raises(ValueError, match="covariance 2 has eigenvalue"):
        mk_params(np.full(3, 1.0 / 3), np.zeros((3, 2)),
                  three_covariances(np.diag([scale, PSD_FLOOR - 2e-9 * scale])))
