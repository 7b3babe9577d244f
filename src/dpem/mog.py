"""Gaussian-mixture EM: E-step, one M-step, likelihood.

``m_step`` is the only place the weights, means and covariances are
computed from the responsibilities. Without a release step it is plain EM
(``fit_em``, ``m_step_mle``, ``m_step_map``); private EM (``dpem_mog``)
differs only in the release step it passes, which adds calibrated noise.
The E-step and likelihood work in the log domain where stability needs it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BoundedDataset, _uniform_ball
from .errors import DegenerateComponentError, SingularCovarianceError
from .mechanisms import psd_project

PSD_FLOOR = 1e-6
SIMPLEX_TOL = 1e-9
SYM_TOL = 1e-9

# Components whose soft count falls below this fraction of N are treated as
# degenerate (see m_step_mle and fit_em).
COUNT_FLOOR_FRACTION = 1e-8


@dataclass(frozen=True)
class MoGParams:
    """Mixture weights on the simplex plus K means and K SPD covariances."""

    weights: np.ndarray
    means: np.ndarray        # (K, d)
    covariances: np.ndarray  # (K, d, d)
    psd_floor: float = PSD_FLOOR

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariances, dtype=float)
        if w.ndim != 1 or mu.ndim != 2 or cov.ndim != 3:
            raise ValueError("weights must be 1-d, means 2-d, covariances 3-d")
        k = w.shape[0]
        if mu.shape[0] != k or cov.shape[0] != k or cov.shape[1:] != (mu.shape[1],) * 2:
            raise ValueError("inconsistent shapes across weights/means/covariances")
        if (w < -SIMPLEX_TOL).any() or abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights are not on the simplex (sum={w.sum()!r})")
        for j in range(k):
            if np.abs(cov[j] - cov[j].T).max() > SYM_TOL:
                raise ValueError(f"covariance {j} is not symmetric")
            min_eig = float(np.linalg.eigvalsh(cov[j]).min())
            # small relative slack: eigenvalues of a clamped-then-rebuilt
            # matrix can undershoot the floor by rounding error
            if min_eig < self.psd_floor - 1e-9 * max(1.0, float(np.abs(cov[j]).max())):
                raise ValueError(
                    f"covariance {j} has eigenvalue {min_eig:.3e} below floor"
                )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class Responsibilities:
    """Posterior membership probabilities, one row per data point."""

    gamma: np.ndarray  # (N, K)

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise ValueError("gamma must be an N x K matrix")
        if (g < -1e-12).any() or (g > 1 + 1e-12).any():
            raise ValueError("responsibilities outside [0, 1]")
        if np.abs(g @ np.ones(g.shape[1]) - 1.0).max() > SIMPLEX_TOL:
            raise ValueError("responsibility rows must sum to 1")
        object.__setattr__(self, "gamma", g)

    @property
    def counts(self) -> np.ndarray:
        """Soft per-component counts N_k."""
        return np.ones(self.gamma.shape[0]) @ self.gamma


@dataclass(frozen=True)
class MapPrior:
    """Dirichlet prior on the weights and normal-inverse-Wishart on (mean, cov)."""

    dirichlet_alpha: np.ndarray
    kappa0: float
    nu0: float
    s0: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.dirichlet_alpha, dtype=float)
        s0 = np.asarray(self.s0, dtype=float)
        if self.kappa0 <= 0 or self.nu0 <= 0:
            raise ValueError("kappa0 and nu0 must be positive")
        if s0.ndim != 2 or s0.shape[0] != s0.shape[1]:
            raise ValueError("s0 must be a square matrix")
        if np.linalg.eigvalsh(s0).min() <= 0:
            raise ValueError("s0 must be positive definite")
        object.__setattr__(self, "dirichlet_alpha", alpha)
        object.__setattr__(self, "s0", s0)

    @classmethod
    def default(cls, n_components: int, d: int) -> "MapPrior":
        """Conventional hyperparameters: alpha=2, kappa0=1, nu0=d+2, S0=0.1*I."""
        return cls(
            dirichlet_alpha=np.full(n_components, 2.0),
            kappa0=1.0,
            nu0=float(d + 2),
            s0=0.1 * np.eye(d),
        )


def _cholesky(covs: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of all K covariances in one batched call.

    A covariance that is not positive definite, or whose factor is not
    finite, raises SingularCovarianceError naming its component.
    """
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        chol = None
    if chol is not None and np.isfinite(chol).all():
        return chol
    for k, cov in enumerate(covs):
        try:
            factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SingularCovarianceError(k) from None
        if not np.isfinite(factor).all():
            raise SingularCovarianceError(k)
    raise RuntimeError("batched Cholesky failed but every component factors")


def _log_joint(data: BoundedDataset, params: MoGParams) -> np.ndarray:
    """Matrix of log(pi_k) + log N(x_i | mu_k, Sigma_k).

    Each covariance is factored as L_k L_k^T; the whitened rows
    L_k^{-1}(x_i - mu_k) of every component come from one GEMM of X with
    the K inverse factors stacked side by side, minus the whitened means.
    """
    X = data.rows
    n, d = X.shape
    K = params.n_components
    chol = _cholesky(params.covariances)
    inv = np.linalg.inv(chol)  # (K, d, d) inverse factors
    # column k*d + a of `whiten` is row a of inv[k]
    whiten = inv.transpose(2, 0, 1).reshape(d, K * d)
    white_means = np.einsum("kab,kb->ka", inv, params.means).reshape(K * d)
    z = X @ whiten
    z -= white_means
    z *= z
    maha = (z.reshape(n * K, d) @ np.ones(d)).reshape(n, K)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)) @ np.ones(d)
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)
    const = log_w - 0.5 * (d * np.log(2.0 * np.pi) + log_det)
    maha *= -0.5
    maha += const  # in place: the array now holds the log joint
    return maha


def _shifted_exp(log_joint: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shift log-sum-exp over the K columns of each row, in place.

    Overwrites ``log_joint`` with exp(log_joint - m_i) and returns the row
    shift m_i, that array and its row sums s_i, so that
    log sum_k exp(log_joint_ik) = m_i + log s_i. A row without a finite
    maximum is shifted by 0, as scipy's logsumexp does.
    """
    shift = log_joint[:, 0].copy()
    for k in range(1, log_joint.shape[1]):
        np.maximum(shift, log_joint[:, k], out=shift)
    shift[~np.isfinite(shift)] = 0.0
    log_joint -= shift[:, None]
    np.exp(log_joint, out=log_joint)
    return shift, log_joint, log_joint @ np.ones(log_joint.shape[1])


def e_step(data: BoundedDataset, params: MoGParams) -> Responsibilities:
    """Posterior membership probabilities under the current parameters."""
    _, shifted, row_sums = _shifted_exp(_log_joint(data, params))
    shifted /= row_sums[:, None]
    return Responsibilities(shifted)


def log_likelihood(data: BoundedDataset, params: MoGParams) -> float:
    """Total mixture log-likelihood of the dataset (divide by N to report
    the per-datapoint value)."""
    shift, _, row_sums = _shifted_exp(_log_joint(data, params))
    return float((np.log(row_sums) + shift).sum())


def m_step(data: BoundedDataset, resp: Responsibilities,
           prior: MapPrior | None = None, release=None) -> MoGParams:
    """The maximum-likelihood update, or the posterior mode under ``prior``.

    The counts that divide come from the weights, and each covariance is
    built from its mean. A ``release`` step (private EM) gets each statistic
    in draw order: ``weights(pi)``, ``counts(counts)``, then ``mean(k, mean,
    denom)`` and ``covariance(k, cov, denom)`` for k = 1..K, with ``denom``
    the count that divides; it projects the covariances itself.
    """
    X = data.rows
    n, d = X.shape
    K = resp.gamma.shape[1]
    pi = resp.counts / n
    pi = pi / pi.sum()
    if release is not None:
        pi = release.weights(pi)
    weights = pi
    if prior is not None:
        alpha = prior.dirichlet_alpha
        weights = (n * pi + alpha - 1.0) / (n + alpha.sum() - K)
        weights = weights / weights.sum()
    counts = n * pi if release is None else release.counts(n * pi)
    denom = counts if prior is None else counts + prior.kappa0
    means = (resp.gamma.T @ X) / denom[:, None]  # weighted sums over denom
    if release is not None:
        for k in range(K):
            means[k] = release.mean(k, means[k], denom[k])
    covs = np.empty((K, d, d))
    for k in range(K):
        # scatter minus the weighted-sum outer product, rebuilt from the mean
        scatter = (resp.gamma[:, k, None] * X).T @ X
        if prior is None:
            cov_denom = counts[k]
            num = scatter - counts[k] * np.outer(means[k], means[k])
        else:
            cov_denom = counts[k] + prior.nu0 + d + 2.0
            num = prior.s0 + scatter - denom[k] * np.outer(means[k], means[k])
        cov = num / cov_denom
        cov = 0.5 * (cov + cov.T)
        if release is None:
            covs[k] = psd_project(cov, PSD_FLOOR)
        else:
            covs[k] = release.covariance(k, cov, cov_denom)
    return MoGParams(weights, means, covs)


def m_step_mle(data: BoundedDataset, resp: Responsibilities) -> MoGParams:
    """Weighted maximum-likelihood update of weights, means and covariances."""
    for k, nk in enumerate(resp.counts):
        if nk <= COUNT_FLOOR_FRACTION * data.n:
            raise DegenerateComponentError(k, float(nk))
    return m_step(data, resp)


def m_step_map(data: BoundedDataset, resp: Responsibilities,
               prior: MapPrior) -> MoGParams:
    """Posterior-mode update under the Dirichlet/NIW prior. A component with
    zero soft count falls back to the prior instead of failing."""
    return m_step(data, resp, prior)


def init_params(data: BoundedDataset, n_components: int,
                rng: np.random.Generator) -> MoGParams:
    """Seed EM without reading a row: means uniform in the unit ball, as
    k-means seeds its centers, every covariance I/d and uniform weights.
    Only ``data.d`` is read, so a private fit's seed costs no budget."""
    d = data.d
    covs = np.repeat(np.eye(d)[None] / d, n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)
    return MoGParams(weights, _uniform_ball(n_components, d, rng), covs)


def _reassign_degenerate(resp: Responsibilities, n: int,
                         rng: np.random.Generator) -> Responsibilities:
    """Hand one random data point wholly to each degenerate component.

    The subsequent M-step then re-seeds that component's mean at a data
    point, which keeps the component count fixed across iterations.
    """
    dead = np.flatnonzero(resp.counts <= COUNT_FLOOR_FRACTION * n)
    if not dead.size:
        return resp
    gamma = resp.gamma.copy()
    # distinct donor points, so two dead components never collide
    donors = rng.choice(n, size=min(len(dead), n), replace=False)
    gamma[donors] = 0.0
    gamma[donors, dead[:len(donors)]] = 1.0
    return Responsibilities(gamma)


def fit_em(data: BoundedDataset, n_components: int, iterations: int,
           estimator: str = "mle", seed: int | None = None) -> MoGParams:
    """Run plain (non-private) EM for a fixed number of iterations; MAP uses
    the prior ``MapPrior.default``.

    No early stopping: the iteration count is part of the contract so that
    private wrappers can compose privacy costs over exactly J steps.
    """
    if estimator not in ("mle", "map"):
        raise ValueError(f"unknown estimator {estimator!r}")
    prior = MapPrior.default(n_components, data.d) if estimator == "map" else None
    rng = np.random.default_rng(seed)
    params = init_params(data, n_components, rng)
    for _ in range(iterations):
        resp = _reassign_degenerate(e_step(data, params), data.n, rng)
        if estimator == "mle":
            params = m_step_mle(data, resp)
        else:
            params = m_step_map(data, resp, prior)
    return params
