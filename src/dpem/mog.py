"""Gaussian-mixture EM: E-step, one M-step, likelihood.

``m_step`` is the only place the weights, means and covariances are
computed from the responsibilities. Without a release step it is plain EM
(``fit_em``, ``m_step_mle``); private EM (``dpem_mog``)
differs only in the release step it passes, which adds calibrated noise.
The E-step and likelihood work in the log domain where stability needs it,
component-major: every intermediate is a (K, N) matrix of K contiguous rows,
and the responsibilities are handed on as its transpose, an F-ordered
(N, K) view.

``exp`` only ever sees entries in its fast range. In a private fit most of
the shifted log joint lies far below -708 (a point against a component
whose covariance sits at the PSD floor), where numpy's ``exp`` leaves its
vectorised path and costs ten to fifty times as much per entry, yet
returns exactly 0.0 for everything below -745.14. ``_shifted_exp`` clamps
those entries, exponentiates the whole matrix in one contiguous pass and
zeroes them afterwards, so the result is bit for bit that of a plain
``exp``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BoundedDataset, _uniform_ball
from .errors import DegenerateComponentError, SingularCovarianceError
from .mechanisms import PSD_FLOOR, psd_project, unpack_triu

SIMPLEX_TOL = 1e-9
SYM_TOL = 1e-9

# Components whose soft count falls below this fraction of N are treated as
# degenerate (see m_step_mle and fit_em).
COUNT_FLOOR_FRACTION = 1e-8

# The MAP estimator's conjugate prior: Dirichlet(alpha) on the weights and
# normal-inverse-Wishart on each (mean, covariance), with kappa0, nu0 = d + 2
# and scale matrix S0 = S0_SCALE * I (Fraley & Raftery 2007).
DIRICHLET_ALPHA = 2.0
KAPPA0 = 1.0
S0_SCALE = 0.1

# _shifted_exp's bands: numpy's exp stays on its fast path at and above
# EXP_FAST_MIN (it slows from -708), and exp(x) is exactly 0.0 for every
# x < -745.1333, so below EXP_ZERO_BELOW the result is 0.0 without an exp.
# Correctness rests only on EXP_ZERO_BELOW < -745.1333; EXP_FAST_MIN sets
# the speed.
EXP_FAST_MIN = -700.0
EXP_ZERO_BELOW = -800.0


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
        if not (np.isfinite(w).all() and np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise ValueError("weights, means and covariances must be finite")
        if (w < -SIMPLEX_TOL).any() or abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights are not on the simplex (sum={w.sum()!r})")
        asym = np.flatnonzero(np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2))
                              > SYM_TOL)
        if asym.size:
            raise ValueError(f"covariance {asym[0]} is not symmetric")
        min_eig = np.linalg.eigvalsh(cov).min(axis=1)
        # small relative slack: eigenvalues of a clamped-then-rebuilt
        # matrix can undershoot the floor by rounding error
        slack = 1e-9 * np.maximum(1.0, np.abs(cov).max(axis=(1, 2)))
        low = np.flatnonzero(min_eig < self.psd_floor - slack)
        if low.size:
            raise ValueError(
                f"covariance {low[0]} has eigenvalue {min_eig[low[0]]:.3e} below floor"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Responsibilities:
    """Posterior membership probabilities, one row per data point."""

    gamma: np.ndarray  # (N, K)

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise ValueError("gamma must be an N x K matrix")
        # phrased so that NaN fails each test: gamma gets no separate pass
        if not ((g >= -1e-12).all() and (g <= 1 + 1e-12).all()):
            raise ValueError("responsibilities outside [0, 1]")
        if not np.abs(g @ np.ones(g.shape[1]) - 1.0).max() <= SIMPLEX_TOL:
            raise ValueError("responsibility rows must sum to 1")
        object.__setattr__(self, "gamma", g)

    @classmethod
    def _normalised(cls, gamma: np.ndarray) -> "Responsibilities":
        """Wrap a gamma that ``e_step`` built by normalisation, without the
        three passes of the public checks (the suite checks that its
        output passes them)."""
        resp = object.__new__(cls)
        object.__setattr__(resp, "gamma", gamma)
        return resp

    @property
    def counts(self) -> np.ndarray:
        """Soft per-component counts N_k."""
        return np.ones(self.gamma.shape[0]) @ self.gamma


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
    """(K, N) matrix of log(pi_k) + log N(x_i | mu_k, Sigma_k), one
    contiguous row per component.

    Each covariance is factored as L_k L_k^T; the whitened rows
    L_k^{-1}(x_i - mu_k) of every component come from one GEMM of the K
    inverse factors, stacked into K*d rows, with X^T, minus the whitened
    means as a column. The squares are summed over the d rows of each
    component in order, 0 to d-1.
    """
    X = data.rows
    n, d = X.shape
    K = params.n_components
    chol = _cholesky(params.covariances)
    inv = np.linalg.inv(chol)  # (K, d, d) inverse factors
    white_means = np.einsum("kab,kb->ka", inv, params.means).reshape(K * d, 1)
    z = inv.reshape(K * d, d) @ X.T  # row k*d + a is row a of inv[k] times X^T
    z -= white_means
    z *= z
    log_joint = z.reshape(K, d, n).sum(axis=1)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)) @ np.ones(d)
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)
    const = log_w - 0.5 * (d * np.log(2.0 * np.pi) + log_det)
    log_joint *= -0.5
    log_joint += const[:, None]
    return log_joint


def _shifted_exp(log_joint: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shift log-sum-exp over the K rows of a (K, N) log joint, in place.

    Overwrites ``log_joint`` with exp(log_joint - m_i) and returns the
    column shift m_i, that array and its column sums s_i, so that
    log sum_k exp(log_joint_ki) = m_i + log s_i. A column without a finite
    maximum is shifted by 0, as scipy's logsumexp does.

    ``exp`` is called only on entries >= EXP_FAST_MIN, in one contiguous
    pass, and on the few entries in [EXP_ZERO_BELOW, EXP_FAST_MIN); entries
    below EXP_ZERO_BELOW become 0.0. Every low entry is clamped to
    EXP_FAST_MIN before the pass and multiplied by 0 after it, then the
    band entries are written back, so the output equals a plain ``exp`` bit
    for bit. Masked forms (``where=``, ``np.where``, a gather of every low
    entry) cost more than they save on the scattered masks of real log
    joints. NaN is never low and reaches ``exp``; -inf gives 0.0.
    """
    shift = log_joint.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    log_joint -= shift
    low = log_joint < EXP_FAST_MIN
    if not low.any():
        np.exp(log_joint, out=log_joint)
        return shift, log_joint, log_joint.sum(axis=0)
    band = np.flatnonzero(low & (log_joint >= EXP_ZERO_BELOW))
    band_exp = np.exp(log_joint.flat[band])
    # against a row, not a scalar: numpy's maximum has no vector loop for a
    # scalar operand
    np.maximum(log_joint, np.full(log_joint.shape[-1], EXP_FAST_MIN), out=log_joint)
    np.exp(log_joint, out=log_joint)
    log_joint *= np.logical_not(low, out=low)
    log_joint.flat[band] = band_exp
    return shift, log_joint, log_joint.sum(axis=0)


def e_step(data: BoundedDataset, params: MoGParams) -> Responsibilities:
    """Posterior membership probabilities under the current parameters.

    The work is done on the (K, N) log joint; the returned gamma is its
    transpose, an F-ordered (N, K) view with no copy, so ``gamma.T`` in the
    M-step's GEMMs is C-ordered. Every column sum is at least 1 (its
    largest entry is exp(0)), so a finite one makes the column a valid
    distribution after the division; only a row that no component gives a
    finite positive density is refused.
    """
    _, shifted, col_sums = _shifted_exp(_log_joint(data, params))
    if not (col_sums.min() >= 1.0 and col_sums.max() < np.inf):
        raise ValueError("responsibilities outside [0, 1]: a row has no finite "
                         "positive mixture density")
    shifted /= col_sums
    return Responsibilities._normalised(shifted.T)


def log_likelihood(data: BoundedDataset, params: MoGParams) -> float:
    """Total mixture log-likelihood of the dataset (divide by N to report
    the per-datapoint value)."""
    shift, _, col_sums = _shifted_exp(_log_joint(data, params))
    return float((np.log(col_sums) + shift).sum())


def m_step(data: BoundedDataset, resp: Responsibilities,
           map_estimate: bool = False, release=None) -> MoGParams:
    """The maximum-likelihood update or, with ``map_estimate``, the posterior
    mode under the conjugate prior above. A component with zero soft count
    then falls back to the prior instead of failing.

    The counts that divide come from the weights, and each covariance is
    built from its mean. The means come from one GEMM ``gamma.T @ X``; all
    K scatters sum_i gamma_ik x_i x_i^T from one GEMM ``gamma.T @
    data.pairs``, unpacked from the ``mechanisms.triu_indices`` layout into
    exactly symmetric matrices. A ``release`` step (private EM) gets each
    statistic in draw order: ``weights(pi)``, ``counts(counts)``, then
    ``mean(k, mean, denom)`` for k = 1..K and ``covariance(k, cov, denom)``
    for k = 1..K, with ``denom`` the count that divides; it projects the
    covariances itself.
    """
    X = data.rows
    n, d = X.shape
    K = resp.gamma.shape[1]
    pi = resp.counts / n
    pi = pi / pi.sum()
    if release is not None:
        pi = release.weights(pi)
    weights = pi
    if map_estimate:
        weights = (n * pi + DIRICHLET_ALPHA - 1.0) / (n + K * DIRICHLET_ALPHA - K)
        weights = weights / weights.sum()
    counts = n * pi if release is None else release.counts(n * pi)
    denom = counts + KAPPA0 if map_estimate else counts
    means = (resp.gamma.T @ X) / denom[:, None]  # weighted sums over denom
    if release is not None:
        for k in range(K):
            means[k] = release.mean(k, means[k], denom[k])
    # scatters minus the weighted-sum outer products, rebuilt from the means
    scatters = unpack_triu(resp.gamma.T @ data.pairs, d)
    outer = means[:, :, None] * means[:, None, :]
    if map_estimate:
        cov_denom = counts + (d + 2.0) + d + 2.0  # nu0 = d + 2
        num = S0_SCALE * np.eye(d) + scatters - denom[:, None, None] * outer
    else:
        cov_denom = counts
        num = scatters - counts[:, None, None] * outer
    covs = num / cov_denom[:, None, None]
    for k in range(K):
        if release is None:
            covs[k] = psd_project(covs[k], PSD_FLOOR)
        else:
            covs[k] = release.covariance(k, covs[k], cov_denom[k])
    return MoGParams(weights, means, covs)


def m_step_mle(data: BoundedDataset, resp: Responsibilities) -> MoGParams:
    """Weighted maximum-likelihood update of weights, means and covariances."""
    for k, nk in enumerate(resp.counts):
        if nk <= COUNT_FLOOR_FRACTION * data.n:
            raise DegenerateComponentError(k, float(nk))
    return m_step(data, resp)


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
    """Run plain (non-private) EM for a fixed number of iterations, by
    maximum likelihood or by MAP (``m_step``'s conjugate prior).

    No early stopping: the iteration count is part of the contract so that
    private wrappers can compose privacy costs over exactly J steps.
    """
    if estimator not in ("mle", "map"):
        raise ValueError(f"unknown estimator {estimator!r}")
    rng = np.random.default_rng(seed)
    params = init_params(data, n_components, rng)
    for _ in range(iterations):
        resp = _reassign_degenerate(e_step(data, params), data.n, rng)
        if estimator == "mle":
            params = m_step_mle(data, resp)
        else:
            params = m_step(data, resp, map_estimate=True)
    return params
