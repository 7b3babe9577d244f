"""Differentially private factor analysis.

The expected sufficient statistics of the FA model depend on the data only
through the second-moment matrix, so privacy costs a single symmetric
Gaussian perturbation of that matrix; the EM iterations afterwards are
pure post-processing and can run to convergence for free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accountant import PrivacyBudget
from .data import BoundedDataset
from .errors import DataError, UnattainableBudgetError
from .mechanisms import AccountingTrace, Release, analyze_gauss_perturb

PSI_FLOOR = 1e-6


@dataclass(frozen=True)
class SecondMoment:
    """Symmetric PSD second-moment matrix (1/N) X^T X with its source count."""

    matrix: np.ndarray
    n: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError(f"expected a square matrix, got shape {m.shape}")
        if np.abs(m - m.T).max() > 1e-9:
            raise DataError("second moment must be symmetric")
        if self.n < 1:
            raise DataError("source count must be >= 1")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FAParams:
    """Loading matrix W (d x q), diagonal noise psi, and the posterior
    covariance G = (I + W^T Psi^-1 W)^-1 implied by them."""

    loading: np.ndarray
    psi: np.ndarray
    posterior_cov: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.loading, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        g = np.asarray(self.posterior_cov, dtype=float)
        if w.ndim != 2 or psi.ndim != 1 or w.shape[0] != psi.shape[0]:
            raise ValueError("loading must be d x q and psi length d")
        q = w.shape[1]
        if g.shape != (q, q):
            raise ValueError("posterior_cov must be q x q")
        if (psi < PSI_FLOOR - 1e-12).any():
            raise ValueError("psi entries below floor")
        if q > 0:
            expected = np.linalg.inv(np.eye(q) + (w.T / psi) @ w)
            if np.abs(expected - g).max() > 1e-8:
                raise ValueError("posterior_cov inconsistent with loading/psi")
        object.__setattr__(self, "loading", w)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "posterior_cov", g)

    @property
    def d(self) -> int:
        return self.loading.shape[0]

    @property
    def q(self) -> int:
        return self.loading.shape[1]

    def model_covariance(self) -> np.ndarray:
        """W W^T + diag(psi), the marginal covariance the model implies."""
        w = self.loading
        return w @ w.T + np.diag(self.psi)


def second_moment(data: BoundedDataset) -> SecondMoment:
    """Exact (1/N) X^T X, symmetrized."""
    X = data.rows
    m = X.T @ X / data.n
    return SecondMoment(0.5 * (m + m.T), data.n)


def perturb_second_moment(mom: SecondMoment, total: PrivacyBudget,
                          rng: np.random.Generator
                          ) -> tuple[SecondMoment, AccountingTrace]:
    """One-shot symmetric Gaussian perturbation of the second moment.

    Swapping one unit-ball row moves the matrix by at most 2/N in Frobenius
    norm, which sets the mechanism's sensitivity. Returns the perturbed
    moment and a single-entry accounting trace.
    """
    if not 0.0 < total.epsilon < 1.0:
        raise UnattainableBudgetError(
            f"the one-shot Gaussian release needs epsilon in (0, 1), "
            f"got {total.epsilon}"
        )
    release = Release(total.epsilon, total.delta, rng)
    noised = release(mom.matrix, "gaussian", 2.0 / mom.n, "second_moment",
                     perturb=analyze_gauss_perturb, psd_floor=PSI_FLOOR)
    return SecondMoment(noised, mom.n), release.trace


def _init_params(mom: SecondMoment, q: int) -> FAParams:
    """Scaled principal components of the moment matrix seed the loading."""
    d = mom.d
    vals, vecs = np.linalg.eigh(mom.matrix)
    order = np.argsort(vals)[::-1][:q]
    top_vals = np.maximum(vals[order], 0.0)
    w = vecs[:, order] * np.sqrt(top_vals)
    psi = np.maximum(np.diag(mom.matrix) - (w ** 2).sum(axis=1), PSI_FLOOR)
    g = _posterior_cov(w, psi)
    return FAParams(w, psi, g)


def _posterior_cov(w: np.ndarray, psi: np.ndarray) -> np.ndarray:
    q = w.shape[1]
    if q == 0:
        return np.zeros((0, 0))
    g = np.linalg.inv(np.eye(q) + (w.T / psi) @ w)
    return 0.5 * (g + g.T)


def run_fa_em(mom: SecondMoment, q: int, iters: int = 1000,
              tol: float = 1e-8) -> FAParams:
    """Fit the factor model to a (possibly perturbed) second moment.

    Alternates the moment-based loading and noise updates, recomputing the
    posterior covariance each step, until the parameter change drops below
    ``tol`` or ``iters`` steps have run. Works identically on clean and
    noised inputs; the input matrix is the only data the updates ever see.
    """
    if q < 0 or q >= mom.d:
        raise ValueError(f"latent dimension must lie in [0, {mom.d - 1}]")
    if np.linalg.eigvalsh(mom.matrix).min() < -1e-10:
        raise DataError("second moment must be PSD; project it first")
    lam = mom.matrix
    if q == 0:
        psi = np.maximum(np.diag(lam), PSI_FLOOR)
        return FAParams(np.zeros((mom.d, 0)), psi, np.zeros((0, 0)))
    params = _init_params(mom, q)
    w, psi = params.loading, params.psi
    for _ in range(iters):
        g = _posterior_cov(w, psi)
        b = w / psi[:, None]              # Psi^-1 W          (d x q)
        first = lam @ b @ g               # Lambda Psi^-1 W G (d x q)
        second = g + g @ b.T @ first      # G + G W^T Psi^-1 Lambda Psi^-1 W G
        w_new = np.linalg.solve(second.T, first.T).T
        psi_new = np.diag(lam - w_new @ g @ (b.T @ lam))
        psi_new = np.maximum(psi_new, PSI_FLOOR)
        delta = max(np.abs(w_new - w).max(), np.abs(psi_new - psi).max())
        w, psi = w_new, psi_new
        if delta < tol:
            break
    return FAParams(w, psi, _posterior_cov(w, psi))


def fa_average_log_likelihood(mom: SecondMoment, params: FAParams) -> float:
    """Per-datapoint Gaussian log-likelihood of the moment matrix under the
    model covariance W W^T + Psi."""
    c = params.model_covariance()
    d = mom.d
    sign, logdet = np.linalg.slogdet(c)
    if sign <= 0:
        raise DataError("model covariance is not positive definite")
    trace_term = np.trace(np.linalg.solve(c, mom.matrix))
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + trace_term)
