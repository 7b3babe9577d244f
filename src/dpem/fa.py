"""Differentially private factor analysis.

The expected sufficient statistics of the FA model depend on the data only
through the second-moment matrix, so privacy costs a single symmetric
Gaussian perturbation of that matrix; the EM iterations afterwards are
pure post-processing and can run to convergence for free. The fitted state
is the loading W and the noise psi alone (``FAParams``); the posterior
covariance G = (I + W^T Psi^-1 W)^-1 is derived from them on demand.
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
        if not np.isfinite(m).all() or np.abs(m - m.T).max() > 1e-9:
            raise DataError("second moment must be finite and symmetric")
        if not self.n >= 1:
            raise DataError("source count must be >= 1")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FAParams:
    """Loading matrix W (d x q) and diagonal noise psi (length d)."""

    loading: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.loading, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if w.ndim != 2 or psi.ndim != 1 or w.shape[0] != psi.shape[0]:
            raise ValueError("loading must be d x q and psi length d")
        if not (np.isfinite(w).all() and np.isfinite(psi).all()):
            raise ValueError("loading and psi must be finite")
        if (psi < PSI_FLOOR - 1e-12).any():
            raise ValueError("psi entries below floor")
        object.__setattr__(self, "loading", w)
        object.__setattr__(self, "psi", psi)

    @property
    def posterior_cov(self) -> np.ndarray:
        """G = (I + W^T Psi^-1 W)^-1, the latent posterior covariance."""
        return _posterior_cov(self.loading, self.psi)

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

    One unit-ball row contributes at most 1/N to the matrix in Frobenius
    norm, so replacing it (the relation this release runs under) moves the
    matrix by at most 2/N. Returns the perturbed moment, projected at
    ``mechanisms.PSD_FLOOR``, and a single-entry accounting trace.
    """
    if not 0.0 < total.epsilon < 1.0:
        raise UnattainableBudgetError(
            f"the one-shot Gaussian release needs epsilon in (0, 1), "
            f"got {total.epsilon}"
        )
    release = Release("replace-one", total.epsilon, total.delta, rng)
    noised = release(mom.matrix, "gaussian", 1.0 / mom.n, "second_moment",
                     perturb=analyze_gauss_perturb)
    return SecondMoment(noised, mom.n), release.trace


def _init_params(mom: SecondMoment, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled principal components of the moment matrix seed the loading."""
    vals, vecs = np.linalg.eigh(mom.matrix)
    order = np.argsort(vals)[::-1][:q]
    top_vals = np.maximum(vals[order], 0.0)
    w = vecs[:, order] * np.sqrt(top_vals)
    psi = np.maximum(np.diag(mom.matrix) - (w ** 2).sum(axis=1), PSI_FLOOR)
    return w, psi


def _posterior_cov(w: np.ndarray, psi: np.ndarray) -> np.ndarray:
    g = np.linalg.inv(np.eye(w.shape[1]) + (w.T / psi) @ w)
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
    w, psi = _init_params(mom, q)
    for _ in range(iters):
        g = _posterior_cov(w, psi)
        b = w / psi[:, None]              # Psi^-1 W          (d x q)
        first = lam @ b @ g               # Lambda Psi^-1 W G (d x q)
        second = g + g @ b.T @ first      # G + G W^T Psi^-1 Lambda Psi^-1 W G
        w_new = np.linalg.solve(second.T, first.T).T
        psi_new = np.diag(lam - w_new @ g @ (b.T @ lam))
        psi_new = np.maximum(psi_new, PSI_FLOOR)
        delta = max(np.abs(w_new - w).max(initial=0.0),
                    np.abs(psi_new - psi).max())
        w, psi = w_new, psi_new
        if delta < tol:
            break
    return FAParams(w, psi)


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
