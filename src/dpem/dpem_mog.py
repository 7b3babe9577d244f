"""Differentially private EM for Gaussian mixtures.

Private EM is plain EM plus one release step: each iteration runs the
E-step on the released parameters, then ``mog.m_step`` with
``_PrivateRelease``, a ``Release`` noising weights, means and covariances.
Denominators use the noised counts, so only the gamma-weighted numerator
sums are data-sensitive; that is what the 2/N, 2 sqrt(d)/N_k and 2/N_k
sensitivity bounds cover.

The seed ``mog.init_params`` reads no row, so these releases are the
run's only reads of the data. Per-iteration draw order is fixed: weights,
then means 1..K, then covariances 1..K. One run must own its RNG stream;
independent runs can go in parallel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .accountant import DEFAULT_MAX_ORDER, CompositionPlan, PrivacyBudget, calibrate
from .data import BoundedDataset
from .errors import DataError
from .mechanisms import (
    AccountingTrace,
    Release,
    analyze_gauss_perturb,
    perturb_mean,
    perturb_simplex,
)
from .mog import PSD_FLOOR, MapPrior, MoGParams, e_step, init_params, m_step


@dataclass(frozen=True)
class DpEmConfig:
    """Configuration of one private mixture fit. The MAP estimator uses the
    prior ``MapPrior.default``."""

    components: int
    iterations: int
    total: PrivacyBudget
    delta_i: float = 1e-6
    scenario: str = "ggg"
    method: str = "zcdp"
    estimator: str = "map"
    seed: Optional[int] = None
    max_order: int = DEFAULT_MAX_ORDER
    psd_floor: ClassVar[float] = PSD_FLOOR  # a constant, not a setting
    disable_noise: bool = False  # testing only: eps_i = inf, every noise scale 0

    def __post_init__(self):
        if self.components < 1 or self.iterations < 1:
            raise ValueError("components and iterations must be >= 1")
        if self.estimator not in ("mle", "map"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        self.plan()  # validates scenario/method/delta_i eagerly

    def plan(self) -> CompositionPlan:
        return CompositionPlan(
            scenario=self.scenario,
            iterations=self.iterations,
            components=self.components,
            delta_i=self.delta_i,
            method=self.method,
        )


class _PrivateRelease(Release):
    """Private EM's release step: the mixture's replace-one sensitivities
    and the adapters ``mog.m_step`` calls. ``disable_noise`` runs at
    ``eps_i = inf``."""

    def __init__(self, cfg: DpEmConfig, n: int, d: int, rng: np.random.Generator):
        super().__init__(math.inf if cfg.disable_noise else calibrate(
            cfg.plan(), cfg.total, max_order=cfg.max_order), cfg.delta_i, rng)
        self.scenario, self.n, self.d = cfg.scenario, n, d

    @staticmethod
    def mechanism(scenario: str, label: str, count: float,
                  d: Optional[int] = None) -> tuple[str, float]:
        """(kind, sensitivity) of a ``label`` release divided by ``count`` (N
        for the weights): Gaussian of L2 sensitivity 2/count, except that llg
        releases the weights and means by Laplace, a mean's L1 2 sqrt(d)/count."""
        kind = "laplace" if scenario == "llg" and label != "covariance" else "gaussian"
        return kind, (2.0 * math.sqrt(d) if kind == "laplace" and label == "mean"
                      else 2.0) / count

    def weights(self, pi: np.ndarray) -> np.ndarray:
        return self(pi, *self.mechanism(self.scenario, "weights", self.n), "weights",
                    perturb=perturb_simplex)

    def mean(self, k: int, mean: np.ndarray, denom: float) -> np.ndarray:
        return self(mean, *self.mechanism(self.scenario, "mean", denom, self.d), "mean",
                    k, perturb=perturb_mean)

    def covariance(self, k: int, cov: np.ndarray, denom: float) -> np.ndarray:
        return self(cov, *self.mechanism(self.scenario, "covariance", denom),
                    "covariance", k, perturb=analyze_gauss_perturb, psd_floor=PSD_FLOOR)


def run_dpem_mog(data: BoundedDataset, cfg: DpEmConfig
                 ) -> tuple[MoGParams, AccountingTrace]:
    """Run exactly J private EM iterations and return (params, trace).

    The trace lists every mechanism invocation (J(2K+1) records per run)
    and can be recomposed by any accounting method to audit the spend.
    """
    K = cfg.components
    if data.n < K:
        raise DataError(f"need at least {K} rows, got {data.n}")
    prior = MapPrior.default(K, data.d) if cfg.estimator == "map" else None
    rng = np.random.default_rng(cfg.seed)
    release = _PrivateRelease(cfg, data.n, data.d, rng)
    params = init_params(data, K, rng)
    for j in range(cfg.iterations):
        release.iteration = j
        params = m_step(data, e_step(data, params), prior, release)
    return params, release.trace
