"""Differentially private EM for Gaussian mixtures.

Private EM is plain EM plus one release step: each iteration runs the
E-step on the released parameters, then ``mog.m_step`` with
``_PrivateRelease``, which noises the weights, means and covariances.
Denominators use the noised counts, so only the gamma-weighted numerator
sums are data-sensitive; that is what the 2/N, 2 sqrt(d)/N_k and 2/N_k
sensitivity bounds cover.

Per-iteration draw order is fixed: weights, then means 1..K, then
covariances 1..K. One run must own its RNG stream; independent runs can go
in parallel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .accountant import DEFAULT_MAX_ORDER, CompositionPlan, PrivacyBudget, calibrate
from .data import BoundedDataset
from .errors import DataError
from .mechanisms import (
    COUNT_FLOOR,
    AccountingTrace,
    MechanismSpec,
    TraceRecord,
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
    psd_floor: float = PSD_FLOOR
    disable_noise: bool = False  # testing only: forces every noise scale to 0

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


class _PrivateRelease:
    """Private EM's release step: ``mog.m_step`` passes each statistic
    through its calibrated noise mechanism, recorded in ``trace``.

    The only place a private mixture fit builds a mechanism, draws noise,
    floors a count or appends a trace record. ``iteration`` labels the
    records; set it before each M-step.
    """

    def __init__(self, cfg: DpEmConfig, n: int, d: int, rng: np.random.Generator):
        self.cfg = cfg
        self.eps_i = float("nan") if cfg.disable_noise else calibrate(
            cfg.plan(), cfg.total, max_order=cfg.max_order)
        self.rng = rng
        self.kind = "laplace" if cfg.scenario == "llg" else "gaussian"
        self.weights_sens = 2.0 / n
        # a mean's sensitivity times its count: L1 for Laplace, L2 for Gaussian
        self.mean_sens = 2.0 * math.sqrt(d) if self.kind == "laplace" else 2.0
        self.trace = AccountingTrace()
        self.iteration = 0
        self.floored = None

    def _mechanism(self, kind: str, sensitivity: float, label: str,
                   component: Optional[int] = None) -> MechanismSpec:
        """The mechanism of one release, recorded in the trace."""
        if self.cfg.disable_noise:
            spec = MechanismSpec(kind, sensitivity, 0.0)
        elif kind == "laplace":
            spec = MechanismSpec.laplace(sensitivity, self.eps_i)
        else:
            spec = MechanismSpec.gaussian(sensitivity, self.eps_i, self.cfg.delta_i)
        self.trace.append(TraceRecord.from_spec(
            spec, self.eps_i, self.cfg.delta_i if kind == "gaussian" else None,
            label, self.iteration, component=component,
            flagged=component is not None and bool(self.floored[component])))
        return spec

    def weights(self, pi: np.ndarray) -> np.ndarray:
        spec = self._mechanism(self.kind, self.weights_sens, "weights")
        return perturb_simplex(pi, spec, self.rng)

    def counts(self, counts: np.ndarray) -> np.ndarray:
        # noised counts drive every later sensitivity this iteration
        self.floored = counts < COUNT_FLOOR
        return np.maximum(counts, COUNT_FLOOR)

    def mean(self, k: int, mean: np.ndarray, denom: float) -> np.ndarray:
        spec = self._mechanism(self.kind, self.mean_sens / denom, "mean", k)
        return perturb_mean(mean, spec, self.rng)

    def covariance(self, k: int, cov: np.ndarray, denom: float) -> np.ndarray:
        spec = self._mechanism("gaussian", 2.0 / denom, "covariance", k)
        return analyze_gauss_perturb(cov, spec, self.rng, self.cfg.psd_floor)


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
    params = init_params(data, K, rng, cfg.psd_floor)
    for j in range(cfg.iterations):
        release.iteration = j
        params = m_step(data, e_step(data, params), prior, cfg.psd_floor, release)
    return params, release.trace
