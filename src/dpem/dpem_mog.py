"""Differentially private EM for Gaussian mixtures.

Each iteration recomputes responsibilities from the previous iteration's
released (noised) parameters, then releases weights, means and covariances
through calibrated noise mechanisms. Denominators use the noised counts,
so only the gamma-weighted numerator sums are data-sensitive; that is what
the 2/N, 2 sqrt(d)/N_k and 2/N_k sensitivity bounds cover.

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
from .mog import PSD_FLOOR, MapPrior, MoGParams, e_step, init_params


@dataclass(frozen=True)
class DpEmConfig:
    """Configuration of one private mixture fit."""

    components: int
    iterations: int
    total: PrivacyBudget
    delta_i: float = 1e-6
    scenario: str = "ggg"
    method: str = "zcdp"
    estimator: str = "map"
    prior: Optional[MapPrior] = None
    seed: Optional[int] = None
    max_order: int = DEFAULT_MAX_ORDER
    psd_floor: float = PSD_FLOOR
    count_floor: float = COUNT_FLOOR
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


def _spec(kind: str, sensitivity: float, eps_i: float, delta_i: float,
          disable_noise: bool) -> MechanismSpec:
    if disable_noise:
        return MechanismSpec(kind, sensitivity, 0.0)
    if kind == "laplace":
        return MechanismSpec.laplace(sensitivity, eps_i)
    return MechanismSpec.gaussian(sensitivity, eps_i, delta_i)


def run_dpem_mog(data: BoundedDataset, cfg: DpEmConfig
                 ) -> tuple[MoGParams, AccountingTrace]:
    """Run exactly J private EM iterations and return (params, trace).

    The trace lists every mechanism invocation (J(2K+1) records per run)
    and can be recomposed by any accounting method to audit the spend.
    """
    n, d = data.n, data.d
    K = cfg.components
    if n < K:
        raise DataError(f"need at least {K} rows, got {n}")
    prior = cfg.prior
    if cfg.estimator == "map" and prior is None:
        prior = MapPrior.default(K, d)

    if cfg.disable_noise:
        eps_i = float("nan")
    else:
        eps_i = calibrate(cfg.plan(), cfg.total, max_order=cfg.max_order)
    pi_kind = "laplace" if cfg.scenario == "llg" else "gaussian"
    pi_delta = None if pi_kind == "laplace" else cfg.delta_i
    mean_kind = pi_kind
    sqrt_d = math.sqrt(d)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(data, K, rng, cfg.psd_floor)
    trace = AccountingTrace()
    X = data.rows

    for j in range(cfg.iterations):
        resp = e_step(data, params)
        gamma = resp.gamma
        counts = resp.counts
        first = gamma.T @ X  # (K, d) weighted sums, the sensitive numerators

        # --- weights ---------------------------------------------------
        pi_mle = counts / n
        pi_mle = pi_mle / pi_mle.sum()
        spec = _spec(pi_kind, 2.0 / n, eps_i, cfg.delta_i, cfg.disable_noise)
        pi_noised = perturb_simplex(pi_mle, spec, rng)
        trace.append(TraceRecord.from_spec(
            spec, eps_i, pi_delta, "weights", j))
        if cfg.estimator == "map":
            alpha = prior.dirichlet_alpha
            weights_out = (n * pi_noised + alpha - 1.0) / (n + alpha.sum() - K)
            weights_out = weights_out / weights_out.sum()
        else:
            weights_out = pi_noised

        # noised counts drive every later sensitivity this iteration
        counts_noised = n * pi_noised
        floored = counts_noised < cfg.count_floor
        counts_noised = np.maximum(counts_noised, cfg.count_floor)

        # --- means -----------------------------------------------------
        means_out = np.empty((K, d))
        for k in range(K):
            denom = counts_noised[k] + (prior.kappa0 if cfg.estimator == "map"
                                        else 0.0)
            mean_k = first[k] / denom
            sens = (2.0 * sqrt_d / denom) if mean_kind == "laplace" \
                else (2.0 / denom)
            spec = _spec(mean_kind, sens, eps_i, cfg.delta_i, cfg.disable_noise)
            means_out[k] = perturb_mean(mean_k, spec, rng)
            trace.append(TraceRecord.from_spec(
                spec, eps_i, pi_delta, "mean", j, component=k,
                flagged=bool(floored[k])))

        # --- covariances -------------------------------------------------
        covs_out = np.empty((K, d, d))
        for k in range(K):
            scatter = (gamma[:, k, None] * X).T @ X
            # the released mean absorbs the count denominator, so the
            # weighted-sum outer product rebuilds from it with that factor
            if cfg.estimator == "map":
                denom = counts_noised[k] + prior.nu0 + d + 2.0
                shrink = counts_noised[k] + prior.kappa0
                num = prior.s0 + scatter - shrink * np.outer(means_out[k],
                                                             means_out[k])
            else:
                denom = counts_noised[k]
                num = scatter - counts_noised[k] * np.outer(means_out[k],
                                                            means_out[k])
            cov_k = num / denom
            cov_k = 0.5 * (cov_k + cov_k.T)
            sens = 2.0 / denom
            spec = _spec("gaussian", sens, eps_i, cfg.delta_i, cfg.disable_noise)
            covs_out[k] = analyze_gauss_perturb(cov_k, spec, rng, cfg.psd_floor)
            trace.append(TraceRecord.from_spec(
                spec, eps_i, cfg.delta_i, "covariance", j, component=k,
                flagged=bool(floored[k])))

        params = MoGParams(weights_out, means_out, covs_out,
                           psd_floor=cfg.psd_floor)

    return params, trace
