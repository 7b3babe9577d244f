"""Differentially private estimation toolkit.

Moment-perturbation private EM for Gaussian mixtures, one-shot private
factor analysis, private k-means, and a privacy-loss accountant with
linear, advanced, zCDP and moments-accountant composition.
"""

from .accountant import (
    CompositionPlan,
    MomentCurve,
    PrivacyBudget,
    advanced_compose,
    advanced_calibrate,
    calibrate,
    compose,
    compose_trace,
    gaussian_moment,
    gaussian_sigma,
    laplace_moment,
    laplace_scale,
    linear_compose,
    linear_calibrate,
    ma_calibrate,
    ma_tail_epsilon,
    ma_total_moment,
    zcdp_calibrate,
    zcdp_calibrate_pure,
    zcdp_rho,
    zcdp_to_dp,
)
from .data import BoundedDataset, preprocess
from .dataio import (
    ExperimentResult,
    cv_split,
    load_csv,
    summarize,
    synth_mog,
    write_csv,
    write_results_jsonl,
    write_summary_csv,
)
from .dpem_mog import DpEmConfig, run_dpem_mog
from .errors import (
    DataError,
    DegenerateComponentError,
    DpemError,
    SingularCovarianceError,
    UnattainableBudgetError,
)
from .fa import (
    FAParams,
    SecondMoment,
    fa_average_log_likelihood,
    perturb_second_moment,
    run_fa_em,
    second_moment,
)
from .kmeans import Clustering, dplloyd, dpem_kmeans, lloyd, nicv
from .mechanisms import (
    AccountingTrace,
    TraceRecord,
    analyze_gauss_perturb,
    perturb_mean,
    perturb_simplex,
    psd_project,
)
from .mog import (
    MoGParams,
    Responsibilities,
    e_step,
    fit_em,
    init_params,
    log_likelihood,
    m_step_mle,
)

__all__ = [
    "AccountingTrace", "advanced_calibrate", "advanced_compose",
    "analyze_gauss_perturb", "BoundedDataset", "calibrate", "Clustering",
    "compose", "compose_trace", "CompositionPlan", "cv_split", "DataError",
    "DegenerateComponentError", "dpem_kmeans", "DpEmConfig", "DpemError",
    "dplloyd", "e_step", "ExperimentResult", "fa_average_log_likelihood",
    "FAParams", "fit_em", "gaussian_moment", "gaussian_sigma", "init_params",
    "laplace_moment", "laplace_scale", "linear_calibrate", "linear_compose",
    "lloyd", "load_csv", "log_likelihood", "m_step_mle", "ma_calibrate",
    "ma_tail_epsilon", "ma_total_moment", "MoGParams", "MomentCurve", "nicv",
    "perturb_mean",
    "perturb_second_moment", "perturb_simplex", "preprocess", "PrivacyBudget",
    "psd_project", "Responsibilities", "run_dpem_mog", "run_fa_em",
    "second_moment", "SecondMoment", "SingularCovarianceError", "summarize",
    "synth_mog", "TraceRecord", "UnattainableBudgetError", "write_csv",
    "write_results_jsonl", "write_summary_csv", "zcdp_calibrate",
    "zcdp_calibrate_pure", "zcdp_rho", "zcdp_to_dp",
]
__version__ = "0.1.0"
