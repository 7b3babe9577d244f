import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpem.accountant import (
    SCENARIOS,
    PrivacyBudget,
    _trace_charges,
    compose_trace,
    gaussian_sigma,
    laplace_scale,
    zcdp_to_dp,
)
from dpem.data import BoundedDataset, preprocess
from dpem.dataio import synth_mog
from dpem.dpem_mog import DpEmConfig, _PrivateRelease, run_dpem_mog
from dpem.errors import DataError
from dpem.fa import perturb_second_moment, second_moment
from dpem.kmeans import dplloyd, dpem_kmeans
from dpem.mechanisms import (
    COUNT_FLOOR,
    PSD_FLOOR,
    ROW_CHANGE,
    AccountingTrace,
    Release,
    TraceRecord,
    analyze_gauss_perturb,
    perturb_mean,
    perturb_simplex,
    psd_project,
)


class ForcedRng:
    """Stub RNG that returns a fixed noise vector."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def laplace(self, loc, scale, size=None):
        return self.values.reshape(size)

    def normal(self, loc, scale, size=None):
        return self.values.reshape(size)


# --- gaussian_sigma ----------------------------------------------------------


def test_gaussian_sigma_log_term_two():
    # delta_i = 1.25/e^2 makes the log term exactly 2
    sigma = gaussian_sigma(1.0, 1.0 - 1e-12, 1.25 * math.exp(-2.0))
    assert sigma == pytest.approx(2.0, rel=1e-9)


def test_gaussian_sigma_zero_sensitivity():
    assert gaussian_sigma(0.0, 0.5, 1e-6) == 0.0


def test_gaussian_sigma_frozen_value():
    # sqrt(2 log(1.25e6)) / 0.5, cross-checked with 40-digit arithmetic
    assert gaussian_sigma(1.0, 0.5, 1e-6) == pytest.approx(
        10.597605053700948, rel=1e-12)


@pytest.mark.parametrize("eps", [1.0, 1.5, 0.0, -0.1])
def test_gaussian_sigma_rejects_out_of_range_eps(eps):
    with pytest.raises(ValueError):
        gaussian_sigma(1.0, eps, 1e-6)


@pytest.mark.parametrize("fn, args", [
    (laplace_scale, (1.0, math.nan)),
    (laplace_scale, (math.nan, 1.0)),
    (gaussian_sigma, (math.nan, 0.5, 1e-6)),
    (gaussian_sigma, (1.0, math.nan, 1e-6)),
    (gaussian_sigma, (1.0, 0.5, math.nan)),
])
def test_noise_scales_reject_nan(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_noise_scales_keep_inf_legal():
    assert laplace_scale(1.0, math.inf) == 0.0
    assert laplace_scale(math.inf, 1.0) == math.inf
    assert gaussian_sigma(math.inf, 0.5, 1e-6) == math.inf


def test_laplace_scale_formula():
    assert laplace_scale(2.0 * math.sqrt(3) / 100.0, 0.5) == pytest.approx(
        2.0 * math.sqrt(3) / 50.0)


# --- perturb_simplex ----------------------------------------------------------


def test_perturb_simplex_zero_scale_is_identity():
    w = np.array([0.3, 0.2, 0.5])
    out = perturb_simplex(w, "gaussian", 0.0, np.random.default_rng(0))
    np.testing.assert_allclose(out, w, atol=1e-15)


def test_perturb_simplex_always_on_simplex():
    rng = np.random.default_rng(42)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    for _ in range(10_000):
        out = perturb_simplex(w, "laplace", 0.7, rng)
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-9


def test_perturb_simplex_clamp_path():
    out = perturb_simplex(np.array([1.0, 0.0]), "laplace", 1.0,
                          ForcedRng([-2.0, 2.0]))
    np.testing.assert_allclose(out, [0.0, 1.0])


def test_perturb_simplex_all_clipped_falls_back_to_uniform():
    out = perturb_simplex(np.array([0.5, 0.5]), "laplace", 1.0,
                          ForcedRng([-3.0, -3.0]))
    np.testing.assert_allclose(out, [0.5, 0.5])


# --- perturb_mean --------------------------------------------------------------


def test_perturb_mean_zero_scale_identity():
    m = np.array([0.1, -0.2, 0.3])
    out = perturb_mean(m, "laplace", 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, m)


def test_perturb_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown mechanism kind"):
        perturb_mean(np.zeros(2), "cauchy", 1.0, np.random.default_rng(0))


def test_perturb_mean_gaussian_std_matches_sigma():
    rng = np.random.default_rng(123)
    draws = np.array([perturb_mean(np.zeros(3), "gaussian", 0.37, rng)
                      for _ in range(100_000)])
    stds = draws.std(axis=0)
    np.testing.assert_allclose(stds, 0.37, rtol=0.02)


def test_laplace_sampler_mean_and_scale():
    rng = np.random.default_rng(7)
    b = 0.83
    draws = rng.laplace(0.0, b, size=1_000_000)
    assert abs(draws.mean()) < 0.01
    assert np.abs(np.abs(draws).mean() - b) / b < 0.02


# --- psd_project ----------------------------------------------------------------


def test_psd_project_identity_unchanged():
    eye = np.eye(3)
    assert psd_project(eye, 1e-6) is eye


def test_psd_project_clamps_negative_eigenvalue():
    out = psd_project(np.diag([1.0, -0.2]), 1e-6)
    np.testing.assert_allclose(out, np.diag([1.0, 1e-6]), atol=1e-15)


def test_psd_project_idempotent_on_random_symmetric():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    sym = 0.5 * (a + a.T)
    once = psd_project(sym, 1e-6)
    assert np.linalg.eigvalsh(once).min() >= 1e-6 - 1e-12
    np.testing.assert_array_equal(psd_project(once, 1e-6), once)


def test_psd_project_idempotent_over_sizes_and_scales():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(2, 11))
        a = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3, 3)
        once = psd_project(0.5 * (a + a.T), 1e-6)
        assert psd_project(once, 1e-6) is once


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_project_rejects_non_finite(bad):
    with pytest.raises(DataError, match="non-finite"):
        psd_project(np.array([[1.0, bad], [bad, 1.0]]), 1e-6)


def test_psd_project_decomposes_once_when_it_clamps(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda mat: calls.append("eigh") or eigh(mat))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda mat: calls.append("eigvalsh") or eigh(mat)[0])
    psd_project(np.diag([1.0, -0.2]), 1e-6)
    assert calls == ["eigh"]


# --- analyze_gauss_perturb ------------------------------------------------------


def test_analyze_gauss_zero_noise_identity_on_psd():
    cov = np.array([[0.5, 0.1], [0.1, 0.4]])
    out = analyze_gauss_perturb(cov, "gaussian", 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, cov)


def test_analyze_gauss_output_psd_and_symmetric():
    rng = np.random.default_rng(11)
    cov = np.diag([0.3, 0.2, 0.1])
    for _ in range(1000):
        out = analyze_gauss_perturb(cov, "gaussian", 0.25, rng)
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() >= PSD_FLOOR - 1e-9


def test_analyze_gauss_rejects_asymmetric_input():
    with pytest.raises(DataError):
        analyze_gauss_perturb(np.array([[1.0, 0.2], [0.1, 1.0]]), "gaussian",
                              0.1, np.random.default_rng(0))
    with pytest.raises(DataError, match="square"):
        analyze_gauss_perturb(np.ones((2, 3)), "gaussian", 0.1,
                              np.random.default_rng(0))


def test_analyze_gauss_requires_gaussian_spec():
    with pytest.raises(ValueError):
        analyze_gauss_perturb(np.eye(2), "laplace", 0.1, np.random.default_rng(0))


# --- sensitivity bounds ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 50), st.integers(1, 3), st.integers(0, 10_000))
def test_release_sensitivities_within_bounds(n, d, seed):
    """Neighbouring datasets (one row replaced) with shared public
    denominators never move a released statistic further than the
    sensitivity the code gives it: L1 for Laplace, L2 for Gaussian."""
    rng = np.random.default_rng(seed)

    def ball_rows(m):
        raw = rng.normal(size=(m, d))
        norms = np.maximum(np.linalg.norm(raw, axis=1), 1.0)
        return raw / norms[:, None] * rng.uniform(0, 1, size=(m, 1)) ** (1 / d)

    def within(kind, stat, stat_p, sensitivity):
        moved = np.ravel(stat - stat_p)
        norm = np.abs(moved).sum() if kind == "laplace" else np.linalg.norm(moved)
        assert norm <= sensitivity + 1e-12

    X = ball_rows(n)
    Xp = X.copy()
    Xp[0] = ball_rows(1)[0]
    K = 2
    gamma = rng.dirichlet(np.ones(K), size=n)
    gamma_p = gamma.copy()
    gamma_p[0] = rng.dirichlet(np.ones(K))

    nk = 5.0  # fixed public denominator, as the private pipeline uses
    statistics = [("weights", n, None, gamma.sum(axis=0) / n, gamma_p.sum(axis=0) / n)]
    for k in range(K):
        statistics += [
            ("mean", nk, d, gamma[:, k] @ X / nk, gamma_p[:, k] @ Xp / nk),
            ("covariance", nk, None, (gamma[:, k, None] * X).T @ X / nk,
             (gamma_p[:, k, None] * Xp).T @ Xp / nk)]
    for scenario in SCENARIOS:
        for label, count, dim, stat, stat_p in statistics:
            kind, bound = _PrivateRelease.mechanism(scenario, label, count, dim)
            within(kind, stat, stat_p, ROW_CHANGE["replace-one"] * bound)

    # FA's one release, at the sensitivity it records
    (record,) = perturb_second_moment(second_moment(BoundedDataset(X)),
                                      PrivacyBudget(0.5, 1e-4), rng)[1]
    assert record.sensitivity == ROW_CHANGE["replace-one"] * (1.0 / n)
    within(record.kind, X.T @ X / n, Xp.T @ Xp / n, record.sensitivity)


# --- trace ------------------------------------------------------------------------


def test_trace_counts_and_rho():
    trace = AccountingTrace()
    trace.append(TraceRecord("laplace", 1.0, 2.0, 0.5, None, "weights", 0))
    trace.append(TraceRecord("gaussian", 1.0, 2.0, 0.5, 1e-6, "cov", 0, beta=4.0))
    assert [r.kind for r in trace] == ["laplace", "gaussian"]
    assert trace.neighbours is None  # built by hand
    assert compose_trace(trace, "linear", 1e-4).delta == pytest.approx(1e-6)
    # laplace: eps^2/2; gaussian: 1/(2*4)
    assert compose_trace(trace, "zcdp", 1e-4).epsilon == pytest.approx(
        zcdp_to_dp(0.5 * 0.25 + 0.125, 1e-4))
    assert trace[1].beta == pytest.approx(4.0)


def test_trace_parallel_group_charged_at_its_most_expensive_member():
    trace = AccountingTrace()
    trace.append(TraceRecord("laplace", 1.0, 4.0, 0.25, None, "counts", 0))
    for eps_i in (0.5, 0.1, 0.3):
        trace.append(TraceRecord("laplace", 1.0, 1.0 / eps_i, eps_i, None,
                                 "centroid", 0, parallel=True))
    for eps_i in (0.2, 0.4):  # next iteration: a group of its own
        trace.append(TraceRecord("laplace", 1.0, 1.0 / eps_i, eps_i, None,
                                 "centroid", 1, parallel=True))
    groups = trace.groups()
    assert [len(g) for g in groups] == [1, 3, 2]
    assert compose_trace(trace, "zcdp", 1e-4).epsilon == pytest.approx(
        zcdp_to_dp(0.5 * (0.25 ** 2 + 0.5 ** 2 + 0.4 ** 2), 1e-4))


def test_trace_charges_one_per_group_at_the_costliest_member():
    trace = AccountingTrace([TraceRecord("laplace", 1.0, 4.0, 0.25, None,
                                         "counts", 0)])
    for eps_i in (0.5, 0.1):
        trace.append(TraceRecord("laplace", 1.0, 1.0 / eps_i, eps_i, None,
                                 "centroid", 0, parallel=True))
    trace.append(TraceRecord("gaussian", 1.0, 2.0, 0.5, 1e-6, "cov", 0, beta=4.0))
    assert _trace_charges(trace) == [("laplace", 0.25, None, 0.5 * 0.25 ** 2, 1),
                                     ("laplace", 0.5, None, 0.5 * 0.5 ** 2, 1),
                                     ("gaussian", 0.5, 1e-6, 0.125, 1)]


def test_trace_charges_refuse_a_mixed_parallel_group():
    trace = AccountingTrace([
        TraceRecord("laplace", 1.0, 2.0, 0.5, None, "x", 0, parallel=True),
        TraceRecord("gaussian", 1.0, 2.0, 0.5, 1e-6, "x", 0, beta=4.0,
                    parallel=True)])
    with pytest.raises(ValueError, match="mixes"):
        _trace_charges(trace)


def test_trace_record_zcdp_rho_pure_dp_unit():
    rec = TraceRecord("laplace", 1.0, 1.0, 1.0, None, "x", 0)
    assert _trace_charges(AccountingTrace([rec]))[0][3] == pytest.approx(0.5)


def covariance_records(n):
    """n Gaussian records, each with floats of its own, as a mixture run of
    7 components records its covariance releases."""
    records = []
    for i in range(n):
        sens = 2.0 / (i + 1.5)
        sigma = 3.0 * sens
        records.append(TraceRecord("gaussian", sens, sigma, 0.25, 1e-8, "covariance",
                                   i // 7, i % 7, False, sigma * sigma))
    return records


def test_trace_pickles_and_round_trips():
    trace = AccountingTrace(covariance_records(20) + [
        TraceRecord("laplace", 1.0, 2.0, 0.5, None, "centroid", 0, 1, True,
                    parallel=True)], neighbours="add-remove")
    back = pickle.loads(pickle.dumps(trace))
    assert back.records == trace.records and back.neighbours == "add-remove"
    assert compose_trace(back, "zcdp", 1e-4) == compose_trace(trace, "zcdp", 1e-4)


def test_trace_record_is_frozen_replaceable_and_has_no_dict():
    (rec,) = covariance_records(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.eps_i = 0.5
    moved = dataclasses.replace(rec, parallel=True)
    assert moved.parallel and moved.beta == rec.beta and not rec.parallel
    assert not hasattr(rec, "__dict__")


def test_trace_records_take_under_250_bytes_each():
    # with their floats and the list: 275 B each with a per-record
    # __dict__, 227 B with slots (CPython 3.11)
    covariance_records(10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = covariance_records(10_000)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / len(records) < 250


# --- release ----------------------------------------------------------------------


@pytest.mark.parametrize("kind,spec", [  # spec: (sensitivity, noise scale)
    ("laplace", (0.5, laplace_scale(0.5, 0.25))),
    ("gaussian", (0.5, gaussian_sigma(0.5, 0.25, 1e-6))),
])
def test_release_records_its_mechanism(kind, spec):
    # a replaced row moves the statistic by twice its bound of 0.25
    release = Release("replace-one", 0.25, 1e-6, np.random.default_rng(0))
    release.iteration = 3
    out = release(np.zeros(4), kind, 0.25, "mean")
    rec = release.trace[0]
    sensitivity, scale = spec
    assert (rec.kind, rec.sensitivity, rec.noise_scale) == (kind, sensitivity, scale)
    assert (rec.eps_i, rec.label, rec.iteration) == (0.25, "mean", 3)
    assert rec.component is None and not rec.flagged and not rec.parallel
    if kind == "laplace":
        assert rec.delta_i is None and rec.beta is None
    else:
        assert rec.delta_i == 1e-6 and rec.beta == scale ** 2
    assert release.trace.neighbours == "replace-one"
    expected = perturb_mean(np.zeros(4), kind, scale, np.random.default_rng(0))
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("neighbours", sorted(ROW_CHANGE))
def test_release_sensitivity_is_the_row_change_times_the_bound(neighbours):
    release = Release(neighbours, 0.5, 1e-6, np.random.default_rng(0))
    assert release.scale("laplace", 0.3) == (
        ROW_CHANGE[neighbours] * 0.3, laplace_scale(ROW_CHANGE[neighbours] * 0.3, 0.5))
    release(np.zeros(2), "gaussian", 0.3, "x")
    assert release.trace[0].sensitivity == ROW_CHANGE[neighbours] * 0.3
    assert release.trace.neighbours == neighbours


def test_release_flags_the_records_of_floored_counts():
    release = Release("add-remove", 1.0, None, np.random.default_rng(0))
    counts = release.counts(np.array([0.2, 5.0, -3.0]))
    np.testing.assert_array_equal(counts, [COUNT_FLOOR, 5.0, COUNT_FLOOR])
    for c in range(3):
        release(np.zeros(2), "laplace", 1.0 / counts[c], "centroid",
                component=c, parallel=True)
    release(np.zeros(2), "laplace", 1.0, "counts")
    assert [r.flagged for r in release.trace] == [True, False, True, False]
    assert [r.parallel for r in release.trace] == [True, True, True, False]
    assert [r.component for r in release.trace] == [0, 1, 2, None]


@pytest.mark.parametrize("kind", ["laplace", "gaussian"])
def test_release_at_infinite_eps_i_is_the_identity(kind):
    release = Release("replace-one", math.inf, 1e-6, np.random.default_rng(0))
    value = np.array([0.3, -0.1])
    np.testing.assert_array_equal(release(value, kind, 2.0, "x"), value)
    assert release.trace[0].noise_scale == 0.0
    assert release.trace[0].eps_i == math.inf


def test_noise_free_limit_is_the_same_on_every_path():
    data = preprocess(synth_mog(200, 2, 2, separation=4.0, seed=1)[0])
    traces = [run_dpem_mog(data, DpEmConfig(
        components=2, iterations=2, total=PrivacyBudget(1.0, 1e-4),
        scenario=scenario, disable_noise=True, seed=0))[1]
        for scenario in ("ggg", "llg")]
    traces += [dplloyd(data, 3, 2, 1.0, composition=composition, delta=1e-4,
                       rng=np.random.default_rng(0), eps_i=math.inf)[1]
               for composition in ("linear", "zcdp")]
    traces.append(dpem_kmeans(data, 3, 2, PrivacyBudget(1.0, 1e-4),
                              np.random.default_rng(0), eps_i=math.inf)[1])
    for trace in traces:
        assert len(trace) > 0
        assert all(r.noise_scale == 0.0 and r.eps_i == math.inf for r in trace)


def test_each_private_path_names_its_neighbouring_relation():
    data = preprocess(synth_mog(200, 2, 2, separation=4.0, seed=1)[0])
    budget = PrivacyBudget(0.5, 1e-4)
    replace_one = [run_dpem_mog(data, DpEmConfig(
        components=2, iterations=2, total=budget, scenario=scenario, seed=0))[1]
        for scenario in SCENARIOS]
    replace_one.append(perturb_second_moment(second_moment(data), budget,
                                             np.random.default_rng(0))[1])
    add_remove = [dplloyd(data, 3, 2, 1.0, composition=composition, delta=1e-4,
                          rng=np.random.default_rng(0))[1]
                  for composition in ("linear", "zcdp")]
    add_remove.append(dpem_kmeans(data, 3, 2, PrivacyBudget(1.0, 1e-4),
                                  np.random.default_rng(0))[1])
    assert [t.neighbours for t in replace_one] == ["replace-one"] * 3
    assert [t.neighbours for t in add_remove] == ["add-remove"] * 3
