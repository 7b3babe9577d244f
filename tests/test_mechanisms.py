import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpem.accountant import PrivacyBudget
from dpem.data import preprocess
from dpem.dataio import synth_mog
from dpem.dpem_mog import DpEmConfig, run_dpem_mog
from dpem.errors import DataError
from dpem.kmeans import dplloyd, dpem_kmeans
from dpem.mechanisms import (
    COUNT_FLOOR,
    AccountingTrace,
    MechanismSpec,
    Release,
    TraceRecord,
    analyze_gauss_perturb,
    gaussian_sigma,
    laplace_scale,
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


def test_laplace_scale_formula():
    assert laplace_scale(2.0 * math.sqrt(3) / 100.0, 0.5) == pytest.approx(
        2.0 * math.sqrt(3) / 50.0)


# --- perturb_simplex ----------------------------------------------------------


def test_perturb_simplex_zero_scale_is_identity():
    w = np.array([0.3, 0.2, 0.5])
    spec = MechanismSpec("gaussian", 0.1, 0.0)
    out = perturb_simplex(w, spec, np.random.default_rng(0))
    np.testing.assert_allclose(out, w, atol=1e-15)


def test_perturb_simplex_always_on_simplex():
    rng = np.random.default_rng(42)
    spec = MechanismSpec("laplace", 0.2, 0.7)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    for _ in range(10_000):
        out = perturb_simplex(w, spec, rng)
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-9


def test_perturb_simplex_clamp_path():
    out = perturb_simplex(np.array([1.0, 0.0]),
                          MechanismSpec("laplace", 0.5, 1.0),
                          ForcedRng([-2.0, 2.0]))
    np.testing.assert_allclose(out, [0.0, 1.0])


def test_perturb_simplex_all_clipped_falls_back_to_uniform():
    out = perturb_simplex(np.array([0.5, 0.5]),
                          MechanismSpec("laplace", 0.5, 1.0),
                          ForcedRng([-3.0, -3.0]))
    np.testing.assert_allclose(out, [0.5, 0.5])


# --- perturb_mean --------------------------------------------------------------


def test_perturb_mean_zero_scale_identity():
    m = np.array([0.1, -0.2, 0.3])
    out = perturb_mean(m, MechanismSpec("laplace", 0.1, 0.0),
                       np.random.default_rng(0))
    np.testing.assert_array_equal(out, m)


def test_perturb_mean_gaussian_std_matches_sigma():
    rng = np.random.default_rng(123)
    spec = MechanismSpec("gaussian", 1.0, 0.37)
    draws = np.array([perturb_mean(np.zeros(3), spec, rng)
                      for _ in range(100_000)])
    stds = draws.std(axis=0)
    np.testing.assert_allclose(stds, spec.noise_scale, rtol=0.02)


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
    out = analyze_gauss_perturb(cov, MechanismSpec("gaussian", 0.1, 0.0),
                                np.random.default_rng(0))
    np.testing.assert_array_equal(out, cov)


def test_analyze_gauss_output_psd_and_symmetric():
    rng = np.random.default_rng(11)
    spec = MechanismSpec("gaussian", 0.1, 0.25)
    cov = np.diag([0.3, 0.2, 0.1])
    for _ in range(1000):
        out = analyze_gauss_perturb(cov, spec, rng, psd_floor=1e-6)
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() >= 1e-6 - 1e-9


def test_analyze_gauss_rejects_asymmetric_input():
    with pytest.raises(DataError):
        analyze_gauss_perturb(np.array([[1.0, 0.2], [0.1, 1.0]]),
                              MechanismSpec("gaussian", 0.1, 0.1),
                              np.random.default_rng(0))


def test_analyze_gauss_requires_gaussian_spec():
    with pytest.raises(ValueError):
        analyze_gauss_perturb(np.eye(2), MechanismSpec("laplace", 0.1, 0.1),
                              np.random.default_rng(0))


# --- sensitivity bounds ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 50), st.integers(1, 3), st.integers(0, 10_000))
def test_release_sensitivities_within_bounds(n, d, seed):
    """Neighboring datasets (one row swapped) with shared responsibilities
    never move the released statistics further than the advertised bounds."""
    rng = np.random.default_rng(seed)

    def ball_rows(m):
        raw = rng.normal(size=(m, d))
        norms = np.maximum(np.linalg.norm(raw, axis=1), 1.0)
        return raw / norms[:, None] * rng.uniform(0, 1, size=(m, 1)) ** (1 / d)

    X = ball_rows(n)
    Xp = X.copy()
    Xp[0] = ball_rows(1)[0]
    K = 2
    gamma = rng.dirichlet(np.ones(K), size=n)
    gamma_p = gamma.copy()
    gamma_p[0] = rng.dirichlet(np.ones(K))

    pi = gamma.sum(axis=0) / n
    pi_p = gamma_p.sum(axis=0) / n
    assert np.abs(pi - pi_p).sum() <= 2.0 / n + 1e-12

    nk = 5.0  # fixed public denominator, as the private pipeline uses
    for k in range(K):
        mu = gamma[:, k] @ X / nk
        mu_p = gamma_p[:, k] @ Xp / nk
        assert np.abs(mu - mu_p).sum() <= 2.0 * math.sqrt(d) / nk + 1e-12
        assert np.linalg.norm(mu - mu_p) <= 2.0 / nk + 1e-12
        scatter = (gamma[:, k, None] * X).T @ X / nk
        scatter_p = (gamma_p[:, k, None] * Xp).T @ Xp / nk
        assert np.linalg.norm(scatter - scatter_p, "fro") <= 2.0 / nk + 1e-12

    lam = X.T @ X / n
    lam_p = Xp.T @ Xp / n
    assert np.linalg.norm(lam - lam_p, "fro") <= 2.0 / n + 1e-12


# --- trace ------------------------------------------------------------------------


def test_trace_counts_and_rho():
    trace = AccountingTrace()
    trace.append(TraceRecord("laplace", 1.0, 2.0, 0.5, None, "weights", 0))
    trace.append(TraceRecord("gaussian", 1.0, 2.0, 0.5, 1e-6, "cov", 0, beta=4.0))
    assert trace.n_laplace == 1
    assert trace.n_gaussian == 1
    assert trace.gaussian_delta() == pytest.approx(1e-6)
    # laplace: eps^2/2; gaussian: 1/(2*4)
    assert trace.total_rho() == pytest.approx(0.5 * 0.25 + 0.125)
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
    assert trace.total_rho() == pytest.approx(0.5 * (0.25 ** 2 + 0.5 ** 2
                                                     + 0.4 ** 2))


def test_trace_charges_one_per_group_at_the_costliest_member():
    trace = AccountingTrace([TraceRecord("laplace", 1.0, 4.0, 0.25, None,
                                         "counts", 0)])
    for eps_i in (0.5, 0.1):
        trace.append(TraceRecord("laplace", 1.0, 1.0 / eps_i, eps_i, None,
                                 "centroid", 0, parallel=True))
    trace.append(TraceRecord("gaussian", 1.0, 2.0, 0.5, 1e-6, "cov", 0, beta=4.0))
    assert trace.charges() == [("laplace", 0.25, None, 0.5 * 0.25 ** 2, 1),
                               ("laplace", 0.5, None, 0.5 * 0.5 ** 2, 1),
                               ("gaussian", 0.5, 1e-6, 0.125, 1)]


def test_trace_charges_refuse_a_mixed_parallel_group():
    trace = AccountingTrace([
        TraceRecord("laplace", 1.0, 2.0, 0.5, None, "x", 0, parallel=True),
        TraceRecord("gaussian", 1.0, 2.0, 0.5, 1e-6, "x", 0, beta=4.0,
                    parallel=True)])
    with pytest.raises(ValueError, match="mixes"):
        trace.charges()


def test_trace_record_zcdp_rho_pure_dp_unit():
    rec = TraceRecord("laplace", 1.0, 1.0, 1.0, None, "x", 0)
    assert rec.zcdp_rho() == pytest.approx(0.5)


# --- release ----------------------------------------------------------------------


@pytest.mark.parametrize("kind,spec", [
    ("laplace", MechanismSpec.laplace(0.5, 0.25)),
    ("gaussian", MechanismSpec.gaussian(0.5, 0.25, 1e-6)),
])
def test_release_records_its_mechanism(kind, spec):
    release = Release(0.25, 1e-6, np.random.default_rng(0))
    release.iteration = 3
    out = release(np.zeros(4), kind, 0.5, "mean")
    rec = release.trace[0]
    assert (rec.kind, rec.sensitivity, rec.noise_scale) == (
        spec.kind, spec.sensitivity, spec.noise_scale)
    assert (rec.eps_i, rec.label, rec.iteration) == (0.25, "mean", 3)
    assert rec.component is None and not rec.flagged and not rec.parallel
    if kind == "laplace":
        assert rec.delta_i is None and rec.beta is None
    else:
        assert rec.delta_i == 1e-6 and rec.beta == spec.noise_scale ** 2
    expected = perturb_mean(np.zeros(4), spec, np.random.default_rng(0))
    np.testing.assert_array_equal(out, expected)


def test_release_passes_perturb_and_its_arguments():
    release = Release(0.5, 1e-6, np.random.default_rng(1))
    out = release(np.eye(2), "gaussian", 1e-3, "covariance",
                  perturb=analyze_gauss_perturb, psd_floor=0.5)
    assert np.linalg.eigvalsh(out).min() >= 0.5 - 1e-12


def test_release_flags_the_records_of_floored_counts():
    release = Release(1.0, None, np.random.default_rng(0))
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
    release = Release(math.inf, 1e-6, np.random.default_rng(0))
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
