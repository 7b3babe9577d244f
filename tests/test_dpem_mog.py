import numpy as np
import pytest

from dpem.accountant import PrivacyBudget, calibrate, compose, compose_trace
from dpem.data import BoundedDataset, preprocess
from dpem.dataio import synth_mog
from dpem.dpem_mog import DpEmConfig, run_dpem_mog
from dpem.errors import DataError, UnattainableBudgetError
from dpem.mog import PSD_FLOOR, fit_em, log_likelihood


def planted(n=800, d=2, k=2, sep=4.0, seed=5):
    raw, _ = synth_mog(n, d, k, separation=sep, seed=seed)
    return preprocess(raw)


def cfg_for(data, **kw):
    defaults = dict(components=2, iterations=4,
                    total=PrivacyBudget(1.0, 1e-4), delta_i=1e-6,
                    scenario="ggg", method="zcdp", estimator="map", seed=0)
    defaults.update(kw)
    return DpEmConfig(**defaults)


@pytest.mark.parametrize("estimator", ["mle", "map"])
def test_noise_free_mode_reproduces_plain_em(estimator):
    data = planted()
    cfg = cfg_for(data, estimator=estimator, disable_noise=True, seed=3)
    dp_params, _ = run_dpem_mog(data, cfg)
    plain = fit_em(data, 2, 4, estimator=estimator, seed=3)
    np.testing.assert_allclose(dp_params.weights, plain.weights, atol=1e-8)
    np.testing.assert_allclose(dp_params.means, plain.means, atol=1e-8)
    np.testing.assert_allclose(dp_params.covariances, plain.covariances,
                               atol=1e-8)


def test_trace_length_ggg():
    data = planted(n=600, k=3)
    cfg = cfg_for(data, components=3, iterations=10)
    _, trace = run_dpem_mog(data, cfg)
    assert len(trace) == 10 * (2 * 3 + 1)
    assert trace.n_gaussian == 70
    assert trace.n_laplace == 0


def test_trace_split_llg():
    data = planted(n=600, k=2)
    cfg = cfg_for(data, iterations=3, scenario="llg")
    _, trace = run_dpem_mog(data, cfg)
    assert trace.n_laplace == 3 * (2 + 1)
    assert trace.n_gaussian == 3 * 2
    labels = [r.label for r in trace][:5]
    assert labels == ["weights", "mean", "mean", "covariance", "covariance"]


@pytest.mark.parametrize("method", ["linear", "advanced", "zcdp", "ma"])
@pytest.mark.parametrize("scenario", ["llg", "ggg"])
def test_spend_audit_within_budget(method, scenario):
    data = planted(n=500)
    cfg = cfg_for(data, method=method, scenario=scenario, iterations=3,
                  max_order=256)
    _, trace = run_dpem_mog(data, cfg)
    spent = compose_trace(trace, method, cfg.total.delta, max_order=256)
    assert spent.epsilon <= cfg.total.epsilon + 1e-9
    assert spent.delta <= cfg.total.delta + 1e-12


@pytest.mark.parametrize("method", ["linear", "advanced", "zcdp", "ma"])
@pytest.mark.parametrize("scenario", ["llg", "ggg"])
def test_audit_equals_calibration(method, scenario):
    # the audit of a run and the composition its calibration searched over
    # are the same engine on the same charges
    data = planted(n=500)
    cfg = cfg_for(data, method=method, scenario=scenario, iterations=3)
    eps_i = calibrate(cfg.plan(), cfg.total, max_order=cfg.max_order)
    _, trace = run_dpem_mog(data, cfg)
    assert {r.eps_i for r in trace} == {eps_i}
    audited = compose_trace(trace, method, cfg.total.delta)
    planned = compose(cfg.plan().charges(eps_i), method, cfg.total.delta)
    assert audited.epsilon == pytest.approx(planned.epsilon, rel=1e-12, abs=0)
    assert audited.delta == pytest.approx(planned.delta, rel=1e-12, abs=0)


def test_released_params_always_valid():
    data = planted(n=300)
    for seed in range(15):
        cfg = cfg_for(data, seed=seed, total=PrivacyBudget(0.3, 1e-4),
                      iterations=2)
        params, _ = run_dpem_mog(data, cfg)  # constructor validates invariants
        assert abs(params.weights.sum() - 1.0) < 1e-9
        for cov in params.covariances:
            assert np.linalg.eigvalsh(cov).min() >= cfg.psd_floor - 1e-9


def test_flagged_records_when_counts_floor():
    # tiny data + tiny budget: some weight gets clipped to zero, so the
    # count floor and the flag must kick in
    data = planted(n=60, k=2)
    flagged_seen = False
    for seed in range(10):
        cfg = cfg_for(data, components=3, seed=seed,
                      total=PrivacyBudget(0.05, 1e-4), iterations=2)
        _, trace = run_dpem_mog(data, cfg)
        if trace.flagged():
            flagged_seen = True
            break
    assert flagged_seen


def test_config_validates_scenario_and_method_eagerly():
    with pytest.raises(ValueError):
        cfg_for(None, scenario="bogus", disable_noise=True)
    with pytest.raises(ValueError):
        cfg_for(None, method="bogus", disable_noise=True)


def test_rejects_fewer_rows_than_components():
    data = BoundedDataset(np.zeros((2, 2)) + 0.1)
    with pytest.raises(DataError):
        run_dpem_mog(data, cfg_for(None, components=5))


def test_unattainable_budget_propagates():
    data = planted(n=200)
    cfg = cfg_for(data, method="ma", total=PrivacyBudget(0.05, 1e-4),
                  max_order=16)
    with pytest.raises(UnattainableBudgetError):
        run_dpem_mog(data, cfg)


def test_large_budget_close_to_non_private():
    data = planted(n=5000, d=2, k=2, sep=1.5, seed=9)
    gaps = []
    for seed in range(5):
        cfg = cfg_for(data, iterations=5, total=PrivacyBudget(4.0, 1e-4),
                      seed=seed)
        dp_params, _ = run_dpem_mog(data, cfg)
        plain = fit_em(data, 2, 5, estimator="map", seed=seed)
        gaps.append((log_likelihood(data, plain)
                     - log_likelihood(data, dp_params)) / data.n)
    assert np.median(gaps) < 0.1


def test_same_seed_same_output():
    data = planted(n=400)
    cfg = cfg_for(data, seed=21)
    p1, _ = run_dpem_mog(data, cfg)
    p2, _ = run_dpem_mog(data, cfg)
    np.testing.assert_array_equal(p1.means, p2.means)


@pytest.mark.parametrize("method", ["zcdp", "ma"])
def test_all_gaussian_schedule_beats_mixed_at_equal_totals(method):
    # pure-DP releases cost eps_i^2/2 in rho versus eps_i^2/(4 log(1.25/
    # delta_i)) for calibrated Gaussians, so the mixed schedule calibrates
    # to a far smaller per-iteration budget and loses utility
    data = planted(n=8000, d=3, k=2, sep=1.0, seed=3)
    medians = {}
    for scenario in ("ggg", "llg"):
        lls = []
        for s in range(10):
            cfg = cfg_for(data, iterations=5, scenario=scenario,
                          method=method, seed=400 + s, max_order=512)
            params, _ = run_dpem_mog(data, cfg)
            lls.append(log_likelihood(data, params) / data.n)
        medians[scenario] = float(np.median(lls))
    assert medians["ggg"] >= medians["llg"]


def test_psd_floor_is_a_constant_not_a_setting():
    cfg = cfg_for(planted())
    assert cfg.psd_floor == PSD_FLOOR
    with pytest.raises(TypeError):
        cfg_for(planted(), psd_floor=0.5)
