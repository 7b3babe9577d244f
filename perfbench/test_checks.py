"""Each benchmark check passes on the program's output and rejects a
deliberately corrupted copy of it.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from dpem import accountant, data, dataio, dpem_mog, kmeans, mog

import reference as ref
import workloads


@pytest.fixture(scope="module")
def mixture():
    raw, _ = dataio.synth_mog(3000, 3, 2, 1.0, seed=3)
    rows = data.preprocess(raw).rows
    train, test = data.BoundedDataset(rows[:2700]), data.BoundedDataset(rows[2700:])

    def fit(iterations, disable_noise=False, method="zcdp", scenario="ggg"):
        cfg = dpem_mog.DpEmConfig(
            components=2, iterations=iterations,
            total=accountant.PrivacyBudget(1.0, 1e-4), delta_i=1e-6,
            scenario=scenario, method=method, seed=9, max_order=512,
            disable_noise=disable_noise)
        return dpem_mog.run_dpem_mog(train, cfg)

    return train, test, fit


def test_e_step_check_rejects_a_shifted_row(mixture):
    train, test, fit = mixture
    params, _ = fit(4, disable_noise=True)
    gamma = mog.e_step(test, params).gamma
    ref.check_e_step(test.rows, params, gamma)
    bad = gamma.copy()
    bad[7] += np.array([1e-6, -1e-6])
    with pytest.raises(ref.CheckError):
        ref.check_e_step(test.rows, params, bad)


@pytest.fixture(scope="module")
def mog_fit():
    workload = workloads.MogFit(1, None)
    workload.setup()
    return workload


@pytest.mark.parametrize("spec", [("ggg", "zcdp", 0.5), ("llg", "zcdp", 2.0)])
def test_e_step_and_likelihood_checks_reject_1e_6_on_a_private_fit(mog_fit, spec):
    """Private fits of the mog-fit workload release ill-conditioned
    covariances; the widened tolerances must still see a 1e-6 change."""
    params, _, _, per_point = mog_fit.run(spec, 0)
    X = mog_fit.test.rows
    assert max(np.linalg.cond(c) for c in params.covariances) > 1e5
    gamma = mog.e_step(mog_fit.test, params).gamma
    ref.check_e_step(X, params, gamma)
    ref.check_log_likelihood(X, params, per_point)
    row = int(np.argmin(gamma.max(axis=1)))  # the most evenly shared row
    top = int(np.argmax(gamma[row]))
    bad = gamma.copy()
    bad[row, top] -= 1e-6
    bad[row, (top + 1) % bad.shape[1]] += 1e-6
    with pytest.raises(ref.CheckError):
        ref.check_e_step(X, params, bad)
    with pytest.raises(ref.CheckError):
        ref.check_log_likelihood(X, params, per_point + 1e-6)


def test_e_step_check_is_not_widened_by_an_unused_component(mixture):
    """A far-away, ill-conditioned component with no responsibility in any
    row leaves the tolerance at 1e-9."""
    train, test, fit = mixture
    params, _ = fit(4, disable_noise=True)
    d = test.rows.shape[1]
    far = type("P", (), {
        "weights": np.append(params.weights * (1.0 - 1e-3), 1e-3),
        "means": np.vstack([params.means, np.full(d, 100.0)]),
        "covariances": np.concatenate([params.covariances,
                                       np.diag(np.geomspace(1e-6, 1.0, d))[None]])})
    gamma = ref.responsibilities(test.rows, far.weights, far.means, far.covariances)
    assert gamma[:, -1].max() == 0.0
    ref.check_e_step(test.rows, far, gamma)
    bad = gamma.copy()
    bad[7, :2] += np.array([1e-6, -1e-6])
    with pytest.raises(ref.CheckError):
        ref.check_e_step(test.rows, far, bad)


def test_log_likelihood_check_rejects_an_offset(mixture):
    train, test, fit = mixture
    params, _ = fit(4, disable_noise=True)
    per_point = mog.log_likelihood(test, params) / test.n
    ref.check_log_likelihood(test.rows, params, per_point)
    with pytest.raises(ref.CheckError):
        ref.check_log_likelihood(test.rows, params, per_point + 1e-6)


@pytest.mark.parametrize("scenario", ["ggg", "llg"])
@pytest.mark.parametrize("method", ["linear", "advanced", "zcdp", "ma"])
def test_audit_check_rejects_one_release_too_few(mixture, method, scenario):
    _, _, fit = mixture
    _, trace = fit(3, method=method, scenario=scenario)
    records = list(trace)
    spend = accountant.compose_trace(trace, method, 1e-4, max_order=512)
    ref.check_audit(records, method, 1.0, 1e-4, spend, 512)
    short = accountant.compose_trace(type(trace)(records[:-1]), method, 1e-4,
                                     max_order=512)
    with pytest.raises(ref.CheckError):
        ref.check_audit(records, method, 1.0, 1e-4, short, 512)


def test_audit_check_rejects_an_overspend(mixture):
    _, _, fit = mixture
    _, trace = fit(3, method="linear")
    spend = accountant.compose_trace(trace, "linear", 1e-4)
    with pytest.raises(ref.CheckError):
        ref.check_audit(list(trace), "linear", 0.9, 1e-4, spend, 512)


def test_audit_check_rejects_parallel_centroids_charged_apart():
    budget = accountant.PrivacyBudget(0.5, 1e-4)
    eps_i = accountant.zcdp_calibrate_pure(2 * 4, budget)
    trace = workloads.Accountant(0, None)._kmeans_trace(
        4, 5, eps_i, np.random.default_rng(0))
    records = list(trace)
    assert len(ref.trace_groups(records)) == 8
    spend = accountant.compose_trace(trace, "zcdp", 1e-4)
    ref.check_audit(records, "zcdp", 0.5, 1e-4, spend, 64)
    apart = type(trace)([dataclasses.replace(r, parallel=False) for r in records])
    with pytest.raises(ref.CheckError):
        ref.check_audit(records, "zcdp", 0.5, 1e-4,
                        accountant.compose_trace(apart, "zcdp", 1e-4), 64)


def test_mixture_params_check_rejects_invalid_releases(mixture):
    _, _, fit = mixture
    params, _ = fit(3)
    ref.check_mixture_params(params, params.psd_floor)
    off_simplex = type("P", (), {"weights": params.weights + 1e-6,
                                 "covariances": params.covariances})
    with pytest.raises(ref.CheckError):
        ref.check_mixture_params(off_simplex, params.psd_floor)
    covs = params.covariances.copy()
    covs[0, 0, 1] += 1e-9
    with pytest.raises(ref.CheckError):
        ref.check_mixture_params(type("P", (), {"weights": params.weights,
                                                "covariances": covs}), params.psd_floor)
    covs = params.covariances.copy()
    covs[1] = np.diag(np.full(covs.shape[1], 0.5 * params.psd_floor))
    with pytest.raises(ref.CheckError):
        ref.check_mixture_params(type("P", (), {"weights": params.weights,
                                                "covariances": covs}), params.psd_floor)


def test_map_step_check_rejects_a_moved_mean(mixture):
    train, _, fit = mixture
    before, _ = fit(3, disable_noise=True)
    after, _ = fit(4, disable_noise=True)
    ref.check_map_step(train.rows, before, after, after.psd_floor)
    means = after.means.copy()
    means[1, 0] += 1e-6
    moved = type("P", (), {"weights": after.weights, "means": means,
                           "covariances": after.covariances})
    with pytest.raises(ref.CheckError):
        ref.check_map_step(train.rows, before, moved, after.psd_floor)


@pytest.mark.parametrize("method", ["linear", "advanced", "zcdp", "ma"])
def test_calibration_check_rejects_a_wrong_eps_i(method):
    plan = accountant.CompositionPlan(scenario="llg", iterations=10, components=3,
                                      delta_i=1e-8, method=method)
    budget = accountant.PrivacyBudget(1.0, 1e-4)
    eps_i = accountant.calibrate(plan, budget, max_order=512)
    n_lap, n_gauss = ref.plan_counts("llg", 10, 3)
    args = (method, n_lap, n_gauss, 1.0, 1e-4, 1e-8, 512)
    tol, cap = accountant.SEARCH_REL_TOL, accountant.EPS_I_HI
    ref.check_calibration(*args, eps_i, tol, cap)
    for wrong in (eps_i * (1.0 + 20.0 * tol), eps_i * (1.0 - 20.0 * tol)):
        with pytest.raises(ref.CheckError):
            ref.check_calibration(*args, wrong, tol, cap)


@pytest.fixture(scope="module")
def clusters():
    raw, _ = dataio.synth_mog(5000, 2, 3, 8.0, seed=4)
    return data.preprocess(raw)


def test_label_and_nicv_checks_reject_corruption(clusters):
    clustering, _ = kmeans.dpem_kmeans(clusters, 3, 5, accountant.PrivacyBudget(1.0, 1e-4),
                                       np.random.default_rng(2))
    X, centers = clusters.rows, clustering.centers
    ref.check_labels(X, centers, clustering.assignments)
    value = kmeans.nicv(clusters, centers)
    ref.check_nicv(X, centers, value)
    labels = clustering.assignments.copy()
    labels[0] = (labels[0] + 1) % 3
    with pytest.raises(ref.CheckError):
        ref.check_labels(X, centers, labels)
    with pytest.raises(ref.CheckError):
        ref.check_nicv(X, centers, value * (1.0 + 1e-8))


@pytest.mark.parametrize("algorithm", ["dpem", "dplloyd"])
def test_lloyd_step_check_rejects_a_centre_off_its_mean(clusters, algorithm):
    def fit(iterations):
        rng = np.random.default_rng(5)
        if algorithm == "dpem":
            return kmeans.dpem_kmeans(clusters, 3, iterations,
                                      accountant.PrivacyBudget(1.0, 1e-4), rng,
                                      eps_i=math.inf)[0]
        return kmeans.dplloyd(clusters, 3, iterations, 1.0, rng=rng, eps_i=math.inf)[0]

    before, after = fit(4), fit(5)
    ref.check_lloyd_step(clusters.rows, before.centers, after.centers)
    moved = after.centers.copy()
    moved[2, 1] += 1e-6
    with pytest.raises(ref.CheckError):
        ref.check_lloyd_step(clusters.rows, before.centers, moved)


class SmallSweep(workloads.Sweep):
    N, D, K = 2000, 3, 2
    METHODS, EPS = ("zcdp", "ma"), (0.5, 2.0)

    def flags(self, jobs, out):
        flags = super().flags(jobs, out)
        flags[flags.index("--iters") + 1] = "3"
        return flags


def test_sweep_rows_equal_at_jobs_1_and_2(tmp_path):
    rows = {}
    for jobs in (1, 2):
        sweep = SmallSweep(1, tmp_path)
        out = sweep.run_in_process(jobs, jobs)
        rows[jobs] = [json.loads(line) for line in (out / "results.jsonl").open()]
        for row in rows[jobs]:
            del row["wall_time"]
        sweep.check(jobs, out)
    assert rows[1] == rows[2]


def test_sweep_check_rejects_bad_results(tmp_path):
    def corrupt(edit):
        sweep = SmallSweep(1, tmp_path)
        out = sweep.run_in_process(1, 0)
        path = out / "results.jsonl"
        rows = [json.loads(line) for line in path.open()]
        path.write_text("".join(json.dumps(r) + "\n" for r in edit(rows)))
        sweep.check(1, out)

    corrupt(lambda rows: rows)
    for edit in (lambda rows: rows[:-1],
                 lambda rows: [{**r, "metric": "nan"} for r in rows],
                 lambda rows: [{**r, "audited_epsilon": 2 * r["epsilon"]}
                               if r["method"] == "ma" else r for r in rows]):
        with pytest.raises(ref.CheckError):
            corrupt(edit)


def test_sweep_check_rejects_a_missing_summary_row(tmp_path):
    sweep = SmallSweep(1, tmp_path)
    out = sweep.run_in_process(1, 0)
    lines = (out / "summary.csv").read_text().splitlines(keepends=True)
    (out / "summary.csv").write_text("".join(lines[:-1]))
    with pytest.raises(ref.CheckError):
        sweep.check(1, out)
