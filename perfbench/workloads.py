"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup``, lists one round
of operations in ``round``, performs one operation in ``run`` (the timed
part), checks its outputs in ``check`` and, once per run, makes the checks
that need extra fits in ``final_check``. Every call into ``dpem`` goes
through a module attribute, so a tracer that wraps the attribute sees it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from dpem import accountant, cli, data, dataio, dpem_mog, kmeans, mechanisms, mog

import reference as ref

EPS_GRID = (0.1, 0.5, 1.0, 2.0, 4.0)
METHODS = ("linear", "advanced", "zcdp", "ma")
DELTA = 1e-4
MAX_ORDER = 512


FINAL_CHECK = 2 ** 31  # op_seed index of the once-per-run checks


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


class MogFit:
    """One private mixture fit at criterion-6 scale, its audit under its own
    method and its test log-likelihood per point."""

    N, D, K, J, DELTA_I = 20_000, 5, 3, 10, 1e-6

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def setup(self) -> None:
        raw, _ = dataio.synth_mog(self.N, self.D, self.K, 1.0, seed=self.seed)
        bounded = data.preprocess(raw)
        train, test = dataio.cv_split(bounded.rows, 10, seed=self.seed)[0]
        self.train, self.test = data.BoundedDataset(train), data.BoundedDataset(test)

    def round(self) -> list:
        return [(scenario, method, eps) for scenario in ("ggg", "llg")
                for method in METHODS for eps in EPS_GRID]

    def _config(self, scenario, method, eps, seed, iterations, disable_noise=False):
        return dpem_mog.DpEmConfig(
            components=self.K, iterations=iterations,
            total=accountant.PrivacyBudget(eps, DELTA), delta_i=self.DELTA_I,
            scenario=scenario, method=method, estimator="map", seed=seed,
            max_order=MAX_ORDER, disable_noise=disable_noise)

    def run(self, spec, index: int):
        scenario, method, eps = spec
        cfg = self._config(scenario, method, eps, op_seed(self.seed, index), self.J)
        params, trace = dpem_mog.run_dpem_mog(self.train, cfg)
        spend = accountant.compose_trace(trace, method, DELTA, max_order=MAX_ORDER)
        per_point = mog.log_likelihood(self.test, params) / self.test.n
        return params, trace, spend, per_point

    def check(self, spec, out) -> None:
        scenario, method, eps = spec
        params, trace, spend, per_point = out
        ref.require(len(trace) == self.J * (2 * self.K + 1),
                    f"trace has {len(trace)} records, expected J(2K+1)")
        ref.check_audit(list(trace), method, eps, DELTA, spend, MAX_ORDER)
        ref.check_mixture_params(params, params.psd_floor)
        ref.check_e_step(self.test.rows, params, mog.e_step(self.test, params).gamma)
        ref.check_log_likelihood(self.test.rows, params, per_point)

    def final_check(self) -> None:
        seed = op_seed(self.seed, FINAL_CHECK)
        before, _ = dpem_mog.run_dpem_mog(
            self.train, self._config("ggg", "zcdp", 1.0, seed, self.J - 1, True))
        after, _ = dpem_mog.run_dpem_mog(
            self.train, self._config("ggg", "zcdp", 1.0, seed, self.J, True))
        ref.check_map_step(self.train.rows, before, after, after.psd_floor)
        ref.check_e_step(self.test.rows, after, mog.e_step(self.test, after).gamma)


class KmeansFit:
    """One private k-means fit at criterion-7 scale, its audit and the NICV
    of its centres on the data."""

    N, D, K, J, EPS = 100_000, 2, 5, 30, 0.01

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def setup(self) -> None:
        raw, _ = dataio.synth_mog(self.N, self.D, self.K, 8.0, seed=self.seed)
        self.data = data.preprocess(raw)

    def round(self) -> list:
        return ["dpem", "dplloyd-zcdp", "dplloyd-linear"]

    def run(self, spec, index: int):
        rng = np.random.default_rng(op_seed(self.seed, index))
        if spec == "dpem":
            clustering, trace = kmeans.dpem_kmeans(
                self.data, self.K, self.J, accountant.PrivacyBudget(self.EPS, DELTA), rng)
        else:
            composition = spec.split("-")[1]
            clustering, trace = kmeans.dplloyd(
                self.data, self.K, self.J, self.EPS, composition=composition,
                delta=DELTA if composition == "zcdp" else None, rng=rng)
        method = "linear" if spec == "dplloyd-linear" else "zcdp"
        spend = accountant.compose_trace(trace, method, DELTA)
        return clustering, trace, spend, kmeans.nicv(self.data, clustering.centers)

    def check(self, spec, out) -> None:
        clustering, trace, spend, value = out
        records = list(trace)
        if spec == "dpem":
            ref.require(len(records) == self.J * (self.K + 1),
                        f"dpem trace has {len(records)} records, expected J(k+1)")
            ref.require(len(ref.trace_groups(records)) == 2 * self.J,
                        "dpem trace is not 2J charged groups")
        else:
            ref.require(len(records) == self.J,
                        f"dplloyd trace has {len(records)} records, expected J")
        method = "linear" if spec == "dplloyd-linear" else "zcdp"
        ref.check_audit(records, method, self.EPS, DELTA, spend, MAX_ORDER)
        X = self.data.rows
        ref.check_labels(X, clustering.centers, clustering.assignments)
        ref.check_nicv(X, clustering.centers, value)

    def final_check(self) -> None:
        seed = op_seed(self.seed, FINAL_CHECK)
        budget = accountant.PrivacyBudget(self.EPS, DELTA)
        for fit in (
                lambda j: kmeans.dpem_kmeans(self.data, self.K, j, budget,
                                             np.random.default_rng(seed), eps_i=math.inf),
                lambda j: kmeans.dplloyd(self.data, self.K, j, self.EPS,
                                         rng=np.random.default_rng(seed), eps_i=math.inf)):
            before, _ = fit(self.J - 1)
            after, _ = fit(self.J)
            ref.check_lloyd_step(self.data.rows, before.centers, after.centers)


class Accountant:
    """Calibrate one plan and audit a trace of that plan's releases.

    Mixture plans cover scenario x J x K x method x eps; k-means-shaped
    plans (counts plus one parallel centroid group per iteration) are
    calibrated by zCDP and audited under each method. Traces are built in
    set-up from public ``TraceRecord``s at the reference eps_i. An operation
    is ``(shape, plan, method, eps, trace)``; for the k-means shape, ``plan``
    is the iteration count J.
    """

    N, D, DELTA_I = 20_000, 5, 1e-8
    KM_N, KM_D = 100_000, 2

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        cap = accountant.EPS_I_HI
        self.ops = []
        for scenario in ("llg", "ggg"):
            for J in (10, 50):
                for K in (3, 10):
                    n_lap, n_gauss = ref.plan_counts(scenario, J, K)
                    for method in METHODS:
                        for eps in EPS_GRID:
                            eps_i = ref.search_eps_i(method, n_lap, n_gauss, eps, DELTA,
                                                     self.DELTA_I, MAX_ORDER, cap)
                            plan = accountant.CompositionPlan(
                                scenario=scenario, iterations=J, components=K,
                                delta_i=self.DELTA_I, method=method)
                            trace = self._mixture_trace(scenario, J, K, eps_i, rng)
                            self.ops.append(("mixture", plan, method, eps, trace))
        for J in (10, 50):
            for k in (3, 10):
                for method in METHODS:
                    for eps in EPS_GRID:
                        eps_i = math.sqrt(ref.zcdp_rho_for(eps, DELTA) / J)
                        trace = self._kmeans_trace(J, k, eps_i, rng)
                        self.ops.append(("kmeans", J, method, eps, trace))

    def _mixture_trace(self, scenario, J, K, eps_i, rng):
        n, d, delta_i = self.N, self.D, self.DELTA_I
        mult = math.sqrt(2.0 * math.log(1.25 / delta_i)) / eps_i

        def release(kind, sens, label, j, component=None):
            if kind == "laplace":
                return mechanisms.TraceRecord(
                    kind="laplace", sensitivity=sens, noise_scale=sens / eps_i,
                    eps_i=eps_i, delta_i=None, label=label, iteration=j,
                    component=component)
            sigma = sens * mult
            return mechanisms.TraceRecord(
                kind="gaussian", sensitivity=sens, noise_scale=sigma, eps_i=eps_i,
                delta_i=delta_i, label=label, iteration=j, component=component,
                beta=sigma * sigma)

        kind = "laplace" if scenario == "llg" else "gaussian"
        records = []
        for j in range(J):
            counts = n * rng.dirichlet(np.full(K, 10.0))
            records.append(release(kind, 2.0 / n, "weights", j))
            for c in range(K):
                sens = 2.0 * math.sqrt(d) / counts[c] if kind == "laplace" \
                    else 2.0 / counts[c]
                records.append(release(kind, sens, "mean", j, c))
            for c in range(K):
                records.append(release("gaussian", 2.0 / counts[c], "covariance", j, c))
        return mechanisms.AccountingTrace(records)

    def _kmeans_trace(self, J, k, eps_i, rng):
        records = []
        for j in range(J):
            counts = np.maximum(self.KM_N * rng.dirichlet(np.full(k, 10.0)), 1.0)
            records.append(mechanisms.TraceRecord(
                kind="laplace", sensitivity=1.0, noise_scale=1.0 / eps_i, eps_i=eps_i,
                delta_i=None, label="counts", iteration=j))
            for c in range(k):
                sens = math.sqrt(self.KM_D) / counts[c]
                records.append(mechanisms.TraceRecord(
                    kind="laplace", sensitivity=sens, noise_scale=sens / eps_i,
                    eps_i=eps_i, delta_i=None, label="centroid", iteration=j,
                    component=c, parallel=True))
        return mechanisms.AccountingTrace(records)

    def round(self) -> list:
        return self.ops

    def run(self, spec, index: int):
        shape, plan, method, eps, trace = spec
        budget = accountant.PrivacyBudget(eps, DELTA)
        if shape == "mixture":
            eps_i = accountant.calibrate(plan, budget, max_order=MAX_ORDER)
        else:
            eps_i = accountant.zcdp_calibrate_pure(2 * plan, budget)
        return eps_i, accountant.compose_trace(trace, method, DELTA, max_order=MAX_ORDER)

    def check(self, spec, out) -> None:
        shape, plan, method, eps, trace = spec
        eps_i, spend = out
        tol, cap = accountant.SEARCH_REL_TOL, accountant.EPS_I_HI
        if shape == "mixture":
            n_lap, n_gauss = ref.plan_counts(plan.scenario, plan.iterations,
                                             plan.components)
            ref.check_calibration(method, n_lap, n_gauss, eps, DELTA, self.DELTA_I,
                                  MAX_ORDER, eps_i, tol, cap)
        else:
            ref.check_calibration("zcdp", 2 * plan, 0, eps, DELTA, self.DELTA_I,
                                  MAX_ORDER, eps_i, tol, cap)
        calibrated_for = method if shape == "mixture" else "zcdp"
        ref.check_audit(list(trace), method, eps, DELTA, spend, MAX_ORDER,
                        within_budget=method == calibrated_for)

    def final_check(self) -> None:
        pass


class _FirstCell(Exception):
    """Raised in place of the first cell of a ``dpem fit`` invocation."""


class Sweep:
    """One ``dpem fit --model mog`` invocation at ``--jobs 2``, run as its own
    process in the caller's environment."""

    JOBS = 2
    N, D, K = 100_000, 5, 3
    METHODS, EPS = ("zcdp", "ma"), (0.5, 1.0, 2.0)

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.out = root / "perfbench" / "out" / f"sweep-{os.getpid()}"
        self.rows_seen: list[list[dict]] = []

    def flags(self, jobs: int, out: Path) -> list[str]:
        return ["fit", "--model", "mog", "--synth-n", str(self.N),
                "--synth-d", str(self.D), "--synth-k", str(self.K), "--k", str(self.K),
                "--iters", "10", "--method", ",".join(self.METHODS),
                "--eps-list", ",".join(str(e) for e in self.EPS),
                "--synth-seed", str(self.seed), "--seed", str(self.seed),
                "--jobs", str(jobs), "--out", str(out)]

    def setup(self) -> None:
        """Run ``dpem fit`` in this process up to its first cell: the CLI's
        own data loading, scaling, split and task building."""
        run_cell = cli._run_cell

        def stop(task):
            raise _FirstCell

        cli._run_cell = stop
        try:
            self.run_in_process(1, "setup")
        except _FirstCell:
            return
        finally:
            cli._run_cell = run_cell
        raise RuntimeError("dpem fit finished without running a cell")

    def round(self) -> list:
        return [self.JOBS]

    def run(self, jobs, index: int) -> Path:
        out = self.out / f"op{index}"
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        proc = subprocess.run([sys.executable, "-m", "dpem.cli", *self.flags(jobs, out)],
                              cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"dpem fit exited {proc.returncode}: {proc.stderr[-2000:]}")
        return out

    def run_in_process(self, jobs: int, index: int) -> Path:
        out = self.out / f"op{index}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.flags(jobs, out))
        if code != 0:
            raise RuntimeError(f"dpem fit returned {code}")
        return out

    def check(self, spec, out: Path) -> None:
        try:
            rows = [json.loads(line) for line in (out / "results.jsonl").open()]
            with (out / "summary.csv").open(newline="") as handle:
                summary = list(csv.DictReader(handle))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.rows_seen.append(rows)
        cells = len(self.METHODS) * len(self.EPS) + 1
        ref.require(len(rows) == cells, f"results.jsonl has {len(rows)} rows, expected {cells}")
        for row in rows:
            metric = row["metric"]
            ref.require(isinstance(metric, float) and math.isfinite(metric),
                        f"row {row['method']} eps={row['epsilon']} has metric {metric!r}")
            if row["method"] == "baseline":
                continue
            ref.require(row["audited_epsilon"] <= row["epsilon"] * (1.0 + 1e-9)
                        and row["audited_delta"] <= row["delta"] * (1.0 + 1e-9),
                        f"row {row['method']} eps={row['epsilon']} audits "
                        f"({row['audited_epsilon']}, {row['audited_delta']}) over budget")
        want = {(m, e) for m in self.METHODS for e in self.EPS} | {("baseline", math.inf)}
        got = {(r["method"], float(r["epsilon"])) for r in summary}
        ref.require(len(summary) == len(want) and got == want,
                    f"summary.csv rows {sorted(got)} are not one per (method, eps) "
                    f"plus the baseline")

    def final_check(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {"mog-fit": MogFit, "kmeans-fit": KmeansFit,
             "accountant": Accountant, "sweep": Sweep}
