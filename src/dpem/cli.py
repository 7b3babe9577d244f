"""Command-line experiment runner and budget-calibration tool.

Two subcommands:

* ``dpem calibrate``: per-iteration budgets for each composition method,
  side by side.
* ``dpem fit``: sweep epsilon x folds x seeds for a model (mog, fa or
  kmeans), writing line-delimited JSON results, a plot-ready CSV summary
  of median/IQR metric vs epsilon, and a non-private baseline row.

Exit codes: 0 success, 2 bad flags, 3 unattainable budget, 4 data error.
``DPEM_SEED`` overrides ``--seed``.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio
from .accountant import (
    DEFAULT_MAX_ORDER,
    METHODS,
    CompositionPlan,
    PrivacyBudget,
    calibrate,
    compose_trace,
)
from .data import BoundedDataset, preprocess
from .dpem_mog import DpEmConfig, _PrivateRelease, run_dpem_mog
from .errors import DataError, DpemError, UnattainableBudgetError
from .fa import fa_average_log_likelihood, perturb_second_moment, run_fa_em, second_moment
from .kmeans import dplloyd, dpem_kmeans, lloyd, nicv
from .mechanisms import Release, gaussian_sigma
from .mog import fit_em, log_likelihood

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_BUDGET = 3
EXIT_DATA = 4

# model -> {method: the composition its private runs are calibrated and
# audited under}. ``dpem fit`` sweeps the methods in this order; without
# --method it runs all of them except those in OPT_IN_METHODS.
FIT_METHODS = {
    "mog": {method: method for method in METHODS},
    "fa": {"one-shot": "linear"},
    "kmeans": {"dplloyd-linear": "linear", "dplloyd-zcdp": "zcdp", "dpem": "zcdp"},
}
OPT_IN_METHODS = ("advanced",)
AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
IN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
# (test, wording) of the values each numeric flag accepts; both commands
# exit EXIT_FLAGS on any other value before doing anything
FLAG_RULES = {"eps": (lambda v: 0 < v < math.inf, "finite and positive"),
              "delta": IN_UNIT, "delta_i": IN_UNIT,
              **dict.fromkeys(("iters", "k", "components", "max_order", "jobs", "seeds",
                               "folds", "n", "synth_n", "synth_d", "synth_k"), AT_LEAST_1)}
AUDIT_SLACK = 1e-9
# Thread counts of the BLAS, OpenMP and numexpr pools. Spawned workers read
# them before numpy loads, so each of ``--jobs N`` workers runs one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The (train, test) pairs of the running sweep, indexed by fold: set once per
# worker by ``_init_worker`` so that task dicts carry no arrays.
_SPLITS: list[tuple[BoundedDataset, BoundedDataset]] = []


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpem", description="differentially private estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate",
                         help="per-iteration budgets for each composition method")
    cal.add_argument("--eps", type=float, required=True)
    cal.add_argument("--delta", type=float, required=True)
    cal.add_argument("--delta-i", type=float, default=1e-6)
    cal.add_argument("--iters", type=int, required=True)
    cal.add_argument("--components", type=int, required=True)
    cal.add_argument("--scenario", choices=("llg", "ggg"), default="ggg")
    cal.add_argument("--method",
                     choices=METHODS + ("all",), default="all")
    cal.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                     help="largest moment order for the MA tail bound")
    cal.add_argument("--n", type=int, default=None,
                     help="dataset size, for concrete noise scales (balanced "
                          "components assumed); llg has no means column, as its "
                          "L1 sensitivity needs the dimension d")

    fit = sub.add_parser("fit", help="run a privacy/utility sweep")
    fit.add_argument("--model", choices=tuple(FIT_METHODS), required=True)
    fit.add_argument("--data", type=str, default=None,
                     help="numeric CSV of raw data rows")
    fit.add_argument("--header", action="store_true",
                     help="skip the first CSV line")
    fit.add_argument("--synth-n", type=int, default=None,
                     help="generate a planted mixture instead of reading --data")
    fit.add_argument("--synth-d", type=int, default=2)
    fit.add_argument("--synth-k", type=int, default=3)
    fit.add_argument("--synth-separation", type=float, default=6.0)
    fit.add_argument("--synth-seed", type=int, default=0)
    fit.add_argument("--k", type=int, default=3,
                     help="mixture components / cluster count")
    fit.add_argument("--q", type=int, default=2, help="latent dimension (fa)")
    fit.add_argument("--iters", type=int, default=10)
    fit.add_argument("--eps-list", type=str, default="0.1,0.5,1,2,4")
    fit.add_argument("--delta", type=float, default=1e-4)
    fit.add_argument("--delta-i", type=float, default=1e-6)
    fit.add_argument("--method", type=str, default=None,
                     help="comma-separated methods (" + "; ".join(
                         f"{model}: {','.join(methods)}"
                         for model, methods in FIT_METHODS.items())
                     + f"); default: all but {','.join(OPT_IN_METHODS)}")
    fit.add_argument("--scenario", choices=("llg", "ggg"), default="ggg")
    fit.add_argument("--estimator", choices=("mle", "map"), default="map")
    fit.add_argument("--folds", type=int, default=1,
                     help="cross-validation folds (1 = single 90/10 split)")
    fit.add_argument("--seeds", type=int, default=1,
                     help="independent noise seeds per cell")
    fit.add_argument("--seed", type=int, default=0, help="master seed")
    fit.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    fit.add_argument("--jobs", type=int, default=1)
    fit.add_argument("--out", type=str, required=True)
    return parser


# ---------------------------------------------------------------------------
# calibrate


def _calibrate_row(method: str, args) -> dict:
    plan = CompositionPlan(
        scenario=args.scenario, iterations=args.iters,
        components=args.components, delta_i=args.delta_i, method=method)
    total = PrivacyBudget(args.eps, args.delta)
    row = {"method": method}
    try:
        eps_i = calibrate(plan, total, max_order=args.max_order)
    except UnattainableBudgetError as exc:
        row["error"] = str(exc)
        return row
    row["eps_i"] = eps_i
    row["gauss_sigma_mult"] = gaussian_sigma(1.0, eps_i, args.delta_i)
    row["laplace_scale_mult"] = 1.0 / eps_i
    if args.n:  # balanced components: N_k = n / K
        spec = Release(eps_i, args.delta_i, rng=None).spec
        for col, label, count in (("noise_weights", "weights", args.n),
                                  ("noise_means", "mean", args.n / args.components),
                                  ("noise_covs", "covariance", args.n / args.components)):
            if args.scenario == "ggg" or label != "mean":  # llg: an L1 mean needs d
                row[col] = spec(*_PrivateRelease.mechanism(
                    args.scenario, label, count)).noise_scale
    return row


def _flags_ok(flags: dict) -> bool:
    """Print the first flag whose value breaks its ``FLAG_RULES`` entry, if
    any, and say whether none did."""
    checks = [(f, v, FLAG_RULES[f]) for f, v in flags.items()
              if f in FLAG_RULES and v is not None]
    for flag, value, (ok, need) in checks:
        if not ok(value):
            print(f"--{flag.replace('_', '-')} must be {need}, got {value}",
                  file=sys.stderr)
            return False
    return True


def cmd_calibrate(args) -> int:
    if not _flags_ok(vars(args)):
        return EXIT_FLAGS
    methods = METHODS if args.method == "all" else (args.method,)
    rows = [_calibrate_row(m, args) for m in methods]
    attainable = [row for row in rows if "error" not in row]
    # the columns of an attainable row; every such row has the same ones
    cols = list(attainable[0]) if attainable else ["method"]
    print(f"scenario={args.scenario} J={args.iters} K={args.components} "
          f"eps={args.eps} delta={args.delta} delta_i={args.delta_i}")
    print("  ".join(f"{c:>18}" for c in cols))
    for row in rows:
        if "error" in row:
            print(f"{row['method']:>18}  unattainable: {row['error']}")
        else:
            print("  ".join([f"{row['method']:>18}"]
                            + [f"{row[c]:>18.8g}" for c in cols[1:]]))
    return EXIT_OK if attainable else EXIT_BUDGET


# ---------------------------------------------------------------------------
# fit


def _load_matrix(args) -> np.ndarray:
    if args.data is not None:
        return dataio.load_csv(args.data, has_header=args.header)
    if args.synth_n is not None:
        raw, _ = dataio.synth_mog(args.synth_n, args.synth_d, args.synth_k,
                                  args.synth_separation, seed=args.synth_seed)
        return raw
    raise DataError("provide --data or --synth-n")


def _init_worker(splits: list[tuple[BoundedDataset, BoundedDataset]]) -> None:
    """Hold the sweep's splits for the ``_run_cell`` calls of this process."""
    global _SPLITS
    _SPLITS = splits


@contextlib.contextmanager
def _worker_pool(workers: int, splits: list[tuple[BoundedDataset, BoundedDataset]]):
    """A pool of ``workers`` spawned processes, each given ``splits`` once.

    While the pool lives, every variable of ``THREAD_VARS`` that the caller
    left unset is set to ``"1"``; workers inherit it, and values the caller
    exported are kept. Fork is not used: a forked worker inherits the BLAS
    thread pool the parent already started, which no variable can shrink.
    """
    added = [var for var in THREAD_VARS if var not in os.environ]
    for var in added:
        os.environ[var] = "1"
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_init_worker,
                                 initargs=(splits,)) as pool:
            yield pool
    finally:
        for var in added:
            os.environ.pop(var, None)


def _run_cell(task: dict):
    """One (method, epsilon, fold, seed) cell; must stay picklable. Reads its
    split from the ones ``_init_worker`` stored in this process."""
    t0 = time.perf_counter()
    model = task["model"]
    train, test = _SPLITS[task["fold"]]
    rng_seed = np.random.SeedSequence((task["master_seed"], task["cell_index"]))
    seed_ints = rng_seed.generate_state(1)
    cell_seed = int(seed_ints[0])
    eps = task["eps"]
    delta = task["delta"]
    method = task["method"]
    # the composition a private cell is calibrated and audited under
    composition = FIT_METHODS[model].get(method)

    if model == "mog":
        if composition is None:
            params = fit_em(train, task["k"], task["iters"],
                            estimator=task["estimator"], seed=cell_seed)
        else:
            cfg = DpEmConfig(
                components=task["k"], iterations=task["iters"],
                total=PrivacyBudget(eps, delta), delta_i=task["delta_i"],
                scenario=task["scenario"], method=composition,
                estimator=task["estimator"], seed=cell_seed,
                max_order=task["max_order"])
            params, trace = run_dpem_mog(train, cfg)
        metric = log_likelihood(test, params) / test.n
    elif model == "fa":
        mom = second_moment(train)
        if composition is not None:
            mom, trace = perturb_second_moment(
                mom, PrivacyBudget(eps, delta), np.random.default_rng(cell_seed))
        params = run_fa_em(mom, task["q"])
        metric = fa_average_log_likelihood(second_moment(test), params)
    else:  # kmeans
        rng = np.random.default_rng(cell_seed)
        if composition is None:
            clustering = lloyd(train, task["k"], task["iters"], rng)
        elif method == "dpem":
            clustering, trace = dpem_kmeans(train, task["k"], task["iters"],
                                            PrivacyBudget(eps, delta), rng)
        else:
            clustering, trace = dplloyd(train, task["k"], task["iters"], eps,
                                        composition=composition, delta=delta, rng=rng)
        metric = nicv(test, clustering.centers)

    n_mech, audited = 0, (0.0, 0.0)
    if composition is not None:
        n_mech = len(trace)
        spend = compose_trace(trace, composition, delta,
                              max_order=task["max_order"])
        audited = (spend.epsilon, spend.delta)
        if audited[0] > eps + AUDIT_SLACK or audited[1] > delta + AUDIT_SLACK:
            raise DpemError(
                f"spend audit failed: ({audited[0]}, {audited[1]}) exceeds "
                f"({eps}, {delta})")

    return dataio.ExperimentResult(
        model=model, method=method, scenario=task["scenario"],
        epsilon=eps, delta=delta, fold=task["fold"], seed=task["seed"],
        metric=float(metric), n_mechanisms=n_mech,
        metric_name="nicv" if model == "kmeans" else "test_loglik_per_point",
        audited_epsilon=audited[0], audited_delta=audited[1],
        wall_time=time.perf_counter() - t0)


def _listed(flag: str, text: str, parse, ok, what: str) -> list | None:
    """The values ``parse`` makes of a comma-separated flag, or None after
    one line saying they are not one or more distinct ``what``; each value
    must pass ``ok``."""
    try:
        values = [parse(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if values and len(set(values)) == len(values) and all(map(ok, values)):
        return values
    print(f"--{flag} must list distinct {what}, got {text!r}", file=sys.stderr)
    return None


def cmd_fit(args) -> int:
    table = FIT_METHODS[args.model]
    eps_ok, need = FLAG_RULES["eps"]
    eps_list = _listed("eps-list", args.eps_list, float, eps_ok, f"{need} numbers")
    if eps_list is None or not _flags_ok(vars(args)):
        return EXIT_FLAGS
    methods = ([m for m in table if m not in OPT_IN_METHODS] if args.method is None
               else _listed("method", args.method, str, table.__contains__,
                            f"{args.model} methods ({','.join(table)})"))
    if methods is None:
        return EXIT_FLAGS

    bounded = preprocess(_load_matrix(args))
    if args.model == "fa" and not 0 <= args.q < bounded.d:
        print(f"--q must be in [0, {bounded.d - 1}], got {args.q}", file=sys.stderr)
        return EXIT_FLAGS

    master_seed = int(os.environ.get("DPEM_SEED", args.seed))
    # --folds 1 is the first of ten folds: a single 90/10 split
    splits = dataio.cv_split(bounded.rows, args.folds if args.folds > 1 else 10,
                             seed=master_seed)[:args.folds]
    splits = [(BoundedDataset(train), BoundedDataset(test)) for train, test in splits]
    cells = [(method, eps, fold, seed) for method in [*methods, "baseline"]
             for eps in (eps_list if method != "baseline" else [math.inf])
             for fold in range(len(splits)) for seed in range(args.seeds)]
    tasks = [{"model": args.model, "method": method, "eps": eps,
              "delta": args.delta, "delta_i": args.delta_i,
              "scenario": args.scenario, "estimator": args.estimator,
              "k": args.k, "q": args.q, "iters": args.iters,
              "fold": fold, "seed": seed,
              "master_seed": master_seed, "cell_index": cell_index,
              "max_order": args.max_order}
             for cell_index, (method, eps, fold, seed) in enumerate(cells)]

    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with _worker_pool(workers, splits) as pool:
            results = list(pool.map(_run_cell, tasks, chunksize=1))
    else:
        _init_worker(splits)
        try:
            results = [_run_cell(task) for task in tasks]
        finally:
            _init_worker([])
    results.sort(key=lambda r: (r.method, r.epsilon, r.fold, r.seed))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_results_jsonl(out / "results.jsonl", results)
    dataio.write_summary_csv(out / "summary.csv", dataio.summarize(results))
    print(f"wrote {len(results)} cells to {out}/results.jsonl and summary.csv")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "calibrate":
            return cmd_calibrate(args)
        return cmd_fit(args)
    except UnattainableBudgetError as exc:
        print(f"unattainable budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
