"""Command-line experiment runner and budget-calibration tool.

Two subcommands:

* ``dpem calibrate``: per-iteration budgets for each composition method,
  side by side.
* ``dpem fit``: sweep epsilon x folds x seeds for a model (mog, fa or
  kmeans), writing line-delimited JSON results, a plot-ready CSV summary
  of median/IQR metric vs epsilon, and a non-private baseline row. One
  ``_MODELS`` entry per model holds its fit, score, metric name, methods
  and flag check; each cell looks its entry up, fits, scores and audits.

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
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

from . import dataio
from .accountant import (
    DEFAULT_MAX_ORDER,
    METHODS,
    SCENARIOS,
    CompositionPlan,
    PrivacyBudget,
    calibrate,
    compose_trace,
    gaussian_sigma,
    laplace_scale,
)
from .data import BoundedDataset, preprocess
from .dpem_mog import DpEmConfig, _PrivateRelease, run_dpem_mog
from .errors import DataError, DpemError, UnattainableBudgetError
from .fa import fa_average_log_likelihood, perturb_second_moment, run_fa_em, second_moment
from .kmeans import dplloyd, dpem_kmeans, lloyd, nicv
from .mog import fit_em, log_likelihood

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_BUDGET = 3
EXIT_DATA = 4

# methods no ``dpem fit`` runs without --method naming them
OPT_IN_METHODS = ("advanced",)
AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
IN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
# (test, wording) of the values each numeric flag accepts; both commands
# exit EXIT_FLAGS on any other value before doing anything
FLAG_RULES = {"eps": (lambda v: 0 < v < math.inf, "finite and positive"),
              "delta": IN_UNIT, "delta_i": IN_UNIT,
              **dict.fromkeys(("seed", "synth_seed"), (lambda v: v >= 0, "at least 0")),
              "synth_separation": (lambda v: 0 <= v < math.inf, "finite and at least 0"),
              **dict.fromkeys(("iters", "k", "components", "max_order", "jobs", "seeds",
                               "folds", "n", "synth_n", "synth_d", "synth_k"), AT_LEAST_1)}
AUDIT_SLACK = 1e-9
# Thread counts of the BLAS, OpenMP and numexpr pools. Spawned workers read
# them before numpy loads, so each of ``--jobs N`` workers runs one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The running sweep as (parsed flags, the ``dataio.cv_split`` folds, ordered
# (method, eps, fold, seed) cells): set once per process by ``_init_worker``
# (a pool worker reads it through ``_attach_worker``), so that a task is
# only its cell index.
_SWEEP: tuple | None = None


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
    cal.add_argument("--scenario", choices=SCENARIOS, default="ggg")
    cal.add_argument("--method",
                     choices=METHODS + ("all",), default="all")
    cal.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                     help="largest moment order for the MA tail bound")
    cal.add_argument("--n", type=int, default=None,
                     help="dataset size, for concrete noise scales (balanced "
                          "components assumed); llg has no means column, as its "
                          "L1 sensitivity needs the dimension d")

    fit = sub.add_parser("fit", help="run a privacy/utility sweep")
    fit.add_argument("--model", choices=tuple(_MODELS), required=True)
    source = fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=str, default=None,
                        help="numeric CSV of raw data rows")
    source.add_argument("--synth-n", type=int, default=None,
                        help="generate a planted mixture instead of reading --data")
    fit.add_argument("--header", action="store_true",
                     help="skip the first CSV line")
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
                         f"{model}: {','.join(entry['methods'])}"
                         for model, entry in _MODELS.items())
                     + f"); default: all but {','.join(OPT_IN_METHODS)}")
    fit.add_argument("--scenario", choices=SCENARIOS, default="ggg")
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
    row["laplace_scale_mult"] = laplace_scale(1.0, eps_i)
    if args.n:  # balanced components: N_k = n / K
        release = _PrivateRelease(args.scenario, eps_i, args.delta_i, None, args.n, None)
        for col, label, count in (("noise_weights", "weights", args.n),
                                  ("noise_means", "mean", args.n / args.components),
                                  ("noise_covs", "covariance", args.n / args.components)):
            if args.scenario == "ggg" or label != "mean":  # llg: an L1 mean needs d
                row[col] = release.scale(*release.mechanism(
                    args.scenario, label, count))[1]
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
    raw, _ = dataio.synth_mog(args.synth_n, args.synth_d, args.synth_k,
                              args.synth_separation, seed=args.synth_seed)
    return raw


def _init_worker(sweep: tuple | None) -> None:
    """Hold the sweep for the ``_run_cell`` calls of this process."""
    global _SWEEP
    _SWEEP = sweep


def _exit_with_parent() -> None:
    """End this worker as soon as the process that spawned it is gone."""
    multiprocessing.parent_process().join()
    os._exit(1)


def _attach_worker(name: str, size: int) -> None:
    """A pool worker's initializer: unpickle the sweep from the first
    ``size`` bytes of the shared block ``name`` and hold it. The block is
    unmapped again here; only the parent unlinks it. A daemon thread ends
    the worker if the parent dies, which a pool worker waiting for its
    next task would otherwise never notice, so that the resource tracker
    can remove the block."""
    from multiprocessing import shared_memory

    block = shared_memory.SharedMemory(name=name)
    try:
        with block.buf[:size] as payload:
            _init_worker(ForkingPickler.loads(payload))
    finally:
        block.close()
    threading.Thread(target=_exit_with_parent, daemon=True).start()


@contextlib.contextmanager
def _worker_pool(workers: int, sweep: tuple):
    """A pool of ``workers`` spawned processes, each given ``sweep`` once.

    The sweep is pickled once into a shared-memory block (mode 0600), and a
    worker's start-up arguments are only the block's name and size, so
    spawning a worker writes a few hundred bytes to its pipe and the
    workers start together instead of each waiting for the previous one to
    read megabytes of rows. The block is unlinked when the pool ends; if
    this process is killed, its workers exit with it and Python's resource
    tracker removes the block.

    While the pool lives, every variable of ``THREAD_VARS`` that the caller
    left unset is set to ``"1"``; workers inherit it, and values the caller
    exported are kept. Fork is not used: a forked worker inherits the BLAS
    thread pool the parent already started, which no variable can shrink.
    """
    # imported here: shared_memory loads hashlib (3.5 ms, 0.3 MB), which no
    # other path of the package needs
    from multiprocessing import shared_memory

    payload = ForkingPickler.dumps(sweep)
    size = len(payload)
    block = shared_memory.SharedMemory(create=True, size=size)
    added = [var for var in THREAD_VARS if var not in os.environ]
    for var in added:
        os.environ[var] = "1"
    try:
        block.buf[:size] = payload
        del payload  # the block is the one copy while the pool runs
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_attach_worker,
                                 initargs=(block.name, size)) as pool:
            yield pool
    finally:
        block.close()
        block.unlink()
        for var in added:
            os.environ.pop(var, None)


def _fit_mog(train, args, method, composition, total, seed):
    if composition is None:
        return fit_em(train, args.k, args.iters, estimator=args.estimator, seed=seed), None
    return run_dpem_mog(train, DpEmConfig(
        components=args.k, iterations=args.iters, total=total, delta_i=args.delta_i,
        scenario=args.scenario, method=composition, estimator=args.estimator,
        seed=seed, max_order=args.max_order))


def _fit_fa(train, args, method, composition, total, seed):
    mom, trace = second_moment(train), None
    if composition is not None:
        mom, trace = perturb_second_moment(mom, total, np.random.default_rng(seed))
    return run_fa_em(mom, args.q), trace


def _check_fa(args, d, eps_list):
    """FA's flag rules that need the data: the latent dimension lies in
    [0, d), and the one-shot Gaussian release attains only eps in (0, 1),
    so a list such as the default is refused before its first cells run
    rather than cut short after them with nothing written."""
    if not 0 <= args.q < d:
        print(f"--q must be in [0, {d - 1}], got {args.q}", file=sys.stderr)
        return EXIT_FLAGS
    if not all(map(IN_UNIT[0], eps_list)):
        print(f"--eps-list must lie {IN_UNIT[1]} for --model fa, got {args.eps_list!r}",
              file=sys.stderr)
        return EXIT_BUDGET
    return None


def _no_check(args, d, eps_list):
    return None


def _fit_kmeans(train, args, method, composition, total, seed):
    rng = np.random.default_rng(seed)
    if composition is None:
        return lloyd(train, args.k, args.iters, rng), None
    if method == "dpem":
        return dpem_kmeans(train, args.k, args.iters, total, rng)
    return dplloyd(train, args.k, args.iters, total.epsilon,
                   composition=composition, delta=total.delta, rng=rng)


# model -> its ``dpem fit`` paths: ``fit(train, args, method, composition,
# total, seed)`` returns the fitted model and its trace, or None for the
# non-private baseline (composition None); ``score(test, fitted)`` returns
# the metric ``metric_name`` names; ``methods`` maps each method, in sweep
# order, to the composition its private runs are calibrated and audited
# under; ``check(args, d, eps_list)``, run before any cell, returns the
# exit code of a flag value the model refuses for data of dimension d,
# after saying why, or None. fit and score look the library up by this
# module's names when they run, so that a wrapper set on one of those
# names sees every cell.
_MODELS = {
    "mog": {"metric_name": "test_loglik_per_point", "fit": _fit_mog,
            "score": lambda test, params: log_likelihood(test, params) / test.n,
            "methods": {method: method for method in METHODS}, "check": _no_check},
    "fa": {"metric_name": "test_loglik_per_point", "fit": _fit_fa,
           "score": lambda test, params: fa_average_log_likelihood(
               second_moment(test), params),
           "methods": {"one-shot": "linear"}, "check": _check_fa},
    "kmeans": {"metric_name": "nicv", "fit": _fit_kmeans,
               "score": lambda test, clustering: nicv(test, clustering.centers),
               "methods": {"dplloyd-linear": "linear", "dplloyd-zcdp": "zcdp",
                           "dpem": "zcdp"}, "check": _no_check},
}


def _run_cell(index: int):
    """Cell ``index`` of the sweep ``_init_worker`` stored in this process,
    fitted, scored and, if private, audited through its ``_MODELS`` entry.
    Its fold's rows are a subset of the validated dataset that was split,
    so they are wrapped without being checked again; the datasets, and the
    pair products of the training rows, live only as long as the cell."""
    t0 = time.perf_counter()
    args, folds, cells = _SWEEP
    method, eps, fold, seed = cells[index]
    train, test = map(BoundedDataset._prechecked, folds[fold])
    entry, delta = _MODELS[args.model], args.delta
    cell_seed = int(np.random.SeedSequence((args.seed, index)).generate_state(1)[0])
    composition = entry["methods"].get(method)  # None for the baseline
    fitted, trace = entry["fit"](train, args, method, composition,
                                 PrivacyBudget(eps, delta), cell_seed)
    metric = entry["score"](test, fitted)

    n_mech, flagged, audited = 0, 0, (0.0, 0.0)
    if composition is not None:
        n_mech, flagged = len(trace), len(trace.flagged())
        spend = compose_trace(trace, composition, delta,
                              max_order=args.max_order)
        audited = (spend.epsilon, spend.delta)
        if audited[0] > eps + AUDIT_SLACK or audited[1] > delta + AUDIT_SLACK:
            raise DpemError(
                f"spend audit failed: ({audited[0]}, {audited[1]}) exceeds "
                f"({eps}, {delta})")

    return dataio.ExperimentResult(
        model=args.model, method=method, scenario=args.scenario,
        epsilon=eps, delta=delta, fold=fold, seed=seed,
        metric=float(metric), n_mechanisms=n_mech, flagged=flagged,
        metric_name=entry["metric_name"],
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
    entry = _MODELS[args.model]
    known = entry["methods"]
    env_seed = os.environ.get("DPEM_SEED")
    if env_seed is not None:  # overrides --seed, under the same rule
        ok, need = FLAG_RULES["seed"]
        args.seed = int(env_seed) if env_seed.strip().isdecimal() else None
        if args.seed is None or not ok(args.seed):
            print(f"DPEM_SEED must be an integer {need}, got {env_seed!r}", file=sys.stderr)
            return EXIT_FLAGS
    eps_ok, need = FLAG_RULES["eps"]
    eps_list = _listed("eps-list", args.eps_list, float, eps_ok, f"{need} numbers")
    if eps_list is None or not _flags_ok(vars(args)):
        return EXIT_FLAGS
    methods = ([m for m in known if m not in OPT_IN_METHODS] if args.method is None
               else _listed("method", args.method, str, known.__contains__,
                            f"{args.model} methods ({','.join(known)})"))
    if methods is None:
        return EXIT_FLAGS

    bounded = preprocess(_load_matrix(args))
    refused = entry["check"](args, bounded.d, eps_list)
    if refused is not None:
        return refused

    # --folds 1 is the first of ten folds: a single 90/10 split. The folds
    # hold the only copy of the rows that the parent and each worker keep.
    folds = dataio.cv_split(bounded.rows, args.folds if args.folds > 1 else 10,
                            seed=args.seed)
    del bounded
    cells = [(method, eps, fold, seed) for method in [*methods, "baseline"]
             for eps in (eps_list if method != "baseline" else [math.inf])
             for fold in range(args.folds) for seed in range(args.seeds)]
    sweep = (args, folds, cells)

    workers = min(args.jobs, len(cells))
    if workers > 1:
        with _worker_pool(workers, sweep) as pool:
            results = list(pool.map(_run_cell, range(len(cells)), chunksize=1))
    else:
        _init_worker(sweep)
        try:
            results = [_run_cell(index) for index in range(len(cells))]
        finally:
            _init_worker(None)
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
