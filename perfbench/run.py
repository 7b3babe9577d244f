"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mog-fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding ``src/dpem``).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run. The in-process workloads pin BLAS and OpenMP to one thread
before numpy is imported; ``sweep`` runs the CLI in the caller's
environment. See perfbench/README.md.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("mog-fit", "kmeans-fit", "accountant", "sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7  # fresh set-up processes per run, besides the run's own


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds it took and exit")
    return parser.parse_args(argv)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(workload, seconds, first_index, tracer=None):
    """Whole rounds of operations until their summed wall time reaches
    ``seconds``. Returns per-op wall and CPU times, failures, check errors."""
    walls, cpus, failed, errors = [], [], 0, []
    index = first_index
    while sum(walls) < seconds:
        for spec in workload.round():
            if tracer is not None:
                tracer.op, tracer.recording = index, True
            c0, k0 = time.process_time(), children_cpu()
            t0 = time.perf_counter()
            try:
                out = workload.run(spec, index)
            except Exception:  # an operation the program failed: count it, go on
                traceback.print_exc(file=sys.stderr)
                out = None
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0 + children_cpu() - k0
            if tracer is not None:
                tracer.recording = False
            index += 1
            walls.append(wall)
            cpus.append(cpu)
            if out is None:
                failed += 1
                continue
            errors += run_check(workload.check, spec, out)
    return walls, cpus, failed, errors


def run_check(check, *args) -> list:
    from reference import CheckError
    try:
        check(*args)
    except CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return [str(exc)]
    return []


def tail(walls):
    """Highest percentile with at least ten samples beyond it, or None below
    forty samples."""
    if len(walls) < 40:
        return None
    ordered = sorted(walls)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def setup_seconds(args, root: Path) -> list[float]:
    """Set-up time of fresh processes: imports, data synthesis, preprocessing
    and the split, each measured from the runner's first statement."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=root, stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def end_to_end(args, root, workload, own_setup_s):
    walls, cpus, failed, errors = measure(workload, args.seconds, 0)
    errors += run_check(workload.final_check)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setups = [own_setup_s] + setup_seconds(args, root)
    n = len(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "ops_per_s": (n / sum(walls), "1/s"),
        "cpu_s_per_op": (sum(cpus) / n, "s"),
        "peak_rss_mb": (max(own, children), "MB"),
    }
    t = tail(walls)
    tail_text = (f"op_tail_s={t[0]:.6g} (p{t[1]:.1f}, n={n}, 10 beyond)" if t
                 else f"op_tail_s: none (n={n} < 40 operations)")
    print(f"{args.workload} seed={args.seed}: {n} operations, {failed} failed; {tail_text}")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"  peak RSS: runner {own:.1f} MB, largest child process {children:.1f} MB")
    return n, failed, errors, metrics


def layer_metrics(tracer, n_ops, import_s, overhead, cli_stats):
    dur, calls, self_s = tracer.totals(ops_only=True)
    setup_dur, _, _ = tracer.totals(ops_only=False)
    m = {}

    def per_op(name, value, unit):
        m[name] = (value / n_ops, unit)

    per_op("mog.e_step.s", dur["mog.e_step"], "s")
    per_op("mog.e_step.calls", calls["mog.e_step"], "count")
    per_op("mog.log_likelihood.s", dur["mog.log_likelihood"], "s")
    per_op("dpem_mog.run.self_s", self_s["dpem_mog.run"], "s")
    per_op("mechanisms.release.s", dur["mechanisms.release"], "s")
    per_op("mechanisms.release.calls", calls["mechanisms.release"], "count")
    per_op("mechanisms.psd_project.s", dur["mechanisms.psd_project"], "s")
    per_op("mechanisms.psd_project.calls", calls["mechanisms.psd_project"], "count")
    per_op("mechanisms.psd_project.clamped",
           tracer.counts["mechanisms.psd_project.clamped"], "count")
    for method in ("linear", "advanced", "zcdp", "ma"):
        per_op(f"accountant.calibrate.{method}.s",
               dur[f"accountant.calibrate.{method}"], "s")
        per_op(f"accountant.compose_trace.{method}.s",
               dur[f"accountant.compose_trace.{method}"], "s")
    per_op("accountant.compose_trace.records",
           tracer.counts["accountant.compose_trace.records"], "count")
    per_op("accountant.compose_trace.groups",
           tracer.counts["accountant.compose_trace.groups"], "count")
    per_op("accountant.zcdp_calibrate_pure.s", dur["accountant.zcdp_calibrate_pure"], "s")
    per_op("kmeans.assign.s", dur["kmeans.assign"], "s")
    per_op("kmeans.assign.calls", calls["kmeans.assign"], "count")
    per_op("kmeans.assign.flops", tracer.counts["kmeans.assign.flops"], "flop")
    per_op("kmeans.assign.bytes", tracer.counts["kmeans.assign.bytes"], "B")
    per_op("kmeans.counts_and_sums.s", dur["kmeans.counts_and_sums"], "s")
    per_op("kmeans.counts_and_sums.calls", calls["kmeans.counts_and_sums"], "count")
    per_op("kmeans.nicv.s", dur["kmeans.nicv"], "s")
    per_op("kmeans.fit.self_s", self_s["kmeans.fit"], "s")
    per_op("dataio.write.s", dur["dataio.write"], "s")
    per_op("cli.task_bytes", tracer.counts["cli.task_bytes"], "B")
    # one set-up per traced process: the run's own, or the CLI's for sweep
    m["import.s"] = (import_s, "s")
    for name in ("dataio.synth_mog", "data.preprocess", "dataio.cv_split"):
        m[f"{name}.s"] = (setup_dur[name], "s")
    m.update(cli_stats)
    m["trace.overhead_s"] = (overhead, "s")
    return m


def cli_metrics(workload, walls, cpus):
    """Per-op figures of the timed ``--jobs 2`` sweep runs, from their
    results.jsonl; zero for the in-process workloads."""
    rows = getattr(workload, "rows_seen", [])
    if not rows:
        return {name: (0.0, unit) for name, unit in (
            ("cli.cells", "count"), ("cli.cell_s.sum", "s"),
            ("cli.parallel_efficiency", "ratio"), ("cli.cpu_over_wall", "ratio"))}
    n = len(rows)
    cells = sum(len(r) for r in rows) / n
    cell_s = sum(row["wall_time"] for r in rows for row in r) / n
    wall = sum(walls) / n
    print(f"  cli: parallel efficiency = {cell_s:.4f} s of cells / "
          f"({wall:.4f} s wall x {workload.JOBS} jobs)")
    return {
        "cli.cells": (cells, "count"),
        "cli.cell_s.sum": (cell_s, "s"),
        "cli.parallel_efficiency": (cell_s / (wall * workload.JOBS), "ratio"),
        "cli.cpu_over_wall": (sum(cpus) / sum(walls), "ratio"),
    }


def traced(args, root, workload, import_s):
    from tracer import Tracer
    tracer = Tracer()
    errors = []
    if args.workload == "sweep":
        walls, cpus, failed, errors = measure(workload, args.seconds / 2, 0)
        cli_stats = cli_metrics(workload, walls, cpus)
        n = len(walls)
        t0 = time.perf_counter()
        out = workload.run_in_process(1, n)
        untraced_s = time.perf_counter() - t0
        errors += run_check(workload.check, None, out)
        tracer.install()
        tracer.op, tracer.recording = 0, True
        t0 = time.perf_counter()
        out = workload.run_in_process(1, n + 1)
        traced_s = time.perf_counter() - t0
        tracer.recording = False
        tracer.uninstall()
        errors += run_check(workload.check, None, out)
        n_traced, attempted = 1, n + 2
    else:
        tracer.install()
        tracer.recording = True
        workload.setup()
        tracer.recording = False
        tracer.uninstall()
        walls, _, failed, errors = measure(workload, args.seconds / 2, 0)
        untraced_s = statistics.median(walls)
        tracer.install()
        twalls, _, tfailed, terrors = measure(workload, args.seconds / 2, len(walls),
                                              tracer)
        tracer.uninstall()
        traced_s = statistics.median(twalls)
        failed += tfailed
        errors += terrors
        cli_stats = cli_metrics(workload, [], [])
        n_traced, attempted = len(twalls), len(walls) + len(twalls)
    errors += run_check(workload.final_check)
    if tracer.absent:
        print(f"trace: absent {', '.join(sorted(tracer.absent))}")
    path = root / "perfbench" / "out" / f"trace-{args.workload}.jsonl"
    tracer.write(path)
    print(f"{args.workload} seed={args.seed}: traced {n_traced} of {attempted} "
          f"operations; {len(tracer.spans)} spans in {path.relative_to(root)}")
    metrics = layer_metrics(tracer, n_traced, import_s,
                            traced_s - untraced_s, cli_stats)
    return attempted, failed, errors, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dpem" / "__init__.py").is_file():
        print("perfbench: run from a source checkout; no src/dpem here", file=sys.stderr)
        return 2
    if args.workload != "sweep":
        for var in THREAD_VARS:
            os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import workloads  # numpy, scipy and every dpem module
    import_s = time.perf_counter() - t0

    workload = workloads.WORKLOADS[args.workload](args.seed, root)
    if args.trace:
        attempted, failed, errors, metrics = traced(args, root, workload, import_s)
    else:
        workload.setup()
        own_setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(f"{own_setup_s!r}")
            return 0
        attempted, failed, errors, metrics = end_to_end(args, root, workload, own_setup_s)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
