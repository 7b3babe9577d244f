import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import weakref
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import dpem
from dpem import cli
from dpem.accountant import CompositionPlan, PrivacyBudget, calibrate, gaussian_sigma
from dpem.cli import main
from dpem.dataio import write_csv
from dpem.errors import DpemError


def run_cli(args):
    return main(args)


# --- calibrate ----------------------------------------------------------------


def test_calibrate_all_methods_table(capsys):
    code = run_cli(["calibrate", "--eps", "1", "--delta", "1e-4",
                    "--delta-i", "1e-6", "--iters", "10",
                    "--components", "3", "--scenario", "ggg",
                    "--method", "all"])
    assert code == 0
    out = capsys.readouterr().out
    for method in ("linear", "advanced", "zcdp", "ma"):
        assert method in out


def test_calibrate_linear_row_is_budget_over_mechanisms(capsys):
    run_cli(["calibrate", "--eps", "1", "--delta", "1e-4", "--iters", "10",
             "--components", "3", "--method", "linear"])
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.strip().startswith("linear")][0]
    eps_i = float(line.split()[1])
    assert eps_i == pytest.approx(1.0 / 70.0)


def test_calibrate_zcdp_exceeds_linear(capsys):
    run_cli(["calibrate", "--eps", "1", "--delta", "1e-4", "--iters", "10",
             "--components", "3", "--method", "all"])
    out = capsys.readouterr().out
    vals = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("linear", "zcdp"):
            vals[parts[0]] = float(parts[1])
    assert vals["zcdp"] > vals["linear"]


def test_calibrate_unattainable_exits_3(capsys):
    code = run_cli(["calibrate", "--eps", "0.05", "--delta", "1e-4",
                    "--iters", "10", "--components", "3",
                    "--method", "ma", "--max-order", "16"])
    assert code == 3


def test_calibrate_ma_default_order_reaches_small_budgets(capsys):
    # eps=0.1 at delta=1e-4 needs about 105 orders; the default of 512 covers
    # it, as it does for `dpem fit`
    code = run_cli(["calibrate", "--eps", "0.1", "--delta", "1e-4",
                    "--iters", "10", "--components", "3", "--method", "ma"])
    assert code == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.strip().startswith("ma")][0]
    plan = CompositionPlan(scenario="ggg", iterations=10, components=3,
                           delta_i=1e-6, method="ma")
    want = calibrate(plan, PrivacyBudget(0.1, 1e-4), max_order=512)
    assert line.split()[1] == f"{want:.8g}"


@pytest.mark.parametrize("scenario", ["llg", "ggg"])
def test_calibrate_noise_columns_use_the_release_mechanism(capsys, scenario):
    # llg releases the weights through Laplace noise, ggg through Gaussian
    assert run_cli(["calibrate", "--eps", "1", "--delta", "1e-4", "--iters", "10",
                    "--components", "3", "--scenario", scenario, "--n", "3000",
                    "--method", "zcdp"]) == 0
    header, row = capsys.readouterr().out.splitlines()[1:3]
    cells = dict(zip(header.split(), row.split()))
    eps_i = float(cells["eps_i"])
    if scenario == "llg":
        assert "noise_means" not in cells
        want = (2.0 / 3000) / eps_i
    else:
        want = gaussian_sigma(2.0 / 3000, eps_i, 1e-6)
    assert float(cells["noise_weights"]) == pytest.approx(want, rel=1e-7)


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        run_cli(["calibrate", "--eps", "1"])  # missing required flags
    assert err.value.code == 2


@pytest.mark.parametrize("source", [
    pytest.param([], id="neither"),
    pytest.param(["--data", "rows.csv", "--synth-n", "500"], id="both"),
])
def test_fit_needs_exactly_one_data_source(tmp_path, source, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_csv("rows.csv", np.random.default_rng(0).uniform(-1, 1, (12, 2)))
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as err:
        run_cli(["fit", "--model", "kmeans", "--k", "2", "--iters", "2",
                 "--eps-list", "1", *source, "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()


# --- fit ------------------------------------------------------------------------


def fit_args(out_dir, extra=()):
    return ["fit", "--model", "mog", "--synth-n", "400", "--synth-d", "2",
            "--synth-k", "2", "--k", "2", "--iters", "2",
            "--eps-list", "1,4", "--method", "zcdp", "--seeds", "2",
            "--seed", "7", "--out", str(out_dir), *extra]


def test_fit_mog_writes_results_and_summary(tmp_path):
    code = run_cli(fit_args(tmp_path / "run"))
    assert code == 0
    lines = (tmp_path / "run" / "results.jsonl").read_text().strip().split("\n")
    # 1 method x 2 eps x 1 fold x 2 seeds + 2 baseline cells
    assert len(lines) == 6
    rows = [json.loads(l) for l in lines]
    for row in rows:
        if row["method"] == "baseline":
            continue
        assert row["audited_epsilon"] <= row["epsilon"] + 1e-9
    summary = (tmp_path / "run" / "summary.csv").read_text()
    assert "median" in summary
    assert "baseline" in summary


def rows_without_timing(path):
    rows = [json.loads(l) for l in path.read_text().strip().split("\n")]
    for row in rows:
        row.pop("wall_time")
    return rows


def test_fit_reproducible_byte_identical(tmp_path):
    run_cli(fit_args(tmp_path / "a"))
    run_cli(fit_args(tmp_path / "b"))
    # summary holds no timing, so it must match to the byte
    assert (tmp_path / "a" / "summary.csv").read_bytes() == \
        (tmp_path / "b" / "summary.csv").read_bytes()
    assert rows_without_timing(tmp_path / "a" / "results.jsonl") == \
        rows_without_timing(tmp_path / "b" / "results.jsonl")


def test_fit_parallel_matches_serial(tmp_path):
    run_cli(fit_args(tmp_path / "serial"))
    run_cli(fit_args(tmp_path / "par", extra=["--jobs", "2"]))
    assert (tmp_path / "serial" / "summary.csv").read_bytes() == \
        (tmp_path / "par" / "summary.csv").read_bytes()
    assert rows_without_timing(tmp_path / "serial" / "results.jsonl") == \
        rows_without_timing(tmp_path / "par" / "results.jsonl")


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; every --jobs worker pays this import
    env = dict(os.environ)
    src = str(Path(dpem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import dpem.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_fit_jobs_below_one_exits_2(tmp_path, capsys):
    code = run_cli(fit_args(tmp_path / "j0", extra=["--jobs", "0"]))
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "j0").exists()


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--folds", "-2")])
def test_fit_counts_below_one_exit_2(tmp_path, capsys, flag, value):
    # argparse keeps the last occurrence, so this overrides fit_args' --seeds 2
    code = run_cli(fit_args(tmp_path / "bad", extra=[flag, value]))
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


CALIBRATE_ARGS = ["calibrate", "--eps", "1", "--delta", "1e-4", "--iters", "5",
                  "--components", "3"]


@pytest.mark.parametrize("argv,flag", [
    (["fit", "--model", "mog", "--eps-list", "0"], "--eps-list"),
    (["fit", "--model", "mog", "--eps-list", "1,abc"], "--eps-list"),
    (["fit", "--model", "mog", "--delta", "0"], "--delta"),
    (["fit", "--model", "mog", "--delta-i", "0"], "--delta-i"),
    (["fit", "--model", "mog", "--iters", "0"], "--iters"),
    (["fit", "--model", "mog", "--k", "0"], "--k"),
    (["fit", "--model", "mog", "--max-order", "0"], "--max-order"),
    (["fit", "--model", "kmeans", "--iters", "0"], "--iters"),
    (CALIBRATE_ARGS + ["--eps", "0"], "--eps"),
    (CALIBRATE_ARGS + ["--delta", "0"], "--delta"),
    (CALIBRATE_ARGS + ["--delta-i", "1"], "--delta-i"),
    (CALIBRATE_ARGS + ["--iters", "0"], "--iters"),
    (CALIBRATE_ARGS + ["--n", "-3"], "--n"),
    (CALIBRATE_ARGS + ["--components", "0", "--n", "100"], "--components"),
    (["fit", "--model", "fa", "--synth-d", "2", "--q", "2"], "--q"),
    (["fit", "--model", "fa", "--q", "-1"], "--q"),
    (["fit", "--model", "mog", "--synth-d", "0"], "--synth-d"),
    (["fit", "--model", "mog", "--synth-d", "-1"], "--synth-d"),
    (["fit", "--model", "mog", "--synth-k", "0"], "--synth-k"),
    (["fit", "--model", "mog", "--eps-list", ","], "--eps-list"),
    (["fit", "--model", "mog", "--eps-list", "inf"], "--eps-list"),
    (["fit", "--model", "kmeans", "--eps-list", "1,inf"], "--eps-list"),
    (CALIBRATE_ARGS + ["--eps", "inf"], "--eps"),
    (["fit", "--model", "mog", "--eps-list", "1,0.5,1.0"], "--eps-list"),
    (["fit", "--model", "mog", "--method", "zcdp,zcdp"], "--method"),
    (["fit", "--model", "mog", "--method", ","], "--method"),
    (["fit", "--model", "mog", "--seed", "-1"], "--seed"),
    (["fit", "--model", "kmeans", "--synth-seed", "-1"], "--synth-seed"),
    (["fit", "--model", "mog", "--synth-separation", "inf"], "--synth-separation"),
    (["fit", "--model", "mog", "--synth-separation", "nan"], "--synth-separation"),
    (["fit", "--model", "mog", "--synth-separation", "-1"], "--synth-separation"),
])
def test_bad_numeric_flag_exits_2_before_writing(tmp_path, capsys, argv, flag):
    out_dir = tmp_path / "out"
    if argv[0] == "fit":
        argv = argv + ["--synth-n", "300", "--out", str(out_dir)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(flag + " ")
    assert not out_dir.exists()


MODEL_SWEEPS = {
    "mog": ["--model", "mog", "--synth-d", "2", "--synth-k", "2", "--k", "2",
            "--iters", "2", "--method", "zcdp,ma", "--eps-list", "1,4"],
    "fa": ["--model", "fa", "--synth-d", "4", "--synth-k", "1", "--q", "2",
           "--eps-list", "0.3,0.5"],
    "kmeans": ["--model", "kmeans", "--synth-d", "2", "--synth-k", "3",
               "--k", "3", "--iters", "2", "--eps-list", "0.5,1"],
}


@pytest.mark.parametrize("model", sorted(MODEL_SWEEPS))
def test_fit_module_entry_point_jobs_2_matches_jobs_1(tmp_path, model):
    # run as `python -m dpem.cli`, the pool's functions pickle as __main__.*
    flags = ["fit", *MODEL_SWEEPS[model], "--synth-n", "400", "--seeds", "2",
             "--folds", "2", "--seed", "5"]
    assert run_cli([*flags, "--out", str(tmp_path / "serial")]) == 0
    env = dict(os.environ)
    src = str(Path(dpem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dpem.cli", *flags, "--jobs", "2",
         "--out", str(tmp_path / "par")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert rows_without_timing(tmp_path / "par" / "results.jsonl") == \
        rows_without_timing(tmp_path / "serial" / "results.jsonl")


DEFAULT_METHODS = {
    "mog": "linear,zcdp,ma",
    "fa": "one-shot",
    "kmeans": "dplloyd-linear,dplloyd-zcdp,dpem",
}


@pytest.mark.parametrize("model", sorted(DEFAULT_METHODS))
def test_fit_without_method_sweeps_the_default_methods(tmp_path, model):
    # the default sweep is the listed methods in that order plus the baseline,
    # so its rows equal those of the explicit --method run, seeds included
    flags = ["fit", "--model", model, "--synth-n", "300", "--synth-d", "3",
             "--synth-k", "2", "--k", "2", "--q", "1", "--iters", "2",
             "--eps-list", "0.5", "--seeds", "1", "--seed", "4"]
    assert run_cli([*flags, "--out", str(tmp_path / "default")]) == 0
    assert run_cli([*flags, "--method", DEFAULT_METHODS[model],
                    "--out", str(tmp_path / "named")]) == 0
    rows = rows_without_timing(tmp_path / "default" / "results.jsonl")
    assert sorted(r["method"] for r in rows) == sorted(
        DEFAULT_METHODS[model].split(",") + ["baseline"])
    assert rows == rows_without_timing(tmp_path / "named" / "results.jsonl")


def test_fit_tasks_carry_no_arrays(tmp_path, monkeypatch):
    tasks, trained = [], []
    run_cell = cli._run_cell

    def spy(task):
        tasks.append(task)
        result = run_cell(task)
        _, folds, _ = cli._SWEEP
        # the sweep holds its folds as read-only arrays, not datasets
        assert all(type(part) is np.ndarray and not part.flags.writeable
                   for pair in folds for part in pair)
        # the cell's training dataset, and its pairs cache, die with the cell
        assert trained and all(ref() is None for ref, _ in trained)
        return result

    def keep(fit):
        def fit_and_keep(train, *args, **kwargs):
            fitted = fit(train, *args, **kwargs)
            trained.append((weakref.ref(train), "pairs" in vars(train)))
            return fitted
        return fit_and_keep

    monkeypatch.setattr(cli, "_run_cell", spy)
    for name in ("run_dpem_mog", "fit_em"):
        monkeypatch.setattr(cli, name, keep(getattr(cli, name)))
    assert run_cli(fit_args(tmp_path / "spy", extra=["--folds", "2"])) == 0
    # each task is its cell index: an int, never an array
    assert len(tasks) == 12
    assert all(type(task) is int for task in tasks)
    assert sorted(tasks) == list(range(12))
    assert len(trained) == 12 and all(cached for _, cached in trained)
    assert cli._SWEEP is None


def test_fit_cells_call_the_library_through_cli_names(tmp_path, monkeypatch):
    # perfbench's tracer wraps these names in dpem.cli: a cell that reached
    # the library another way would leave its layers reading 0
    calls = dict.fromkeys(("run_dpem_mog", "fit_em", "log_likelihood",
                           "compose_trace", "preprocess"), 0)

    def counted(name, fn):
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    assert run_cli(fit_args(tmp_path / "names", extra=["--jobs", "1"])) == 0
    # 2 eps x 2 seeds private cells and 2 baseline cells, each scored once
    assert calls == {"run_dpem_mog": 4, "fit_em": 2, "log_likelihood": 6,
                     "compose_trace": 4, "preprocess": 1}


@pytest.mark.parametrize("model", sorted(cli._MODELS))
def test_fit_sweeps_every_path_of_the_table(tmp_path, model):
    # every method of the model's entry, opt-in ones included, plus the
    # baseline: one row each, under the entry's metric name, and only the
    # private rows carry a trace whose audited spend is within budget
    entry = cli._MODELS[model]
    flags = ["fit", "--model", model, "--synth-n", "300", "--synth-d", "3",
             "--synth-k", "2", "--k", "2", "--q", "1", "--iters", "2",
             "--eps-list", "0.5", "--delta", "1e-4", "--seed", "2"]
    assert run_cli([*flags, "--method", ",".join(entry["methods"]),
                    "--out", str(tmp_path / "all")]) == 0
    listed = rows_without_timing(tmp_path / "all" / "results.jsonl")
    assert sorted(r["method"] for r in listed) == sorted([*entry["methods"], "baseline"])
    rows = {r["method"]: r for r in listed}
    assert {r["metric_name"] for r in rows.values()} == {entry["metric_name"]}
    for method in entry["methods"]:
        row = rows[method]
        assert row["n_mechanisms"] > 0
        assert 0 < row["audited_epsilon"] <= 0.5 + cli.AUDIT_SLACK
        assert 0 <= row["audited_delta"] <= 1e-4 + cli.AUDIT_SLACK
    baseline = rows["baseline"]
    assert (baseline["n_mechanisms"], baseline["audited_epsilon"],
            baseline["audited_delta"]) == (0, 0.0, 0.0)
    assert run_cli([*flags, "--method", "baseline",
                    "--out", str(tmp_path / "baseline")]) == 2
    assert not (tmp_path / "baseline").exists()


def fit_peak_bytes(out_dir, folds):
    """Peak bytes tracemalloc sees in one in-process --jobs 1 mixture sweep
    over 20000 x 5 synthetic rows."""
    flags = ["fit", "--model", "mog", "--synth-n", "20000", "--synth-d", "5",
             "--iters", "2", "--eps-list", "1", "--method", "zcdp", "--seed", "3",
             "--folds", str(folds), "--jobs", "1", "--out", str(out_dir)]
    tracemalloc.start()
    try:
        assert run_cli(flags) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_memory_does_not_grow_with_folds(tmp_path):
    # --folds 1 and --folds 10 both train every cell on 90% of the rows, so
    # their peaks differ by what the sweep keeps of its folds: one copy of
    # the rows either way, plus a middle fold's training rows while it runs
    data_bytes = 20000 * 5 * 8
    fit_peak_bytes(tmp_path / "warm", 1)  # anything imported on first use
    one = fit_peak_bytes(tmp_path / "one", 1)
    ten = fit_peak_bytes(tmp_path / "ten", 10)
    assert ten - one <= 2 * data_bytes


def test_worker_pool_pins_unset_thread_variables(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    before = dict(os.environ)
    with cli._worker_pool(1, []) as pool:
        seen = {var: pool.submit(os.getenv, var).result(timeout=120)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
    assert seen == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "3"}
    assert dict(os.environ) == before


def record_pool_initargs(monkeypatch):
    """The ``initargs`` of every pool ``dpem fit`` starts, in start order."""
    seen = []
    executor = cli.ProcessPoolExecutor

    def recording(*args, **kwargs):
        seen.append(kwargs["initargs"])
        return executor(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording)
    return seen


def assert_block_unlinked(name):
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_fit_workers_get_the_sweep_through_one_shared_block(tmp_path, monkeypatch):
    # spawning a worker writes only the block's name and size to its pipe,
    # however many rows the sweep holds; the block is gone afterwards
    seen = record_pool_initargs(monkeypatch)
    assert run_cli(["fit", "--model", "mog", "--synth-n", "100000", "--synth-d", "5",
                    "--iters", "2", "--eps-list", "1", "--method", "zcdp",
                    "--jobs", "2", "--out", str(tmp_path / "par")]) == 0
    assert len(seen) == 1
    initargs = seen[0]
    assert not any(isinstance(arg, np.ndarray) for arg in initargs)
    assert len(pickle.dumps(initargs)) < 4096
    name, size = initargs
    assert size > 100_000 * 5 * 8  # the rows are in the block
    assert_block_unlinked(name)


def test_fit_unlinks_the_shared_block_when_a_worker_fails(tmp_path, monkeypatch, capsys):
    # as in test_fit_cell_unattainable_budget_exits_3: a worker's cell raises
    seen = record_pool_initargs(monkeypatch)
    assert run_cli(["fit", "--model", "mog", "--synth-n", "300", "--iters", "2",
                    "--eps-list", "0.1,0.5", "--method", "ma", "--max-order", "2",
                    "--jobs", "2", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("unattainable budget:")
    assert len(seen) == 1
    assert_block_unlinked(seen[0][0])


KILLED_POOL = """
import os, time
from dpem import cli
executor = cli.ProcessPoolExecutor
def recording(*args, **kwargs):
    print(kwargs["initargs"][0], flush=True)
    return executor(*args, **kwargs)
cli.ProcessPoolExecutor = recording
with cli._worker_pool(1, []) as pool:
    pool.submit(os.getpid).result(timeout=120)
    print("ready", flush=True)
    time.sleep(120)
"""


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="POSIX shared memory in /dev/shm")
def test_killed_pool_leaves_no_shared_block():
    # a worker ends with its parent, so the resource tracker can remove the
    # block of a CLI that was killed before its pool ended
    env = dict(os.environ)
    src = str(Path(dpem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-c", KILLED_POOL], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            block = Path("/dev/shm") / proc.stdout.readline().strip()
            assert proc.stdout.readline() == "ready\n"
            assert block.exists()
        finally:
            proc.kill()
    deadline = time.monotonic() + 30
    while block.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not block.exists()


def test_fit_parallel_leaves_the_environment_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert run_cli(fit_args(tmp_path / "par", extra=["--jobs", "2"])) == 0
    assert dict(os.environ) == before


def test_fit_env_seed_override(tmp_path, monkeypatch):
    run_cli(fit_args(tmp_path / "flagged", extra=["--seeds", "1"]))
    monkeypatch.setenv("DPEM_SEED", "7")
    code = run_cli(["fit", "--model", "mog", "--synth-n", "400",
                    "--synth-d", "2", "--synth-k", "2", "--k", "2",
                    "--iters", "2", "--eps-list", "1,4", "--method", "zcdp",
                    "--seeds", "1", "--seed", "999",
                    "--out", str(tmp_path / "env")])
    assert code == 0
    assert rows_without_timing(tmp_path / "flagged" / "results.jsonl") == \
        rows_without_timing(tmp_path / "env" / "results.jsonl")


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_fit_bad_env_seed_exits_2_before_writing(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("DPEM_SEED", value)
    assert run_cli(fit_args(tmp_path / "env")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("DPEM_SEED ")
    assert not (tmp_path / "env").exists()


def test_fit_all_four_methods_in_one_summary(tmp_path):
    code = run_cli(["fit", "--model", "mog", "--synth-n", "300",
                    "--synth-d", "2", "--synth-k", "2", "--k", "2",
                    "--iters", "2", "--eps-list", "1",
                    "--method", "linear,advanced,zcdp,ma", "--seeds", "1",
                    "--seed", "0", "--out", str(tmp_path / "four")])
    assert code == 0
    summary = (tmp_path / "four" / "summary.csv").read_text()
    for method in ("linear", "advanced", "zcdp", "ma", "baseline"):
        assert f"mog,{method}," in summary


def test_fit_kmeans_smoke(tmp_path):
    code = run_cli(["fit", "--model", "kmeans", "--synth-n", "500",
                    "--synth-d", "2", "--synth-k", "3", "--k", "3",
                    "--iters", "2", "--eps-list", "0.5",
                    "--method", "dplloyd-linear,dpem", "--seeds", "1",
                    "--seed", "1", "--out", str(tmp_path / "km")])
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "km" / "results.jsonl").read_text().strip().split("\n")]
    assert {r["method"] for r in rows} == {"dplloyd-linear", "dpem", "baseline"}
    assert all(r["metric_name"] == "nicv" for r in rows)


def test_fit_kmeans_dpem_audit_spends_the_budget(tmp_path):
    # the audited spend of centroid k-means equals the requested budget:
    # the centroid group is charged once per iteration, at calibration and
    # at audit alike
    code = run_cli(["fit", "--model", "kmeans", "--synth-n", "500",
                    "--synth-d", "2", "--synth-k", "3", "--k", "3",
                    "--iters", "4", "--eps-list", "0.5", "--method", "dpem",
                    "--seeds", "1", "--seed", "1",
                    "--out", str(tmp_path / "km")])
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "km" / "results.jsonl").read_text().strip().split("\n")]
    dpem_rows = [r for r in rows if r["method"] == "dpem"]
    assert dpem_rows and all(r["n_mechanisms"] == 4 * (3 + 1)
                             for r in dpem_rows)
    for r in dpem_rows:
        assert r["audited_epsilon"] <= 0.5
        assert r["audited_epsilon"] == pytest.approx(0.5, rel=1e-5)


def test_fit_kmeans_reports_flagged_records(tmp_path):
    # at a tiny budget the noised counts floor, and the centroid records
    # that divided by a floored count are counted in each private row
    code = run_cli(["fit", "--model", "kmeans", "--synth-n", "300",
                    "--synth-d", "2", "--synth-k", "3", "--k", "3",
                    "--iters", "3", "--eps-list", "0.001", "--method", "dpem",
                    "--seeds", "1", "--seed", "1",
                    "--out", str(tmp_path / "km")])
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "km" / "results.jsonl").read_text().strip().split("\n")]
    flagged = {r["method"]: r["flagged"] for r in rows}
    assert flagged["baseline"] == 0
    assert 0 < flagged["dpem"] <= 3 * 3


def test_fit_fa_smoke(tmp_path):
    code = run_cli(["fit", "--model", "fa", "--synth-n", "400",
                    "--synth-d", "4", "--synth-k", "1", "--q", "2",
                    "--eps-list", "0.3,0.5", "--seeds", "1", "--seed", "3",
                    "--out", str(tmp_path / "fa")])
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "fa" / "results.jsonl").read_text().strip().split("\n")]
    one_shot = [r for r in rows if r["method"] == "one-shot"]
    assert all(r["n_mechanisms"] == 1 for r in one_shot)


def test_fit_data_csv_and_missing_file(tmp_path):
    mat = np.random.default_rng(0).uniform(-0.4, 0.4, size=(120, 2))
    path = tmp_path / "data.csv"
    write_csv(path, mat)
    code = run_cli(["fit", "--model", "mog", "--data", str(path), "--k", "2",
                    "--iters", "2", "--eps-list", "2", "--method", "zcdp",
                    "--seeds", "1", "--out", str(tmp_path / "csvrun")])
    assert code == 0
    code = run_cli(["fit", "--model", "mog", "--data", "/no/such/file.csv",
                    "--k", "2", "--out", str(tmp_path / "x")])
    assert code == 4


def test_fit_multiple_folds(tmp_path):
    code = run_cli(["fit", "--model", "mog", "--synth-n", "300",
                    "--synth-d", "2", "--synth-k", "2", "--k", "2",
                    "--iters", "2", "--eps-list", "2", "--method", "zcdp",
                    "--folds", "3", "--seeds", "1", "--seed", "0",
                    "--out", str(tmp_path / "folds")])
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "folds" / "results.jsonl").read_text().strip().split("\n")]
    assert {r["fold"] for r in rows} == {0, 1, 2}


def test_fit_unknown_method_exits_2(tmp_path):
    code = run_cli(["fit", "--model", "mog", "--synth-n", "100",
                    "--method", "bogus", "--out", str(tmp_path / "y")])
    assert code == 2


def test_fit_unattainable_budget_exits_3(tmp_path):
    code = run_cli(["fit", "--model", "fa", "--synth-n", "200",
                    "--synth-d", "3", "--synth-k", "1", "--q", "1",
                    "--eps-list", "2.0", "--seeds", "1",
                    "--out", str(tmp_path / "z")])
    assert code == 3


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fit_cell_unattainable_budget_exits_3(tmp_path, capsys, jobs):
    # two moment orders cannot reach eps 0.1: the first cell's calibration
    # raises, in the caller or in a pool worker, and main maps it to exit 3
    out_dir = tmp_path / "out"
    assert run_cli(["fit", "--model", "mog", "--synth-n", "300", "--iters", "2",
                    "--eps-list", "0.1", "--method", "ma", "--max-order", "2",
                    "--jobs", jobs, "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("unattainable budget:")
    assert not out_dir.exists()


def test_fit_spend_audit_refuses_an_overspent_cell(tmp_path, monkeypatch):
    # a trace whose recomposed spend exceeds the cell's eps fails the audit
    # before anything is written
    monkeypatch.setattr(cli, "compose_trace",
                        lambda trace, method, delta, max_order: PrivacyBudget(2.0, delta))
    out_dir = tmp_path / "out"
    with pytest.raises(DpemError, match="spend audit failed: "):
        run_cli(["fit", "--model", "mog", "--synth-n", "300", "--iters", "2",
                 "--eps-list", "1", "--method", "zcdp", "--jobs", "1",
                 "--out", str(out_dir)])
    assert not out_dir.exists()


def test_fit_fa_default_eps_list_exits_3_before_any_cell(tmp_path, capsys, monkeypatch):
    # the default list (0.1,0.5,1,2,4) reaches eps 1, which FA's one-shot
    # release cannot attain: no cell may run before the sweep is refused
    cells = []
    monkeypatch.setattr(cli, "_run_cell", cells.append)
    out_dir = tmp_path / "out"
    assert run_cli(["fit", "--model", "fa", "--synth-n", "400", "--synth-d", "4",
                    "--out", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("--eps-list ")
    assert cells == []
    assert not out_dir.exists()
