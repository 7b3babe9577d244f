import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpem
from dpem import cli
from dpem.accountant import CompositionPlan, PrivacyBudget, calibrate
from dpem.cli import main
from dpem.dataio import write_csv
from dpem.mechanisms import gaussian_sigma


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
    tasks = []
    run_cell = cli._run_cell

    def spy(task):
        tasks.append(task)
        return run_cell(task)

    monkeypatch.setattr(cli, "_run_cell", spy)
    assert run_cli(fit_args(tmp_path / "spy", extra=["--folds", "2"])) == 0
    assert len(tasks) == 12
    assert not [key for task in tasks for key, value in task.items()
                if isinstance(value, np.ndarray)]
    assert cli._SPLITS == []


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
