import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from dpem.data import preprocess
from dpem.dataio import (
    ExperimentResult,
    cv_split,
    load_csv,
    summarize,
    synth_mog,
    write_csv,
    write_results_jsonl,
)
from dpem.errors import DataError
from dpem.mog import fit_em


# --- load_csv -------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(load_csv(p), [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_skips_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n1,2\n")
    np.testing.assert_array_equal(load_csv(p, has_header=True), [[1.0, 2.0]])


def test_load_csv_ragged_row_names_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n5\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(p)


def test_load_csv_non_numeric_names_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\nx,4\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(p)


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/file.csv")


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (3, 4),
                  elements=st.floats(allow_nan=False, allow_infinity=False,
                                     width=64)))
def test_csv_round_trip_bit_exact(tmp_path_factory, matrix):
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    write_csv(p, matrix)
    back = load_csv(p)
    np.testing.assert_array_equal(back, matrix)


# --- synth_mog --------------------------------------------------------------


def test_synth_mog_single_component():
    raw, true = synth_mog(100, 3, 1, separation=2.0, seed=0)
    assert raw.shape == (100, 3)
    assert true.weights.shape == (1,)


def test_synth_mog_seed_determinism():
    a, _ = synth_mog(50, 2, 2, separation=3.0, seed=42)
    b, _ = synth_mog(50, 2, 2, separation=3.0, seed=42)
    np.testing.assert_array_equal(a, b)


def test_synth_mog_rows_bounded():
    raw, _ = synth_mog(200, 4, 3, separation=5.0, seed=3)
    assert np.linalg.norm(raw, axis=1).max() <= 1.0 + 1e-12


def test_synth_mog_planted_recovery():
    raw, true = synth_mog(10_000, 2, 2, separation=4.0, seed=1)
    data = preprocess(raw)
    params = fit_em(data, 2, 40, estimator="mle", seed=0)
    cost = np.linalg.norm(params.means[:, None, :] - true.means[None], axis=2)
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 0.05


def test_synth_mog_needs_enough_rows():
    with pytest.raises(DataError):
        synth_mog(2, 2, 5, separation=1.0, seed=0)


# --- cv_split -----------------------------------------------------------------


def test_cv_split_ten_folds_of_hundred():
    data = np.arange(200).reshape(100, 2)
    splits = cv_split(data, 10, seed=0)
    assert len(splits) == 10
    for train, test in splits:
        assert test.shape == (10, 2)
        assert train.shape == (90, 2)


def test_cv_split_partitions_rows():
    data = np.arange(34).reshape(17, 2)
    splits = cv_split(data, 4, seed=1)
    seen = np.vstack([test for _, test in splits])
    assert seen.shape[0] == 17
    assert {tuple(r) for r in seen} == {tuple(r) for r in data}


def test_cv_split_deterministic():
    data = np.arange(40).reshape(20, 2)
    a = cv_split(data, 5, seed=9)
    b = cv_split(data, 5, seed=9)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        np.testing.assert_array_equal(te1, te2)


def test_cv_split_rejects_small_n():
    with pytest.raises(DataError):
        cv_split(np.zeros((3, 2)), 5)


# --- results ---------------------------------------------------------------------


def result(method="zcdp", eps=1.0, metric=0.5, seed=0):
    return ExperimentResult(
        model="mog", method=method, scenario="ggg", epsilon=eps, delta=1e-4,
        fold=0, seed=seed, metric=metric, metric_name="test_loglik_per_point",
        n_mechanisms=70, flagged=0, audited_epsilon=eps * 0.99, audited_delta=1e-4,
        wall_time=0.1)


def test_experiment_result_json_round_trip(tmp_path):
    res = [result(seed=s, metric=0.1 * s) for s in range(3)]
    path = tmp_path / "r.jsonl"
    write_results_jsonl(path, res)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    parsed = json.loads(lines[0])
    assert parsed["method"] == "zcdp"


def test_experiment_result_json_handles_inf():
    res = result(eps=float("inf"))
    parsed = json.loads(res.to_json())
    assert parsed["epsilon"] == "inf"


def test_summarize_median_and_iqr():
    res = [result(metric=m, seed=i) for i, m in enumerate([1.0, 2.0, 3.0])]
    rows = summarize(res)
    assert len(rows) == 1
    assert rows[0]["median"] == 2.0
    assert rows[0]["q25"] == 1.5
    assert rows[0]["n_cells"] == 3
