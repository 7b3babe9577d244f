import json
import pickle
import tracemalloc
from collections.abc import Sequence

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


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_peak_stays_below_three_matrices(tmp_path):
    matrix = np.random.default_rng(0).normal(size=(20_000, 5))
    p = tmp_path / "m.csv"
    write_csv(p, matrix)
    back, peak = traced_peak(load_csv, p)
    np.testing.assert_array_equal(back, matrix)
    assert back.shape == matrix.shape
    assert peak < 3 * back.nbytes


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


def eager_cv_split(data, folds, seed):
    """Every (train, test) pair built up front by index arrays: the
    reference that each fold must equal bit for bit."""
    n = data.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.linspace(0, n, folds + 1).astype(int)
    splits = []
    for f in range(folds):
        test_idx = perm[bounds[f]:bounds[f + 1]]
        train_idx = np.concatenate([perm[:bounds[f]], perm[bounds[f + 1]:]])
        splits.append((data[train_idx], data[test_idx]))
    return splits


@pytest.mark.parametrize("n", [17, 100, 1001])
@pytest.mark.parametrize("folds", [2, 4, 10])
def test_cv_split_folds_equal_an_eager_split(n, folds):
    data = np.random.default_rng(n).normal(size=(n, 3))
    for seed in (0, 1, 9, 2 ** 40):
        got, want = cv_split(data, folds, seed=seed), eager_cv_split(data, folds, seed)
        assert len(got) == len(want) == folds
        for pair, want_pair in zip(got, want):
            for part, want_part in zip(pair, want_pair):
                assert part.shape == want_part.shape and part.dtype == want_part.dtype
                assert part.tobytes() == want_part.tobytes()


def same_pair(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_cv_split_is_a_sequence_of_pairs():
    data = np.arange(60.0).reshape(20, 3)
    splits = cv_split(data, 4, seed=3)
    assert isinstance(splits, Sequence)
    assert len(splits) == 4
    listed = list(splits)
    assert len(listed) == 4
    assert all(same_pair(listed[f], splits[f]) for f in range(4))
    assert same_pair(splits[-1], splits[3]) and same_pair(splits[-4], splits[0])
    for key in (slice(1, 3), slice(None, None, -1), slice(5, None)):
        part = splits[key]
        assert type(part) is list
        want = [listed[f] for f in range(4)[key]]
        assert len(part) == len(want)
        assert all(same_pair(a, b) for a, b in zip(part, want))
    for bad in (4, -5):
        with pytest.raises(IndexError):
            splits[bad]


def test_cv_split_folds_are_read_only_views_of_one_copy():
    data = np.random.default_rng(0).normal(size=(50, 3))
    splits = cv_split(data, 5, seed=2)
    buffer = splits[0][1].base
    assert buffer.shape == data.shape and not buffer.flags.writeable
    assert not np.shares_memory(buffer, data)
    views = [splits[0][0], splits[-1][0], *(test for _, test in splits)]
    for view in views:
        assert view.base is buffer and np.shares_memory(view, buffer)
    middle_train = splits[2][0]
    assert not np.shares_memory(middle_train, buffer)
    for part in [*views, middle_train]:
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0, 0] = 1.0


def test_cv_split_unpickles_to_the_same_read_only_folds():
    data = np.random.default_rng(1).normal(size=(40, 2))
    splits = cv_split(data, 4, seed=5)
    back = pickle.loads(pickle.dumps(splits))
    assert len(back) == len(splits)
    for pair, want in zip(back, splits):
        assert same_pair(pair, want)
        assert not any(part.flags.writeable for part in pair)


def test_cv_split_and_its_first_fold_allocate_about_one_copy():
    X = np.random.default_rng(0).normal(size=(20_000, 5))
    cv_split(X, 10, seed=1)[0]  # anything imported on first use, outside the trace
    (train, test), peak = traced_peak(lambda: cv_split(X, 10, seed=4)[0])
    assert train.shape == (18_000, 5) and test.shape == (2_000, 5)
    assert peak <= 1.2 * X.nbytes


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
