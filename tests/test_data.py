import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpem.data import BoundedDataset, preprocess
from dpem.errors import DataError
from dpem.mechanisms import triu_indices


def test_preprocess_divides_by_max_norm():
    out = preprocess(np.array([[3.0, 4.0], [0.0, 1.0]]))
    np.testing.assert_allclose(out.rows, [[0.6, 0.8], [0.0, 0.2]])
    assert out.scale == 5.0


def test_preprocess_identity_when_bounded():
    raw = np.array([[0.5, 0.5], [0.1, -0.2]])
    out = preprocess(raw)
    np.testing.assert_array_equal(out.rows, raw)
    assert out.scale == 1.0


def test_preprocess_single_row():
    out = preprocess(np.array([[2.0, 0.0]]))
    np.testing.assert_allclose(out.rows, [[1.0, 0.0]])


def test_preprocess_rejects_non_finite_with_row_index():
    raw = np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(DataError, match="row 1"):
        preprocess(raw)


@pytest.mark.parametrize("raw", [np.array([[3.0, 4.0], [0.0, 1.0]]),
                                 np.array([[0.5, 0.5], [0.1, -0.2]])])
def test_preprocess_computes_row_norms_once(raw, monkeypatch):
    # preprocess runs the finite and norm passes itself; the dataset it
    # returns must not run them again
    calls = []
    norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    out = preprocess(raw)
    assert len(calls) == 1
    assert out.rows is not raw and out.rows.dtype == np.float64
    monkeypatch.setattr(np.linalg, "norm", norm)
    checked = BoundedDataset(out.rows, scale=out.scale)
    np.testing.assert_array_equal(checked.rows, out.rows)
    assert checked.scale == out.scale


@pytest.mark.parametrize("raw, message", [
    (np.zeros((0, 3)), "expected a non-empty 2-d matrix, got shape (0, 3)"),
    (np.zeros((4, 0)), "need at least one row and one column, got (4, 0)"),
    (np.zeros(0), "need at least one row and one column, got (1, 0)"),
    (np.zeros((2, 2, 2)), "expected a non-empty 2-d matrix, got shape (2, 2, 2)"),
    (np.array([[0.0, 1.0], [0.0, np.inf]]), "non-finite entry in row 1"),
])
def test_preprocess_keeps_its_error_messages(raw, message):
    with pytest.raises(DataError) as err:
        preprocess(raw)
    assert str(err.value) == message


def test_bounded_dataset_rejects_oversized_rows():
    with pytest.raises(DataError, match="norm"):
        BoundedDataset(np.array([[1.2, 0.0]]))


def test_bounded_dataset_shape_checks():
    with pytest.raises(DataError):
        BoundedDataset(np.zeros((0, 3)))
    assert BoundedDataset(np.zeros((4, 3))).n == 4
    assert BoundedDataset(np.zeros((4, 3))).d == 3


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=8),
                  elements=st.floats(-1e6, 1e6)))
def test_preprocess_idempotent_and_bounded(raw):
    once = preprocess(raw)
    twice = preprocess(once.rows)
    np.testing.assert_array_equal(once.rows, twice.rows)
    assert np.linalg.norm(once.rows, axis=1).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("d", [1, 2, 5])
def test_pairs_are_one_read_only_copy_of_the_upper_triangle(d):
    rows = np.random.default_rng(d).uniform(-0.4, 0.4, size=(50, d))
    data = BoundedDataset(rows)
    pairs = data.pairs
    assert data.pairs is pairs
    a, b = triu_indices(d)
    np.testing.assert_array_equal(pairs, rows[:, a] * rows[:, b])
    assert pairs.nbytes == 8 * data.n * d * (d + 1) // 2
    assert pairs.base.nbytes == pairs.nbytes  # no second copy behind the view
    for array in (pairs, pairs.base, a, b):
        with pytest.raises(ValueError):
            array[0] = 0
    # never pickled: a process pool is sent the rows alone
    assert len(pickle.dumps(data)) == len(pickle.dumps(BoundedDataset(rows)))
    assert "pairs" not in vars(pickle.loads(pickle.dumps(data)))
