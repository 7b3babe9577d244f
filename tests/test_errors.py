import pickle

import pytest

from dpem.errors import (
    DataError,
    DegenerateComponentError,
    DpemError,
    SingularCovarianceError,
    UnattainableBudgetError,
)

# one instance per exception type; a --jobs worker sends it back pickled
INSTANCES = [
    DpemError("base"),
    DataError("ragged CSV"),
    DegenerateComponentError(2, 1.5e-9),
    SingularCovarianceError(2),
    UnattainableBudgetError("needs at least 94 orders"),
]


def test_every_error_type_has_an_instance():
    assert {type(e) for e in INSTANCES} == {DpemError, *DpemError.__subclasses__()}


@pytest.mark.parametrize("error", INSTANCES, ids=lambda e: type(e).__name__)
def test_error_survives_a_pickle_round_trip(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert vars(back) == vars(error)
    assert str(back) == str(error)
    assert back.args == error.args
