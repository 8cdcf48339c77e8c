"""Every `DidPermError` survives pickling, as errors raised in a worker process must."""

import pickle

import pytest

from didperm import (
    DidPermError,
    EmptyCellError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    SpaceTooLargeError,
    TooManyDegenerateDrawsError,
)

# (error, its attributes)
ERRORS = [
    (DidPermError("base"), {}),
    (EmptyCellError(1, 0), {"affected": 1, "time": 0}),
    (MalformedRowError(7, "bad time label"), {"row": 7, "reason": "bad time label"}),
    (EmptyFileError("no data rows"), {}),
    (MissingColumnError(["y", "time"]), {"names": ("y", "time")}),
    (SpaceTooLargeError(log_size=21.4, cap=10_000_000), {"log_size": 21.4, "cap": 10_000_000}),
    (TooManyDegenerateDrawsError(iteration=12, attempts=1000), {"iteration": 12, "attempts": 1000}),
]


@pytest.mark.parametrize("error, attributes", ERRORS, ids=[type(e).__name__ for e, _ in ERRORS])
def test_pickle_round_trip(error, attributes):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert {name: getattr(copy, name) for name in attributes} == attributes
