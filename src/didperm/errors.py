"""Exception types shared across the package."""

__all__ = [
    "DidPermError",
    "EmptyCellError",
    "EmptyFileError",
    "MalformedRowError",
    "MissingColumnError",
    "SpaceTooLargeError",
    "TooManyDegenerateDrawsError",
]


class DidPermError(Exception):
    """Base class for all didperm errors."""


class EmptyCellError(DidPermError):
    """A (affected, time) cell holds no observations, so the DiD contrast is undefined."""

    def __init__(self, affected: int, time: int):
        self.affected = int(affected)
        self.time = int(time)
        super().__init__(
            f"cell (affected={self.affected}, time={self.time}) is empty; "
            "the difference-in-differences contrast is undefined"
        )

    def __reduce__(self):
        return type(self), (self.affected, self.time)


class MalformedRowError(DidPermError):
    """A row could not be parsed. `row` is the 1-based data-row index, 0 for the header."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")

    def __reduce__(self):
        return type(self), (self.row, self.reason)


class EmptyFileError(DidPermError):
    """The input file has no header or fewer data rows than a 2x2 panel needs (4)."""


class MissingColumnError(DidPermError):
    """A mapped column name is absent from the input header."""

    def __init__(self, names):
        self.names = tuple(names)
        super().__init__(f"column(s) not found in header: {', '.join(self.names)}")

    def __reduce__(self):
        return type(self), (self.names,)


class SpaceTooLargeError(DidPermError):
    """The relabeling space exceeds the enumeration cap; use Monte Carlo sampling instead."""

    def __init__(self, log_size: float, cap: int):
        self.log_size = float(log_size)
        self.cap = int(cap)
        super().__init__(
            f"relabeling space has log-size {self.log_size:.2f} nats, which exceeds "
            f"the enumeration cap of {self.cap} relabelings; use Monte Carlo simulation"
        )

    def __reduce__(self):
        return type(self), (self.log_size, self.cap)


class TooManyDegenerateDrawsError(DidPermError):
    """An iteration exhausted its retry budget without drawing an estimable relabeling."""

    def __init__(self, iteration: int, attempts: int):
        self.iteration = int(iteration)
        self.attempts = int(attempts)
        super().__init__(
            f"iteration {self.iteration}: no estimable relabeling found in "
            f"{self.attempts} attempts; the sample is too small or too imbalanced "
            "for this randomization scheme"
        )

    def __reduce__(self):
        return type(self), (self.iteration, self.attempts)
