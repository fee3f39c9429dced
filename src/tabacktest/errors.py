"""Exception hierarchy for the whole package.

Two broad families map onto CLI exit codes: input errors (bad files,
bad config) exit with 2, domain errors (bad parameters, series too
short, degenerate math) exit with 3.
"""


class EngineError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3

    @property
    def kind(self) -> str:
        return type(self).__name__


class InputError(EngineError):
    """Problem with an input file or its contents."""

    exit_code = 2


class MissingInput(InputError):
    pass


class MissingColumn(InputError):
    pass


class EmptySeries(InputError):
    pass


class ConfigError(InputError):
    pass


class InvalidArgument(InputError):
    """A command-line flag value outside its domain."""


class PathError(InputError):
    """A path that cannot be used as given: a directory where a file is
    expected, a file without read permission, and the like."""


class RowError(InputError):
    """Input error tied to a specific data row (1-based, header excluded)."""

    def __init__(self, row: int, message: str = ""):
        self.row = row
        detail = f"row {row}: {message}" if message else f"row {row}"
        super().__init__(detail)


class UnparsableRow(RowError):
    pass


class NonMonotonicDates(RowError):
    pass


class InvariantViolation(RowError):
    pass


class ZeroPeriod(EngineError):
    pass


class InvalidParams(EngineError):
    pass


class TooShort(EngineError):
    pass


class IndexOutOfRange(EngineError):
    pass


class NonAlternatingSignals(EngineError):
    pass


class ZeroVolatility(EngineError):
    pass


class LengthMismatch(EngineError):
    pass


class NonPositivePrice(EngineError):
    pass


class DomainError(EngineError):
    pass


class EmptyGridAfterFilter(EngineError):
    pass
