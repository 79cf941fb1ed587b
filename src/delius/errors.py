"""Error taxonomy shared by the library and the command line tool.

Each class carries the process exit status the CLI maps it to, so library
code raises the most specific class and the CLI never needs a lookup
table: usage and configuration problems exit 2, bad or malformed data
exits 3, numerical failures exit 4.
"""


class DeliusError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    stage = None  # the command line's pipeline stage the error escaped, if any


class ConfigError(DeliusError):
    """Invalid configuration value or unusable command invocation."""

    exit_code = 2


class DataError(DeliusError):
    """Input data violates a documented precondition."""

    exit_code = 3


class FormatError(DataError):
    """A file does not conform to its on-disk format."""


class ShapeError(DataError):
    """Array dimensions do not line up."""


class NumericError(DeliusError):
    """A computation produced or detected non-finite or degenerate values."""

    exit_code = 4


class DegenerateCentroidsError(NumericError):
    """Two centroids coincide, making soft assignments ill-defined."""
