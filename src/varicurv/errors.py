"""Exception types shared across the package.

A whole run fails in one of two ways, which the CLI tells apart by exit
code: bad input (:class:`InvalidInputError`, exit 1) or a broken numeric
invariant (any other :class:`VaricurvError`, exit 2).  A badly sampled point
is neither: it becomes a flagged row of the report.
"""


class VaricurvError(Exception):
    """Base class for all package-specific errors; raised directly for a
    broken numeric invariant (trace identity, direction-matrix PSD check,
    tensor symmetry)."""


class InvalidInputError(VaricurvError):
    """Unusable input: values, shapes, options, profiles, schedules or a
    cloud that fails validation."""


class FileFormatError(InvalidInputError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
