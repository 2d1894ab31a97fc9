"""Exception types shared across the library."""


class FuncauseError(Exception):
    """Base class for all library-specific errors."""


class GridTooSmall(FuncauseError):
    """Raised when an operation needs more grid points than available."""


class SchemaError(FuncauseError):
    """Raised when a dataset file does not conform to the expected schema."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class DomainError(FuncauseError):
    """Raised when values fall outside the domain an operation requires."""


class WeightError(FuncauseError, ValueError):
    """Raised when a weight vector is unusable (e.g. sums to zero)."""


class ArmEmptyError(FuncauseError):
    """Raised when a treatment arm contains no samples."""


class NumericalError(FuncauseError):
    """Raised when a numerical routine produces non-finite results."""
