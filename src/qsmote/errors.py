"""Shared exception types."""


class QsmoteError(Exception):
    pass


class DegenerateInputError(QsmoteError, ValueError):
    """Zero-norm vector where a direction is required."""


class ParameterError(QsmoteError, ValueError):
    """Invalid hyperparameter value."""


class DataError(QsmoteError, ValueError):
    """Malformed input data; carries row/column coordinates when known."""

    def __init__(self, message, row=None, column=None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column
