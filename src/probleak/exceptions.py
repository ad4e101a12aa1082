"""Exception types shared across the package."""

__all__ = ["ProbleakError", "DataError", "ModelError"]


class ProbleakError(Exception):
    """Base class for data and model errors raised by this package."""


class DataError(ProbleakError):
    """Malformed input data (CSV parse failures, missing values, ragged rows)."""


class ModelError(ProbleakError):
    """Model-level failures: rank deficiency, improper posterior, degenerate predictive."""
