"""Exceptions shared across the package."""


class InputFormatError(ValueError):
    """A file or byte stream does not conform to one of the documented formats."""


class NumericalFailure(RuntimeError):
    """A computation produced non-finite values (e.g. a diverged optimization)."""
