"""Exception types shared across the package, and the check of integral counts."""

import operator


class EquilibrateError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EquilibrateError):
    """Operands have incompatible shapes."""


class ZeroRowOrColumn(EquilibrateError):
    """A structurally zero row or column makes the operation impossible."""


class DegenerateProbe(EquilibrateError):
    """A probe vector was annihilated; the operator has an empty row space."""


class SizeCapExceeded(EquilibrateError):
    """Matrix is larger than the configured cap for a dense computation."""


class GenerationFailed(EquilibrateError):
    """Corpus generator could not satisfy family invariants within the retry budget."""


class MatrixMarketError(EquilibrateError):
    """Malformed or unsupported Matrix Market input.

    `line` is the 1-based line number the error was detected on, when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(EquilibrateError):
    """Invalid experiment or corpus configuration."""


def integral(field, value):
    """``value`` as an int; a ValueError naming ``field`` if it is not integral.

    Counts reach `range` and list repetition, which take no float.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be integral, got {value!r}") from None
