"""Exception hierarchy shared across the package.

Every error raised by library code derives from UqsonError so callers can
catch broadly; the mixin built-in bases (ValueError, IndexError, ...) keep
the exceptions usable with idiomatic except clauses.
"""


class UqsonError(Exception):
    """Base class for all library errors."""


class ZeroBase(UqsonError, ValueError):
    """Numeric evaluation requested at q = 0."""


class DegenerateDenominator(UqsonError, ZeroDivisionError):
    """q - q**-1 vanishes, so q-brackets are undefined (q = +1 or -1)."""


class DegenerateParameter(UqsonError, ValueError):
    """A representation coefficient denominator vanishes for the given parameters."""


class RankMismatch(UqsonError, ValueError):
    """Operands built over different ranks were combined."""


class VariantMismatch(UqsonError, ValueError):
    """Plus-variant and minus-variant elements were mixed."""


class IndexOutOfRange(UqsonError, IndexError):
    """A generator or tableau index lies outside the valid range."""


class DimensionMismatch(UqsonError, ValueError):
    """Matrix operands of incompatible dimensions."""


class DegenerateQ(UqsonError, ValueError):
    """The deformation parameter is at a value where the construction degenerates."""


class SingularDenominator(UqsonError, ValueError):
    """A matrix that must be inverted is singular at the given q."""


class ExpressionSyntaxError(UqsonError, SyntaxError):
    """Malformed expression text; carries the 1-based column of the offense."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class ParameterSamplingError(UqsonError, RuntimeError):
    """Generic parameter sampling failed to satisfy the margins in the attempt budget."""
