"""Exception hierarchy shared across the package.

Every error raised by library code derives from UqsonError so callers can
catch broadly; the mixin built-in bases (ValueError, IndexError, ...) keep
the exceptions usable with idiomatic except clauses. Every other class is
ExpressionSyntaxError or belongs to one of two families, and the family
alone decides the CLI exit code: DegenerateInput 3, StructuralMisuse 4.
"""


class UqsonError(Exception):
    """Base class for all library errors."""


class DegenerateInput(UqsonError):
    """A parameter or q value at which the construction degenerates."""


class StructuralMisuse(UqsonError):
    """Operands or indices that do not fit together (rank, variant, index, dimension)."""


class ZeroBase(DegenerateInput, ValueError):
    """Numeric evaluation requested at q = 0."""


class DegenerateDenominator(DegenerateInput, ZeroDivisionError):
    """q - q**-1 vanishes, so q-brackets are undefined (q = +1 or -1)."""


class DegenerateParameter(DegenerateInput, ValueError):
    """A representation coefficient denominator vanishes for the given parameters."""


class RankMismatch(StructuralMisuse, ValueError):
    """Operands built over different ranks were combined."""


class VariantMismatch(StructuralMisuse, ValueError):
    """Plus-variant and minus-variant elements were mixed."""


class IndexOutOfRange(StructuralMisuse, IndexError):
    """A generator or tableau index lies outside the valid range."""


class DimensionMismatch(StructuralMisuse, ValueError):
    """Matrix operands of incompatible dimensions."""


class DegenerateQ(DegenerateInput, ValueError):
    """The deformation parameter is at a value where the construction degenerates."""


class SingularDenominator(DegenerateInput, ValueError):
    """A matrix that must be inverted is singular at the given q."""


class ExpressionSyntaxError(UqsonError, SyntaxError):
    """Malformed expression text; carries the 1-based column of the offense."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class ParameterSamplingError(DegenerateInput, RuntimeError):
    """Generic parameter sampling failed to satisfy the margins in the attempt budget."""
