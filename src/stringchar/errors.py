"""Shared exception types.

The CLI maps these onto exit codes: InputParseError means the input text
itself was malformed (exit code 2), everything else derived from
StringCharError is a domain error (exit code 1).
"""


class StringCharError(Exception):
    """Base class for all domain errors raised by this package."""


class InputParseError(StringCharError):
    """A quiver file could not be read or parsed, or a walk expression
    could not be parsed.

    Carries the line (1-based) and column (1-based) where the problem was
    found, when known.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            location = f" ({location})"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class QuiverError(StringCharError):
    """Structural problem with a quiver, walk or representation."""


class InvalidStringError(QuiverError):
    """A walk failed the string conditions; carries the violation report."""

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


class NotDivisible(StringCharError):
    """exact_div was asked for a quotient that does not exist."""


class ExponentOverflow(StringCharError):
    """A Laurent polynomial operation could produce an exponent beyond
    `laurent.EXPONENT_LIMIT` in absolute value."""


class NotInvertible(StringCharError):
    """A substitution needed the inverse of a non-monomial value."""


class NotSubtractionFree(StringCharError):
    """Separation (`character.separate`) of a polynomial with a negative
    coefficient, or by a separation monomial that is not a monomial with
    coefficient 1."""


class UnfrozenViolation(StringCharError):
    """A cluster character was requested for a module touching a frozen
    vertex."""


class K0IllDefined(StringCharError):
    """The pairing against simples does not descend to dimension vectors for
    this module, so the character exponents would be ambiguous."""


class PathLimitExceeded(StringCharError):
    """A path avoiding every relation is long enough to be pumped, so the
    bound quiver algebra is infinite dimensional."""
