"""Exception types shared across the package."""


class FrobtorusError(Exception):
    """Base class for all errors raised by this package."""


class NonPrime(FrobtorusError):
    """A field characteristic that is not a prime number."""


class SizeExceeded(FrobtorusError):
    """A requested field (or extension tower) exceeds the 2**20 size cap."""


class BadDegrees(FrobtorusError):
    """Curve model constraints violated (degrees, monicity, h-vs-characteristic)."""


class Singular(FrobtorusError):
    """The affine curve model has a singular point.

    ``witness`` is the offending (x, y) pair when one was found in the
    enumerated range, else None.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class WeilBoundViolated(FrobtorusError):
    """A point count fell outside the Weil interval: an internal counting bug."""


class NonIntegralCoefficient(FrobtorusError):
    """A Newton-identity division was not exact: the power sums are inconsistent."""


class InvariantViolation(FrobtorusError):
    """A structural invariant failed (monicity, functional equation, ...)."""


class ZeroPolynomial(FrobtorusError):
    """Operation undefined for the zero polynomial."""


class ResumeMismatch(FrobtorusError):
    """An existing survey output file was produced under a different config."""


class ParseError(FrobtorusError):
    """Malformed curve text, Weil-polynomial JSON, or record line."""


class CorruptRecord(FrobtorusError):
    """A persisted record failed self-verification.

    ``line`` is the 1-based line number in the JSONL file.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
