"""Exception types shared across the package, and the clipping of the
values that their messages name."""


class FrobtorusError(Exception):
    """Base class for all errors raised by this package."""


class NonPrime(FrobtorusError):
    """A field characteristic that is not a prime number."""


class SizeExceeded(FrobtorusError):
    """A requested field (or extension tower) exceeds the 2**20 size cap, or
    a Weil polynomial's degree 2g exceeds the factoring cap."""


class BadDegrees(FrobtorusError):
    """Curve model constraints violated (degrees, monicity, h-vs-characteristic)."""


class Singular(FrobtorusError):
    """The affine curve model has a singular point.

    ``witness`` is (m, x, y): the first singular point, over F_{q^m}, with x
    and y as digit tuples, or None when the search finds no point (odd
    characteristic: a repeated root of f outside F_q).  The constructor
    takes the witness value or a zero-argument callable that computes it;
    the callable runs on the first read of ``witness``, once, so a caller
    that only needs to know the model is singular never pays for the
    search.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self._witness = witness

    @property
    def witness(self):
        if callable(self._witness):
            self._witness = self._witness()
        return self._witness


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


def clip(v) -> str:
    """The repr of a rejected value; a long one is cut to a prefix and its
    length, so an error names it in one short line."""
    try:
        text = repr(v)
    except ValueError:  # an int past the interpreter's digit limit
        return f"an integer of {v.bit_length()} bits"
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(text)} characters)"
