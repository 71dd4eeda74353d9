"""Weil polynomial reconstruction from point counts.

The pipeline is: counts -> power sums -> upper half of P(T), the
characteristic polynomial of Frobenius, through Newton's identities
(intpoly.from_power_sums; each division must be exact over Z) -> functional
equation for the lower half.  Everything on the verdict path is exact integer
arithmetic; the root-modulus check is a numeric diagnostic only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy

from . import intpoly
from .errors import InvariantViolation, ParseError

INT_JSON_CUTOFF = 1 << 53


@functools.lru_cache(maxsize=None)
def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with p prime; reject non prime powers."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            p = d
            break
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


@dataclass(frozen=True)
class WeilPolynomial:
    """P(T) = sum c_i T^i, monic of degree 2g, with the q-symmetry built in."""

    q: int
    g: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        c = self.coeffs
        g, q = self.g, self.q
        if g < 1:
            raise InvariantViolation("genus must be >= 1")
        prime_power(q)
        if len(c) != 2 * g + 1:
            raise InvariantViolation(f"expected {2 * g + 1} coefficients, got {len(c)}")
        if c[2 * g] != 1:
            raise InvariantViolation("Weil polynomial must be monic")
        if c[0] != q ** g:
            raise InvariantViolation(f"constant term must be q^g = {q ** g}, got {c[0]}")
        for i in range(g + 1):
            if c[i] != q ** (g - i) * c[2 * g - i]:
                raise InvariantViolation(
                    f"functional equation fails at i={i}: "
                    f"{c[i]} != {q}^{g - i} * {c[2 * g - i]}"
                )

    @property
    def p(self) -> int:
        return prime_power(self.q)[0]


def power_sums(counts) -> tuple[int, ...]:
    """s_i = q^i + 1 - N_i for i = 1..g."""
    q = counts.q
    return tuple(q ** i + 1 - n for i, n in enumerate(counts.counts, start=1))


def weil_from_counts(counts) -> WeilPolynomial:
    """Reconstruct P(T) from (N_1..N_g).

    The power sums s_1..s_g fix e_1..e_g of the 2g eigenvalues, that is
    the upper half of P, through intpoly.from_power_sums; the functional
    equation gives the lower half.  Any non-exact division means the counts
    cannot come from a curve and raises NonIntegralCoefficient.
    """
    q, g = counts.q, counts.g
    upper = intpoly.from_power_sums(power_sums(counts)).coeffs
    lower = tuple(q ** (g - j) * upper[g - j] for j in range(g))
    return WeilPolynomial(q=q, g=g, coeffs=lower + upper)


@dataclass(frozen=True)
class RootModulusCheck:
    ok: bool
    max_rel_error: float
    bad_root: complex | None


def is_weil(P: WeilPolynomial, rel_tol: float = 1e-9) -> RootModulusCheck:
    """Numeric diagnostic: every root has modulus sqrt(q) within rel_tol.

    Roots are taken on the squarefree part (repeated roots degrade the
    companion-matrix solver below the tolerance) in double precision.
    """
    sf = intpoly.squarefree_part(intpoly.IntPoly(P.coeffs))
    roots = numpy.roots(list(map(float, reversed(sf.coeffs))))
    target = math.sqrt(P.q)
    worst = 0.0
    bad = None
    for r in roots:
        err = abs(abs(complex(r)) - target) / target
        if err > worst:
            worst = err
            if err > rel_tol:
                bad = complex(r)
    return RootModulusCheck(ok=worst <= rel_tol, max_rel_error=worst, bad_root=bad)


def encode_int(v: int):
    """JSON value for an arbitrary-precision integer (string past 2^53)."""
    return v if abs(v) <= INT_JSON_CUTOFF else str(v)


def decode_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ParseError(f"expected integer or decimal string, got {v!r}")
    try:
        return int(v)
    except ValueError:
        raise ParseError(f"bad integer literal {v!r}") from None


def weil_to_json(P: WeilPolynomial) -> dict:
    return {"q": P.q, "g": P.g, "coeffs": [encode_int(c) for c in P.coeffs]}


def weil_from_json(d) -> WeilPolynomial:
    if not isinstance(d, dict):
        raise ParseError("Weil polynomial JSON must be an object")
    try:
        q = decode_int(d["q"])
        g = decode_int(d["g"])
        coeffs = tuple(decode_int(c) for c in d["coeffs"])
    except KeyError as missing:
        raise ParseError(f"Weil polynomial JSON missing key {missing}") from None
    except TypeError:
        raise ParseError("malformed Weil polynomial JSON") from None
    try:
        return WeilPolynomial(q=q, g=g, coeffs=coeffs)
    except (InvariantViolation, ValueError) as bad:
        raise ParseError(f"not a Weil polynomial: {bad}") from None
