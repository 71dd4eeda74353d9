"""Weil polynomial reconstruction from point counts.

The pipeline is: counts -> power sums -> upper half of P(T), the
characteristic polynomial of Frobenius, through Newton's identities
(intpoly.from_power_sums; each division must be exact over Z) -> functional
equation for the lower half.  Everything here is exact integer arithmetic,
the root-modulus check ``is_weil`` too: it decides whether every root of P
has modulus sqrt(q) by Sturm sequences over Z, so ``analyze --weil``'s
exit code never rests on floating point.  Both ``is_weil`` and the
factorization in ``simplicity`` work on the real polynomial h of
``real_poly``, P(x) = x^g h(x + q/x), of half the degree of P.
A WeilPolynomial's q is split into p^k by ``prime_power``, which takes an
exact integer root only for exponents that a pretest by power residues
modulo small primes leaves open; so a q of thousands of digits is refused
without any root.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import intpoly
from ._fpx import is_prime
from .errors import InvariantViolation, ParseError, clip

INT_JSON_CUTOFF = 1 << 53


def _iroot(n: int, k: int) -> int:
    """The largest r with r**k <= n, for n >= 1, by Newton's method from
    above on integers."""
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _maybe_power(n: int, e: int) -> bool:
    """False when n provably is no e-th power, for a prime e.

    For a prime ell = 1 mod e that does not divide n, the e-th powers of
    F_ell^* are the kernel of x -> x^((ell-1)/e), so n^((ell-1)/e) != 1
    mod ell rules n out.  Up to three such ell are tried; True only means
    that none of them ruled n out.
    """
    tried, ell = 0, 1
    while tried < 3:
        ell += e
        if is_prime(ell) and n % ell:
            if pow(n, (ell - 1) // e, ell) != 1:
                return False
            tried += 1
    return True


@functools.lru_cache(maxsize=None)
def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with p prime; reject non prime powers.

    Exact: p is q with every exact integer root taken out, and k the
    product of the root exponents.  Only prime exponents e <= log2 p are
    tried, each again after a root it gives, since a perfect (ab)-th power
    is an a-th power of a b-th power.  An exponent that _maybe_power rules
    out by residues skips the integer root, so a q with thousands of digits
    costs no root at all; the pretest never rules out a true power.  q is a
    prime power iff that p is prime, which _fpx.is_prime decides.  Raises
    SizeExceeded when p has no prime factor up to 41 and is at least
    _fpx.MR_BOUND (about 3.3e24), past which that test is not proven.

    >>> prime_power(3 ** 5)
    (3, 5)
    >>> prime_power(2 ** 12)
    (2, 12)
    """
    if q < 2:
        raise ValueError(f"{clip(q)} is not a prime power")
    p, k, e = q, 1, 2
    while 1 << e <= p:
        if is_prime(e) and _maybe_power(p, e) and (r := _iroot(p, e)) ** e == p:
            p, k = r, k * e
        else:
            e += 1
    if not is_prime(p):
        raise ValueError(f"{clip(q)} is not a prime power")
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


def real_poly(P: WeilPolynomial) -> intpoly.IntPoly:
    """The monic h of degree g with P(x) = x^g h(x + q/x).

    The roots of P pair up as {alpha, q/alpha}, and the roots of h are the
    g sums alpha + q/alpha.

    >>> real_poly(WeilPolynomial(q=3, g=2, coeffs=(9, 0, 2, 0, 1)))
    IntPoly([-4, 0, 1])
    """
    q, g, c = P.q, P.g, P.coeffs
    # h = c_g + sum_j c_(g+j) D_j, where D_j(x + q/x) = x^j + (q/x)^j (and
    # c_(g-j) = q^j c_(g+j)): D_1 = y, D_2 = y^2 - 2q, D_(j+1) = y D_j - q D_(j-1)
    h = [c[g]] + [0] * g
    prev, cur = [2], [0, 1]
    for j in range(1, g + 1):
        for i, d in enumerate(cur):
            h[i] += c[g + j] * d
        nxt = [0] + cur
        for i, d in enumerate(prev):
            nxt[i] -= q * d
        prev, cur = cur, nxt
    return intpoly.IntPoly(h)


def is_weil(P: WeilPolynomial) -> bool:
    """Whether every root of P has modulus sqrt(q), decided exactly.

    P(x) = x^g h(x + q/x) (real_poly), and a root y of h gives the roots of
    x^2 - y x + q, which have modulus sqrt(q) iff y is real with
    |y| <= 2 sqrt(q).  With h(y) = E(y^2) + y O(y^2), the g roots of
    H(u) = E(u)^2 - u O(u)^2 = h(y) h(-y) are the y^2, so P passes iff
    every root of H lies in [0, 4q], that is iff all deg S distinct roots
    of the squarefree part S of H do.  Sturm's theorem counts those in
    (0, 4q], and S(0) = 0 adds one.  The Sturm sequence of H itself shows
    whether H is squarefree, so S = H needs no gcd.
    """
    h = real_poly(P)
    E, O = intpoly.IntPoly(h.coeffs[0::2]), intpoly.IntPoly(h.coeffs[1::2])
    S = E * E - intpoly.IntPoly([0, 1]) * O * O
    seq = _sturm(S)
    if seq is None:
        S = intpoly.squarefree_part(S)
        seq = _sturm(S)
    inside = _variations(seq, 0) - _variations(seq, 4 * P.q) + (S(0) == 0)
    return inside == S.degree


def _sturm(f: intpoly.IntPoly) -> list | None:
    # the Sturm sequence of f, each remainder taken as a pseudo-remainder
    # times a positive number, so every term has the signs of the remainder
    # over Q; None when a remainder vanishes, that is when f is not
    # squarefree
    seq = [f, f.derivative()]
    while seq[-1].degree > 0:
        a, b = seq[-2], seq[-1]
        r = intpoly.divmod_exact(a * abs(b.lc) ** (a.degree - b.degree + 1), b)[1]
        if r.is_zero:
            return None
        c = r.content()
        seq.append(intpoly.IntPoly([-v // c for v in r.coeffs]))
    return seq


def _variations(seq, x: int) -> int:
    # sign changes of the sequence at x, zeros dropped
    signs = [v > 0 for v in (f(x) for f in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def encode_int(v: int):
    """JSON value for an arbitrary-precision integer (string past 2^53)."""
    return v if abs(v) <= INT_JSON_CUTOFF else str(v)


def decode_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ParseError(f"expected integer or decimal string, got {clip(v)}")
    try:
        return int(v)
    except ValueError:
        raise ParseError(f"bad integer literal {clip(v)}") from None


def decode_array(d, key: str) -> list:
    """d[key], which must be a JSON array: a string there is refused, not
    read character by character."""
    v = d[key]
    if not isinstance(v, list):
        raise ParseError(f"{key} must be a JSON array, got {clip(v)}")
    return v


def weil_to_json(P: WeilPolynomial) -> dict:
    return {"q": P.q, "g": P.g, "coeffs": [encode_int(c) for c in P.coeffs]}


def weil_from_json(d) -> WeilPolynomial:
    if not isinstance(d, dict):
        raise ParseError("Weil polynomial JSON must be an object")
    try:
        q = decode_int(d["q"])
        g = decode_int(d["g"])
        coeffs = tuple(map(decode_int, decode_array(d, "coeffs")))
    except KeyError as missing:
        raise ParseError(f"Weil polynomial JSON missing key {missing}") from None
    except TypeError:
        raise ParseError("malformed Weil polynomial JSON") from None
    try:
        return WeilPolynomial(q=q, g=g, coeffs=coeffs)
    except (InvariantViolation, ValueError) as bad:
        raise ParseError(f"not a Weil polynomial: {bad}") from None
