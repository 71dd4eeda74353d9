"""Weil polynomial reconstruction from point counts.

The pipeline is: counts -> power sums -> upper half of P(T), the
characteristic polynomial of Frobenius, through Newton's identities
(intpoly.from_power_sums; each division must be exact over Z) -> functional
equation for the lower half.  Everything here is exact integer arithmetic,
the root-modulus check ``is_weil`` too, so ``analyze --weil``'s exit code
never rests on floating point.  Both ``is_weil`` and the factorization in
``simplicity`` work on the real polynomial h of ``real_poly``,
P(x) = x^g h(x + q/x), of half the degree of P: every root of P has
modulus sqrt(q) iff every root of h is real in [-2 sqrt(q), 2 sqrt(q)].
For g <= 3 closed forms decide that: a^2 <= 4q for h = y + a, four integer
inequalities for a quadratic, and for a cubic its discriminant and the
signs of the coefficients of h(y + 2 sqrt(q)) and -h(-y - 2 sqrt(q)), each
an integer plus an integer multiple of 2 sqrt(q).  For g >= 4 Sturm
sequences over Z count the roots of h(y) h(-y), in y^2, in [0, 4q].
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
    |y| <= s = 2 sqrt(q).  So P passes iff every root of h is real and in
    [-s, s], which _real_is_weil decides: in closed form for g <= 3, by
    Sturm sequences for g >= 4.
    """
    return _real_is_weil(real_poly(P), P.q)


def _real_is_weil(h: intpoly.IntPoly, q: int) -> bool:
    """Whether every root of the monic h is real and in [-s, s],
    s = 2 sqrt(q), decided exactly; s^2 = 4q.

    g = deg h = 1: h = y + a has the root -a, and a^2 <= 4q decides.

    g = 2: h = y^2 + b y + c has real roots r1 <= r2 iff b^2 >= 4c.  Those
    lie in [-s, s] iff h(s) >= 0, h(-s) >= 0 and the midpoint -b/2 lies in
    [-s, s].  The conditions are necessary.  They suffice: h(s) >= 0 puts
    s outside (r1, r2), and s <= r1 would make the midpoint, at most s, equal
    r1 = r2 = s; so r2 <= s, and r1 >= -s alike.  The midpoint condition is
    b^2 <= 16q, and h(+-s) = 4q + c +- b s >= 0 both hold iff
    4q + c >= |b| s, that is iff 4q + c >= 0 and (4q + c)^2 >= 4 b^2 q.

    g = 3: h = y^3 + a y^2 + b y + c over R has three real roots iff
    disc(h) >= 0; if disc(h) < 0 it has a pair of conjugate non-real roots,
    and at disc(h) = 0 the repeated root is real, since a non-real one
    would bring its conjugate twice too.  A real-rooted monic h has every
    root r_i <= s iff h(y + s) = prod (y + s - r_i) has no negative
    coefficient: with every s - r_i >= 0 the product has none, and a monic
    polynomial with none is positive at every y > 0, so no r_i - s > 0 is
    a root.  Likewise every r_i >= -s iff -h(-y - s) = prod (y + s + r_i)
    has no negative coefficient.  With s^2 = 4q,
        h(y + s) = y^3 + (a + 3s) y^2 + (12q + b + 2a s) y
                   + (4q a + c + (4q + b) s),
    and -h(-y - s) is the same with a and c negated.  Each coefficient is
    A + B s with integers A and B, and _nonnegative gives its sign.

    g >= 4: _sturm_is_weil.
    """
    g, cs = h.degree, h.coeffs
    if g == 1:
        return cs[0] * cs[0] <= 4 * q
    if g == 2:
        c, b = cs[0], cs[1]
        t = 4 * q + c
        return b * b >= 4 * c and b * b <= 16 * q and t >= 0 and t * t >= 4 * b * b * q
    if g == 3:
        c, b, a = cs[0], cs[1], cs[2]
        disc = a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c
        return disc >= 0 and all(
            _nonnegative(A, B, q)
            for A, B in (
                (a, 3), (12 * q + b, 2 * a), (4 * q * a + c, 4 * q + b),
                (-a, 3), (12 * q + b, -2 * a), (-4 * q * a - c, 4 * q + b),
            )
        )
    return _sturm_is_weil(h, q)


def _nonnegative(A: int, B: int, q: int) -> bool:
    # A + 2 B sqrt(q) >= 0, exactly: true when neither term is negative,
    # false when neither is positive and one is nonzero; otherwise the terms
    # have opposite signs, and the one of larger square, A^2 against
    # (2 B sqrt(q))^2 = 4 q B^2, decides
    if A >= 0 and B >= 0:
        return True
    if A <= 0 and B <= 0:
        return False
    return A * A >= 4 * q * B * B if A > 0 else 4 * q * B * B >= A * A


def _sturm_is_weil(h: intpoly.IntPoly, q: int) -> bool:
    """_real_is_weil for any degree, by Sturm sequences over Z.

    With h(y) = E(y^2) + y O(y^2), the g roots of
    H(u) = E(u)^2 - u O(u)^2 = h(y) h(-y) are the y^2, so h passes iff
    every root of H lies in [0, 4q], that is iff all deg S distinct roots
    of the squarefree part S of H do.  Sturm's theorem counts those in
    (0, 4q], and S(0) = 0 adds one.  The Sturm sequence of H itself shows
    whether H is squarefree, so S = H needs no gcd.
    """
    E, O = intpoly.IntPoly(h.coeffs[0::2]), intpoly.IntPoly(h.coeffs[1::2])
    S = E * E - intpoly.IntPoly([0, 1]) * O * O
    seq = _sturm(S)
    if seq is None:
        S = intpoly.squarefree_part(S)
        seq = _sturm(S)
    inside = _variations(seq, 0) - _variations(seq, 4 * q) + (S(0) == 0)
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
