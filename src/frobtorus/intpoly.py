"""Exact integer-polynomial algebra.

Everything here is arbitrary precision and division-free or exactly-divided;
no floating point.  Degrees in scope are small (factorization caps at 16,
composed products reach (2g)^2), so the algorithms favor

  - Newton's identities between a monic polynomial and its root power sums,
  - factorization over Q through one monic core: factor removes content and
    unit, and a leading coefficient b != 1 by the monic transform
    b^(n-1) F(x/b), whose factors k map back to the primitive parts of
    k(bx).  A monic F of degree <= 3 is split by its integer roots, each
    divided out as often as it divides (a quadratic's read off a square
    discriminant, a cubic's found by bisection over its monotone runs inside
    Cauchy's bound).  Past degree 3 the squarefree F, or else F's
    squarefree part S with multiplicities by exact division, goes through
    modular Zassenhaus (Frobenius-matrix DDF at up to three primes as a
    degree sieve, Cantor-Zassenhaus, linear multifactor Hensel lifting
    modulo p^k over Z, subset recombination); S of degree <= 3 is split by
    its integer roots instead; factor checks that the factors multiply
    back to its input, and factor_unchecked, for a caller whose own check
    covers that one, does not,

all of which are short enough to audit directly.  No resultant is on the
factorization path: a prime is good when gcd(F, F') = 1 mod p.  resultant
(subresultant PRS) and the bivariate resultant_y (evaluation and
interpolation) remain as references for the tests and the benchmark's
tracing hooks.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from . import _fpx
from .errors import InvariantViolation, NonIntegralCoefficient, ZeroPolynomial

FACTOR_DEGREE_CAP = 16


class IntPoly:
    """Immutable integer polynomial; coeffs low-to-high, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients only, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other):
        return _poly(_fpx.zadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return _poly([other * c for c in self.coeffs])
        return _poly(_fpx.zmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = _poly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def derivative(self) -> "IntPoly":
        return _poly([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Content removed and leading coefficient made positive."""
        if self.is_zero:
            raise ZeroPolynomial("primitive part of zero polynomial")
        c = self.content()
        if self.lc < 0:
            c = -c
        return _poly([x // c for x in self.coeffs])


_new = object.__new__
_set_coeffs = IntPoly.coeffs.__set__


def _poly(cs: list) -> IntPoly:
    """IntPoly(cs) for a list of ints that this module built itself: cs is
    trimmed in place, and the public constructor's type check is skipped."""
    while cs and cs[-1] == 0:
        cs.pop()
    out = _new(IntPoly)
    _set_coeffs(out, tuple(cs))
    return out


def divmod_exact(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder by integer long division.

    Raises ValueError when the quotient leaves Z[x], that is when lc(b)
    does not divide the leading coefficient at some step; a monic b always
    divides.

    >>> divmod_exact(IntPoly([1, 3, 2]), IntPoly([1, 2]))  # 2x^2+3x+1 by 2x+1
    (IntPoly([1, 1]), IntPoly([]))
    >>> divmod_exact(IntPoly([0, 0, 1]), IntPoly([0, 2]))  # x^2 by 2x
    Traceback (most recent call last):
    ...
    ValueError: division is not exact over the integers
    """
    if b.is_zero:
        raise ZeroPolynomial("division by zero polynomial")
    rem = list(a.coeffs)
    db, lc = b.degree, b.lc
    if len(rem) - 1 < db:
        return _poly([]), a
    quo = [0] * (len(rem) - db)
    for d in range(len(rem) - 1 - db, -1, -1):
        c = rem[d + db]
        if c:
            if lc != 1:
                if c % lc:
                    raise ValueError("division is not exact over the integers")
                c //= lc
            quo[d] = c
            for i, cb in enumerate(b.coeffs):
                rem[d + i] -= c * cb
    return _poly(quo), _poly(rem[:db])


def root_power_sums(f: IntPoly, K: int) -> list[int]:
    """[S_1, ..., S_K], S_k the sum of the k-th powers of the roots of the
    monic f, by Newton's recurrence (exact over Z).

    >>> root_power_sums(IntPoly([2, 0, 1]), 4)  # roots +-i*sqrt(2)
    [0, -4, 0, 8]
    """
    if not f.is_monic:
        raise ValueError("power sums need a monic polynomial")
    d = f.degree
    a = f.coeffs[::-1]  # a[j] multiplies x^(d-j); a[0] = 1
    S: list[int] = []
    for k in range(1, K + 1):
        acc = k * a[k] if k <= d else 0
        for j in range(1, min(k - 1, d) + 1):
            acc += a[j] * S[k - 1 - j]
        S.append(-acc)
    return S


def from_power_sums(S) -> IntPoly:
    """The monic polynomial of degree len(S) whose roots have power sums
    S_1, S_2, ...; Newton's identities k*a_k = -(S_1 a_(k-1) + ... + S_k a_0).

    Raises NonIntegralCoefficient when a division by k leaves Z.

    >>> from_power_sums([0, -4])
    IntPoly([2, 0, 1])
    """
    a = [1]
    for k in range(1, len(S) + 1):
        acc = 0
        for j in range(1, k + 1):
            acc += S[j - 1] * a[k - j]
        if acc % k:
            raise NonIntegralCoefficient(
                f"Newton identity at k={k} divides {-acc} by {k} inexactly"
            )
        a.append(-acc // k)
    return IntPoly(a[::-1])


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    # signed pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, an exact
    # division over Z
    d = a.degree - b.degree
    if d < 0:
        return a
    return divmod_exact(a * b.lc ** (d + 1), b)[1]


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) = lc(f)^deg(g) * product of g over the roots of f.

    Fraction-free subresultant PRS.

    >>> resultant(IntPoly([-2, 1]), IntPoly([-3, 1]))
    -1
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    a_cont = f.content() * (1 if f.lc > 0 else -1)
    b_cont = g.content() * (1 if g.lc > 0 else -1)
    A = _poly([c // a_cont for c in f.coeffs])
    B = _poly([c // b_cont for c in g.coeffs])
    t = a_cont ** g.degree * b_cont ** f.degree
    s = 1
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -1
        A, B = B, A
    gg = 1
    hh = 1
    while True:
        dA, dB = A.degree, B.degree
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        A = B
        denom = gg * hh ** delta
        if any(c % denom for c in R.coeffs):
            raise AssertionError("subresultant division not exact")
        B = _poly([c // denom for c in R.coeffs])
        gg = A.lc
        if delta > 0:
            hh = gg ** delta // hh ** (delta - 1)
        if B.is_zero:
            return 0
        if B.degree == 0:
            dA = A.degree
            res = B.coeffs[0] ** dA // hh ** (dA - 1)
            return s * t * res


def resultant_y(f: IntPoly, g_y: list[IntPoly]) -> IntPoly:
    """Res_y(f(y), G(x, y)) as a polynomial in x.

    G is given by its y-coefficients: g_y[j] is the x-polynomial multiplying
    y^j.  Computed by specializing x at small integers and interpolating
    exactly; specializations where the y-degree drops are corrected by the
    lc(f) power that the Sylvester determinant prescribes.
    """
    if f.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    g_y = list(g_y)
    while g_y and g_y[-1].is_zero:
        g_y.pop()
    m = len(g_y) - 1
    if m < 1:
        raise ValueError("G must have positive y-degree")
    degx = max(gp.degree for gp in g_y if not gp.is_zero)
    npts = f.degree * degx + 1
    lcf = f.lc
    pts = []
    for t in _eval_points():
        gt = [gp(t) for gp in g_y]
        while gt and gt[-1] == 0:
            gt.pop()
        if not gt:
            val = 0
        elif len(gt) == 1:
            val = lcf ** m * gt[0] ** f.degree
        else:
            mp = len(gt) - 1
            val = lcf ** (m - mp) * resultant(f, _poly(gt))
        pts.append((t, val))
        if len(pts) == npts:
            break
    return _interpolate(pts)


def _eval_points():
    yield 0
    n = 1
    while True:
        yield n
        yield -n
        n += 1


def _interpolate(points: list[tuple[int, int]]) -> IntPoly:
    # exact Lagrange interpolation; the basis numerators stay integral
    n = len(points)
    acc = [Fraction(0)] * n
    for xi, yi in points:
        if yi == 0:
            continue
        num = [1]
        den = 1
        for xj, _ in points:
            if xj == xi:
                continue
            nxt = [0] * (len(num) + 1)
            for idx, c in enumerate(num):
                nxt[idx] -= c * xj
                nxt[idx + 1] += c
            num = nxt
            den *= xi - xj
        scale = Fraction(yi, den)
        for idx, c in enumerate(num):
            acc[idx] += c * scale
    if any(c.denominator != 1 for c in acc):
        raise ValueError("division is not exact over the integers")
    return _poly([c.numerator for c in acc])


def gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Greatest common divisor in Z[x], primitive with positive lc
    (times the integer gcd of the contents)."""
    if f.is_zero and g.is_zero:
        raise ZeroPolynomial("gcd of two zero polynomials")
    if f.is_zero:
        return g.primitive() * g.content()
    if g.is_zero:
        return f.primitive() * f.content()
    cont = math.gcd(f.content(), g.content())
    A, B = f.primitive(), g.primitive()
    if A.degree < B.degree:
        A, B = B, A
    while not B.is_zero:
        R = _prem(A, B)
        A, B = B, (R if R.is_zero else R.primitive())
    return A * cont


def squarefree_part(f: IntPoly) -> IntPoly:
    """f divided by gcd(f, f'); primitive, positive lc; monic stays monic."""
    if f.is_zero:
        raise ZeroPolynomial("squarefree part of zero polynomial")
    if f.degree == 0:
        return _poly([1])
    g = gcd(f, f.derivative())
    q, _ = divmod_exact(f, g)
    return q.primitive()


def _multiplicity(F: IntPoly, irr: IntPoly) -> int:
    # the largest e with irr^e | F; irr is monic, so each division is exact
    e = 0
    while True:
        quo, rem = divmod_exact(F, irr)
        if not rem.is_zero:
            return e
        F, e = quo, e + 1


def _squarefree_mod(F: IntPoly, p: int) -> list[int] | None:
    # F mod p when gcd(F, F') = 1 mod p, else None.  F is monic and p > deg F,
    # so F and F' keep their degrees mod p and the gcd decides whether F mod p
    # is squarefree; and a repeated factor of F over Q stays a repeated
    # factor of positive degree mod p.  So a non-None result proves F
    # squarefree over Q.
    a = [c % p for c in F.coeffs]
    if len(_fpx.gcd(a, _fpx.deriv(a, p), p)) > 1:
        return None
    return a


def _good_primes(F: IntPoly, known):
    # (p, F mod p) for the primes p >= 17 where F stays squarefree, lazily;
    # known maps a prime already tested to its _squarefree_mod result.
    # A rejected prime divides disc F, and |disc F| <= n^n ||F||_2^(2n-2)
    # (Mahler), so once the rejected primes multiply past that bound F is
    # not squarefree
    n = F.degree
    bound = n ** n * sum(c * c for c in F.coeffs) ** (n - 1)
    rejected = 1
    for p in filter(_fpx.is_prime, itertools.count(17, 2)):
        a = known[p] if p in known else _squarefree_mod(F, p)
        if a is not None:
            yield p, a
        else:
            rejected *= p
            if rejected > bound:
                raise AssertionError("F is singular modulo primes whose product "
                                     "exceeds its discriminant bound")


def _subset_sums(blocks, n: int) -> int:
    # bitmask of degrees realizable as sums of sub-multisets of the
    # irreducible-factor degrees that the ddf blocks hold
    mask = 1
    for d, block in blocks:
        for _ in range((len(block) - 1) // d):
            mask |= mask << d
    return mask & ((1 << n) - 1) & ~1  # keep strict 1..n-1


def _mignotte_bound(F: IntPoly) -> int:
    norm2 = math.isqrt(sum(c * c for c in F.coeffs)) + 1
    return (1 << F.degree) * norm2


def _product_mod(polys, m: int) -> list[int]:
    # the product of coefficient lists over Z, reduced mod m after each factor
    prod = [1]
    for u in polys:
        prod = [c % m for c in _fpx.zmul(prod, u)]
    return prod


def _hensel_lift(f: IntPoly, us: list[list[int]], p: int, target: int):
    """Lift f = u_1 ... u_r mod p, for f monic and the u_i monic and coprime
    mod p, to a factorization modulo m = p^k >= target.  Returns (lifted
    factors, m).

    Linear multifactor lifting: with a_i = (prod_{j != i} u_j)^-1 mod u_i
    over F_p, fixed once, each step takes e = (f - prod u_i) / m mod p and
    adds m (a_i e mod u_i) to each u_i, so that the product agrees with f
    mod m p.  The corrections have degree < deg u_i: the factors stay monic.
    """
    cofactors = [_product_mod(us[:i] + us[i + 1:], p) for i in range(len(us))]
    a = [_fpx.bezout(c, u, p)[0] for c, u in zip(cofactors, us)]
    lifted = [u[:] for u in us]
    m = p
    while m < target:
        # f = prod lifted mod m, so each division by m is exact
        prod = _product_mod(lifted, m * p)
        e = _fpx.trim([(c - d) // m % p for c, d in zip(f.coeffs, prod)])
        for u, ai, v in zip(us, a, lifted):
            for i, c in enumerate(_fpx.mul_rem(ai, e, u, p)):
                v[i] += m * c
        m *= p
    return lifted, m


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _cubic_integer_root(F: IntPoly) -> int | None:
    """An integer root of the monic cubic F = x^3 + a x^2 + b x + c, or None.

    Every root r has |r| < B = 1 + max(|a|, |b|, |c|) (Cauchy's bound).  F
    is monotone between the integer neighbours of its critical points
    t = (-a -+ sqrt(D)) / 3, D = a^2 - 3b, so a bisection over each
    monotone run of [-B, B] finds r exactly.

    So is a repeated root, a root of F' too.  At D > 0 an integer double
    root is t1 or t2, so sqrt(D) is an integer and the root is k1 = t1, the
    end of the first increasing run, or k2 = t2, the start of the last; F is
    strictly increasing on both, endpoints included.  At D = 0, F' = 3 (x -
    t1)^2 vanishes only at t1, so F is strictly increasing on the one run,
    which holds the triple root t1.  At D < 0 no real root repeats.

    >>> _cubic_integer_root(IntPoly([-6, 11, -6, 1]))  # (x - 1)(x - 2)(x - 3)
    1
    >>> _cubic_integer_root(IntPoly([-20, 24, -9, 1]))  # (x - 2)^2 (x - 5)
    2
    >>> _cubic_integer_root(IntPoly([-2, 0, 0, 1])) is None  # x^3 - 2
    True
    """
    c, b, a = F.coeffs[:3]
    B = 1 + max(abs(a), abs(b), abs(c))
    D = a * a - 3 * b
    if D <= 0:
        runs = ((-B, B, 1),)  # F' = 3x^2 + 2ax + b >= 0: F increases
    else:
        # k1 = floor(t1) and k2 = ceil(t2), from ceil(sqrt(D)): with
        # u = -a - sqrt(D), floor(u / 3) = floor(u) // 3
        s = math.isqrt(D)
        s += s * s != D
        k1, k2 = (-a - s) // 3, -((a - s) // 3)
        # F increases up to t1, decreases on (t1, t2), increases from t2
        runs = ((-B, k1, 1), (k1 + 1, k2 - 1, -1), (k2, B, 1))
    for lo, hi, sign in runs:
        while lo <= hi:
            mid = (lo + hi) // 2
            v = sign * (((mid + a) * mid + b) * mid + c)
            if v == 0:
                return mid
            if v < 0:
                lo = mid + 1
            else:
                hi = mid - 1
    return None


def _integer_root(F: IntPoly) -> int | None:
    # an integer root of the monic quadratic or cubic F, or None.  The roots
    # of x^2 + b x + c are (-b -+ s) / 2 with s^2 = b^2 - 4c; they are
    # rational exactly when s is an integer, and then s = b mod 2
    if F.degree == 3:
        return _cubic_integer_root(F)
    c, b, _ = F.coeffs
    disc = b * b - 4 * c
    s = math.isqrt(disc) if disc >= 0 else -1
    return (s - b) // 2 if s * s == disc else None


def _split_by_integer_roots(F: IntPoly) -> list[tuple[IntPoly, int]]:
    # the factorization of the monic F of degree <= 3: integer roots are
    # divided out one at a time, so a repeated root is found again in the
    # quotient and its repeats count its multiplicity.  What is left has no
    # rational root, so it is 1, linear, or an irreducible quadratic or cubic
    roots = []
    while F.degree > 1 and (r := _integer_root(F)) is not None:
        roots.append(r)
        F = divmod_exact(F, _poly([-r, 1]))[0]
    if F.degree == 1:
        roots.append(-F.coeffs[0])
    out = [(_poly([-r, 1]), roots.count(r)) for r in set(roots)]
    return out + [(F, 1)] if F.degree > 1 else out


def _zassenhaus_squarefree(F: IntPoly, known) -> list[IntPoly]:
    """Irreducible factors of a monic squarefree polynomial, by the modular
    path: a degree sieve over the ddf of up to three primes, then
    Cantor-Zassenhaus, Hensel lifting and subset recombination.  known maps
    each prime p whose residue F mod p the caller has already tested to
    _squarefree_mod(F, p), so that no prime is tested twice."""
    n = F.degree
    # factor degrees allowed by the ddf of up to three primes; none left
    # proves F irreducible
    allowed = (1 << n) - 2
    first = None
    for p, a in itertools.islice(_good_primes(F, known), 3):
        blocks = _fpx.ddf(a, p)
        first = first or (p, blocks)
        allowed &= _subset_sums(blocks, n)
        if not allowed:
            return [F]
    p, blocks = first
    rng = random.Random(f"{p}:{F.coeffs}")
    modular = _fpx.factor_squarefree_monic(blocks, p, rng)
    bound = _mignotte_bound(F)
    lifted, modulus = _hensel_lift(F, modular, p, 2 * bound + 1)
    # subset recombination over the lifted factors
    remaining = list(range(len(lifted)))
    target = F
    found: list[IntPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        for combo in itertools.combinations(remaining, size):
            dsum = sum(len(lifted[i]) - 1 for i in combo)
            if not (allowed >> dsum) & 1:
                continue
            prod = _product_mod([lifted[i] for i in combo], modulus)
            cand = _poly([_sym(c, modulus) for c in prod])
            quo, rem2 = divmod_exact(target, cand)
            if rem2.is_zero:
                found.append(cand)
                remaining = [i for i in remaining if i not in combo]
                target = quo
                break
        else:
            size += 1
    if target.degree > 0:
        found.append(target)
    return found


def _factor_monic(F: IntPoly) -> list[tuple[IntPoly, int]]:
    # [(irreducible, multiplicity)] of the monic F, unsorted.  Past degree 3,
    # F squarefree mod 17 is squarefree over Q; otherwise its squarefree part
    # S is factored, by its integer roots when deg S <= 3, and each
    # multiplicity found by exact division.  S is not sent back here: a
    # squarefree S with 17 | disc S, such as x^4 + 17, would return forever
    if F.degree <= 3:
        return _split_by_integer_roots(F)
    known = {17: _squarefree_mod(F, 17)}
    if known[17] is not None:
        return [(k, 1) for k in _zassenhaus_squarefree(F, known)]
    S = squarefree_part(F)
    ks = [k for k, _ in _split_by_integer_roots(S)] if S.degree <= 3 else (
        _zassenhaus_squarefree(S, known if S == F else {}))
    return [(k, _multiplicity(F, k)) for k in ks]


def factor_key(pair) -> tuple:
    """The canonical order of (factor, multiplicity) pairs: by the factor's
    degree, then its coefficients.  factor's result, and every factor list
    that a verdict carries, is sorted by it."""
    return pair[0].degree, pair[0].coeffs


def factor_product(factors, unit: int = 1) -> IntPoly:
    """unit times the product of h^e over the pairs (h, e) in factors."""
    prod = [unit]
    for h, e in factors:
        for _ in range(e):
            prod = _fpx.zmul(prod, h.coeffs)
    return _poly(prod)


def factor_unchecked(f: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """factor(f) without its closing product check, for a caller whose own
    check covers it."""
    if f.is_zero:
        raise ZeroPolynomial("factor of zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise ValueError(f"degree {f.degree} beyond factoring scope")
    if f.degree == 0:
        return f.coeffs[0], []
    F = f.primitive()
    unit = f.lc // F.lc
    b, n = F.lc, F.degree
    if b == 1:
        out = _factor_monic(F)
    else:
        # the monic transform b^(n-1) F(x/b) factors as F does, each factor
        # k of it coming from the primitive part of k(bx)
        Fm = _poly([c * b ** (n - 1 - i) for i, c in enumerate(F.coeffs[:-1])] + [1])
        out = [(_poly([c * b ** i for i, c in enumerate(k.coeffs)]).primitive(), e)
               for k, e in _factor_monic(Fm)]
    out.sort(key=factor_key)
    return unit, out


def factor(f: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Complete factorization over Q.

    Returns (unit, [(irreducible, multiplicity), ...]) with each irreducible
    primitive and positive-lc (monic when f is monic), sorted by factor_key,
    and unit * product == f exactly: every call checks it.
    """
    unit, out = factor_unchecked(f)
    if factor_product(out, unit) != f:
        raise InvariantViolation("factor product does not reproduce the input")
    return unit, out


@functools.lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial.

    >>> cyclotomic(12)
    IntPoly([1, 0, -1, 0, 1])
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return _poly([-1, 1])
    num = _poly([0] * m + [1]) - _poly([1])
    for d in range(1, m):
        if m % d == 0:
            num, r = divmod_exact(num, cyclotomic(d))
            if not r.is_zero:
                raise AssertionError("cyclotomic division must be exact")
    return num
