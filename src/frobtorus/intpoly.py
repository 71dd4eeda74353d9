"""Exact integer-polynomial algebra.

Everything here is arbitrary precision and division-free or exactly-divided;
no floating point.  Degrees in scope are small (factorization caps at 16,
composed products reach (2g)^2), so the algorithms favor

  - Newton's identities between a monic polynomial and its root power sums,
  - modular Zassenhaus (Frobenius-matrix DDF at up to three primes as a
    degree sieve, Cantor-Zassenhaus, quadratic Hensel lifting, subset
    recombination) for factorization over Q; when F is not squarefree
    modulo the first prime p >= 17 that keeps its degree, its squarefree
    part is factored and each multiplicity found by exact division,

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
        object.__setattr__(self, "coeffs", tuple(cs))

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other):
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = IntPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
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
        return IntPoly([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Content removed and leading coefficient made positive."""
        if self.is_zero:
            raise ZeroPolynomial("primitive part of zero polynomial")
        c = self.content()
        if self.lc < 0:
            c = -c
        return IntPoly([x // c for x in self.coeffs])

    def shift_scale(self, b: int) -> "IntPoly":
        """The polynomial f(b*x)."""
        return IntPoly([c * b ** i for i, c in enumerate(self.coeffs)])


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
        return IntPoly(), a
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
    return IntPoly(quo), IntPoly(rem[:db])


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
    A = IntPoly([c // a_cont for c in f.coeffs])
    B = IntPoly([c // b_cont for c in g.coeffs])
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
        B = IntPoly([c // denom for c in R.coeffs])
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
            val = lcf ** (m - mp) * resultant(f, IntPoly(gt))
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
    return IntPoly([c.numerator for c in acc])


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
        return IntPoly([1])
    g = gcd(f, f.derivative())
    q, _ = divmod_exact(f, g)
    return q.primitive()


def _multiplicity(F: IntPoly, irr: IntPoly) -> int:
    # the largest e with irr^e | F: exact divisions until one is inexact
    # or leaves a remainder
    e = 0
    while True:
        try:
            quo, rem = divmod_exact(F, irr)
        except ValueError:
            return e
        if not rem.is_zero:
            return e
        F, e = quo, e + 1


@functools.lru_cache(maxsize=None)
def _primes_from_17() -> list[int]:
    # the 64 primes from 17 to 349
    return [n for n in range(17, 350, 2) if _fpx.is_prime(n)]


def _squarefree_mod(F: IntPoly, p: int) -> list[int] | None:
    # F mod p when lc(F) is a unit and gcd(F, F') = 1 mod p, else None.  For
    # p > deg F, F' keeps its degree mod p, so the gcd decides whether F mod p
    # is squarefree; and with lc(F) a unit, a repeated factor of F over Q
    # stays a repeated factor of positive degree mod p.  So a non-None
    # result proves F squarefree over Q.
    a = [c % p for c in F.coeffs]
    if a[-1] == 0 or len(_fpx.gcd(a, _fpx.deriv(a, p), p)) > 1:
        return None
    return a


def _good_primes(F: IntPoly):
    # (p, F mod p) for the primes p >= 17 where F stays squarefree of its
    # degree, lazily
    for p in _primes_from_17():
        a = _squarefree_mod(F, p)
        if a is not None:
            yield p, a
    raise AssertionError("ran out of candidate primes")


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


def _hensel_step(f, g, h, s, t, m):
    # one quadratic lift: f = g*h and s*g + t*h = 1, mod m -> mod m*m
    # (h monic, so _fpx.div_rem is exact modulo the composite m*m)
    M = m * m
    add, sub, mul = _fpx.add, _fpx.sub, _fpx.mul
    e = sub([c % M for c in f], mul(g, h, M), M)
    q, r = _fpx.div_rem(mul(s, e, M), h, M)
    g_star = add(add(g, mul(t, e, M), M), mul(q, g, M), M)
    h_star = add(h, r, M)
    b = sub(add(mul(s, g_star, M), mul(t, h_star, M), M), [1], M)
    c2, d2 = _fpx.div_rem(mul(s, b, M), h_star, M)
    s_star = sub(s, d2, M)
    t_star = sub(sub(t, mul(t, b, M), M), mul(c2, g_star, M), M)
    return g_star, h_star, s_star, t_star


def _lift_split(f, left, right, p, target):
    # f monic mod target^?; left/right are factor lists mod p
    g = [1]
    for u in left:
        g = _fpx.mul(g, u, p)
    h = [1]
    for u in right:
        h = _fpx.mul(h, u, p)
    s, t = _fpx.bezout(g, h, p)
    m = p
    while m < target:
        fm = _fpx.trim([c % (m * m) for c in f])
        g, h, s, t = _hensel_step(fm, g, h, s, t, m)
        m *= m
    return g, h, m


def _hensel_lift_all(f, factors_p, p, target):
    """Lift the mod-p factorization of monic f to modulus >= target.

    Returns (lifted factor list, modulus).  Divide and conquer over the
    factor list; each split is lifted quadratically.
    """
    if len(factors_p) == 1:
        m = p
        while m < target:
            m *= m
        return [_fpx.trim([c % m for c in f])], m
    half = len(factors_p) // 2
    left, right = factors_p[:half], factors_p[half:]
    g, h, m = _lift_split(f, left, right, p, target)
    lg, _ = _hensel_lift_all(g, left, p, target)
    lh, _ = _hensel_lift_all(h, right, p, target)
    return lg + lh, m


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _zassenhaus_squarefree(F: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree positive-lc polynomial."""
    n = F.degree
    if n == 1:
        return [F]
    b = F.lc
    # monic transform: b^(n-1) * F(x/b); leading term becomes 1 exactly
    Fm = IntPoly([c * b ** (n - 1 - i) for i, c in enumerate(F.coeffs[:-1])] + [1])
    # factor degrees allowed by the ddf of up to three primes; none left
    # proves F irreducible
    allowed = (1 << n) - 2
    first = None
    for p, a in itertools.islice(_good_primes(Fm), 3):
        blocks = _fpx.ddf(a, p)
        first = first or (p, blocks)
        allowed &= _subset_sums(blocks, n)
        if not allowed:
            return [F]
    p, blocks = first
    rng = random.Random(f"{p}:{Fm.coeffs}")
    modular = _fpx.factor_squarefree_monic(blocks, p, rng)
    bound = _mignotte_bound(Fm)
    lifted, modulus = _hensel_lift_all(list(Fm.coeffs), modular, p, 2 * bound + 1)
    # subset recombination over the lifted factors
    remaining = list(range(len(lifted)))
    target = Fm
    found_monic: list[IntPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        retry = True
        while retry:
            retry = False
            for combo in itertools.combinations(remaining, size):
                dsum = sum(len(lifted[i]) - 1 for i in combo)
                if not (allowed >> dsum) & 1:
                    continue
                prod = [1]
                for i in combo:
                    prod = _fpx.mul(prod, lifted[i], modulus)
                cand = IntPoly([_sym(c, modulus) for c in prod])
                quo, rem2 = divmod_exact(target, cand)
                if rem2.is_zero:
                    found_monic.append(cand)
                    for i in combo:
                        remaining.remove(i)
                    target = quo
                    retry = True
                    break
        size += 1
    if target.degree > 0:
        found_monic.append(target)
    # undo the monic transform: factors of F are primitive parts of h(b*x)
    out = [h.shift_scale(b).primitive() for h in found_monic]
    out.sort(key=lambda h: (h.degree, h.coeffs))
    return out


def factor(f: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Complete factorization over Q.

    Returns (unit, [(irreducible, multiplicity), ...]) with each irreducible
    primitive and positive-lc (monic when f is monic), sorted by (degree,
    coeffs), and unit * product == f exactly.
    """
    if f.is_zero:
        raise ZeroPolynomial("factor of zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise ValueError(f"degree {f.degree} beyond factoring scope")
    if f.degree == 0:
        return f.coeffs[0], []
    F = f.primitive()
    unit = f.lc // F.lc
    # squarefree modulo the first prime that keeps the degree means
    # squarefree over Q: every multiplicity is 1.  Otherwise the factors of
    # the squarefree part are F's, each with its multiplicity in F
    p = next((p for p in _primes_from_17() if F.lc % p), None)
    if p is not None and _squarefree_mod(F, p) is not None:
        out = [(irr, 1) for irr in _zassenhaus_squarefree(F)]
    else:
        out = [(irr, _multiplicity(F, irr))
               for irr in _zassenhaus_squarefree(squarefree_part(F))]
    prod = IntPoly([unit])
    for irr, mult in out:
        prod = prod * irr ** mult
    if prod != f:
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
        return IntPoly([-1, 1])
    num = IntPoly([0] * m + [1]) - IntPoly([1])
    for d in range(1, m):
        if m % d == 0:
            num, r = divmod_exact(num, cyclotomic(d))
            if not r.is_zero:
                raise AssertionError("cyclotomic division must be exact")
    return num
