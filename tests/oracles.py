"""Independent reimplementations used to cross-check the package.

Everything here is deliberately naive: brute-force point counts and
singular-point search on their own digit-tuple field arithmetic (they share
only the canonical modulus with the package), a Sylvester-matrix resultant
over Fraction arithmetic, a root-of-unity scan by explicit
minimal-polynomial degree, the power charpoly and ratio polynomial as
bivariate resultants, the ratio polynomial and its two factors by Newton's
identities at full length, the torsion scan over every m with phi(m) <= (2g)^2,
a cubic's rational roots by trying every integer inside Cauchy's bound,
prime powers by trial division, distinct-degree factorization by one
modular exponentiation per degree, Rabin's irreducibility test,
F_p[x] division and gcd by long division with a trim after every
quotient digit, and classify's decision by a power charpoly at every
torsion order.  Slow but hard to get wrong.
"""

import functools
import itertools
import math
from fractions import Fraction

from frobtorus import _fpx, gf
from frobtorus.intpoly import (
    IntPoly,
    cyclotomic,
    divmod_exact,
    factor,
    from_power_sums,
    resultant_y,
    root_power_sums,
)
from frobtorus.simplicity import (
    ABSOLUTELY_SIMPLE,
    INCONCLUSIVE,
    NOT_ABSOLUTELY_SIMPLE,
    NOT_SIMPLE,
    REASON_PURE_POWER,
    REASON_REPEATED_BASE,
    SimplicityVerdict,
    charpoly_power,
    ratio_torsion_orders,
)


class _Field:
    """F_{p^k} on reps (digit tuples, low first), with its own arithmetic:
    _fpx.mul, then the remainder by the package's canonical modulus."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        self.modulus = list(gf.field_create(p, k).modulus)
        self.elems = list(itertools.product(range(p), repeat=k))  # rep order
        self.zero = (0,) * k

    def rep(self, ints):
        r = _fpx.rem(_fpx.trim([c % self.p for c in ints]), self.modulus, self.p)
        return tuple(r) + (0,) * (self.k - len(r))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return self.rep(_fpx.mul(a, b, self.p))

    def power(self, a, e):
        # square and multiply, with a**0 = 1 for every a
        out, base = self.rep([1]), a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def eval(self, poly, x):
        acc = self.zero
        for c in reversed(poly):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def deriv(self, poly):
        return [self.mul(self.rep([i]), poly[i]) for i in range(1, len(poly))]


def _lift(spec, ext, codes):
    """Coefficient codes over spec as reps of ext, a field containing it:
    the base-p digits of a code, with t sent to the first root of spec's
    modulus in rep order, found by trial, when ext is a proper extension,
    and to t itself when ext is spec's own field.  (The first root of the
    modulus of F_8 is t^2, and t -> t^2 is the Frobenius of F_8, not the
    identity.)"""
    powers = [ext.rep([1])]
    if spec.k > 1:
        mod = [ext.rep([c]) for c in spec.modulus]
        gamma = ext.rep([0, 1]) if ext.k == spec.k else next(
            x for x in ext.elems if ext.eval(mod, x) == ext.zero
        )
        for _ in range(spec.k - 1):
            powers.append(ext.mul(powers[-1], gamma))
    out = []
    for n in codes:
        acc = ext.zero
        for t in powers:
            n, d = divmod(n, spec.p)
            acc = ext.add(acc, ext.mul(ext.rep([d]), t))
        out.append(acc)
    return out


def naive_count(C, i: int) -> int:
    """Count points of C over the degree-i extension by trying every (x, y),
    plus the standard points at infinity of the smooth model."""
    spec = C.base
    ext = _Field(spec.p, spec.k * i)
    h = _lift(spec, ext, C.h)
    f = _lift(spec, ext, C.f)
    squares = [ext.mul(y, y) for y in ext.elems]

    def solutions(hv, fv):
        return sum(
            1 for y, y2 in zip(ext.elems, squares) if ext.add(y2, ext.mul(hv, y)) == fv
        )

    total = sum(solutions(ext.eval(h, x), ext.eval(f, x)) for x in ext.elems)
    g = C.genus
    if len(C.f) - 1 == 2 * g + 1:
        return total + 1
    lead_h = h[g + 1] if len(h) > g + 1 else ext.zero
    return total + solutions(lead_h, f[-1])


def naive_singular_point(spec, h, f):
    """First affine singular point (m, x, y) of y^2 + h y = f over
    F_{q^m}, m = 1 .. max(deg h, 1), by trying every (x, y); None if none.
    h and f are coefficient codes over spec; x and y are reps.

    In characteristic 2 a singular point needs h(x) = 0 and h'(x) y = f'(x);
    every root of h lies in one of these fields.
    """
    for m in range(1, max(len(h) - 1, 1) + 1):
        ext = _Field(spec.p, spec.k * m)
        hk, fk = _lift(spec, ext, h), _lift(spec, ext, f)
        hd, fd = ext.deriv(hk), ext.deriv(fk)
        doubles = [ext.add(y, y) for y in ext.elems]
        for x in ext.elems:
            hv, fv = ext.eval(hk, x), ext.eval(fk, x)
            minus_hv = tuple(-c % spec.p for c in hv)
            for y, twice_y in zip(ext.elems, doubles):
                # the cheap partial derivative 2y + h(x) first: in
                # characteristic 2 it vanishes only where h(x) = 0
                if (twice_y == minus_hv
                        and ext.add(ext.mul(y, y), ext.mul(hv, y)) == fv
                        and ext.mul(ext.eval(hd, x), y) == ext.eval(fd, x)):
                    return m, x, y
    return None


def naive_singular_ys_over_zero(p, h, f):
    """The y in F_p that make (0, y) a singular point of y^2 + h y = f over
    F_p: on the curve, with 2y + h(0) = 0 and h'(0) y = f'(0).  Any such y
    lies in F_p: it is -h(0)/2 for odd p, and a square root of f(0) in F_2
    for p = 2.
    """
    h0, h1 = (tuple(h) + (0, 0))[:2]
    return [y for y in range(p)
            if (y * y + h0 * y - f[0]) % p == 0 and (2 * y + h0) % p == 0
            and (h1 * y - f[1]) % p == 0]


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix, computed by
    fraction-free-enough Gaussian elimination over Fraction."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc]
                    + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc]
                    + [Fraction(0)] * (size - i - n - 1))
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return int(det)


def _mulmod_q(a, b, mod):
    """Product of coefficient vectors in Q[x]/(mod), mod monic."""
    n = len(mod) - 1
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            out[k] = Fraction(0)
            for i in range(n):
                out[k - n + i] -= c * mod[i]
    return out[:n] + [Fraction(0)] * (n - len(out))


def minpoly_degree_over_q(element_coeffs, modulus_coeffs) -> int:
    """Degree of the minimal polynomial over Q of the element with the given
    coordinates in Q[x]/(modulus): first k making 1, e, ..., e^k linearly
    dependent (Gaussian elimination on exact fractions)."""
    n = len(modulus_coeffs) - 1
    mod = [Fraction(c) for c in modulus_coeffs]
    e = [Fraction(c) for c in element_coeffs][:n]
    e += [Fraction(0)] * (n - len(e))
    rows = []  # reduced basis vectors of the span so far
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)  # e^0
    for k in range(n + 1):
        vec = list(power)
        for row, lead in rows:
            if vec[lead]:
                factor = vec[lead] / row[lead]
                vec = [a - factor * b for a, b in zip(vec, row)]
        lead = next((i for i, a in enumerate(vec) if a), None)
        if lead is None:
            return k
        rows.append((vec, lead))
        power = _mulmod_q(power, e, mod)
    return n


def powmod_monic(base: IntPoly, e: int, mod: IntPoly) -> IntPoly:
    """base**e reduced modulo a monic polynomial, exactly over Z."""
    result = IntPoly([1])
    acc = divmod_exact(base, mod)[1]
    while e:
        if e & 1:
            result = divmod_exact(result * acc, mod)[1]
        acc = divmod_exact(acc * acc, mod)[1]
        e >>= 1
    return result


def charpoly_power_by_resultant(P, n: int) -> IntPoly:
    """Res_y(P(y), T - s(y)) with s = y^n mod P: the monic polynomial whose
    roots are the n-th powers of the roots of P."""
    Pp = IntPoly(P.coeffs)
    s = powmod_monic(IntPoly([0, 1]), n, Pp)
    if s.degree <= 0:
        c = s.coeffs[0] if s.coeffs else 0
        return IntPoly([-c, 1]) ** (2 * P.g)
    g_y = [IntPoly([-s.coeffs[0], 1])] + [IntPoly([-c]) for c in s.coeffs[1:]]
    return resultant_y(Pp, g_y)


def ratio_poly_by_resultant(P) -> IntPoly:
    """Res_y(P(y), sum_i c_i x^(2g-i) y^i), vanishing at the root ratios."""
    n = 2 * P.g
    g_y = [IntPoly([0] * (n - i) + [c]) for i, c in enumerate(P.coeffs)]
    return resultant_y(IntPoly(P.coeffs), g_y)


def _phi(m: int) -> int:
    out, n, d = m, m, 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    return out - out // n if n > 1 else out


def ratio_poly_by_full_newton(P) -> IntPoly:
    """R~(qx)/q^(2g^2), R~ the monic polynomial of degree (2g)^2 whose
    roots alpha_i*alpha_j have power sums S_k^2, by Newton's identities on
    all (2g)^2 of them, without using that R is palindromic."""
    n = 2 * P.g
    Rt = from_power_sums([s * s for s in root_power_sums(IntPoly(P.coeffs), n * n)])
    den = P.q ** (n * n // 2)
    scaled = [c * P.q ** i for i, c in enumerate(Rt.coeffs)]
    if any(c % den for c in scaled):
        raise ValueError("ratio polynomial is not integral")
    R = IntPoly([c // den for c in scaled])
    if R.degree != n * n:
        raise ValueError(f"ratio polynomial degree {R.degree} != (2g)^2")
    return R


def ratio_factors_by_full_newton(P) -> tuple[IntPoly, IntPoly]:
    """(A, B): the monic A of degree 2g with roots alpha_i^2, from the power
    sums S_2k, and the monic B of degree g(2g - 1) with roots alpha_i
    alpha_j for i < j, from the power sums (S_k^2 - S_2k)/2, each by
    Newton's identities on all of its power sums, without using a symmetry
    of either."""
    n, N = 2 * P.g, P.g * (2 * P.g - 1)
    S = root_power_sums(IntPoly(P.coeffs), 2 * max(n, N))
    A = from_power_sums(S[1:2 * n:2])
    halves = [S[k - 1] ** 2 - S[2 * k - 1] for k in range(1, N + 1)]
    if any(c % 2 for c in halves):
        raise ValueError("pair power sums are not integral")
    return A, from_power_sums([c // 2 for c in halves])


@functools.lru_cache(maxsize=None)
def _orders_with_phi_up_to(bound: int) -> tuple[int, ...]:
    # every m >= 2 with phi(m) <= bound; phi(m) >= sqrt(m/2) caps the scan
    return tuple(m for m in range(2, 2 * bound * bound + 2) if _phi(m) <= bound)


def ratio_torsion_orders_by_phi_scan(P) -> set[int]:
    """{m >= 2 : Phi_m divides the ratio polynomial}, trying every m with
    phi(m) <= (2g)^2, the degree of the ratio polynomial, on R built by
    ratio_poly_by_full_newton."""
    R = ratio_poly_by_full_newton(P)
    return {
        m for m in _orders_with_phi_up_to((2 * P.g) ** 2)
        if divmod_exact(R, cyclotomic(m))[1].is_zero
    }


def factor_cubic_by_root_scan(f: IntPoly):
    """factor(f) for a cubic f over Z.  A rational root of f is r/b, b the
    leading coefficient of the primitive part F, for an integer root r of
    the monic Fm(x) = b^2 F(x/b), and |r| < B = 1 + max |coefficient of Fm|
    (Cauchy's bound).  Every integer in [-B, B] is tried, and each root is
    divided out as often as it divides.  What is left has no rational root,
    so it is 1 or irreducible."""
    F = f.primitive()
    b = F.lc
    c0, c1, c2, _ = F.coeffs
    Fm = IntPoly([c0 * b * b, c1 * b, c2, 1])
    B = 1 + max(abs(c) for c in Fm.coeffs[:3])
    monic, rest = [], Fm
    for r in range(-B, B + 1):
        while rest.degree > 0 and rest(r) == 0:
            rest = divmod_exact(rest, IntPoly([-r, 1]))[0]
            monic.append(IntPoly([-r, 1]))
    if rest.degree > 0:
        monic.append(rest)
    mult = {}
    for h in monic:
        # the factor of F that h comes from: h(b x), primitive
        k = IntPoly([c * b ** i for i, c in enumerate(h.coeffs)]).primitive()
        mult[k] = mult.get(k, 0) + 1
    return f.lc // b, sorted(mult.items(), key=lambda km: (km[0].degree, km[0].coeffs))


def prime_power_by_trial_division(q: int):
    """(p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def ddf_by_pow_mod(a, p):
    """Distinct-degree blocks [(d, product of the degree-d irreducible
    factors)] of a monic squarefree a over F_p, raising h to the p-th power
    by _fpx.pow_mod modulo what is left of a at every degree."""
    blocks = []
    x = [0, 1]
    h = x[:]
    v = a[:]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _fpx.pow_mod(h, p, v, p)
        g = _fpx.gcd(_fpx.sub(h, x, p), v, p)
        if len(g) > 1:
            blocks.append((d, g))
            v = _fpx.div_rem(v, g, p)[0]
            h = _fpx.rem(h, v, p)
    if len(v) > 1:
        blocks.append((len(v) - 1, v))
    return blocks


def is_irreducible_by_rabin(m, p) -> bool:
    """Rabin's test for a monic polynomial m of degree >= 1 over F_p: m is
    irreducible iff x**(p**k) = x (mod m) and, for every prime r | k,
    gcd(x**(p**(k//r)) - x, m) = 1."""
    k = len(m) - 1
    if k == 1:
        return True
    x = [0, 1]
    for r in _fpx.prime_divisors(k):
        h = _fpx.pow_mod(x, p ** (k // r), m, p)
        if len(_fpx.gcd(_fpx.sub(h, x, p), m, p)) > 1:
            return False
    h = _fpx.pow_mod(x, p ** k, m, p)
    return _fpx.sub(h, x, p) == []


def div_rem_by_long_division(a, b, p):
    """Quotient and remainder of a by b (b nonzero) over F_p: the top
    coefficient of a copy of a is cancelled, every coefficient it touches
    reduced and the copy trimmed, once per quotient digit.  Exact modulo a
    composite p when b is monic."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = a[:]
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lc = pow(b[-1], p - 2, p)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        c = (a[-1] * inv_lc) % p
        d = len(a) - 1 - db
        q[d] = c
        for i, cb in enumerate(b):
            a[d + i] = (a[d + i] - c * cb) % p
        _fpx.trim(a)
    return _fpx.trim(q), a


def rem_by_long_division(a, b, p):
    return div_rem_by_long_division(a, b, p)[1]


def gcd_by_long_division(a, b, p):
    """Monic gcd over F_p by Euclid on rem_by_long_division."""
    a, b = a[:], b[:]
    while b:
        a, b = b, rem_by_long_division(a, b, p)
    if not a or a[-1] == 1:
        return a
    inv_lc = pow(a[-1], p - 2, p)
    return [(c * inv_lc) % p for c in a]


def _is_ordinary(h: IntPoly, p: int) -> bool:
    # the middle-coefficient rule on h's own degree
    return math.gcd(h.coeffs[h.degree // 2], p) == 1


def decide_by_every_order(P) -> SimplicityVerdict:
    """classify's verdict on P, with P and its power charpolys factored at
    full degree, and, for an irreducible P of genus >= 2 with torsion
    orders, a power charpoly built at every order in ascending order until
    one has two distinct factors or one repeated ordinary factor; when none
    has, Inconclusive."""
    p = prime_power_by_trial_division(P.q)[0]
    fs = factor(IntPoly(P.coeffs))[1]
    if len(fs) >= 2:
        return SimplicityVerdict(kind=NOT_SIMPLE, factors=tuple(fs))
    h, e = fs[0]
    if P.g == 1:
        orders = tuple(sorted(ratio_torsion_orders(P)))
        return SimplicityVerdict(
            kind=ABSOLUTELY_SIMPLE, torsion_orders=orders, factors=((h, e),)
        )
    if e >= 2:
        if _is_ordinary(h, p):
            return SimplicityVerdict(
                kind=NOT_ABSOLUTELY_SIMPLE, witness_n=1, factors=((h, e),)
            )
        return SimplicityVerdict(
            kind=INCONCLUSIVE, reason=REASON_REPEATED_BASE, factors=((h, e),)
        )
    orders = tuple(sorted(ratio_torsion_orders(P)))
    if not orders:
        return SimplicityVerdict(
            kind=ABSOLUTELY_SIMPLE, torsion_orders=(), factors=((h, 1),)
        )
    for m in orders:
        cfs = tuple(factor(charpoly_power(P, m))[1])
        if len(cfs) >= 2 or cfs[0][1] >= 2 and _is_ordinary(cfs[0][0], p):
            return SimplicityVerdict(
                kind=NOT_ABSOLUTELY_SIMPLE,
                witness_n=m,
                factors=cfs,
                torsion_orders=orders,
            )
    return SimplicityVerdict(
        kind=INCONCLUSIVE, reason=REASON_PURE_POWER, torsion_orders=orders
    )
