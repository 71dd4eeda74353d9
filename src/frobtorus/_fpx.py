"""Polynomial arithmetic over prime fields F_p, and the integer sum and
product of coefficient lists that it reduces.

Polynomials are plain lists of ints in [0, p), low-to-high, with no
trailing zeros ([] is the zero polynomial).  Every routine that takes a
modulus p needs p prime.  ddf works at p = 2 too; a polynomial of degree k
is irreducible exactly when ddf returns it as one block of degree k.
Equal-degree splitting (factor_squarefree_monic) needs p odd.  is_prime is
the package's one primality test, and prime_divisors its one factorization
of integers.

zadd and zmul take no modulus: they are the package's one coefficient-wise
integer sum and one schoolbook integer product, on lists of any ints, and
return their result unreduced.  add, sub, mul and mul_rem reduce them mod
p; intpoly's IntPoly arithmetic trims them over Z, and its Hensel lift
reduces zmul mod p^k.

Distinct-degree factorization (ddf) builds the Frobenius matrix of the
modulus once per prime, rows x**(i*p) mod a, so that each further power
h -> h**p is a row combination rather than a modular exponentiation.

Division (div_rem, and rem, which builds no quotient) is one pass over a
copy of the dividend that reduces mod p once per quotient digit.  mul_rem,
the step of pow_mod and of the Frobenius rows, runs that pass on the
unreduced product itself.  gcd is the one F_p[x] gcd: a Euclid loop that
reduces its two copies into each other in place, with one inversion per
remainder.
"""

from __future__ import annotations

import random

from .errors import SizeExceeded, clip

# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below MR_BOUND (Sorenson and Webster, Math. Comp. 86 (2017), psi_13)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def zadd(a, b):
    """a+b on integer coefficient lists, unreduced and untrimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def zmul(a, b):
    """a*b on integer coefficient lists, unreduced; [] when either is []."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def add(a, b, p):
    return trim([c % p for c in zadd(a, b)])


def sub(a, b, p):
    return add(a, [-c for c in b], p)


def mul(a, b, p):
    return trim([c % p for c in zmul(a, b)])


def _reduce(r, b, p, q):
    """The remainder of r by b (b nonzero), from one pass over r in place,
    top coefficient down; the quotient digits go into q unless it is None.
    r may hold any integers, unreduced.

    r is reduced mod p once per quotient digit, at the coefficient that
    digit is read from, and once at the end, not once per update.
    """
    nb = len(b) - 1
    if nb < 0:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lc = pow(b[-1], p - 2, p)
    low = b[:nb]
    for top in range(len(r) - 1, nb - 1, -1):
        c = r[top] % p * inv_lc % p
        if c:
            if q is not None:
                q[top - nb] = c
            for i, cb in enumerate(low, top - nb):
                r[i] -= c * cb
    return trim([c % p for c in r[:nb]])


def div_rem(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = _reduce(a[:], b, p, q)
    return trim(q), r


def rem(a, b, p):
    """The remainder of a by b (b nonzero); no quotient is built."""
    return _reduce(a[:], b, p, None)


def mul_rem(a, b, m, p):
    """rem(mul(a, b, p), m, p): the product is accumulated unreduced and
    divided by m in place, with no reduced copy of it in between."""
    return _reduce(zmul(a, b), m, p, None)


def monic(a, p):
    if not a or a[-1] == 1:
        return a[:]
    inv_lc = pow(a[-1], p - 2, p)
    return [(c * inv_lc) % p for c in a]


def gcd(a, b, p):
    """Monic greatest common divisor.

    One Euclid loop on copies of a and b, coefficients kept in [0, p): each
    pass reduces a mod b in place, top coefficient down, with one inversion
    of b's leading coefficient, drops a's zero top and swaps the two.
    """
    a, b = a[:], b[:]
    if not b:
        return monic(a, p)
    while True:
        nb = len(b) - 1
        inv_lc = pow(b[-1], p - 2, p)
        for top in range(len(a) - 1, nb - 1, -1):
            c = a[top] * inv_lc % p
            if c:
                for i, cb in enumerate(b, top - nb):
                    a[i] = (a[i] - c * cb) % p
        del a[nb:]
        trim(a)
        if not a:
            return [c * inv_lc % p for c in b]
        a, b = b, a


def pow_mod(a, e: int, m, p):
    """a**e reduced mod m."""
    result = [1]
    base = rem(a, m, p)
    while e:
        if e & 1:
            result = mul_rem(result, base, m, p)
        base = mul_rem(base, base, m, p)
        e >>= 1
    return result


def deriv(a, p):
    return trim([(i * a[i]) % p for i in range(1, len(a))])


def is_prime(n: int) -> bool:
    """Whether n is prime: division by the 13 bases decides an n with a
    factor up to 41 at any size; a deterministic Miller-Rabin on them
    decides the rest, and raises SizeExceeded past MR_BOUND (about 3.3e24).
    """
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    if n >= MR_BOUND:
        raise SizeExceeded(f"{clip(n)} is past the prime test bound {MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int):
    """The distinct primes dividing n, ascending, by trial division.

    A generator, so a caller that needs only the smallest pays only for
    finding it.  Yields nothing for n < 2.
    """
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


def _frobenius_rows(a, p):
    """Rows x**(i*p) mod a, i = 0 .. deg a - 1, of the Frobenius matrix of
    a monic a of degree >= 1.

    Since (sum h_i x**i)**p = sum h_i x**(i*p) over F_p, _frobenius_apply
    maps h to h**p mod a as one combination of these rows.
    """
    # x^p by p steps of "times x, minus the top coefficient times a": at
    # the small p and degrees of factorization this beats pow_mod
    n = len(a) - 1
    xp = [1] + [0] * (n - 1)
    for _ in range(p):
        top = xp[-1]
        xp = [0] + xp[:-1]
        if top:
            xp = [(c - top * ac) % p for c, ac in zip(xp, a)]
    xp = trim(xp)
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(mul_rem(rows[-1], xp, a, p))
    return rows


def _frobenius_apply(rows, h, p):
    """h**p reduced mod a, for h of degree < deg a and rows from
    _frobenius_rows(a, p)."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return trim([c % p for c in out])


def ddf(a, p):
    """Distinct-degree blocks of a monic squarefree polynomial over F_p.

    Returns [(d, block)] where block is the product of all irreducible
    factors of degree d, for the d that occur, ascending.  The Frobenius
    matrix of a is built once; h = x**(p**d) stays reduced mod a, and each
    step takes one row combination and one gcd with what is left of a.
    """
    if len(a) < 3:
        return [(len(a) - 1, a)] if len(a) > 1 else []
    blocks = []
    rows = _frobenius_rows(a, p)
    x = [0, 1]
    h = x
    v = a
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _frobenius_apply(rows, h, p)
        g = gcd(sub(h, x, p), v, p)
        if len(g) > 1:
            blocks.append((d, g))
            v = div_rem(v, g, p)[0]
    if len(v) > 1:
        blocks.append((len(v) - 1, v))
    return blocks


def factor_squarefree_monic(blocks, p, rng: random.Random):
    """Irreducible factors of a monic squarefree polynomial over F_p (p odd),
    given its distinct-degree blocks ddf(a, p).

    Cantor-Zassenhaus equal-degree splitting of each block.  The rng only
    steers the internal search; the returned list is sorted canonically, so
    results are reproducible regardless of it.
    """
    factors: list[list[int]] = []
    for d, block in blocks:
        factors.extend(_split_equal_degree(block, d, p, rng))
    factors.sort(key=lambda f: (len(f), f))
    return factors


def _split_equal_degree(u, d, p, rng):
    """Split u (product of distinct irreducibles, each of degree d)."""
    n = len(u) - 1
    if n == d:
        return [u]
    e = (p ** d - 1) // 2
    while True:
        r = trim([rng.randrange(p) for _ in range(n)])
        if len(r) <= 1:
            continue
        s = pow_mod(r, e, u, p)
        g = gcd(sub(s, [1], p), u, p)
        if 1 < len(g) < len(u):
            rest = div_rem(u, g, p)[0]
            return _split_equal_degree(g, d, p, rng) + _split_equal_degree(rest, d, p, rng)


def bezout(a, b, p):
    """s, t with s*a + t*b = 1 for coprime a, b over F_p."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = div_rem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("inputs are not coprime")
    inv = pow(r0[0], p - 2, p)
    return [(c * inv) % p for c in s0], [(c * inv) % p for c in t0]
