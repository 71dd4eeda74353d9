"""Polynomial arithmetic over prime fields F_p.

Polynomials are plain lists of ints in [0, p), low-to-high, with no trailing
zeros ([] is the zero polynomial).  Everything here serves two internal
clients: modulus selection for extension fields, and the modular stage of
integer-polynomial factorization.  p is an odd prime ≥ 3 for the
factorization routines; the irreducibility test works for any prime.

Hensel lifting also calls trim, add, sub, mul and div_rem with a composite
modulus p**(2**k).  The first four work for any modulus; div_rem is correct
there only when the divisor is monic, since it inverts the leading
coefficient as if p were prime.
"""

from __future__ import annotations

import random


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim([c % p for c in out])


def div_rem(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
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
        trim(a)
    return trim(q), a


def rem(a, b, p):
    return div_rem(a, b, p)[1]


def monic(a, p):
    if not a or a[-1] == 1:
        return a[:]
    inv_lc = pow(a[-1], p - 2, p)
    return [(c * inv_lc) % p for c in a]


def gcd(a, b, p):
    """Monic greatest common divisor."""
    a, b = a[:], b[:]
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def pow_mod(a, e: int, m, p):
    """a**e reduced mod m."""
    result = [1]
    base = rem(a, m, p)
    while e:
        if e & 1:
            result = rem(mul(result, base, p), m, p)
        base = rem(mul(base, base, p), m, p)
        e >>= 1
    return result


def deriv(a, p):
    return trim([(i * a[i]) % p for i in range(1, len(a))])


def is_irreducible(m, p) -> bool:
    """Rabin's test for a monic polynomial of degree ≥ 1 over F_p.

    m is irreducible iff x**(p**k) ≡ x (mod m) and, for every prime r | k,
    gcd(x**(p**(k//r)) - x, m) = 1.
    """
    k = len(m) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = [0, 1]
    for r in _prime_divisors(k):
        h = pow_mod(x, p ** (k // r), m, p)
        if len(gcd(sub(h, x, p), m, p)) > 1:
            return False
    h = pow_mod(x, p ** k, m, p)
    return sub(h, x, p) == []


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def ddf(a, p):
    """Distinct-degree blocks of a monic squarefree polynomial over F_p.

    Returns [(d, block)] where block is the product of all irreducible
    factors of degree d, for the d that occur, ascending.
    """
    blocks = []
    x = [0, 1]
    h = x[:]
    v = a[:]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, v, p)
        g = gcd(sub(h, x, p), v, p)
        if len(g) > 1:
            blocks.append((d, g))
            v = div_rem(v, g, p)[0]
            h = rem(h, v, p)
    if len(v) > 1:
        blocks.append((len(v) - 1, v))
    return blocks


def degree_pattern(a, p):
    """Multiset of irreducible-factor degrees of monic squarefree a mod p."""
    out = []
    for d, block in ddf(a, p):
        out.extend([d] * ((len(block) - 1) // d))
    return sorted(out)


def factor_squarefree_monic(a, p, rng: random.Random):
    """Irreducible factors of a monic squarefree polynomial over F_p (p odd).

    Distinct-degree splitting followed by Cantor-Zassenhaus equal-degree
    splitting.  The rng only steers the internal search; the returned list is
    sorted canonically, so results are reproducible regardless of it.
    """
    factors: list[list[int]] = []
    for d, block in ddf(a, p):
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
