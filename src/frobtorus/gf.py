"""Arithmetic in small finite fields F_{p^k}, capped at p^k <= 2**20.

A field is presented as F_p[t]/(m(t)) with m the lexicographically smallest
monic irreducible polynomial of degree k (lex on the low-to-high coefficient
vector), so element representations agree bit-for-bit across runs and
machines.  Elements are immutable and hashable; reps are tuples of length k
over [0, p), low-to-high.

Also provides polynomial helpers over a field (lists of FieldElement,
low-to-high, trimmed), which the curve module uses for singularity checks.

For whole-field work each element also has an integer code in [0, q), its
rep read as base-p digits, low digit first, and ``log_tables`` holds int32
exp/log/Zech tables to a fixed primitive element.  ``values`` evaluates a
polynomial at every nonzero element at once by numpy Horner steps on those
tables, with integer arithmetic only; point counting and root finding
(``poly_roots``: singularity witnesses, coefficient embeddings) both run on
it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import _fpx
from .errors import NonPrime, SizeExceeded

SIZE_CAP = 1 << 20


def is_prime(n: int) -> bool:
    return n >= 2 and next(_fpx.prime_divisors(n)) == n


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of F_{p^k}; shared freely between threads."""

    p: int
    k: int
    modulus: tuple[int, ...]  # monic, degree k, low-to-high; (0, 1) for k = 1

    @property
    def q(self) -> int:
        return self.p ** self.k

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k})"


def field_create(p: int, k: int = 1) -> FieldSpec:
    """Build F_{p^k} with its canonical modulus.

    >>> field_create(3, 2).modulus
    (1, 0, 1)
    """
    return _field_create(p, k)


@functools.lru_cache(maxsize=None)
def _field_create(p: int, k: int) -> FieldSpec:
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if p ** k > SIZE_CAP:
        raise SizeExceeded(f"field size {p}^{k} exceeds 2^20")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    # constant term 0 means divisible by x; skipping keeps lex order intact
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=k - 1):
            m = [c0] + list(rest) + [1]
            if _fpx.is_irreducible(m, p):
                return FieldSpec(p, k, tuple(m))
    raise AssertionError("unreachable: every degree has an irreducible")


@functools.lru_cache(maxsize=None)
def _reduction_rows(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    # row j = rep of t^(k+j) modulo the field modulus, j = 0 .. k-2
    p, k = spec.p, spec.k
    rows = []
    cur = [(-c) % p for c in spec.modulus[:k]]
    rows.append(tuple(cur))
    for _ in range(k - 2):
        top = cur[k - 1]
        cur = [0] + cur[: k - 1]
        if top:
            first = rows[0]
            for i in range(k):
                cur[i] = (cur[i] + top * first[i]) % p
        rows.append(tuple(cur))
    return tuple(rows)


def _mul_reps(spec: FieldSpec, a: tuple, b: tuple) -> tuple:
    p, k = spec.p, spec.k
    if k == 1:
        return ((a[0] * b[0]) % p,)
    conv = [0] * (2 * k - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                conv[i + j] += ca * cb
    rows = _reduction_rows(spec)
    out = conv[:k]
    for idx in range(2 * k - 2, k - 1, -1):
        c = conv[idx] % p
        if c:
            row = rows[idx - k]
            for i in range(k):
                out[i] += c * row[i]
    return tuple(v % p for v in out)


class FieldElement:
    """Element of a FieldSpec field; treat as immutable."""

    __slots__ = ("spec", "rep")

    def __init__(self, spec: FieldSpec, rep: tuple[int, ...]):
        self.spec = spec
        self.rep = rep

    def _same(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise ValueError("field mismatch")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("field mismatch")
        return other

    def __add__(self, other):
        other = self._same(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((x + y) % p for x, y in zip(self.rep, other.rep))
        )

    def __sub__(self, other):
        other = self._same(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((x - y) % p for x, y in zip(self.rep, other.rep))
        )

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-x) % p for x in self.rep))

    def __mul__(self, other):
        other = self._same(other)
        return FieldElement(self.spec, _mul_reps(self.spec, self.rep, other.rep))

    def __truediv__(self, other):
        return self * inv(self._same(other))

    def __pow__(self, e: int):
        if e < 0:
            return inv(self) ** (-e)
        result = one(self.spec)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.spec, self.rep))

    def __bool__(self):
        return any(self.rep)

    def __repr__(self):
        return f"FieldElement({self.spec!r}, {self.rep})"


def element(spec: FieldSpec, coeffs) -> FieldElement:
    """Element from an int coefficient sequence (reduced mod p, then mod m)."""
    cs = [c % spec.p for c in coeffs]
    if len(cs) > spec.k:
        cs = _fpx.rem(_fpx.trim(cs), list(spec.modulus), spec.p)
    cs = cs + [0] * (spec.k - len(cs))
    return FieldElement(spec, tuple(cs))


def scalar(spec: FieldSpec, n: int) -> FieldElement:
    return element(spec, [n])


def zero(spec: FieldSpec) -> FieldElement:
    return FieldElement(spec, (0,) * spec.k)


def one(spec: FieldSpec) -> FieldElement:
    return element(spec, [1])


def gen(spec: FieldSpec) -> FieldElement:
    """The class of t, a root of the modulus (k >= 2)."""
    return element(spec, [0, 1])


def inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse; a*inv(a) = 1."""
    if not a:
        raise ZeroDivisionError("inverse of zero field element")
    return a ** (a.spec.q - 2)


def enumerate_elements(spec: FieldSpec):
    """All q elements exactly once, in lexicographic order of rep."""
    for rep in itertools.product(range(spec.p), repeat=spec.k):
        yield FieldElement(spec, rep)


# ---------------------------------------------------------------------------
# Polynomials over a field: lists of FieldElement, low-to-high, trimmed.

def poly_trim(spec: FieldSpec, cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def poly_from_ints(spec: FieldSpec, ints) -> list:
    return poly_trim(spec, [scalar(spec, c) for c in ints])


def poly_add(spec: FieldSpec, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return poly_trim(spec, out)


def poly_mul(spec: FieldSpec, a: list, b: list) -> list:
    if not a or not b:
        return []
    z = zero(spec)
    out = [z] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
    return poly_trim(spec, out)


def poly_divmod(spec: FieldSpec, a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], a
    q = [zero(spec)] * (len(a) - db)
    inv_lc = inv(b[-1])
    while a and len(a) - 1 >= db:
        c = a[-1] * inv_lc
        d = len(a) - 1 - db
        q[d] = c
        for i, cb in enumerate(b):
            a[d + i] = a[d + i] - c * cb
        poly_trim(spec, a)
    return poly_trim(spec, q), a


def poly_rem(spec: FieldSpec, a: list, b: list) -> list:
    return poly_divmod(spec, a, b)[1]


def poly_monic(spec: FieldSpec, a: list) -> list:
    if not a or a[-1] == one(spec):
        return list(a)
    s = inv(a[-1])
    return [c * s for c in a]


def poly_gcd(spec: FieldSpec, a: list, b: list) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_rem(spec, a, b)
    return poly_monic(spec, a)


def poly_eval(spec: FieldSpec, a: list, x: FieldElement) -> FieldElement:
    acc = zero(spec)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_deriv(spec: FieldSpec, a: list) -> list:
    out = [scalar(spec, i) * a[i] for i in range(1, len(a))]
    return poly_trim(spec, out)


# ---------------------------------------------------------------------------
# Integer codes and log tables for whole-field evaluation.

def code(a: FieldElement) -> int:
    """The integer whose base-p digits, low first, are a.rep."""
    out = 0
    for d in reversed(a.rep):
        out = out * a.spec.p + d
    return out


def from_code(spec: FieldSpec, n: int) -> FieldElement:
    """Inverse of code on [0, q)."""
    rep = []
    for _ in range(spec.k):
        n, d = divmod(n, spec.p)
        rep.append(d)
    return FieldElement(spec, tuple(rep))


@dataclass(frozen=True, eq=False)
class LogTables:
    """Discrete logarithms of F_q to a primitive element g, the first in code
    order (so exp[1] is its code when q > 2).

    exp[n] is the code of g^n (n < q-1); log[c] is the n with code(g^n) = c,
    and log[0] = -1; zech[n] = log(1 + g^n), -1 where 1 + g^n = 0, so adding
    a nonzero constant c to g^a is g^(log c + zech[a - log c]).  For p = 2,
    bit i of trace_mask is Tr(t^i), so Tr(a) is the parity of
    code(a) & trace_mask; it is 0 for odd p.  The arrays are read-only.
    """

    exp: np.ndarray
    log: np.ndarray
    zech: np.ndarray
    trace_mask: int


# the exp table grows in blocks of at most this many elements; each block
# multiplies a prefix by a constant through a (block x k) digit matrix
_BLOCK = 1 << 14


def _times(spec: FieldSpec, codes: np.ndarray, c: FieldElement) -> np.ndarray:
    # codes * c, as the F_p-linear map sending t^i to c * t^i; int64 holds
    # the digit products, up to (p-1)^2 < 2^40 when k = 1
    p, k = spec.p, spec.k
    t = gen(spec)
    images = np.array([(c * t ** i).rep for i in range(k)], dtype=np.int64)
    powers = p ** np.arange(k, dtype=np.int64)
    digits = codes.astype(np.int64)[:, None] // powers % p
    return digits @ images % p @ powers


@functools.lru_cache(maxsize=None)
def log_tables(spec: FieldSpec) -> LogTables:
    """Log tables of spec; built once per field, at most 12 q bytes."""
    q, m = spec.q, spec.q - 1
    unit = one(spec)
    for g_code in range(1, q):
        g = from_code(spec, g_code)
        if all(g ** (m // r) != unit for r in _fpx.prime_divisors(m)):
            break
    exp = np.empty(m, dtype=np.int32)
    exp[0] = 1
    filled = 1
    while filled < m:
        step = min(filled, _BLOCK, m - filled)
        g_pow = from_code(spec, int(exp[filled - 1])) * g  # g^filled
        exp[filled:filled + step] = _times(spec, exp[:step], g_pow)
        filled += step
    log = np.full(q, -1, dtype=np.int32)
    log[exp] = np.arange(m, dtype=np.int32)
    # 1 + a changes the low digit only
    low = exp % spec.p
    zech = log[np.where(low == spec.p - 1, exp - low, exp + 1)]
    mask = 0
    if spec.p == 2:
        t = gen(spec)
        for i in range(spec.k):
            a = t ** i
            tr = a
            for _ in range(spec.k - 1):
                a = a * a
                tr = tr + a
            mask |= tr.rep[0] << i
    for arr in (exp, log, zech):
        arr.flags.writeable = False
    return LogTables(exp=exp, log=log, zech=zech, trace_mask=mask)


def values(T: LogTables, logs: list) -> np.ndarray:
    """log a(g^n) for n = 0..q-2 (-1 where a(g^n) = 0), g the primitive
    element of T, by Horner's rule over all n at once.

    logs are the coefficient logs of a, low-to-high, -1 for a zero
    coefficient; a is trimmed, so the leading one is nonzero.
    """
    m = len(T.exp)
    if not logs:
        return np.full(m, -1, dtype=np.int32)
    x = np.arange(m, dtype=np.int32)  # log of x = g^n
    acc = np.full(m, logs[-1], dtype=np.int32)
    for c in reversed(logs[:-1]):
        zero = acc < 0
        acc = (acc + x) % m  # acc * x; wrong where acc = 0, reset below
        if c >= 0:
            # acc + c = c * (1 + acc / c)
            z = T.zech[(acc - c) % m]
            acc = np.where(z < 0, z, (z + c) % m)
        acc[zero] = c  # 0 * x + c
    return acc


def poly_roots(spec: FieldSpec, a: list) -> list:
    """All roots of a in the field, without multiplicity, sorted by rep.

    a is evaluated at every nonzero element at once (values); 0 is a root
    when the constant coefficient is.

    >>> F = field_create(5)
    >>> [r.rep for r in poly_roots(F, poly_from_ints(F, [0, -1, 0, 1]))]
    [(0,), (1,), (4,)]
    """
    a = poly_trim(spec, list(a))
    if not a:
        raise ValueError("zero polynomial has every root")
    T = log_tables(spec)
    logs = [int(T.log[code(c)]) for c in a]
    roots = [from_code(spec, int(c)) for c in T.exp[values(T, logs) < 0]]
    if logs[0] < 0:
        roots.append(zero(spec))
    return sorted(roots, key=lambda r: r.rep)
