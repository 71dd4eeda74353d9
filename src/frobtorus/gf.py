"""Arithmetic in small finite fields F_{p^k}, capped at p^k <= 2**20.

A field is presented as F_p[t]/(m(t)) with m the lexicographically smallest
monic irreducible polynomial of degree k (lex on the low-to-high coefficient
vector), so element representations agree bit-for-bit across runs and
machines.  An element is its integer code in [0, q): its rep, the
coefficients of t^0 .. t^(k-1) (``digits``), read as base-p digits, low
digit first.  Over a prime field the code is the residue itself.

Scalar arithmetic on codes (``add``, ``mul``, ``power``, ``evaluate``) is
_fpx arithmetic on the digit lists modulo the field modulus.  Polynomials
over the field are lists of codes, low-to-high, trimmed; ``padd``,
``pmul``, ``pderiv`` and ``pgcd`` are _fpx's own routines over a prime
field and one schoolbook Euclid on the scalar operations otherwise, and the
curve module runs its singularity checks on them.

For whole-field work ``log_tables`` holds int32 exp/log tables to a fixed
primitive element, the digits of each power and, for p = 2, its absolute
trace.  ``evaluations`` evaluates a batch of polynomials, given as codes of
the field itself, at every element, block by block of x, by one exact
matmul per block; point counting and root finding (``poly_roots``:
singularity witnesses, coefficient embeddings) both run on it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import _fpx
from .errors import NonPrime, SizeExceeded

SIZE_CAP = 1 << 20


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
    # the cap comes first, so a field past it is refused by size whether or
    # not p is prime, and p**k is never computed for a large k
    if p > 1 and (p > SIZE_CAP or k > 20 or p ** k > SIZE_CAP):
        raise SizeExceeded(f"field size {p}^{k} exceeds 2^20")
    if not _fpx.is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    # constant term 0 means divisible by x; skipping keeps lex order intact.
    # ddf assumes a squarefree input, but a square factor u**2 of m has
    # deg u <= k/2, where ddf splits u off, so m comes back as one block of
    # degree k only when it is irreducible
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=k - 1):
            m = [c0] + list(rest) + [1]
            if _fpx.ddf(m, p) == [(k, m)]:
                return FieldSpec(p, k, tuple(m))
    raise AssertionError("unreachable: every degree has an irreducible")


# ---------------------------------------------------------------------------
# Elements as codes.  Every scalar operation is _fpx arithmetic on the digit
# lists, modulo the field modulus.

def code(spec: FieldSpec, coeffs) -> int:
    """Code of the element sum c_i t^i; the ints are reduced mod p, then
    mod the field modulus.

    >>> code(field_create(3, 2), [4, -1])  # 1 + 2t
    7
    """
    p = spec.p
    cs = [c % p for c in coeffs]
    if len(cs) > spec.k:
        cs = _fpx.rem(_fpx.trim(cs), list(spec.modulus), p)
    out = 0
    for d in reversed(cs):
        out = out * p + d
    return out


def digits(spec: FieldSpec, n: int) -> tuple:
    """The rep of code n: its k base-p digits, low first."""
    p, out = spec.p, []
    for _ in range(spec.k):
        out.append(n % p)
        n //= p
    return tuple(out)


def add(spec: FieldSpec, a: int, b: int) -> int:
    return code(spec, [x + y for x, y in zip(digits(spec, a), digits(spec, b))])


def mul(spec: FieldSpec, a: int, b: int) -> int:
    return code(spec, _fpx.mul(digits(spec, a), digits(spec, b), spec.p))


def power(spec: FieldSpec, a: int, e: int) -> int:
    """a**e for e >= 0."""
    m = list(spec.modulus)
    return code(spec, _fpx.pow_mod(list(digits(spec, a)), e, m, spec.p))


def evaluate(spec: FieldSpec, a: list, x: int) -> int:
    """a(x) by Horner's rule; a is a code list, low-to-high."""
    acc = 0
    for c in reversed(a):
        acc = add(spec, mul(spec, acc, x), c)
    return acc


# ---------------------------------------------------------------------------
# F_q[x] on code lists, low-to-high, trimmed.  Over a prime field a code is
# the residue itself and these are _fpx's routines; over F_{p^k} they run
# the same schoolbook loops on the scalar operations above.

def padd(spec: FieldSpec, a: list, b: list) -> list:
    if spec.k == 1:
        return _fpx.add(a, b, spec.p)
    pairs = itertools.zip_longest(a, b, fillvalue=0)
    return _fpx.trim([add(spec, x, y) for x, y in pairs])


def pmul(spec: FieldSpec, a: list, b: list) -> list:
    if spec.k == 1:
        return _fpx.mul(a, b, spec.p)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = add(spec, out[i + j], mul(spec, x, y))
    return _fpx.trim(out)


def pderiv(spec: FieldSpec, a: list) -> list:
    if spec.k == 1:
        return _fpx.deriv(a, spec.p)
    return _fpx.trim([mul(spec, i % spec.p, a[i]) for i in range(1, len(a))])


def pgcd(spec: FieldSpec, a: list, b: list) -> list:
    """Monic greatest common divisor."""
    if spec.k == 1:
        return _fpx.gcd(a, b, spec.p)
    a, b = list(a), list(b)
    while b:
        # a mod b: add c x^d b, c = -lead(a) / lead(b), until deg a < deg b
        minus_inv = mul(spec, spec.p - 1, power(spec, b[-1], spec.q - 2))
        while len(a) >= len(b):
            c, d = mul(spec, a[-1], minus_inv), len(a) - len(b)
            for i, y in enumerate(b):
                a[d + i] = add(spec, a[d + i], mul(spec, c, y))
            _fpx.trim(a)
        a, b = b, a
    if not a:
        return a
    inv = power(spec, a[-1], spec.q - 2)
    return [mul(spec, inv, c) for c in a]


# ---------------------------------------------------------------------------
# Whole-field evaluation.

@dataclass(frozen=True, eq=False)
class LogTables:
    """Discrete logarithms of F_q to a primitive element g, the first in code
    order (so exp[1] is its code when q > 2).

    exp[n] is the code of g^n (n < q-1) and exp_digits[:, n] its rep, in
    the narrowest unsigned dtype that holds p-1; log[c] is the n with
    exp[n] = c, and log[0] = -1.  For p = 2, exp_trace[n] is the absolute
    trace Tr(g^n), 0 or 1; for odd p it is None.  The arrays are read-only.
    """

    exp: np.ndarray
    log: np.ndarray
    exp_digits: np.ndarray
    exp_trace: np.ndarray | None


# the exp table grows in blocks of at most this many elements; each block
# multiplies a prefix by a constant through a (block x k) digit matrix
_BLOCK = 1 << 14


def linear_map(src: FieldSpec, dst: FieldSpec, codes: np.ndarray, images):
    """The F_p-linear map from codes of src to codes of dst that sends t^i
    to the code images[i], applied to an int array of codes."""
    # int64 holds the digit products, up to (p-1)^2 < 2^40 when k = 1
    p = src.p
    rows = np.array([digits(dst, c) for c in images], dtype=np.int64)
    powers = p ** np.arange(src.k, dtype=np.int64)
    ds = codes.astype(np.int64)[:, None] // powers % p
    return ds @ rows % p @ p ** np.arange(dst.k, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def log_tables(spec: FieldSpec) -> LogTables:
    """Log tables of spec; built once per field: 8 q bytes, plus the q k
    digits of exp_digits (one byte each for p < 256) and, for p = 2, the
    q bytes of exp_trace."""
    p, k, q, m = spec.p, spec.k, spec.q, spec.q - 1
    for g in range(1, q):
        if all(power(spec, g, m // r) != 1 for r in _fpx.prime_divisors(m)):
            break
    exp = np.empty(m, dtype=np.int32)
    exp[0] = 1
    filled = 1
    while filled < m:
        step = min(filled, _BLOCK, m - filled)
        g_pow = mul(spec, int(exp[filled - 1]), g)  # g^filled
        images = [mul(spec, g_pow, p ** i) for i in range(k)]
        exp[filled:filled + step] = linear_map(spec, spec, exp[:step], images)
        filled += step
    log = np.full(q, -1, dtype=np.int32)
    log[exp] = np.arange(m, dtype=np.int32)
    exp_digits = np.empty((k, m), dtype=np.min_scalar_type(p - 1))
    for r in range(k):
        exp_digits[r] = exp // p ** r % p
    exp_trace = None
    if p == 2:
        # the trace is F_2-linear, so Tr(g^n) is the parity of the digits
        # of g^n at the i with Tr(t^i) = 1
        exp_trace = np.zeros(m, dtype=np.int8)
        for i in range(k):
            a = tr = 1 << i  # t^i
            for _ in range(k - 1):
                a = mul(spec, a, a)
                tr ^= a
            if tr:  # Tr(t^i) is 0 or 1
                exp_trace ^= exp_digits[i].astype(np.int8)
    for arr in (exp, log, exp_digits) + ((exp_trace,) if p == 2 else ()):
        arr.flags.writeable = False
    return LogTables(exp, log, exp_digits, exp_trace)


# evaluations takes x in blocks sized so that each transient array of a
# block stays near this many bytes
EVAL_BLOCK_BYTES = 1 << 20


def evaluations(spec: FieldSpec, coeffs: np.ndarray):
    """The values of a batch of polynomials at every x of spec, by blocks
    of x in code order.

    coeffs is a (B, D) int array of codes of spec: coeffs[b, j] is the x^j
    coefficient of polynomial b.  Yields (start, values), values[b, n] the
    code of polynomial b at x = start + n, for start = 0, X, 2X, ... below q.

    Multiplication by c is F_p-linear: digits(c y) = M(c) digits(y), where
    column s of M(c) is the digits of c t^s, read off the log tables.  So
    the digits of the values are one matmul per block, the (B*K, K*D)
    matrix of the coefficients' M(c) times the (K*D, X) digits of x^j,
    reduced mod p.  Every product and sum is an integer below 2^24
    (float32) or 2^53 (float64), so the float matmul is exact; einsum runs
    it on one thread, where a BLAS call can stall on waking idle threads.
    """
    p, K, q = spec.p, spec.k, spec.q
    B, D = coeffs.shape
    T = log_tables(spec)
    digits_of = T.exp_digits  # (K, q-1): digit r of g^n at [r, n]
    # m[r, b, j, s]: digit r of coeffs[b, j] t^s, that is M(coeffs[b, j])[r, s]
    lc = T.log[coeffs]
    m = np.take(digits_of, (lc[..., None] + T.log[p ** np.arange(K)]) % (q - 1),
                axis=1)
    m[:, lc < 0] = 0
    dtype = np.float32 if K * D * (p - 1) ** 2 < 1 << 24 else np.float64
    left = m.transpose(1, 0, 3, 2).reshape(B * K, K * D).astype(dtype)
    js = np.arange(D, dtype=np.int32)[:, None]
    powers = (p ** np.arange(K)).astype(dtype)
    step = max(1, EVAL_BLOCK_BYTES // (8 * K * max(D, B)))
    for start in range(0, q, step):
        # the log of x^j; at x = 0 (log -1) it is right for j = 0 only, and
        # the digits of 0^j, j > 0, are reset to 0
        logs = js * T.log[start:start + step] % (q - 1)
        right = np.take(digits_of, logs, axis=1)  # (K, D, X)
        if start == 0:
            right[:, 1:, 0] = 0
        vals = np.einsum("ij,jk->ik", left, right.reshape(K * D, -1).astype(dtype))
        vals -= p * np.floor(vals / p)
        yield start, np.einsum("brx,r->bx", vals.reshape(B, K, -1), powers).astype(
            np.intp
        )


def poly_roots(spec: FieldSpec, a: list) -> list:
    """The codes of all roots of a (a code list) in the field, without
    multiplicity, sorted by rep, from a's value at every x (evaluations).

    >>> F = field_create(3, 2)
    >>> [digits(F, r) for r in poly_roots(F, [0, 1, 0, 1])]  # x^3 + x
    [(0, 0), (0, 1), (0, 2)]
    """
    a = _fpx.trim(list(a))
    if not a:
        raise ValueError("zero polynomial has every root")
    roots = []
    for start, vals in evaluations(spec, np.array([a], dtype=np.int64)):
        roots += (np.flatnonzero(vals[0] == 0) + start).tolist()
    return sorted(roots, key=lambda r: digits(spec, r))
