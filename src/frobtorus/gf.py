"""Arithmetic in small finite fields F_{p^k}, capped at p^k <= 2**20.

A field is presented as F_p[t]/(m(t)) with m the lexicographically smallest
monic irreducible polynomial of degree k (lex on the low-to-high coefficient
vector), so element representations agree bit-for-bit across runs and
machines.  An element is its integer code in [0, q): its rep, the
coefficients of t^0 .. t^(k-1) (``digits``), read as base-p digits, low
digit first.  Over a prime field the code is the residue itself.

Polynomials over the field are lists of codes, low-to-high, trimmed;
``padd``, ``pmul``, ``pderiv`` and ``pgcd`` are _fpx's own routines over a
prime field and schoolbook loops otherwise: a product of coefficients is
exp[log a + log b] in the field's log tables (below), exponents mod q - 1,
and a sum the XOR of the codes for p = 2 and their digit-wise sum mod p
for odd p.  The curve module runs its singularity checks on them.

For whole-field work ``log_tables`` holds int32 exp/log tables to a fixed
primitive element, the digits of each power and, for p = 2, its absolute
trace.  The tables are built by _fpx arithmetic on digit lists modulo the
field modulus, the one place where the package still multiplies digit
lists.
``evaluations`` evaluates a batch of polynomials over a field at every
element of its extensions F_{q^i}, i in a given tuple, by one exact matmul:
the F_p digits of the coefficient codes, which are the same for every i,
times a plan holding the digits of gamma_i^s x^j for every x of every
F_{q^i}, gamma_i the image of the field's generator (``generator_image``),
reduced mod p, then one recombination of digits into codes per field.
Point counting, singularity witnesses and root finding (``poly_roots``,
for gamma_i) all run on it, and no coefficient is embedded.
The plan depends on the field, the tuple and the number D of coefficients
alone, so it is built once, read-only, and kept whole in ``_PLANS``, whose
plans together hold at most PLAN_BYTES (4 MB), the oldest dropped first;
a plan past that budget is never kept, and each call builds its blocks of
x.  Either way each transient array stays near EVAL_BLOCK_BYTES (1 MB).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import _fpx
from .errors import NonPrime, SizeExceeded, clip

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
    # before the cache, which would file 3.0 or True under the key of 3 or 1
    if type(p) is not int or type(k) is not int:
        raise ValueError(f"p and k must be ints, got {clip(p)} and {clip(k)}")
    return _field_create(p, k)


@functools.lru_cache(maxsize=None)
def _field_create(p: int, k: int) -> FieldSpec:
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    # the cap comes first, so a field past it is refused by size whether or
    # not p is prime, and p**k is never computed for a large k
    if p > 1 and (p > SIZE_CAP or k > 20 or p ** k > SIZE_CAP):
        raise SizeExceeded(f"field size {clip(p)}^{k} exceeds 2^20")
    if not _fpx.is_prime(p):
        raise NonPrime(f"{clip(p)} is not prime")
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
# Elements as codes.  Over a prime field a code is the residue itself.

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


@functools.lru_cache(maxsize=None)
def _tables(spec: FieldSpec) -> tuple:
    # (exp, log, q - 1) of a proper extension, the tables as memoryviews: a
    # lookup returns a Python int, where a numpy scalar is several times
    # slower
    T = log_tables(spec)
    return memoryview(T.exp), memoryview(T.log), spec.q - 1


@functools.lru_cache(maxsize=None)
def _adder(spec: FieldSpec):
    # addition on the codes of a proper extension: XOR of the digit bits for
    # p = 2; for odd p the digit-wise sum mod p, digit i of a being
    # (a // p^i) mod p
    if spec.p == 2:
        return operator.xor
    p, places = spec.p, tuple(spec.p ** i for i in range(spec.k))

    def add(a: int, b: int) -> int:
        out = 0
        for m in places:
            out += (a // m + b // m) % p * m
        return out

    return add


# ---------------------------------------------------------------------------
# F_q[x] on code lists, low-to-high, trimmed.  Over a prime field a code is
# the residue itself and these are _fpx's routines; over F_{p^k} they run
# schoolbook loops on the log tables, fetched once per call.

def padd(spec: FieldSpec, a: list, b: list) -> list:
    if spec.k == 1:
        return _fpx.add(a, b, spec.p)
    add = _adder(spec)
    return _fpx.trim([add(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def pmul(spec: FieldSpec, a: list, b: list) -> list:
    if spec.k == 1:
        return _fpx.mul(a, b, spec.p)
    if not a or not b:
        return []
    exp, log, n = _tables(spec)
    add = _adder(spec)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], exp[(log[x] + log[y]) % n])
    return _fpx.trim(out)


def pderiv(spec: FieldSpec, a: list) -> list:
    if spec.k == 1:
        return _fpx.deriv(a, spec.p)
    exp, log, n = _tables(spec)
    p = spec.p
    return _fpx.trim([
        exp[(log[i % p] + log[a[i]]) % n] if i % p and a[i] else 0
        for i in range(1, len(a))
    ])


def pgcd(spec: FieldSpec, a: list, b: list) -> list:
    """Monic greatest common divisor."""
    if spec.k == 1:
        return _fpx.gcd(a, b, spec.p)
    exp, log, n = _tables(spec)
    add = _adder(spec)
    minus_one = log[spec.p - 1]
    a, b = _fpx.trim(list(a)), _fpx.trim(list(b))
    while b:
        # a mod b: add c x^d b, c = -lead(a) / lead(b), until deg a < deg b;
        # logs throughout, -1 for a zero coefficient of b
        lb = [log[y] for y in b]
        shift = minus_one - lb[-1]
        while len(a) >= len(b):
            lc, d = log[a[-1]] + shift, len(a) - len(b)
            for i, ly in enumerate(lb):
                if ly >= 0:
                    a[d + i] = add(a[d + i], exp[(lc + ly) % n])
            _fpx.trim(a)
        a, b = b, a
    if not a:
        return a
    shift = -log[a[-1]]
    return [exp[(shift + log[c]) % n] if c else 0 for c in a]


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


def _linear_map(spec: FieldSpec, codes: np.ndarray, images):
    """The F_p-linear map of spec that sends t^i to the code images[i],
    applied to an int array of codes."""
    # int64 holds the digit products, up to (p-1)^2 < 2^40 when k = 1
    p = spec.p
    rows = np.array([digits(spec, c) for c in images], dtype=np.int64)
    powers = p ** np.arange(spec.k, dtype=np.int64)
    ds = codes.astype(np.int64)[:, None] // powers % p
    return ds @ rows % p @ powers


@functools.lru_cache(maxsize=None)
def log_tables(spec: FieldSpec) -> LogTables:
    """Log tables of spec; built once per field: 8 q bytes, plus the q k
    digits of exp_digits (one byte each for p < 256) and, for p = 2, the
    q bytes of exp_trace."""
    p, k, q, m = spec.p, spec.k, spec.q, spec.q - 1
    # the polynomial routines read these tables, so their bootstrap
    # multiplies digit lists with _fpx modulo the field modulus
    modulus = list(spec.modulus)

    def times(a: int, b: int) -> int:
        return code(spec, _fpx.mul_rem(digits(spec, a), digits(spec, b), modulus, p))

    for g in range(1, q):
        if all(_fpx.pow_mod(list(digits(spec, g)), m // r, modulus, p) != [1]
               for r in _fpx.prime_divisors(m)):
            break
    exp = np.empty(m, dtype=np.int32)
    exp[0] = 1
    filled = 1
    while filled < m:
        step = min(filled, _BLOCK, m - filled)
        g_pow = times(int(exp[filled - 1]), g)  # g^filled
        images = [times(g_pow, p ** i) for i in range(k)]
        exp[filled:filled + step] = _linear_map(spec, exp[:step], images)
        filled += step
    log = np.full(q, -1, dtype=np.int32)
    log[exp] = np.arange(m, dtype=np.int32)
    exp_digits = np.empty((k, m), dtype=np.min_scalar_type(p - 1))
    for r in range(k):
        exp_digits[r] = exp // p ** r % p
    exp_trace = None
    if p == 2:
        # the trace is F_2-linear, so Tr(g^n) is the parity of the digits
        # of g^n at the i with Tr(t^i) = 1; Tr(t^i) is the sum of the k
        # conjugates g^(n 2^j) of t^i = g^n, read off exp
        exp_trace = np.zeros(m, dtype=np.int8)
        for i in range(k):
            n, tr = int(log[1 << i]), 0  # t^i = g^n
            for _ in range(k):
                tr ^= int(exp[n])
                n = 2 * n % m
            if tr:  # Tr(t^i) is 0 or 1
                exp_trace ^= exp_digits[i].astype(np.int8)
    for arr in (exp, log, exp_digits) + ((exp_trace,) if p == 2 else ()):
        arr.flags.writeable = False
    return LogTables(exp, log, exp_digits, exp_trace)


# evaluations takes x in blocks sized so that each transient array of a
# block stays near this many bytes
EVAL_BLOCK_BYTES = 1 << 20

# the most bytes the cached plans may hold together (_plan); a larger
# right-hand factor is built block by block in each call instead
PLAN_BYTES = 1 << 22

# (base, exts, D) -> the read-only plan of that key, oldest first
_PLANS: dict = {}


@functools.lru_cache(maxsize=None)
def generator_image(base: FieldSpec, ext: FieldSpec) -> int:
    """The code in ext of the image of base's generator t under the
    embedding of base (k > 1) into its extension ext: t itself when ext is
    base, else the first root by rep of base's modulus in ext."""
    if ext.p != base.p or ext.k % base.k:
        raise ValueError(f"no embedding of {base!r} into {ext!r}")
    if ext == base:
        return code(ext, [0, 1])
    return poly_roots(field_create(base.p), base.modulus, ext.k)[0]


def _dtype(base: FieldSpec, D: int):
    # every product and partial sum of evaluations' matmul is an integer,
    # exact below 2^24 in float32 and 2^53 in float64.  A sum has D k digit
    # products of at most (p-1)^2, but the x^0 t^0 row holds the digits of
    # 1, so its product is at most p-1
    p = base.p
    top = (p - 1) * ((D * base.k - 1) * (p - 1) + 1)
    return np.float32 if top < 1 << 24 else np.float64


def _fill(out: np.ndarray, base: FieldSpec, i: int, start: int) -> None:
    # out[j k + s, r, n] = digit r of gamma^s x^j in F_{q^i}, x = start + n
    # and gamma the image of base's generator, read off the logs; at x = 0
    # (log -1) the log is right for j = 0 only, and 0^j, j > 0, is reset to 0
    k = base.k
    ext = field_create(base.p, k * i)
    T = log_tables(ext)
    lg = int(T.log[generator_image(base, ext)]) if k > 1 else 0
    lx = T.log[start:start + out.shape[2]].astype(np.int64)
    D = out.shape[0] // k
    logs = (np.arange(D)[:, None, None] * lx + lg * np.arange(k)[:, None]) % (ext.q - 1)
    d = np.take(T.exp_digits, logs, axis=1)  # (K, D, k, X)
    if start == 0:
        d[:, 1:, :, 0] = 0
    out[...] = d.transpose(1, 2, 0, 3).reshape(out.shape)


def _plan(base: FieldSpec, exts: tuple, D: int) -> np.ndarray | None:
    """The read-only right-hand factor of evaluations for (base, exts, D)
    whole, built in place once per key and kept in _PLANS, or None when its
    bytes exceed PLAN_BYTES.  The oldest plans are dropped first until the
    new one fits PLAN_BYTES with the rest.  F_{q^i}'s part is K q^i
    columns, K = k i, in the order of exts; its column r q^i + x holds
    digit r of gamma^s x^j in row j k + s."""
    key = (base, exts, D)
    plan = _PLANS.get(key)
    if plan is None:
        k, q = base.k, base.q
        dtype = _dtype(base, D)
        cols = sum(k * i * q ** i for i in exts)
        size = D * k * cols * np.dtype(dtype).itemsize
        if size > PLAN_BYTES:
            return None
        plan = np.empty((D * k, cols), dtype)
        a = 0
        for i in exts:
            K, Q = k * i, q ** i
            part = plan[:, a:a + K * Q].reshape(D * k, K, Q)
            step = max(1, EVAL_BLOCK_BYTES // (8 * D * k * K))
            for start in range(0, Q, step):
                _fill(part[:, :, start:start + step], base, i, start)
            a += K * Q
        plan.flags.writeable = False
        # after the build, which may keep a plan of its own for gamma
        while size + sum(kept.nbytes for kept in _PLANS.values()) > PLAN_BYTES:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = plan
    return plan


def _blocks(base: FieldSpec, exts: tuple, D: int, B: int, dtype):
    # (right, parts) per matmul of evaluations: right a (D k, K', X')
    # factor and parts its (i, start, X) runs of K X columns, K = k i, in
    # the order of its flattened columns.  A cached plan is one factor for
    # every F_{q^i} when B rows of values fit EVAL_BLOCK_BYTES, and is
    # otherwise sliced into views of X elements of one field; past the
    # budget each such block is built here
    k, q = base.k, base.q
    plan = _plan(base, exts, D)
    if plan is not None and 8 * B * plan.shape[1] <= EVAL_BLOCK_BYTES:
        yield plan[:, None, :], [(i, 0, q ** i) for i in exts]
        return
    # the values take B rows, and a block built here D k rows more
    rows = B if plan is not None else max(B, D * k)
    a = 0
    for i in exts:
        K, Q = k * i, q ** i
        step = max(1, EVAL_BLOCK_BYTES // (8 * K * rows))
        for start in range(0, Q, step):
            X = min(step, Q - start)
            if plan is not None:
                right = plan[:, a:a + K * Q].reshape(D * k, K, Q)[:, :, start:start + X]
            else:
                right = np.empty((D * k, K, X), dtype)
                _fill(right, base, i, start)
            yield right, [(i, start, X)]
        a += K * Q


def evaluations(base: FieldSpec, exts, coeffs: np.ndarray):
    """The values of a batch of polynomials over base at every x of
    F_{q^i}, for each i in exts, by blocks of x.

    coeffs is a (B, D) int array of codes of base: coeffs[b, j] is the x^j
    coefficient of polynomial b.  Yields (i, start, values), values[b, n]
    the code in F_{q^i} of polynomial b at x = start + n; the blocks of
    each field tile it in code order, and the fields come in the order of
    exts.

    A code c of base is sum_s c_s t^s with F_p digits c_s, and t goes to
    gamma_i in F_{q^i} (generator_image), so the digits of a value are
    sum_(j,s) c_(j,s) digits(gamma_i^s x^j): one matmul of the (B, D k)
    digits of the coefficients, the same for every i, by the plan, which
    holds the digits of gamma_i^s x^j for every i and x (_plan), reduced
    mod p, then one recombination of K = k i digits per field.  The plan
    depends on (base, exts, D) alone and is kept whole within PLAN_BYTES;
    a small batch then takes it in one matmul, and a larger one by views
    of it.  Past that budget each call builds its blocks.
    Either way each transient array stays near EVAL_BLOCK_BYTES.  The
    matmul is exact in floats (_dtype); einsum runs it on one thread,
    where a BLAS call can stall on waking idle threads.
    """
    p, k = base.p, base.k
    B, D = coeffs.shape
    exts = tuple(exts)
    for i in exts:
        field_create(p, k * i)  # SizeExceeded before any work
    dtype = _dtype(base, D)
    left = coeffs if k == 1 else coeffs[..., None] // p ** np.arange(k) % p
    left = left.reshape(B, D * k).astype(dtype)
    for right, parts in _blocks(base, exts, D, B, dtype):
        vals = np.einsum("ij,jrx->irx", left, right)
        vals = vals.reshape(B, vals.shape[1] * vals.shape[2])
        vals -= p * np.floor(vals / p)
        a = 0
        for i, start, X in parts:
            K = k * i
            ds = vals[:, a:a + K * X].reshape(B, K, X)
            if K > 1:
                codes = np.einsum("brx,r->bx", ds, p ** np.arange(K, dtype=dtype))
            else:
                codes = ds[:, 0]
            yield i, start, codes.astype(np.intp)
            a += K * X


def poly_roots(base: FieldSpec, a, m: int = 1) -> list:
    """The codes of all roots in F_{q^m} of a, a code list of base, without
    multiplicity, sorted by rep, from a's value at every x (evaluations).

    >>> F = field_create(3, 2)
    >>> [digits(F, r) for r in poly_roots(F, [0, 1, 0, 1])]  # x^3 + x
    [(0, 0), (0, 1), (0, 2)]
    >>> poly_roots(field_create(3), [1, 0, 1], 2)  # x^2 + 1 over F_9
    [3, 6]
    """
    a = _fpx.trim(list(a))
    if not a:
        raise ValueError("zero polynomial has every root")
    ext = field_create(base.p, base.k * m)
    roots = []
    for _, start, vals in evaluations(base, (m,), np.array([a], dtype=np.int64)):
        roots += (np.flatnonzero(vals[0] == 0) + start).tolist()
    return sorted(roots, key=lambda r: digits(ext, r))
