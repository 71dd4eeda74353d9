"""Hyperelliptic curves y^2 + h(x) y = f(x) over small finite fields.

Coefficients are the integer codes of gf, low-to-high, everywhere: in the
curve value, in validation, in counting and in the curve text.
Validation enforces the smooth-affine-model conditions (squarefree f with
h = 0 in odd characteristic; the h-root criterion in characteristic 2) by
one gcd d in F_q[x] (gf.pgcd), whose roots are exactly the singular x.  A
singular equation raises Singular at once; its witness point, the first
root of d by rep over the first F_{q^m} that holds one, is searched for
only when the exception's witness is first read.  validate_curve is the
door for outside input, and the only maker of HyperellipticCurve values.
A survey decides its equations a block at a time instead, on coefficient
arrays (smoothness_gcd_degrees: the degree of the same gcd for every row
of two code arrays over F_p, by one lockstep Euclid in numpy), so it
builds no curve, no Singular, and never searches.  Counting is batched on
the same kind of arrays (count_batch(base, g, h, f)): the f (and h) rows
are evaluated at every x of every F_{q^i}, i = 1..g, by one
gf.evaluations call on their base-field codes (one matmul of their
digits by a plan gf builds once per base field, genus and number of
coefficients, and keeps within gf.PLAN_BYTES), and the y over each
x are counted from the value alone: by the table n[c] = #{y : y^2 = c}
of F_{q^i} in odd characteristic, by the absolute trace of f/h^2 in
characteristic 2.  The points at infinity of the smooth model are
counted from column 2g+2 of f and column g+1 of h, in F_q alone
(_counts).
count_points and counts_up_to_genus pass the rows of their one curve.

A base-field polynomial is evaluated over F_{q^m} on its own codes, the
generator going to the lexicographically first root of the base modulus
(gf.generator_image), so there is one embedding of F_q into each F_{q^m},
and no code is mapped on its own: a singular curve's witness reads its x
off the values of d, and its y = sqrt(f(x)) off those of f, from one
gf.evaluations call on the two rows.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import _fpx, gf
from .errors import (
    BadDegrees,
    InvariantViolation,
    NonPrime,
    ParseError,
    Singular,
    WeilBoundViolated,
    clip,
)


@dataclass(frozen=True)
class HyperellipticCurve:
    base: gf.FieldSpec
    h: tuple  # coefficient codes, low-to-high, trimmed
    f: tuple  # coefficient codes, low-to-high, monic
    genus: int


@dataclass(frozen=True)
class PointCounts:
    q: int
    g: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.g:
            raise InvariantViolation(
                f"genus {self.g} needs {self.g} point counts, not {len(self.counts)}"
            )
        for i, n in enumerate(self.counts, start=1):
            qi = self.q ** i
            if (n - (qi + 1)) ** 2 > 4 * self.g * self.g * qi:
                raise WeilBoundViolated(
                    f"N_{i} = {clip(n)} violates |N - (q^{i}+1)| <= 2g*sqrt(q^{i})"
                )


def genus_for_degree(d: int) -> int:
    """Genus of a smooth model with deg f = d (d = 2g+1 or 2g+2)."""
    return (d + 1) // 2 - 1


def validate_curve(base: gf.FieldSpec, h, f, g: int) -> HyperellipticCurve:
    """Check degrees and nonsingularity; normalize into a curve value.

    h and f are sequences of int coefficient codes in [0, q), low-to-high;
    any other coefficient, a bool included, raises ValueError.  A genus
    that is not an int, a bool included, raises BadDegrees.
    """
    h = _fpx.trim(list(h))
    f = _fpx.trim(list(f))
    cs = h + f
    if not all(map(isinstance, cs, itertools.repeat(int))) or (
        any(map(isinstance, cs, itertools.repeat(bool)))
        or cs and (min(cs) < 0 or max(cs) >= base.q)
    ):
        raise ValueError(f"coefficient codes must be ints in [0, {base.q})")
    if type(g) is not int or g < 1:
        raise BadDegrees(f"genus must be an int >= 1, got {clip(g)}")
    df = len(f) - 1
    if df not in (2 * g + 1, 2 * g + 2):
        raise BadDegrees(f"deg f = {df}, need 2g+1 = {2 * g + 1} or 2g+2")
    if f[-1] != 1:
        raise BadDegrees("f must be monic")
    if len(h) - 1 > g + 1:
        raise BadDegrees(f"deg h = {len(h) - 1} exceeds g+1 = {g + 1}")
    if base.p != 2:
        if h:
            raise BadDegrees("h must be zero in odd characteristic")
        d = gf.pgcd(base, f, gf.pderiv(base, f))
        why = "f has a repeated root"
    else:
        if not h:
            raise BadDegrees("h must be nonzero in characteristic 2")
        # the test below, squared, is h'(x0)^2 f(x0) = f'(x0)^2 at a root x0
        # of h, and squaring is injective, so the singular x are exactly the
        # roots of gcd(h, h'^2 f + f'^2)
        hd, fd = gf.pderiv(base, h), gf.pderiv(base, f)
        test = gf.padd(
            base, gf.pmul(base, gf.pmul(base, hd, hd), f), gf.pmul(base, fd, fd)
        )
        d = gf.pgcd(base, h, test)
        why = "singular point on the affine model"
    if len(d) > 1:
        raise Singular(why, witness=lambda: _singular_point(base, d, f))
    return HyperellipticCurve(base=base, h=tuple(h), f=tuple(f), genus=g)


def _singular_point(base: gf.FieldSpec, d: list, f: list):
    # (m, x, y): x the first root by rep of the smoothness gcd d over
    # F_{q^m}, y = 0 in odd characteristic and sqrt(f(x)) in characteristic
    # 2, read off d's and f's values at every x.  Odd characteristic
    # searches F_q only (None without a root there); in characteristic 2
    # some m <= deg d has a root
    rows = np.zeros((2, len(f)), dtype=np.int64)
    rows[0, :len(d)], rows[1] = d, f
    for m in range(1, len(d) if base.p == 2 else 2):
        ext = gf.field_create(base.p, base.k * m)
        f_at = {}  # each root of d -> f there
        for _, start, vals in gf.evaluations(base, (m,), rows):
            for n in np.flatnonzero(vals[0] == 0).tolist():
                f_at[start + n] = int(vals[1, n])
        if f_at:
            x0 = min(f_at, key=lambda x: gf.digits(ext, x))
            y0 = 0
            if base.p == 2 and f_at[x0]:
                # y^(q^m) = y, so y = f(x)^(q^m/2) squares to f(x)
                T = gf.log_tables(ext)
                y0 = int(T.exp[int(T.log[f_at[x0]]) * (ext.q // 2) % (ext.q - 1)])
            return m, gf.digits(ext, x0), gf.digits(ext, y0)
    return None


def smoothness_gcd_degrees(p: int, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The degree of validate_curve's smoothness gcd over the prime field
    F_p for each row of the (B, W) low-to-high code arrays h and f: a row's
    equation is singular exactly when its degree is positive.

    Odd p takes gcd(f, f') and ignores h; p = 2 takes gcd(h, h'^2 f + f'^2).
    Rows may carry trailing zero coefficients, and the degrees of their
    polynomials may differ from row to row.
    """
    fd = _rows_deriv(f, p)
    if p != 2:
        return _gcd_degrees(f, fd, p)
    hd = _rows_deriv(h, p)
    a, b = _rows_mul(_rows_mul(hd, hd, p), f, p), _rows_mul(fd, fd, p)
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    a[:, :b.shape[1]] += b
    return _gcd_degrees(a % p, h, p)


def _rows_deriv(a: np.ndarray, p: int) -> np.ndarray:
    # the derivative of each row, one column narrower
    return a[:, 1:] * np.arange(1, a.shape[1]) % p


def _rows_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # the product of each row of a with the same row of b, one column per
    # term of a
    out = np.zeros((len(a), max(a.shape[1] + b.shape[1] - 1, 0)), dtype=np.int64)
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i:i + 1] * b
    return out % p


def _gcd_degrees(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """deg gcd(a_r, b_r) over F_p for each row r (-1 where both are 0).

    One Euclid runs on every row in lockstep, on formal degrees da and db,
    with each row's coefficients held top first.  A step first swaps the
    rows with da < db, then strips B's zero top where it has one, and
    elsewhere replaces A by lead(B) A - lead(A) x^(da-db) B, whose x^da
    term cancels; lead(B) is a unit, so the gcd is unchanged.  Either
    action lowers da + db by one, so da + db + 2 steps empty every B, and
    A is then the gcd.
    """
    n, da, db = len(a), a.shape[1] - 1, b.shape[1] - 1
    steps = da + db + 2
    A = np.zeros((n, max(da, db) + 1), dtype=np.int64)
    B = np.zeros_like(A)
    A[:, :da + 1] = a[:, ::-1]
    B[:, :db + 1] = b[:, ::-1]
    da, db = np.full(n, da), np.full(n, db)
    zero = np.zeros((n, 1), dtype=np.int64)
    for _ in range(steps):
        swap = (da < db)[:, None]
        A, B = np.where(swap, B, A), np.where(swap, A, B)
        da, db = np.maximum(da, db), np.minimum(da, db)
        la, lb = A[:, :1], B[:, :1]
        strip = lb == 0
        reduced = (lb * A[:, 1:] - la * B[:, 1:]) % p
        A = np.where(strip, A, np.concatenate((reduced, zero), axis=1))
        B = np.where(strip, np.concatenate((B[:, 1:], zero), axis=1), B)
        strip = strip[:, 0]
        da = da - ~strip
        db = db - strip
    nonzero = A != 0
    return np.where(nonzero.any(axis=1), da - nonzero.argmax(axis=1), -1)


@functools.lru_cache(maxsize=None)
def _square_root_counts(ext: gf.FieldSpec) -> np.ndarray:
    # n[c] = #{y : y^2 = c} over ext, odd p: one root of 0, two of a nonzero
    # square (even log), none otherwise; read-only int8
    log = gf.log_tables(ext).log
    n = np.where(log < 0, 1, 2 - 2 * (log & 1)).astype(np.int8)
    n.flags.writeable = False
    return n


def _trace_solutions(T: gf.LogTables, hv, fv) -> np.ndarray:
    """Per row, the sum over its x of #{y : y^2 + h(x) y = f(x)} in
    characteristic 2, from the value codes hv and fv."""
    # h(x) = 0: squaring is bijective, one y.  Otherwise y = h(x) z turns the
    # equation into z^2 + z = f/h^2, solvable (twice) iff Tr(f/h^2) = 0.
    lf, lh = T.log[fv], T.log[hv]
    trace = T.exp_trace[(lf - 2 * lh) % len(T.exp)]  # wrong where f or h is 0
    return np.where(lh < 0, 1, np.where(lf < 0, 2, 2 - 2 * trace)).sum(axis=1)


def count_batch(base: gf.FieldSpec, g: int, h: np.ndarray, f: np.ndarray) -> list:
    """(N_1, ..., N_g) of the curve of genus g over base on each row of the
    int64 (B, W) code arrays h and f, as int lists, without the Weil-bound
    check.

    Rows are low-to-high and may carry trailing zeros: each f row is monic
    of degree 2g+1 or 2g+2, and in odd characteristic h is (B, 0).  F_{q^g}
    is built before any counting, so a batch whose largest field is past
    the size cap raises SizeExceeded at once.  All g fields are counted by
    one gf.evaluations call on the rows' own codes (_counts), whose plan
    gf keeps per (base, g, coefficient width) within gf.PLAN_BYTES.
    """
    gf.field_create(base.p, base.k * g)
    return _counts(base, g, h, f, range(1, g + 1)).tolist()


def _counts(base: gf.FieldSpec, g: int, h: np.ndarray, f: np.ndarray,
            indices) -> np.ndarray:
    """N_i of each row (rows) for each i in indices (columns).

    Every f, and every h for p = 2, is evaluated over each F_{q^i} by one
    gf.evaluations call on the base-field codes, so no coefficient array
    is embedded; the y over each x are then counted from the value codes:
    for odd p by the table n[c] = #{y : y^2 = c} of F_{q^i}, for p = 2 by
    the trace rule.  A column for x = infinity is added: a degree-(2g+2)
    model has the fibre y^2 + h_{g+1} y = lead f = 1 there, and a
    degree-(2g+1) model one point, which f = h = 0 gives.  That fibre is
    defined over F_q, so for p = 2 it is counted on F_q's own tables: for
    c in F_q, Tr_{F_{q^i}/F_2}(c) = Tr_{F_q/F_2}(i c) = i Tr_{F_q/F_2}(c)
    mod 2, so an odd i has the fibre's points over F_q, and an even i two
    where h_{g+1} is nonzero and one elsewhere.
    """
    p, B = base.p, len(f)
    # 1 for a degree-(2g+2) model, else 0; for p = 2, h_{g+1} of the former,
    # else 0.  Past column 2g+2 of f and g+1 of h a row holds only zeros, so
    # a row's sum from there on is that column's entry, and 0 where it is
    # absent
    wide = f[:, 2 * g + 2:].sum(axis=1)
    codes = f
    # the points at infinity over F_{q^i}, by i mod 2: for odd p, the
    # 1 + wide roots of y^2 = wide
    at_infinity = [1 + wide] * 2
    if p == 2:
        h_top = wide * h[:, g + 1:].sum(axis=1)
        at_infinity = [np.where(h_top, 2, 1), _trace_solutions(
            gf.log_tables(base), h_top[:, None], wide[:, None])]
        codes = np.zeros((2 * B, max(f.shape[1], h.shape[1])), dtype=np.int64)
        codes[:B, :f.shape[1]], codes[B:, :h.shape[1]] = f, h
    indices = tuple(indices)
    out = np.empty((B, len(indices)), dtype=np.int64)
    tables = {}  # i -> (column, table)
    for c, i in enumerate(indices):
        ext = gf.field_create(p, base.k * i)  # SizeExceeded past the cap
        tables[i] = c, _square_root_counts(ext) if p != 2 else gf.log_tables(ext)
        out[:, c] = at_infinity[i % 2]
    for i, _, vals in gf.evaluations(base, indices, codes):
        c, table = tables[i]
        if p != 2:
            out[:, c] += table[vals].sum(axis=1)
        else:
            out[:, c] += _trace_solutions(table, vals[B:], vals[:B])
    return out


def _rows(C: HyperellipticCurve):
    # C's h and f as one-row code arrays
    return np.array([C.h], dtype=np.int64), np.array([C.f], dtype=np.int64)


def count_points(C: HyperellipticCurve, i: int) -> int:
    """N_i = #C(F_{q^i}), affine solutions plus points at infinity."""
    if type(i) is not int or not 1 <= i <= C.genus:
        raise ValueError(f"extension index {i} outside 1..g")
    return int(_counts(C.base, C.genus, *_rows(C), [i])[0, 0])


def counts_up_to_genus(C: HyperellipticCurve) -> PointCounts:
    """(N_1, ..., N_g) with the Weil bound verified exactly; raises
    SizeExceeded before counting when F_{q^g} is past the size cap."""
    counts = count_batch(C.base, C.genus, *_rows(C))[0]
    return PointCounts(q=C.base.q, g=C.genus, counts=counts)


# ---------------------------------------------------------------------------
# Curve text format: "p^k; h=...; f=..." with low-to-high coefficients,
# plain integers over prime fields and (c0,...,c_{k-1}) tuples otherwise.

def equation_text(spec: gf.FieldSpec, h, f) -> str:
    """The text of the equation y^2 + h y = f, h and f code sequences;
    trailing zero coefficients are dropped."""

    def coeffs(cs):
        cs = _fpx.trim(list(cs))
        if spec.k == 1:
            return ",".join(map(str, cs))
        return ",".join(
            "(" + ",".join(map(str, gf.digits(spec, c))) + ")" for c in cs
        )

    field = str(spec.p) if spec.k == 1 else f"{spec.p}^{spec.k}"
    return f"{field}; h={coeffs(h)}; f={coeffs(f)}"


def curve_to_text(C: HyperellipticCurve) -> str:
    return equation_text(C.base, C.h, C.f)


def _parse_coeff_list(spec: gf.FieldSpec, text: str) -> list:
    text = text.strip()
    if not text:
        return []
    out = []
    if "(" in text:
        body = text.replace(" ", "")
        if not re.fullmatch(r"(\(-?\d+(,-?\d+)*\))(,\(-?\d+(,-?\d+)*\))*", body):
            raise ParseError(f"bad coefficient tuple list: {text!r}")
        for tup in re.findall(r"\(([^)]*)\)", body):
            try:
                ints = [int(v) for v in tup.split(",")]
            except ValueError:  # past Python's int-string digit limit
                raise ParseError(f"coefficient tuple of {len(tup)} characters") from None
            if len(ints) > spec.k:
                raise ParseError(f"coefficient tuple longer than k={spec.k}: ({tup})")
            out.append(gf.code(spec, ints))
    else:
        for piece in text.split(","):
            piece = piece.strip()
            try:
                out.append(int(piece) % spec.p)
            except ValueError:
                raise ParseError(f"bad coefficient {piece!r}") from None
    return out


def parse_curve_text(text: str) -> tuple[gf.FieldSpec, list, list]:
    """(field, h, f) from the curve text format, f trimmed, without the
    smoothness check; raises ParseError unless deg f >= 3."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ParseError("curve text needs three ';'-separated parts")
    m = re.fullmatch(r"(\d+)(?:\^(\d+))?", parts[0])
    try:
        p, k = int(m.group(1)), int(m.group(2) or 1)
    except (AttributeError, ValueError):  # no match, or past the digit limit
        raise ParseError(f"bad field spec {clip(parts[0])}") from None
    try:
        spec = gf.field_create(p, k)
    except (NonPrime, ValueError) as bad:
        raise ParseError(f"bad field in curve text: {bad}") from None
    if not parts[1].startswith("h=") or not parts[2].startswith("f="):
        raise ParseError("expected 'h=...' then 'f=...'")
    h = _parse_coeff_list(spec, parts[1][2:])
    f = _fpx.trim(_parse_coeff_list(spec, parts[2][2:]))
    if len(f) - 1 < 3:
        raise ParseError(f"deg f = {len(f) - 1} cannot carry genus >= 1")
    return spec, h, f


def curve_from_text(text: str) -> HyperellipticCurve:
    """Parse and validate the curve text format."""
    spec, h, f = parse_curve_text(text)
    return validate_curve(spec, h, f, genus_for_degree(len(f) - 1))
