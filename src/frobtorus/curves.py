"""Hyperelliptic curves y^2 + h(x) y = f(x) over small finite fields.

Validation enforces the smooth-affine-model conditions (squarefree f with
h = 0 in odd characteristic; the h-root criterion in characteristic 2), and
counting is exhaustive over x with a per-value quadratic-solution table, plus
the standard smooth-model contribution at infinity.

Counting over F_{q^i} builds F_{p^(k*i)} with its own canonical modulus and
embeds coefficients by sending the generator to the lexicographically first
root of the base modulus; for prime base fields the embedding is the
identity on scalars.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from . import gf
from .errors import BadDegrees, NonPrime, ParseError, Singular, WeilBoundViolated


@dataclass(frozen=True)
class HyperellipticCurve:
    base: gf.FieldSpec
    h: tuple  # FieldElement coefficients, low-to-high, trimmed
    f: tuple  # FieldElement coefficients, low-to-high, monic
    genus: int


@dataclass(frozen=True)
class PointCounts:
    q: int
    g: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        for i, n in enumerate(self.counts, start=1):
            qi = self.q ** i
            if (n - (qi + 1)) ** 2 > 4 * self.g * self.g * qi:
                raise WeilBoundViolated(
                    f"N_{i} = {n} violates |N - (q^{i}+1)| <= 2g*sqrt(q^{i})"
                )


def genus_for_degree(d: int) -> int:
    """Genus of a smooth model with deg f = d (d = 2g+1 or 2g+2)."""
    return (d + 1) // 2 - 1


def validate_curve(base: gf.FieldSpec, h, f, g: int) -> HyperellipticCurve:
    """Check degrees and nonsingularity; normalize into a curve value.

    h and f are sequences of FieldElement over base.
    """
    h = gf.poly_trim(base, list(h))
    f = gf.poly_trim(base, list(f))
    if g < 1:
        raise BadDegrees(f"genus must be >= 1, got {g}")
    df = len(f) - 1
    if df not in (2 * g + 1, 2 * g + 2):
        raise BadDegrees(f"deg f = {df}, need 2g+1 = {2 * g + 1} or 2g+2")
    if f[-1] != gf.one(base):
        raise BadDegrees("f must be monic")
    if len(h) - 1 > g + 1:
        raise BadDegrees(f"deg h = {len(h) - 1} exceeds g+1 = {g + 1}")
    if base.p != 2:
        if h:
            raise BadDegrees("h must be zero in odd characteristic")
        d = gf.poly_gcd(base, f, gf.poly_deriv(base, f))
        if len(d) - 1 > 0:
            base_roots = gf.poly_roots(base, d)
            witness = None
            if base_roots:
                witness = (1, base_roots[0].rep, gf.zero(base).rep)
            raise Singular("f has a repeated root", witness=witness)
    else:
        if not h:
            raise BadDegrees("h must be nonzero in characteristic 2")
        deg_h = len(h) - 1
        for m in range(1, deg_h + 1):
            ext = gf.field_create(2, base.k * m)
            hk = [embed(base, ext, c) for c in h]
            fk = [embed(base, ext, c) for c in f]
            hk_d = gf.poly_deriv(ext, hk)
            fk_d = gf.poly_deriv(ext, fk)
            for x0 in gf.poly_roots(ext, hk):
                y0 = gf.poly_eval(ext, fk, x0) ** (ext.q // 2)
                lhs = gf.poly_eval(ext, hk_d, x0) * y0
                rhs = gf.poly_eval(ext, fk_d, x0)
                if lhs == rhs:
                    raise Singular(
                        "singular point on the affine model",
                        witness=(m, x0.rep, y0.rep),
                    )
    return HyperellipticCurve(base=base, h=tuple(h), f=tuple(f), genus=g)


@functools.lru_cache(maxsize=None)
def _generator_image(src: gf.FieldSpec, dst: gf.FieldSpec) -> tuple:
    # powers of the chosen root of src's modulus inside dst
    mod_in_dst = [gf.scalar(dst, c) for c in src.modulus]
    roots = gf.poly_roots(dst, mod_in_dst)
    gamma = roots[0]  # lexicographically first by rep
    powers = [gf.one(dst)]
    for _ in range(src.k - 1):
        powers.append(powers[-1] * gamma)
    return tuple(powers)


def embed(src: gf.FieldSpec, dst: gf.FieldSpec, a: gf.FieldElement) -> gf.FieldElement:
    """Map a in F_{p^k} into F_{p^K} (k | K), generator to first root."""
    if src == dst:
        return a
    if src.p != dst.p or dst.k % src.k:
        raise ValueError(f"no embedding of {src!r} into {dst!r}")
    if src.k == 1:
        return gf.scalar(dst, a.rep[0])
    powers = _generator_image(src, dst)
    acc = gf.zero(dst)
    for c, tpow in zip(a.rep, powers):
        if c:
            acc = acc + gf.scalar(dst, c) * tpow
    return acc


@functools.lru_cache(maxsize=None)
def _square_table(spec: gf.FieldSpec):
    # rep of value -> number of square roots (0, 1, or 2); odd characteristic
    tbl = {}
    for z in gf.enumerate_elements(spec):
        v = (z * z).rep
        tbl[v] = tbl.get(v, 0) + 1
    return tbl


@functools.lru_cache(maxsize=None)
def _artin_schreier_image(spec: gf.FieldSpec):
    # reps of the image of z -> z^2 + z over F_{2^K}; decides solvability
    return frozenset((z * z + z).rep for z in gf.enumerate_elements(spec))


def count_points(C: HyperellipticCurve, i: int) -> int:
    """N_i = #C(F_{q^i}), affine solutions plus points at infinity."""
    if not 1 <= i <= C.genus:
        raise ValueError(f"extension index {i} outside 1..g")
    base = C.base
    ext = gf.field_create(base.p, base.k * i)  # SizeExceeded past the cap
    hk = [embed(base, ext, c) for c in C.h]
    fk = [embed(base, ext, c) for c in C.f]
    deg_f = len(fk) - 1
    total = 0
    if base.p != 2:
        tbl = _square_table(ext)
        for x in gf.enumerate_elements(ext):
            total += tbl.get(gf.poly_eval(ext, fk, x).rep, 0)
        if deg_f == 2 * C.genus + 1:
            total += 1
        else:
            total += tbl.get(fk[-1].rep, 0)
    else:
        image = _artin_schreier_image(ext)
        for x in gf.enumerate_elements(ext):
            a = gf.poly_eval(ext, hk, x) if hk else gf.zero(ext)
            v = gf.poly_eval(ext, fk, x)
            if not a:
                total += 1
            else:
                w = v * gf.inv(a * a)
                total += 2 if w.rep in image else 0
        if deg_f == 2 * C.genus + 1:
            total += 1
        else:
            hcap = hk[C.genus + 1] if len(hk) > C.genus + 1 else gf.zero(ext)
            fcap = fk[-1]
            if not hcap:
                total += 1
            else:
                w = fcap * gf.inv(hcap * hcap)
                total += 2 if w.rep in image else 0
    return total


def counts_up_to_genus(C: HyperellipticCurve) -> PointCounts:
    """(N_1, ..., N_g) with the Weil bound verified exactly.

    F_{q^g} is built before any counting, so a curve whose largest field is
    past the size cap raises SizeExceeded at once.
    """
    gf.field_create(C.base.p, C.base.k * C.genus)
    ns = tuple(count_points(C, i) for i in range(1, C.genus + 1))
    return PointCounts(q=C.base.q, g=C.genus, counts=ns)


# ---------------------------------------------------------------------------
# Curve text format: "p^k; h=...; f=..." with low-to-high coefficients,
# plain integers over prime fields and (c0,...,c_{k-1}) tuples otherwise.

def _coeffs_to_text(spec: gf.FieldSpec, cs) -> str:
    if spec.k == 1:
        return ",".join(str(c.rep[0]) for c in cs)
    return ",".join("(" + ",".join(str(v) for v in c.rep) + ")" for c in cs)


def curve_to_text(C: HyperellipticCurve) -> str:
    spec = C.base
    field = str(spec.p) if spec.k == 1 else f"{spec.p}^{spec.k}"
    return (
        f"{field}; h={_coeffs_to_text(spec, C.h)}; f={_coeffs_to_text(spec, C.f)}"
    )


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
            ints = [int(v) for v in tup.split(",")]
            if len(ints) > spec.k:
                raise ParseError(f"coefficient tuple longer than k={spec.k}: ({tup})")
            out.append(gf.element(spec, ints))
    else:
        for piece in text.split(","):
            piece = piece.strip()
            try:
                out.append(gf.scalar(spec, int(piece)))
            except ValueError:
                raise ParseError(f"bad coefficient {piece!r}") from None
    return out


def curve_from_text(text: str) -> HyperellipticCurve:
    """Parse and validate the curve text format."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ParseError("curve text needs three ';'-separated parts")
    m = re.fullmatch(r"(\d+)(?:\^(\d+))?", parts[0])
    if not m:
        raise ParseError(f"bad field spec {parts[0]!r}")
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    try:
        spec = gf.field_create(p, k)
    except (NonPrime, ValueError) as bad:
        raise ParseError(f"bad field in curve text: {bad}") from None
    if not parts[1].startswith("h=") or not parts[2].startswith("f="):
        raise ParseError("expected 'h=...' then 'f=...'")
    h = _parse_coeff_list(spec, parts[1][2:])
    f = _parse_coeff_list(spec, parts[2][2:])
    f = gf.poly_trim(spec, f)
    if len(f) - 1 < 3:
        raise ParseError(f"deg f = {len(f) - 1} cannot carry genus >= 1")
    g = genus_for_degree(len(f) - 1)
    return validate_curve(spec, h, f, g)
