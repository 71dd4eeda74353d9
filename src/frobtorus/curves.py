"""Hyperelliptic curves y^2 + h(x) y = f(x) over small finite fields.

Coefficients are the integer codes of gf, low-to-high, everywhere: in the
curve value, in validation, in embeddings and in the curve text.
Validation enforces the smooth-affine-model conditions (squarefree f with
h = 0 in odd characteristic; the h-root criterion in characteristic 2) by
one gcd d in F_q[x] (gf.pgcd), whose roots are exactly the singular x.  A
singular equation raises Singular at once; its witness point, the first
root of d by rep over the first F_{q^m} that holds one, is searched for
only when the exception's witness is first read, so a survey that skips
singular equations never searches.  Counting is batched (count_batch):
the f (and h) of many curves are evaluated at every x of the field at once
(gf.evaluations, one matmul per block of x), and the y over each x are
counted from the value alone: the quadratic character (parity of the log)
in odd characteristic, the absolute trace of f/h^2 in characteristic 2.
The points at infinity of the smooth model are counted the same way from
the leading coefficients.  count_points and counts_up_to_genus are the
batch of one.

A base-field polynomial reaches F_{q^m} one way: embed maps its codes, one
or an array at once, by a code-to-code table that sends the generator to
the lexicographically first root of the base modulus (for prime base
fields and for src == dst the identity on codes), and gf.evaluations and
gf.poly_roots take the embedded codes.  That first root, and the roots
behind a singular curve's witness, come from gf.poly_roots, which runs on
the same whole-field evaluator.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import _fpx, gf
from .errors import BadDegrees, NonPrime, ParseError, Singular, WeilBoundViolated


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

    h and f are sequences of coefficient codes in [0, q), low-to-high;
    any other coefficient raises ValueError.
    """
    h = _fpx.trim(list(h))
    f = _fpx.trim(list(f))
    cs = h + f
    if not all(map(isinstance, cs, itertools.repeat(int))) or (
        cs and (min(cs) < 0 or max(cs) >= base.q)
    ):
        raise ValueError(f"coefficient codes must be ints in [0, {base.q})")
    if g < 1:
        raise BadDegrees(f"genus must be >= 1, got {g}")
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
    # 2.  Odd characteristic searches F_q only (None without a root there);
    # in characteristic 2 some m <= deg d has a root
    for m in range(1, len(d) if base.p == 2 else 2):
        ext = gf.field_create(base.p, base.k * m)
        roots = gf.poly_roots(ext, embed(base, ext, np.array(d)))
        if roots:
            x0, y0 = roots[0], 0
            if base.p == 2:
                fx = gf.evaluate(ext, embed(base, ext, np.array(f)).tolist(), x0)
                y0 = gf.power(ext, fx, ext.q // 2)
            return m, gf.digits(ext, x0), gf.digits(ext, y0)
    return None


@functools.lru_cache(maxsize=None)
def _embedding(src: gf.FieldSpec, dst: gf.FieldSpec) -> np.ndarray:
    # the dst code of every src code; src's generator goes to the first root
    # of src's modulus by rep
    gamma = gf.poly_roots(dst, list(src.modulus))[0]
    powers = [1]
    for _ in range(src.k - 1):
        powers.append(gf.mul(dst, powers[-1], gamma))
    image = gf.linear_map(src, dst, np.arange(src.q), powers)
    image.flags.writeable = False
    return image


def embed(src: gf.FieldSpec, dst: gf.FieldSpec, a):
    """Map the code a of F_{p^k}, or an int array of such codes, into
    F_{p^K} (k | K), generator to first root."""
    if src.p != dst.p or dst.k % src.k:
        raise ValueError(f"no embedding of {src!r} into {dst!r}")
    if src == dst or src.k == 1:
        return a  # the identity: F_p scalars keep their code
    image = _embedding(src, dst)[a]
    return image if isinstance(a, np.ndarray) else int(image)


def _solutions(T: gf.LogTables, p: int, hv, fv: np.ndarray) -> np.ndarray:
    """Per row, the sum over its x of #{y : y^2 + h(x) y = f(x)}, from the
    value codes hv and fv (hv is unused for odd p)."""
    lf = T.log[fv]
    if p != 2:
        # y^2 = f(x): one root of 0, two of a nonzero square (even log)
        return np.where(lf < 0, 1, 2 - 2 * (lf & 1)).sum(axis=1)
    # h(x) = 0: squaring is bijective, one y.  Otherwise y = h(x) z turns the
    # equation into z^2 + z = f/h^2, solvable (twice) iff Tr(f/h^2) = 0.
    lh = T.log[hv]
    trace = T.exp_trace[(lf - 2 * lh) % len(T.exp)]  # wrong where f or h is 0
    return np.where(lh < 0, 1, np.where(lf < 0, 2, 2 - 2 * trace)).sum(axis=1)


def count_batch(curves) -> list:
    """(N_1, ..., N_g) of each curve, as int lists, without the Weil-bound
    check; the curves share one base field and one genus.

    F_{q^g} is built before any counting, so a batch whose largest field is
    past the size cap raises SizeExceeded at once.
    """
    base, g = curves[0].base, curves[0].genus
    gf.field_create(base.p, base.k * g)
    return _counts(curves, range(1, g + 1)).tolist()


def _counts(curves, indices) -> np.ndarray:
    """N_i of each curve (rows) for each i in indices (columns).

    For each i, every f, and every h for p = 2, is evaluated over F_{q^i}
    at once (gf.evaluations), plus a column for x = infinity: a
    degree-(2g+2) model has the fibre y^2 + h_{g+1} y = lead f = 1 there,
    and a degree-(2g+1) model one point, which f = h = 0 gives.
    """
    base, g, B = curves[0].base, curves[0].genus, len(curves)
    p = base.p
    polys = [C.f for C in curves] + ([C.h for C in curves] if p == 2 else [])
    codes = np.zeros((len(polys), max(map(len, polys))), dtype=np.int64)
    for row, a in zip(codes, polys):
        row[:len(a)] = a
    # 1 for a degree-(2g+2) model, else 0; h_{g+1} of the former, else 0
    wide = np.array([len(C.f) == 2 * g + 3 for C in curves], dtype=np.int64)
    h_top = [C.h[g + 1] if w and len(C.h) > g + 1 else 0
             for C, w in zip(curves, wide)] if p == 2 else []
    out = []
    for i in indices:
        ext = gf.field_create(p, base.k * i)  # SizeExceeded past the cap
        T = gf.log_tables(ext)
        h_inf = embed(base, ext, np.array(h_top, dtype=np.int64))[:, None]
        n = _solutions(T, p, h_inf, wide[:, None])
        for _, vals in gf.evaluations(ext, embed(base, ext, codes)):
            n += _solutions(T, p, vals[B:], vals[:B])
        out.append(n)
    return np.stack(out, axis=1)


def count_points(C: HyperellipticCurve, i: int) -> int:
    """N_i = #C(F_{q^i}), affine solutions plus points at infinity."""
    if not 1 <= i <= C.genus:
        raise ValueError(f"extension index {i} outside 1..g")
    return int(_counts([C], [i])[0, 0])


def counts_up_to_genus(C: HyperellipticCurve) -> PointCounts:
    """(N_1, ..., N_g) with the Weil bound verified exactly; raises
    SizeExceeded before counting when F_{q^g} is past the size cap."""
    return PointCounts(q=C.base.q, g=C.genus, counts=count_batch([C])[0])


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
    f = _fpx.trim(_parse_coeff_list(spec, parts[2][2:]))
    if len(f) - 1 < 3:
        raise ParseError(f"deg f = {len(f) - 1} cannot carry genus >= 1")
    return spec, h, f


def curve_from_text(text: str) -> HyperellipticCurve:
    """Parse and validate the curve text format."""
    spec, h, f = parse_curve_text(text)
    return validate_curve(spec, h, f, genus_for_degree(len(f) - 1))
