"""Independent reimplementations used to cross-check the package.

Everything here is deliberately naive: brute-force point counts and
singular-point search, a Sylvester-matrix resultant over Fraction arithmetic, a root-of-unity scan by
explicit minimal-polynomial degree, and the power charpoly and ratio
polynomial as bivariate resultants.  Slow but hard to get wrong.
"""

from fractions import Fraction

from frobtorus import gf
from frobtorus.curves import embed
from frobtorus.intpoly import IntPoly, divmod_exact, resultant_y


def naive_count(C, i: int) -> int:
    """Count points of C over the degree-i extension by trying every (x, y),
    plus the standard points at infinity of the smooth model."""
    spec = C.base
    ext = gf.field_create(spec.p, spec.k * i)
    h = [embed(spec, ext, c) for c in C.h]
    f = [embed(spec, ext, c) for c in C.f]
    total = 0
    for x in gf.enumerate_elements(ext):
        hv = gf.poly_eval(ext, list(h), x)
        fv = gf.poly_eval(ext, list(f), x)
        for y in gf.enumerate_elements(ext):
            if y * y + hv * y == fv:
                total += 1
    d = len(C.f) - 1
    g = C.genus
    if d == 2 * g + 1:
        return total + 1
    lead_f = embed(spec, ext, C.f[-1])
    lead_h = embed(spec, ext, C.h[g + 1]) if len(C.h) > g + 1 else gf.zero(ext)
    at_inf = sum(
        1 for y in gf.enumerate_elements(ext) if y * y + lead_h * y == lead_f
    )
    return total + at_inf


def naive_singular_point(spec, h, f):
    """First affine singular point (m, x, y) of y^2 + h y = f over
    F_{q^m}, m = 1 .. max(deg h, 1), by trying every (x, y); None if none.

    In characteristic 2 a singular point needs h(x) = 0 and h'(x) y = f'(x);
    every root of h lies in one of these fields.
    """
    for m in range(1, max(len(h) - 1, 1) + 1):
        ext = gf.field_create(spec.p, spec.k * m)
        hk = [embed(spec, ext, c) for c in h]
        fk = [embed(spec, ext, c) for c in f]
        hd, fd = gf.poly_deriv(ext, hk), gf.poly_deriv(ext, fk)
        for x in gf.enumerate_elements(ext):
            hv = gf.poly_eval(ext, hk, x)
            for y in gf.enumerate_elements(ext):
                on_curve = y * y + hv * y == gf.poly_eval(ext, fk, x)
                if (on_curve and (y + y + hv) == gf.zero(ext)
                        and gf.poly_eval(ext, hd, x) * y == gf.poly_eval(ext, fd, x)):
                    return m, x.rep, y.rep
    return None


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
