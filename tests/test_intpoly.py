import inspect
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.densearith import dup_add, dup_mul, dup_sub
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from frobtorus.errors import InvariantViolation, NonIntegralCoefficient, ZeroPolynomial
from frobtorus.intpoly import (
    IntPoly,
    cyclotomic,
    divmod_exact,
    factor,
    from_power_sums,
    gcd,
    resultant,
    resultant_y,
    root_power_sums,
    squarefree_part,
)
from frobtorus import _fpx, intpoly, simplicity, survey
from frobtorus.zeta import WeilPolynomial, is_weil
from oracles import (
    ddf_by_pow_mod,
    factor_cubic_by_root_scan,
    powmod_monic,
    sylvester_resultant,
)

X = IntPoly([0, 1])

small_poly = st.builds(
    IntPoly,
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)


def test_intpoly_basics():
    f = IntPoly([1, 2, 3])
    assert f.degree == 2 and f.lc == 3 and not f.is_zero
    assert IntPoly([0]).degree == -1 and IntPoly([0]).is_zero
    assert IntPoly([1, 0, 0]) == IntPoly([1])  # trailing zeros trimmed
    assert (f + (-f)).is_zero
    assert f(2) == 1 + 4 + 12
    with pytest.raises(TypeError):
        IntPoly([1.5])
    with pytest.raises(ZeroPolynomial):
        IntPoly([0]).lc


def test_intpoly_is_hashable_value_type():
    assert hash(IntPoly([1, 2])) == hash(IntPoly([1, 2]))
    assert len({X, X, IntPoly([0, 1])}) == 1


@given(small_poly, small_poly, small_poly)
@settings(max_examples=80)
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f


@given(
    st.lists(st.one_of(st.just(0), st.integers(-10 ** 20, 10 ** 20)), max_size=7),
    st.lists(st.one_of(st.just(0), st.integers(-10 ** 20, 10 ** 20)), max_size=7),
)
@settings(max_examples=150)
def test_sum_difference_and_product_match_sympy(a, b):
    # lists of any two lengths, zeros anywhere (top ones trimmed), [] too
    f, g = IntPoly(a), IntPoly(b)
    dense_f, dense_g = list(f.coeffs[::-1]), list(g.coeffs[::-1])
    for got, want in (
        (f + g, dup_add(dense_f, dense_g, ZZ)),
        (f - g, dup_sub(dense_f, dense_g, ZZ)),
        (f * g, dup_mul(dense_f, dense_g, ZZ)),
    ):
        assert list(got.coeffs[::-1]) == want


def test_divmod_monic_and_powmod():
    m = X ** 2 + IntPoly([1])  # x^2 + 1
    q, r = divmod_exact(X ** 4, m)
    assert q == X ** 2 - IntPoly([1]) and r == IntPoly([1])
    assert powmod_monic(X, 4, m) == IntPoly([1])
    assert powmod_monic(X, 5, m) == X
    with pytest.raises(ValueError):
        divmod_exact(X, IntPoly([1, 2]))  # non-monic modulus


def test_divmod_exact_detects_inexact():
    f = (X - IntPoly([3])) * (IntPoly([2]) * X + IntPoly([1]))
    q, r = divmod_exact(f, X - IntPoly([3]))
    assert q == IntPoly([2]) * X + IntPoly([1]) and r.is_zero
    with pytest.raises(ValueError):
        divmod_exact(X ** 2, IntPoly([0, 2]))  # x^2 / 2x is not integral


@pytest.mark.parametrize(
    "f,g,want",
    [
        (X - IntPoly([2]), X - IntPoly([3]), -1),
        (X ** 2 - IntPoly([2]), X ** 2 - IntPoly([3]), 1),
        (X ** 3, X, 0),
        (IntPoly([4]), X ** 2 + X, 16),  # deg-0 shortcut: 4^2
    ],
)
def test_resultant_fixed_values(f, g, want):
    assert resultant(f, g) == want


@given(small_poly, small_poly)
@settings(max_examples=120)
def test_resultant_matches_sylvester(f, g):
    if f.is_zero or g.is_zero:
        with pytest.raises(ZeroPolynomial):
            resultant(f, g)
        return
    assert resultant(f, g) == sylvester_resultant(f, g)


@given(small_poly, small_poly, small_poly)
@settings(max_examples=40)
def test_resultant_is_multiplicative(f, g, h):
    if f.is_zero or g.is_zero or h.is_zero:
        return
    assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def test_resultant_y_eliminates_a_variable():
    # Res_y(y^2 - 2, x - y^2) = (x - 2)^2
    f = X ** 2 - IntPoly([2])
    g_y = [X, IntPoly([0]), IntPoly([-1])]  # x + 0*y - y^2, coeffs in y
    r = resultant_y(f, g_y)
    assert r == (X - IntPoly([2])) ** 2


def test_resultant_y_handles_leading_coefficient_vanishing():
    # g(x, y) = x*y + 1: leading y-coefficient vanishes at x = 0
    f = X ** 2 - IntPoly([2])  # roots +-sqrt(2)
    g_y = [IntPoly([1]), X]
    r = resultant_y(f, g_y)
    # product of g over roots: (x*sqrt2 + 1)(-x*sqrt2 + 1) = 1 - 2x^2
    assert r == IntPoly([1]) - IntPoly([2]) * X ** 2


def test_root_power_sums_fixed_values():
    # roots 1, 2, 3: S_k = 1 + 2^k + 3^k, past the degree as well
    f = (X - IntPoly([1])) * (X - IntPoly([2])) * (X - IntPoly([3]))
    assert root_power_sums(f, 5) == [1 + 2 ** k + 3 ** k for k in range(1, 6)]
    with pytest.raises(ValueError):
        root_power_sums(IntPoly([1, 2]), 3)  # not monic


@given(st.lists(st.integers(-9, 9), max_size=7))
@settings(max_examples=80)
def test_power_sums_round_trip(lows):
    f = IntPoly(lows + [1])
    assert from_power_sums(root_power_sums(f, f.degree)) == f


def test_from_power_sums_rejects_inexact_division():
    # S_1 = 1, S_2 = 0 would need e_2 = 1/2
    with pytest.raises(NonIntegralCoefficient):
        from_power_sums([1, 0])


def test_squarefree_part():
    f = (X - IntPoly([1])) ** 2 * (X + IntPoly([2]))
    assert squarefree_part(f) == (X - IntPoly([1])) * (X + IntPoly([2]))
    assert squarefree_part(IntPoly([7])) == IntPoly([1])


def test_factor_fixed_cases():
    # multiplicity and ordering
    f = IntPoly([6]) * (X - IntPoly([1])) ** 2 * (X ** 2 - IntPoly([3]))
    unit, fs = factor(f)
    assert unit == 6
    assert fs == [
        (X - IntPoly([1]), 2),
        (X ** 2 - IntPoly([3]), 1),
    ]
    # non-monic content-free input: 6x^2 - x - 2 = (2x + 1)(3x - 2)
    unit, fs = factor(IntPoly([-2, -1, 6]))
    assert unit == 1
    assert sorted(g.coeffs for g, _ in fs) == [(-2, 3), (1, 2)]
    # negative unit
    unit, fs = factor(IntPoly([0, -1]))
    assert unit == -1 and fs == [(X, 1)]


def test_factor_certifies_irreducible_via_degree_patterns():
    # x^8 - 50 is irreducible; the three-prime pattern prepass should agree
    unit, fs = factor(IntPoly([-50] + [0] * 7 + [1]))
    assert unit == 1 and len(fs) == 1 and fs[0][1] == 1


def test_factor_swinnerton_dyer_needs_recombination():
    # minimal poly of sqrt2 + sqrt3: every prime factors it into quadratics
    f = X ** 4 - IntPoly([10]) * X ** 2 + IntPoly([1])
    unit, fs = factor(f)
    assert unit == 1 and fs == [(f, 1)]


def test_factor_limits_and_errors():
    with pytest.raises(ZeroPolynomial):
        factor(IntPoly([0]))
    with pytest.raises(ValueError):
        factor(X ** 17)
    assert factor(IntPoly([5])) == (5, [])
    unit, fs = factor(X ** 16 - X ** 2 - IntPoly([1]))
    prod = IntPoly([unit])
    for g, m in fs:
        prod = prod * g ** m
    assert prod == X ** 16 - X ** 2 - IntPoly([1])


@st.composite
def squarefree_monic_mod_p(draw):
    """A monic squarefree polynomial of degree 2..16 over F_p, drawn as a
    product of small factors so that blocks hold several factors."""
    p = draw(st.sampled_from((17, 19, 23, 61)))
    degrees = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    assume(2 <= sum(degrees) <= 16)
    a = [1]
    for d in degrees:
        low = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        a = _fpx.mul(a, low + [1], p)
    assume(_fpx.gcd(a, _fpx.deriv(a, p), p) == [1])
    return p, a


@given(squarefree_monic_mod_p())
@settings(max_examples=150, deadline=None)
def test_ddf_matches_the_pow_mod_reference(case):
    p, a = case
    assert _fpx.ddf(a, p) == ddf_by_pow_mod(a, p)


def _random_poly(rng, deg, lc=1, bound=9):
    return IntPoly([rng.randrange(-bound, bound + 1) for _ in range(deg)] + [lc])


def _sympy_factor_inputs():
    rng = random.Random(2024)
    for _ in range(120):
        deg = rng.randrange(1, 9)
        yield IntPoly([rng.randrange(-50, 51) for _ in range(deg)] + [1])
    # repeated factors, so multiplicities come by division; a repeated
    # factor whose leading coefficient vanishes mod 17 disappears there
    for _ in range(40):
        a = _random_poly(rng, rng.randrange(1, 4), lc=rng.choice([1, 1, 2, 17]))
        b = _random_poly(rng, rng.randrange(0, 4))
        yield a ** rng.randrange(2, 4) * b
    # squarefree over Q but not mod 17, so a squarefree input takes the
    # squarefree-part path
    for k in range(1, 21):
        yield (X ** 2 - IntPoly([17 * k])) * _random_poly(rng, rng.randrange(0, 5))
    # non-monic, including leading coefficients that vanish mod 17
    for _ in range(60):
        lc = rng.choice([-34, -6, -1, 2, 3, 12, 17, 51])
        f = _random_poly(rng, rng.randrange(1, 7), lc=lc, bound=30)
        if rng.random() < 0.3:
            f = f * _random_poly(rng, rng.randrange(1, 3), lc=rng.choice([1, 2, 17]))
        yield f
    # quadratics, which the discriminant decides: with content, negative and
    # non-unit leading coefficients, split, square and irreducible
    for _ in range(150):
        k = rng.choice([-6, -1, 1, 1, 1, 4, 34])
        lin = [_random_poly(rng, 1, lc=rng.choice([-12, -3, -1, 1, 2, 6, 17]), bound=40)
               for _ in range(3)]
        yield lin[0] * lin[1] * IntPoly([k])
        yield lin[2] ** 2 * IntPoly([k])
        yield _random_poly(rng, 2, lc=rng.choice([-5, 3, 12]), bound=60)
    # products of 3..6 monic factors, so that the lift carries r >= 3
    # modular factors at once
    for _ in range(40):
        degrees = [rng.randrange(1, 5) for _ in range(rng.randrange(3, 7))]
        while sum(degrees) > 16:
            degrees.pop()
        f = IntPoly([1])
        for d in degrees:
            f = f * _random_poly(rng, d, bound=rng.choice([9, 10 ** 4, 10 ** 9]))
        yield f
    # x^4 - 10x^2 + 1 splits into quadratics at every prime, so only subset
    # recombination over Z finds its factors
    yield (X ** 2 + X + IntPoly([1])) * (X ** 3 - IntPoly([2]))
    yield (X ** 4 - IntPoly([10]) * X ** 2 + IntPoly([1])) * (X ** 2 + X + IntPoly([3]))


def _assert_factor_matches_sympy(f):
    unit, fs = factor(f)
    s_unit, s_factors = dup_factor_list([ZZ(c) for c in reversed(f.coeffs)], ZZ)
    want = sorted((tuple(int(c) for c in reversed(p)), int(m)) for p, m in s_factors)
    assert int(s_unit) == unit, f
    assert sorted((g.coeffs, m) for g, m in fs) == want, f
    assert fs == sorted(fs, key=lambda gm: (gm[0].degree, gm[0].coeffs))


def test_factor_matches_sympy_on_random_inputs():
    for f in _sympy_factor_inputs():
        _assert_factor_matches_sympy(f)


def _small_squarefree_part_inputs():
    # monic polynomials of degree 4..15 with a repeated factor whose
    # squarefree part has degree <= 3: powers of up to three linear, or one
    # linear and one quadratic, or one quadratic or cubic factor
    rng = random.Random("squarefree part of degree <= 3")
    shapes = ([1], [2], [3], [1, 1], [1, 2], [1, 1, 1])
    while True:
        f = IntPoly([1])
        for d in rng.choice(shapes):
            base = _random_poly(rng, d, bound=rng.choice([9, 10 ** 4]))
            f = f * base ** rng.randrange(1, 6)
        if f.degree > 3:
            yield f


def test_factor_splits_a_squarefree_part_of_degree_at_most_3_by_its_roots(
    monkeypatch,
):
    # x^4 - 9x^2 = x^2 (x - 3)(x + 3): its squarefree part x^3 - 9x is
    # split by its integer roots, and nothing is lifted
    def refused(*args):
        raise AssertionError("Zassenhaus called on a squarefree part of degree <= 3")

    monkeypatch.setattr(intpoly, "_zassenhaus_squarefree", refused)
    monkeypatch.setattr(intpoly, "_hensel_lift", refused)
    assert factor(X ** 4 - IntPoly([9]) * X ** 2) == (
        1, [(X - IntPoly([3]), 1), (X, 2), (X + IntPoly([3]), 1)]
    )
    for f in itertools.islice(_small_squarefree_part_inputs(), 300):
        _assert_factor_matches_sympy(f)


def test_factor_of_a_squarefree_input_singular_mod_17_returns():
    # x^4 + 17 is squarefree over Q, and 17 | disc: it fails the mod-17
    # squarefree test, and its squarefree part is itself (Eisenstein at 17)
    f = X ** 4 + IntPoly([17])
    assert factor(f) == (1, [(f, 1)])
    assert factor(f * (X - IntPoly([1])) ** 2) == (1, [(X - IntPoly([1]), 2), (f, 1)])


def test_factor_tests_each_residue_once(monkeypatch, tmp_path):
    # within one factor call no (F, p) is tested for squarefreeness twice:
    # F mod 17 is handed to the prime search when it is squarefree, and
    # when it is not and F is its own squarefree part (x^4 + 17)
    tested, calls = [], []
    squarefree_mod = intpoly._squarefree_mod

    def recorded(F, p):
        tested.append((F.coeffs, p))
        return squarefree_mod(F, p)

    def one_call(f):
        calls.append(f)
        tested.clear()
        out = factor(f)
        assert len(set(tested)) == len(tested), tested
        return out

    monkeypatch.setattr(intpoly, "_squarefree_mod", recorded)
    rng = random.Random("each residue once")
    inputs = [X ** 4 + IntPoly([17]), (X ** 4 + IntPoly([17])) * (X - IntPoly([1])) ** 2,
              IntPoly([4, 11, -8, -2, 1]), IntPoly([40, 10, -14, -1, 1])]
    inputs += [_random_poly(rng, rng.randrange(4, 11)) for _ in range(40)]
    for f in inputs:
        assert one_call(f) == factor(f)
    monkeypatch.setattr(simplicity, "factor", one_call)
    simplicity.classify.cache_clear()
    calls.clear()
    survey.run_survey(survey.SurveyConfig(p=3, genus=4, degree=9, limit=60),
                      str(tmp_path / "g4.jsonl"))
    summary = survey.report(str(tmp_path / "g4.jsonl"))
    assert summary["by_kind"] == {"AbsolutelySimple": 19, "NotSimple": 35,
                                  "NotAbsolutelySimple": 3, "Inconclusive": 3}
    assert calls


def test_factor_calls_fpx_modulo_primes_only(monkeypatch):
    # every _fpx routine that takes a modulus p gets a prime: the lift and
    # the recombination compute modulo p^k over Z themselves
    moduli = set()
    names = []
    for name, fn in list(vars(_fpx).items()):
        if not (inspect.isfunction(fn) and fn.__module__ == _fpx.__name__):
            continue
        sig = inspect.signature(fn)
        if "p" not in sig.parameters:
            continue
        names.append(name)

        def checked(*args, _fn=fn, _sig=sig, **kwargs):
            p = _sig.bind(*args, **kwargs).arguments["p"]
            moduli.add(p)
            assert _fpx.is_prime(p), f"{_fn.__name__} called modulo {p}"
            return _fn(*args, **kwargs)

        monkeypatch.setattr(_fpx, name, checked)
    assert {"mul", "div_rem", "mul_rem", "bezout", "ddf"} <= set(names)
    for f in _sympy_factor_inputs():
        factor(f)
    assert {17, 19, 23} <= moduli


def test_factor_searches_past_349_for_a_good_prime():
    # each of the 64 primes from 17 to 349 divides M, hence the
    # discriminant of x(x - M)(x - 2M)(x - 3M): F is singular modulo all
    # of them, and squarefree over Q
    M = math.prod(p for p in range(17, 350) if _fpx.is_prime(p))
    f = X * (X - IntPoly([M])) * (X - IntPoly([2 * M])) * (X - IntPoly([3 * M]))
    assert factor(f) == (1, [(X - IntPoly([k * M]), 1) for k in (3, 2, 1, 0)])


def _genus3_real_polys(q):
    """Every h = y^3 + a y^2 + b y + c whose P(x) = x^3 h(x + q/x) passes
    is_weil, that is whose three roots are real in [-m, m], m = 2 sqrt(q).
    Then a^2 <= 9 m^2, a^2 - 2b (the sum of the squared roots) <= 3 m^2 and
    b <= a^2 / 3 (real critical points t1 <= t2 of y^3 + a y^2 + b y).  The
    c left form the interval where h(t1) >= 0 >= h(t2) and h(-m) <= 0 <=
    h(m); floating point finds it, one wider each way, and is_weil decides
    each c exactly."""
    m = 2 * math.sqrt(q)
    top = math.isqrt(36 * q)
    for a in range(-top, top + 1):
        for b in range(-((12 * q - a * a) // 2), a * a // 3 + 1):
            s = math.sqrt(a * a - 3 * b)
            g = lambda t: ((t + a) * t + b) * t  # noqa: E731
            lo = max(-g(m), -g((-a - s) / 3))
            hi = min(-g(-m), -g((-a + s) / 3))
            for c in range(math.floor(lo) - 1, math.ceil(hi) + 2):
                # P = sum_j h_j x^(3-j) (x^2 + q)^j
                P = [0] * 7
                for j, hj in enumerate((c, b, a, 1)):
                    for i in range(j + 1):
                        P[3 - j + 2 * i] += hj * math.comb(j, i) * q ** (j - i)
                if is_weil(WeilPolynomial(q=q, g=3, coeffs=tuple(P))):
                    yield IntPoly([c, b, a, 1])


# cubics for which one integer root decides the factorization, named by
# where that root r lies among the integer-root search's runs: t1 < t2 are
# the critical points, B is Cauchy's bound
EDGE_CUBICS = [
    (X + IntPoly([6])) * IntPoly([-6, 3, 1]),  # r = floor(t1)
    (X + IntPoly([6])) * IntPoly([-6, 6, 1]),  # r = floor(t1) + 1
    (X + IntPoly([2])) * IntPoly([2, 4, 1]),  # r = ceil(t2) - 1
    (X + IntPoly([1])) * IntPoly([5, 5, 1]),  # r = ceil(t2)
    (X - IntPoly([12])) * IntPoly([1, 0, 1]),  # r = B - 1
    (X + IntPoly([12])) * IntPoly([1, 0, 1]),  # r = -(B - 1)
    (X - IntPoly([100])) * IntPoly([1, 1, 1]),  # r = B - 1
    X * IntPoly([-7, 0, 1]),  # c = 0, r = 0
    X * (X + IntPoly([2])) * (X + IntPoly([3])),
    # non-monic, with rational roots off Z: the monic transform's root
    # is lc * (the rational root)
    IntPoly([-1, 2]) * IntPoly([1, 0, 3]),  # (2x - 1)(3x^2 + 1)
    IntPoly([-3, 5]) * IntPoly([2, 0, 1]),
    IntPoly([2, 3]) * IntPoly([-5, 2]) * IntPoly([7, 1]),
    IntPoly([-4]) * IntPoly([3, 2]) * IntPoly([1, 1, 1]),
    IntPoly([-3, 0, 0, 2]),  # 2x^3 - 3, irreducible
    IntPoly([0, 0, -1, 3]),  # x^2 (3x - 1)
    # repeated roots, each peeled as often as it divides
    (X - IntPoly([2])) ** 2 * (X + IntPoly([3])),
    (X + IntPoly([4])) ** 3,  # D = 0: the triple root in the single run
    IntPoly([-1, 2]) ** 2 * (X + IntPoly([1])),
    IntPoly([2, 3]) ** 3,
    (X - IntPoly([2])) ** 2 * (X - IntPoly([5])),  # double root t1 = 2 = k1
    (X - IntPoly([5])) ** 2 * (X - IntPoly([2])),  # double root t2 = 5 = k2
    (X + IntPoly([2])) ** 2 * (X + IntPoly([5])),  # double root t2 = -2
    (X + IntPoly([5])) ** 2 * (X + IntPoly([2])),  # double root t1 = -5
    # non-monic with content and repeated rational roots
    IntPoly([-2]) * IntPoly([-1, 3]) ** 2 * (X + IntPoly([5])),
    IntPoly([4]) * IntPoly([1, 2]) ** 3,
]


def _monic_box():
    for a, b, c in itertools.product(range(-12, 13), repeat=3):
        yield IntPoly([c, b, a, 1])


def _monic_quadratic_box():
    for b, c in itertools.product(range(-40, 41), repeat=2):
        yield IntPoly([c, b, 1])


def _genus3_weil_real_polys():
    # each h once: the set for q holds the sets for every smaller q
    seen = {}
    sizes = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        hs = list(_genus3_real_polys(q))
        sizes.append(len(hs))
        seen.update((h.coeffs, h) for h in hs)
    assert sizes == [215, 677, 1641, 2953, 7979, 11823, 17121]
    return seen.values()


@pytest.mark.parametrize(
    "family",
    [_monic_box, _genus3_weil_real_polys, lambda: EDGE_CUBICS, _monic_quadratic_box],
    ids=["monic-box", "genus3-weil", "edge", "monic-quadratic-box"],
)
def test_factor_of_cubics_matches_the_root_scan_and_sympy(family):
    for f in family():
        if f.degree == 3:
            assert factor(f) == factor_cubic_by_root_scan(f), f
        _assert_factor_matches_sympy(f)


@pytest.mark.parametrize(
    "m,coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_known_values(m, coeffs):
    assert cyclotomic(m) == IntPoly(list(coeffs))


@pytest.mark.parametrize("n", [1, 2, 6, 12, 30])
def test_cyclotomic_product_over_divisors(n):
    prod = IntPoly([1])
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == X ** n - IntPoly([1])


def test_poly_gcd_recovers_common_factor():
    common = X ** 2 + IntPoly([3]) * X + IntPoly([1])
    f = common * (X - IntPoly([4])) * IntPoly([2])
    g = common * (X + IntPoly([5])) * IntPoly([3])
    assert gcd(f, g) == common
    assert gcd(IntPoly([4, 6]), IntPoly([6])) == IntPoly([2])


def test_factor_checks_its_core(monkeypatch):
    # the public factor keeps its product check over whatever its core returns
    core = intpoly.factor_unchecked
    f = IntPoly([-6, 11, -6, 1])  # (x - 1)(x - 2)(x - 3)
    unit, fs = core(f)
    assert factor(f) == (unit, fs)
    monkeypatch.setattr(intpoly, "factor_unchecked", lambda g: (unit, [(fs[0][0], 2)] + fs[1:]))
    with pytest.raises(InvariantViolation, match="does not reproduce"):
        factor(f)
