import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobtorus.errors import NonIntegralCoefficient, ZeroPolynomial
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
from frobtorus import _fpx
from oracles import ddf_by_pow_mod, powmod_monic, sylvester_resultant

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
    # x^4 - 10x^2 + 1 splits into quadratics at every prime, so only subset
    # recombination over Z finds its factors
    yield (X ** 2 + X + IntPoly([1])) * (X ** 3 - IntPoly([2]))
    yield (X ** 4 - IntPoly([10]) * X ** 2 + IntPoly([1])) * (X ** 2 + X + IntPoly([3]))


def test_factor_matches_sympy_on_random_inputs():
    x = sympy.Symbol("x")
    for f in _sympy_factor_inputs():
        unit, fs = factor(f)
        s_unit, s_factors = sympy.Poly(list(reversed(f.coeffs)), x).factor_list()
        want = sorted(
            (tuple(int(c) for c in reversed(p.all_coeffs())), int(m))
            for p, m in s_factors
        )
        assert int(s_unit) == unit
        assert sorted((g.coeffs, m) for g, m in fs) == want


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
