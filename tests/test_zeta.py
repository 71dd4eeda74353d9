import itertools
import json
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobtorus.errors import (
    InvariantViolation,
    NonIntegralCoefficient,
    ParseError,
    SizeExceeded,
    WeilBoundViolated,
)
from frobtorus import _fpx, zeta
from frobtorus._fpx import MR_BOUND
from frobtorus.curves import PointCounts
from frobtorus.intpoly import IntPoly, squarefree_part
from frobtorus.zeta import (
    _maybe_power,
    _sturm,
    _variations,
    WeilPolynomial,
    is_weil,
    power_sums,
    prime_power,
    weil_from_counts,
    weil_from_json,
    weil_to_json,
)
from oracles import prime_power_by_trial_division


def test_prime_power_decomposition():
    assert prime_power(9) == (3, 2)
    assert prime_power(1024) == (2, 10)
    assert prime_power(7) == (7, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_prime_power_matches_trial_division_below_1e5():
    for q in range(100_000):
        try:
            got = prime_power.__wrapped__(q)
        except ValueError:
            got = None
        assert got == prime_power_by_trial_division(q), q


def test_prime_power_takes_composite_exponents_as_prime_roots():
    for p, k in ((3, 40), (2, 60), (7, 6), (5, 12), (11, 9), (2, 97)):
        assert prime_power.__wrapped__(p ** k) == (p, k)
    with pytest.raises(ValueError):
        prime_power.__wrapped__(6 ** 10)


@pytest.mark.parametrize("untested", [False, True])
def test_prime_power_refusal_clips_a_long_q(untested):
    # 6 * 10^300 is even and not a power of 2; the other q has no prime
    # factor up to 41, so the prime test refuses it past MR_BOUND
    q = 6 * 10 ** 300
    if untested:
        q = next(n for n in range(q + 1, q + 10 ** 4)
                 if all(n % a for a in _fpx.MR_BASES))
    with pytest.raises(SizeExceeded if untested else ValueError) as refused:
        prime_power.__wrapped__(q)
    message = str(refused.value)
    assert len(message) < 120
    assert message.startswith(str(q)[:40]) and "(301 characters)" in message


def test_prime_power_refuses_a_q_past_the_int_string_limit_by_name():
    # 10^5000 has more digits than Python 3.11 turns into a string; the
    # refusal still names it in one short line
    with pytest.raises(ValueError, match="is not a prime power") as refused:
        prime_power.__wrapped__(10 ** 5000)
    assert len(str(refused.value)) < 120


def test_the_power_residue_pretest_never_rules_out_a_true_power():
    # the base 30030 is divisible by every prime up to 13, so the pretest
    # must skip the primes ell that divide it
    for r in (2, 3, 7, 30030, 2 ** 61 - 1, 10 ** 40 + 1):
        for e in (2, 3, 5, 7, 11, 13, 31, 97):
            assert _maybe_power(r ** e, e), (r, e)


def test_a_huge_q_is_refused_without_integer_roots(monkeypatch):
    # 3 * 10^4001 + 7 has about 13,300 bits, so about 1,580 prime exponents
    # e <= log2 q; the power residue pretest rules every one of them out
    calls = []

    def counted(n, k):
        calls.append(k)
        return iroot(n, k)

    iroot = zeta._iroot
    monkeypatch.setattr(zeta, "_iroot", counted)
    with pytest.raises(SizeExceeded):
        prime_power.__wrapped__(3 * 10 ** 4001 + 7)
    assert len(calls) <= 3


def test_prime_power_is_exact_up_to_the_miller_rabin_bound():
    M61 = 2 ** 61 - 1
    assert prime_power(M61) == (M61, 1)
    assert prime_power(M61 ** 30) == (M61, 30)  # the base, not q, is tested
    assert prime_power(43 ** 20) == (43, 20)
    # strong pseudoprimes to the first 11 and the first 12 prime bases
    for spsp in (3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError):
            prime_power(spsp)
    # MR_BOUND itself passes all 13 bases but is composite, so it is refused,
    # as is the prime 2^89 - 1 and any power of it
    for huge in (MR_BOUND, 2 ** 89 - 1, (2 ** 89 - 1) ** 2):
        with pytest.raises(SizeExceeded):
            prime_power(huge)
    # a factor up to 41 refuses a huge q before the bound is consulted;
    # 43 is not a base, so it leaves the root to the bound
    with pytest.raises(ValueError):
        prime_power(2 * (2 ** 89 - 1))
    with pytest.raises(SizeExceeded):
        prime_power(43 * (2 ** 89 - 1))


def test_is_prime_matches_trial_division_below_2e5():
    for n in range(200_000):
        assert _fpx.is_prime(n) == (n >= 2 and next(_fpx.prime_divisors(n)) == n), n


def test_is_prime_is_exact_up_to_the_miller_rabin_bound():
    assert _fpx.is_prime(2 ** 61 - 1)
    for spsp in (3825123056546413051, 318665857834031151167461):
        assert not _fpx.is_prime(spsp)
    assert not _fpx.is_prime(2 * (2 ** 89 - 1))  # decided by division
    with pytest.raises(SizeExceeded):
        _fpx.is_prime(2 ** 89 - 1)


def test_power_sums():
    counts = PointCounts(q=5, g=2, counts=(4, 30))
    assert power_sums(counts) == (5 + 1 - 4, 25 + 1 - 30)


def test_weil_from_counts_elliptic():
    P = weil_from_counts(PointCounts(q=5, g=1, counts=(4,)))
    assert (P.q, P.g, P.coeffs) == (5, 1, (5, -2, 1))


def test_weil_from_counts_genus2():
    P = weil_from_counts(PointCounts(q=3, g=2, counts=(3, 13)))
    assert P.coeffs == (9, -3, 2, -1, 1)


def test_weil_from_counts_rejects_non_integral():
    with pytest.raises(NonIntegralCoefficient):
        weil_from_counts(PointCounts(q=3, g=2, counts=(3, 10)))


def test_point_counts_enforce_weil_bound():
    with pytest.raises(WeilBoundViolated):
        PointCounts(q=3, g=1, counts=(9,))
    # boundary case: N = q + 1 + 2g*sqrt(q) only allowed when sqrt(q) integral
    PointCounts(q=4, g=1, counts=(9,))  # 4 + 1 + 2*2
    with pytest.raises(WeilBoundViolated):
        PointCounts(q=4, g=1, counts=(10,))


def test_point_counts_hold_one_count_per_genus():
    # weil_from_counts reads N_1 .. N_g; a short vector used to reach it and
    # fail there with an IndexError, a long one with a Newton error
    with pytest.raises(InvariantViolation, match="genus 2 needs 2 point counts, not 1"):
        PointCounts(q=3, g=2, counts=(4,))
    with pytest.raises(InvariantViolation, match="not 3"):
        PointCounts(q=3, g=2, counts=(4, 14, 28))


def test_weil_polynomial_validation():
    WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=5, g=1, coeffs=(5, -2, 2))  # not monic
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=5, g=1, coeffs=(4, -2, 1))  # constant != q^g
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=3, g=2, coeffs=(9, 2, 1, 2, 1))  # c1 != q*c3
    with pytest.raises(ValueError):
        WeilPolynomial(q=6, g=1, coeffs=(6, 0, 1))  # q not a prime power
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=5, g=2, coeffs=(5, -2, 1))  # wrong length


def test_is_weil_accepts_true_weil_polynomials():
    assert is_weil(WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))) is True
    # (x^2 - 2000000x + q)(x^2 - 1999999x + q) with a^2 - 4q = -156 for the
    # first factor: its roots are nearly a double root at sqrt(q), which
    # double-precision root finding put off the circle |x| = sqrt(q) by 2e-5
    q = 1000000000039
    c2 = 2 * q + 2000000 * 1999999
    P = WeilPolynomial(q=q, g=2, coeffs=(q * q, -3999999 * q, c2, -3999999, 1))
    assert is_weil(P) is True


def test_is_weil_accepts_repeated_root_case():
    # (T^2 + 5)^2 has doubled roots; the count runs on the squarefree part
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))
    assert is_weil(P) is True
    # (T - 2)^2 (T + 2)^2 over F_4: the roots +-sqrt(q) make y = +-2 sqrt(q),
    # the ends of the interval
    P = WeilPolynomial(q=4, g=2, coeffs=(16, 0, -8, 0, 1))
    assert is_weil(P) is True


def test_is_weil_rejects_wrong_modulus():
    # T^2 - 5T + 5 satisfies the functional equation for g=1 (only the
    # constant is pinned) but has real roots of modulus != sqrt(5)
    P = WeilPolynomial(q=5, g=1, coeffs=(5, -5, 1))
    assert is_weil(P) is False


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_is_weil_decides_products_of_quadratics(q):
    # every product of x^2 - a x + q with |a| up to 2 past the bound, each
    # multiset once: a Weil polynomial iff every a^2 <= 4q
    r = math.isqrt(4 * q) + 2
    for g in (1, 2, 3):
        for a in itertools.combinations_with_replacement(range(-r, r + 1), g):
            P = IntPoly([1])
            for ai in a:
                P = P * IntPoly([q, -ai, 1])
            want = all(ai * ai <= 4 * q for ai in a)
            assert is_weil(WeilPolynomial(q=q, g=g, coeffs=P.coeffs)) is want, a


def test_sturm_count_matches_sympy():
    # sparse coefficients make degree gaps in the remainder sequence, where
    # a pseudo-remainder by a negative leading coefficient to an odd power
    # would flip the sign of a term
    x = sympy.Symbol("x")
    rng = random.Random(5)
    for _ in range(500):
        d = rng.randrange(1, 8)
        cs = [rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(d)]
        S = squarefree_part(IntPoly(cs + [rng.choice([1, -1, 2, -3])]))
        a, b = sorted(rng.sample(range(-12, 13), 2))
        want = sympy.Poly(S.coeffs[::-1], x).count_roots(a, b) - (S(a) == 0)
        seq = _sturm(S)
        assert _variations(seq, a) - _variations(seq, b) == want, (S, a, b)


def _weil_of(h: IntPoly, q: int) -> WeilPolynomial:
    # the P with real_poly(P) = h: P = sum_j h_j x^(g-j) (x^2 + q)^j
    g = h.degree
    P = [0] * (2 * g + 1)
    for j, hj in enumerate(h.coeffs):
        for i in range(j + 1):
            P[g - j + 2 * i] += hj * math.comb(j, i) * q ** (j - i)
    return WeilPolynomial(q=q, g=g, coeffs=tuple(P))


def _roots(*roots, squares=()):
    # prod (y - r) over the roots times prod (y^2 - t) over the squares t
    h = IntPoly([1])
    for r in roots:
        h = h * IntPoly([-r, 1])
    for t in squares:
        h = h * IntPoly([-t, 0, 1])
    return h


def test_closed_forms_match_sturm_on_the_genus2_box():
    # P = x^4 + a1 x^3 + a2 x^2 + q a1 x + q^2 over the box |a1| <= 4q,
    # |a2| <= 6q + 2, whose real polynomial is h = y^2 + a1 y + a2 - 2q; the
    # box holds a double root just past 2 sqrt(q), (y - 3)^2 at q = 2
    weil = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for a1 in range(-4 * q, 4 * q + 1):
            for a2 in range(-6 * q - 2, 6 * q + 3):
                h = IntPoly([a2 - 2 * q, a1, 1])
                ok = zeta._real_is_weil(h, q)
                assert ok is zeta._sturm_is_weil(h, q), (q, h)
                weil += ok
    assert weil == 2013


@pytest.mark.parametrize("q, weil", [(2, 215), (3, 677), (4, 1641)])
def test_closed_form_matches_sturm_on_a_genus3_box(q, weil):
    # every h = y^3 + a y^2 + b y + c with |a| <= 3s + 1, |b| <= 12q + 1 and
    # |c| <= s^3 + 1, s = 2 sqrt(q): one past the coefficient bounds of a
    # cubic with its roots in [-s, s].  The Sturm path decides each h that
    # meets three necessary conditions of such roots: a^2 >= 3b (h' has
    # real roots), a^2 - 2b <= 12q (the sum of the squared roots) and
    # h(r) > 0 > h(-r) at the integer r = isqrt(4q) + 1 > s.  The rest must
    # be refused
    r = math.isqrt(4 * q) + 1
    top_a, top_c = math.isqrt(36 * q) + 1, math.isqrt(64 * q ** 3) + 1
    found = 0
    for a in range(-top_a, top_a + 1):
        for b in range(-12 * q - 1, 12 * q + 2):
            for c in range(-top_c, top_c + 1):
                h = IntPoly([c, b, a, 1])
                ok = zeta._real_is_weil(h, q)
                if a * a >= 3 * b and a * a - 2 * b <= 12 * q and h(r) > 0 > h(-r):
                    assert ok is zeta._sturm_is_weil(h, q), (q, h)
                else:
                    assert ok is False, (q, h)
                found += ok
    assert found == weil


def test_closed_forms_match_sympy_real_roots():
    # a seeded sample of h of degree 1..3, half products of integer and
    # quadratic factors, which put roots on and near +-2 sqrt(q); sympy
    # finds the real roots with multiplicity, exactly
    rng = random.Random(11)
    y = sympy.Symbol("y")
    for _ in range(150):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
        g = rng.randrange(1, 4)
        top = math.isqrt(4 * q) + 1
        if rng.random() < 0.5:
            h = IntPoly([rng.randint(-top ** g, top ** g) for _ in range(g)] + [1])
        else:
            k = rng.randrange(g // 2 + 1)
            h = _roots(*[rng.randint(-top, top) for _ in range(g - 2 * k)],
                       squares=[rng.randint(-2, 4 * q + 2) for _ in range(k)])
        roots = sympy.real_roots(sympy.Poly(h.coeffs[::-1], y))
        want = len(roots) == h.degree and all(bool(r ** 2 <= 4 * q) for r in roots)
        assert zeta._real_is_weil(h, q) is want, (q, h)
        assert is_weil(_weil_of(h, q)) is want, (q, h)


BIG_R = 20000000019
BIG_Q = (BIG_R ** 2 - 5) // 4

# (q, h, whether every root of h is real in [-2 sqrt(q), 2 sqrt(q)])
WEIL_EDGES = [
    # square q: roots exactly at +-2 sqrt(q), and one step past it
    (4, _roots(4), True),
    (4, _roots(5), False),
    (4, _roots(4, -4), True),
    (9, _roots(6, -6, 0), True),
    (4, _roots(4, -4, 5), False),
    (4, _roots(4, -5, 1), False),
    # irrational ends: h(2 sqrt(2)) = 0, where A = B = 0
    (2, _roots(1, squares=[8]), True),
    (2, _roots(3, squares=[8]), False),
    (2, _roots(1, squares=[9]), False),
    (2, _roots(-2, squares=[7]), True),
    # double roots, disc(h) = 0
    (2, _roots(1, 1, -2), True),
    (2, _roots(3, 3, 1), False),
    (2, _roots(-3, -3, 0), False),
    (4, _roots(4, 4, -4), True),
    (4, _roots(-4, -4, 4), True),
    (2, _roots(3, 3), False),
    # triple roots
    (2, _roots(2, 2, 2), True),
    (2, _roots(3, 3, 3), False),
    (4, _roots(-4, -4, -4), True),
    # the prime q = (r^2 - 5) / 4 puts the root r of (y - r)(y^2 - 4q + 1)
    # about 5 / (2r) past 2 sqrt(q) ~ 2e10: there a float sqrt(q) in
    # _nonnegative gets the sign of h(2 sqrt(q)) wrong
    (BIG_Q, _roots(BIG_R, squares=[4 * BIG_Q - 1]), False),
    (BIG_Q, _roots(-BIG_R, squares=[4 * BIG_Q - 1]), False),
]


@pytest.mark.parametrize("q, h, want", WEIL_EDGES)
def test_is_weil_edge_cases(q, h, want):
    assert zeta._real_is_weil(h, q) is want
    assert zeta._sturm_is_weil(h, q) is want
    assert is_weil(_weil_of(h, q)) is want


@pytest.mark.parametrize("h", [IntPoly([1, 0, 0, 1]), IntPoly([0, 1, 0, 1])])
def test_genus3_negative_discriminant_fails_with_nonnegative_shifts(h):
    # y^3 + 1 and y^3 + y have a pair of non-real roots, yet h(y + s) and
    # -h(-y - s) have no negative coefficient: the discriminant decides
    q = 2
    c, b, a = h.coeffs[:3]
    assert a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c < 0
    shifts = [(a, 3), (12 * q + b, 2 * a), (4 * q * a + c, 4 * q + b),
              (-a, 3), (12 * q + b, -2 * a), (-4 * q * a - c, 4 * q + b)]
    assert all(zeta._nonnegative(A, B, q) for A, B in shifts)
    assert zeta._real_is_weil(h, q) is False
    assert is_weil(_weil_of(h, q)) is False


def test_weil_json_roundtrip_small():
    P = WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))
    d = weil_to_json(P)
    assert d == {"q": 5, "g": 1, "coeffs": [5, -2, 1]}
    assert weil_from_json(d) == P
    assert weil_from_json(json.loads(json.dumps(d))) == P


def test_weil_json_big_integers_become_strings():
    q = 2 ** 19
    c0 = q ** 3
    assert c0 > 2 ** 53
    P = WeilPolynomial(
        q=q, g=3, coeffs=(c0, 0, 3 * q ** 2, 0, 3 * q, 0, 1)
    )
    d = weil_to_json(P)
    assert d["coeffs"][0] == str(c0)
    assert d["coeffs"][2] == 3 * q ** 2  # still below the cutoff
    assert weil_from_json(d) == P


@pytest.mark.parametrize(
    "doc",
    [
        {"q": 5, "g": 1},
        {"q": 5, "g": 1, "coeffs": [5, "x", 1]},
        {"q": 5, "g": 1, "coeffs": [5, True, 1]},
        {"q": 5, "g": 1, "coeffs": [5, 2.5, 1]},
        {"q": 5, "g": 1, "coeffs": [4, -2, 1]},  # fails Weil shape checks
        {"q": 2, "g": 1, "coeffs": "221"},  # a string, not an array
        # a p=3 genus-2 survey's x^4 + x^3 + 2x^2 + 3x + 9, read digit by digit
        {"q": 3, "g": 2, "coeffs": "93211"},
        "not even an object",
    ],
)
def test_weil_from_json_rejects_garbage(doc):
    with pytest.raises(ParseError):
        weil_from_json(doc)


@settings(max_examples=60)
@given(st.integers(0, 11), st.integers(0, 51))
def test_counts_in_weil_window_give_weil_poly_or_nonintegral(n1, n2):
    # genus 2 over F_3: every count vector inside the Weil bounds either
    # yields a valid Weil polynomial or trips the integrality check
    try:
        counts = PointCounts(q=3, g=2, counts=(n1, n2))
    except WeilBoundViolated:
        return
    try:
        P = weil_from_counts(counts)
    except NonIntegralCoefficient:
        return
    assert P.coeffs[0] == 9 and P.coeffs[4] == 1
    assert P.coeffs[1] == 3 * P.coeffs[3]
