import contextlib
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frobtorus import gf, simplicity
from frobtorus.curves import (
    PointCounts,
    count_batch,
    counts_up_to_genus,
    curve_from_text,
    smoothness_gcd_degrees,
)
from frobtorus.intpoly import IntPoly, cyclotomic, factor, squarefree_part
from frobtorus.simplicity import (
    ABSOLUTELY_SIMPLE,
    CLASSIFY_CACHE_SIZE,
    INCONCLUSIVE,
    NOT_ABSOLUTELY_SIMPLE,
    NOT_SIMPLE,
    REASON_PURE_POWER,
    REASON_REPEATED_BASE,
    SimplicityVerdict,
    _decide,
    _torsion_candidates,
    _torsion_table,
    charpoly_power,
    classify,
    ratio_poly,
    ratio_torsion_orders,
    verdict_from_json,
    verdict_to_json,
    verify_verdict,
)
from frobtorus.errors import (
    InvariantViolation,
    NonIntegralCoefficient,
    ParseError,
    SizeExceeded,
    WeilBoundViolated,
)
from frobtorus.survey import SurveyConfig, enumerate_equations
from frobtorus.zeta import WeilPolynomial, is_weil, weil_from_counts
from oracles import (
    charpoly_power_by_resultant,
    decide_by_every_order,
    minpoly_degree_over_q,
    powmod_monic,
    ratio_factors_by_full_newton,
    ratio_poly_by_full_newton,
    ratio_poly_by_resultant,
    ratio_torsion_orders_by_phi_scan,
)

P_ORD = WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))     # ordinary elliptic
P_SS = WeilPolynomial(q=5, g=1, coeffs=(5, 0, 1))       # supersingular
P_SPLIT2 = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 2, 0, 1))   # T^4+2T^2+25
P_INC2 = WeilPolynomial(q=3, g=2, coeffs=(9, 0, 0, 0, 1))      # T^4+9
P_AS2 = WeilPolynomial(q=3, g=2, coeffs=(9, -3, 2, -1, 1))


def test_charpoly_power_identity():
    assert charpoly_power(P_ORD, 1) == IntPoly([5, -2, 1])


def test_charpoly_power_symmetric_function_values():
    # pi + pib = 2, pi*pib = 5 => squares sum to -6, multiply to 25
    assert charpoly_power(P_ORD, 2) == IntPoly([25, 6, 1])
    # cubes: s3 = s1^3 - 3*q*s1 = 8 - 30 = -22
    assert charpoly_power(P_ORD, 3) == IntPoly([125, 22, 1])


def test_charpoly_power_constant_frobenius_branch():
    # for T^2 + 5, pi^2 = -5 exactly: charpoly is (T + 5)^2
    assert charpoly_power(P_SS, 2) == IntPoly([25, 10, 1])
    assert charpoly_power(P_SS, 4) == IntPoly([625, -50, 1])  # (T - 25)^2


def test_charpoly_power_rejects_bad_n():
    with pytest.raises(ValueError):
        charpoly_power(P_ORD, 0)


def test_charpoly_power_is_multiplicative():
    rng = random.Random(5)
    pool = [P_ORD, P_SS, P_AS2, P_INC2, P_SPLIT2]
    for P in pool:
        for m in (1, 2, 3):
            for n in (1, 2):
                lhs = charpoly_power(P, m * n)
                mid = WeilPolynomial(
                    q=P.q ** m, g=P.g, coeffs=tuple(charpoly_power(P, m).coeffs)
                )
                assert lhs == charpoly_power(mid, n), (P.coeffs, m, n)


def minpoly_power(P, n):
    # minimal polynomial of pi^n for irreducible P; its degree is [Q(pi^n):Q]
    return squarefree_part(charpoly_power(P, n))


def test_minpoly_power_is_squarefree_part():
    assert minpoly_power(P_SS, 2) == IntPoly([5, 1])
    assert minpoly_power(P_ORD, 2) == charpoly_power(P_ORD, 2)


def test_minpoly_power_degree_against_linear_algebra_oracle():
    for P in (P_ORD, P_SS, P_AS2, P_INC2):
        mod = IntPoly(P.coeffs)
        for n in range(1, 8):
            got = minpoly_power(P, n).degree
            elem = list(powmod_monic(IntPoly([0, 1]), n, mod).coeffs)
            want = minpoly_degree_over_q(elem, list(P.coeffs))
            assert got == want, (P.coeffs, n, got, want)


def _scaled_ratio(P):
    # q^(2g^2) R from ratio_poly's two factors: A(qx) B(qx)^2
    A, B = ratio_poly(P)
    return A * B * B


def _times_q_power(P, R):
    # q^(2g^2) R, the scale of _scaled_ratio
    return P.q ** (2 * P.g * P.g) * R


def test_ratio_poly_known_values():
    assert _scaled_ratio(P_SS) == _times_q_power(P_SS, IntPoly([25, 0, -50, 0, 25]))
    assert _scaled_ratio(P_ORD) == _times_q_power(P_ORD, IntPoly([25, -20, -10, -20, 25]))
    # A = (x + 5)^2, the charpoly of pi^2 = -5, and B = x - 5, the root pi
    # pib = q; g = 1 makes N = 1 odd, so B(qx) = 5x - 5 mirrors with a sign
    assert ratio_poly(P_SS) == (IntPoly([25, 50, 25]), IntPoly([-5, 5]))


def test_ratio_poly_is_exact_for_repeated_roots():
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))  # (T^2+5)^2
    assert _scaled_ratio(P) == _times_q_power(P, ratio_poly_by_resultant(P))


def _weil_in_window(q, g, counts):
    # counts inside the Weil bounds that give an integral Weil polynomial
    try:
        return weil_from_counts(PointCounts(q=q, g=g, counts=counts))
    except (WeilBoundViolated, NonIntegralCoefficient):
        return None


weil_in_window = st.one_of(
    st.tuples(st.integers(0, 11), st.integers(0, 51)).map(
        lambda c: _weil_in_window(3, 2, c)),
    st.tuples(st.integers(0, 11), st.integers(0, 17), st.integers(0, 26)).map(
        lambda c: _weil_in_window(2, 3, c)),
).filter(lambda P: P is not None)


@given(weil_in_window)
@settings(max_examples=40, deadline=None)
def test_power_sum_kernel_matches_resultant_oracles(P):
    for n in range(1, 13):
        assert charpoly_power(P, n) == charpoly_power_by_resultant(P, n), n
    assert _scaled_ratio(P) == _times_q_power(P, ratio_poly_by_resultant(P))


def test_ratio_torsion_orders():
    assert ratio_torsion_orders(P_ORD) == set()
    assert ratio_torsion_orders(P_SS) == {2}
    assert ratio_torsion_orders(P_INC2) == {2, 4}
    assert ratio_torsion_orders(P_AS2) == set()


def test_torsion_candidates_follow_from_the_two_bounds():
    # phi(m) >= sqrt(m) for m other than 2 and 6, so phi(m) <= B forces
    # m <= max(B^2, 6)
    for g, size in zip(range(1, 9), (4, 13, 39, 57, 102, 174, 257, 319)):
        bound = 2 * g * (2 * g - 1)  # degree of R / (x-1)^2g
        group_order = 2 ** g * math.factorial(g)  # |C_2 wr S_g|
        phis = sympy.sieve.totientrange(2, max(bound * bound, 6) + 1)
        want = tuple(
            m for m, phi in enumerate(phis, start=2)
            if phi <= bound and group_order % phi == 0
        )
        assert len(want) == size
        assert _torsion_candidates(g) == want


def _prefilter_by_sympy(g):
    # the prefilter table rebuilt with sympy: runs of ascending orders whose
    # lcm L stays at most 2^24, per run the first prime ell = 1 mod L above
    # 2^31 and w = a^((ell-1)/L) of order L for the least a >= 2; returns
    # the runs' primes and per order m the row (run index, ell, m, w^(L/m))
    runs = []
    for m in _torsion_candidates(g):
        if runs and math.lcm(runs[-1][0], m) <= 2 ** 24:
            runs[-1] = (math.lcm(runs[-1][0], m), runs[-1][1] + [m])
        else:
            runs.append((m, [m]))
    primes, rows = [], []
    for i, (L, orders) in enumerate(runs):
        ell = next(
            p for p in itertools.count(2 ** 31 // L * L + 1, L)
            if p > 2 ** 31 and sympy.isprime(p)
        )
        w = next(
            w for a in itertools.count(2)
            if sympy.n_order(w := pow(a, (ell - 1) // L, ell), ell) == L
        )
        primes.append(ell)
        rows += [(i, ell, m, pow(w, L // m, ell)) for m in orders]
    return tuple(primes), rows


def _factor_degrees(g):
    # (d, sign) of A(qx) and B(qx): the degree, and the sign of the mirror
    # rule that maps coefficient k to coefficient d - k
    N = g * (2 * g - 1)
    return (2 * g, 1), (N, (-1) ** N)


def _weights(d, sign, p, w):
    # the weights of the top half of a degree-d factor under its mirror rule,
    # at w mod p; a middle coefficient counts once
    return tuple(
        pow(w, k, p) if 2 * k == d else (pow(w, k, p) + sign * pow(w, d - k, p)) % p
        for k in range((d + 1) // 2, d + 1)
    )


@pytest.mark.parametrize("g", range(1, 9))
def test_torsion_prefilter_roots_are_roots_of_the_cyclotomics(g):
    # a zero residue F(w_m) mod ell is necessary for Phi_m | F only when
    # w_m is a root of Phi_m mod ell, i.e. has exact order m in F_ell.  The
    # table holds w_m through its weights, which are those of the w_m below;
    # each factor has a row for each candidate order m whose phi(m) is at
    # most its degree, the only ones whose Phi_m can divide it
    primes, rows = _torsion_table(g)
    want_primes, want = _prefilter_by_sympy(g)
    assert [m for _, _, m, _ in want] == list(_torsion_candidates(g))
    assert primes == want_primes
    for (d, sign), got in zip(_factor_degrees(g), rows):
        assert list(got) == [
            (p, m, _weights(d, sign, p, w))
            for _, p, m, w in want if sympy.totient(m) <= d
        ]
    for _, p, m, w in want:
        assert p > 2 ** 31 and sympy.isprime(p)
        assert (p - 1) % m == 0
        assert sympy.n_order(w, p) == m
        assert cyclotomic(m)(w) % p == 0
    for i in range(len(primes)):
        assert math.lcm(*(m for r, _, m, _ in want if r == i)) <= 2 ** 24
    if g <= 4:
        # L <= 2^23: one run, one prime for every order
        assert primes == ((2147483713, 2147484721, 2154166561, 2156394241)[g - 1],)


@pytest.mark.parametrize("g", range(1, 9))
def test_torsion_residue_matrix_is_exact_and_read_only(g):
    # each row's weights take the top half of A(qx) or B(qx) mod ell to the
    # factor's value at w_m mod ell; every weight is a residue, and the
    # table is tuples throughout, so no caller can change it
    primes, rows = _torsion_table(g)
    _, want = _prefilter_by_sympy(g)
    w_of = {m: w for _, _, m, w in want}
    assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
    # random integer polynomials under the two symmetry rules, evaluated at
    # w_m by Horner's rule over Z
    rng = random.Random(g)
    for (d, sign), got in zip(_factor_degrees(g), rows):
        F = [0] * (d + 1)
        for k in range((d + 1) // 2, d + 1):
            F[k] = rng.randrange(-10 ** 30, 10 ** 30)
            F[d - k] = sign * F[k] if 2 * k != d else F[k]
        upper = F[(d + 1) // 2:]
        for p, m, weights in got:
            assert isinstance(weights, tuple) and all(0 <= x < p for x in weights)
            assert len(weights) == len(upper)
            value = sum(x * (c % p) for x, c in zip(weights, upper)) % p
            assert value == IntPoly(F)(w_of[m]) % p, (g, d, m)


# survey families and the number of distinct Weil polynomials among their
# curves
RATIO_FAMILIES = {
    (3, 2, 5, None): 32,
    (3, 3, 7, 300): 90,
    (5, 2, 5, None): 81,
    (7, 2, 6, 300): 107,
    (5, 3, 7, 200): 93,
    (3, 4, 9, 60): 48,
}


def _smooth_odd_rows(p, fs):
    # the rows f of fs, monic over F_p with p odd, whose y^2 = f is smooth
    fs = np.array(fs, dtype=np.int64)
    return fs[smoothness_gcd_degrees(p, np.zeros((len(fs), 0), dtype=np.int64), fs) <= 0]


def _odd_weils(p, g, fs):
    # the Weil polynomial of y^2 = f over F_p for each smooth row f of fs
    h = np.zeros((len(fs), 0), dtype=np.int64)
    return [weil_from_counts(PointCounts(q=p, g=g, counts=c))
            for c in count_batch(gf.field_create(p, 1), g, h, fs)]


def _family_weils(p, g, deg, limit):
    # the distinct Weil polynomials of a survey family's first `limit` curves
    equations = enumerate_equations(SurveyConfig(p=p, genus=g, degree=deg))
    rows = []
    while limit is None or sum(map(len, rows)) < limit:
        block = list(itertools.islice(equations, 256))
        if not block:
            break
        rows.append(_smooth_odd_rows(p, [f for _, f in block]))
    return set(_odd_weils(p, g, np.concatenate(rows)[:limit]))


def _at_qx(F, q):
    # F(qx)
    return IntPoly([c * q ** i for i, c in enumerate(F.coeffs)])


def _check_ratio_factors(P):
    # ratio_poly's A(qx) and B(qx) against the factors built at full length;
    # both symmetry rules on the full-length factors, B's with its sign
    # (-1)^N, which is -1 at odd g; and A(qx) B(qx)^2 = q^(2g^2) R for R
    # built at full length
    A, B = ratio_factors_by_full_newton(P)
    q, g, N = P.q, P.g, B.degree
    assert (A.degree, N) == (2 * g, g * (2 * g - 1))
    assert ratio_poly(P) == (_at_qx(A, q), _at_qx(B, q)), P
    assert all(
        A.coeffs[k] * q ** (2 * k) == q ** (2 * g) * A.coeffs[2 * g - k]
        for k in range(2 * g + 1)
    ), P
    sign = -1 if g % 2 else 1
    assert all(
        B.coeffs[k] * q ** (2 * k) == sign * q ** N * B.coeffs[N - k] for k in range(N + 1)
    ), P
    assert _scaled_ratio(P) == _times_q_power(P, ratio_poly_by_full_newton(P)), P


def _check_half_length_ratio_poly(Ps):
    # ratio_poly against the full-length construction, ratio_torsion_orders
    # against the phi scan; the number of P with a nonempty torsion set
    nonempty = 0
    for P in Ps:
        _check_ratio_factors(P)
        orders = ratio_torsion_orders(P)
        assert orders == ratio_torsion_orders_by_phi_scan(P), P
        nonempty += bool(orders)
    return nonempty


@pytest.mark.parametrize(
    "family,distinct",
    RATIO_FAMILIES.items(),
    ids=[f"p{p}-g{g}-deg{d}-limit{n}" for p, g, d, n in RATIO_FAMILIES],
)
def test_half_length_ratio_poly_on_survey_families(family, distinct):
    Ps = sorted(_family_weils(*family), key=lambda P: P.coeffs)
    assert len(Ps) == distinct
    assert _check_half_length_ratio_poly(Ps) > 0
    if family[1] <= 3:
        for P in Ps[::8]:
            assert _scaled_ratio(P) == _times_q_power(P, ratio_poly_by_resultant(P)), P


GENUS_7_CURVE = "3; h=; f=0,1,0,0,0,2,2,0,1,2,0,1,2,0,2,1"
GENUS_8_CURVE = "3; h=; f=1,2,0,1,0,2,2,0,1,2,0,1,2,0,2,1,1,1"


def _curve_weil(text):
    return weil_from_counts(counts_up_to_genus(curve_from_text(text)))


def _seeded_weils(g, count, seed):
    # Weil polynomials of the first `count` smooth seeded random
    # y^2 = f(x) over F_3 with f monic of degree 2g + 1
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        f = tuple(rng.randrange(3) for _ in range(2 * g + 1)) + (1,)
        rows += list(_smooth_odd_rows(3, [f]))
    return _odd_weils(3, g, np.array(rows))


def _times_t2_plus_3(P):
    # P * (T^2 + 3), a Weil polynomial of genus g + 1 with the ratio -1
    F = IntPoly(P.coeffs) * IntPoly([3, 0, 1])
    return WeilPolynomial(q=3, g=P.g + 1, coeffs=F.coeffs)


def test_half_length_ratio_poly_on_seeded_genus_5_to_8():
    genus_6 = _seeded_weils(6, 2, 6)
    genus_7 = _curve_weil(GENUS_7_CURVE)
    Ps = _seeded_weils(5, 3, 5) + genus_6 + [
        genus_7,
        _times_t2_plus_3(genus_6[0]),
        _curve_weil(GENUS_8_CURVE),
        _times_t2_plus_3(genus_7),
    ]
    assert [P.g for P in Ps] == [5, 5, 5, 6, 6, 7, 7, 8, 8]
    assert _check_half_length_ratio_poly(Ps) >= 3


# the prefilter primes of g = 1 and g = 2 as q: every coefficient of A(qx)
# and B(qx) is a multiple of q, so every order gets the residue 0 and goes
# on to exact division; none needs a special case
ELL_1, ELL_2 = 2147483713, 2147484721


@pytest.mark.parametrize(
    "P,kind,orders",
    [
        (WeilPolynomial(q=ELL_1, g=1, coeffs=(ELL_1, 0, 1)), ABSOLUTELY_SIMPLE, (2,)),
        (WeilPolynomial(q=ELL_1, g=1, coeffs=(ELL_1, 1, 1)), ABSOLUTELY_SIMPLE, ()),
        (
            WeilPolynomial(q=ELL_2, g=2, coeffs=(ELL_2 ** 2, ELL_2, 1, 1, 1)),
            ABSOLUTELY_SIMPLE,
            (),
        ),
        (WeilPolynomial(q=ELL_2, g=2, coeffs=(ELL_2 ** 2, 0, 0, 0, 1)), INCONCLUSIVE, (2, 4)),
        (
            WeilPolynomial(q=ELL_2, g=2, coeffs=(ELL_2 ** 2, 0, ELL_2, 0, 1)),
            INCONCLUSIVE,
            (2, 3, 6),
        ),
    ],
)
def test_q_equal_to_a_prefilter_prime(P, kind, orders):
    assert simplicity._weil_factors(P) == [(IntPoly(P.coeffs), 1)]  # irreducible
    v = classify(P)
    assert (v.kind, v.torsion_orders) == (kind, orders)
    assert set(orders) == ratio_torsion_orders_by_phi_scan(P)
    assert verify_verdict(P, v)


def _window_factor(draw, q, h):
    # a q-symmetric monic polynomial of degree 2h with each upper
    # coefficient inside its Weil window |c_(2h-i)| <= C(2h, i) q^(i/2)
    upper = [1] + [
        draw(st.integers(-w, w))
        for w in (math.comb(2 * h, i) * math.isqrt(q ** i) for i in range(1, h + 1))
    ]
    coeffs = [0] * (2 * h + 1)
    for i, c in enumerate(upper):
        coeffs[2 * h - i], coeffs[i] = c, q ** (h - i) * c
    return IntPoly(coeffs)


@st.composite
def squarefree_weil_window(draw):
    """Squarefree products of Weil-window factors, g = 1..4; small q and
    small factors make root-of-unity eigenvalue ratios common."""
    q = draw(st.sampled_from((2, 3, 4, 9)))
    g = left = draw(st.integers(1, 4))
    F = IntPoly([1])
    while left:
        h = draw(st.integers(1, left))
        F = F * _window_factor(draw, q, h)
        left -= h
    assume(squarefree_part(F) == F)
    return WeilPolynomial(q=q, g=g, coeffs=F.coeffs)


@given(squarefree_weil_window())
@example(WeilPolynomial(q=3, g=3, coeffs=(27, 0, 0, 9, 0, 0, 1)))  # {3, 18}
@example(WeilPolynomial(q=2, g=3, coeffs=(8, -8, 0, 4, 0, -2, 1)))  # up to 24
@example(WeilPolynomial(q=9, g=4, coeffs=(6561, 729, 1458, -162, 135, -18, 18, 1, 1)))
@settings(max_examples=60, deadline=None)
def test_torsion_orders_match_the_full_phi_scan(P):
    assert ratio_torsion_orders(P) == ratio_torsion_orders_by_phi_scan(P)


def _twin(P):
    # the Weil polynomial P(-x) of the quadratic twist
    return WeilPolynomial(
        q=P.q, g=P.g, coeffs=tuple(-c if i % 2 else c for i, c in enumerate(P.coeffs))
    )


@contextlib.contextmanager
def _decisions():
    # counts the runs of classify's decision body
    with mock.patch.object(simplicity, "_decide", wraps=simplicity._decide) as m:
        yield m


def test_classify_memo_is_bounded_and_serves_the_cold_verdict():
    assert 0 < CLASSIFY_CACHE_SIZE == classify.cache_info().maxsize
    # P_ORD and P_AS2 have a twin with larger coefficients, so they are
    # the members that get decided; the other three are their own twins
    pool = (P_ORD, P_SS, P_SPLIT2, P_INC2, P_AS2)
    with _decisions() as decide:
        for P in pool:
            twin = _twin(P)
            twin_verdict = classify(twin)
            cold = classify(P)
            assert classify(WeilPolynomial(q=P.q, g=P.g, coeffs=P.coeffs)) is cold
            assert classify(twin) is twin_verdict
            assert _decide(P) == cold and _decide(twin) == twin_verdict
    # one decision per twist class, whichever member came first; each
    # member of a pair is memoized, a derived verdict included
    assert decide.call_count == 5
    info = classify.cache_info()
    assert (info.misses, info.hits, info.currsize) == (7, 15, 7)


@given(squarefree_weil_window(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_classify_derives_the_twin_verdict_exactly(P, twin_first):
    classify.cache_clear()
    pair = (_twin(P), P) if twin_first else (P, _twin(P))
    with _decisions() as decide:
        verdicts = [classify(X) for X in pair]
    assert decide.call_count == 1
    assert verdicts == [_decide(X) for X in pair]


@pytest.mark.parametrize("q,coeffs,kind,witness_n", [
    (2, (4, -2, -1, -1, 1), NOT_ABSOLUTELY_SIMPLE, 3),  # odd witness: factors move
    (2, (4, -6, 5, -3, 1), NOT_ABSOLUTELY_SIMPLE, 6),
    (3, (9, -12, 8, -4, 1), NOT_ABSOLUTELY_SIMPLE, 4),
    (2, (4, -6, 6, -3, 1), NOT_SIMPLE, None),  # the twisted factors re-sort
    (2, (4, -4, 5, -2, 1), NOT_ABSOLUTELY_SIMPLE, 1),
    (2, (4, -8, 8, -4, 1), INCONCLUSIVE, None),
])
@pytest.mark.parametrize("twin_first", [False, True])
def test_twin_verdicts_on_every_path(q, coeffs, kind, witness_n, twin_first):
    P = WeilPolynomial(q=q, g=2, coeffs=coeffs)
    pair = (_twin(P), P) if twin_first else (P, _twin(P))
    with _decisions() as decide:
        verdicts = [classify(X) for X in pair]
    assert decide.call_count == 1
    for X, v in zip(pair, verdicts):
        assert v == _decide(X)
        assert (v.kind, v.witness_n) == (kind, witness_n)
        assert verify_verdict(X, v)
    moved = witness_n is None or witness_n % 2 == 1
    assert (verdicts[0].factors != verdicts[1].factors) == moved


def test_classify_absolutely_simple():
    v = classify(P_AS2)
    assert v.kind == ABSOLUTELY_SIMPLE
    assert v.witness_n is None
    assert v.torsion_orders == ()
    assert verify_verdict(P_AS2, v)


def test_classify_not_simple():
    P = weil_from_counts(PointCounts(q=3, g=2, counts=(4, 14)))
    v = classify(P)
    assert v.kind == NOT_SIMPLE
    assert len(v.factors) == 2
    assert verify_verdict(P, v)


def test_classify_not_absolutely_simple_with_witness():
    v = classify(P_SPLIT2)
    assert v.kind == NOT_ABSOLUTELY_SIMPLE
    assert v.witness_n == 2
    assert v.factors  # factorization of the power charpoly is the certificate
    assert verify_verdict(P_SPLIT2, v)


def test_classify_repeated_ordinary_base_is_nas_at_one():
    # (T^2 - 2T + 5)^2: repeated ordinary factor means isogenous to a square
    # already over the base field, so the witness is n = 1
    sq = IntPoly(P_ORD.coeffs)
    P = WeilPolynomial(q=5, g=2, coeffs=(sq * sq).coeffs)
    v = classify(P)
    assert v.kind == NOT_ABSOLUTELY_SIMPLE
    assert v.witness_n == 1
    assert verify_verdict(P, v)


def test_classify_repeated_supersingular_base_is_inconclusive():
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))  # (T^2+5)^2
    v = classify(P)
    assert v.kind == INCONCLUSIVE
    assert v.reason == REASON_REPEATED_BASE
    assert verify_verdict(P, v)


def test_classify_pure_nonordinary_power_is_inconclusive():
    v = classify(P_INC2)
    assert v.kind == INCONCLUSIVE
    assert v.reason == REASON_PURE_POWER
    assert sorted(v.torsion_orders) == [2, 4]
    assert verify_verdict(P_INC2, v)


def test_a_pure_power_builds_no_witness_charpoly(monkeypatch):
    # x^4 + 9 over F_3 is irreducible with torsion orders (2, 4) and not
    # ordinary, and no power of it is: no witness charpoly is built.  An
    # ordinary irreducible P with torsion orders builds one, at its
    # smallest order
    calls = []

    def counted(P, n):
        calls.append((P.coeffs, n))
        return charpoly_power(P, n)

    monkeypatch.setattr(simplicity, "charpoly_power", counted)
    classify.cache_clear()
    v = classify(P_INC2)
    assert v == SimplicityVerdict(
        kind=INCONCLUSIVE, reason=REASON_PURE_POWER, torsion_orders=(2, 4)
    )
    assert calls == []
    P = WeilPolynomial(q=2, g=2, coeffs=(4, -6, 5, -3, 1))
    v = classify(P)
    assert v.kind == NOT_ABSOLUTELY_SIMPLE and v.witness_n == min(v.torsion_orders)
    assert calls == [(P.coeffs, v.witness_n)]


def _genus2_full_box(q):
    # every x^4 + a1 x^3 + a2 x^2 + q a1 x + q^2 with |a1| <= 2(floor(2 sqrt(q))
    # + 1) and |a2| <= 6q + 2, Weil or not: for q = 2..5 it holds 197
    # irreducible P with torsion orders, where _genus2_box holds 80
    top = 2 * (math.isqrt(4 * q) + 1)
    for a1 in range(-top, top + 1):
        for a2 in range(-6 * q - 2, 6 * q + 3):
            yield WeilPolynomial(q=q, g=2, coeffs=(q * q, q * a1, a2, a1, 1))


def test_classify_equals_the_decision_at_every_torsion_order():
    # one witness charpoly, at the smallest order of an ordinary P, decides
    # as the walk over every order does
    Ps = [P for q in (2, 3, 4, 5) for P in _genus2_full_box(q)]
    for family in ((3, 2, 5, None), (3, 3, 7, 300), (3, 4, 9, 60)):
        Ps += sorted(_family_weils(*family), key=lambda P: P.coeffs)
    paths = set()
    for P in Ps:
        v = classify(P)
        assert v == decide_by_every_order(P), P
        paths.add((v.kind, v.reason, (v.witness_n or 1) > 1))
    # both ends of the torsion path occur, and the other verdicts too
    assert paths >= {
        (NOT_ABSOLUTELY_SIMPLE, None, True),
        (INCONCLUSIVE, REASON_PURE_POWER, False),
        (NOT_ABSOLUTELY_SIMPLE, None, False),
        (INCONCLUSIVE, REASON_REPEATED_BASE, False),
        (ABSOLUTELY_SIMPLE, None, False),
        (NOT_SIMPLE, None, False),
    }


def test_classify_supersingular_elliptic_is_absolutely_simple():
    # dimension 1 is simple over every extension, supersingular or not
    v = classify(P_SS)
    assert v.kind == ABSOLUTELY_SIMPLE
    assert v.factors == ((IntPoly([5, 0, 1]), 1),)
    assert v.torsion_orders == (2,)  # the eigenvalue ratio -1
    assert verify_verdict(P_SS, v)
    # a repeated base: T^2 - 6T + 9 = (T - 3)^2 over F_9, and its twist
    for Q, h in ((WeilPolynomial(q=9, g=1, coeffs=(9, -6, 1)), IntPoly([-3, 1])),
                 (WeilPolynomial(q=9, g=1, coeffs=(9, 6, 1)), IntPoly([3, 1]))):
        v = classify(Q)
        assert (v.kind, v.factors) == (ABSOLUTELY_SIMPLE, ((h, 2),))
        assert verify_verdict(Q, v)


def test_classify_rejects_degree_past_the_factoring_cap():
    P = WeilPolynomial(q=2, g=9, coeffs=(IntPoly([2, 0, 1]) ** 9).coeffs)
    with pytest.raises(SizeExceeded):
        classify(P)
    assert classify.cache_info().currsize == 0  # errors are not memoized


def test_weil_factors_decide_irreducibility():
    for P in (P_ORD, P_SS, P_AS2, P_SPLIT2):
        # irreducible, P_SS even though supersingular, P_SPLIT2 though it
        # splits at n = 2
        assert simplicity._weil_factors(P) == [(IntPoly(P.coeffs), 1)]
    split = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 6, 0, 1))
    assert simplicity._weil_factors(split) == [
        (IntPoly([5, -2, 1]), 1), (IntPoly([5, 2, 1]), 1)
    ]
    repeated = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))
    assert simplicity._weil_factors(repeated) == [(IntPoly([5, 0, 1]), 2)]


# q for the Weil-path tests: squares and non-squares, primes and prime powers
WEIL_PATH_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


def _genus2_box(q):
    # every x^4 + a x^3 + b x^2 + qa x + q^2 whose real polynomial
    # y^2 + a y + (b - 2q) could have both roots in [-2 sqrt(q), 2 sqrt(q)]:
    # |a| <= 4 sqrt(q), and -4q <= b - 2q <= a^2/4
    top = math.isqrt(16 * q)
    for a in range(-top, top + 1):
        for b in range(-2 * q, a * a // 4 + 2 * q + 1):
            yield WeilPolynomial(q=q, g=2, coeffs=(q * q, q * a, b, a, 1))


def _generic_factors(P):
    return factor(IntPoly(P.coeffs))[1]


def test_weil_factors_equal_factor_on_the_whole_genus_2_box():
    # every member that passes is_weil; for q <= 3 the others too, which
    # must take the generic path
    weil = 0
    for q in WEIL_PATH_QS:
        for P in _genus2_box(q):
            ok = is_weil(P)
            weil += ok
            if ok or q <= 3:
                assert simplicity._weil_factors(P) == _generic_factors(P), P
    assert weil == 4698


def _real_root_blocks(q):
    # (x -+ sqrt(q))^2, whose real polynomial is y -+ 2 sqrt(q), for a square
    # q; (x^2 - q)^2, from y^2 - 4q, otherwise; as (genus, factor)
    r = math.isqrt(q)
    if r * r == q:
        return [(1, IntPoly([-r, 1])), (1, IntPoly([r, 1]))]
    return [(2, IntPoly([-q, 0, 1]))]


def _weil_product(rng, q, g, blocks):
    # a Weil polynomial of genus g over q: a real-root factor to a random
    # power, then random Weil blocks of genus 1 and 2, some of them repeated
    genus, real = rng.choice(_real_root_blocks(q))
    e = rng.randrange(1, g // genus + 1)
    left, P = g - genus * e, real ** (2 * e)
    while left:
        genus, B = rng.choice([b for b in blocks if b[0] <= left])
        e = rng.choice([1, 1, 1, 2]) if 2 * genus <= left else 1
        left, P = left - genus * e, P * B ** e
    return WeilPolynomial(q=q, g=g, coeffs=P.coeffs), real


def test_weil_factors_equal_factor_on_seeded_products():
    rng = random.Random(15)
    powered = 0
    for q in WEIL_PATH_QS:
        bound = math.isqrt(4 * q)
        blocks = [(1, IntPoly([q, -a, 1])) for a in range(-bound, bound + 1)]
        blocks += [(2, IntPoly(P.coeffs)) for P in _genus2_box(q) if is_weil(P)]
        for g in (3, 4):
            for _ in range(12):
                P, real = _weil_product(rng, q, g, blocks)
                assert is_weil(P)
                fs = simplicity._weil_factors(P)
                assert fs == _generic_factors(P), P
                powered += dict(fs)[real] >= 4
    # 107 of the 240 hold (y -+ 2 sqrt(q))^e or (y^2 - 4q)^e with e >= 2
    assert powered > 50


# x^4 - 3x^3 + 2x^2 - 9x + 9 = (x - 1)(x - 3)(x^2 + x + 3) over q = 3: its
# real polynomial (y - 4)(y + 1) lifts to the reducible x^2 - 4x + 3
NON_WEIL_2 = WeilPolynomial(q=3, g=2, coeffs=(9, -9, 2, -3, 1))
NON_WEIL_1 = WeilPolynomial(q=3, g=1, coeffs=(3, -4, 1))


def test_non_weil_polynomials_are_factored_at_full_degree():
    assert not is_weil(NON_WEIL_2) and not is_weil(NON_WEIL_1)
    want = [(IntPoly([-3, 1]), 1), (IntPoly([-1, 1]), 1), (IntPoly([3, 1, 1]), 1)]
    assert simplicity._weil_factors(NON_WEIL_2) == want
    assert classify(NON_WEIL_2) == SimplicityVerdict(kind=NOT_SIMPLE, factors=tuple(want))
    v = classify(NON_WEIL_1)
    assert v == SimplicityVerdict(
        kind=NOT_SIMPLE, factors=((IntPoly([-3, 1]), 1), (IntPoly([-1, 1]), 1))
    )
    assert verify_verdict(NON_WEIL_1, v)
    assert simplicity._weil_factors(NON_WEIL_1) == [
        (IntPoly([-3, 1]), 1), (IntPoly([-1, 1]), 1)
    ]


def test_weil_path_checks_the_product(monkeypatch):
    # a factor of h that lifts wrongly is caught by the product check
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 6, 0, 1))  # h = y^2 - 4
    monkeypatch.setattr(simplicity, "factor", lambda f: (1, [(IntPoly([-2, 1]), 2)]))
    with pytest.raises(InvariantViolation):
        simplicity._weil_factors(P)


def _wrong_root(fs):
    # the first factor's constant term moved by one: a linear factor's root
    # moves, a larger factor becomes another polynomial
    (k, e), *rest = fs
    return [(IntPoly([k.coeffs[0] + 1, *k.coeffs[1:]]), e), *rest]


def _wrong_multiplicity(fs):
    (k, e), *rest = fs
    return [(k, e + 1), *rest]


@pytest.mark.parametrize("corrupt", [_wrong_root, _wrong_multiplicity])
@pytest.mark.parametrize(
    "P",
    [
        WeilPolynomial(q=5, g=2, coeffs=(25, 0, 6, 0, 1)),  # h = (y - 2)(y + 2)
        P_AS2,  # h irreducible
        WeilPolynomial(q=3, g=3, coeffs=(27, 0, 18, 2, 6, 0, 1)),  # h has a double root
        NON_WEIL_2,  # factored at full degree
    ],
    ids=["split", "irreducible", "repeated", "non-weil"],
)
def test_one_product_check_catches_a_corrupted_factorization(P, corrupt, monkeypatch):
    # _weil_factors factors h, or a non-Weil P, with factor's unchecked
    # core; the one product check over P must catch any corruption of it
    core = simplicity.factor

    def corrupted(f):
        unit, fs = core(f)
        return unit, corrupt(fs)

    monkeypatch.setattr(simplicity, "factor", corrupted)
    with pytest.raises(InvariantViolation, match="^factors do not reproduce the Weil polynomial$"):
        classify(P)


def test_verdict_json_roundtrip():
    for P in (P_AS2, P_SPLIT2, P_INC2, P_SS):
        v = classify(P)
        doc = verdict_to_json(v)
        assert verdict_from_json(doc) == v


def test_verdict_json_rejections():
    with pytest.raises(ParseError):
        verdict_from_json({"kind": "Mystery"})
    with pytest.raises(ParseError):
        verdict_from_json({"witness_n": 2})
    with pytest.raises(ParseError):
        verdict_from_json("AbsolutelySimple")


# the Weil polynomial of 3; h=; f=0,1,0,0,2,1, P_AS2's twin: each string
# below, read character by character, rebuilds the array of its verdict
# that it replaces
P_AS2_TWIN = WeilPolynomial(q=3, g=2, coeffs=(9, 3, 2, 1, 1))


@pytest.mark.parametrize(
    "path,value",
    [
        (("factors", 0, "coeffs"), "93211"),
        (("factors",), "x"),
        (("torsion_orders",), ""),
    ],
    ids=["factor-coeffs", "factors", "torsion_orders"],
)
def test_verdict_from_json_refuses_a_string_where_an_array_belongs(path, value):
    doc = verdict_to_json(classify(P_AS2_TWIN))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if path[-1] != "factors":
        assert "".join(map(str, target[path[-1]])) == value
    target[path[-1]] = value
    with pytest.raises(ParseError, match="must be a JSON array"):
        verdict_from_json(doc)


@pytest.mark.parametrize(
    "decided,derived",
    [
        (P_AS2, P_AS2_TWIN),
        # NotAbsolutelySimple at the odd witness 3
        (WeilPolynomial(q=3, g=2, coeffs=(9, -3, -2, -1, 1)),
         WeilPolynomial(q=3, g=2, coeffs=(9, 3, -2, 1, 1))),
    ],
    ids=["P", "witness-3"],
)
def test_twist_checks_its_factors_against_the_derived_polynomial(decided, derived):
    v = classify(decided)
    assert simplicity._twist(v, derived) == classify(derived) != v
    # twisted factors of decided's verdict reproduce derived, not decided
    with pytest.raises(InvariantViolation):
        simplicity._twist(v, decided)


def test_verify_verdict_rejects_tampering():
    v = classify(P_AS2)
    forged = SimplicityVerdict(
        kind=NOT_SIMPLE, factors=v.factors, torsion_orders=v.torsion_orders
    )
    assert not verify_verdict(P_AS2, forged)
    wrong_witness = SimplicityVerdict(
        kind=NOT_ABSOLUTELY_SIMPLE, witness_n=3,
        factors=classify(P_SPLIT2).factors,
    )
    assert not verify_verdict(P_SPLIT2, wrong_witness)


def test_degree_stability_agrees_with_torsion_orders():
    # spot-check the equivalence the acceptance suite sweeps in bulk
    for P in (P_ORD, P_SS, P_AS2, P_INC2):
        orders = ratio_torsion_orders(P)
        stable = all(
            minpoly_power(P, n).degree == 2 * P.g for n in range(1, 25)
        )
        assert (orders == set()) == stable
