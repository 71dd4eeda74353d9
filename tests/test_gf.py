import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobtorus import _fpx, gf
from frobtorus.errors import NonPrime, SizeExceeded
from oracles import (
    _Field,
    _lift,
    div_rem_by_long_division,
    gcd_by_long_division,
    is_irreducible_by_rabin,
    rem_by_long_division,
)


def test_prime_field_has_trivial_modulus():
    spec = gf.field_create(7)
    assert (spec.p, spec.k, spec.q) == (7, 1, 7)


@pytest.mark.parametrize(
    "p,k,modulus",
    [
        (2, 2, (1, 1, 1)),        # x^2 + x + 1
        (2, 3, (1, 0, 1, 1)),     # x^3 + x^2 + 1 beats x^3 + x + 1 in rep order
        (3, 2, (1, 0, 1)),        # x^2 + 1 is the first irreducible over F_3
        (5, 2, (1, 1, 1)),        # x^2 + x + 1; x^2 + 1 splits since -1 is square
        # the other extension fields the benchmark workloads create
        (2, 5, (1, 0, 0, 1, 0, 1)),
        (2, 10, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
        (3, 3, (1, 0, 2, 1)),
        (3, 6, (1, 0, 0, 0, 1, 1, 1)),
        (5, 4, (1, 0, 1, 1, 1)),
        (7, 2, (1, 0, 1)),
        (31, 2, (1, 0, 1)),
        (37, 2, (1, 3, 1)),
        (41, 2, (1, 1, 1)),
        (43, 2, (1, 0, 1)),
        (47, 2, (1, 0, 1)),
        (53, 2, (1, 1, 1)),
        (59, 2, (1, 0, 1)),
        (61, 2, (1, 5, 1)),
    ],
)
def test_modulus_is_first_irreducible_in_lex_order(p, k, modulus):
    assert gf.field_create(p, k).modulus == modulus
    assert is_irreducible_by_rabin(list(modulus), p)


def test_one_block_ddf_is_rabins_irreducibility_test():
    # field_create takes a modulus as irreducible when ddf returns it as one
    # block; that must hold for non-squarefree candidates too
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(2, 12):
            if p ** k > 2048:
                break
            for c0 in range(1, p):
                for rest in itertools.product(range(p), repeat=k - 1):
                    m = [c0, *rest, 1]
                    assert (_fpx.ddf(m, p) == [(k, m)]) == is_irreducible_by_rabin(
                        m, p
                    ), (p, m)


def test_field_create_rejections():
    with pytest.raises(NonPrime):
        gf.field_create(4)
    with pytest.raises(NonPrime):
        gf.field_create(1)
    with pytest.raises(SizeExceeded):
        gf.field_create(2, 21)  # 2^21 > size cap
    with pytest.raises(ValueError):
        gf.field_create(5, 0)


@pytest.mark.parametrize("p,k", [(3.0, 1), (3, 2.0), (3, True), (True, 1), ("3", 1)])
def test_field_create_refuses_a_non_int_before_the_cache(p, k):
    # 3.0 == 3 and True == 1 hash alike: a cached FieldSpec(p=3.0) would be
    # handed to every later field_create(3) in the process
    with pytest.raises(ValueError, match="must be ints"):
        gf.field_create(p, k)
    F = gf.field_create(3)
    assert type(F.p) is int and type(F.k) is int


def test_size_cap_boundary_is_inclusive():
    spec = gf.field_create(2, 20)
    assert spec.q == 1 << 20


def test_field_create_fails_fast_on_a_huge_field():
    # the size cap comes first: a prime p past it is refused by size, not
    # by the primality test, and 3**(10**7), which takes seconds, is never
    # computed
    with pytest.raises(SizeExceeded):
        gf.field_create(2305843009213693951)  # 2^61 - 1, prime
    with pytest.raises(SizeExceeded):
        gf.field_create(3, 10 ** 7)


def test_field_create_errors_clip_a_long_p():
    # a survey header may carry a p of thousands of digits; the error names
    # it in one short line
    for p, error in ((10 ** 4000 + 7, SizeExceeded), (-(10 ** 3999), NonPrime)):
        with pytest.raises(error) as exc:
            gf.field_create(p)
        assert "(4001 characters)" in str(exc.value)
        assert len(str(exc.value)) < 100


def test_element_coefficients_reduced_mod_p_and_modulus():
    spec = gf.field_create(3, 2)
    assert gf.digits(spec, gf.code(spec, [4, -1])) == (1, 2)
    # x^2 = -1 under modulus x^2 + 1
    assert gf.digits(spec, gf.code(spec, [0, 0, 1])) == (2, 0)
    assert gf.code(spec, [1]) == 1


def _scalar(op, spec, a, b):
    # a + b or a b for codes a and b, as padd or pmul of constant polynomials
    return (op(spec, [a], [b]) or [0])[0]


def test_generator_powers_reach_modulus_root():
    # the generator satisfies its own modulus: in the evaluator's value at
    # x = t, and as the sum of the modulus' coefficients times powers of t
    spec = gf.field_create(2, 4)
    t = gf.code(spec, [0, 1])
    vals, _ = _evaluated(spec, np.array([spec.modulus], dtype=np.int64))
    assert vals[1][0, t] == 0
    acc, power = [], [1]
    for c in spec.modulus:
        acc = gf.padd(spec, acc, gf.pmul(spec, [c], power))
        power = gf.pmul(spec, power, [t])
    assert acc == []


@settings(max_examples=60)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_f27(a, b, c):
    spec = gf.field_create(3, 3)

    def add(x, y):
        return _scalar(gf.padd, spec, x, y)

    def mul(x, y):
        return _scalar(gf.pmul, spec, x, y)

    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(a, mul(2, a)) == 0  # 2 = -1
    assert mul(a, 1) == a and add(a, 0) == a


# F_2, F_3, F_4, F_8, F_9, F_16, F_25, F_27, F_32 and F_49
_ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                  (2, 5), (7, 2)]


@pytest.mark.parametrize("p,k", _ORACLE_FIELDS)
def test_scalar_ops_match_the_rep_oracle(p, k):
    # every pair, as padd and pmul of constant polynomials, against products
    # by _fpx reduced by the modulus on reps: the sums of _adder and the
    # products of the log tables that the polynomial routines take
    spec = gf.field_create(p, k)
    F = _Field(p, k)
    reps = [gf.digits(spec, c) for c in range(spec.q)]
    for a, ra in enumerate(reps):
        for b, rb in enumerate(reps):
            assert reps[_scalar(gf.padd, spec, a, b)] == F.add(ra, rb), (a, b)
            assert reps[_scalar(gf.pmul, spec, a, b)] == F.mul(ra, rb), (a, b)


@pytest.mark.parametrize("p,k", _ORACLE_FIELDS)
def test_power_matches_the_rep_oracle(p, k):
    # a^e = exp[log a e mod (q - 1)] for a != 0, the rule a characteristic-2
    # witness takes its square root by, at exponents at and around the
    # group order q - 1 and for every nonzero a
    spec = gf.field_create(p, k)
    T = gf.log_tables(spec)
    F = _Field(p, k)
    q = spec.q
    reps = [gf.digits(spec, c) for c in range(q)]
    for e in (0, 1, 2, q - 2, q - 1, q, 5 * q + 3, q // 2):
        for a, ra in enumerate(reps[1:], start=1):
            assert reps[T.exp[int(T.log[a]) * e % (q - 1)]] == F.power(ra, e), (a, e)


def test_frobenius_is_additive_in_char_2():
    spec = gf.field_create(2, 6)

    def square(x):
        return _scalar(gf.pmul, spec, x, x)

    for a, b in zip(range(0, 64, 7), range(1, 64, 5)):
        assert square(_scalar(gf.padd, spec, a, b)) == _scalar(
            gf.padd, spec, square(a), square(b)
        )


def test_poly_roots_sorted_and_exact():
    spec = gf.field_create(5, 1)
    # x^2 - 1 has roots 1 and 4
    assert gf.poly_roots(spec, [4, 0, 1]) == [1, 4]
    # x^q - x splits completely
    q = spec.q
    xq_minus_x = [0] * (q + 1)
    xq_minus_x[1] = q - 1
    xq_minus_x[q] = 1
    assert gf.poly_roots(spec, xq_minus_x) == list(range(q))


def test_poly_roots_in_extension_field():
    spec = gf.field_create(3, 2)
    # x^2 + 1 factors over F_9 since the modulus is x^2 + 1
    roots = gf.poly_roots(spec, [1, 0, 1])
    assert len(roots) == 2
    for r in roots:
        assert _scalar(gf.pmul, spec, r, r) == 2  # -1


def _evaluated(base, coeffs, exts=(1,)):
    # evaluations' blocks as one (B, q^i) array per i in exts, and how many
    # blocks there were; the blocks of each field tile it in code order, and
    # the fields come in the order of exts
    got = {i: [] for i in exts}
    width = dict.fromkeys(exts, 0)
    order = []
    for i, start, vals in gf.evaluations(base, exts, coeffs):
        assert start == width[i]
        got[i].append(vals)
        width[i] += vals.shape[1]
        order.append(i)
    assert order == sorted(order, key=list(exts).index)
    out = {}
    for i in exts:
        out[i] = np.concatenate(got[i], axis=1)
        assert out[i].shape == (len(coeffs), base.q ** i)
    return out, len(order)


def _oracle_values(base, i, polys):
    # each code list of polys at every x of F_{q^i}, in code order, as codes:
    # Horner's rule on the rep oracle, on the coefficients lifted by _lift
    ext = gf.field_create(base.p, base.k * i)
    F = _Field(base.p, base.k * i)
    xs = [gf.digits(ext, x) for x in range(ext.q)]
    out = []
    for a in polys:
        lifted = _lift(base, F, a)
        out.append([gf.code(ext, F.eval(lifted, x)) for x in xs])
    return out


def _configs(monkeypatch):
    # the default budgets, where each field here is one cached plan taken in
    # one matmul; 16-byte blocks, which take that plan by views of a few x;
    # and no plan budget, which builds those blocks in each call.  Each
    # configuration starts from no cached plan
    default = gf.EVAL_BLOCK_BYTES
    for block, plan in ((default, gf.PLAN_BYTES), (1 << 4, gf.PLAN_BYTES), (1 << 4, 0)):
        monkeypatch.setattr(gf, "EVAL_BLOCK_BYTES", block)
        monkeypatch.setattr(gf, "PLAN_BYTES", plan)
        monkeypatch.setattr(gf, "_PLANS", {})
        yield block < default


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (3, 3), (7, 2), (2, 5)])
def test_evaluations_match_scalar_evaluate(monkeypatch, p, k):
    # values over the base field itself, with two D sharing the field; about
    # half the coefficients are 0, so 0^j, j > 0, is read at x = 0 on most
    # rows
    spec = gf.field_create(p, k)
    rng = random.Random(f"evaluations {p}^{k}")
    batches = {}
    for D in (6, 3):
        coeffs = [[rng.choice([0, rng.randrange(spec.q)]) for _ in range(D)]
                  for _ in range(256)]
        batches[D] = coeffs, _oracle_values(spec, 1, coeffs)
    for small in _configs(monkeypatch):
        for coeffs, expected in batches.values():
            for B in (1, 256):
                vals, n = _evaluated(spec, np.array(coeffs[:B], dtype=np.int64))
                assert vals[1].tolist() == expected[:B]
                assert (n > 1) == small or spec.q == 2


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_evaluations_match_scalar_evaluate_in_every_extension(monkeypatch, p, k):
    # every x of F_{q^i}, i <= 3, against Horner's rule on the rep oracle's
    # lifted coefficients, for batches of 1, 2 and 256 rows.  The 256 rows
    # repeat eight polynomials in shuffled order; half their coefficients
    # are 0, and one is the zero polynomial
    base = gf.field_create(p, k)
    exts = (1, 2, 3)
    rng = random.Random(f"extensions {p}^{k}")
    D = 5
    polys = [[0] * D] + [[rng.choice([0, rng.randrange(1, base.q)]) for _ in range(D)]
                         for _ in range(7)]
    expected = {}
    for i in exts:
        if k > 1:
            ext, F = gf.field_create(p, k * i), _Field(p, k * i)
            gamma = gf.digits(ext, gf.generator_image(base, ext))
            assert F.eval([F.rep([c]) for c in base.modulus], gamma) == F.zero
        expected[i] = np.array(_oracle_values(base, i, polys))
    rows = [0, 1] + [rng.randrange(len(polys)) for _ in range(254)]
    block, plan = gf.EVAL_BLOCK_BYTES, gf.PLAN_BYTES
    for B in (1, 2, 256):
        coeffs = np.array([polys[r] for r in rows[:B]], dtype=np.int64)
        # the default budgets: one row takes the cached plan of all three
        # fields in one matmul, one block per field
        monkeypatch.setattr(gf, "EVAL_BLOCK_BYTES", block)
        monkeypatch.setattr(gf, "PLAN_BYTES", plan)
        vals, n = _evaluated(base, coeffs, exts)
        assert B > 1 or n == len(exts)
        for i in exts:
            assert (vals[i] == expected[i][rows[:B]]).all(), (i, B)
        # each field alone in blocks of about a quarter of it, by views of
        # its cached plan, then built in each call past a zero plan budget
        for i in exts:
            monkeypatch.setattr(gf, "EVAL_BLOCK_BYTES", 8 * k * i * B * -(-base.q ** i // 4))
            for budget in (plan, 0):
                monkeypatch.setattr(gf, "PLAN_BYTES", budget)
                monkeypatch.setattr(gf, "_PLANS", {})
                vals, n = _evaluated(base, coeffs, (i,))
                assert n > 1 and bool(gf._PLANS) == bool(budget)
                assert (vals[i] == expected[i][rows[:B]]).all(), (i, B, budget)


# the primes on either side of the float32 boundary of a polynomial of
# degree deg over F_p: the largest sum of the matmul, (p-1)(deg (p-1) + 1),
# is below 2^24 for the first and not for the second
@pytest.mark.parametrize(
    "deg,p,dtype",
    [(4, 2039, np.float32), (4, 2053, np.float64),
     (7, 1549, np.float32), (7, 1553, np.float64),
     (10, 1291, np.float32), (10, 1297, np.float64)],
)
def test_evaluations_are_exact_at_the_float_dtype_boundary(deg, p, dtype):
    # an all-(p-1) row meets the largest sums, and random rows the rest
    spec = gf.field_create(p)
    D = deg + 1
    assert gf._dtype(spec, D) is dtype
    assert ((p - 1) * (deg * (p - 1) + 1) < 1 << 24) == (dtype is np.float32)
    rng = random.Random(f"dtype boundary {p} {deg}")
    coeffs = [[p - 1] * D] + [[rng.randrange(p) for _ in range(D)] for _ in range(3)]
    vals, _ = _evaluated(spec, np.array(coeffs, dtype=np.int64))
    assert vals[1].tolist() == _oracle_values(spec, 1, coeffs)


@pytest.mark.parametrize(
    "deg,p,dtype", [(116508, 13, np.float32), (116509, 13, np.float64)]
)
def test_evaluations_into_an_extension_are_exact_at_the_float_dtype_boundary(
    deg, p, dtype
):
    # a prime base evaluated over F_{p^2}: the bound counts the base's
    # digits, not the extension's.  Past the plan budget, each x is its own
    # block.  Since x^(p^2-1) = 1 for x != 0, folding the exponents j >= 1
    # onto 1..p^2-1 gives a short polynomial with the same values
    base, ext = gf.field_create(p), gf.field_create(p, 2)
    D = deg + 1
    assert gf._dtype(base, D) is dtype
    rng = random.Random(f"extension dtype boundary {deg}")
    coeffs = [[p - 1] * D, [rng.randrange(p) for _ in range(D)]]
    vals, _ = _evaluated(base, np.array(coeffs, dtype=np.int64), (2,))
    assert not gf._PLANS.get((base, (2,), D))
    folded = []
    for a in coeffs:
        folded.append([a[0]] + [0] * (ext.q - 1))
        for j in range(1, D):
            r = 1 + (j - 1) % (ext.q - 1)
            folded[-1][r] = (folded[-1][r] + a[j]) % p
    assert vals[2].tolist() == _oracle_values(base, 2, folded)


def test_a_one_block_field_shares_one_read_only_entry(monkeypatch):
    # the plan of (F_9, (1, 2), 6) is built once, whatever the batch size:
    # analyze (B = 1), its characteristic-2 twin (B = 2) and a survey batch
    # share it.  Past the plan budget no plan is kept, and each call builds
    # its blocks
    spec = gf.field_create(3, 2)
    gf.generator_image(spec, gf.field_create(3, 4))  # its own plan, not counted
    monkeypatch.setattr(gf, "_PLANS", {})
    built = []
    fill = gf._fill
    monkeypatch.setattr(gf, "_fill", lambda out, *a: built.append(a) or fill(out, *a))
    for B in (1, 2, 256):
        list(gf.evaluations(spec, (1, 2), np.ones((B, 6), dtype=np.int64)))
    assert list(gf._PLANS) == [(spec, (1, 2), 6)]
    plan = gf._PLANS[spec, (1, 2), 6]
    assert len(built) == 2  # one fill per field, at the first call only
    assert plan.shape == (2 * 6, 2 * 9 + 4 * 81)
    assert plan.dtype == np.float32 and plan.nbytes <= gf.PLAN_BYTES
    assert not plan.flags.writeable
    with pytest.raises(ValueError):
        plan[0, 0] = 1
    monkeypatch.setattr(gf, "PLAN_BYTES", plan.nbytes - 1)
    monkeypatch.setattr(gf, "_PLANS", {})
    built.clear()
    for B in (1, 2):
        list(gf.evaluations(spec, (1, 2), np.ones((B, 6), dtype=np.int64)))
    assert gf._PLANS == {} and len(built) == 4


def test_cached_plans_hold_at_most_the_budget_together(monkeypatch):
    # a budget that holds either plan but not both: each new plan drops the
    # oldest, so the plans kept never pass it, and a dropped plan is built
    # again when its field comes back
    F7, F11 = gf.field_create(7), gf.field_create(11)
    ones = np.ones((1, 6), dtype=np.int64)
    default = gf.PLAN_BYTES
    monkeypatch.setattr(gf, "_PLANS", {})
    for spec in (F7, F11):
        list(gf.evaluations(spec, (1, 2), ones))
    sizes = [plan.nbytes for plan in gf._PLANS.values()]
    assert len(sizes) == 2
    monkeypatch.setattr(gf, "PLAN_BYTES", max(sizes))
    monkeypatch.setattr(gf, "_PLANS", {})
    for spec in (F7, F11, F7):
        list(gf.evaluations(spec, (1, 2), ones))
        assert list(gf._PLANS) == [(spec, (1, 2), 6)]
    monkeypatch.setattr(gf, "PLAN_BYTES", sum(sizes))
    list(gf.evaluations(F11, (1, 2), ones))
    assert list(gf._PLANS) == [(F7, (1, 2), 6), (F11, (1, 2), 6)]
    # building F_9's plan first finds gamma in F_81 by a plan of F_3's own;
    # at a budget of F_9's plan alone, that one is dropped when F_9's is kept
    F9 = gf.field_create(3, 2)
    monkeypatch.setattr(gf, "PLAN_BYTES", default)
    monkeypatch.setattr(gf, "_PLANS", {})
    list(gf.evaluations(F9, (1, 2), ones))
    size = gf._PLANS[F9, (1, 2), 6].nbytes
    gf.generator_image.cache_clear()
    monkeypatch.setattr(gf, "PLAN_BYTES", size)
    monkeypatch.setattr(gf, "_PLANS", {})
    list(gf.evaluations(F9, (1, 2), ones))
    assert list(gf._PLANS) == [(F9, (1, 2), 6)]


@pytest.mark.parametrize("p,k", [(3, 1), (2, 1), (3, 2), (2, 3)])
def test_evaluations_of_an_empty_batch(p, k):
    spec = gf.field_create(p, k)
    vals, _ = _evaluated(spec, np.zeros((0, 4), dtype=np.int64), (1, 2))
    assert vals[1].shape == (0, spec.q) and vals[2].shape == (0, spec.q ** 2)


def _rep_order(spec):
    return sorted(range(spec.q), key=lambda c: gf.digits(spec, c))


@pytest.mark.parametrize("p,k", [(2, 4), (2, 7), (3, 2), (5, 2), (3, 3)])
def test_poly_roots_char2_extension_matches_brute_force(p, k):
    # each trial has a root pair r, r + t^(k-1), which differ only in the top
    # digit; every third trial also has the root 0, the one x whose log the
    # evaluation kernel cannot use
    spec = gf.field_create(p, k)
    rng = random.Random(k)
    top = p ** (k - 1)
    minus_one = p - 1
    for trial in range(6):
        r = rng.randrange(spec.q)
        roots = {r, _scalar(gf.padd, spec, r, top)}
        roots |= {rng.randrange(spec.q) for _ in range(trial)}
        if trial % 3 == 0:
            roots.add(0)
        a = [1]
        for x in roots:
            a = gf.pmul(spec, a, [_scalar(gf.pmul, spec, minus_one, x), 1])
        # a quadratic factor may add roots, or repeat one, or add none
        a = gf.pmul(spec, a, [top, 1, 1]) if trial % 2 else a
        values = _oracle_values(spec, 1, [a])[0]
        expected = [e for e in _rep_order(spec) if values[e] == 0]
        assert gf.poly_roots(spec, a) == expected


def test_poly_divmod_and_gcd():
    # a = Q * prod(x - r, r in A), b = Q * prod(x - r, r in B) with Q an
    # irreducible quadratic: gcd = Q * prod(x - r, r in A & B).  pgcd is
    # monic over a prime field and a gcd up to a unit otherwise.
    for p, k in [(7, 1), (3, 2), (2, 3), (5, 2)]:
        spec = gf.field_create(p, k)
        rng = random.Random(f"gcd {p}^{k}")
        quad = next(
            [c0, c1, 1] for c0 in range(1, spec.q) for c1 in range(spec.q)
            if not gf.poly_roots(spec, [c0, c1, 1])
        )

        def with_roots(roots):
            out = quad
            for r in sorted(roots):
                out = gf.pmul(spec, out, [_scalar(gf.pmul, spec, p - 1, r), 1])
            return out

        for _ in range(10):
            A = set(rng.sample(range(spec.q), 4))
            B = set(rng.sample(range(spec.q), 3))
            g = gf.pgcd(spec, with_roots(A), with_roots(B))
            assert len(g) - 1 == 2 + len(A & B) and g[-1] == 1
            rep_order = sorted(A & B, key=lambda c: gf.digits(spec, c))
            assert gf.poly_roots(spec, g) == rep_order
            if k == 1:
                assert g == with_roots(A & B)
        assert gf.pgcd(spec, quad, []) == quad


def _fpx_poly(m, max_degree):
    # any coefficients in [0, m), trimmed: zero, constant, non-monic
    return st.lists(st.integers(0, m - 1), max_size=max_degree + 1).map(_fpx.trim)


@st.composite
def _fpx_pairs(draw):
    # degrees 0..16; half the pairs share a factor c, so gcds are nontrivial
    p = draw(st.sampled_from([2, 3, 7, 17, 61]))
    if draw(st.booleans()):
        return p, draw(_fpx_poly(p, 16)), draw(_fpx_poly(p, 16))
    a, b, c = (draw(_fpx_poly(p, 8)) for _ in range(3))
    return p, _fpx.mul(a, c, p), _fpx.mul(b, c, p)


@settings(max_examples=400, deadline=None)
@given(_fpx_pairs())
@example((7, [], []))
@example((7, [3], []))
@example((2, [], [1, 1]))
@example((61, [5, 0, 2], [0, 0, 0, 4, 9]))  # deg a < deg b, non-monic
@example((17, [1, 2, 3, 4, 5, 6], [9]))
def test_fpx_division_and_gcd_match_long_division(case):
    p, a, b = case
    ab = (a[:], b[:])
    assert _fpx.gcd(a, b, p) == gcd_by_long_division(a, b, p)
    assert _fpx.gcd(b, a, p) == gcd_by_long_division(b, a, p)
    if b:
        assert _fpx.div_rem(a, b, p) == div_rem_by_long_division(a, b, p)
        assert _fpx.rem(a, b, p) == rem_by_long_division(a, b, p)
    assert (a, b) == ab  # inputs are not modified


@st.composite
def _monic_division_mod_17_powers(draw):
    m = draw(st.sampled_from([17 ** 2, 17 ** 4]))
    return m, draw(_fpx_poly(m, 16)), draw(_fpx_poly(m, 15)) + [1]


@settings(max_examples=200, deadline=None)
@given(_monic_division_mod_17_powers())
def test_fpx_division_by_a_monic_divisor_modulo_a_prime_power(case):
    # _reduce inverts the divisor's leading coefficient as if the modulus
    # were prime; for a monic divisor that inverse is 1 at any modulus
    m, a, b = case
    q, r = _fpx.div_rem(a, b, m)
    assert (q, r) == div_rem_by_long_division(a, b, m)
    assert _fpx.rem(a, b, m) == r
    assert len(r) < len(b) and _fpx.add(_fpx.mul(q, b, m), r, m) == a


@st.composite
def _fpx_products_mod_monic(draw):
    p = draw(st.sampled_from([2, 3, 17, 349]))
    m = draw(_fpx_poly(p, 11)) + [1]
    return p, draw(_fpx_poly(p, 16)), draw(_fpx_poly(p, 16)), m


@settings(max_examples=300, deadline=None)
@given(_fpx_products_mod_monic())
@example((2, [1], [1], [1]))  # modulus of degree 0
@example((349, [348] * 12, [348] * 12, [348, 0, 1]))
def test_fpx_mul_rem_is_the_remainder_of_the_product(case):
    # pow_mod and the Frobenius rows reduce each product as it is formed
    p, a, b, m = case
    abm = (a[:], b[:], m[:])
    assert _fpx.mul_rem(a, b, m, p) == _fpx.rem(_fpx.mul(a, b, p), m, p)
    assert (a, b, m) == abm  # inputs are not modified


def test_field_create_is_cached():
    assert gf.field_create(3, 2) is gf.field_create(3, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 1), (3, 10)])
def test_log_tables_invariants(p, k):
    spec = gf.field_create(p, k)
    q = spec.q
    T = gf.log_tables(spec)
    for arr in (T.exp, T.log):
        assert arr.dtype == np.int32 and not arr.flags.writeable
    assert T.exp.nbytes + T.log.nbytes <= 8 * q
    # exp and log are inverse bijections between [0, q-1) and the nonzero codes
    assert np.array_equal(np.sort(T.exp), np.arange(1, q))
    assert np.array_equal(T.log[T.exp], np.arange(q - 1))
    assert T.log[0] == -1
    # g = exp[1] has order q-1 (exp is a bijection and exp[n+1] = exp[n] g,
    # below), and every element of smaller code has a smaller order; the
    # polynomial routines read these tables, so the checks run on the rep
    # oracle's arithmetic
    F = _Field(p, k)
    g = int(T.exp[1 % (q - 1)])
    rg = gf.digits(spec, g)
    assert T.exp[0] == 1 and F.power(rg, q - 1) == F.rep([1])
    proper = [d for d in range(1, q - 1) if (q - 1) % d == 0]
    for c in range(1, g):
        assert any(F.power(gf.digits(spec, c), d) == F.rep([1]) for d in proper)
    # exp[n] = g^n; the mid-size field checks a sample
    ns = range(q - 1) if q < 1000 else random.Random(q).sample(range(q - 1), 2000)
    for n in ns:
        rn = gf.digits(spec, int(T.exp[n]))
        assert F.mul(rn, rg) == gf.digits(spec, int(T.exp[(n + 1) % (q - 1)]))
        assert tuple(T.exp_digits[:, n]) == rn
    assert T.exp_digits.dtype == np.uint8 and not T.exp_digits.flags.writeable


def test_code_round_trip():
    spec = gf.field_create(3, 3)
    reps = list(itertools.product(range(3), repeat=3))
    codes = [gf.code(spec, r) for r in reps]
    assert sorted(codes) == list(range(27))
    for r, c in zip(reps, codes):
        assert gf.digits(spec, c) == r
    assert gf.code(spec, [0, 1]) == 3


def _trace(F, a):
    # a + a^2 + ... + a^(2^(k-1)), by the rep oracle; 0 or 1 as a code
    acc = t = a
    for _ in range(F.k - 1):
        t = F.mul(t, t)
        acc = F.add(acc, t)
    return acc[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_trace_mask_is_the_absolute_trace(k):
    # exp_trace[n] is Tr(g^n), against the brute-force sum of conjugates
    spec = gf.field_create(2, k)
    T = gf.log_tables(spec)
    F = _Field(2, k)
    assert [int(t) for t in T.exp_trace] == [
        _trace(F, gf.digits(spec, int(a))) for a in T.exp
    ]
    assert T.exp_trace[0] == k % 2  # Tr(1)
    assert T.exp_trace.dtype == np.int8 and not T.exp_trace.flags.writeable
