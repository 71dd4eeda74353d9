import random

import numpy as np
import pytest

from frobtorus import gf
from frobtorus.curves import (
    HyperellipticCurve,
    count_batch,
    count_points,
    counts_up_to_genus,
    curve_from_text,
    curve_to_text,
    embed,
    genus_for_degree,
    validate_curve,
)
from frobtorus.errors import BadDegrees, ParseError, Singular, SizeExceeded
from frobtorus.survey import BATCH
from oracles import naive_count, naive_singular_point


def test_genus_for_degree():
    assert genus_for_degree(3) == 1
    assert genus_for_degree(4) == 1
    assert genus_for_degree(5) == 2
    assert genus_for_degree(6) == 2
    assert genus_for_degree(7) == 3


def test_validate_accepts_smooth_odd_char_curve():
    spec = gf.field_create(5)
    C = validate_curve(spec, [], [0, 1, 0, 1], 1)
    assert isinstance(C, HyperellipticCurve)
    assert C.genus == 1 and len(C.h) == 0


@pytest.mark.parametrize(
    "h,f,g",
    [
        ([], [0, 1, 0, 1], 0),        # genus < 1
        ([], [0, 1, 1], 1),           # deg f = 2 wrong for genus 1
        ([], [0, 1, 0, 2], 1),        # f not monic
        ([1], [0, 1, 0, 1], 1),       # h != 0 in odd characteristic
        ([], [0, 1, 0, 0, 0, 1], 1),  # deg f = 5 wrong for genus 1
    ],
)
def test_validate_bad_degrees_odd_char(h, f, g):
    spec = gf.field_create(5)
    with pytest.raises(BadDegrees):
        validate_curve(spec, h, f, g)


def test_validate_char2_requires_nonzero_h():
    spec = gf.field_create(2)
    with pytest.raises(BadDegrees):
        validate_curve(spec, [], [0, 0, 0, 1], 1)
    with pytest.raises(BadDegrees):
        # deg h = 3 > g + 1 = 2
        validate_curve(spec, [0, 0, 0, 1], [0, 0, 0, 1], 1)


def test_validate_rejects_singular_odd_char():
    spec = gf.field_create(5)
    # f = x^3 + x^2 has a node at the origin
    with pytest.raises(Singular) as exc:
        validate_curve(spec, [], [0, 0, 1, 1], 1)
    w = exc.value.witness
    assert w is not None and w[0] == 1 and w[1] == (0,)


def test_validate_rejects_pth_power_f():
    spec = gf.field_create(3)
    # f = x^3 is a cube: f' vanishes identically
    with pytest.raises(Singular):
        validate_curve(spec, [], [0, 0, 0, 1], 1)


def test_validate_rejects_singular_char2():
    spec = gf.field_create(2)
    # y^2 + x*y = x^5: singular at (0, 0)
    with pytest.raises(Singular) as exc:
        validate_curve(spec, [0, 1], [0, 0, 0, 0, 0, 1], 2)
    assert exc.value.witness == (1, (0,), (0,))


@pytest.mark.parametrize(
    "p,h,f,g",
    [
        (5, [], [0, 0, 1, 1], 1),            # node at the origin
        (3, [], [0, 1, 0, 2, 0, 1], 2),      # x (x^2 + 1)^2: no F_3 point
        (2, [0, 1], [0, 0, 0, 0, 0, 1], 2),  # singular at (0, 0)
        (2, [1, 1, 1], [0, 0, 0, 0, 0, 1], 2),  # singular over F_4 only
    ],
    ids=["odd", "odd-none", "char2", "char2-ext"],
)
def test_singular_witness_is_searched_once_on_first_read(monkeypatch, p, h, f, g):
    spec = gf.field_create(p)
    calls = []
    poly_roots = gf.poly_roots
    monkeypatch.setattr(
        gf, "poly_roots", lambda *args: calls.append(args) or poly_roots(*args)
    )
    with pytest.raises(Singular) as exc:
        validate_curve(spec, h, f, g)
    assert calls == []  # raising searches nothing
    first = exc.value.witness
    searched = len(calls)
    assert searched > 0
    assert exc.value.witness == first
    assert len(calls) == searched
    assert first == naive_singular_point(spec, h, f)


def test_singular_takes_a_witness_value():
    assert Singular("x", witness=(1, (0,), (0,))).witness == (1, (0,), (0,))
    assert Singular("x").witness is None


def test_validate_char2_singularity_in_extension_only():
    spec = gf.field_create(2)
    # h = x^2 + x + 1 has no roots over F_2 but splits over F_4; pick f so
    # the singularity condition fires only at those extension roots
    h = [1, 1, 1]
    f = [1, 0, 1, 0, 0, 1]
    try:
        C = validate_curve(spec, h, f, 2)
    except Singular as exc:
        assert exc.witness[0] == 2  # found over F_4, not F_2
    else:
        assert C.genus == 2


@pytest.mark.parametrize("k", [1, 2])
def test_validate_char2_matches_brute_force_singular_search(k):
    # the gcd pre-check must let through exactly the nonsingular curves, and
    # a singular one must still report the first singular point as witness
    spec = gf.field_create(2, k)
    rng = random.Random(f"singular 2^{k}")
    outcomes = set()
    for _ in range(40):
        g = rng.choice([1, 2])
        h = [rng.randrange(spec.q) for _ in range(rng.randint(1, g + 2))]
        while h and not h[-1]:
            h.pop()
        if not h:
            continue
        f = [rng.randrange(spec.q) for _ in range(2 * g + 1)] + [1]
        expected = naive_singular_point(spec, h, f)
        try:
            validate_curve(spec, h, f, g)
            found = None
        except Singular as exc:
            found = exc.witness
        assert found == expected, (h, f)
        outcomes.add(found is None)
    assert outcomes == {True, False}


def _linear(spec, r):
    return [gf.mul(spec, spec.p - 1, r), 1]  # x - r


def _quadratic_without_roots(spec):
    return next(
        [c0, c1, 1] for c0 in range(1, spec.q) for c1 in range(spec.q)
        if not gf.poly_roots(spec, [c0, c1, 1])
    )


def _product(spec, factors):
    out = [1]
    for a in factors:
        out = gf.pmul(spec, out, a)
    return out


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)])
def test_validate_odd_char_extension_field(p, k):
    # f built from chosen factors over F_{p^k}: the gcd(f, f') runs on codes
    spec = gf.field_create(p, k)
    rng = random.Random(f"odd {p}^{k}")
    quad = _quadratic_without_roots(spec)
    for _ in range(5):
        r1, r2, r3 = rng.sample(range(spec.q), 3)
        # two repeated linear factors: the witness is the first by rep
        f = _product(spec, [_linear(spec, r1)] * 2 + [_linear(spec, r2)] * 2
                     + [_linear(spec, r3)])
        with pytest.raises(Singular) as exc:
            validate_curve(spec, [], f, 2)
        first = min(r1, r2, key=lambda c: gf.digits(spec, c))
        assert exc.value.witness == (1, gf.digits(spec, first), (0,) * k)
        assert exc.value.witness == naive_singular_point(spec, [], f)
        # a repeated irreducible quadratic: singular, with no F_q point
        f = _product(spec, [quad, quad, _linear(spec, r1)])
        with pytest.raises(Singular) as exc:
            validate_curve(spec, [], f, 2)
        assert exc.value.witness is None
        # distinct factors
        f = _product(spec, [quad] + [_linear(spec, r) for r in (r1, r2, r3)])
        assert validate_curve(spec, [], f, 2).f == tuple(f)


def test_validate_rejects_codes_outside_the_field():
    spec = gf.field_create(3, 2)
    for bad in (9, -1):
        with pytest.raises(ValueError):
            validate_curve(spec, [], [bad, 1, 0, 1], 1)


def test_count_points_elliptic_known_values():
    spec = gf.field_create(5)
    C = validate_curve(spec, [], [0, 1, 0, 1], 1)
    assert count_points(C, 1) == 4
    C = validate_curve(spec, [], [1, 0, 0, 1], 1)
    assert count_points(C, 1) == 6


def test_count_points_char2_supersingular():
    spec = gf.field_create(2)
    C = validate_curve(spec, [1], [0, 0, 0, 1], 1)
    assert count_points(C, 1) == 3
    assert count_points(C, 1) == naive_count(C, 1)


def test_counts_up_to_genus_matches_oracle_on_random_curves():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        p = rng.choice([2, 3, 5, 7])
        g = rng.choice([1, 2])
        d = rng.choice([2 * g + 1, 2 * g + 2])
        spec = gf.field_create(p)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        h = [rng.randrange(2) for _ in range(g + 2)] if p == 2 else []
        if p == 2 and not any(h):
            h = [1]
        try:
            C = validate_curve(spec, h, f, g)
        except (Singular, BadDegrees):
            continue
        pc = counts_up_to_genus(C)
        assert pc.counts == tuple(naive_count(C, i) for i in range(1, g + 1))
        checked += 1


def _random_curve(rng, spec, g, deg, hcap):
    # seeded search for a nonsingular model; in characteristic 2, hcap is
    # the code of h_{g+1} (None or 0: deg h <= g)
    q = spec.q
    while True:
        f = [rng.randrange(q) for _ in range(deg)] + [1]
        h = []
        if spec.p == 2:
            h = [rng.randrange(q) for _ in range(g + 1)]
            if hcap is not None:
                h.append(hcap)
            if not any(h):
                continue
        try:
            return validate_curve(spec, h, f, g)
        except Singular:
            continue


# odd characteristic has h = 0.  In characteristic 2 a degree-(2g+2) model
# takes h_{g+1} = 0 (one point at infinity) and h_{g+1} = 1, which puts two
# points at infinity over F_4 and none over F_8, as Tr(1) = k mod 2.
_EXTENSION_CASES = [
    (p, k, g, deg, hcap)
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2)]
    for g in (1, 2)
    for deg, hcap in (
        [(2 * g + 1, None), (2 * g + 2, 0), (2 * g + 2, 1)] if p == 2
        else [(2 * g + 1, None), (2 * g + 2, None)]
    )
]


@pytest.mark.parametrize("p,k,g,deg,hcap", _EXTENSION_CASES)
def test_counts_up_to_genus_matches_oracle_over_extension_fields(p, k, g, deg, hcap):
    spec = gf.field_create(p, k)
    C = _random_curve(random.Random(f"{p}^{k} g{g} d{deg} h{hcap}"), spec, g, deg, hcap)
    assert len(C.f) - 1 == deg
    if hcap:
        assert C.h[g + 1] == hcap
    elif p == 2:
        assert len(C.h) <= g + 1
    assert counts_up_to_genus(C).counts == tuple(
        naive_count(C, i) for i in range(1, g + 1)
    )


def _every_shape(rng, spec, g):
    # one nonsingular curve of each (deg f, deg h) that validate_curve
    # accepts: deg f = 2g+1 or 2g+2, and in characteristic 2 deg h = 0..g+1
    q = spec.q
    hdegs = range(g + 2) if spec.p == 2 else [None]
    out = []
    for deg in (2 * g + 1, 2 * g + 2):
        for dh in hdegs:
            while True:
                f = [rng.randrange(q) for _ in range(deg)] + [1]
                h = []
                if dh is not None:
                    h = [rng.randrange(q) for _ in range(dh)] + [rng.randrange(1, q)]
                try:
                    out.append(validate_curve(spec, h, f, g))
                    break
                except Singular:
                    continue
    return out


# the brute-force oracle tries every (x, y), so it runs on fields up to this
NAIVE_CAP = 32


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)])
def test_count_batch_matches_batch_of_one_and_the_oracle(p, k, g):
    spec = gf.field_create(p, k)
    rng = random.Random(f"batch {p}^{k} g{g}")
    batch = _every_shape(rng, spec, g) + _every_shape(rng, spec, g)
    rng.shuffle(batch)
    got = count_batch(batch)
    for C, ns in zip(batch, got):
        assert ns == [count_points(C, i) for i in range(1, g + 1)]
        for i in range(1, g + 1):
            if spec.q ** i <= NAIVE_CAP:
                assert ns[i - 1] == naive_count(C, i)


def test_count_batch_splits_at_the_survey_batch_size():
    # the survey counts BATCH curves at a time; batches on either side of
    # that boundary count each curve as the batch of one does
    spec = gf.field_create(3)
    rng = random.Random("boundary")
    curves = []
    while len(curves) < 2 * BATCH + 3:
        curves += _every_shape(rng, spec, 1)
    for lo, hi in [(0, BATCH - 1), (0, BATCH), (BATCH, 2 * BATCH + 1),
                   (2 * BATCH + 1, 2 * BATCH + 3)]:
        got = count_batch(curves[lo:hi])
        assert got == [[count_points(C, 1)] for C in curves[lo:hi]]
    assert [n for [n] in count_batch(curves[:9])] == [
        naive_count(C, 1) for C in curves[:9]
    ]


@pytest.mark.parametrize("p,k,g", [(3, 2, 2), (2, 3, 2), (7, 1, 2)])
def test_count_batch_over_many_x_blocks(monkeypatch, p, k, g):
    # a block budget this small makes every field take several x-blocks
    spec = gf.field_create(p, k)
    batch = _every_shape(random.Random(f"blocks {p}^{k}"), spec, g)
    whole = count_batch(batch)
    blocks = []
    evaluations = gf.evaluations

    def counted(*args):
        for start, vals in evaluations(*args):
            blocks.append(start)
            yield start, vals

    monkeypatch.setattr(gf, "EVAL_BLOCK_BYTES", 1 << 9)
    monkeypatch.setattr(gf, "evaluations", counted)
    assert count_batch(batch) == whole
    assert len(blocks) > 2 * g
    for C, ns in zip(batch, whole):
        assert ns[0] == naive_count(C, 1)


def test_count_batch_over_many_x_blocks_at_the_default_budget():
    # F_{1021^2} takes about a hundred x-blocks; the counts are those the
    # log-domain Horner counter gave
    C = curve_from_text("1021; h=; f=637,261,759,367,814,1")
    assert counts_up_to_genus(C).counts == (1078, 1044334)


def test_count_points_extension_base_field():
    spec = gf.field_create(3, 2)
    f = [1, gf.code(spec, [0, 1]), 0, 0, 0, 1]
    C = validate_curve(spec, [], f, 2)
    assert count_points(C, 1) == naive_count(C, 1)
    assert count_points(C, 2) == naive_count(C, 2)


def test_count_points_rejects_out_of_range_extension():
    spec = gf.field_create(5)
    C = validate_curve(spec, [], [0, 1, 0, 1], 1)
    with pytest.raises(ValueError):
        count_points(C, 0)
    with pytest.raises(ValueError):
        count_points(C, 2)  # beyond the genus


def test_count_points_extension_size_cap():
    spec = gf.field_create(1031)
    f = [1, 1, 0, 0, 0, 1]
    C = validate_curve(spec, [], f, 2)
    with pytest.raises(SizeExceeded):
        count_points(C, 2)  # 1031^2 is just past the 2^20 cap


def test_counts_up_to_genus_checks_the_largest_field_first(monkeypatch):
    # deg 27 gives g = 13, and F_{3^13} is past the cap: fail before N_1
    C = curve_from_text("3; h=; f=1,1," + "0," * 25 + "1")
    assert C.genus == 13

    def no_counting(*args):
        raise AssertionError("count_points called before the size check")

    monkeypatch.setattr("frobtorus.curves.count_points", no_counting)
    with pytest.raises(SizeExceeded):
        counts_up_to_genus(C)


def test_curve_text_roundtrip_prime_field():
    text = "5; h=; f=0,1,0,1"
    C = curve_from_text(text)
    assert curve_to_text(C) == text
    assert C.base.q == 5 and C.genus == 1


def test_curve_text_roundtrip_char2():
    text = "2; h=1; f=0,0,0,1"
    C = curve_from_text(text)
    assert curve_to_text(C) == text


def test_curve_text_roundtrip_extension_field():
    text = "3^2; h=; f=(1,0),(0,1),(0,0),(0,0),(0,0),(1,0)"
    C = curve_from_text(text)
    assert curve_to_text(C) == text
    assert C.base.q == 9


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "5; f=0,1,0,1",
        "5; h=; f=",
        "5; h=; f=0,1",            # degree too small for any genus
        "4; h=; f=0,1,0,1",        # 4 is not prime
        "5; h=; g=0,1,0,1",        # wrong label
        "5; h=; f=0,1,0,x",        # junk coefficient
        "5;; h=; f=0,1,0,1",
        "3^0; h=; f=0,1,0,1",
        "5; h=; f=(1,0),(0,1)",    # tuple coeffs on a prime field
    ],
)
def test_curve_from_text_rejects_garbage(bad):
    with pytest.raises(ParseError):
        curve_from_text(bad)


def test_curve_from_text_rejects_singular_model():
    with pytest.raises(Singular):
        curve_from_text("5; h=; f=0,0,1,1")


def test_embed_is_a_field_homomorphism():
    for (p, k), K in [((3, 1), 2), ((2, 2), 4), ((3, 2), 4), ((2, 3), 6)]:
        src, dst = gf.field_create(p, k), gf.field_create(p, K)
        for a in range(src.q):
            for b in range(src.q):
                e = embed(src, dst, gf.add(src, a, b))
                assert e == gf.add(dst, embed(src, dst, a), embed(src, dst, b))
                e = embed(src, dst, gf.mul(src, a, b))
                assert e == gf.mul(dst, embed(src, dst, a), embed(src, dst, b))
        assert embed(src, dst, 1) == 1


def test_embed_extension_to_extension():
    src = gf.field_create(2, 2)
    dst = gf.field_create(2, 4)
    images = [embed(src, dst, a) for a in range(src.q)]
    assert len(set(images)) == 4  # injective
    g_img = embed(src, dst, gf.code(src, [0, 1]))
    # image satisfies the source modulus, and is its first root by rep
    assert gf.evaluate(dst, list(src.modulus), g_img) == 0
    assert g_img == gf.poly_roots(dst, list(src.modulus))[0]


@pytest.mark.parametrize("src,dst", [((2, 1), (2, 4)), ((2, 2), (2, 4)),
                                     ((3, 2), (3, 4)), ((3, 2), (3, 2))])
def test_embed_maps_code_arrays_elementwise(src, dst):
    src, dst = gf.field_create(*src), gf.field_create(*dst)
    codes = np.arange(src.q).reshape(-1, 1).repeat(2, axis=1)
    image = embed(src, dst, codes)
    assert image.shape == codes.shape
    assert image[:, 0].tolist() == [embed(src, dst, a) for a in range(src.q)]
    if src == dst or src.k == 1:
        assert image.tolist() == codes.tolist()


def test_embed_rejects_incompatible_fields():
    with pytest.raises(ValueError):
        embed(gf.field_create(2, 2), gf.field_create(2, 3), 1)
