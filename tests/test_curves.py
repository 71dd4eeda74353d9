import random

import numpy as np
import pytest

from frobtorus import gf, survey
from frobtorus.curves import (
    HyperellipticCurve,
    count_batch,
    count_points,
    counts_up_to_genus,
    curve_from_text,
    curve_to_text,
    genus_for_degree,
    smoothness_gcd_degrees,
    validate_curve,
)
from frobtorus.errors import BadDegrees, ParseError, Singular, SizeExceeded
from frobtorus.survey import BATCH, SurveyConfig, enumerate_equations
from oracles import (
    _Field,
    _lift,
    naive_count,
    naive_singular_point,
    naive_singular_ys_over_zero,
)


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


@pytest.mark.parametrize("bad", [1.0, True, "2"])
def test_a_genus_or_extension_index_that_is_no_int_is_refused(bad):
    # 1.0 and True compare like ints: validate_curve took the first and
    # counting then failed on the field, and the second gave a curve of
    # genus True
    spec = gf.field_create(5)
    with pytest.raises(BadDegrees, match="genus must be an int"):
        validate_curve(spec, [], [0, 1, 0, 1], bad)
    C = validate_curve(spec, [], [0, 1, 0, 0, 0, 1], 2)
    with pytest.raises(ValueError, match="extension index"):
        count_points(C, bad)


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
    evaluations = gf.evaluations
    monkeypatch.setattr(
        gf, "evaluations", lambda *args: calls.append(args) or evaluations(*args)
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


@pytest.mark.parametrize("k", [1, 2, 3])
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



@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)])
def test_validate_odd_char_matches_brute_force_singular_search(p, k):
    # the odd-characteristic twin of the test above: random monic f, every
    # third one with a square factor (x - r)^2, so both outcomes occur
    spec = gf.field_create(p, k)
    rng = random.Random(f"singular {p}^{k}")
    outcomes = set()
    for trial in range(30):
        g = rng.choice([1, 2])
        degree = rng.choice([2 * g + 1, 2 * g + 2])
        f = [rng.randrange(spec.q) for _ in range(degree)] + [1]
        if trial % 3 == 0:
            r = rng.randrange(spec.q)
            square = gf.pmul(spec, _linear(spec, r), _linear(spec, r))
            f = gf.pmul(spec, square, f[2:])
        expected = naive_singular_point(spec, [], f)
        try:
            validate_curve(spec, [], f, g)
            found = None
        except Singular as exc:
            found = exc.witness
        assert found == expected, f
        outcomes.add(found is None)
    assert outcomes == {True, False}

def _screen_disagreements(p, equations):
    # the equations of one degree on which validate_curve disagrees with the
    # batched smoothness kernel about singularity
    spec = gf.field_create(p)
    g = genus_for_degree(len(equations[0][1]) - 1)
    hs, fs = zip(*equations)
    degrees = smoothness_gcd_degrees(p, np.array(hs), np.array(fs)).tolist()
    out = []
    for (h, f), degree in zip(equations, degrees):
        try:
            validate_curve(spec, h, f, g)
            singular = False
        except Singular:
            singular = True
        if singular != (degree > 0):
            out.append((h, f))
    return out


@pytest.mark.parametrize(
    "p,degree",
    [(3, d) for d in range(3, 9)] + [(5, d) for d in range(3, 7)]
    + [(7, d) for d in range(3, 6)] + [(2, d) for d in range(3, 9)],
)
def test_smoothness_kernel_matches_validate_curve_on_whole_families(p, degree):
    # p | deg f (3 | 3, 6; 5 | 5) leaves f' a formal leading zero, and
    # p | deg f - 1 (5 | 6 - 1) zeroes the coefficient of f' just below its
    # top; in characteristic 2 every h vector of the enumerator is screened,
    # those with trailing zeros included
    cfg = SurveyConfig(p=p, genus=genus_for_degree(degree), degree=degree)
    equations = list(enumerate_equations(cfg))
    if p == 2:
        hs = {h for h, _ in equations}
        assert len(hs) == 2 ** (cfg.genus + 2) - 1
        assert sum(h[-1] == 0 for h in hs) == 2 ** (cfg.genus + 1) - 1
    assert _screen_disagreements(p, equations) == []


@pytest.mark.parametrize(
    "p,genus,degree",
    [(2, 1, 3), (2, 1, 4), (2, 2, 5), (2, 2, 6), (3, 1, 3), (3, 1, 4), (5, 1, 3)],
)
def test_singular_at_zero_matches_a_scan_of_the_points_over_zero(p, genus, degree):
    # on every prefix of the family, not only the leading one a survey
    # counts unscreened: each equation with a singular point (0, y) must
    # raise Singular, the leading slab is a run of such equations, and the
    # equation after it has none
    cfg = SurveyConfig(p=p, genus=genus, degree=degree)
    spec = gf.field_create(p)
    equations = list(enumerate_equations(cfg))
    at_zero = [bool(naive_singular_ys_over_zero(p, h, f)) for h, f in equations]
    n, _ = survey._leading_slab(cfg)
    assert all(at_zero[:n]) and not at_zero[n]
    for (h, f), singular in zip(equations, at_zero):
        if singular:
            with pytest.raises(Singular):
                validate_curve(spec, h, f, genus)
    assert any(at_zero) and not all(at_zero)


def test_smoothness_kernel_on_f_with_vanishing_derivative():
    # f = x^6 + a x^3 + b over F_3: f' = 0, so gcd(f, f') = f, degree 6
    equations = [((), (b, 0, 0, a, 0, 0, 1)) for a in range(3) for b in range(3)]
    hs, fs = zip(*equations)
    degrees = smoothness_gcd_degrees(3, np.array(hs), np.array(fs))
    assert degrees.tolist() == [6] * 9
    assert _screen_disagreements(3, equations) == []


def test_smoothness_kernel_gcd_degrees():
    # (x - 1)^2 (x + 1) over F_5: gcd(f, f') = x - 1; x^3 - x is squarefree;
    # y^2 + x y = x^5 over F_2 has gcd(h, h'^2 f + f'^2) = gcd(x, x^5 + x^4)
    f = np.array([[1, 4, 4, 1], [0, 4, 0, 1]])
    assert smoothness_gcd_degrees(5, np.zeros((2, 0), dtype=int), f).tolist() == [1, 0]
    # y^2 + y = f has h' = 0 and gcd(1, f'^2) = 1
    h = np.array([[0, 1], [1, 0]])
    f = np.array([[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]])
    assert smoothness_gcd_degrees(2, h, f).tolist() == [1, 0]


def _linear(spec, r):
    return gf.padd(spec, gf.pmul(spec, [spec.p - 1], [r]), [0, 1])  # x - r


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
    # a bool is an int to isinstance, but no curve text spells True; in f's
    # leading slot it would also pass the monic check (True == 1)
    for bad in (9, -1, True):
        with pytest.raises(ValueError):
            validate_curve(spec, [], [bad, 1, 0, 1], 1)
        with pytest.raises(ValueError):
            validate_curve(spec, [], [1, 1, 0, bad], 1)


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


def _rows_of(curves):
    # the h and f of curves of one genus over one base as int64 code arrays,
    # each row zero-padded to the widest model: f to 2g+3 columns and, in
    # characteristic 2, h to g+2, so narrower rows carry trailing zeros
    g = curves[0].genus
    h = np.zeros((len(curves), g + 2 if curves[0].base.p == 2 else 0), dtype=np.int64)
    f = np.zeros((len(curves), 2 * g + 3), dtype=np.int64)
    for i, C in enumerate(curves):
        h[i, :len(C.h)] = C.h
        f[i, :len(C.f)] = C.f
    return h, f


def _count(curves):
    return count_batch(curves[0].base, curves[0].genus, *_rows_of(curves))


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)])
def test_count_batch_matches_batch_of_one_and_the_oracle(p, k, g):
    spec = gf.field_create(p, k)
    rng = random.Random(f"batch {p}^{k} g{g}")
    batch = _every_shape(rng, spec, g) + _every_shape(rng, spec, g)
    rng.shuffle(batch)
    got = _count(batch)
    for C, ns in zip(batch, got):
        assert ns == [count_points(C, i) for i in range(1, g + 1)]
        for i in range(1, g + 1):
            if spec.q ** i <= NAIVE_CAP:
                assert ns[i - 1] == naive_count(C, i)


@pytest.mark.parametrize("p,k,g", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 1, 2)])
def test_count_batch_on_one_mixed_padded_batch(p, k, g):
    # deg f = 2g+1 and 2g+2 rows padded together, characteristic-2 rows
    # whose h ends in zeros, over a prime and a proper-extension base: each
    # row counts as counts_up_to_genus and the brute-force oracle count it
    spec = gf.field_create(p, k)
    rng = random.Random(f"mixed {p}^{k} g{g}")
    batch = _every_shape(rng, spec, g) * 2
    rng.shuffle(batch)
    h, f = _rows_of(batch)
    assert set(f[:, 2 * g + 2].tolist()) == {0, 1}
    assert p != 2 or set(h[:, g + 1].tolist()) > {0}
    got = count_batch(spec, g, h, f)
    for C, ns in zip(batch, got):
        assert tuple(ns) == counts_up_to_genus(C).counts
        for i in range(1, g + 1):
            if spec.q ** i <= NAIVE_CAP:
                assert ns[i - 1] == naive_count(C, i)


@pytest.mark.parametrize("p,k,g", [(3, 1, 2), (2, 1, 2), (3, 2, 1), (2, 3, 2)])
def test_count_batch_of_no_rows(p, k, g):
    h = np.zeros((0, g + 2 if p == 2 else 0), dtype=np.int64)
    f = np.zeros((0, 2 * g + 3), dtype=np.int64)
    assert count_batch(gf.field_create(p, k), g, h, f) == []


def test_count_batch_splits_at_the_survey_batch_size():
    # the survey counts a screened block's curves, at most BATCH, at a time;
    # batches on either side of that size count each curve as the batch of
    # one does
    spec = gf.field_create(3)
    rng = random.Random("boundary")
    curves = []
    while len(curves) < 2 * BATCH + 3:
        curves += _every_shape(rng, spec, 1)
    for lo, hi in [(0, BATCH - 1), (0, BATCH), (BATCH, 2 * BATCH + 1),
                   (2 * BATCH + 1, 2 * BATCH + 3)]:
        got = _count(curves[lo:hi])
        assert got == [[count_points(C, 1)] for C in curves[lo:hi]]
    assert [n for [n] in _count(curves[:9])] == [
        naive_count(C, 1) for C in curves[:9]
    ]


@pytest.mark.parametrize("p,k,g", [(3, 2, 2), (2, 3, 2), (7, 1, 2)])
def test_count_batch_over_many_x_blocks(monkeypatch, p, k, g):
    # a block budget this small makes every field take several x-blocks
    spec = gf.field_create(p, k)
    batch = _every_shape(random.Random(f"blocks {p}^{k}"), spec, g)
    whole = _count(batch)
    blocks = []
    evaluations = gf.evaluations

    def counted(*args):
        for i, start, vals in evaluations(*args):
            blocks.append(start)
            yield i, start, vals

    monkeypatch.setattr(gf, "EVAL_BLOCK_BYTES", 1 << 9)
    monkeypatch.setattr(gf, "evaluations", counted)
    assert _count(batch) == whole
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
        raise AssertionError("_counts called before the size check")

    monkeypatch.setattr("frobtorus.curves._counts", no_counting)
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


def _scalar(op, spec, a, b):
    # a + b or a b for codes a and b, as padd or pmul of constant polynomials
    return (op(spec, [a], [b]) or [0])[0]


def _constant_images(src, dst):
    # the code in dst of each code of src: the evaluator's value at x = 0 of
    # each constant polynomial of src, over dst = F_{q^i}
    _, _, vals = next(gf.evaluations(src, (dst.k // src.k,), np.arange(src.q)[:, None]))
    return vals[:, 0].tolist()


def test_embed_is_a_field_homomorphism():
    # the embedding of F_q in F_{q^i} that every evaluation over F_{q^i}
    # takes: a + b, a b and 1 go to the sum, product and 1 of the images
    for (p, k), K in [((3, 1), 2), ((2, 2), 4), ((3, 2), 4), ((2, 3), 6)]:
        src, dst = gf.field_create(p, k), gf.field_create(p, K)
        image = _constant_images(src, dst)
        for a in range(src.q):
            for b in range(src.q):
                for op in (gf.padd, gf.pmul):
                    e = image[_scalar(op, src, a, b)]
                    assert e == _scalar(op, dst, image[a], image[b]), (op, a, b)
        assert image[1] == 1


def test_embed_extension_to_extension():
    src = gf.field_create(2, 2)
    dst = gf.field_create(2, 4)
    images = _constant_images(src, dst)
    assert len(set(images)) == 4  # injective
    g_img = images[gf.code(src, [0, 1])]
    # the image of t is gamma, the first root by rep of the source modulus
    assert g_img == gf.generator_image(src, dst)
    assert g_img == gf.poly_roots(dst, list(src.modulus))[0]


@pytest.mark.parametrize("src,dst", [((2, 1), (2, 4)), ((2, 2), (2, 4)),
                                     ((3, 2), (3, 4)), ((3, 2), (3, 2))])
def test_embed_maps_code_arrays_elementwise(src, dst):
    # a batch of the constant polynomials c + 0 x, one row per code c, is
    # each row's lift by the rep oracle at every x; the identity on codes
    # for a prime base and for dst = src
    src, dst = gf.field_create(*src), gf.field_create(*dst)
    codes = np.arange(src.q).reshape(-1, 1).repeat(2, axis=1)
    codes[:, 1] = 0
    lifted = [gf.code(dst, r) for r in _lift(src, _Field(dst.p, dst.k), range(src.q))]
    for _, _, vals in gf.evaluations(src, (dst.k // src.k,), codes):
        assert (vals == np.array(lifted)[:, None]).all()
    if src == dst or src.k == 1:
        assert lifted == list(range(src.q))


def test_embed_rejects_incompatible_fields():
    # F_4 is in no F_8, and in no field of another characteristic
    for dst in (gf.field_create(2, 3), gf.field_create(3, 4)):
        with pytest.raises(ValueError, match="no embedding"):
            gf.generator_image(gf.field_create(2, 2), dst)
