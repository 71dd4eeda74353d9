"""Absolute-simplicity classification of an isogeny class from its Weil
polynomial.

The decision rests on exactly computable facts about the Frobenius
eigenvalues alpha_1..alpha_2g.  Let P_n and mu_n be the charpoly and the
minimal polynomial of pi^n.

  1. P irreducible over Q makes Q[pi] a field of degree 2g, so Frobenius
     acts irreducibly on the Tate module.  Its roots are Galois-conjugate,
     and so are their n-th powers, each the power of equally many roots:
     P_n = mu_n^k, and Q(pi^n) has degree 2g/k.
  2. That degree drops below 2g for some n exactly when some eigenvalue
     ratio alpha_j/alpha_i, a root of the ratio polynomial R, is a root of
     unity.  At an m >= 2 with Phi_m | R, a torsion order, one is of order
     m, so i != j and P_m repeats the root alpha_i^m = alpha_j^m: k >= 2.
     Such an m satisfies two proven bounds:
      * phi(m) <= 2g(2g-1): R = (x-1)^(2g) R_off, the diagonal pairs
        giving (x-1)^(2g), and Phi_m is coprime to x-1, so Phi_m divides
        R_off, of degree 2g(2g-1);
      * phi(m) divides 2^g g!: Q(zeta_m) lies in the splitting field of P,
        and the Galois group of that field permutes the g pairs
        {alpha, q/alpha}, so it embeds in C_2 wr S_g, of order 2^g g!.
  3. mu_n is ordinary exactly when P is: v(alpha^n)/v(q^n) = v(alpha)/v(q),
     so mu_n has P's slopes at 1/k of the multiplicity, and the middle-
     coefficient rule holds exactly when half the roots are p-adic units.

That turns "for every power of Frobenius" into a finite list of cyclotomic
divisibility tests (4, 13, 39 and 57 orders for g = 1..4), each replayable
from the emitted certificate.  The list is walked from the primes that can
divide such an m: a prime r | m has r - 1 | phi(m), so r - 1 divides 2^g g!
and r <= 2g(2g-1) + 1, and the candidates are the products of powers of
those primes that meet both bounds.  The power charpolys are rebuilt
exactly from eigenvalue power sums by Newton's identities
(intpoly.root_power_sums, from_power_sums).  So are the two factors of the
ratio polynomial R, each from its top half alone.

R, of degree 4g^2, is R~(qx)/q^(2g^2) for the monic R~ whose roots are the
products alpha_i alpha_j over all (i, j): complex conjugation maps alpha_j
to q/alpha_j, so alpha_i/alpha_j = alpha_i conj(alpha_j)/q.  R~ splits as
A B^2.  A = P_2 takes the diagonal i = j, with roots alpha_i^2 and power
sums S_2k.  B takes the pairs i < j, each of which stands for (i, j) and
(j, i), with roots alpha_i alpha_j, degree N = g(2g-1) and power sums
(S_k^2 - S_2k)/2.  So q^(2g^2) R = A(qx) B(qx)^2 (ratio_poly), and since
Phi_m is irreducible, Phi_m | R exactly when Phi_m divides A(qx) or B(qx).
Both factors are symmetric, so Newton's identities run on the top half of
each, g sums for A and floor(N/2) for B, over Z:
  * A is a Weil polynomial over q^2: x^(2g) A(q^2/x) = q^(2g) A(x), so
    A_(2g-k) = A_k q^(2(k-g)) for k >= g.
  * The roots of B are closed under beta -> q^2/beta.  Conjugation
    permutes the roots of P, counted with multiplicity, by a permutation s
    with alpha_s(i) = q/alpha_i, so it maps the pair {i, j} to the pair
    {s(i), s(j)}, and alpha_i alpha_j to q^2/(alpha_i alpha_j).  Their
    product is (prod_i alpha_i)^(2g-1) = q^N, as P_0 = q^g.  So x^N B(q^2/x)
    = prod_beta (q^2 - beta x) = (-1)^N q^N B(x), that is b_k q^(2k) =
    (-1)^N q^N b_(N-k).  N has the parity of g, so for odd g the mirror
    flips the sign.
In A(qx) and B(qx) the rules read: coefficient 2g - k of A(qx) is its
coefficient k, and coefficient N - k of B(qx) is (-1)^N times its
coefficient k.  No division is left.

Most of those tests fail, and a residue modulo a prime proves it.  Per
genus split the candidate orders, in ascending order, into runs whose lcm L
stays at most 2^24 (PREFILTER_LCM_CAP); fix per run the first prime ell
above 2^31 with ell = 1 mod L, and an element w_m of exact order m in F_ell
for each m of the run.  For g = 1..4, L <= 2^23, so one run and one prime
serve all orders (2147483713, 2147484721, 2154166561 and 2156394241);
g = 5..8 take 17, 39, 72 and 92 runs.  The lcm of all orders has 46 to 134
bits for g = 5..8, and from g = 7 on a prime = 1 mod it is past the prime
test bound.  Since ell does not divide m, x^m - 1 is separable mod ell and
w_m is a root of Phi_m mod ell; so Phi_m | F over Z forces F(w_m) = 0 mod
ell, for F = A(qx) and for F = B(qx), and a nonzero residue proves Phi_m
does not divide F.  This holds for any integer F, so ell dividing q needs
no special case: every residue is then zero.  A zero residue only sends m
on to exact division over Z: no order is accepted or rejected on a residue
alone.  When ell does not divide q, R(w_m) = 0 mod ell exactly when
A(q w_m) B(q w_m) = 0 mod ell, so the orders sent on are those whose
residue of R is zero.  A factor F of degree d is tested only at the orders
with phi(m) <= d, since Phi_m has degree phi(m): of the 4, 13, 39 and 57
candidates for g = 1..4, that leaves 4, 8, 12 and 17 orders for A and 1,
8, 23 and 39 for B.  By the mirror rules, F(w) = sum_(k >= d/2) F_k (w^k
+- w^(d-k)) for F of degree d, so each residue is one sum of products of
F's top half mod ell with a row of these weights mod ell, cached per genus
with the primes in one table.

P, and each power charpoly, is factored at half its degree.  When P
satisfies the Riemann hypothesis (zeta.is_weil: exact, in closed form for
g <= 3, run on the h that is then factored),
P(x) = x^g h(x + q/x) with h = zeta.real_poly(P) of degree g, every root of
h real in [-2 sqrt(q), 2 sqrt(q)].  Each irreducible factor k of h, of
multiplicity e, gives one irreducible factor of P:
  - (x -+ sqrt(q)) with multiplicity 2e for k = y -+ 2 sqrt(q), q a square;
  - (x^2 - q) with multiplicity 2e for k = y^2 - 4q, q not a square;
  - x^deg(k) k(x + q/x) with multiplicity e for any other k.  The roots of
    a rational factor of P are closed under complex conjugation, which maps
    alpha to q/alpha, so that factor is x^d k'(x + q/x) for a rational
    factor k' of k.
A power charpoly of P is a Weil polynomial over q^n, so it qualifies when P
does.  A P that fails is_weil is factored at full degree: for it the rule
can be wrong.  Over q = 3, x^2 - 4x + 3 = (x - 1)(x - 3) has h = y - 4.
Either way the factors are checked once, by multiplying them back to P.
That check covers one over h: k -> x^deg(k) k(x + q/x) is multiplicative
and injective and maps h to P, so factors of P that multiply back to P
come from factors of h that multiply back to h.

classify depends on P alone, and P and its quadratic twist P(-x) get the
same verdict up to their factors: the twist's Frobenius is -pi, with the
same eigenvalue ratios, so kind, witness, torsion orders and reason agree.
A factor h of P, or of an odd power charpoly, becomes (-1)^deg(h) h(-x);
an even power charpoly is the same for both.  So the decision runs on the
member of {P(x), P(-x)} with the smaller coefficient tuple, and the other
member's verdict is derived from it.  classify is memoized per process: a
survey, or report checking one, classifies each distinct Weil polynomial
once and decides each twist class once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from operator import mul

from . import _fpx
from .errors import InvariantViolation, ParseError, SizeExceeded
from .intpoly import (
    FACTOR_DEGREE_CAP,
    IntPoly,
    cyclotomic,
    divmod_exact,
    factor_key,
    factor_product,
    from_power_sums,
    root_power_sums,
)
# _weil_factors calls the unchecked core by the name factor, which
# perfbench/tracing.py hooks, as it hooks resultant_y
from .intpoly import factor_unchecked as factor
from .intpoly import resultant_y  # noqa: F401
from .zeta import (
    WeilPolynomial,
    _real_is_weil,
    decode_array,
    decode_int,
    encode_int,
    prime_power,
    real_poly,
)

ABSOLUTELY_SIMPLE = "AbsolutelySimple"
NOT_SIMPLE = "NotSimple"
NOT_ABSOLUTELY_SIMPLE = "NotAbsolutelySimple"
INCONCLUSIVE = "Inconclusive"

REASON_REPEATED_BASE = "repeated-factor base"
REASON_PURE_POWER = "degree drop with pure non-ordinary power"

# distinct Weil polynomials whose verdicts classify keeps; a full memo of
# genus 2-3 verdicts holds about 2 MB
CLASSIFY_CACHE_SIZE = 4096


@dataclass(frozen=True)
class SimplicityVerdict:
    kind: str
    witness_n: int | None = None
    factors: tuple[tuple[IntPoly, int], ...] | None = None
    torsion_orders: tuple[int, ...] | None = None
    reason: str | None = None


def charpoly_power(P: WeilPolynomial, n: int) -> IntPoly:
    """Monic integer polynomial whose roots are the alpha_i^n.

    Newton's identities rebuild it from the power sums S_n, S_2n, ...,
    S_2gn of the roots of P.  Every call checks the result as a Weil
    polynomial over q^n: monic, constant term q^(gn), functional equation.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    S = root_power_sums(IntPoly(P.coeffs), 2 * P.g * n)
    C = from_power_sums(S[n - 1::n])
    WeilPolynomial(q=P.q ** n, g=P.g, coeffs=C.coeffs)
    return C


def ratio_poly(P: WeilPolynomial) -> tuple[IntPoly, IntPoly]:
    """(A(qx), B(qx)), the factors of the ratio polynomial R with
    q^(2g^2) R = A(qx) B(qx)^2.

    R, of degree (2g)^2, vanishes exactly at the eigenvalue ratios
    alpha_j/alpha_i; A = P_2 has the roots alpha_i^2 and B, of degree
    N = g(2g-1), the products alpha_i alpha_j for i < j (module docstring).
    Power sums and Newton's identities work on the roots counted with
    multiplicity, so both are exact for repeated roots too.  Newton's
    identities give the top half of each factor, A's from S_2, S_4, ..,
    S_2g and B's from (S_k^2 - S_2k)/2 for k <= N/2, and the symmetry rules
    of the module docstring give the rest: A(qx) is palindromic, and
    coefficient N - k of B(qx) is (-1)^N times coefficient k.
    """
    g, q = P.g, P.q
    N = g * (2 * g - 1)
    K = N // 2
    S = root_power_sums(IntPoly(P.coeffs), 2 * max(g, K))
    # coefficient i of the Newton results is that of x^(g+i) in A and of
    # x^(N-K+i) in B
    a = from_power_sums(S[1:2 * g:2]).coeffs
    pair_sums = [(S[k - 1] ** 2 - S[2 * k - 1]) // 2 for k in range(1, K + 1)]
    b = from_power_sums(pair_sums).coeffs
    upper_a = [c * q ** (g + i) for i, c in enumerate(a)]
    upper_b = [c * q ** (N - K + i) for i, c in enumerate(b)]
    lower_b = upper_b[::-1][:N - K]
    if N % 2:
        lower_b = [-c for c in lower_b]
    return IntPoly(upper_a[:0:-1] + upper_a), IntPoly(lower_b + upper_b)


def _torsion_candidates(g: int) -> tuple[int, ...]:
    # the m >= 2 with phi(m) <= 2g(2g-1) and phi(m) | 2^g g!, walked as
    # products of powers of the primes r <= 2g(2g-1) + 1 with r - 1 | 2^g g!
    # (module docstring).  phi only grows as a prime power is multiplied in,
    # and a multiple of a non-divisor is none, so a product that fails
    # either bound is dropped with every product it would grow into
    bound = 2 * g * (2 * g - 1)
    group_order = math.factorial(g) << g
    found = [(1, 1)]  # (m, phi(m)) over the primes walked so far
    for r in range(2, bound + 2):
        if group_order % (r - 1) or not _fpx.is_prime(r):
            continue
        grown = []
        for m, phi in found:
            m, phi = m * r, phi * (r - 1)
            while phi <= bound and group_order % phi == 0:
                grown.append((m, phi))
                m, phi = m * r, phi * r
        found += grown
    return tuple(sorted(m for m, _ in found[1:]))


# the largest lcm of the candidate orders that one prefilter prime serves:
# every prime ell stays near 2^31, far inside _fpx.MR_BOUND
PREFILTER_LCM_CAP = 2 ** 24


@functools.lru_cache(maxsize=None)
def _torsion_table(g: int):
    # the prefilter of genus g: the candidate orders, in ascending runs whose
    # lcm L stays at most PREFILTER_LCM_CAP; per run a prime ell = 1 mod L,
    # the first such above 2^31, and for each m of the run an element w_m of
    # exact order m in F_ell, w_m = w^(L/m) for w of exact order L.  Returns
    # the runs' primes and, for A(qx) of degree d = 2g and for B(qx) of
    # degree d = N, the rows (ell, m, weights) of the orders m with
    # phi(m) <= d, in ascending m: weights holds the w_m^k + sign w_m^(d-k)
    # mod ell for k = ceil(d/2)..d, w_m^k alone at k = d/2, with sign 1 for
    # A(qx) and (-1)^N for B(qx)
    runs: list[list] = []  # [L, orders] per run, L kept as a running lcm
    for m in _torsion_candidates(g):
        L = math.lcm(runs[-1][0], m) if runs else PREFILTER_LCM_CAP + 1
        if L <= PREFILTER_LCM_CAP:
            runs[-1][0] = L
            runs[-1][1].append(m)
        else:
            runs.append([m, [m]])
    N = g * (2 * g - 1)
    top = max(2 * g, N)
    primes, rows = [], ([], [])
    for L, run_orders in runs:
        p = (2 ** 31 // L + 1) * L + 1
        while not _fpx.is_prime(p):
            p += L
        # w = a^((p-1)/L) has exact order L when no a^((p-1)/r), r | L prime, is 1
        divisors = tuple(_fpx.prime_divisors(L))
        a = 2
        while any(pow(a, (p - 1) // r, p) == 1 for r in divisors):
            a += 1
        w = pow(a, (p - 1) // L, p)
        primes.append(p)
        for m in run_orders:
            phi = m
            for r in _fpx.prime_divisors(m):
                phi = phi // r * (r - 1)
            if phi > top:
                continue  # Phi_m divides neither factor
            powers = [1, pow(w, L // m, p)]
            while len(powers) <= top:
                powers.append(powers[-1] * powers[1] % p)
            for out, d, sign in zip(rows, (2 * g, N), (1, (-1) ** N)):
                if phi <= d:
                    out.append((p, m, tuple(
                        powers[k] if 2 * k == d else (powers[k] + sign * powers[d - k]) % p
                        for k in range(d - d // 2, d + 1)
                    )))
    return tuple(primes), tuple(map(tuple, rows))


def ratio_torsion_orders(P: WeilPolynomial) -> set[int]:
    """{m >= 2 : the m-th cyclotomic polynomial divides the ratio
    polynomial R of P}.

    Empty exactly when [Q(pi^n) : Q] = 2g for every n >= 1.  Only the
    orders allowed by the two bounds in the module docstring are tested.
    Phi_m | R exactly when Phi_m divides A(qx) or B(qx) (ratio_poly), which
    it can only when phi(m) is at most that factor's degree; and each
    factor is divided out exactly only when its residue at w_m mod the
    prefilter prime ell is zero (module docstring).  By the symmetry rules,
    F(w) = sum_(k >= d/2) F_k (w^k +- w^(d-k)) for each factor F of degree
    d, so a residue is one sum of products of F's top half mod ell with a
    cached row of weights.
    """
    factors = ratio_poly(P)
    primes, rows = _torsion_table(P.g)
    sent: dict[int, list[IntPoly]] = {}  # order -> the factors with a zero residue
    for F, F_rows in zip(factors, rows):
        upper = F.coeffs[len(F.coeffs) // 2:]
        reduced = {p: [c % p for c in upper] for p in primes}
        for p, m, weights in F_rows:
            if not sum(map(mul, weights, reduced[p])) % p:
                sent.setdefault(m, []).append(F)
    out = set()
    for m in sorted(sent):
        phi = cyclotomic(m)
        if any(divmod_exact(F, phi)[1].is_zero for F in sent[m]):
            out.add(m)
    return out


def _weil_factors(P: WeilPolynomial) -> list[tuple[IntPoly, int]]:
    # factor(P)'s irreducible factors, read off those of the real polynomial
    # h when P satisfies the Riemann hypothesis (module docstring).  factor
    # is intpoly's unchecked core here: the one product check, over P, covers
    # a check over h (module docstring)
    h = real_poly(P)
    if not _real_is_weil(h, P.q):
        out = factor(IntPoly(P.coeffs))[1]
    else:
        q, r = P.q, math.isqrt(P.q)
        out = []
        for k, e in factor(h)[1]:
            if r * r == q and k.coeffs in ((-2 * r, 1), (2 * r, 1)):
                out.append((IntPoly([k.coeffs[0] // 2, 1]), 2 * e))  # (x -+ r)^2
            elif k.coeffs == (-4 * q, 0, 1):
                out.append((IntPoly([-q, 0, 1]), 2 * e))  # (x^2 - q)^2
            else:
                # x^d k(x + q/x) = sum_j k_j x^(d-j) (x^2 + q)^j
                d = k.degree
                K = [0] * (2 * d + 1)
                for j, kj in enumerate(k.coeffs):
                    for i in range(j + 1):
                        K[d - j + 2 * i] += kj * math.comb(j, i) * q ** (j - i)
                out.append((IntPoly(K), e))
        out.sort(key=factor_key)
    if factor_product(out).coeffs != P.coeffs:
        raise InvariantViolation("factors do not reproduce the Weil polynomial")
    return out


def _factor_is_ordinary(h: IntPoly, p: int) -> bool:
    # middle-coefficient rule applied to the factor's own degree
    return math.gcd(h.coeffs[h.degree // 2], p) == 1


@functools.lru_cache(maxsize=CLASSIFY_CACHE_SIZE)
def classify(P: WeilPolynomial) -> SimplicityVerdict:
    """Decision procedure over the Weil polynomial alone.

    NotSimple: P has two distinct irreducible factors.  For g = 1 only a
        P that fails the Riemann hypothesis can have them.
    AbsolutelySimple: g = 1, since an abelian variety of dimension 1 is
        simple over every extension, with P's one factor (h, e) and the
        ratio-torsion orders, which may be nonempty; or P irreducible and
        no eigenvalue ratio is a root of unity, so every power of Frobenius
        keeps full degree.
    NotAbsolutelySimple: a repeated ordinary factor at some n (n = 1, or
        the smallest ratio-torsion order of an irreducible P).
    Inconclusive: g >= 2 and pure repeated non-ordinary factors (possibly
        still simple with a larger endomorphism algebra); never guessed.

    Raises SizeExceeded when 2g is past intpoly.FACTOR_DEGREE_CAP, since P
    and every witness charpoly have degree 2g.

    Memoized per process (an LRU of CLASSIFY_CACHE_SIZE verdicts, keyed on
    the frozen P; exceptions are not cached).  The decision itself runs
    only on the member of {P(x), P(-x)} with the smaller coefficient tuple;
    the other member's verdict is derived from the memoized one exactly
    (module docstring), so each twist class is decided once.  Verdicts are
    immutable, so callers share them.
    """
    twin = tuple(-c if i % 2 else c for i, c in enumerate(P.coeffs))
    if twin < P.coeffs:
        return _twist(_memo(WeilPolynomial(q=P.q, g=P.g, coeffs=twin)), P)
    return _decide(P)


# classify's memo under a name that a wrapper installed on classify (a
# tracer) leaves alone, so a twin's lookup is not counted as a second call
_memo = classify


def _twist(v: SimplicityVerdict, P: WeilPolynomial) -> SimplicityVerdict:
    # the verdict of P from the verdict v of its twin P(-x) (module
    # docstring).  The twisted factors are the only ones classify does not
    # get from _weil_factors, so they are checked here: they must multiply
    # to P, or to P_n at an odd witness n > 1
    n = v.witness_n or 1
    if v.factors is None or n % 2 == 0:
        return v
    factors = [
        (IntPoly([-c if (i + h.degree) % 2 else c for i, c in enumerate(h.coeffs)]), e)
        for h, e in v.factors
    ]
    factors.sort(key=factor_key)
    target = P.coeffs if n == 1 else charpoly_power(P, n).coeffs
    if factor_product(factors).coeffs != target:
        raise InvariantViolation(f"twisted factors do not reproduce P_{n}")
    return replace(v, factors=tuple(factors))


def _decide(P: WeilPolynomial) -> SimplicityVerdict:
    # classify's decision body, run on one member of each twist class
    if 2 * P.g > FACTOR_DEGREE_CAP:
        raise SizeExceeded(
            f"degree 2g = {2 * P.g} exceeds the factoring cap {FACTOR_DEGREE_CAP}"
        )
    p = prime_power(P.q)[0]
    fs = _weil_factors(P)
    if len(fs) >= 2:
        return SimplicityVerdict(kind=NOT_SIMPLE, factors=tuple(fs))
    h, e = fs[0]
    if P.g >= 2 and e >= 2:
        if _factor_is_ordinary(h, p):
            return SimplicityVerdict(
                kind=NOT_ABSOLUTELY_SIMPLE, witness_n=1, factors=((h, e),)
            )
        return SimplicityVerdict(
            kind=INCONCLUSIVE, reason=REASON_REPEATED_BASE, factors=((h, e),)
        )
    orders = tuple(sorted(ratio_torsion_orders(P)))
    # an elliptic curve has no proper nonzero abelian subvariety, so it is
    # simple over every extension, whatever its ratio orders
    if P.g == 1 or not orders:
        return SimplicityVerdict(
            kind=ABSOLUTELY_SIMPLE, torsion_orders=orders, factors=((h, e),)
        )
    # P_m is mu_m^k, k >= 2, and mu_m is as ordinary as P (module docstring)
    if not _factor_is_ordinary(h, p):
        return SimplicityVerdict(
            kind=INCONCLUSIVE, reason=REASON_PURE_POWER, torsion_orders=orders
        )
    m = orders[0]
    cm = charpoly_power(P, m)
    cfs = tuple(_weil_factors(WeilPolynomial(q=P.q ** m, g=P.g, coeffs=cm.coeffs)))
    if len(cfs) != 1 or cfs[0][1] < 2:
        raise InvariantViolation(f"P_{m} of an irreducible P factors as {cfs}")
    return SimplicityVerdict(
        kind=NOT_ABSOLUTELY_SIMPLE, witness_n=m, factors=cfs, torsion_orders=orders
    )


# ---------------------------------------------------------------------------
# Verdict persistence and replay.

def verdict_to_json(v: SimplicityVerdict) -> dict:
    out: dict = {"kind": v.kind}
    if v.witness_n is not None:
        out["witness_n"] = v.witness_n
    if v.factors is not None:
        out["factors"] = [
            {"coeffs": [encode_int(c) for c in h.coeffs], "mult": e}
            for h, e in v.factors
        ]
    if v.torsion_orders is not None:
        out["torsion_orders"] = list(v.torsion_orders)
    if v.reason is not None:
        out["reason"] = v.reason
    return out


def verdict_from_json(d) -> SimplicityVerdict:
    if not isinstance(d, dict) or "kind" not in d:
        raise ParseError("verdict JSON must be an object with a 'kind'")
    kind = d["kind"]
    if kind not in (ABSOLUTELY_SIMPLE, NOT_SIMPLE, NOT_ABSOLUTELY_SIMPLE, INCONCLUSIVE):
        raise ParseError(f"unknown verdict kind {kind!r}")
    factors = torsion = witness_n = None
    try:
        if "factors" in d:
            factors = tuple(
                (
                    IntPoly(map(decode_int, decode_array(item, "coeffs"))),
                    decode_int(item["mult"]),
                )
                for item in decode_array(d, "factors")
            )
        if "torsion_orders" in d:
            torsion = tuple(map(decode_int, decode_array(d, "torsion_orders")))
    except (TypeError, KeyError):
        raise ParseError("malformed verdict factors or torsion orders") from None
    if d.get("witness_n") is not None:
        witness_n = decode_int(d["witness_n"])
    return SimplicityVerdict(
        kind=kind,
        witness_n=witness_n,
        factors=factors,
        torsion_orders=torsion,
        reason=d.get("reason"),
    )


def verify_verdict(P: WeilPolynomial, v: SimplicityVerdict) -> bool:
    """Replay the certificate: a fresh classification must agree exactly.

    classify checks every factorization it returns, so an equal verdict's
    factors multiply back to P, or to P_n at its witness n.
    """
    return classify(P) == v
