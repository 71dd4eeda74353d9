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
(intpoly.root_power_sums, from_power_sums).  So is the ratio polynomial R,
of degree N = 4g^2, but from its top half alone: R is palindromic with
R_0 = R_N = q^(2g^2) (ratio_poly), so Newton's identities run only up to
2g^2, over Z.

Most of those tests fail, and a residue modulo a prime proves it.  Per
genus split the candidate orders, in ascending order, into runs whose lcm L
stays at most 2^24 (PREFILTER_LCM_CAP); fix per run the first prime ell
above 2^31 with ell = 1 mod L, and an element w_m of exact order m in F_ell
for each m of the run.  For g = 1..4, L <= 2^23, so one run and one prime
serve all orders (2147483713, 2147484721, 2154166561 and 2156394241);
g = 5..8 take 17, 39, 72 and 92 runs.  The lcm of all orders has 46 to 134
bits for g = 5..8, and from g = 7 on a prime = 1 mod it is past the prime
test bound.  Since ell does not divide m, x^m - 1 is separable mod ell and
w_m is a root of Phi_m mod ell; so Phi_m | R over Z forces R(w_m) = 0 mod
ell, and a nonzero residue proves Phi_m does not divide R.  This holds for
any integer R, so ell dividing q needs no special case.  A zero residue
only sends m on to exact division over Z: no order is accepted or rejected
on a residue alone.  By the palindrome, R(w) = w^H (R_H + sum_(t=1..H)
R_(H+t) (w^t + w^-t)) with H = 2g^2, and w_m is a unit; so the residues of
every order come from one int64 product of R's top half mod ell with a
read-only matrix of the w_m^t + w_m^-t mod ell, cached per genus with the
primes and orders in one table.  Every ell is below 2^31.5, checked as it
is picked, so no product of two residues reaches 2^63.

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

import numpy as np

from . import _fpx
from .errors import InvariantViolation, ParseError, SizeExceeded
from .intpoly import (
    FACTOR_DEGREE_CAP,
    IntPoly,
    cyclotomic,
    divmod_exact,
    factor,
    factor_key,
    factor_product,
    from_power_sums,
    root_power_sums,
)
from .intpoly import resultant_y  # noqa: F401  (perfbench/tracing.py hooks this name)
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


def ratio_poly(P: WeilPolynomial) -> IntPoly:
    """R(x) = Res_y(P(y), sum_i c_i x^(2g-i) y^i), degree N = (2g)^2.

    R vanishes exactly at the eigenvalue ratios alpha_j/alpha_i; (x-1)^2g
    splits off from the diagonal pairs.  Content is not stripped.  R is
    R~(qx)/q^H with H = N/2 = 2g^2, where R~ is the monic polynomial with
    roots the products alpha_i*alpha_j = q*alpha_i/conj(alpha_j): its power
    sums are S_k^2.  Power sums and Newton's identities work on the roots
    counted with multiplicity, so the result is exact for repeated roots too.

    R is palindromic, R_j = R_(N-j), so Newton's identities run only up to
    H.  Its roots are closed under inversion, alpha_j/alpha_i <->
    alpha_i/alpha_j, and none is zero.  R_N = q^N/q^H = q^H, as R~ is monic,
    and R_0 = R~_0/q^H = q^H too: R~_0 = prod_(i,j) alpha_i alpha_j =
    (prod_i alpha_i)^(4g) = q^N, since a WeilPolynomial has c_0 = q^g.  So
    x^N R(1/x), whose roots are the inverses of R's and whose leading
    coefficient is R_0, is R.  The top coefficients a_0..a_H of R~, which
    Newton's identities take from S_1^2..S_H^2, give R_(H+t) = a_(H-t) q^t
    for t = 0..H, and the palindrome gives the rest: no division is left.
    """
    H = 2 * P.g * P.g
    S = root_power_sums(IntPoly(P.coeffs), H)
    # coefficient t of the degree-H result is a_(H-t)
    a = from_power_sums([s * s for s in S]).coeffs
    upper = [c * P.q ** t for t, c in enumerate(a)]
    return IntPoly(upper[:0:-1] + upper)


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
    # the runs' primes and, one row per order, the read-only int64 arrays
    # run (the run's index), ell, orders (m) and M, whose row holds
    # w_m^t + w_m^-t mod ell for t = 1..2g^2 after a 1 at t = 0
    runs: list[list] = []  # [L, orders] per run, L kept as a running lcm
    for m in _torsion_candidates(g):
        L = math.lcm(runs[-1][0], m) if runs else PREFILTER_LCM_CAP + 1
        if L <= PREFILTER_LCM_CAP:
            runs[-1][0] = L
            runs[-1][1].append(m)
        else:
            runs.append([m, [m]])
    primes, rows = [], []  # rows: (run index, ell, m, w_m)
    for i, (L, run_orders) in enumerate(runs):
        p = (2 ** 31 // L + 1) * L + 1
        while not _fpx.is_prime(p):
            p += L
        # each product of two residues is then below 2^63, and a row's sum
        # of 2g^2 + 1 reduced products far below it
        if p * p >= 2 ** 63:
            raise InvariantViolation(f"prefilter prime {p} is not below 2^31.5")
        # w = a^((p-1)/L) has exact order L when no a^((p-1)/r), r | L prime, is 1
        divisors = tuple(_fpx.prime_divisors(L))
        a = 2
        while any(pow(a, (p - 1) // r, p) == 1 for r in divisors):
            a += 1
        w = pow(a, (p - 1) // L, p)
        primes.append(p)
        rows += [(i, p, m, pow(w, L // m, p)) for m in run_orders]
    run, ell, orders, w = (np.array(col, dtype=np.int64) for col in zip(*rows))
    # w_m^-1 = w_m^(m-1)
    w_inv = np.array([pow(root, m - 1, p) for _, p, m, root in rows], dtype=np.int64)
    H = 2 * g * g
    M = np.empty((len(orders), H + 1), dtype=np.int64)
    M[:, 0] = 1
    up, down = w, w_inv
    for t in range(1, H + 1):
        M[:, t] = (up + down) % ell
        up = up * w % ell
        down = down * w_inv % ell
    for table in (run, ell, orders, M):
        table.flags.writeable = False
    return tuple(primes), run, ell, orders, M


def ratio_torsion_orders(P: WeilPolynomial) -> set[int]:
    """{m >= 2 : the m-th cyclotomic polynomial divides ratio_poly(P)}.

    Empty exactly when [Q(pi^n) : Q] = 2g for every n >= 1.  Only the
    orders allowed by the two bounds in the module docstring are tested,
    and only those whose residue R(w_m) mod their prefilter prime ell is
    zero are divided out exactly (module docstring).  As R is palindromic
    of degree 2H (ratio_poly), R(w) = w^H (R_H + sum_(t>=1) R_(H+t) (w^t +
    w^-t)), and w_m is a unit mod ell; so each bracket, for every order at
    once, is one int64 product of R_H..R_2H mod ell with a cached matrix.
    """
    R = ratio_poly(P)
    primes, run, ell, orders, M = _torsion_table(P.g)
    upper = R.coeffs[R.degree // 2:]
    C = np.array([[c % p for c in upper] for p in primes], dtype=np.int64)[run]
    residues = (M * C % ell[:, None]).sum(axis=1) % ell
    return {
        m for m in orders[residues == 0].tolist()
        if divmod_exact(R, cyclotomic(m))[1].is_zero
    }


def _weil_factors(P: WeilPolynomial) -> list[tuple[IntPoly, int]]:
    # factor(P)'s irreducible factors, read off those of the real polynomial
    # h when P satisfies the Riemann hypothesis (module docstring)
    h = real_poly(P)
    if not _real_is_weil(h, P.q):
        return factor(IntPoly(P.coeffs))[1]
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
        raise InvariantViolation("factors of h do not reproduce the Weil polynomial")
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
