"""Curve-family surveys: enumerate equations, decide their smoothness a
block at a time, count the valid curves in batches, classify each curve,
persist JSONL records, and aggregate verdict fractions.

Enumeration walks (h, f0, f1) prefixes, each the head of one contiguous
run of p^(deg f - 2) equations.  The first prefix, (h, 0, 0) with h0 =
h1 = 0, makes (0, 0) a singular point of every equation of its run, so
that run is a slab: it is counted as singular in one step and never
built, and singular_skipped and enumerated are exact integers however
large p^deg is.  The other equations travel as coefficient rows, never as
curve objects: a block's (h, f) int64 arrays go to one
smoothness_gcd_degrees call, the new curves' rows to count_batch, and a
smooth equation's text, built once, is both its record's curve and its
resume key.

Persistence is append-only JSONL with a config fingerprint header.  One
reader serves both resume and report: an interrupted run resumes by skipping
the keys already present (a partial trailing line from a kill mid-write is
truncated), and neither accepts a repeated curve, a record from another
family, a singular equation, or a record that is not what a survey writes
for its curve.  Its counts, weil and verdict members must re-encode, byte
for byte, to the members its writer encodes for its counts at the field
and genus of its curve.  Output order is enumeration order, keeping files byte-identical
across runs up to the timing field.

A record's counts, weil and verdict members are a function of its counts
vector alone, so a survey encodes them once per distinct vector (an LRU of
CLASSIFY_CACHE_SIZE encoded tails keyed on (q, g, counts)) and writes each
record as its curve text, that tail and its timing: the bytes of
json.dumps(record, separators=(",", ":")).  The first record of a vector
times its Weil polynomial and its classification as zeta_s and
classify_s; a later one, which finds the tail encoded before its lookup
began, records the lookup's time as zeta_s and 0.0 as classify_s.

Surveys count equations, not isomorphism classes; summaries carry that bias
note and label results as empirical fractions.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import gf
from .curves import (
    PointCounts,
    count_batch,
    counts_up_to_genus,
    curve_from_text,
    curve_to_text,
    equation_text,
    genus_for_degree,
    parse_curve_text,
    smoothness_gcd_degrees,
    validate_curve,  # noqa: F401  (perfbench/tracing.py hooks this name)
)
from .errors import (
    BadDegrees,
    CorruptRecord,
    FrobtorusError,
    ParseError,
    ResumeMismatch,
    SizeExceeded,
    clip,
)
from .intpoly import FACTOR_DEGREE_CAP
from .simplicity import (
    ABSOLUTELY_SIMPLE,
    CLASSIFY_CACHE_SIZE,
    INCONCLUSIVE,
    NOT_ABSOLUTELY_SIMPLE,
    NOT_SIMPLE,
    classify,
    verdict_to_json,
    verify_verdict,  # noqa: F401  (perfbench/tracing.py hooks this name)
)
from .zeta import decode_array, decode_int, is_weil, weil_from_counts
from .zeta import weil_from_json, weil_to_json

FORMAT = "frobtorus-survey-v1"
KIND_ORDER = (ABSOLUTELY_SIMPLE, NOT_SIMPLE, NOT_ABSOLUTELY_SIMPLE, INCONCLUSIVE)
BIAS_NOTE = "empirical fraction over equations, not isomorphism classes"
# equations screened together by one smoothness_gcd_degrees call, and valid
# curves counted together by one count_batch call
BATCH = 256


@dataclass(frozen=True)
class SurveyConfig:
    p: int
    genus: int
    degree: int
    limit: int | None = None

    def __post_init__(self):
        # first, so that no comparison below meets a str or a float; a bool
        # is refused too, as its header would spell it true
        family = (self.p, self.genus, self.degree)
        if any(type(v) is not int for v in family):
            raise BadDegrees(f"p, genus and degree must be ints, got {clip(family)}")
        if self.genus < 1:
            raise BadDegrees(f"genus must be >= 1, got {self.genus}")
        if self.degree not in (2 * self.genus + 1, 2 * self.genus + 2):
            raise BadDegrees(
                f"deg f = {self.degree} incompatible with genus {self.genus}"
            )
        if self.limit is not None and (type(self.limit) is not int or self.limit < 1):
            raise ValueError("limit must be a positive int when given")
        if 2 * self.genus > FACTOR_DEGREE_CAP:
            raise SizeExceeded(
                f"genus {self.genus}: Weil polynomials of degree {2 * self.genus} "
                f"exceed the factoring cap {FACTOR_DEGREE_CAP}"
            )
        gf.field_create(self.p, 1)  # NonPrime up front
        # the largest extension a survey touches: counting needs p^genus
        gf.field_create(self.p, self.genus)


def enumerate_equations(cfg: SurveyConfig):
    """(h, f) integer coefficient tuples in lexicographic order, low-to-high.

    Odd p fixes h = 0; p = 2 walks nonzero h of degree <= g+1 in the outer
    loop.  f is monic of exactly the configured degree.
    """
    yield from _equations(cfg, _prefixes(cfg))


def _prefixes(cfg: SurveyConfig):
    # the (h, (f0, f1)) prefixes in enumeration order; each heads one
    # contiguous run of p^(deg f - 2) equations
    rng = range(cfg.p)
    hs = [()]
    if cfg.p == 2:
        hs = filter(any, itertools.product(rng, repeat=cfg.genus + 2))
    for hv in hs:
        for head in itertools.product(rng, repeat=2):
            yield hv, head


def _equations(cfg: SurveyConfig, prefixes):
    # the runs of the given prefixes, in enumeration order
    for hv, head in prefixes:
        for tail in itertools.product(range(cfg.p), repeat=cfg.degree - 2):
            yield hv, head + tail + (1,)


def _leading_slab(cfg: SurveyConfig):
    # (n, equations): n = p^(deg f - 2) counts the family's first run, which
    # is never built, and equations is the rest of the family in enumeration
    # order.  That run's prefix is (h, 0, 0) with h0 = h1 = 0 (h = 0 for odd
    # p, x^(g+1) for p = 2), so (0, 0) is a singular point of each of its
    # equations: for odd p, x^2 | f; for p = 2, f0 = 0 and both partials, h0
    # and h1 y - f1, vanish there.  The run lies before every curve, so no
    # limit cuts it
    prefixes = _prefixes(cfg)
    next(prefixes)
    return cfg.p ** (cfg.degree - 2), _equations(cfg, prefixes)


def curve_record(C) -> dict:
    """Run counts -> Weil polynomial -> verdict on a validated curve."""
    t0 = time.perf_counter()
    counts = counts_up_to_genus(C)
    count_s = time.perf_counter() - t0
    members, zeta_s, classify_s = _content(counts)
    return {
        "curve": curve_to_text(C),
        **members,
        "timing": {"count_s": count_s, "zeta_s": zeta_s, "classify_s": classify_s},
    }


def _content(counts: PointCounts):
    # the counts, weil and verdict members of a record with these counts,
    # and the times weil_from_counts and classify took
    t0 = time.perf_counter()
    P = weil_from_counts(counts)
    t1 = time.perf_counter()
    v = classify(P)
    t2 = time.perf_counter()
    members = {
        "counts": {"q": counts.q, "g": counts.g, "counts": list(counts.counts)},
        "weil": weil_to_json(P),
        "verdict": verdict_to_json(v),
    }
    return members, t1 - t0, t2 - t1


@functools.lru_cache(maxsize=CLASSIFY_CACHE_SIZE)
def _record_tail(q: int, g: int, counts: tuple[int, ...]):
    # the encoded members of every record with these counts (json.dumps of
    # _content's dict, braces cut off), its verdict kind, the zeta_s and
    # classify_s of the encoding, and the perf_counter reading that ends it.
    # PointCounts' Weil-bound check raises on a miss; errors are not cached
    members, zeta_s, classify_s = _content(PointCounts(q=q, g=g, counts=counts))
    text = _members_text(members)
    return text, members["verdict"]["kind"], zeta_s, classify_s, time.perf_counter()


def _members_text(members: dict) -> str:
    # the members as json.dumps(record, separators=(",", ":")) writes them
    return json.dumps(members, separators=(",", ":"))[1:-1]


# a record as json.dumps(record, separators=(",", ":")) writes it, with the
# curve encoded as json.dumps encodes a string and each time as its repr
_LINE = '{"curve":%s,%s,"timing":{"count_s":%s,"zeta_s":%r,"classify_s":%r}}\n'


def _read_survey(data: bytes):
    """Parse survey-file bytes into (header, records, keep).

    header is the header object, or None when line 1 is a record; records
    are the record objects; keep is the byte length of the prefix made of
    whole lines.  A half-written last line, with or without its newline, is
    left out of keep without raising.  The header, or in a headerless file
    the first record, fixes the family (field, genus, deg f).  Raises
    CorruptRecord with the 1-based line for an unreadable line before the
    last, a header whose members are not format, p, genus and degree, in
    that order, or whose family SurveyConfig refuses (a p, genus or degree
    that is not a JSON integer among them), a record that is not an object
    with a string curve, a curve that does not parse, is not spelled as
    equation_text spells it, is no equation enumerate_equations yields, or
    repeats an earlier line, a record whose members are not curve, counts,
    weil, verdict and timing, in that order, or whose counts, weil and
    verdict members are not those its writer encodes for its counts, a
    record from another family, or a singular equation.  Smoothness is
    decided BATCH records at a time, so a singular key is found once its
    block is read: a later line of that block may fail another rule first.
    """
    header = family = None
    records = []
    seen: dict[str, int] = {}
    rows = []  # (line, h, f) of the records since the last smoothness pass
    keep = 0
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        end = keep + len(raw) + 1
        if end > len(data):
            break  # no newline: empty tail or half-written last line
        try:
            obj = json.loads(raw)
        except ValueError:
            if end == len(data):
                break  # half-written last line that still got its newline
            raise CorruptRecord(f"line {lineno} is not JSON", line=lineno) from None
        if lineno == 1 and isinstance(obj, dict) and "format" in obj:
            header = obj
            members = ["format", "p", "genus", "degree"]
            if list(obj) != members:
                raise CorruptRecord(
                    f"line 1: the header has the members {list(obj)}, not {members}",
                    line=1,
                )
            family = tuple(obj[k] for k in members[1:])
            try:
                SurveyConfig(*family)
            except FrobtorusError as bad:
                raise CorruptRecord(
                    f"line 1: the header's family {clip(family)} is no survey's: {bad}",
                    line=1,
                ) from None
        else:
            if not isinstance(obj, dict) or not isinstance(obj.get("curve"), str):
                raise CorruptRecord(
                    f"line {lineno} is not a record with a curve key", line=lineno
                )
            first = seen.setdefault(obj["curve"], lineno)
            if first != lineno:
                raise CorruptRecord(
                    f"line {lineno} repeats the curve of line {first}", line=lineno
                )
            own, h, f = _record_family(obj, lineno)
            family = family or own
            if own != family:
                raise CorruptRecord(
                    f"line {lineno} is from family {own!r}, not {family!r}", line=lineno
                )
            records.append(obj)
            rows.append((lineno, h, f))
            if len(rows) == BATCH:
                _refuse_singular(family, rows)
                rows = []
        keep = end
    _refuse_singular(family, rows)
    return header, records, keep


def _refuse_singular(family: tuple, rows: list) -> None:
    # raise CorruptRecord for the first of the rows, (line, h, f) of records
    # of one family, whose equation is singular: one smoothness_gcd_degrees
    # call decides them all, h zero-padded to the g + 2 columns of p = 2
    if not rows:
        return
    p, g = family[0], family[1]
    h = np.array([hv + [0] * (g + 2 - len(hv)) for _, hv, _ in rows], dtype=np.int64)
    f = np.array([fv for _, _, fv in rows], dtype=np.int64)
    for (lineno, _, _), degree in zip(rows, smoothness_gcd_degrees(p, h, f).tolist()):
        if degree > 0:
            raise CorruptRecord(f"line {lineno}: its curve is singular", line=lineno)


def _record_family(obj: dict, lineno: int) -> tuple:
    # (q, genus, deg f) of the curve key, read by the curve-text parser, and
    # the key's h and f code lists: the key must be its parse's canonical
    # text (one key per curve) and an equation enumerate_equations yields,
    # and the record what a survey writes for it: the writer's members in
    # its order, the counts, weil and verdict encoded as _record_tail
    # encodes those of its counts at the key's q and genus, and a timing
    # whose values are not checked
    try:
        spec, h, f = parse_curve_text(obj["curve"])
    except (ParseError, SizeExceeded) as bad:
        raise CorruptRecord(f"line {lineno}: {bad}", line=lineno) from None
    if obj["curve"] != equation_text(spec, h, f):
        raise CorruptRecord(
            f"line {lineno} spells its curve {obj['curve']!r}, not "
            f"{equation_text(spec, h, f)!r}",
            line=lineno,
        )
    genus = genus_for_degree(len(f) - 1)
    h_ok = 0 < len(h) <= genus + 2 if spec.p == 2 else not h
    if spec.k != 1 or f[-1] != 1 or not h_ok:
        raise CorruptRecord(f"line {lineno} holds no survey's equation", line=lineno)
    members = ["curve", "counts", "weil", "verdict", "timing"]
    if list(obj) != members:
        raise CorruptRecord(
            f"line {lineno} has the members {list(obj)}, not {members}", line=lineno
        )
    try:
        counts = tuple(map(decode_int, decode_array(obj["counts"], "counts")))
        tail = _record_tail(spec.q, genus, counts)[0]
    except (KeyError, TypeError, FrobtorusError) as bad:
        raise CorruptRecord(
            f"line {lineno}: its counts member gives no record: {bad}", line=lineno
        ) from None
    stored = {m: obj[m] for m in ("counts", "weil", "verdict")}
    if _members_text(stored) != tail:
        written = json.loads("{%s}" % tail)
        member = next(
            m for m in stored
            if _members_text({m: stored[m]}) != _members_text({m: written[m]})
        )
        raise CorruptRecord(
            f"line {lineno}: its {member} member is not what its counts give",
            line=lineno,
        )
    return (spec.q, genus, len(f) - 1), h, f


def _result_stream(cfg: SurveyConfig, equations, skip_keys: dict[str, object]):
    """Yield (key, record) per equation of equations, in their order: key
    is the equation's text, None when it is singular, and record the (JSONL
    line, verdict kind) of a new curve, None for a singular equation or a
    key in skip_keys.  run_survey and run_find pass the equations after the
    family's leading slab (_leading_slab), which they never screen.

    Each block of BATCH equations is decided by one smoothness_gcd_degrees
    call on its (h, f) arrays, the stream's only smoothness decision; no
    Singular is raised.  The rows of new curves are counted BATCH at a time
    (count_batch), and the equations up to the last curve of a batch are
    yielded after it is counted.  With cfg.limit, the stream ends at the
    limit-th valid curve, skipped keys included, so no batch holds a curve
    past it.
    """
    base = gf.field_create(cfg.p, 1)
    keys, rows = [], []  # the keys since the last batch; its (h, f) rows
    valid = 0
    while block := list(itertools.islice(equations, BATCH)):
        h, f = (np.array(a, dtype=np.int64) for a in zip(*block))
        degrees = smoothness_gcd_degrees(cfg.p, h, f).tolist()
        for (hv, fv), degree in zip(block, degrees):
            key = equation_text(base, hv, fv) if degree <= 0 else None
            keys.append(key)
            valid += key is not None
            if key is not None and key not in skip_keys:
                rows.append((hv, fv))
            if len(rows) == BATCH or valid == cfg.limit:
                yield from _counted(base, cfg.genus, keys, rows, skip_keys)
                keys, rows = [], []
                if valid == cfg.limit:
                    return
    yield from _counted(base, cfg.genus, keys, rows, skip_keys)


def _counted(base, g, keys, rows, skip_keys):
    # (key, record) for each key, record the (JSONL line, verdict kind) of a
    # new curve's counts.  Every record's count_s is its share of the
    # batch's count time; one whose tail an earlier record encoded (before
    # this lookup began) takes the lookup's own time as zeta_s and 0.0 as
    # classify_s
    t0 = time.perf_counter()
    codes = (np.array(a, dtype=np.int64) for a in zip(*rows))
    counts = map(tuple, count_batch(base, g, *codes) if rows else ())
    count_s = repr((time.perf_counter() - t0) / max(len(rows), 1))
    for key in keys:
        if key is None or key in skip_keys:
            yield key, None
            continue
        t0 = time.perf_counter()
        tail, kind, *times, encoded = _record_tail(base.q, g, next(counts))
        if encoded < t0:
            times = time.perf_counter() - t0, 0.0
        line = _LINE % (encode_basestring_ascii(key), tail, count_s, *times)
        yield key, (line, kind)


def run_survey(cfg: SurveyConfig, out_path: str | None = None, stream=None) -> dict:
    """Full-enumeration survey; returns the summary dict.

    Records go to out_path (resumable JSONL) or to the stream (default
    stdout) when no path is given.
    """
    t_start = time.perf_counter()
    stored: dict[str, object] = {}
    if out_path is not None:
        try:
            with open(out_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        header, records, keep = _read_survey(data)
        if keep and header != _header(cfg):
            raise ResumeMismatch(
                f"existing file {out_path} holds a different survey "
                f"(header {header!r})"
            )
        for obj in records:
            stored[obj["curve"]] = obj["verdict"]["kind"]
        fh = open(out_path, "a", encoding="utf-8")
        fh.truncate(keep)
        if not keep:
            fh.write(_header_line(cfg))
            fh.flush()
    else:
        fh = stream if stream is not None else sys.stdout
        fh.write(_header_line(cfg))
    kinds = dict.fromkeys(KIND_ORDER, 0)
    slab, equations = _leading_slab(cfg)
    enumerated = singular = slab
    valid = 0
    try:
        for key, record in _result_stream(cfg, equations, stored):
            enumerated += 1
            if key is None:
                singular += 1
                continue
            if record is None:
                kind = stored[key]
            else:
                line, kind = record
                fh.write(line)
                fh.flush()
            valid += 1
            kinds[kind] += 1
    finally:
        if out_path is not None:
            fh.close()
    elapsed = time.perf_counter() - t_start
    return _summary(cfg, enumerated, valid, singular, kinds, elapsed)


def _header(cfg: SurveyConfig) -> dict:
    return {"format": FORMAT, "p": cfg.p, "genus": cfg.genus, "degree": cfg.degree}


def _header_line(cfg: SurveyConfig) -> str:
    return json.dumps(_header(cfg), separators=(",", ":")) + "\n"


def _summary(cfg, enumerated, valid, singular, kinds, elapsed) -> dict:
    frac = kinds[ABSOLUTELY_SIMPLE] / valid if valid else 0.0
    return {
        "format": FORMAT,
        "config": {
            "p": cfg.p,
            "genus": cfg.genus,
            "degree": cfg.degree,
            "limit": cfg.limit,
        },
        "enumerated": enumerated,
        "valid": valid,
        "singular_skipped": singular,
        "by_kind": {k: kinds[k] for k in KIND_ORDER},
        "absolutely_simple_fraction": frac,
        "note": BIAS_NOTE,
        "elapsed_s": elapsed,
    }


def run_find(cfg: SurveyConfig, count: int, stream=None) -> int:
    """Stream records of absolutely simple curves until count are found.

    Returns how many were found (may fall short if the family, or its
    first cfg.limit curves, holds fewer).
    """
    if count < 1:
        raise ValueError("find needs a positive count")
    fh = stream if stream is not None else sys.stdout
    found = 0
    _, equations = _leading_slab(cfg)
    for _, record in _result_stream(cfg, equations, {}):
        if record is None:
            continue
        line, kind = record
        if kind == ABSOLUTELY_SIMPLE:
            fh.write(line)
            found += 1
            if found >= count:
                break
    return found


def analyze_one(curve_text: str | None = None, weil_json=None) -> dict:
    """Single-input pipeline: a curve text, or a Weil polynomial JSON
    (object or string) to skip counting."""
    if (curve_text is None) == (weil_json is None):
        raise ValueError("provide exactly one of curve_text and weil_json")
    if curve_text is not None:
        C = curve_from_text(curve_text)
        return curve_record(C)
    if isinstance(weil_json, str):
        try:
            weil_json = json.loads(weil_json)
        except ValueError as bad:  # JSONDecodeError, or an over-long int literal
            raise ParseError(f"bad Weil polynomial JSON: {bad}") from None
    P = weil_from_json(weil_json)
    t0 = time.perf_counter()
    v = classify(P)
    t1 = time.perf_counter()
    return {
        "weil": weil_to_json(P),
        "verdict": verdict_to_json(v),
        "weil_check": {"ok": is_weil(P)},
        "timing": {"classify_s": t1 - t0},
    }


def report(path: str) -> dict:
    """Aggregate the records of a survey file, each checked as it is read.

    Raises CorruptRecord (with the offending line number) when a line is
    torn, the header has another format, or a line breaks one of the
    reader's rules (_read_survey): among them, a record must be what a
    survey writes for its curve, byte for byte up to its timing.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, records, keep = _read_survey(data)
    if keep < len(data):
        lineno = data.count(b"\n", 0, keep) + 1
        raise CorruptRecord(f"line {lineno} is torn", line=lineno)
    if header is not None and header["format"] != FORMAT:
        raise CorruptRecord(f"unknown format {header['format']!r}", line=1)
    kinds = dict.fromkeys(KIND_ORDER, 0)
    for obj in records:
        kinds[obj["verdict"]["kind"]] += 1
    frac = kinds[ABSOLUTELY_SIMPLE] / len(records) if records else 0.0
    return {
        "records": len(records),
        "by_kind": {k: kinds[k] for k in KIND_ORDER},
        "absolutely_simple_fraction": frac,
        "verified": True,
        "note": BIAS_NOTE,
    }
