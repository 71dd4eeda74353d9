"""Curve-family surveys: enumerate equations, decide their smoothness and
count their curves a block at a time, classify each curve, persist JSONL
records, and aggregate verdict fractions.

Enumeration walks (h, f0, f1) prefixes, each the head of one contiguous
run of p^(deg f - 2) equations.  The first prefix, (h, 0, 0) with h0 =
h1 = 0, makes (0, 0) a singular point of every equation of its run, so
that run is a slab: it is counted as singular in one step and never
built, and singular_skipped and enumerated are exact integers however
large p^deg is.  The other equations travel as coefficient rows, never as
curve objects: a block's (h, f) int64 arrays go to one
smoothness_gcd_degrees call, the rows of its curves to one count_batch
call, and a curve's equation text is built once, as its record's curve.
A block's singular equations are only a count: enumerated less valid.

Persistence is append-only JSONL with a config fingerprint header.  A
record is {"curve":...,<tail>}, the bytes of json.dumps(record,
separators=(",", ":")), in enumeration order, so identical inputs give
identical files.  Its tail, the counts, weil and verdict members, is a
function of its counts vector alone, encoded once per vector (an LRU of
CLASSIFY_CACHE_SIZE tails keyed on (q, g, counts)).  A survey file is what
the survey writes: report and resume re-derive it, comparing each line the
header's survey (or, without a header, find) writes with the file's next
line, byte for byte (_Replay); resume then appends, after truncating a
partial trailing line from a kill mid-write.

Surveys count equations, not isomorphism classes; summaries carry that bias
note and label results as empirical fractions.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import gf
from .curves import (
    PointCounts,
    count_batch,
    counts_up_to_genus,
    curve_to_text,
    equation_text,
    genus_for_degree,
    parse_curve_text,
    smoothness_gcd_degrees,
    validate_curve,
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
from .zeta import is_weil, weil_from_counts, weil_from_json, weil_to_json

FORMAT = "frobtorus-survey-v2"
KIND_ORDER = (ABSOLUTELY_SIMPLE, NOT_SIMPLE, NOT_ABSOLUTELY_SIMPLE, INCONCLUSIVE)
BIAS_NOTE = "empirical fraction over equations, not isomorphism classes"
# equations per screened block: one smoothness_gcd_degrees call decides
# them, and one count_batch call counts the block's curves
BATCH = 256


@dataclasses.dataclass(frozen=True)
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
    # the tail of every record with these counts (json.dumps of _content's
    # dict, braces cut off) and its kind; PointCounts' errors are not cached
    members, *_ = _content(PointCounts(q=q, g=g, counts=counts))
    return json.dumps(members, separators=(",", ":"))[1:-1], members["verdict"]["kind"]


def _read_survey(data: bytes):
    """Split survey-file bytes into (header, lines, keep): the header
    object (None when line 1 is none), the whole lines, newlines cut off,
    and their byte length.  A last line without its newline is torn, since
    the writer ends each line with one, and is left out; a whole line is
    kept whatever it holds.  Only line 1 is decoded.  Raises CorruptRecord
    (line 1) for a header whose members are not format, p, genus and
    degree, in that order, or whose family SurveyConfig refuses.
    """
    lines = data.split(b"\n")
    keep = len(data) - len(lines.pop())  # no newline: empty or half-written
    try:
        header = json.loads(lines[0]) if lines else None
    except ValueError:
        header = None
    if not (isinstance(header, dict) and "format" in header):
        return None, lines, keep
    members = ["format", "p", "genus", "degree"]
    if list(header) != members:
        raise CorruptRecord(
            f"line 1: the header has the members {list(header)}, not {members}", line=1
        )
    family = tuple(header[k] for k in members[1:])
    try:
        SurveyConfig(*family)
    except FrobtorusError as bad:
        raise CorruptRecord(
            f"line 1: the header's family {clip(family)} is no survey's: {bad}", line=1
        ) from None
    return header, lines, keep


class _Replay:
    """A stream for the writer that holds it to a file's whole lines, byte
    for byte; a line past them goes to out once the file is cut to keep."""

    def __init__(self, lines: list[bytes], out=None, keep: int | None = None):
        self.lines, self.out, self.keep, self.matched = lines, out, keep, 0

    def write(self, line: str) -> None:
        if self.matched == len(self.lines):
            self.close()
            self.out.write(line)
            self.out.flush()
            return
        stored = self.lines[self.matched]
        self.matched = n = self.matched + 1
        if stored != line[:-1].encode():
            at = len(os.path.commonprefix([stored, line.encode()]))
            raise CorruptRecord(
                f"line {n} is not what the survey writes: from byte {at + 1}, "
                f"it writes {clip(line[at:])}",
                line=n,
            )

    def close(self) -> None:  # refuse a line the writer did not reach
        if self.matched < len(self.lines):
            n = self.matched + 1
            raise CorruptRecord(f"line {n} lies past its family's end", line=n)
        if self.keep is not None:
            self.out.truncate(self.keep)
            self.keep = None


def _rederive(header, lines: list[bytes]) -> dict:
    # the kind counts of a file's whole lines, which must be what the
    # header's survey writes, limited to their records, or else what find
    # writes for the family of the first key, with deg f = 2g+1
    records = len(lines) - (header is not None)
    kinds = dict.fromkeys(KIND_ORDER, 0)
    sink = _Replay(lines)
    if header is not None:
        cfg = SurveyConfig(header["p"], header["genus"], header["degree"],
                           limit=records or None)
        if records:
            kinds = run_survey(cfg, stream=sink)["by_kind"]
        else:
            sink.write(_header_line(cfg))
    elif lines:
        try:  # the family is only read off line 1; the compare decides
            spec, _, f = parse_curve_text(str(json.loads(lines[0])["curve"]))
            genus = genus_for_degree(len(f) - 1)
            cfg = SurveyConfig(spec.p, genus, 2 * genus + 1)
        except (ValueError, LookupError, TypeError, FrobtorusError):
            raise CorruptRecord("line 1 is no header and no record", line=1) from None
        kinds[ABSOLUTELY_SIMPLE] = run_find(cfg, records, stream=sink)
    sink.close()
    return kinds


def _result_stream(cfg: SurveyConfig):
    """Yield one (equations, records) pair per block of the family, in
    enumeration order: the block's number of equations, and an iterator
    of the (JSONL line, verdict kind) of each of its curves, whose counting
    waits for its first read.  The first block is the leading slab
    (_leading_slab), p^(deg f - 2) equations and no record.

    Each later block of BATCH equations is decided by one
    smoothness_gcd_degrees call on its (h, f) arrays, the stream's only
    smoothness decision (no Singular is raised), and its curves are
    counted by one count_batch call on their rows.  With cfg.limit, the
    block that holds the limit-th curve ends at that curve's equation, and
    so does the stream.
    """
    base = gf.field_create(cfg.p, 1)
    slab, equations = _leading_slab(cfg)
    yield slab, ()
    valid = 0
    while block := list(itertools.islice(equations, BATCH)):
        h, f = (np.array(a, dtype=np.int64) for a in zip(*block))
        smooth = np.flatnonzero(smoothness_gcd_degrees(cfg.p, h, f) <= 0)
        n = len(block)
        if cfg.limit is not None and len(smooth) >= cfg.limit - valid:
            smooth = smooth[:cfg.limit - valid]
            n = int(smooth[-1]) + 1
        valid += len(smooth)
        keys = [equation_text(base, *block[i]) for i in smooth]
        yield n, _counted(base, cfg.genus, keys, h[smooth], f[smooth])
        if valid == cfg.limit:
            return


def _counted(base, g, keys, h, f):
    # the (JSONL line, verdict kind) of each curve of a block: keys are their
    # equation texts, and h and f their code rows
    if not keys:
        return
    for key, c in zip(keys, count_batch(base, g, h, f)):
        tail, kind = _record_tail(base.q, g, tuple(c))
        yield '{"curve":%s,%s}\n' % (encode_basestring_ascii(key), tail), kind


def run_survey(cfg: SurveyConfig, out_path: str | None = None, stream=None) -> dict:
    """Full-enumeration survey; returns the summary dict.

    Records go to out_path (resumable JSONL) or to the stream (default
    stdout) when no path is given.
    """
    if out_path is not None:
        return _resume(cfg, out_path)
    t_start = time.perf_counter()
    fh = stream if stream is not None else sys.stdout
    fh.write(_header_line(cfg))
    kinds = dict.fromkeys(KIND_ORDER, 0)
    enumerated = valid = 0
    for n, records in _result_stream(cfg):
        enumerated += n
        for line, kind in records:
            fh.write(line)
            valid += 1
            kinds[kind] += 1
    return {
        "format": FORMAT,
        "config": dataclasses.asdict(cfg),
        "enumerated": enumerated,
        "valid": valid,
        "singular_skipped": enumerated - valid,
        "by_kind": kinds,
        "absolutely_simple_fraction": kinds[ABSOLUTELY_SIMPLE] / max(valid, 1),
        "note": BIAS_NOTE,
        "elapsed_s": time.perf_counter() - t_start,
    }


def _resume(cfg: SurveyConfig, out_path: str) -> dict:
    # re-derive the file's whole lines as report does, then append
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    header, lines, keep = _read_survey(data)
    if header is None and lines:
        _rederive(None, lines)  # a line that find does not write is corrupt
    if keep and lines[0] != _header_line(cfg)[:-1].encode():
        raise ResumeMismatch(
            f"existing file {out_path} holds a different survey (header {header!r})"
        )
    if cfg.limit is not None and len(lines) - 1 > cfg.limit:
        _rederive(header, lines)  # the records past the limit, checked all the same
        del lines[cfg.limit + 1:]
    with open(out_path, "a", encoding="utf-8") as fh:
        sink = _Replay(lines, fh, keep)
        summary = run_survey(cfg, stream=sink)
        sink.close()
    return summary


def _header_line(cfg: SurveyConfig) -> str:
    header = {"format": FORMAT, "p": cfg.p, "genus": cfg.genus, "degree": cfg.degree}
    return json.dumps(header, separators=(",", ":")) + "\n"


def run_find(cfg: SurveyConfig, count: int, stream=None) -> int:
    """Stream records of absolutely simple curves until count are found.

    Returns how many were found (may fall short if the family, or its
    first cfg.limit curves, holds fewer).
    """
    if count < 1:
        raise ValueError("find needs a positive count")
    fh = stream if stream is not None else sys.stdout
    records = itertools.chain.from_iterable(r for _, r in _result_stream(cfg))
    hits = (line for line, kind in records if kind == ABSOLUTELY_SIMPLE)
    found = 0
    for line in itertools.islice(hits, count):
        fh.write(line)
        found += 1
    return found


def analyze_one(curve_text: str | None = None, weil_json=None) -> dict:
    """Single-input pipeline: a curve text, or a Weil polynomial JSON
    (object or string) to skip counting."""
    if (curve_text is None) == (weil_json is None):
        raise ValueError("provide exactly one of curve_text and weil_json")
    if curve_text is not None:
        spec, h, f = parse_curve_text(curve_text)
        g = genus_for_degree(len(f) - 1)
        if 2 * g > FACTOR_DEGREE_CAP:  # before validation, quadratic in deg f
            raise SizeExceeded(
                f"degree 2g = {2 * g} exceeds the factoring cap {FACTOR_DEGREE_CAP}"
            )
        return curve_record(validate_curve(spec, h, f, g))
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
    """Aggregate the records of a survey file, checked by re-deriving it.

    The file must be what a survey writes, byte for byte (_Replay): the
    lines run_survey of the header's family writes, with limit the file's
    record count, or for a headerless file, run_find's for the family of
    its first key.  Raises CorruptRecord (with the offending line number)
    at the first line that differs or lies past the family's end, for a
    header that _read_survey refuses or whose format is another, and for a
    torn last line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, lines, keep = _read_survey(data)
    if header is not None and header["format"] != FORMAT:
        raise CorruptRecord(f"unknown format {header['format']!r}", line=1)
    kinds = _rederive(header, lines)
    if keep < len(data):
        lineno = len(lines) + 1
        raise CorruptRecord(f"line {lineno} is torn", line=lineno)
    records = sum(kinds.values())
    frac = kinds[ABSOLUTELY_SIMPLE] / records if records else 0.0
    return {
        "records": records,
        "by_kind": {k: kinds[k] for k in KIND_ORDER},
        "absolutely_simple_fraction": frac,
        "verified": True,
        "note": BIAS_NOTE,
    }
