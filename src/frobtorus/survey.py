"""Curve-family surveys: enumerate equations, count the valid curves in
batches, classify each curve, persist JSONL records, and aggregate verdict
fractions.

Persistence is append-only JSONL with a config fingerprint header.  One
reader serves both resume and report: an interrupted run resumes by skipping
the keys already present (a partial trailing line from a kill mid-write is
truncated), and neither accepts a repeated curve or a record from another
family.  Output order is enumeration order, keeping files byte-identical
across runs up to the timing field.

Surveys count equations, not isomorphism classes; summaries carry that bias
note and label results as empirical fractions.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from dataclasses import dataclass

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
    validate_curve,
)
from .errors import (
    BadDegrees,
    CorruptRecord,
    FrobtorusError,
    ParseError,
    ResumeMismatch,
    Singular,
    SizeExceeded,
)
from .intpoly import FACTOR_DEGREE_CAP
from .simplicity import (
    ABSOLUTELY_SIMPLE,
    INCONCLUSIVE,
    NOT_ABSOLUTELY_SIMPLE,
    NOT_SIMPLE,
    classify,
    verdict_from_json,
    verdict_to_json,
    verify_verdict,
)
from .zeta import decode_array, decode_int, is_weil, weil_from_counts
from .zeta import weil_from_json, weil_to_json

FORMAT = "frobtorus-survey-v1"
KIND_ORDER = (ABSOLUTELY_SIMPLE, NOT_SIMPLE, NOT_ABSOLUTELY_SIMPLE, INCONCLUSIVE)
BIAS_NOTE = "empirical fraction over equations, not isomorphism classes"
# valid curves counted together by one count_batch call
BATCH = 256


@dataclass(frozen=True)
class SurveyConfig:
    p: int
    genus: int
    degree: int
    limit: int | None = None

    def __post_init__(self):
        if self.genus < 1:
            raise BadDegrees(f"genus must be >= 1, got {self.genus}")
        if self.degree not in (2 * self.genus + 1, 2 * self.genus + 2):
            raise BadDegrees(
                f"deg f = {self.degree} incompatible with genus {self.genus}"
            )
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive when given")
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
    rng = range(cfg.p)
    if cfg.p != 2:
        for lows in itertools.product(rng, repeat=cfg.degree):
            yield (), lows + (1,)
    else:
        for hv in itertools.product(rng, repeat=cfg.genus + 2):
            if not any(hv):
                continue
            for lows in itertools.product(rng, repeat=cfg.degree):
                yield hv, lows + (1,)


def curve_record(C) -> dict:
    """Run counts -> Weil polynomial -> verdict on a validated curve."""
    t0 = time.perf_counter()
    counts = counts_up_to_genus(C)
    return _record(C, counts, time.perf_counter() - t0)


def _record(C, counts: PointCounts, count_s: float) -> dict:
    # the record of C from its counts; count_s is the time they took
    t1 = time.perf_counter()
    P = weil_from_counts(counts)
    t2 = time.perf_counter()
    v = classify(P)
    t3 = time.perf_counter()
    return {
        "curve": curve_to_text(C),
        "counts": {"q": counts.q, "g": counts.g, "counts": list(counts.counts)},
        "weil": weil_to_json(P),
        "verdict": verdict_to_json(v),
        "timing": {
            "count_s": count_s,
            "zeta_s": t2 - t1,
            "classify_s": t3 - t2,
        },
    }


def _read_survey(data: bytes):
    """Parse survey-file bytes into (header, records, keep).

    header is the header object, or None when line 1 is a record; records
    are (line, obj) pairs; keep is the byte length of the prefix made of
    whole lines.  A half-written last line, with or without its newline, is
    left out of keep without raising.  The header, or in a headerless file
    the first record, fixes the family (field, genus, deg f).  Raises
    CorruptRecord with the 1-based line for an unreadable line before the
    last, a record that is not an object with a string curve, a curve that
    does not parse, is not spelled as equation_text spells it, or repeats
    an earlier line, counts that contradict the record's curve, or a record
    from another family.
    """
    header = family = None
    records = []
    seen: dict[str, int] = {}
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
            family = (obj.get("p"), obj.get("genus"), obj.get("degree"))
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
            own = _record_family(obj, lineno)
            family = family or own
            if own != family:
                raise CorruptRecord(
                    "line {} is from family ({}, {}, {}), not ({}, {}, {})".format(
                        lineno, *own, *family
                    ),
                    line=lineno,
                )
            records.append((lineno, obj))
        keep = end
    return header, records, keep


def _record_family(obj: dict, lineno: int) -> tuple:
    # (q, genus, deg f) of the curve key, read by the curve-text parser; the
    # key must be the canonical text of its own parse, so one curve has one
    # key, and the record's counts must be over that field and of that genus
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
    counts = obj["counts"] if isinstance(obj.get("counts"), dict) else {}
    if (counts.get("q"), counts.get("g")) != (spec.q, genus):
        raise CorruptRecord(
            f"line {lineno} has counts that contradict its curve "
            f"(q = {spec.q}, genus {genus})",
            line=lineno,
        )
    return spec.q, genus, len(f) - 1


def _result_stream(cfg: SurveyConfig, skip_keys: dict[str, object], limit=None):
    """Yield ('skip', key, None) or ('new', key, record|None) in enumeration
    order; the record is None for a singular equation.  The key (the
    equation text) is built only to look up skip_keys, so a new equation's
    key is None when skip_keys is empty.

    Valid curves are counted BATCH at a time (count_batch), and the events
    up to the last curve of a batch are yielded after it is counted.  With
    a limit, the stream ends at the limit-th valid curve, skipped keys
    included, so no batch holds a curve past it.
    """
    base = gf.field_create(cfg.p, 1)
    key = None
    events, batch = [], []  # (tag, key, curve or None); the curves
    valid = 0
    for h, f in enumerate_equations(cfg):
        if skip_keys:
            key = equation_text(base, h, f)
        if key in skip_keys:
            events.append(("skip", key, None))
            valid += 1
        else:
            try:
                C = validate_curve(base, h, f, cfg.genus)
            except Singular:
                C = None
            else:
                batch.append(C)
                valid += 1
            events.append(("new", key, C))
        if len(batch) == BATCH or valid == limit:
            yield from _counted(events, batch)
            events, batch = [], []
            if valid == limit:
                return
    yield from _counted(events, batch)


def _counted(events, batch):
    # the events with each curve replaced by its record; every record's
    # count_s is its share of the batch's count time
    t0 = time.perf_counter()
    counts = iter(count_batch(batch) if batch else ())
    share = (time.perf_counter() - t0) / max(len(batch), 1)
    for tag, key, C in events:
        record = None
        if C is not None:
            ns = PointCounts(q=C.base.q, g=C.genus, counts=next(counts))
            record = _record(C, ns, share)
        yield tag, key, record


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
        for _, obj in records:
            verdict = obj.get("verdict")
            stored[obj["curve"]] = (
                verdict.get("kind") if isinstance(verdict, dict) else None
            )
        fh = open(out_path, "a", encoding="utf-8")
        fh.truncate(keep)
        if not keep:
            fh.write(_header_line(cfg))
            fh.flush()
    else:
        fh = stream if stream is not None else sys.stdout
        fh.write(_header_line(cfg))
    kinds = dict.fromkeys(KIND_ORDER, 0)
    enumerated = valid = singular = 0
    try:
        for tag, key, record in _result_stream(cfg, stored, cfg.limit):
            enumerated += 1
            if tag == "skip":
                kind = stored[key]
            elif record is None:
                singular += 1
                continue
            else:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                fh.flush()
                kind = record["verdict"]["kind"]
            valid += 1
            if kind in KIND_ORDER:
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

    Returns how many were found (may fall short if the family is exhausted).
    """
    if count < 1:
        raise ValueError("find needs a positive count")
    fh = stream if stream is not None else sys.stdout
    found = 0
    for tag, key, record in _result_stream(cfg, {}):
        if record is None:
            continue
        if record["verdict"]["kind"] == ABSOLUTELY_SIMPLE:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
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
        except json.JSONDecodeError as bad:
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
    """Re-verify every record in a survey file and aggregate.

    Raises CorruptRecord (with the offending line number) when a line is
    unreadable or torn, a curve repeats, a record is from another family,
    the header has another format, or a record fails its self-verification
    replay.
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
    for lineno, obj in records:
        try:
            _verify_record(obj)
        except FrobtorusError as bad:
            raise CorruptRecord(
                f"record at line {lineno} fails verification: {bad}", line=lineno
            ) from None
        kinds[obj["verdict"]["kind"]] += 1
    frac = kinds[ABSOLUTELY_SIMPLE] / len(records) if records else 0.0
    return {
        "records": len(records),
        "by_kind": {k: kinds[k] for k in KIND_ORDER},
        "absolutely_simple_fraction": frac,
        "verified": True,
        "note": BIAS_NOTE,
    }


def _verify_record(obj) -> None:
    if not isinstance(obj, dict):
        raise CorruptRecord("record is not an object")
    for fieldname in ("curve", "counts", "weil", "verdict", "timing"):
        if fieldname not in obj:
            raise CorruptRecord(f"record is missing {fieldname!r}")
    c = obj["counts"]
    try:
        counts = PointCounts(
            q=decode_int(c["q"]),
            g=decode_int(c["g"]),
            counts=tuple(map(decode_int, decode_array(c, "counts"))),
        )
    except (KeyError, TypeError):
        raise CorruptRecord("malformed counts") from None
    P = weil_from_counts(counts)
    stored = weil_from_json(obj["weil"])
    if stored != P:
        raise CorruptRecord("stored Weil polynomial does not match its counts")
    v = verdict_from_json(obj["verdict"])
    if not verify_verdict(P, v):
        raise CorruptRecord("verdict certificate does not replay")
