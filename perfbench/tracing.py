"""Per-layer spans recorded from outside the program.

Each wrapper is installed on the module attribute that the caller looks up:
the program binds its collaborators with ``from ... import``, so wrapping
``frobtorus.curves.validate_curve`` alone would miss the survey's calls,
which go through ``frobtorus.survey.validate_curve``.

Spans live in memory as ``[name, start, end, parent]`` lists and are written
out once the run ends.  ``gf`` and ``_fpx`` get no spans: a span per field
element would cost more than the work it measures, so their time shows as
self time of ``curves.count`` and ``intpoly.factor``.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.classified: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def install(tracer: Tracer):
    """Wrap the program's layer boundaries; returns a function that undoes it."""
    import frobtorus
    from frobtorus import curves, intpoly, simplicity, survey

    saved = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def validate(fn):
        traced = tracer.wrap("curves.validate", fn)

        def call(*args, **kwargs):
            out = traced(*args, **kwargs)
            tracer.counters["curves.validate.valid"] += 1
            return out
        return call

    def count(fn):
        traced = tracer.wrap("curves.count", fn)

        def call(C):
            tracer.counters["curves.count.elements"] += sum(
                C.base.q ** i for i in range(1, C.genus + 1))
            return traced(C)
        return call

    def classify(fn):
        traced = tracer.wrap("simplicity.classify", fn)

        def call(P):
            tracer.classified.add((P.q, P.coeffs))
            return traced(P)
        return call

    def cyclotomic(fn):
        # ratio_torsion_orders asks for one cyclotomic polynomial per
        # divisibility test it makes
        def call(m):
            tracer.counters["simplicity.torsion_scan.tests"] += 1
            return fn(m)
        return call

    def witness(fn):
        traced = tracer.wrap("simplicity.witness", fn)

        def call(P, n):
            return traced(P, n) if n > 1 else fn(P, n)
        return call

    for attr in ("run_survey", "report", "analyze_one"):
        patch(frobtorus, attr, tracer.wrap("survey", getattr(frobtorus, attr)))
    for module in (survey, curves):
        patch(module, "validate_curve", validate(module.validate_curve))
    patch(survey, "counts_up_to_genus", count(survey.counts_up_to_genus))
    patch(survey, "weil_from_counts",
          tracer.wrap("zeta.weil", survey.weil_from_counts))
    for module in (survey, simplicity):
        patch(module, "classify", classify(module.classify))
    patch(survey, "verify_verdict",
          tracer.wrap("simplicity.verify", survey.verify_verdict))
    patch(simplicity, "ratio_torsion_orders",
          tracer.wrap("simplicity.torsion_scan", simplicity.ratio_torsion_orders))
    patch(simplicity, "cyclotomic", cyclotomic(simplicity.cyclotomic))
    patch(simplicity, "ratio_poly",
          tracer.wrap("simplicity.ratio", simplicity.ratio_poly))
    patch(simplicity, "charpoly_power", witness(simplicity.charpoly_power))
    patch(simplicity, "factor", tracer.wrap("intpoly.factor", simplicity.factor))
    patch(simplicity, "resultant_y",
          tracer.wrap("intpoly.resultant_y", simplicity.resultant_y))
    patch(intpoly, "resultant", tracer.wrap("intpoly.resultant", intpoly.resultant))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return undo


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[idx]):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


LAYERS = (
    "survey", "curves.validate", "curves.count", "zeta.weil",
    "simplicity.classify", "simplicity.ratio", "simplicity.torsion_scan",
    "simplicity.witness", "simplicity.verify", "intpoly.factor",
    "intpoly.resultant_y", "intpoly.resultant",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time and call count per layer, plus the counters and ratios."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span[0]] += own
        calls[span[0]] += 1
    out = {f"{name}.self_s": self_s[name] for name in LAYERS}
    out.update({f"{name}.calls": calls[name] for name in LAYERS})
    validated = calls["curves.validate"]
    out["curves.validate.valid_ratio"] = (
        tracer.counters["curves.validate.valid"] / validated if validated else 0.0)
    elements = tracer.counters["curves.count.elements"]
    out["curves.count.elements"] = elements
    out["curves.count.us_per_element"] = (
        1e6 * self_s["curves.count"] / elements if elements else 0.0)
    classified = calls["simplicity.classify"]
    out["simplicity.classify.distinct_ratio"] = (
        len(tracer.classified) / classified if classified else 0.0)
    out["simplicity.torsion_scan.tests"] = tracer.counters["simplicity.torsion_scan.tests"]
    return out
