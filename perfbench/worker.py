"""One timed repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

A fresh process per repetition keeps caches that an earlier repetition
filled (for example a verdict cache keyed by the Weil polynomial) from
making a fake gain; what the program warms at start shows in setup time.
The job names the workload, its inputs and whether to trace; the result
carries outputs for the gate, per-item latencies and, when traced, the
per-layer metrics.
"""

import json
import os
import resource
import sys
import time

from probe import ROUNDS

# requests to run.py go out on the original stdout and answers come back on
# stdin; the program's own prints go to /dev/null
_requests = sys.stdout
sys.stdout = open(os.devnull, "w", encoding="utf-8")


def probe(rounds: int = ROUNDS) -> float:
    """The CPU probe's time now (probe.py), run by the parent process while
    this one waits, so nothing the program left in this process can reach it."""
    _requests.write(f"{rounds}\n")
    _requests.flush()
    return float(sys.stdin.readline())


class StampedStream:
    """File sink for run_survey that stamps each write: the gaps between a
    survey's record writes are its per-curve times."""

    def __init__(self, fh):
        self.fh = fh
        self.stamps: list[float] = []
        self.bytes = 0

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter())
        self.bytes += len(text.encode())
        return self.fh.write(text)

    def flush(self) -> None:
        self.fh.flush()


# Each runner returns "items_s", the times of the run's units of work, in
# the same order on every repetition, and "item_curves", the valid curves
# each unit produced.


def run_survey_job(ft, job) -> dict:
    # a survey's units are the gaps between [start] + its writes + [end]: the
    # gap before the header (the config and the survey's own set-up), one
    # gap per record, and the tail after the last record
    calls, items, item_curves, nbytes = [], [], [], 0
    for family, path in zip(job["families"], job["paths"]):
        with open(path, "w", encoding="utf-8") as fh:
            stream = StampedStream(fh)
            t0 = time.perf_counter()
            try:
                summary = ft.run_survey(ft.SurveyConfig(**family), stream=stream)
                error = None
            except Exception as exc:  # reported to the gate as a failed output
                summary, error = None, repr(exc)
            stamps = [t0] + stream.stamps + [time.perf_counter()]
        nbytes += stream.bytes
        items += [b - a for a, b in zip(stamps, stamps[1:])]
        item_curves += [0] + [1] * (len(stream.stamps) - 1) + [0]
        calls.append({"summary": summary, "error": error})
    ok = [c["summary"] for c in calls if c["summary"]]
    return {"calls": calls, "items_s": items, "item_curves": item_curves,
            "curves": sum(s["valid"] for s in ok),
            "equations": sum(s["enumerated"] for s in ok), "bytes_io": nbytes}


# analyze_mixed's ~10 s repetitions are long enough for the host's speed to
# change inside one, so a short probe runs after every block of curves and
# each curve is scaled by the probes on either side of its block
ANALYZE_BLOCK = 5
SHORT_PROBE_ROUNDS = 3


def run_analyze_job(ft, job) -> dict:
    records, items, item_probe = [], [], []
    curves = job["curves"]
    before = probe(SHORT_PROBE_ROUNDS)
    for start in range(0, len(curves), ANALYZE_BLOCK):
        block = []
        for text in curves[start:start + ANALYZE_BLOCK]:
            t0 = time.perf_counter()
            try:
                records.append(ft.analyze_one(curve_text=text))
            except Exception as exc:  # reported to the gate as a failed output
                records.append({"curve": text, "error": repr(exc)})
            block.append(time.perf_counter() - t0)
        after = probe(SHORT_PROBE_ROUNDS)
        items += block
        item_probe += [(before + after) / 2] * len(block)
        before = after
    n = len(curves)
    return {"records": records, "items_s": items, "item_curves": [1] * n,
            "item_probe_s": item_probe, "curves": n, "equations": n, "bytes_io": 0}


def run_report_job(ft, job) -> dict:
    calls, items, item_curves, nbytes = [], [], [], 0
    for path in job["paths"]:
        t0 = time.perf_counter()
        try:
            summary, error = ft.report(path), None
        except Exception as exc:  # reported to the gate as a failed output
            summary, error = None, repr(exc)
        items.append(time.perf_counter() - t0)
        item_curves.append(summary["records"] if summary else 0)
        nbytes += os.path.getsize(path)
        calls.append({"summary": summary, "error": error})
    return {"calls": calls, "items_s": items, "item_curves": item_curves,
            "curves": sum(item_curves), "equations": sum(item_curves),
            "bytes_io": nbytes}


def produce_job(ft, job) -> dict:
    """Set-up for report_p3: write the survey files that report replays."""
    summaries = []
    for family, path in zip(job["families"], job["paths"]):
        summaries.append(ft.run_survey(ft.SurveyConfig(**family), out_path=path))
    return {"summaries": summaries}


RUNNERS = {"survey": run_survey_job, "analyze": run_analyze_job,
           "report": run_report_job, "produce": produce_job}


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import frobtorus as ft

    for text in job.get("warm", ()):
        ft.analyze_one(curve_text=text)
    setup_s = time.monotonic() - job["spawned_at"]
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe_before = probe()
    t0 = time.perf_counter()
    result = RUNNERS[job["kind"]](ft, job)
    result["wall_s"] = time.perf_counter() - t0
    result["probe_s"] = (probe_before + probe()) / 2
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["setup_s"] = setup_s
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(job["trace_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
