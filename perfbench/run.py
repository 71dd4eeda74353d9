"""frobtorus benchmark: one workload, timed repetitions, correctness gate.

    python3 perfbench/run.py --workload survey_p3 --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each repetition runs in a fresh interpreter
(worker.py) with jobs=1 and repeats the same work.  Repetitions continue
until --seconds have passed, with a floor of two.  Times are scaled to a
reference speed by the CPU probe (probe.py), which this process runs when a
worker asks, around its work; the unscaled metrics are printed too.  Every
output is checked by gate.py.  Human-readable lines go to stdout first; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import (HERE, REPORT_FAMILIES, SURVEY_FAMILIES, WORKLOADS,
                       load_mixed_reference, mixed_inputs)
import gate as gates
import probe

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 120
# a unit's time is a median over repetitions; analyze_mixed runs its two
# ~10 s repetitions even when that overruns --seconds
MIN_REPS = 2

END_TO_END_UNITS = {
    "curves_per_s": "1/s", "equations_per_s": "1/s", "curve_ms_p50": "ms",
    "curve_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "survey.self_s": "s", "survey.bytes_io": "bytes",
    "curves.validate.calls": "count", "curves.validate.self_s": "s",
    "curves.validate.valid_ratio": "ratio",
    "curves.count.self_s": "s", "curves.count.elements": "count",
    "curves.count.us_per_element": "us",
    "zeta.weil.self_s": "s",
    "simplicity.classify.calls": "count", "simplicity.classify.self_s": "s",
    "simplicity.classify.distinct_ratio": "ratio",
    "simplicity.ratio.self_s": "s",
    "simplicity.torsion_scan.self_s": "s", "simplicity.torsion_scan.tests": "count",
    "simplicity.witness.calls": "count", "simplicity.witness.self_s": "s",
    "simplicity.verify.self_s": "s",
    "intpoly.factor.calls": "count", "intpoly.factor.self_s": "s",
    "intpoly.resultant_y.self_s": "s",
    "intpoly.resultant.calls": "count", "intpoly.resultant.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
        self.trace_out = os.path.join(ROOT, ".perfbench", f"trace-{workload}.jsonl")
        self.gate = gates.Gate()
        # report_p3's input production: (seconds, its speed scale)
        self.produce = (0.0, 1.0)

    def spawn(self, job: dict) -> dict | None:
        """Run one worker to completion, answering its probe requests; None
        if it failed or ran past WORKER_TIMEOUT_S."""
        tag = f"{job['kind']}-{len(os.listdir(self.work))}"
        job_path = os.path.join(self.work, f"{tag}.job.json")
        result_path = os.path.join(self.work, f"{tag}.result.json")
        job["spawned_at"] = time.monotonic()
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        proc = subprocess.Popen([sys.executable, WORKER, job_path, result_path],
                                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                proc.stdin.write(f"{probe.run(int(line))!r}\n")
                proc.stdin.flush()
        except (ValueError, BrokenPipeError):
            proc.kill()
        finally:
            timer.cancel()
            proc.stdin.close()  # a worker still waiting for an answer exits
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not os.path.exists(result_path):
            return None
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    # -- per-workload jobs and gates ---------------------------------------

    def setup(self) -> None:
        if self.workload in SURVEY_FAMILIES:
            self.families = SURVEY_FAMILIES[self.workload]
            self.refs = [gates.load_survey_reference(f) for f in self.families]
        elif self.workload == "analyze_mixed":
            ref = load_mixed_reference()
            self.pools = {f["field"]: [e["curve"] for e in f["pool"]] for f in ref["fields"]}
            self.mixed_ref = {e["curve"]: e for f in ref["fields"] for e in f["pool"]}
            self.warm = [f["warm"] for f in ref["fields"]]
            self.curves = mixed_inputs(self.pools, self.seed)
        else:
            self.produce_report_inputs()

    def produce_report_inputs(self) -> None:
        """Write report_p3's input files with the program under test, and
        gate them like survey_p3's output; the time counts as set-up."""
        self.families = REPORT_FAMILIES
        self.refs = [gates.load_survey_reference(f) for f in self.families]
        self.report_paths = [os.path.join(self.work, f"{gates.family_label(f)}.jsonl")
                             for f in self.families]
        out = self.spawn({"kind": "produce", "trace": False, "families": list(self.families),
                          "paths": self.report_paths})
        if out is None:
            self.gate.judge(["report input production failed"])
            return
        # start-up and writing, without the probes around the writing
        self.produce = (out["setup_s"] + out["wall_s"], scale(out))
        for path, summary, ref in zip(self.report_paths, out["summaries"], self.refs):
            self.gate.judge(gates.summary_problems(summary, ref["summary"]))
            self.gate.records(gates.read_survey_file(path)[1], ref["records"])

    def job(self, rep: int, traced: bool) -> dict:
        job = {"trace": traced, "trace_out": self.trace_out}
        if self.workload in SURVEY_FAMILIES:
            paths = [os.path.join(self.work, f"rep{rep}-{gates.family_label(f)}.jsonl")
                     for f in self.families]
            job.update(kind="survey", families=list(self.families), paths=paths)
        elif self.workload == "analyze_mixed":
            job.update(kind="analyze", curves=self.curves, warm=self.warm)
        else:
            job.update(kind="report", paths=self.report_paths)
        return job

    def check(self, job: dict, result: dict) -> None:
        if job["kind"] == "survey":
            for call, path, ref in zip(result["calls"], job["paths"], self.refs):
                if call["summary"] is None:
                    self.gate.judge([f"run_survey raised {call['error']}"])
                    continue
                self.gate.judge(gates.summary_problems(call["summary"], ref["summary"]))
                self.gate.records(gates.read_survey_file(path)[1], ref["records"])
                os.remove(path)
        elif job["kind"] == "analyze":
            for text, record in zip(job["curves"], result["records"]):
                if "error" in record:
                    self.gate.judge([f"{text}: analyze_one raised {record['error']}"])
                else:
                    self.gate.record(record, self.mixed_ref[text])
        else:
            for call, ref in zip(result["calls"], self.refs):
                if call["summary"] is None:
                    self.gate.judge([f"report raised {call['error']}"])
                else:
                    self.gate.judge(gates.report_problems(call["summary"], ref["summary"]))

    # -- the timed loop -----------------------------------------------------

    def run(self) -> tuple[list[dict], list[dict]]:
        """(untraced results, traced results) of the repetitions."""
        plain, traced, durations = [], [], []
        start = time.monotonic()
        rep = 0
        while True:
            with_trace = self.trace and rep % 2 == 1
            job = self.job(rep, with_trace)
            t0 = time.monotonic()
            result = self.spawn(job)
            durations.append(time.monotonic() - t0)
            if result is None:
                self.gate.judge([f"repetition {rep} failed"])
            else:
                self.check(job, result)
                (traced if with_trace else plain).append(result)
            rep += 1
            elapsed = time.monotonic() - start
            if rep >= MIN_REPS and elapsed + statistics.median(durations) > self.seconds:
                return plain, traced


def scale(result: dict) -> float:
    """Factor that takes a repetition's times to the probe's reference speed."""
    return probe.REFERENCE_S / result["probe_s"]


def item_times(result: dict, scaled: bool) -> list[float]:
    """A repetition's unit times; scaled, each is taken to the reference
    speed by the probes nearest to it."""
    if not scaled:
        return result["items_s"]
    probes = result.get("item_probe_s") or [result["probe_s"]] * len(result["items_s"])
    return [t * probe.REFERENCE_S / p for t, p in zip(result["items_s"], probes)]


def end_to_end(bench: Bench, results: list[dict], scaled: bool = True) -> dict[str, float]:
    # each unit of work is repeated in every repetition; its time is the
    # median over repetitions of its time
    times = [item_times(r, scaled) for r in results]
    n = min(len(s) for s in times)
    unit_s = [statistics.median(s[i] for s in times) for i in range(n)]
    per_curve_ms = [1e3 * t / c for t, c in zip(unit_s, results[0]["item_curves"]) if c]
    timed = sum(unit_s)
    speed = scale if scaled else lambda r: 1.0
    produce_s, produce_scale = bench.produce
    return {
        "curves_per_s": results[0]["curves"] / timed,
        "equations_per_s": results[0]["equations"] / timed,
        "curve_ms_p50": percentile(per_curve_ms, 0.5),
        "curve_ms_p90": percentile(per_curve_ms, 0.9),
        "setup_s": produce_s * (produce_scale if scaled else 1.0) + statistics.median(
            r["setup_s"] * speed(r) for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    for r in traced:
        r["layers"]["survey.bytes_io"] = r["bytes_io"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in PER_LAYER_UNITS if name in traced[0]["layers"]}
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_ratio"] = statistics.median(
        r["wall_s"] * scale(r) for r in traced) / statistics.median(
        r["wall_s"] * scale(r) for r in plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "frobtorus")):
        sys.exit(f"no program source at {SRC}")
    sys.path.insert(0, SRC)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(bench.work)
    try:
        bench.setup()
        plain, traced = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(plain, traced)
        units = PER_LAYER_UNITS
        print(f"{args.workload}: {len(traced)} traced and {len(plain)} untraced "
              f"repetitions; spans of the last traced one in {bench.trace_out}")
    else:
        values = end_to_end(bench, plain)
        units = END_TO_END_UNITS
        samples = sum(1 for c in plain[0]["item_curves"] if c)
        probe_s = statistics.median(r["probe_s"] for r in plain)
        print(f"{args.workload}: {len(plain)} repetitions, seed {args.seed}, "
              f"{samples} latency samples; times scaled by {probe.REFERENCE_S} s "
              f"over the probe's median {probe_s:.4f} s")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print("unscaled", json.dumps(end_to_end(bench, plain, scaled=False)))
    g = bench.gate
    print(f"  failed_fraction = {g.failed}/{g.attempted} = "
          f"{g.failed / max(g.attempted, 1):.6g}")
    for problem in g.problems[:20]:
        print(f"  gate: {problem}")
    print(json.dumps({
        "correct": g.failed == 0 and g.attempted > 0,
        "attempted": g.attempted,
        "failed": g.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
