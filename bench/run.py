#!/usr/bin/env python3
"""Benchmark of shortloc: closed-loop job lists, end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload resolve --seed 1 --seconds 20 --trace 0

One client runs the workload's seeded job list, one job after another, in
this single process.  It repeats the whole list a fixed number of times
per ``--seconds``, and checks every answer after the timed loop.  With
``--trace 0`` it reports the end-to-end metrics, with times in reference
seconds (see ``Speedometer``); with ``--trace 1`` it runs the list once
untraced and once traced, and reports the per-layer metrics of the
traced pass.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import jobs as jobgen  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.perf_counter

#: Fresh processes that measure set-up, counting this one.
SETUP_SAMPLES = 3
#: The speed probe: a slice of PROBE_ITERATIONS Fraction additions,
#: pure-Python work of the kind the program does.  A SIGALRM timer runs it
#: every PROBE_EVERY_S of wall time, inside whatever job is running.  It
#: took REFERENCE_PROBE_S on the machine that defined the benchmark (2
#: cores, Python 3.11) in its fast phases.  Times are reported in
#: reference seconds: a span's wall seconds, less the probes run inside
#: it, times REFERENCE_PROBE_S over the mean time of the probes in and
#: next to the span.  A shared host whose speed swings by 2x, over
#: fractions of a second to minutes, slows the probe and the jobs alike
#: and so leaves the metrics alone.
PROBE_ITERATIONS = 125
PROBE_EVERY_S = 0.01
REFERENCE_PROBE_S = 0.0003
#: job_tail_s is the highest of these percentiles with enough samples beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10
#: Whole passes of each job list per 20 s of --seconds.  A pass takes
#: about 6.5 reference seconds on resolve, 9 on sweep and 11.5 on
#: ext-predicates; a run makes round(PASSES_PER_20S * --seconds / 20)
#: passes, so its work and sample count do not depend on how fast the
#: machine happens to be.
PASSES_PER_20S = {"resolve": 2, "sweep": 1, "ext-predicates": 2}
REFERENCES = os.path.join(BENCH_DIR, "references.json")
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mib": "MiB"}


def source_dir(root: str) -> str:
    """``root/src``, or exit with an error if it holds no shortloc sources."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "shortloc", "__init__.py")):
        raise SystemExit(f"error: no shortloc sources under {src}; "
                         "run from the root of a source checkout")
    return src


def import_shortloc(root: str):
    """Import shortloc from ``root/src``, and from nowhere else."""
    src = source_dir(root)
    sys.path.insert(0, src)
    import shortloc
    if not os.path.abspath(shortloc.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: shortloc was imported from {shortloc.__file__}, not {src}")
    return shortloc


def probe_slice() -> float:
    """Wall seconds of one fixed slice of Fraction arithmetic."""
    start = clock()
    total = Fraction(0)
    for i in range(1, PROBE_ITERATIONS):
        total += Fraction(1, i % 97 + 1)
    return clock() - start


class Speedometer:
    """Samples the machine's speed with a timer while it is entered."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        duration = probe_slice()
        self.ends.append(clock())
        self.durations.append(duration)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the wall span [start, end] of the entered time.

        A probe runs between two bytecodes, so each one lies wholly
        inside the span or wholly outside it.
        """
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_right(self.ends, end)
        own = end - start - sum(self.durations[first:last])
        near = self.durations[max(first - 1, 0):last + 1]
        return own * REFERENCE_PROBE_S / statistics.fmean(near)


def timed_setup(root: str, job_list: list[dict]):
    """Import shortloc and build every job's inputs.

    Returns (sl, inputs, reference seconds, wall seconds).
    """
    with Speedometer() as meter:
        start = clock()
        sl = import_shortloc(root)
        inputs = workload.setup(sl, job_list)
        end = clock()
    return sl, inputs, meter.reference_s(start, end), end - start


def setup_probe(root: str, workload_name: str, seed: int) -> tuple[float, float]:
    """(reference, wall) seconds of set-up, measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170,
                          check=True)
    return tuple(float(x) for x in done.stdout.strip().splitlines()[-1].split())


def run_pass(sl, job_list: list[dict], inputs: dict, spans: list | None = None):
    """Run every job once, in order; returns (answers, wall latencies, errors).

    Each job's (start, end) on the wall clock is appended to ``spans`` if given.
    """
    answers, latencies, errors = {}, {}, {}
    for job in job_list:
        start = clock()
        try:
            answers[job["id"]] = workload.execute(sl, job, inputs[job["id"]])
        except Exception as exc:  # a job that raises is a failed job; the client goes on
            errors[job["id"]] = f"{type(exc).__name__}: {exc}"
        end = clock()
        latencies[job["id"]] = end - start
        if spans is not None:
            spans.append((start, end))
    return answers, latencies, errors


def check_pass(job_list, inputs, answers, errors, refs) -> dict[str, str]:
    """Every failed job of one pass, with the reason."""
    failures = dict(errors)
    for job in job_list:
        if job["id"] in answers:
            why = workload.check(job, answers[job["id"]], inputs[job["id"]], refs)
            if why:
                failures[job["id"]] = why
    for job_id in workload.check_fields_agree(job_list, answers):
        failures.setdefault(job_id, "F_p answer differs from the Q answer")
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with enough samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit(root: str):
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """SHA-256 over the package sources, which identifies the code outside a clone too."""
    pkg = os.path.join(root, "src", "shortloc")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(sl, root: str) -> dict:
    rational = sl.linalg.Rational
    return {"python": platform.python_version(),
            "rational": "mpq" if rational.__name__ == "mpq" else rational.__name__,
            "commit": git_commit(root),
            "src_sha256": source_digest(root),
            "nproc": len(os.sched_getaffinity(0))}


def load_references() -> dict:
    try:
        with open(REFERENCES) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def measure(root: str, name: str, seed: int, seconds: float) -> dict:
    """Untraced run: set-up samples, then whole passes for about ``seconds``."""
    job_list = jobgen.generate(name, seed)
    setups = [setup_probe(root, name, seed) for _ in range(SETUP_SAMPLES - 1)]
    sl, inputs, own_setup, own_setup_wall = timed_setup(root, job_list)
    setups.append((own_setup, own_setup_wall))

    passes = max(1, round(PASSES_PER_20S[name] * seconds / 20))
    spans: list[tuple[float, float]] = []
    with Speedometer() as meter:
        loop_start = clock()
        runs = [run_pass(sl, job_list, inputs, spans) for _ in range(passes)]
        loop_s = clock() - loop_start
    latencies = [meter.reference_s(start, end) for start, end in spans]

    refs = load_references()
    failures: dict[str, str] = {}
    failed = completed = 0
    for answers, _, errors in runs:
        bad = check_pass(job_list, inputs, answers, errors, refs)
        failed += len(bad)
        for job_id, why in bad.items():
            failures.setdefault(job_id, why)
        completed += len(answers)
    attempted = len(job_list) * len(runs)
    tail_p, tail_s = tail(latencies)
    values = {"setup_s": statistics.median(ref for ref, _ in setups),
              "jobs_per_s": completed / sum(latencies),
              "job_p50_s": statistics.median(latencies),
              "job_tail_s": tail_s,
              "peak_rss_mib": peak_rss_mib()}
    probes = meter.durations
    details = {"workload": name, "seed": seed, "passes": len(runs),
               "jobs_per_pass": len(job_list), "loop_wall_s": loop_s,
               "jobs_per_wall_s": completed / sum(end - start for start, end in spans),
               "setup_samples_s": [ref for ref, _ in setups],
               "setup_samples_wall_s": [wall for _, wall in setups],
               "tail_percentile": tail_p,
               "tail_samples": len(latencies), "failed_ratio": failed / attempted,
               "failures": dict(sorted(failures.items())[:20]),
               "speed_probe": {"reference_s": REFERENCE_PROBE_S, "samples": len(probes),
                               "min_s": min(probes), "median_s": statistics.median(probes),
                               "max_s": max(probes)},
               "environment": environment(sl, root)}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


def trace(root: str, name: str, seed: int) -> dict:
    """Traced run: one untraced pass, then set-up and one pass under the tracer.

    The work is one fixed pass, not a time budget, so that the counts
    repeat exactly from run to run.
    """
    job_list = jobgen.generate(name, seed)
    sl, inputs, _, _ = timed_setup(root, job_list)
    start = clock()
    plain = run_pass(sl, job_list, inputs)
    plain_s = clock() - start

    tracer = Tracer()
    with tracer:
        traced_inputs = workload.setup(sl, job_list)
        start = clock()
        traced = run_pass(sl, job_list, traced_inputs)
        traced_s = clock() - start

    refs = load_references()
    bad = check_pass(job_list, inputs, plain[0], plain[2], refs)
    bad_traced = check_pass(job_list, traced_inputs, traced[0], traced[2], refs)
    identical = json.dumps(plain[0], sort_keys=True) == json.dumps(traced[0], sort_keys=True)
    busy = {"field.q.busy_s": 0.0, "field.fp.busy_s": 0.0}
    for job in job_list:
        key = "field.q.busy_s" if job["field"] == 0 else "field.fp.busy_s"
        busy[key] += plain[1][job["id"]]
    metrics = tracer.metrics(busy)
    details = {"workload": name, "seed": seed, "jobs_per_pass": len(job_list),
               "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
               "trace_overhead": traced_s / plain_s,
               "answers_identical": identical,
               "failures": dict(sorted({**bad, **bad_traced}.items())[:20]),
               "counts": tracer.counts(),
               "environment": environment(sl, root)}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as fh:
        json.dump({"metrics": metrics, "details": details,
                   "job_spans": [{"id": job["id"], "field": job["field"],
                                  "untraced_s": plain[1][job["id"]],
                                  "traced_s": traced[1][job["id"]]} for job in job_list]},
                  fh, indent=1, sort_keys=True)
    failed = len(bad) + len(bad_traced)
    return {"correct": failed == 0 and identical, "attempted": 2 * len(job_list),
            "failed": failed, "metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    source_dir(root)

    if args.setup_probe:
        _, _, ref, wall = timed_setup(root, jobgen.generate(args.workload, args.seed))
        print(repr(ref), repr(wall))
        return 0

    if args.trace:
        result = trace(root, args.workload, args.seed)
    else:
        result = measure(root, args.workload, args.seed, args.seconds)
    for metric, entry in result["metrics"].items():
        print(f"{metric:48s} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"{'failed_ratio':48s} {result['details']['failed_ratio']:>14.6g} ratio")
    print(json.dumps({"details": result["details"]}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
