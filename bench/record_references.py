#!/usr/bin/env python3
"""Record the reference answers that the benchmark's oracles compare against.

Run from the root of a source checkout:

    python3 bench/record_references.py

It computes, over Q, every job whose oracle is ``"reference"``: the fixed
ladders and Ext/predicate jobs, and the Betti ladder of every module in
the seeded ``resolve`` pool, so that any seed finds its modules recorded.
The answers are written to ``bench/references.json``, keyed by
:func:`jobs.reference_key`.  Re-record only when a change is meant to
alter answers, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import jobs as jobgen  # noqa: E402
import workload  # noqa: E402
from run import REFERENCES, import_shortloc  # noqa: E402


def reference_jobs() -> list[dict]:
    out = []
    for name in ("resolve", "ext-predicates"):
        for job in jobgen.generate(name, 0):
            if job["oracle"] == "reference" and job["field"] == 0 \
                    and job["module"]["type"] != "random":
                out.append(job)
    for index in range(jobgen.RESOLVE_POOL):
        out.append(jobgen.betti_job(jobgen.C32, jobgen.resolve_pool_module(index),
                                    jobgen.RESOLVE_RANDOM_DEPTH, "reference"))
    for k, job in enumerate(out):
        job["id"] = f"reference/{k}"
    return out


def main() -> int:
    sl = import_shortloc(os.getcwd())
    job_list = reference_jobs()
    inputs = workload.setup(sl, job_list)
    refs = {}
    for job in job_list:
        refs[jobgen.reference_key(job)] = workload.execute(sl, job, inputs[job["id"]])
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}" for key in sorted(refs)]
    with open(REFERENCES, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(refs)} reference answers in {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
