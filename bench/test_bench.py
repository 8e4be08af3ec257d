"""Tests of the benchmark itself: job generation, oracles and tracing fidelity.

Run from the repository root:

    python3 -m pytest bench -q

The tracing tests use the cheap jobs of each workload, so that they run
in seconds; they go through the same set-up, pass and tracer code as
``bench/run.py --trace 1``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import jobs as jobgen  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from tracer import LAYERS, Tracer, metric_names  # noqa: E402


@pytest.fixture(scope="module")
def sl():
    return run.import_shortloc(ROOT)


def cheap_jobs(name: str, seed: int = 5) -> list[dict]:
    """The jobs of a workload that take well under a second each."""
    job_list = jobgen.generate(name, seed)
    if name == "resolve":
        return [j for j in job_list
                if j["n"] <= 3 or j["alg"][0] in ("qexterior", "ex9_3", "lambda_c")]
    if name == "sweep":
        return job_list[:12]
    light = {"qexterior", "ex9_3", "ex8_3", "L"}
    return [j for j in job_list
            if j["kind"] in ("is_gp", "is_semi_gp", "is_inf_torsionfree", "is_torsionless",
                             "is_reflexive", "classify_complex")
            or (j["kind"] == "ext_dims" and j["alg"][0] in light)]


def traced_pass(sl, job_list):
    tracer = Tracer()
    with tracer:
        inputs = workload.setup(sl, job_list)
        answers, _, errors = run.run_pass(sl, job_list, inputs)
    return answers, errors, inputs, tracer


# -- generation ----------------------------------------------------------


@pytest.mark.parametrize("name", jobgen.WORKLOADS)
def test_same_seed_gives_byte_identical_job_list(name):
    assert jobgen.dumps(jobgen.generate(name, 11)) == jobgen.dumps(jobgen.generate(name, 11))


@pytest.mark.parametrize("name", ["resolve", "sweep"])
def test_another_seed_changes_the_seeded_modules(name):
    def seeded(seed):
        return [j["module"] for j in jobgen.generate(name, seed)
                if j["module"]["type"].startswith("random")]
    first, second = seeded(1), seeded(2)
    assert first and second and first != second


def test_job_lists_are_plain_data_made_without_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import jobs; "
            "[jobs.generate(w, 3) for w in jobs.WORKLOADS]; "
            "print(any(m.split('.')[0] == 'shortloc' for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, BENCH_DIR], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"
    for name in jobgen.WORKLOADS:
        job_list = jobgen.generate(name, 3)
        assert json.loads(jobgen.dumps(job_list)) == job_list


def test_every_reference_job_has_a_recorded_answer():
    refs = run.load_references()
    for seed in range(20):
        for name in jobgen.WORKLOADS:
            for job in jobgen.generate(name, seed):
                if job.get("oracle") == "reference":
                    assert jobgen.reference_key(job) in refs, job["id"]


# -- oracles -------------------------------------------------------------


def test_oracles_reject_wrong_answers(sl):
    refs = run.load_references()
    ladder = [j for j in jobgen.generate("resolve", 1) if isinstance(j["oracle"], dict)][0]
    right = {"betti": workload.b_sequence(*ladder["oracle"]["b_sequence"], ladder["n"])}
    assert workload.check(ladder, right, None, refs) is None
    wrong = {"betti": right["betti"][:-1] + [right["betti"][-1] + 1]}
    assert workload.check(ladder, wrong, None, refs)

    job = jobgen.generate("sweep", 1)[0]
    inputs = workload.setup(sl, [job])
    answers, _, errors = run.run_pass(sl, [job], inputs)
    answer = answers[job["id"]]
    assert not errors and workload.check(job, answer, inputs[job["id"]], refs) is None
    broken = dict(answer, omega_dv=[answer["omega_dv"][0] + 1, answer["omega_dv"][1]])
    assert workload.check(job, broken, inputs[job["id"]], refs)
    dim = answer["dim"]
    singular = [["0"] * dim for _ in range(dim)]
    assert workload.check(job, dict(answer, witness=singular), inputs[job["id"]], refs)


def test_fields_must_agree():
    job_list = [j for j in jobgen.generate("ext-predicates", 1) if j["kind"] == "is_gp"]
    answers = {j["id"]: {"holds": True, "bound": 10, "failed_at": None} for j in job_list}
    assert workload.check_fields_agree(job_list, answers) == []
    odd = next(j for j in job_list if j["field"] == jobgen.PRIME)
    answers[odd["id"]] = {"holds": False, "bound": 10, "failed_at": 1}
    assert workload.check_fields_agree(job_list, answers)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(k) for k in range(1, 41)]) == (75, 30.0)
    assert run.tail([float(k) for k in range(1, 1001)]) == (99, 990.0)


# -- tracing -------------------------------------------------------------


@pytest.mark.parametrize("name", jobgen.WORKLOADS)
def test_traced_answers_are_byte_identical_and_correct(sl, name):
    job_list = cheap_jobs(name)
    inputs = workload.setup(sl, job_list)
    plain, _, plain_errors = run.run_pass(sl, job_list, inputs)
    traced, traced_errors, traced_inputs, _ = traced_pass(sl, job_list)
    assert not plain_errors and not traced_errors
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)
    refs = run.load_references()
    assert run.check_pass(job_list, traced_inputs, traced, {}, refs) == {}


@pytest.mark.parametrize("name", jobgen.WORKLOADS)
def test_trace_counts_repeat_exactly(sl, name):
    job_list = cheap_jobs(name)
    first = traced_pass(sl, job_list)[3]
    second = traced_pass(sl, job_list)[3]
    assert first.counts() == second.counts()
    reported = first.metrics({"field.q.busy_s": 1.0, "field.fp.busy_s": 0.0})
    assert list(reported) == [metric for metric, _ in metric_names()]


def test_projective_cover_calls_equal_the_ladder_depths(sl):
    job_list = cheap_jobs("resolve")
    tracer = traced_pass(sl, job_list)[3]
    assert tracer.stats["homology.projective_cover"]["calls"] == sum(j["n"] for j in job_list)


def test_tracer_rebinds_every_copy_and_restores_them(sl):
    def traced_names():
        return {(mod.__name__, attr): value
                for mod in (m for n, m in sys.modules.items() if n.split(".")[0] == "shortloc")
                for attr, value in vars(mod).items()
                if getattr(value, "__module__", "").startswith("shortloc")}

    before = traced_names()
    originals = {sl.linalg.rref, sl.linalg.kernel_subspace, sl.modules.hom_space,
                 sl.homology.projective_cover, sl.presets.preset}
    with Tracer():
        during = traced_names()
        assert not originals & set(during.values())
        assert sl.homology.kernel_subspace is sl.linalg.kernel_subspace
        assert sl.homology.kernel_subspace.__wrapped__ in originals
        assert "__wrapped__" in vars(sl.Matrix.apply)
    assert traced_names() == before
    assert set(LAYERS) <= {metric.rsplit(".", 1)[0] for metric, _ in metric_names()}


def test_speedometer_takes_its_probes_out_of_a_span_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with run.Speedometer() as meter:
        start = run.clock()
        while run.clock() - start < 0.2:
            pass
        end = run.clock()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [k for k, t in enumerate(meter.ends) if start <= t <= end]
    assert len(inside) >= 5
    assert all(meter.ends[k] - meter.durations[k] >= start for k in inside)
    own = end - start - sum(meter.durations[k] for k in inside)
    near = meter.durations[inside[0] - 1:inside[-1] + 2]
    assert meter.reference_s(start, end) == pytest.approx(
        own * run.REFERENCE_PROBE_S / statistics.fmean(near))
