"""CLI behaviour: exit codes, formats, determinism, golden files."""

import collections
import contextlib
import copy
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from shortloc import cli

_ONE_PER_FAMILY = [
    ("algebra", "info", "lambda_c"),
    ("algebra", "validate", "L:e=2"),
    ("algebra", "preset", "lambda_c"),
    ("module", "make", "simple", "--algebra", "lambda_c"),
    ("compute", "syzygy", "simple", "--algebra", "L:e=2"),
    ("check", "torsionless", "simple", "--algebra", "L:e=2"),
    ("betti", "simple", "--algebra", "L:e=2", "--n", "2"),
    ("bseq", "--e", "2", "--a", "1", "--n", "3"),
    ("explore", "omega", "simple", "--algebra", "L:e=2", "--n", "2"),
    ("verify-paper", "--suite", "fast"),
]


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv", _ONE_PER_FAMILY, ids=lambda argv: " ".join(argv[:2]))
def test_a_cap_variable_below_1_is_a_usage_error_for_every_command(argv, value, monkeypatch):
    monkeypatch.setenv("SHORTLOC_CAP", value)
    code, out, err = _run_in_process(list(argv))
    assert (code, out) == (2, "")
    assert err == f"error: BadParams: SHORTLOC_CAP must be at least 1, got {int(value)}\n"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "shortloc.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_bseq_matches_growth_sequence():
    res = run_cli("bseq", "--e", "3", "--a", "1", "--n", "6")
    assert res.returncode == 0
    assert res.stdout.strip() == "1 3 8 21 55 144 377"


def test_bseq_closed_form_flag():
    res = run_cli("bseq", "--e", "3", "--a", "1", "--n", "20", "--closed-form")
    assert res.returncode == 0


def test_bseq_closed_form_checks_a_long_sequence():
    res = run_cli("bseq", "--e", "3", "--a", "1", "--n", "600", "--closed-form",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert "closed_form_checked" in payload["flags"] and len(payload["values"]) == 601


def test_bseq_csv():
    res = run_cli("bseq", "--e", "2", "--a", "0", "--n", "3", "--format", "csv")
    assert res.stdout.splitlines() == ["n,b_n", "0,1", "1,2", "2,4", "3,8"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bseq_prints_values_beyond_the_int_digit_cap(tmp_path, fmt):
    # b_10400 for (e, a) = (3, 1) has 4347 digits, past the 4300 digits
    # Python 3.11 converts to text by default; it is printed, not refused.
    out = tmp_path / f"bseq.{fmt}"
    res = run_cli("bseq", "--e", "3", "--a", "1", "--n", "10400", "--format", fmt,
                  "-o", str(out))
    assert res.returncode == 0 and res.stderr == ""
    prev, cur = 0, 1
    for _ in range(10400):
        prev, cur = cur, 3 * cur - prev
    setter = getattr(sys, "set_int_max_str_digits", None)
    before = sys.get_int_max_str_digits() if setter else None
    try:
        if setter:
            setter(0)
        text = out.read_text()
        last = json.loads(text)["values"][-1] if fmt == "json" else \
            int(text.splitlines()[-1].split(",")[1])
    finally:
        if setter:
            setter(before)
    assert last == cur and cur > 10 ** 4300


def test_algebra_info_text():
    res = run_cli("algebra", "info", "lambda_c")
    assert res.returncode == 0
    assert "hilbert_type: [3, 2]" in res.stdout
    assert "self_injective: False" in res.stdout


def test_algebra_preset_roundtrip(tmp_path):
    out = tmp_path / "alg.json"
    res = run_cli("algebra", "preset", "ex15_1", "--e", "3", "--a", "2",
                  "-o", str(out))
    assert res.returncode == 0 and out.exists()
    res2 = run_cli("algebra", "validate", str(out), "--format", "json")
    assert res2.returncode == 0
    payload = json.loads(res2.stdout)
    assert payload["values"]["hilbert_type"] == [3, 2]


def test_check_exit_codes():
    res = run_cli("check", "torsionless", "malpha:2", "--algebra", "lambda_c")
    assert res.returncode == 1 and res.stdout.strip() == "false"
    res = run_cli("check", "gp", "malpha:0", "--algebra", "lambda_c", "--bound", "10")
    assert res.returncode == 0 and res.stdout.strip() == "true"
    res = run_cli("check", "semigp", "malpha:2", "--algebra", "lambda_c")
    assert res.returncode == 0
    res = run_cli("check", "solid", "radical", "--algebra", "ex3_4")
    assert res.returncode == 0


def test_usage_error_exit_code():
    res = run_cli("algebra", "info", "not_a_preset")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_bad_parameter_values_are_usage_errors():
    res = run_cli("check", "semigp", "simple", "--algebra", "L:e=2", "--bound", "0")
    assert res.returncode == 2
    res = run_cli("compute", "ext:x:simple", "simple", "--algebra", "L:e=2")
    assert res.returncode == 2
    res = run_cli("betti", "simple", "--algebra", "L:e=2", "--n", "2", "--cap", "0")
    assert res.returncode == 2


def test_resource_cap_exit_code():
    res = run_cli("betti", "simple", "--algebra", "L:e=3", "--n", "12", "--cap", "100")
    assert res.returncode == 3


def test_resource_cap_env_override():
    res = run_cli("betti", "simple", "--algebra", "L:e=3", "--n", "6",
                  env_extra={"SHORTLOC_CAP": "100"})
    assert res.returncode == 3


def test_json_algebras_obey_the_cap_that_presets_obey(tmp_path, monkeypatch):
    # A JSON algebra's e^2 meets SHORTLOC_CAP before its structure matrix is
    # built, as a preset's g^2 does, for an algebra file and for a module
    # file holding its algebra.
    monkeypatch.setenv("SHORTLOC_CAP", "100")
    assert _run_in_process(["algebra", "info", "L:e=11"])[0] == 3
    for e, code in ((11, 3), (10, 0)):
        alg = {"field": {"kind": "Q"}, "e": e, "a": 0, "structure": []}
        mod = {"algebra": alg, "dim": 1, "actions": [[["0"]]] * e}
        for argv, doc in ((["algebra", "info"], alg), (["module", "make"], mod)):
            path = tmp_path / f"{argv[0]}{e}.json"
            path.write_text(json.dumps(doc))
            got, out, err = _run_in_process(argv + [str(path)])
            assert got == code, (argv, e, err)
            if code == 3:
                assert (out, err) == ("", "error: intermediate module of dimension 121 "
                                          "exceeds cap 100\n")


def test_bad_cap_variable_is_a_usage_error():
    for args in (("bseq", "--e", "2", "--a", "1", "--n", "3"),
                 ("betti", "simple", "--algebra", "L:e=2", "--n", "2")):
        res = run_cli(*args, env_extra={"SHORTLOC_CAP": "abc"})
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1


def test_json_with_a_missing_key_is_a_usage_error(tmp_path):
    res = run_cli("module", "make", "simple", "--algebra", "lambda_c", "--format", "json")
    module = json.loads(res.stdout)
    broken = [({k: v for k, v in module.items() if k != "actions"}, "'actions'"),
              (dict(module, algebra={k: v for k, v in module["algebra"].items() if k != "e"}),
               "'e'"),
              (dict(module, algebra=dict(module["algebra"], field={"kind": "Fp"})), "'p'")]
    for k, (payload, key) in enumerate(broken):
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(payload))
        res = run_cli("check", "torsionless", str(path))
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and key in res.stderr
        assert len(res.stderr.splitlines()) == 1


@pytest.fixture(scope="module")
def simple_module_json():
    res = run_cli("module", "make", "simple", "--algebra", "lambda_c", "--format", "json")
    return json.loads(res.stdout)


def _with_algebra(module, **changes):
    return dict(module, algebra=dict(module["algebra"], **changes))


def _with_structure_entry(module, entry):
    return _with_algebra(module, structure=[entry] + module["algebra"]["structure"][1:])


_WRONG_TYPES = {
    "actions-number": lambda m: dict(m, actions=5),
    "dim-list": lambda m: dict(m, dim=[1]),
    "action-rows-numbers": lambda m: dict(m, actions=[[1]]),
    "entry-float": lambda m: dict(m, actions=[[[0.0]]] * 3),
    "entry-list": lambda m: dict(m, actions=[[[["0"]]]] * 3),
    "algebra-number": lambda m: dict(m, algebra=5),
    "algebra-file-missing": lambda m: dict(m, algebra="missing.json"),
    "e-list": lambda m: _with_algebra(m, e=[3]),
    "structure-number": lambda m: _with_algebra(m, structure=7),
    "structure-entry-number": lambda m: _with_structure_entry(m, 7),
    "structure-index-list": lambda m: _with_structure_entry(m, [[1], 1, 1, "1"]),
    "structure-constant-float": lambda m: _with_structure_entry(m, [1, 1, 1, 1.0]),
    "field-p-list": lambda m: _with_algebra(m, field={"kind": "Fp", "p": [7]}),
    "field-list": lambda m: _with_algebra(m, field=["Q"]),
    "tags-list": lambda m: _with_algebra(m, tags=["x"]),
}


@pytest.mark.parametrize("label", list(_WRONG_TYPES))
def test_json_with_a_wrong_value_type_is_a_usage_error(tmp_path, simple_module_json, label):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_WRONG_TYPES[label](simple_module_json)))
    res = run_cli("check", "torsionless", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1


def _module_file(tmp_path, payload):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    return str(path)


_ZERO_DENOMINATORS = {
    "cyclic-coordinate": lambda tmp, m: ("compute", "syzygy", "cyclic:0,1/0,0,0",
                                         "--algebra", "qexterior"),
    "preset-parameter": lambda tmp, m: ("betti", "simple", "--algebra", "qexterior:q=1/0",
                                        "--n", "2"),
    "malpha-parameter": lambda tmp, m: ("check", "torsionless", "malpha:1/0",
                                        "--algebra", "lambda_c"),
    "module-scalar": lambda tmp, m: ("check", "torsionless",
                                     _module_file(tmp, dict(m, actions=[[["1/0"]]] * 3))),
    "fp-structure-constant": lambda tmp, m: (
        "check", "torsionless",
        _module_file(tmp, _with_structure_entry(
            _with_algebra(m, field={"kind": "Fp", "p": 7}), [1, 2, 1, "1/7"]))),
}


@pytest.mark.parametrize("label", list(_ZERO_DENOMINATORS))
def test_zero_denominator_is_a_usage_error(tmp_path, simple_module_json, label):
    res = run_cli(*_ZERO_DENOMINATORS[label](tmp_path, simple_module_json))
    assert res.returncode == 2
    assert res.stderr.startswith("error: BadParams:") and len(res.stderr.splitlines()) == 1


_NEGATIVE_COUNTS = {
    "ext-index": ("compute", "ext:-1:simple", "simple", "--algebra", "L:e=2"),
    "betti-n": ("betti", "simple", "--algebra", "L:e=2", "--n", "-1"),
    "bseq-n": ("bseq", "--e", "2", "--a", "1", "--n", "-3"),
    "omega-n": ("explore", "omega", "simple", "--algebra", "L:e=2", "--n", "-2"),
    "mho-n": ("explore", "mho", "simple", "--algebra", "L:e=2", "--n", "-2"),
    "complex-window": ("explore", "complex", "simple", "--algebra", "L:e=2",
                       "--back", "-1", "--fwd", "-1"),
}


@pytest.mark.parametrize("label", list(_NEGATIVE_COUNTS))
def test_negative_counts_are_usage_errors(label):
    res = run_cli(*_NEGATIVE_COUNTS[label])
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: BadParams:") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("spec,once", [("L:e=2,e=3", "L:e=2"),
                                       ("ex15_1:e=3,a=2,e=3", "ex15_1:e=3,a=2"),
                                       ("qexterior:q=2, q=3", "qexterior:q=2")])
def test_a_repeated_preset_parameter_is_a_usage_error(spec, once):
    # The last value used to win silently: "L:e=2,e=3" built L with e=3.
    res = run_cli("algebra", "info", spec)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: BadParams:") and len(res.stderr.splitlines()) == 1
    assert "given twice" in res.stderr
    assert run_cli("algebra", "info", once).returncode == 0


def test_negative_relation_count_is_a_usage_error():
    res = run_cli("module", "make", "random:1,-1", "--algebra", "L:e=2")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: BadParams:") and len(res.stderr.splitlines()) == 1


def test_random_spec_is_capped_before_the_free_module_is_built():
    # random:<g>,<r> builds A^g; g·dim A (3 per copy over L(2)) meets the cap first.
    res = run_cli("module", "make", "random:4,1", "--algebra", "L:e=2",
                  env_extra={"SHORTLOC_CAP": "11"})
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == "error: intermediate module of dimension 12 exceeds cap 11\n"
    res = run_cli("module", "make", "random:4,1", "--algebra", "L:e=2",
                  env_extra={"SHORTLOC_CAP": "12"})
    assert res.returncode == 0
    res = run_cli("betti", "random:4,1", "--algebra", "L:e=2", "--n", "0", "--cap", "11")
    assert res.returncode == 3 and "dimension 12 exceeds cap 11" in res.stderr


def test_random_spec_caps_its_relations_before_drawing_them():
    # The r relations are vectors of A^g: r·g·dim A is checked too, 4 per
    # relation over qexterior, so a huge r exits 3 instead of growing memory.
    res = run_cli("compute", "syzygy", "random:1,20000", "--algebra", "qexterior")
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == "error: intermediate module of dimension 80000 exceeds cap 5000\n"
    res = run_cli("module", "make", "random:2,3", "--algebra", "L:e=2",
                  env_extra={"SHORTLOC_CAP": "17"})
    assert res.returncode == 3 and "dimension 18 exceeds cap 17" in res.stderr
    res = run_cli("module", "make", "random:2,3", "--algebra", "L:e=2",
                  env_extra={"SHORTLOC_CAP": "18"})
    assert res.returncode == 0


@pytest.mark.parametrize("literal", ["nan", "inf", "", "abc"])
def test_non_numeric_literal_is_a_usage_error(literal):
    res = run_cli("compute", "syzygy", f"cyclic:{literal},1,0,0", "--algebra", "qexterior")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: BadParams:") and len(res.stderr.splitlines()) == 1
    assert repr(literal) in res.stderr


_ARGUMENTS_TO_PLAIN_SPECS = {
    "ext-other": ("compute", "ext:1:simple:x", "simple", "--algebra", "L:e=2"),
    "simple": ("compute", "syzygy", "simple:x", "--algebra", "L:e=2"),
    "regular": ("betti", "regular:2", "--algebra", "L:e=2", "--n", "2"),
    "radical": ("check", "torsionless", "radical:", "--algebra", "L:e=2"),
}


@pytest.mark.parametrize("label", list(_ARGUMENTS_TO_PLAIN_SPECS))
def test_module_specs_without_arguments_refuse_one(label):
    res = run_cli(*_ARGUMENTS_TO_PLAIN_SPECS[label])
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: BadParams:") and len(res.stderr.splitlines()) == 1


def test_module_make_and_compute_from_file(tmp_path):
    mod = tmp_path / "m.json"
    res = run_cli("module", "make", "malpha:1", "--algebra", "lambda_c",
                  "-o", str(mod))
    assert res.returncode == 0 and mod.exists()
    res2 = run_cli("compute", "syzygy", str(mod), "--format", "json")
    assert res2.returncode == 0
    payload = json.loads(res2.stdout)
    assert payload["values"]["dim_vector"] == [2, 1]


def test_compute_mho_flags_non_torsionless():
    res = run_cli("compute", "mho", "malpha:2", "--algebra", "lambda_c",
                  "--format", "json")
    payload = json.loads(res.stdout)
    assert "not_torsionless" in payload["flags"]


def test_compute_ext_op():
    res = run_cli("compute", "ext:1:simple", "simple", "--algebra", "L:e=2")
    assert res.returncode == 0
    assert res.stdout.strip() == "ext^1: 2"


def test_compute_dual_lands_over_opposite():
    res = run_cli("compute", "dual", "cyclic:0,1,0,0,0,0", "--algebra",
                  "ex15_1:e=3,a=2", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["values"]["dim_vector"] == [1, 2]


def test_explore_omega_table():
    res = run_cli("explore", "omega", "simple", "--algebra", "ex8_3", "--n", "2")
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 4  # header + 3 steps


def test_json_output_is_deterministic():
    args = ("explore", "complex", "malpha:0", "--algebra", "lambda_c",
            "--back", "3", "--fwd", "3", "--format", "json")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


@pytest.mark.parametrize("name,args", [
    ("bseq_e3_a1_n6.json",
     ("bseq", "--e", "3", "--a", "1", "--n", "6", "--format", "json")),
    ("algebra_info_lambda_c.json",
     ("algebra", "info", "lambda_c", "--format", "json")),
    ("betti_ex8_3.json",
     ("betti", "simple", "--algebra", "ex8_3", "--n", "2", "--format", "json")),
    ("explore_complex_ex9_3.json",
     ("explore", "complex", "cyclic:0,1,0,0", "--algebra", "ex9_3",
      "--back", "3", "--fwd", "3", "--format", "json")),
    ("dual_malpha1_lambda.json",
     ("compute", "dual", "malpha:1", "--algebra", "lambda_c", "--format", "json")),
    ("betti_ex5_3_n12.json",
     ("betti", "simple", "--algebra", "ex5_3", "--n", "12", "--cap", "100000", "--format", "json")),
    ("betti_ex9_4_n12.json",
     ("betti", "simple", "--algebra", "ex9_4", "--n", "12", "--cap", "100000", "--format", "json")),
    ("betti_L_e_3_n8.json",
     ("betti", "simple", "--algebra", "L:e=3", "--n", "8", "--cap", "100000", "--format", "json")),
    ("betti_ex9_3_n30.json",
     ("betti", "simple", "--algebra", "ex9_3", "--n", "30", "--format", "json")),
    ("verify_paper_all_verbose.txt", ("verify-paper", "--suite", "all", "--verbose")),
])
def test_golden_files(name, args):
    with open(os.path.join(GOLDEN, name)) as fh:
        expected = fh.read()
    res = run_cli(*args)
    assert res.returncode == 0
    assert res.stdout == expected


@pytest.mark.parametrize("algebra, n, dim", [("ex5_3", 12, 5120), ("ex9_4", 12, 6138),
                                             ("L:e=3", 8, 8748)])
def test_a_golden_ladder_meets_the_default_cap_at_the_same_rung(algebra, n, dim):
    res = run_cli("betti", "simple", "--algebra", algebra, "--n", str(n))
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == f"error: intermediate module of dimension {dim} exceeds cap 5000\n"


def test_module_make_random_is_deterministic(tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("module", "make", "random:2,1", "--algebra", "ex9_3", "--seed", "5",
            "-o", str(a_path))
    run_cli("module", "make", "random:2,1", "--algebra", "ex9_3", "--seed", "5",
            "-o", str(b_path))
    assert a_path.read_text() == b_path.read_text()


def test_compute_transpose():
    res = run_cli("compute", "transpose", "simple", "--algebra", "L:e=2",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["values"]["dim"] == 5 and payload["values"]["top"] == 2


def test_explore_mho_walk():
    res = run_cli("explore", "mho", "malpha:2", "--algebra", "lambda_c", "--n", "2")
    assert res.returncode == 0
    assert "terminated: not_torsionless" in res.stdout


def test_check_reflexive_and_aligned():
    res = run_cli("check", "reflexive", "cyclic:0,1,0,0,0,0", "--algebra",
                  "ex15_1:e=3,a=2")
    assert res.returncode == 0 and res.stdout.strip() == "true"
    res = run_cli("check", "aligned", "malpha:1", "--algebra", "lambda_c")
    assert res.returncode == 1 and res.stdout.strip() == "false"
    res = run_cli("check", "inftf", "malpha:1", "--algebra", "lambda_c")
    assert res.returncode == 0


def test_bseq_closed_form_precondition():
    res = run_cli("bseq", "--e", "2", "--a", "1", "--n", "4", "--closed-form")
    assert res.returncode == 2
    assert "HypothesisNotMet" in res.stderr


def test_verify_paper_fast_suite_exits_clean():
    res = run_cli("verify-paper", "--suite", "fast")
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 14
    assert not any(ln.startswith("FAIL") for ln in lines)


def test_verify_paper_names_a_cap_hit_instead_of_failing_a_claim():
    code, out, err = _run_in_process(["verify-paper", "--suite", "fast", "--cap", "10"])
    assert (code, out) == (3, "")
    assert "exceeds cap 10" in err and "Traceback" not in err


# -- exit-code fuzzing, in process -------------------------------------------

_FUZZ_VALUES = ["", "0", "-1", "1", "2", "3", "7", "x", "1/0", "2/3", "-2/5", "1e2", "nan",
                "0.5", " 1", "1,1", "=", ":", "e=2", "a", "111", "1e999999999", "-2E-99999"]
_FUZZ_ALGEBRAS = ["L:e=2", "qexterior:q=3", "lambda_c:c=1", "ex15_1:e=3,a=2", "ex9_3",
                  "ex14_1:e=2,a=1"]
_FUZZ_MODULES = ["simple", "regular", "radical", "cyclic:0,1,0,0", "cyclic:0,1,0,0,0,0",
                 "malpha:1", "random:1,1", "random:2,0"]
_FUZZ_JUNK = [None, True, 0, -1, 7, 1.5, "x", "1/0", "", [], {}, [[]], ["1"], {"kind": "Q"}]


def _fuzz_spec(rng, spec):
    """A spec with one or two of its tokens replaced, dropped, doubled or split."""
    parts = re.split(r"([:,=])", spec)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(parts))
        op = rng.randrange(4)
        if op == 0:
            parts[k] = rng.choice(_FUZZ_VALUES)
        elif op == 1 and len(parts) > 1:
            del parts[k]
        elif op == 2:
            parts.insert(k, rng.choice(":,="))
        else:
            parts.insert(k, parts[k])
    return "".join(parts)


def _fuzz_json(rng, payload):
    """The JSON text of a payload with one or two values replaced, dropped or
    wrapped, sometimes cut short."""
    payload = copy.deepcopy(payload)
    for _ in range(rng.randint(1, 2)):
        holder, key, node = None, None, payload
        while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
            key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            holder, node = node, node[key]
        junk = copy.deepcopy(rng.choice(_FUZZ_JUNK))
        if holder is None:
            payload = junk
        elif rng.random() < 0.4:
            del holder[key]
        else:
            holder[key] = junk if rng.random() < 0.7 else [node]
    text = json.dumps(payload)
    return text[:rng.randrange(len(text) + 1)] if rng.random() < 0.15 else text


def _fuzz_argvs(rng, tmp, bases, count):
    files = [str(tmp / "deep.json"), str(tmp / "binary.json"), str(tmp), "missing.json"]
    (tmp / "deep.json").write_text("[" * 100000)
    (tmp / "binary.json").write_bytes(b"\xff\xfe\x00")
    for i in range(count):
        alg, spec = rng.choice(_FUZZ_ALGEBRAS), rng.choice(_FUZZ_MODULES)
        kind = rng.randrange(4)
        if kind == 0:
            spec = _fuzz_spec(rng, spec)
        elif kind == 1:
            alg = _fuzz_spec(rng, alg)
        elif kind == 2:
            path = tmp / f"m{i}.json"
            path.write_text(_fuzz_json(rng, rng.choice(bases)))
            spec, alg = str(path), None
        elif rng.random() < 0.5:
            spec, alg = rng.choice(files), None
        bounded = ["--cap", "300"]
        argv = rng.choice([
            ["module", "make", spec],
            ["compute", rng.choice(["syzygy", "transpose", "dual", "mho", "ext:1:simple",
                                    _fuzz_spec(rng, "ext:2:simple")]), spec] + bounded,
            ["check", rng.choice(list(cli._CHECKS)), spec, "--bound", "3"] + bounded,
            ["betti", spec, "--n", "3", "--format", rng.choice(["text", "json", "csv"])]
            + bounded,
            ["explore", "omega", spec, "--n", "3"] + bounded,
            ["algebra", rng.choice(["info", "validate"]), spec if alg is None else alg],
        ])
        if alg is not None and argv[0] != "algebra":
            argv += ["--algebra", alg]
        if rng.random() < 0.1:
            argv += ["-o", rng.choice([str(tmp / "out.txt"), str(tmp / "no" / "out.txt"),
                                       str(tmp)])]
        yield argv


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_b_sequence_past_its_size_bound_exits_3_naming_the_size():
    code, out, err = _run_in_process(["bseq", "--e", "2", "--a", "1", "--n", "100000000"])
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: b-sequence of bit size \d+ exceeds cap \d+\n", err)


def test_malformed_specs_and_files_keep_the_exit_code_contract(tmp_path):
    # Seeded malformed module and algebra specs and JSON files, run through
    # cli.main: every exit code is 0..3, no exception escapes, exit 1 is only
    # a check's "false", and every error message comes with exit 2 or 3.
    bases = []
    for alg, spec in (("lambda_c:c=1", "malpha:1"), ("L:e=2", "random:2,1")):
        path = str(tmp_path / "base.json")
        assert _run_in_process(["module", "make", spec, "--algebra", alg, "-o", path])[0] == 0
        with open(path) as fh:
            bases.append(json.load(fh))
    codes = collections.Counter()
    for argv in _fuzz_argvs(random.Random(20261018), tmp_path, bases, 400):
        code, out, err = _run_in_process(argv)
        codes[code] += 1
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert argv[0] == "check" and err == "" and out.strip() == "false", argv
        assert bool(err) == (code in (2, 3)), (argv, err)
    assert codes[0] >= 20 and codes[1] >= 1 and codes[2] >= 200


def test_oversized_presets_and_exponents_are_refused_before_any_work():
    # Without the guards these run for minutes (a preset with 114
    # generators) or hours (Fraction expanding 10**999999999).
    code, out, err = _run_in_process(["algebra", "info", "lambda_c:c=111"])
    assert code == 3 and "12996 exceeds cap 5000" in err
    code, out, err = _run_in_process(["betti", "simple", "--n", "2", "--cap", "300",
                                      "--algebra", "ex14_1:e=18,a=1"])
    assert code == 3 and "324 exceeds cap 300" in err
    code, out, err = _run_in_process(["module", "make", "cyclic:0,1e999999999,0,0",
                                      "--algebra", "qexterior"])
    assert code == 2 and "exponent" in err
    assert _run_in_process(["module", "make", "cyclic:0,1e-4300,0,0",
                            "--algebra", "qexterior"])[0] == 0
