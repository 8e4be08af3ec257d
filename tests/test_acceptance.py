"""Acceptance suite: every exit criterion, one test each, exact arithmetic.

Each test runs the corresponding claim from the built-in verification
registry (the same code backing ``shortloc verify-paper``) and prints one
PASS/FAIL line; all comparisons are exact equalities.
"""

from shortloc.homology import DEFAULT_CAP
from shortloc.verify import CLAIMS, Context, run_claim

CTX = Context(seed=0, cap=DEFAULT_CAP, fast=False)


def _run(claim_id, capsys=None):
    claim = next(claim for claim in CLAIMS if claim.claim_id == claim_id)
    result = run_claim(claim, CTX)
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} criterion-{claim_id[1:]} [{result.tag}] {result.title}")
    if not result.ok:
        for line in result.details:
            print("   ", line)
    assert result.ok, f"criterion {claim_id} failed:\n" + "\n".join(result.details)


def test_criterion_01_betti_sequence_and_closed_form():
    _run("C01")


def test_criterion_02_lambda_family_predicates():
    _run("C02")


def test_criterion_03_equal_consecutive_betti_numbers():
    _run("C03")


def test_criterion_04_period_one_type_i_complex():
    _run("C04")


def test_criterion_05_left_solid_right_not():
    _run("C05")


def test_criterion_06_solid_radical_end_dimension():
    _run("C06")


def test_criterion_07_self_injectivity_ext_criterion():
    _run("C07")


def test_criterion_08_truncated_tensor_negative_space():
    _run("C08")


def test_criterion_09_conca_family_reflexives():
    _run("C09")


def test_criterion_10_dimension_vector_law_sweep():
    _run("C10")


def test_criterion_11_hom_decomposition_sweep():
    _run("C11")


def test_criterion_12_quantum_exterior_ext_vanishing():
    _run("C12")


def test_criterion_13_reflection_and_betti_identity():
    _run("C13")


def test_criterion_14_constant_ranks_and_self_extensions():
    _run("C14")


def test_registry_covers_all_fourteen_criteria():
    assert [c.claim_id for c in CLAIMS] == [f"C{i:02d}" for i in range(1, 15)]
