"""The module axioms are checked along the integer action columns.

``validate_module`` reads v_i·(v_j·x) and w_m·x off the integer action
columns, with no product of action matrices, no product kernel and no
scalar, and maps each v_j·x once for both; its verdict and message are
checked against the dense route kept in ``references`` (``dense_validate``)
on seeded mutated modules over every preset.  No preset product has two
w-terms, so the scale T·σ that each v_i·(v_j·x) takes once is checked on a
hand-built algebra whose products have two w-terms and non-integral
constants.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from shortloc import cli
from shortloc.algebra import ShortAlgebra
from shortloc.errors import BadParams, SurjectivityViolation
from shortloc.homology import syzygy
from shortloc.linalg import QQ, Field, Matrix
from shortloc.modules import (AModule, left_regular_module, m_alpha, random_module,
                              simple_module, validate_module, vector_images)
from shortloc.presets import preset, preset_names

from references import dense_validate

FIELDS = [QQ, Field.prime(7), Field.prime(3)]
_PRESET_PARAMS = {"L": {"e": 3}, "ex14_1": {"e": 3, "a": 5}, "ex15_1": {"e": 3, "a": 2}}
RELATION = "action matrices violate a product relation"
TRIPLE = "triple product of generator actions is non-zero"


def algebras(field):
    for name in preset_names():
        yield preset(name, field=field, **_PRESET_PARAMS.get(name, {}))


def outcome(check, M):
    try:
        check(M)
    except BadParams as exc:
        return str(exc)
    return "valid"


def mutants(alg, seed):
    """Four copies of a seeded random module, each with up to two entries set to -1, 1 or 2."""
    rng = random.Random(seed)
    M = random_module(alg, rng.randint(1, 2), rng.randint(0, 2), seed)
    values = [alg.field.of(x) for x in (-1, 1, 2)]
    for _ in range(4):
        data = [[list(row) for row in X.data] for X in M.actions]
        for _ in range(rng.randint(0, 2)):
            rng.choice(data)[rng.randrange(M.dim)][rng.randrange(M.dim)] = rng.choice(values)
        yield AModule(alg, M.dim, [Matrix(alg.field, X, cols=M.dim) for X in data], check=False)


#: v_1 v_1 = w_1 + w_2/2, v_1 v_2 = w_2, v_2 v_1 = 3 w_1 - w_2, v_2 v_2 = w_1/3.
TWO_TERMS = {(1, 1, 1): 1, (1, 1, 2): Fraction(1, 2), (1, 2, 2): 1, (2, 1, 1): 3,
             (2, 1, 2): -1, (2, 2, 1): Fraction(1, 3)}


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_products_with_two_w_terms_give_the_dense_verdict(field):
    # Over Q the structure constants are over T = 6 and the sections over
    # σ = 2, so a v_i·(v_j·x) scaled by T·σ once per w-term of v_i v_j, not
    # once in all, changes the verdict.
    alg = ShortAlgebra(field, 2, 2, TWO_TERMS)
    alg.validate()
    values = [field.of(x) for x in (Fraction(1, 2), Fraction(-3, 2), 2)]
    bases = [left_regular_module(alg)] + [random_module(alg, 1 + seed % 2, seed % 3, seed)
                                          for seed in range(12)]
    seen = Counter()
    for seed, M in enumerate(bases):
        rng = random.Random(seed)
        for _ in range(4):
            data = [[list(row) for row in X.data] for X in M.actions]
            for _ in range(rng.randint(0, 2)):
                rng.choice(data)[rng.randrange(M.dim)][rng.randrange(M.dim)] = rng.choice(values)
            X = AModule(alg, M.dim, [Matrix(field, X, cols=M.dim) for X in data], check=False)
            got = outcome(validate_module, X)
            assert got == outcome(dense_validate, X), (seed, data)
            seen[got] += 1
    assert seen["valid"] >= 15 and seen[RELATION] >= 20, seen


def test_the_axioms_give_the_dense_verdict_and_message():
    seen = Counter()
    for field in FIELDS:
        for alg in algebras(field):
            for seed in range(5):
                for M in mutants(alg, seed):
                    got = outcome(validate_module, M)
                    assert got == outcome(dense_validate, M), (alg, field, seed)
                    seen[got] += 1
    assert min(seen[key] for key in ("valid", RELATION, TRIPLE)) >= 20, seen


def refuse_products(monkeypatch):
    def refuse(*_):
        raise AssertionError("the module axioms were read through a matrix product")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(ShortAlgebra, "product_kernel", refuse)


def test_the_axioms_form_no_product(monkeypatch):
    refuse_products(monkeypatch)
    lam = preset("lambda_c", c=1)
    modules = [left_regular_module(alg) for field in FIELDS for alg in algebras(field)]
    modules += [m_alpha(lam, 2), syzygy(simple_module(lam)), syzygy(m_alpha(lam, 1))]
    for M in modules:
        validate_module(M)


def test_each_basis_vector_is_mapped_once_for_the_relations(monkeypatch):
    # v_i·(v_j·x) is mapped in one pass per basis vector x, which the squares
    # w_m·x and the relation check share; one more pass maps every w_m·x.
    passes = []

    def counted(columns, rows):
        rows = list(rows)
        passes.append(len(rows))
        return vector_images(columns, rows)
    monkeypatch.setattr("shortloc.modules.vector_images", counted)
    lam = preset("lambda_c", c=1)
    modules = [left_regular_module(alg) for field in FIELDS for alg in algebras(field)]
    modules += [m_alpha(lam, 2), syzygy(simple_module(lam)), syzygy(m_alpha(lam, 1))]
    for M in modules:
        M.int_columns()
        passes.clear()
        validate_module(M)
        e, a = M.algebra.e, M.algebra.a
        assert passes == [e] * M.dim + [a * M.dim], M


def test_mutated_modules_are_refused_with_the_dense_message(monkeypatch):
    verdicts = [(M, outcome(dense_validate, M)) for M in mutants(preset("ex5_3"), 4)]
    assert {RELATION, TRIPLE} <= {verdict for _, verdict in verdicts}
    refuse_products(monkeypatch)
    for M, verdict in verdicts:
        assert outcome(validate_module, M) == verdict


def test_a_module_over_forty_generators_reads_no_product_kernel(tmp_path, monkeypatch):
    # At dim 1, e = 40, a = 0 the dense route took a kernel basis of e^4 cells.
    refuse_products(monkeypatch)
    alg = {"field": {"kind": "Q"}, "e": 40, "a": 0, "structure": []}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"algebra": alg, "dim": 1, "actions": [[["0"]]] * 40}))
    assert cli.main(["module", "make", str(path)]) == 0


def test_products_that_miss_j2_have_no_sections():
    # v_1 v_1 = w_1 leaves w_2 outside J^2; the algebra was never validated.
    alg = ShortAlgebra(QQ, 2, 2, {(1, 1, 1): 1})
    with pytest.raises(SurjectivityViolation):
        validate_module(simple_module(alg))
