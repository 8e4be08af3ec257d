import json

import pytest

from shortloc.algebra import ShortAlgebra
from shortloc.errors import BadParams, ResourceCapExceeded, SurjectivityViolation
from shortloc.linalg import Field
from shortloc.modules import left_regular_module, m_alpha, radical_module
from shortloc.presets import preset
from shortloc.serialize import (algebra_from_dict, algebra_to_dict, dumps,
                                field_from_dict, field_to_dict, load_module, module_from_dict,
                                module_to_dict, save_json)


def test_field_roundtrip():
    for f in (Field.rationals(), Field.prime(5)):
        assert field_from_dict(field_to_dict(f)) == f
    with pytest.raises(BadParams):
        field_from_dict({"kind": "R"})


def test_algebra_roundtrip(lam0):
    d = algebra_to_dict(lam0)
    assert d["e"] == 3 and d["a"] == 2
    # Scalars serialize as strings and the triples are 1-based.
    for i, j, m, c in d["structure"]:
        assert isinstance(c, str) and 1 <= i <= 3 and 1 <= m <= 2
    back = algebra_from_dict(d)
    assert back == lam0
    assert back.tags.get("preset") == "lambda_c"


def test_algebra_roundtrip_prime_field():
    alg = preset("qexterior", field=Field.prime(7), q=3)
    back = algebra_from_dict(algebra_to_dict(alg))
    assert back == alg


def test_module_roundtrip(lam0):
    M = m_alpha(lam0, 2)
    d = module_to_dict(M)
    back = module_from_dict(d)
    assert back.dim == M.dim
    assert back.actions == M.actions
    assert back.algebra == lam0


def test_module_file_reference(tmp_path, lam0):
    alg_path = tmp_path / "alg.json"
    save_json(str(alg_path), algebra_to_dict(lam0))
    M = radical_module(lam0)
    mod_path = tmp_path / "mod.json"
    save_json(str(mod_path), module_to_dict(M, algebra="alg.json"))
    back = load_module(str(mod_path))
    assert back.dim == M.dim and back.algebra == lam0


def test_dumps_is_canonical(L2):
    d = module_to_dict(left_regular_module(L2))
    s1, s2 = dumps(d), dumps(json.loads(dumps(d)))
    assert s1 == s2
    assert s1.endswith("\n")
    assert "3/2" not in s1  # integral entries stay integral strings


def test_oversized_algebras_are_refused_before_the_structure_matrix(monkeypatch):
    # e^2 over the cap, or a beyond the e^2 products, is refused before the
    # e^2 x a structure matrix is laid out.
    def refuse(_):
        raise AssertionError("the structure matrix was built")

    monkeypatch.setattr(ShortAlgebra, "structure_matrix", refuse)
    with pytest.raises(SurjectivityViolation):
        algebra_from_dict({"field": {"kind": "Q"}, "e": 2, "a": 10**6})
    with pytest.raises(ResourceCapExceeded):
        algebra_from_dict({"field": {"kind": "Q"}, "e": 11, "a": 0}, cap=100)
    with pytest.raises(ResourceCapExceeded):
        module_from_dict({"algebra": {"field": {"kind": "Q"}, "e": 11, "a": 0},
                          "dim": 1, "actions": []}, cap=100)
