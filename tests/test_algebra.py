import pytest

from shortloc.algebra import ShortAlgebra
from shortloc.errors import BadParams, SurjectivityViolation
from shortloc.homology import ext_dim, left_regular_module
from shortloc.linalg import QQ, Field
from shortloc.modules import simple_module
from shortloc.presets import preset, preset_names

EXPECTED_HILBERT = {
    ("L", frozenset({("e", 2)})): (2, 0),
    ("qexterior", frozenset()): (2, 1),
    ("lambda_c", frozenset({("c", 0)})): (3, 2),
    ("lambda_c", frozenset({("c", 1)})): (4, 3),
    ("ex3_4", frozenset()): (2, 3),
    ("ex5_3", frozenset()): (2, 2),
    ("ex5_4a", frozenset()): (3, 2),
    ("ex5_4b", frozenset()): (2, 2),
    ("ex5_5", frozenset()): (3, 2),
    ("ex8_3", frozenset()): (2, 2),
    ("ex9_3", frozenset()): (2, 1),
    ("ex9_4", frozenset()): (3, 2),
    ("ex14_1", frozenset({("e", 3), ("a", 2)})): (3, 2),
    ("ex14_1", frozenset({("e", 3), ("a", 9)})): (3, 9),
    ("ex14_1", frozenset({("e", 3), ("a", 5)})): (3, 5),
    ("ex14_1", frozenset({("e", 4), ("a", 0)})): (4, 0),
    ("ex15_1", frozenset({("e", 3), ("a", 2)})): (3, 2),
    ("ex15_1", frozenset({("e", 4), ("a", 1)})): (4, 1),
}


def all_presets():
    for (name, params), hilbert in EXPECTED_HILBERT.items():
        yield preset(name, **dict(params)), hilbert


def test_every_preset_validates_with_expected_hilbert_type():
    for alg, hilbert in all_presets():
        report = alg.validate()
        assert report.hilbert_type == hilbert, alg.name
        assert report.dimension == 1 + hilbert[0] + hilbert[1]
        assert alg.a <= report.left_socle_dim
        assert alg.a <= report.right_socle_dim


def test_preset_names_are_registered():
    assert set(preset_names()) >= {"L", "qexterior", "lambda_c", "ex3_4", "ex5_3",
                                   "ex5_4a", "ex5_4b", "ex5_5", "ex8_3", "ex9_3",
                                   "ex9_4", "ex14_1", "ex15_1"}


def test_qexterior_is_self_injective(qext):
    rep = qext.validate()
    assert rep.self_injective and rep.hilbert_type == (2, 1)


def test_L2_not_self_injective(L2):
    rep = L2.validate()
    assert not rep.self_injective and rep.left_socle_dim == 2


def test_ex5_3_socles():
    rep = preset("ex5_3").validate()
    assert rep.left_socle_dim == 2 and rep.right_socle_dim == 3


def test_self_injectivity_matches_socle_simplicity():
    for alg, _ in all_presets():
        rep = alg.validate()
        assert rep.self_injective == (rep.left_socle_dim == 1)


def test_self_injectivity_matches_ext_vanishing():
    # The Ext criterion: Ext^1(S, A) = 0 iff the algebra is self-injective.
    for name, kw in [("qexterior", {}), ("L", {"e": 2}), ("ex9_3", {}),
                     ("ex5_3", {}), ("lambda_c", {})]:
        alg = preset(name, **kw)
        ext1 = ext_dim(simple_module(alg), left_regular_module(alg), 1)
        assert (ext1 == 0) == alg.is_self_injective(), alg.name


def test_self_injective_presets_satisfy_type_dichotomy():
    # Self-injective iff (a=0 and e<=1) or (a=1 and J^2 equals the left socle).
    for alg, _ in all_presets():
        rep = alg.validate()
        dichotomy = (alg.a == 0 and alg.e <= 1) or \
                    (alg.a == 1 and rep.j2_equals_left_socle)
        assert rep.self_injective == dichotomy, alg.name


def test_opposite_is_involution():
    for alg, _ in all_presets():
        op = alg.opposite()
        assert op.hilbert_type == alg.hilbert_type
        assert op.opposite() == alg


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=str)
def test_the_opposite_of_the_opposite_is_the_algebra_itself(field):
    for (name, params), _ in EXPECTED_HILBERT.items():
        alg = preset(name, field=field, **dict(params))
        op = alg.opposite()
        assert op.opposite() is alg and alg.opposite() is op, alg.name


def test_opposite_and_regular_action_are_built_once():
    alg = preset("ex5_5")
    assert alg.opposite() is alg.opposite()
    assert alg.regular_columns() is alg.regular_columns()
    assert left_regular_module(alg) is left_regular_module(alg)
    assert left_regular_module(alg.opposite()) is left_regular_module(alg.opposite())
    assert left_regular_module(alg).actions == tuple(alg.left_mult_matrix(alg.generator(i))
                                                     for i in range(1, alg.e + 1))


def test_commutative_algebras_equal_their_opposite():
    alg = preset("ex3_4")
    assert alg.opposite() == alg


def test_opposite_swaps_socles():
    alg = preset("ex5_5")
    rep = alg.validate()
    oprep = alg.opposite().validate()
    assert oprep.left_socle_dim == rep.right_socle_dim
    assert oprep.right_socle_dim == rep.left_socle_dim


def test_left_regular_module_shape(lam0):
    reg = left_regular_module(lam0)
    assert reg.dim == 6
    assert reg.top_dim() == 1
    assert reg.radical().dim == 5
    assert reg.loewy_length() == 3


def test_left_regular_module_radical_square_zero(L2):
    reg = left_regular_module(L2)
    assert reg.loewy_length() == 2 and reg.radical().dim == 2


def test_surjectivity_violation_detected():
    # Claims a = 1 but no product ever lands in the w-line.
    bad = ShortAlgebra(QQ, 2, 1, {})
    with pytest.raises(SurjectivityViolation):
        bad.validate()


def test_structure_constants_out_of_range_rejected():
    with pytest.raises(BadParams):
        ShortAlgebra(QQ, 1, 1, {(1, 2, 1): 1})


def test_preset_parameter_validation():
    with pytest.raises(BadParams):
        preset("L")
    with pytest.raises(BadParams):
        preset("qexterior", e=3)
    with pytest.raises(BadParams):
        preset("ex15_1", e=3, a=3)
    with pytest.raises(BadParams):
        preset("ex14_1", e=3, a=10)
    with pytest.raises(BadParams):
        preset("nope")


def test_prime_field_preset():
    alg = preset("qexterior", field=Field.prime(7), q=3)
    assert alg.validate().hilbert_type == (2, 1)
    assert alg.tags.get("note")  # finite order of q is recorded


def test_multiplication_table():
    alg = preset("qexterior")
    x = alg.generator(1)
    y = alg.generator(2)
    assert alg.mul(x, x) == tuple(QQ.of(v) for v in (0, 0, 0, 0))
    # x*y = -q*yx with q = 2
    assert alg.mul(x, y) == tuple(QQ.of(v) for v in (0, 0, 0, -2))
    assert alg.mul(y, x) == tuple(QQ.of(v) for v in (0, 0, 0, 1))
    unit = alg.unit()
    assert alg.mul(unit, y) == y and alg.mul(y, unit) == y
