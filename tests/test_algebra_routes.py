"""The algebra reads its multiplication table off the structure constants.

No engine path multiplies algebra elements (``ShortAlgebra.mul``) or
builds a left multiplication matrix; the socles, the sections, the
structure dict of ``algebra_from_relations``, a quotient's projection and
A^t's integer rows are checked, with the type of every scalar, against
the dense routes in ``references``.
"""

import pytest

from shortloc import presets
from shortloc.algebra import ShortAlgebra, algebra_from_relations
from shortloc.linalg import QQ, Field
from shortloc.modules import AModule, free_module, left_regular_module, quotient, random_module
from shortloc.presets import preset, preset_names

from references import (dense_reduce_structure, per_m_sections, regular_int_rows, scalars, typed,
                        vstack_socle, walk_projection)

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)],
                                 ids=["Q", "F7", "F32003"])
_PRESET_PARAMS = {"L": {"e": 3}, "ex14_1": {"e": 3, "a": 5}, "ex15_1": {"e": 3, "a": 2}}


def algebras(field):
    """Every preset over ``field``, a preset with constants 1/2, and an algebra with e = 0."""
    for name in preset_names():
        yield preset(name, field=field, **_PRESET_PARAMS.get(name, {}))
    yield preset("qexterior", field=field, q="1/2")
    yield ShortAlgebra(field, 0, 0, {})


@FIELDS
def test_no_engine_path_multiplies_algebra_elements(field, monkeypatch):
    def refuse(*_):
        raise AssertionError("the multiplication table was read through mul")

    monkeypatch.setattr(ShortAlgebra, "mul", refuse)
    monkeypatch.setattr(ShortAlgebra, "left_mult_matrix", refuse)
    for alg in algebras(field):
        alg.validate()
        alg.sections()
        alg.product_kernel()
        alg.structure_table()
        alg.regular_columns()
        left_regular_module(alg).actions
        for side in (alg, alg.opposite()):
            left_regular_module(side).socle()
            left_regular_module(side).int_action_rows()
        free_module(alg, 2).socle()


@FIELDS
def test_socles_match_the_stacked_regular_matrices(field):
    for alg in algebras(field):
        for side in (alg, alg.opposite()):
            assert typed(left_regular_module(side).socle()) == typed(vstack_socle(side)), side.name
        report = alg.validate()
        assert (report.left_socle_dim, report.right_socle_dim) == \
            (vstack_socle(alg).dim, vstack_socle(alg.opposite()).dim), alg.name


@FIELDS
def test_free_module_integer_rows_match_the_regular_rows(field):
    # A^t reads its integer rows off its action columns, as every module
    # does; they are A's regular rows off left_mult_matrix, copy by copy.
    # Its recorded Loewy length is the one a copy reads off its matrices.
    for alg in algebras(field):
        for t in (1, 2, 3):
            F = free_module(alg, t)
            assert F.int_action_rows() == regular_int_rows(alg, t), (alg.name, t)
            assert F.loewy_length() == AModule(alg, F.dim, F.actions, check=False).loewy_length()


@FIELDS
def test_sections_match_one_solve_per_section(field):
    for alg in algebras(field):
        assert [scalars(s) for s in alg.sections()] == \
            [scalars(s) for s in per_m_sections(alg)], alg.name


@FIELDS
def test_structure_dicts_match_the_dense_reduction(field, monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        alg = algebra_from_relations(*args, **kwargs)
        calls.append((args, kwargs, alg))
        return alg

    monkeypatch.setattr(presets, "algebra_from_relations", recording)
    list(algebras(field))
    recording(field, [], [])
    recording(field, ["x", "y"], [{(1, 2): "1/3", (2, 1): 2}, {(1, 1): 1, (2, 2): "-5/3"}])
    recording(field, ["x", "y", "z"], [{(1, 2): "2/5"}], commutative=True)
    assert len(calls) == len(preset_names()) + 4
    for (fld, gens, rels), kwargs, alg in calls:
        want = dense_reduce_structure(fld, gens, rels, kwargs.get("commutative", False))
        assert [(k, type(c), c) for k, c in alg.structure.items()] == \
            [(k, type(c), c) for k, c in want.items()], alg.name


@FIELDS
def test_quotient_projections_match_the_dense_walk(field):
    checked = 0
    for alg in algebras(field):
        if alg.e == 0:
            continue
        for M in (left_regular_module(alg), free_module(alg, 2), random_module(alg, 2, 2, 3)):
            for sub in (M.radical(), M.socle()):
                _, proj = quotient(M, sub)
                got, want = proj.matrix, walk_projection(M, sub)
                assert (got.rows, got.cols) == (want.rows, want.cols)
                assert list(map(scalars, got.data)) == list(map(scalars, want.data)), alg.name
                checked += 1
    assert checked >= 6 * len(preset_names())
