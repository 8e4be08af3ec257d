"""The dual side reads Hom(M, A) one way: the sparse rows of ``homs.flat``.

The minimal left approximation, its factoring certificate and the
evaluation map are read off the flat rows and the right action on them
(``DualData._right``).  They are checked against the dense routes they
replaced (``references.dense_approximation``, ``references.dense_evaluation``),
which build every basis map matrix and read A^op's dense regular rows,
over Q, F_7 and F_32003.
"""

import pytest

from shortloc import homology, modules
from shortloc.homology import dual_data, syzygy_power
from shortloc.linalg import QQ, Field
from shortloc.modules import left_regular_module, random_module, simple_module
from shortloc.presets import preset

from references import dense_approximation, dense_evaluation, scalars
from test_homology import _cover_inputs

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

_ALGEBRAS = [("lambda_c", {"c": 1}), ("lambda_c", {"c": 0}), ("qexterior", {}),
             ("ex15_1", {"e": 3, "a": 2}), ("L", {"e": 2})]


def _dual_inputs(field):
    """The cover inputs, the Loewy-length-3 random and regular modules, and Ω^i S for i <= 3."""
    mods = _cover_inputs(field)
    for name, kw in _ALGEBRAS[1:]:
        alg = preset(name, field=field, **kw)
        randoms = [random_module(alg, 1 + seed % 2, seed % 3, seed=seed) for seed in range(4)]
        mods += [M for M in randoms + [left_regular_module(alg)] if M.loewy_length() == 3]
    for name, kw in _ALGEBRAS:
        S = simple_module(preset(name, field=field, **kw))
        mods += [syzygy_power(S, i) for i in range(4)]
    return mods


def _typed_rows(mat):
    return list(map(scalars, mat.data))


@FIELDS
def test_the_dual_routes_match_the_dense_references(field):
    # Each DualData is solved twice, so the reference builds its own map
    # matrices: u in value and type, z, injectivity, the cokernel's actions
    # and the evaluation matrix in value and type all agree.
    kinds, mods = set(), _dual_inputs(field)
    assert len(mods) >= 60
    for M in mods:
        data, ref = dual_data(M), dual_data(M)
        step, expected = data.approximation, dense_approximation(ref)
        assert _typed_rows(step.approximation.matrix) == \
            _typed_rows(expected.approximation.matrix), M
        assert (step.rank, step.injective) == (expected.rank, expected.injective), M
        assert step.cokernel.actions == expected.cokernel.actions, M
        assert _typed_rows(data.evaluation.matrix) == _typed_rows(dense_evaluation(ref).matrix), M
        kinds.add((M.loewy_length(), step.injective, 0 < step.rank < data.homs.dim))
    assert {(3, True, True), (3, False, True), (2, True, True), (2, False, True)} <= kinds


@FIELDS
def test_the_approximation_and_evaluation_read_no_regular_rows_and_build_no_map(field,
                                                                                 monkeypatch):
    # Hom(M, A) and the bidual Hom(M*, A^op) are solved first, and dual_data
    # then hands back that bidual: past the two solves, neither route reads
    # the integer rows of any module (A's and A^op's included), so it solves
    # no Hom system, nor builds a map matrix.
    def refuse(M):
        raise AssertionError(f"integer rows of {M} read")

    built, original = [], modules._LazyMap.matrix
    cases = 0
    for M in _dual_inputs(field):
        data = dual_data(M)
        bidual = dual_data(data.module)
        with monkeypatch.context() as patch:
            patch.setattr(modules.AModule, "int_action_rows", refuse)
            patch.setattr(modules._LazyMap, "matrix",
                          property(lambda f: built.append(f) or original.func(f)))
            patch.setattr(homology, "dual_data", lambda X: bidual)
            step, ev = data.approximation, data.evaluation
        assert built == [], M
        assert ev.target.dim == bidual.homs.dim and step.approximation.target.dim == \
            step.rank * M.algebra.dim
        cases += step.rank > 0
    assert cases >= 50
