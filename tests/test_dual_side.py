"""The dual side reads Hom(M, A) one way: the sparse rows of ``homs.flat``.

The minimal left approximation, its factoring certificate and the
evaluation map are read off the flat rows and the right action on them
(``DualData._right``).  They are checked against the dense routes they
replaced (``references.dense_approximation``, ``references.dense_evaluation``),
which build every basis map matrix (``hom_basis``) and read A^op's dense
regular rows, over Q, F_7 and F_32003.  The evaluation's target is the
bidual module, over A itself, since A^op^op is A.  M* and the torsionless
verdict are kept on M, so the public calls build each once.
"""

from collections import Counter

import pytest

from shortloc import homology, modules
from shortloc.homology import a_dual, dual_data, is_reflexive, is_torsionless, syzygy_power
from shortloc.linalg import QQ, Field
from shortloc.modules import cyclic_submodule, left_regular_module, random_module, simple_module
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
    # The reference builds its own map matrices (hom_basis, a second
    # solve): u in value and type, z, injectivity, the cokernel's actions
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


@FIELDS
def test_the_evaluation_lands_in_the_bidual_over_the_algebra_itself(field, monkeypatch):
    # A^op^op is A, so the bidual module is over M's own algebra and is the
    # evaluation's target as it is, with no module re-wrapped, over A and
    # over A^op alike.
    checked = 0
    for M in _dual_inputs(field)[::5]:
        for X in (M, dual_data(M).module):
            data = dual_data(X)
            bidual = dual_data(data.module)
            with monkeypatch.context() as patch:
                patch.setattr(homology, "dual_data", lambda Y: bidual)
                ev = data.evaluation
            assert ev.target is bidual.module and ev.target.algebra is X.algebra, X
            assert ev.matrix.rows == bidual.homs.dim, X
            checked += X.dim > 0
    assert checked >= 20


def test_the_dual_module_and_the_torsionless_verdict_are_built_once_per_module(lam0, monkeypatch):
    # M* and the torsionless verdict are kept on M beside Hom(M, A)'s rows:
    # over M = A·(v_1 - v_2), a_dual, is_torsionless and is_reflexive solve
    # Hom(M, A) once, build M* once and take the torsionless rank once.
    counts = Counter()
    for name in ("hom_space", "module_from_columns", "rank"):
        monkeypatch.setattr(homology, name, lambda *args, _name=name,
                            _original=getattr(homology, name): counts.update([_name])
                            or _original(*args))
    M = cyclic_submodule(lam0, [0, 1, -1] + [0] * (lam0.dim - 3))
    dual = a_dual(M)
    assert is_torsionless(M) and not is_reflexive(M)
    assert a_dual(M) is dual and dual_data(M).module is dual
    assert counts == {"hom_space": 1, "module_from_columns": 1, "rank": 1}
