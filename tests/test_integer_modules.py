"""Every engine-built module is built on integer columns; scalars are made only when read.

``module_from_columns`` holds a module by its integer columns over one
scale, and ``AModule.actions`` is the only read that types them.  A
counting guard, over Q, F_7 and F_32003, checks that the constructors call
no ``typed_values``, ``integer_pairs``, ``Subspace.residue`` or
``Subspace.sparse_rows`` until ``actions`` is read, and that a module whose
matrices are built drops its integer columns.
The integer ``pivot_columns`` is checked against its typed reference
(``references.typed_pivot_columns``), value, type and order, on the
presets' modules, the sweep pairs, halved modules and Ω¹ to Ω³.
"""

import pytest

from shortloc import linalg, modules
from shortloc.homology import a_dual, transpose
from shortloc.linalg import QQ, Field, Subspace
from shortloc.modules import (_row_images, direct_sum, generated_submodule, m_alpha,
                              mod_j_squared, pivot_columns, quotient, random_module, submodule,
                              vector_images)
from shortloc.presets import preset

from references import canonical, omegas, scalars, typed_images, typed_pivot_columns
from references import typed_columns as module_columns
from test_int_columns import preset_modules
from test_residue import halved
from test_sweep_solves import sweep_pairs

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

COUNTED = [(linalg, "typed_values"), (modules, "typed_values"), (linalg, "integer_pairs"),
           (modules, "integer_pairs"), (Subspace, "residue"), (Subspace, "sparse_rows")]


@pytest.fixture
def typed_reads(monkeypatch):
    """The names of the counted typed routes, one entry per call."""
    calls = []
    for owner, name in COUNTED:
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


@FIELDS
def test_engine_built_modules_make_no_scalar_until_they_are_read(field, typed_reads):
    lam = preset("lambda_c", field=field, c=1)
    c32 = preset("ex15_1", field=field, e=3, a=2)
    R, S = random_module(lam, 2, 1, seed=4), random_module(c32, 2, 1, seed=3)
    M = m_alpha(lam, 2)
    # The inputs are read first: M's matrices convert once, and the vectors are
    # typed.  So are the algebras' sections, typed solutions solved once per algebra.
    for X in (R, S, M):
        X.int_columns(), X.loewy_length(), X.algebra.sections()
    vectors = R.radical().basis
    seed = [[field.of(x) for x in (0, 1, -1) + (0,) * (S.dim - 3)]]
    typed_reads.clear()
    built = [quotient(R, R.socle())[0], submodule(R, vectors)[0],
             generated_submodule(S, seed)[0], a_dual(M), a_dual(S), transpose(M),
             transpose(S), direct_sum(R, M), random_module(c32, 2, 2, seed=7),
             mod_j_squared(S), mod_j_squared(random_module(lam, 1, 0, seed=1))]
    assert typed_reads == []
    assert S.loewy_length() == 3 and all(X.dim for X in built)
    # Once its matrices are built, a module is held by them alone.
    for X in built:
        assert len(X.actions) == X.algebra.e
        assert X._int_columns is None
    assert typed_reads.count("typed_values") >= sum(X.algebra.e for X in built)


def typed_columns(columns, scale, p):
    """Integer columns over ``scale`` as their rows and their typed values, with types."""
    typed = [[modules._typed(col, scale, p) for col in cols] for cols in columns]
    return [[(tuple(r for r, _ in col), scalars(y for _, y in col)) for col in cols]
            for cols in typed]


def reference_columns(space, images, e):
    """The typed reference's columns in increasing row order, each value of its canonical type."""
    return [[(tuple(r for r, _ in col), canonical(y for _, y in col))
             for col in map(sorted, cols)] for cols in typed_pivot_columns(space, images, e)]


def induced_routes(M, space):
    """The actions M induces on ``space``: the integer route typed, and the typed reference."""
    p, e = M.field.characteristic, M.algebra.e
    got = pivot_columns(space, _row_images(*M.int_columns(), space), e, p)
    images = vector_images(module_columns(M), space.sparse_rows().values())
    return typed_columns(*got, p), reference_columns(space, images, e)


def stable_spaces(M):
    """The radical, the socle and J^2 M: action-stable subspaces of M."""
    images = vector_images(M.int_columns()[0], [(idx, vals) for idx, vals, _ in
                                                M.radical().int_rows().values()])
    square = Subspace.from_vectors(M.field, M.dim, linalg.IntRows(
        M.field, [img for row in images for img in row], M.dim))
    return [M.radical(), M.socle(), square]


@FIELDS
def test_integer_pivot_columns_match_the_typed_reference(field):
    mods = preset_modules(field) + [X for _, M, N in sweep_pairs(field) for X in (M, N)]
    mods += [halved(M) for M in preset_modules(field)]
    syzygies = 0
    for name, kw in [("ex15_1", {"e": 3, "a": 2}), ("lambda_c", {"c": 1}), ("ex5_3", {})]:
        alg = preset(name, field=field, **kw)
        for i, syz in enumerate(omegas(random_module(alg, 2, 1, seed=5), 3)[1:], 1):
            # Ω^i's columns, read off Φ's integer images, against the typed
            # images of its shadow rows; then Ω^i as a module of its own.
            images, empty = typed_images(alg, syz.space), [{} for _ in range(alg.e)]
            want = reference_columns(syz.space, [images.get(q, empty) for q in syz.space.pivots],
                                     alg.e)
            assert typed_columns(*syz.int_columns(), field.characteristic) == want, (name, i)
            mods.append(syz)
            syzygies += 1
    scaled = checked = 0
    for M in mods:
        for space in stable_spaces(M):
            got, want = induced_routes(M, space)
            assert got == want, M
            checked += 1
        scaled += M.int_columns()[1] != 1
    assert syzygies == 9 and checked >= 1000
    assert scaled >= 20 if field == QQ else scaled == 0
