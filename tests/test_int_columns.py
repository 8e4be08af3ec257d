"""Each module's actions are read once, as integer columns.

``AModule.int_columns`` converts a module's action values to ints once,
over one scale, and the radical, the socle, the Loewy length and the
integer action rows read only those ints; a syzygy reads them straight off
its Φ images.  The typed routes they replaced (``references.typed_radical``,
``typed_socle``, ``typed_loewy_length``, ``typed_int_action_rows``) must
give the same pivots, integer rows and typed rows, type by type, over Q,
F_7 and F_32003, on the presets' modules, the sweep pairs, quotients,
rebased copies and syzygies.  A module the engine builds is held by its
columns and builds no matrix until ``actions`` is read.
"""

import random

import pytest

from shortloc import linalg, modules
from shortloc.homology import MinimalResolution, Syzygy, a_dual, transpose
from shortloc.linalg import QQ, Field, rank
from shortloc.modules import (AModule, direct_sum, free_module, m_alpha, module_from_subspace,
                              quotient, random_module, simple_module, submodule)
from shortloc.presets import preset, preset_names

from references import (typed, typed_int_action_rows, typed_loewy_length, typed_radical,
                        typed_socle, typed_stacked_actions)
from test_sweep_solves import fresh, rebased, sweep_pairs

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

_PRESET_PARAMS = {"L": {"e": 2}, "ex14_1": {"e": 2, "a": 1}, "ex15_1": {"e": 3, "a": 2}}


def preset_modules(field):
    """Per preset: S, A, A^2, seeded random modules (Loewy length 3 among them), their quotients
    by their socles and rebased copies; M(2) over lambda_c(c=1)."""
    rng = random.Random(17)
    out = []
    for name in preset_names():
        alg = preset(name, field=field, **_PRESET_PARAMS.get(name, {}))
        randoms = [random_module(alg, gens, rels, seed) for gens, rels, seed in
                   [(1, 0, 1), (1, 1, 2), (2, 1, 3), (2, 2, 4)]]
        out += [simple_module(alg), free_module(alg, 1), free_module(alg, 2), *randoms]
        out += [quotient(M, M.socle())[0] for M in randoms]
        out += [rebased(M, rng) for M in randoms]
    out.append(m_alpha(preset("lambda_c", field=field, c=1), 2))
    return out


def syzygies(field):
    """Ω^i M for i <= 3, M = S and a random module per preset."""
    for name in preset_names():
        alg = preset(name, field=field, **_PRESET_PARAMS.get(name, {}))
        for M in (simple_module(alg), random_module(alg, 2, 1, 5)):
            res = MinimalResolution(M)
            yield from (res.syzygy_module(i) for i in range(1, 4))


def assert_same_space(got, want):
    assert got.pivots == want.pivots
    assert got.int_rows() == want.int_rows()
    assert typed(got) == typed(want)


def assert_integer_routes(E, R):
    """E's integer routes against the typed routes on R, a module with E's actions."""
    assert E.loewy_length() == typed_loewy_length(R)
    assert E.int_action_rows() == typed_int_action_rows(R)
    assert_same_space(E.radical(), typed_radical(R))
    assert_same_space(E.socle(), typed_socle(R))
    assert E.socle_dim() == R.dim - rank(typed_stacked_actions(R))


@FIELDS
def test_the_integer_routes_match_the_typed_routes(field):
    scaled = loewy_3 = 0
    plain = preset_modules(field)
    plain += [X for _, M, N in sweep_pairs(field) for X in (M, N)]
    for M in plain:
        E, R = fresh(M), fresh(M)
        assert_integer_routes(E, R)
        scaled += E.int_columns()[1] != 1
        loewy_3 += E.loewy_length() == 3
    for syz in syzygies(field):
        # The typed routes read a twin's typed columns; the module built
        # from the shadow reads its own.
        assert_integer_routes(syz, Syzygy(syz.algebra, syz.space))
        scaled += syz.int_columns()[1] != 1
        P = free_module(syz.algebra, syz.space.ambient // syz.algebra.dim)
        built = module_from_subspace(P, syz.space)[0]
        assert_integer_routes(built, fresh(built))
    assert loewy_3 >= 30
    assert scaled >= 10 if field == QQ else scaled == 0


@FIELDS
def test_a_module_converts_its_action_values_once(field, monkeypatch):
    # One integer_values call for the action values (integer_pairs), whatever
    # reads them and in whichever order; a module with J^2 M not zero makes
    # one more, for the w-images of its integer action rows.  No typed row
    # is converted.
    calls = []

    def counted(values, p, _original=linalg.integer_values):
        calls.append(len(values))
        return _original(values, p)

    def refused(*_):
        raise AssertionError("a typed row was converted")
    for mod in (linalg, modules):
        monkeypatch.setattr(mod, "integer_values", counted)
    monkeypatch.setattr(linalg.IntRows, "from_scalars", staticmethod(refused))
    checked = 0
    for k, M in enumerate(preset_modules(field)):
        E = fresh(M)
        calls.clear()
        reads = [E.radical, E.socle_dim, E.socle, E.loewy_length, E.int_action_rows]
        for read in reads[k % 5:] + reads[:k % 5]:
            read()
        E.radical(), E.loewy_length(), E.int_action_rows()
        assert len(calls) == (2 if E.loewy_length() == 3 else 1), M
        checked += 1
    assert checked >= 60


def test_engine_built_modules_build_no_matrix_until_their_actions_are_read(matrix_builds, lam1):
    M = m_alpha(lam1, 2)
    R = random_module(lam1, 2, 1, seed=4)
    R.actions, M.actions
    matrix_builds.clear()
    built = [quotient(R, R.socle())[0], submodule(R, R.radical().basis)[0], a_dual(M),
             transpose(M), direct_sum(R, M)]
    assert not matrix_builds
    for X in built:
        before = sorted_columns(X)
        assert len(X.actions) == X.algebra.e
        # From then on the module is held by its matrices alone.
        assert X._action_columns is None
        assert sorted_columns(X) == before
    # One matrix per generator, and nothing else.
    assert sum(matrix_builds.values()) == sum(X.algebra.e for X in built)


def sorted_columns(M):
    return [[sorted(col) for col in cols] for cols in M.action_columns()]


def test_a_module_built_from_matrices_keeps_them_and_its_columns(L2):
    M = random_module(L2, 2, 1, seed=1)
    E = AModule(L2, M.dim, M.actions, check=True)
    actions = E.actions
    E.radical(), E.int_action_rows()
    assert E.actions is actions and E._action_columns is not None
