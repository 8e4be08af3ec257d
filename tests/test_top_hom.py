"""Hom systems sized by the top of the source.

``hom_space`` solves only the equations at the top lifts of M,
F(b·m_k) = b·F(m_k); ``hom_dim`` is t·dim N less the rank of M's cover
kernel acting on N, or, when J^2 M = 0, t·dim N' less the rank of the g0
system into N' = ann_N(J^2); the isomorphism search ranks each g0 row of a
J^2-zero pair as a t x t top, and each flat row of ``hom_space`` of any
other pair as a dim N x dim M matrix, and builds only the witness's
matrix.  The whole
intertwining system, one equation per generator and matrix entry, is kept
here as the reference: over Q, F_7 and F_32003 its kernel basis must be
the engine's, pivots, values and scalar types alike, and its rank must
give ``hom_dim``.  Counting guards keep each system at its size.
"""

import random

import pytest

from shortloc import homology, linalg, modules
from shortloc.homology import syzygy, syzygy_power
from shortloc.errors import DimensionMismatch
from shortloc.linalg import QQ, Field, IntRows, kernel_subspace, rank, typed_values
from shortloc.modules import (end_dim, find_isomorphism, free_module, hom_basis, hom_dim,
                              hom_space, left_regular_module, mod_j_squared, random_module,
                              semisimple_module, simple_module, zero_module)
from shortloc.presets import preset

from references import from_scalars, scalars, typed_columns
from test_presentation_search import loewy_length_3_pairs
from test_sweep_solves import fresh, rebased, sweep_modules, sweep_pairs

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

ALGEBRAS = [("ex15_1", {"e": 3, "a": 2}), ("lambda_c", {"c": 1}), ("qexterior", {}),
            ("L", {"e": 2}), ("ex9_3", {})]


def reference_hom_equations(M, N):
    """The intertwining equations Xt·F = F·Xs of every generator, as sparse rows.

    The unknown F[k,c] sits at index k·dim M + c, and generator v_i gives
    the equation (r, c): sum_k Xt[r,k] F[k,c] - sum_k F[r,k] Xs[k,c] = 0,
    read off the action columns of both modules.
    """
    dm, dn = M.dim, N.dim
    rows = []
    for source_cols, target_cols in zip(typed_columns(M), typed_columns(N)):
        target_rows = [[] for _ in range(dn)]
        for k, col in enumerate(target_cols):
            for r, x in col:
                target_rows[r].append((k, x))
        for r, t_row in enumerate(target_rows):
            for c, s_col in enumerate(source_cols):
                eq = {k * dm + c: x for k, x in t_row}
                for k, x in s_col:
                    q = r * dm + k
                    eq[q] = eq[q] - x if q in eq else -x
                if eq:
                    rows.append(eq)
    return from_scalars(M.field, rows, dn * dm)


def signature(space):
    return space.pivots, [scalars(row) for row in space.basis]


def hom_inputs(field):
    """Per algebra: 0, S, S^2, A, A^2, seeded modules of Loewy length 3, their
    J^2-quotients, and syzygies, each at most 24-dimensional."""
    for name, kw in ALGEBRAS:
        alg = preset(name, field=field, **kw)
        randoms = [random_module(alg, 1, 0, seed=1), random_module(alg, 1, 1, seed=2),
                   random_module(alg, 2, 2, seed=3)]
        mods = [zero_module(alg), simple_module(alg), semisimple_module(alg, 2),
                left_regular_module(alg), free_module(alg, 2)] + randoms
        mods += [mod_j_squared(R) for R in randoms]
        mods += [syzygy(simple_module(alg)), syzygy_power(simple_module(alg), 2),
                 syzygy(mod_j_squared(randoms[1]))]
        yield alg, [M for M in mods if M.dim <= 24]


@FIELDS
def test_top_lift_hom_space_is_the_intertwining_kernel(field):
    kinds = set()
    pairs = 0
    for alg, mods in hom_inputs(field):
        for M in mods:
            for N in mods:
                reference = reference_hom_equations(M, N)
                want = kernel_subspace(reference)
                got, maps = hom_space(M, N), hom_basis(M, N)
                assert signature(got.flat) == signature(want), (M, N)
                assert [scalars(x for row in h.matrix.data for x in row) for h in maps] == \
                    [scalars(row) for row in want.basis]
                assert all(h.is_intertwiner() for h in maps)
                assert hom_dim(M, N) == reference.cols - rank(reference) == got.dim
                lm, ln = M.loewy_length(), N.loewy_length()
                kinds.add(("loewy", lm))
                kinds.add(("J2 only in M", lm == 3 and ln < 3))
                kinds.add(("J2 only in N", ln == 3 and lm < 3))
                kinds.add(("free", M.free_rank is not None))
                kinds.add(("syzygy", isinstance(M, homology.Syzygy)))
                kinds.add(("zero", M.dim == 0))
                pairs += 1
    assert pairs >= 300
    assert kinds >= {("loewy", 0), ("loewy", 1), ("loewy", 2), ("loewy", 3), ("J2 only in M", True),
                     ("J2 only in N", True), ("free", True), ("syzygy", True), ("zero", True)}


@FIELDS
def test_the_top_test_is_invertibility(field):
    # A g0 row of a J^2-zero pair, lifted with no part in JN, and a flat row
    # of any other pair are A-maps, and _invertible, ranking the one as a top
    # and the other as the map's matrix, says whether the map is invertible.
    checked, p = {}, field.characteristic
    pairs = [(M, N) for _, M, N in sweep_pairs(field)]
    pairs += [(M, N) for M, N, _ in loewy_length_3_pairs(field)]
    for M, N in pairs:
        t, lifts = M.top_dim(), N.radical().free_columns()
        if len(lifts) != t:
            continue  # the search ranks no row of such a pair
        square = M.loewy_length() < 3 and N.loewy_length() < 3
        if square:
            homs, size = kernel_subspace(modules._top_equations(M, N)[0]), t
        else:
            homs, size = hom_space(M, N).flat, M.dim
        for idx, vals, scale in homs.int_rows().values():
            row = dict(zip(idx, vals))
            F = (modules._witness(M, N, row, lifts, scale) if square else modules._flat_map(
                M, N, lambda: (idx, typed_values(vals, scale, p))))
            assert F.is_intertwiner()
            invertible = rank(F.matrix) == M.dim
            assert modules._invertible(N, size, row) == invertible
            checked[square, invertible] = checked.get((square, invertible), 0) + 1
    assert checked[True, True] >= 150 and checked[True, False] >= 90
    assert checked[False, True] >= 10 and checked[False, False] >= 100


# -- counting guards -----------------------------------------------------------

@pytest.fixture
def systems(monkeypatch):
    """The (rows, cols) of each system handed to ``kernel_subspace`` and ``rank`` in modules."""
    seen = {"kernel": [], "rank": []}
    for name, key in (("kernel_subspace", "kernel"), ("rank", "rank")):
        def counted(m, _original=getattr(modules, name), _key=key):
            seen[_key].append((m.rows, m.cols))
            return _original(m)
        monkeypatch.setattr(modules, name, counted)
    return seen


def test_hom_systems_are_sized_by_the_top(systems):
    checked = 0
    for _, M, N in sweep_pairs(QQ)[::2]:
        alg, t = M.algebra, M.top_dim()
        systems["kernel"].clear()
        hom_space(M, N)
        [(rows, cols)] = systems["kernel"]
        assert rows <= (alg.dim - 1) * t * N.dim and cols == M.dim * N.dim
        checked += t < M.dim
        # J^2 kills M and N: hom_dim ranks the g0 system, t·dim top N unknowns.
        systems["rank"].clear()
        hom_dim(M, N)
        [(_, cols)] = systems["rank"]
        assert cols == t * N.top_dim()
    assert checked >= 20
    # J^2 M is not zero: hom_dim ranks M's presentation, t·dim N unknowns.
    # J^2 M is zero and J^2 N is not: the g0 system into ann_N(J^2).
    for alg, mods in hom_inputs(QQ):
        for M in mods:
            for N in mods:
                systems["rank"].clear()
                hom_dim(M, N)
                [(_, cols)] = systems["rank"]
                t = M.top_dim()
                if M.loewy_length() == 3:
                    assert cols == t * N.dim
                else:
                    assert cols == t * modules._kronecker_data(N)[0]
                checked += M.loewy_length() == 3 and N.dim > 0
    assert checked >= 100


@FIELDS
def test_hom_space_hands_over_no_empty_row(monkeypatch, field):
    # A relation whose image b·m_k is zero and whose b kills N gives dim N
    # empty rows; hom_space skips it, and its basis is still the kernel of
    # the whole intertwining system.
    handed = []

    def counted(m, _original=modules.kernel_subspace):
        handed.append(m)
        return _original(m)
    monkeypatch.setattr(modules, "kernel_subspace", counted)
    skipped = 0
    for _, M, N in sweep_pairs(field)[::3]:
        handed.clear()
        got = hom_space(M, N)
        [equations] = handed
        assert all(equations.data), (M, N)
        assert signature(got.flat) == signature(kernel_subspace(reference_hom_equations(M, N)))
        skipped += equations.rows < (M.algebra.dim - 1) * M.top_dim() * N.dim
    assert skipped >= 20


@FIELDS
def test_hom_space_builds_its_equations_once_as_integer_rows(monkeypatch, field):
    # One relation_equations call per hom_space and no row through _sparse:
    # the equations reach the elimination as IntRows.  The radicals and
    # Loewy lengths, eliminated as typed spans, are read first.
    calls = {"relations": 0, "sparse": 0}
    original, sparse = modules.relation_equations, linalg._sparse

    def relations(*args):
        calls["relations"] += 1
        equations = original(*args)
        assert type(equations) is IntRows
        return equations

    def counted_sparse(*args):
        calls["sparse"] += 1
        return sparse(*args)
    monkeypatch.setattr(modules, "relation_equations", relations)
    monkeypatch.setattr(linalg, "_sparse", counted_sparse)
    checked = 0
    for _, M, N in sweep_pairs(field)[::4]:
        M.loewy_length(), N.loewy_length()
        calls.update(relations=0, sparse=0)
        maps = hom_basis(M, N)
        [h.matrix for h in maps]
        assert calls == {"relations": 1, "sparse": 0}
        checked += len(maps) > 0
    assert checked >= 20


def test_an_invertible_basis_element_builds_one_map_matrix(monkeypatch):
    eliminations = []

    def refused(*_):
        raise AssertionError("the search solved a Hom basis of maps")
    monkeypatch.setattr(modules, "hom_space", refused)
    monkeypatch.setattr(linalg, "_echelon", lambda *args, _original=linalg._echelon:
                        eliminations.append(args) or _original(*args))
    rng = random.Random(3)
    checked = 0
    for M in sweep_modules(QQ, per_stratum=1, seed=5):
        iso = find_isomorphism(fresh(M), rebased(M, rng))
        assert iso.found
        # The search read the basis on tops and built no map; reading the
        # witness builds its matrix alone, by one elimination of its graph.
        assert "matrix" not in vars(iso.witness)
        eliminations.clear()
        assert iso.witness.matrix.rows == M.dim
        assert len(eliminations) == 1 and "matrix" in vars(iso.witness)
        assert iso.witness.is_isomorphism() and iso.witness.is_intertwiner()
        checked += 1
    assert checked >= 5


def test_the_cover_kernel_is_found_once_per_module(monkeypatch):
    calls = []
    original = homology.phi_kernel
    monkeypatch.setattr(homology, "phi_kernel", lambda *args: calls.append(1) or original(*args))
    alg = preset("ex15_1", e=3, a=2)
    for M in (random_module(alg, 2, 1, seed=4), mod_j_squared(random_module(alg, 2, 2, seed=5))):
        calls.clear()
        omega = syzygy(M)
        assert hom_dim(M, M) == end_dim(M) and hom_dim(M, omega) >= 0
        homology.projective_cover(M)
        assert len(calls) == 1
        # Hom(M, Ω) and a search into Ω read Ω's top lifts off its radical,
        # not its cover; Ω's cover is found once, whichever route reads it first.
        assert find_isomorphism(omega, omega).found and len(calls) == 2
        hom_dim(omega, M), hom_dim(M, omega), homology.projective_cover(omega)
        assert len(calls) == 2


@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=str)
def test_end_dims_of_deep_syzygies(field):
    # Recorded by the whole intertwining system and by the presentation.
    alg = preset("ex15_1", field=field, e=3, a=2)
    omega4 = syzygy_power(simple_module(alg), 4)
    omega5 = syzygy(omega4)
    assert (omega4.dim, omega5.dim) == (61, 125)
    assert end_dim(omega4) == 931 and end_dim(omega5) == 3907


def test_a_quotient_builds_its_projection_on_first_read(conca32):
    M = random_module(conca32, 2, 1, seed=6)
    sub = M.radical()
    Q, proj = modules.quotient(M, sub)
    assert "matrix" not in vars(proj)
    assert proj.matrix.rows == Q.dim == M.top_dim() and proj.is_intertwiner()
    assert proj.image().dim == Q.dim
    assert all(proj.apply(row) == (0,) * Q.dim for row in sub.basis)
    wrong = modules._LazyMap(M, Q, lambda: proj.matrix.transpose())
    with pytest.raises(DimensionMismatch):
        wrong.matrix


@FIELDS
def test_socle_dimensions_by_rank_match_the_socle(field):
    # A ⊕ S^e has Loewy length 3 and dim soc = a + e = dim JM, yet JM is not in soc.
    seen = set()
    for alg, mods in hom_inputs(field):
        mods = mods + [modules.direct_sum(left_regular_module(alg), semisimple_module(alg, alg.e))]
        for M in mods:
            soc, rad = M.socle(), M.radical()
            assert M.socle_dim() == soc.dim
            assert modules.is_bipartite(M) == (M.dim > 0 and soc.dim == rad.dim
                                               and all(map(soc.contains, rad.basis)))
            if M.loewy_length() <= 2:
                assert modules.simple_multiplicity(M) == soc.dim - rad.dim
            seen.add((M.loewy_length(), soc.dim == rad.dim, modules.is_bipartite(M)))
    assert {(3, True, False), (2, True, True), (2, False, False)} <= seen
