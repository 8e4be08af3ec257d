import random

import pytest

from shortloc.errors import BadParams, LoewyTooLong, ZeroModule
from shortloc.homology import projective_cover
from shortloc.linalg import QQ, Field, Matrix, Subspace, kernel_subspace
from shortloc.modules import (AModule, cyclic_submodule, dim_vector, direct_sum, generated_submodule,
                              end_dim, find_isomorphism, free_module, hom_basis,
                              hom_dim, is_bipartite, is_isomorphic, is_solid,
                              left_regular_module, m_alpha, mod_j_squared, quotient,
                              radical_module, random_module, simple_module,
                              simple_multiplicity, submodule, validate_module,
                              zero_module, module_from_subspace)
from shortloc.presets import preset

from references import typed_columns


def cyclic_x(alg, coeffs=None):
    coords = [0] * alg.dim
    if coeffs is None:
        coords[1] = 1
    else:
        for idx, c in coeffs.items():
            coords[idx] = c
    return cyclic_submodule(alg, coords)


# -- structural subspaces ------------------------------------------------

def test_simple_module_structure(L2):
    S = simple_module(L2)
    assert S.radical().dim == 0
    assert S.socle().dim == 1
    assert S.loewy_length() == 1
    assert dim_vector(S) == (1, 0)


def test_regular_module_loewy(lam0, L2):
    assert left_regular_module(lam0).loewy_length() == 3
    assert left_regular_module(L2).loewy_length() == 2
    assert left_regular_module(L2).top_dim() == 1
    assert dim_vector(left_regular_module(L2)) == (1, 2)


def test_dim_vector_rejects_loewy_three(lam0):
    with pytest.raises(LoewyTooLong):
        dim_vector(left_regular_module(lam0))


def test_radical_module_of_lambda(lam0):
    J = radical_module(lam0)
    assert J.dim == 5
    assert dim_vector(J) == (3, 2)
    assert is_bipartite(J)


def test_socle_is_annihilated(conca32):
    M = random_module(conca32, 2, 2, seed=5)
    soc = M.socle()
    for X in M.actions:
        for v in soc.basis:
            assert not any(X.apply(v))


def test_bipartite_and_simple_multiplicity(L2):
    S = simple_module(L2)
    assert not is_bipartite(S)
    assert simple_multiplicity(S) == 1
    reg = left_regular_module(L2)
    assert is_bipartite(reg)
    assert simple_multiplicity(reg) == 0
    both = direct_sum(reg, S)
    assert not is_bipartite(both)
    assert simple_multiplicity(both) == 1


def test_simple_multiplicity_of_ex9_3_radical():
    alg = preset("ex9_3")
    J = radical_module(alg)
    # soc J is 2-dimensional while J^2 is a line.
    assert J.socle().dim == 2 and J.radical().dim == 1
    assert simple_multiplicity(J) == 1


def test_simple_multiplicity_of_ex5_5_right_radical():
    alg = preset("ex5_5").opposite()
    assert simple_multiplicity(radical_module(alg)) == 1


def test_zero_module(L2):
    Z = zero_module(L2)
    assert Z.dim == 0 and Z.loewy_length() == 0
    assert not is_bipartite(Z)


# -- module axioms -------------------------------------------------------

def test_validate_module_accepts_regular(lam0):
    validate_module(left_regular_module(lam0))


def test_validate_module_rejects_broken_relation(qext):
    # x and y acting with x*y != -q*y*x on a 3-dim space.
    rows_x = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    rows_y = [[0, 0, 0], [0, 0, 0], [1, 1, 0]]
    from shortloc.linalg import Matrix
    acts = [Matrix.from_rows(QQ, rows_x), Matrix.from_rows(QQ, rows_y)]
    with pytest.raises(BadParams):
        AModule(qext, 3, acts)


def test_random_module_deterministic(conca32):
    A = random_module(conca32, 2, 2, seed=9)
    B = random_module(conca32, 2, 2, seed=9)
    C = random_module(conca32, 2, 2, seed=10)
    assert A.actions == B.actions
    assert A.dim == B.dim
    assert (C.dim, C.actions) != (A.dim, A.actions)


def test_random_module_always_validates(conca32, lam0):
    for seed in range(12):
        for alg in (conca32, lam0):
            M = random_module(alg, 1 + seed % 2, seed % 4, seed=seed)
            validate_module(M)
            T = mod_j_squared(M)
            validate_module(T)
            assert T.loewy_length() <= 2


# -- constructors --------------------------------------------------------

def test_cyclic_submodule_of_ex9_3():
    alg = preset("ex9_3")
    Ax = cyclic_x(alg)
    assert Ax.dim == 2
    assert dim_vector(Ax) == (1, 1)


def test_cyclic_submodule_of_conca(conca32):
    Ax = cyclic_x(conca32)
    assert dim_vector(Ax) == (1, 2)


def test_cyclic_requires_radical_element(L2):
    with pytest.raises(BadParams):
        cyclic_submodule(L2, [1, 0, 0])


def test_m_alpha_shapes(lam0, lam1):
    assert dim_vector(m_alpha(lam0, 0)) == (1, 2)
    assert dim_vector(m_alpha(lam1, 5)) == (1, 3)
    with pytest.raises(BadParams):
        m_alpha(preset("ex9_3"), 0)


def test_submodule_and_quotient_roundtrip(lam0):
    reg = left_regular_module(lam0)
    J, emb = submodule(reg, reg.radical().basis)
    assert J.dim == 5 and emb.is_intertwiner() and emb.is_injective()
    Q, proj = quotient(reg, reg.radical())
    assert Q.dim == 1 and proj.is_intertwiner() and proj.rank() == Q.dim


def test_quotients_hold_no_typed_zero():
    # Zero residues are dropped from a quotient's columns, as sparse_columns
    # drops zeros, so over Q each zero of its actions and projection is an int.
    typed_zeros = []
    for name, kw in [("ex15_1", {"e": 3, "a": 2}), ("lambda_c", {"c": 1}), ("qexterior", {})]:
        alg = preset(name, **kw)
        for M in (random_module(alg, 2, 1, seed=3), random_module(alg, 1, 2, seed=4),
                  free_module(alg, 2)):
            for sub in (M.socle(), M.radical()):
                Q, proj = quotient(M, sub)
                rows = [row for X in Q.actions for row in X.data] + list(proj.matrix.data)
                typed_zeros += [(name, x) for row in rows for x in row
                                if not x and type(x) is not int]
    assert typed_zeros == []


def test_submodule_rejects_unstable_span(L2):
    reg = left_regular_module(L2)
    # The unit line is not J-stable.
    with pytest.raises(BadParams):
        submodule(reg, [reg.algebra.unit()])


def test_free_module_tags(L2):
    F = free_module(L2, 3)
    assert F.free_rank == 3 and F.dim == 9
    assert F.top_dim() == 3


# -- hom spaces ----------------------------------------------------------

def test_hom_simple_simple(L2):
    S = simple_module(L2)
    assert hom_dim(S, S) == 1


def test_hom_simple_into_regular_is_socle(L2, lam0):
    for alg in (L2, lam0):
        S = simple_module(alg)
        reg = left_regular_module(alg)
        assert hom_dim(S, reg) == alg.validate().left_socle_dim


def test_hom_maps_are_intertwiners(conca32):
    M = mod_j_squared(random_module(conca32, 2, 1, seed=3))
    N = mod_j_squared(random_module(conca32, 1, 1, seed=4))
    for f in hom_basis(M, N):
        assert f.is_intertwiner()


def test_end_of_regular_is_opposite_algebra(L2, lam0):
    # End(A) = A^op has the same dimension as A.
    for alg in (L2, lam0):
        assert end_dim(left_regular_module(alg)) == alg.dim


# -- solidity ------------------------------------------------------------

def test_ex3_4_radical_is_solid():
    J = radical_module(preset("ex3_4"))
    assert end_dim(J) == 7  # 1 + 2*3, counted by hand from the commuting rules
    assert is_solid(J)


def test_semisimple_is_not_solid(L2):
    J = radical_module(L2)  # S^2 over the radical-square-zero algebra
    assert not is_solid(J)


def test_ex5_4a_radical_indecomposable_but_not_solid():
    J = radical_module(preset("ex5_4a"))
    assert not is_solid(J)
    # No simple summands: the failure is a nilpotent endomorphism.
    assert simple_multiplicity(J) == 0


def test_ex5_4b_radical_not_solid_over_Q():
    J = radical_module(preset("ex5_4b"))
    assert not is_solid(J)
    assert simple_multiplicity(J) == 0
    # End(J) is a quadratic field extension acting on the shadow plus the
    # top-to-radical maps: 2 + 4.
    assert end_dim(J) == 6


def test_solid_rejects_zero_and_long_modules(lam0):
    with pytest.raises(ZeroModule):
        is_solid(zero_module(lam0))
    with pytest.raises(LoewyTooLong):
        is_solid(left_regular_module(lam0))


def test_solid_modules_act_as_scalars_on_socle(conca32, qext):
    # Collect at least 10 solid modules and check the defining property
    # directly on each endomorphism basis element.
    found = 0
    candidates = [radical_module(qext), cyclic_x(conca32)]
    for seed in range(40):
        M = mod_j_squared(random_module(conca32, 1, seed % 3, seed=seed))
        if M.dim:
            candidates.append(M)
        N = mod_j_squared(random_module(qext, 1 + seed % 2, seed % 3, seed=seed))
        if N.dim:
            candidates.append(N)
    for M in candidates:
        if M.dim == 0 or M.loewy_length() > 2 or not is_solid(M):
            continue
        found += 1
        soc = M.socle()
        for f in hom_basis(M, M):
            rows = [soc.coords(f.apply(v)) for v in soc.basis]
            lam = rows[0][0]
            for i, row in enumerate(rows):
                for j, val in enumerate(row):
                    assert val == (lam if i == j else QQ.zero())
        if found >= 10:
            break
    assert found >= 10


# -- isomorphism search ---------------------------------------------------

def test_iso_reflexive_cases(lam0):
    M = m_alpha(lam0, 0)
    assert is_isomorphic(M, M)
    res = find_isomorphism(M, M)
    assert res.found and res.certified and res.witness.is_isomorphism()


def test_iso_dimension_obstruction(L2):
    S = simple_module(L2)
    S2 = direct_sum(S, S)
    res = find_isomorphism(S, S2)
    assert not res.found and res.certified


def test_iso_hom_dimension_obstruction(lam0):
    # M(0) and M(1) share dimension vectors but are not isomorphic.
    res = find_isomorphism(m_alpha(lam0, 0), m_alpha(lam0, 1))
    assert not res.found


def test_iso_finds_nontrivial_witness(L2):
    S = simple_module(L2)
    A2 = direct_sum(S, S)
    B2 = direct_sum(S, S)
    assert is_isomorphic(A2, B2)


def test_iso_uncertified_flag(lam0):
    res = find_isomorphism(m_alpha(lam0, 2), m_alpha(lam0, 4))
    assert not res.found
    assert not res.certified
    assert "probabilistic" in res.note


# -- structured free modules against dense block diagonals ---------------

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=["Q", "F32003"])
_FREE_CASES = [("L", {"e": 2}), ("lambda_c", {"c": 0}), ("ex15_1", {"e": 3, "a": 2})]


def plain_block_diagonal(R, t):
    """I_t ⊗ R entry by entry: copy k's block of R sits at rows and columns k·n.."""
    n = R.rows
    zero = R.field.zero()
    return Matrix(R.field, [[R.data[i % n][j % n] if i // n == j // n else zero
                             for j in range(n * t)] for i in range(n * t)])


def plain_apply(X, v):
    zero = X.field.zero()
    return tuple(sum((a * b for a, b in zip(row, v)), zero) for row in X.data)


def plain_reduce(space, v):
    out = list(v)
    for row, p in zip(space.basis, space.pivots):
        c = out[p]
        if c:
            out = [a - c * b for a, b in zip(out, row)]
    return out


def dense_induced_actions(actions, space):
    """The actions induced on a stable subspace, by dense products and reductions."""
    out = []
    for X in actions:
        images = [plain_apply(X, v) for v in space.basis]
        assert not any(any(plain_reduce(space, img)) for img in images)
        out.append(Matrix(X.field, [[img[p] for img in images] for p in space.pivots],
                          cols=space.dim))
    return tuple(out)


def _free_spaces(alg, t, seed):
    """Cover kernels of A^t and random stable subspaces of A^t."""
    M = random_module(alg, t, seed % 3, seed=seed)
    yield kernel_subspace(projective_cover(M).cover_map.matrix)
    rng = random.Random(seed)
    pool = [alg.field.of(x) for x in (-1, 0, 0, 1, 2)]
    dense = [plain_block_diagonal(R, t) for R in left_regular_module(alg).actions]
    vecs = [tuple(rng.choice(pool) for _ in range(alg.dim * t)) for _ in range(1 + seed % 2)]
    vecs += [plain_apply(X, v) for X in dense for v in vecs]
    vecs += [plain_apply(X, v) for X in dense for v in vecs]
    yield Subspace.from_vectors(alg.field, alg.dim * t, vecs)


def typed(mats):
    return [[[(type(x), x) for x in row] for row in X.data] for X in mats]


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_free_module_actions_are_block_diagonals(field):
    # A^t is held by its columns; the matrices built from them on first read
    # are the block diagonals of the regular action, entry by entry and type
    # by type, and A^1's are the regular action itself.
    for name, kw in _FREE_CASES + [("qexterior", {}), ("ex14_1", {"e": 2, "a": 2})]:
        alg = preset(name, field=field, **kw)
        A = left_regular_module(alg)
        assert "actions" not in vars(A)
        assert A.actions == tuple(alg.left_mult_matrix(alg.generator(i))
                                  for i in range(1, alg.e + 1))
        for t in range(1, 5):
            F = free_module(alg, t)
            assert typed(F.actions) == typed(plain_block_diagonal(R, t) for R in A.actions)


def plain_direct_sum(X, Y):
    """The block diagonal of X and Y entry by entry, Y's block at rows and columns m..

    Every zero is the field's zero, as in a matrix built from sparse columns
    (a quotient's actions may hold a zero residue of another type).
    """
    m, d, zero = X.rows, X.rows + Y.rows, X.field.zero()
    entries = [[X.data[i][j] if i < m and j < m else
                Y.data[i - m][j - m] if i >= m and j >= m else zero
                for j in range(d)] for i in range(d)]
    return Matrix(X.field, [[x if x else zero for x in row] for row in entries], cols=d)


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_direct_sum_actions_are_block_diagonals(field):
    # The sum is built from M's action columns and N's shifted by dim M; its
    # matrices are the dense block diagonals, entry by entry and type by type.
    checked = 0
    for name, kw in _FREE_CASES + [("qexterior", {})]:
        alg = preset(name, field=field, **kw)
        M = random_module(alg, 2, 1, seed=3)
        mods = [zero_module(alg), simple_module(alg), left_regular_module(alg), M,
                quotient(M, M.socle())[0], radical_module(alg)]
        for A in mods:
            for B in mods:
                S = direct_sum(A, B)
                assert S.dim == A.dim + B.dim
                assert typed(S.actions) == typed(plain_direct_sum(X, Y)
                                                 for X, Y in zip(A.actions, B.actions))
                checked += 1
    assert checked == 4 * 36


@FIELDS
def test_module_from_subspace_on_free_modules_matches_dense_products(field):
    checked = 0
    for name, kw in _FREE_CASES:
        alg = preset(name, field=field, **kw)
        for t in range(1, 5):
            dense = [plain_block_diagonal(R, t) for R in left_regular_module(alg).actions]
            for seed in range(3):
                for space in _free_spaces(alg, t, seed):
                    sub, emb = module_from_subspace(free_module(alg, t), space)
                    assert sub.actions == dense_induced_actions(dense, space)
                    assert "matrix" not in vars(emb)  # built on first read
                    assert emb.matrix == Matrix.from_columns(field, space.basis, alg.dim * t)
                    checked += space.dim > 0
    assert checked >= 60


@FIELDS
def test_explicit_copy_of_a_free_module_reads_as_the_free_module(field):
    # A copy of A^t built from its action matrices, with free_rank set
    # afterwards, scans its matrices for its columns: they, and the actions
    # induced on its stable subspaces, are those of A^t.
    for name, kw in _FREE_CASES:
        alg = preset(name, field=field, **kw)
        for t in (2, 3):
            F = free_module(alg, t)
            copy = AModule(alg, F.dim, F.actions, check=False)
            copy.free_rank = F.free_rank
            for space in _free_spaces(alg, t, seed=t):
                via_copy = module_from_subspace(copy, space)[0].actions
                assert via_copy == module_from_subspace(F, space)[0].actions
            assert typed_columns(copy) == typed_columns(F)
            assert copy.int_action_rows() == F.int_action_rows()


def test_unstable_subspace_of_a_free_module_is_refused(conca32):
    alg = conca32
    n, e = alg.dim, alg.e
    F = free_module(alg, 2)
    # u with v_j v_u != 0 for some j: the column of v_u reaches J^2.
    u = next(u for u in range(1, 1 + e)
             if any(any(R.data[i][u] for i in range(1 + e, n))
                    for R in left_regular_module(alg).actions))

    def unit(*idx):
        v = [alg.field.zero()] * F.dim
        for i in idx:
            v[i] = alg.field.one()
        return tuple(v)
    copy1_j2 = [unit(i) for i in range(1 + e, n)]
    copy2_j2 = [unit(n + i) for i in range(1 + e, n)]
    x = unit(u, n + u)
    # v_j x has a J^2 component in copy 2 that the span misses.
    with pytest.raises(BadParams):
        submodule(F, copy1_j2 + [x])
    sub, emb = submodule(F, copy1_j2 + copy2_j2 + [x])
    assert sub.dim == 2 * alg.a + 1 and emb.is_intertwiner()


def test_radical_reads_residues_without_fp_truth_tests(monkeypatch):
    # The radical hands every action column to the elimination, which reads
    # residues as ints, so no Fp is asked for its truth value.
    from shortloc.homology import syzygy
    from shortloc.linalg import Fp
    alg = preset("ex15_1", field=Field.prime(32003), e=3, a=2)
    omega = syzygy(syzygy(simple_module(alg)))
    fresh = AModule(alg, omega.dim, omega.actions, check=False)
    truth_tests = []
    fp_bool = Fp.__bool__
    monkeypatch.setattr(Fp, "__bool__", lambda x: truth_tests.append(1) or fp_bool(x))
    radical = fresh.radical()
    monkeypatch.undo()
    assert truth_tests == []
    assert radical == omega.radical() and radical.dim == omega.dim - omega.top_dim()
    assert fresh.top_dim() == 7


@pytest.mark.parametrize("field", [Field.prime(7), Field.prime(32003)], ids=str)
def test_vectors_of_plain_ints_are_read_over_fp(field):
    # submodule, generated_submodule and quotient coerce each entry through
    # Field.of, as cyclic_submodule does: plain ints give what residues give.
    lam = preset("lambda_c", field=field, c=1)
    p = field.characteristic
    for M in (m_alpha(lam, 2), random_module(lam, 2, 1, seed=3), left_regular_module(lam)):
        radical = [[x.v for x in v] for v in M.radical().basis]
        socle = [[x.v for x in v] for v in M.socle().basis]
        seed = [[0, 1, p - 1] + [2] * (M.dim - 3)]
        for build, ints in [(submodule, radical), (generated_submodule, seed),
                            (quotient, socle)]:
            got, got_map = build(M, ints)
            want, want_map = build(M, [[field.of(x) for x in v] for v in ints])
            assert got.actions == want.actions and got_map.matrix == want_map.matrix, build
            assert got.dim == want.dim and got.dim > 0


def test_a_float_entry_is_refused(lam1):
    M = m_alpha(lam1, 2)
    vector = [0.0, 1.0] + [0] * (M.dim - 2)
    for build in (submodule, generated_submodule, quotient):
        with pytest.raises(BadParams, match="float"):
            build(M, [vector])
