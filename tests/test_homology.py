from functools import cached_property
from itertools import islice

import pytest

from shortloc import homology, modules
from shortloc.algebra import ShortAlgebra
from shortloc.errors import AlgebraMismatch, BadParams, ResourceCapExceeded, ShortlocError
from shortloc.explorer import classify_complex, mho_path
from shortloc.homology import (BoundedVerdict, a_dual, betti, dual_data, eval_map, ext_dim,
                               ext_dims, is_gp, is_inf_torsionfree, is_reflexive, is_semi_gp,
                               is_torsionless, mho_step, minimal_left_approximation,
                               projective_cover, resolution, stable_hom_dim, syzygy,
                               syzygy_power, transpose)
from shortloc.kronecker import tilde
from shortloc.linalg import QQ, Field, Matrix, Subspace, kernel_subspace
from shortloc.modules import (AModule, cyclic_submodule, dim_vector, direct_sum,
                              free_module, hom_basis, hom_dim, is_isomorphic,
                              left_regular_module, m_alpha, mod_j_squared, module_from_subspace,
                              radical_module, random_module, simple_module, validate_module,
                              zero_module)
from shortloc.presets import preset

from references import (boundary_elements, canonical, combination, is_zero, kernel_embedding,
                        omegas, plain_cover_columns, scalars, scale, top_lift,
                        two_resolution_is_gp, typed, vstack_torsionless)


def cyclic_x(alg):
    coords = [0] * alg.dim
    coords[1] = 1
    return cyclic_submodule(alg, coords)


# -- projective covers and syzygies ---------------------------------------

def test_cover_of_simple_is_radical(lam0):
    S = simple_module(lam0)
    pres = projective_cover(S)
    assert pres.cover_rank == 1
    assert pres.kernel.dim == lam0.e + lam0.a
    assert is_isomorphic(pres.kernel, radical_module(lam0))


def test_cover_of_projective_has_zero_kernel(L2, lam0):
    for alg in (L2, lam0):
        assert syzygy(left_regular_module(alg)).dim == 0
        assert syzygy(free_module(alg, 2)).dim == 0


def test_syzygy_of_simple_over_radical_square_zero(L3):
    S = simple_module(L3)
    assert is_isomorphic(syzygy(S), direct_sum(S, direct_sum(S, S)))


def test_cover_kernel_is_inside_radical(conca32):
    # Minimality: the kernel embeds into J * A^t.
    for seed in range(6):
        M = mod_j_squared(random_module(conca32, 1 + seed % 2, seed % 3, seed=seed))
        if M.dim == 0:
            continue
        pres = projective_cover(M)
        P = pres.cover_map.source
        rad = P.radical()
        emb = kernel_embedding(pres).matrix
        for col in range(emb.cols):
            assert rad.contains(emb.col(col))


def _cover_inputs(field):
    """Simple, M(alpha), random (mostly Loewy length 3) and J^2-quotient modules,
    and syzygies of the first few."""
    lam = preset("lambda_c", field=field, c=1)
    mods = [simple_module(lam), m_alpha(lam, 1), m_alpha(lam, 2)]
    for name, kw in [("qexterior", {}), ("lambda_c", {"c": 0}), ("ex15_1", {"e": 3, "a": 2})]:
        alg = preset(name, field=field, **kw)
        for seed in range(3):
            M = random_module(alg, 1 + seed % 2, seed % 3, seed=seed)
            mods += [M, mod_j_squared(M)]
    return mods + [syzygy_power(M, i) for M in mods[1:6] for i in (1, 2, 3)]


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_cover_kernel_is_the_kernel_of_the_whole_cover(field):
    # A syzygy's cover is read off its actions; every cover must equal the
    # one built by mapping the top lifts through the dense basis images, in
    # value, each entry of the type Rational gives it, and its kernel must be
    # the kernel of that matrix: the same basis, pivots, sparse rows and
    # induced actions.
    loewy, read = [], 0
    for M in _cover_inputs(field):
        pres = projective_cover(M)
        columns = plain_cover_columns(M)
        assert list(map(scalars, pres.cover_map.matrix.data)) == list(map(canonical, zip(*columns)))
        ref = kernel_subspace(Matrix.from_columns(field, columns, M.dim))
        assert typed(pres._kernel_space) == typed(ref), (M, M.loewy_length())
        expected = module_from_subspace(pres.cover_map.source, ref)[0]
        assert pres.kernel.actions == expected.actions
        loewy.append(M.loewy_length())
        read += M._square_zero
    assert loewy.count(3) >= 5 and loewy.count(2) >= 15 and 1 in loewy and read >= 15


def test_cover_kernel_knows_its_loewy_length_without_a_product(lam0, monkeypatch):
    shapes = []
    original = Matrix.__mul__

    def counted(self, other):
        shapes.append((self.rows, self.cols, other.rows, other.cols))
        return original(self, other)
    K = projective_cover(random_module(lam0, 2, 1, seed=3)).kernel
    K.radical()
    monkeypatch.setattr(Matrix, "__mul__", counted)
    Matrix.identity(QQ, 2) * Matrix.identity(QQ, 2)
    assert shapes == [(2, 2, 2, 2)]  # the patched product records
    assert K.loewy_length() == 2 and len(shapes) == 1
    monkeypatch.undo()
    assert AModule(lam0, K.dim, K.actions).loewy_length() == 2


def test_syzygies_are_valid_modules(lam0):
    M = m_alpha(lam0, 1)
    om = syzygy(M)
    validate_module(om)
    validate_module(syzygy(om))


def test_betti_tables(L3, qext):
    assert betti(simple_module(L3), 3).values == (1, 3, 9, 27)
    assert betti(simple_module(qext), 4).values == (1, 2, 3, 4, 5)
    assert betti(simple_module(preset("ex8_3")), 2).values == (1, 2, 2)


def test_betti_matches_syzygy_power_tops(conca32):
    M = cyclic_x(conca32)
    table = betti(M, 4)
    for i, t in enumerate(table.values):
        assert t == syzygy_power(M, i).top_dim()
    with pytest.raises(BadParams, match="n must be at least 0"):
        syzygy_power(M, -1)


def test_resource_cap(L3):
    with pytest.raises(ResourceCapExceeded):
        betti(simple_module(L3), 12, cap=200)


def test_cover_cap_counts_the_free_module_before_building_it(conca32, monkeypatch):
    # The cap is met at P.dim = t·dim A, before the cover allocates anything,
    # for a syzygy and for a Loewy-length-3 input alike.
    M, N = syzygy_power(simple_module(conca32), 2), random_module(conca32, 1, 0, seed=0)
    assert N.loewy_length() == 3
    for X in (M, N):
        t = X.top_dim()
        assert projective_cover(X, cap=t * conca32.dim).cover_rank == t
        with monkeypatch.context() as patch:
            patch.setattr(homology, "free_module", None)
            with pytest.raises(ResourceCapExceeded) as info:
                projective_cover(X, cap=t * conca32.dim - 1)
        assert (info.value.dim, info.value.cap) == (t * conca32.dim, t * conca32.dim - 1)


# -- duals ----------------------------------------------------------------

def test_dual_of_regular_is_opposite_regular(lam0):
    reg = left_regular_module(lam0)
    d = a_dual(reg)
    assert d.algebra == lam0.opposite()
    assert is_isomorphic(d, left_regular_module(lam0.opposite()))


def test_dual_dimension_formula_on_conca_modules():
    # For a bipartite reflexive module of dim (t, s) the dual has dim
    # (s/a, a t); checked with the independent arithmetic on both factors.
    for (e, a) in [(2, 1), (3, 2), (4, 3)]:
        alg = preset("ex15_1", e=e, a=a)
        Ax = cyclic_x(alg)
        t, s = dim_vector(Ax)
        assert (t, s) == (1, a)
        dual = a_dual(Ax)
        assert tuple(dim_vector(dual)) == (s // a, a * t) == (1, a)
        double = direct_sum(Ax, Ax)
        t2, s2 = dim_vector(double)
        assert tuple(dim_vector(a_dual(double))) == (s2 // a, a * t2)


def test_dual_of_right_module_m1A(lam0):
    op = lam0.opposite()
    m1A = cyclic_submodule(op, [0, 1, -1, 0, 0, 0])
    assert dim_vector(m1A) == (1, 2)
    dual = a_dual(m1A)
    assert tuple(dim_vector(dual)) == (2, 1)
    # The dual lives back over the original algebra.
    assert dual.algebra == lam0


def test_dual_module_is_valid(conca32):
    Ax = cyclic_x(conca32)
    validate_module(a_dual(Ax))


# -- minimal left approximations -------------------------------------------

def test_approximation_of_regular_is_identity(lam0):
    reg = left_regular_module(lam0)
    u, z = minimal_left_approximation(reg)
    assert z == 1 and u.is_isomorphism()


def test_approximation_rank_of_simple():
    # S* is the left socle span{y, yx}; as a right module it is generated
    # by y alone (y*x = yx), so the approximation needs a single copy of A
    # and the second hom factors through it via right multiplication by x.
    alg = preset("ex9_3")
    S = simple_module(alg)
    assert hom_dim(S, left_regular_module(alg)) == 2
    u, z = minimal_left_approximation(S)
    assert z == 1
    assert u.is_injective()


def test_approximation_rank_on_reflexive_bipartite(conca32):
    # z = s / a for a bipartite reflexive module of dim (t, s).
    Ax = cyclic_x(conca32)
    _, z = minimal_left_approximation(Ax)
    assert z == dim_vector(Ax).s // conca32.a == 1


def test_mho_examples(qext, lam0, conca32):
    # Over a self-injective algebra, mho(S) = A / soc.
    S = simple_module(qext)
    m = mho_step(S).cokernel
    assert m.dim == qext.dim - 1
    assert dim_vector(m) == (1, 2)
    # mho of a projective vanishes.
    assert mho_step(left_regular_module(lam0)).cokernel.dim == 0
    # mho(Ax) keeps dimension vector (1, a) on the Conca family.
    assert tuple(dim_vector(mho_step(cyclic_x(conca32)).cokernel)) == (1, 2)


def test_mho_flags_non_torsionless(lam0):
    step = mho_step(m_alpha(lam0, 2))
    assert not step.injective


def test_mho_power(conca32):
    Ax = cyclic_x(conca32)
    assert tuple(dim_vector(mho_step(mho_step(Ax).cokernel).cokernel)) == (1, 2)


# -- evaluation, torsionless, reflexive ------------------------------------

def test_eval_map_is_module_map(lam0):
    for M in (m_alpha(lam0, 0), m_alpha(lam0, 1), m_alpha(lam0, 2)):
        ev = eval_map(M)
        assert ev.is_intertwiner()


def test_reflexivity_over_self_injective(qext):
    # Every module is reflexive over a self-injective algebra.
    S = simple_module(qext)
    assert is_torsionless(S) and is_reflexive(S)
    for seed in range(8):
        M = mod_j_squared(random_module(qext, 1 + seed % 2, seed % 3, seed=seed))
        if M.dim == 0:
            continue
        assert is_torsionless(M) and is_reflexive(M)


def test_simple_torsionless_not_reflexive(L2):
    S = simple_module(L2)
    assert is_torsionless(S)
    assert not is_reflexive(S)


def test_m_alpha_torsionless_pattern(lam0):
    assert not is_torsionless(m_alpha(lam0, 2))
    assert is_reflexive(m_alpha(lam0, 1))


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_reflexive_by_dimension_is_a_bijective_evaluation(field):
    # Reflexivity is decided by torsionlessness and dim M** = dim M; the
    # evaluation map, built in full, must be bijective exactly then.
    verdicts = []
    for M in _cover_inputs(field) + [radical_module(preset("L", field=field, e=2))]:
        ev = eval_map(M)
        bijective = ev.source.dim == ev.target.dim and ev.is_injective()
        assert is_reflexive(M) == bijective, M
        verdicts.append((bijective, is_torsionless(M)))
    assert {(True, True), (False, True), (False, False)} <= set(verdicts)


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_torsionless_is_a_rank_and_builds_no_map_matrix(field, monkeypatch):
    # The verdict is the rank of Hom(M, A)'s integer rows, regrouped by basis
    # map and target row; it is the kernel test on the stacked map matrices,
    # and neither it nor the reflexive verdict builds a map matrix.
    built, original = [], modules._LazyMap.matrix
    monkeypatch.setattr(modules._LazyMap, "matrix",
                        property(lambda f: built.append(f) or original.func(f)))
    L2 = preset("L", field=field, e=2)
    verdicts = set()
    for M in _cover_inputs(field) + [radical_module(L2), zero_module(L2)]:
        built.clear()
        torsionless, reflexive = is_torsionless(M), is_reflexive(M)
        assert built == [], M
        assert torsionless == vstack_torsionless(dual_data(M).homs), M
        verdicts.add((torsionless, reflexive, M.dim == 0))
    assert {(True, True, False), (True, False, False), (False, False, False),
            (True, True, True)} <= verdicts


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_the_approximation_builds_only_its_z_maps(field, monkeypatch):
    # u stacks the basis maps at the lift columns of M*, read off their flat
    # rows: no map matrix is built, and u is, in value and type, the stack of
    # the combinations of all basis maps (hom_basis) by the top lifts of M*.
    built, original = [], modules._LazyMap.matrix
    monkeypatch.setattr(modules._LazyMap, "matrix",
                        property(lambda f: built.append(f) or original.func(f)))
    cases = 0
    for M in _cover_inputs(field):
        data = dual_data(M)
        built.clear()
        step = data.approximation
        assert built == []
        homs = [f.matrix for f in hom_basis(M, data.homs.target)]
        combined = [combination(lam, homs) for lam in top_lift(data.module)]
        assert list(map(scalars, step.approximation.matrix.data)) == \
            [scalars(row) for g in combined for row in g.data]
        cases += 0 < step.rank < data.homs.dim
    assert cases >= 5


# -- transpose --------------------------------------------------------------

def test_transpose_of_projective_vanishes(lam0):
    assert transpose(left_regular_module(lam0)).dim == 0


def test_transpose_of_simple_over_L2(L2):
    tr = transpose(simple_module(L2))
    # Presentation A^2 -> A -> S: the dualized map has rank 1, so the
    # cokernel is 5-dimensional with top 2.
    assert tr.dim == 5
    assert tr.top_dim() == 2
    assert tr.algebra == L2.opposite()


def test_transpose_module_is_valid(lam0):
    validate_module(transpose(m_alpha(lam0, 1)))


# -- Ext ---------------------------------------------------------------------

def _simple_self_extension_count(alg):
    """Independent oracle for dim Ext^1(S, S).

    An extension of S by S is a module structure on k^2 with strictly
    lower-triangular generator actions [[0,0],[c_i,0]].  All products of
    such matrices vanish, so every relation of the algebra is satisfied
    for any parameter vector, and distinct vectors give non-equivalent
    extensions: the space is J/J^2-dual, of dimension e.
    """
    from shortloc.linalg import Matrix
    for lam in alg.product_kernel():
        zero = Matrix.zeros(alg.field, 2, 2)
        for trial in range(3):
            acts = []
            for i in range(alg.e):
                c = alg.field.of((trial * 7 + i * 3) % 5 - 2)
                acts.append(Matrix.from_rows(alg.field, [[0, 0], [c, 0]]))
            acc = zero
            for idx, coef in enumerate(lam):
                if coef:
                    i, j = divmod(idx, alg.e)
                    acc = acc + scale(acts[i] * acts[j], coef)
            assert is_zero(acc)
    return alg.e


def test_ext1_of_simple_matches_cocycle_oracle(L2, L3, qext):
    for alg in (L2, L3, qext, preset("ex9_3")):
        S = simple_module(alg)
        assert ext_dim(S, S, 1) == _simple_self_extension_count(alg)


def test_ext0_is_hom(lam0):
    M, N = m_alpha(lam0, 0), m_alpha(lam0, 1)
    assert ext_dim(M, N, 0) == hom_dim(M, N)
    assert ext_dim(M, M, 0) == hom_dim(M, M)


def test_ext_refuses_modules_over_different_algebras(lam0, L2):
    for fn in (ext_dims, ext_dim):
        with pytest.raises(AlgebraMismatch):
            fn(simple_module(lam0), simple_module(L2), 1)


def test_ext_of_simple_against_simple_equals_betti(conca32):
    # ext(M, S, i) = t_i(M) for minimal resolutions.
    M = cyclic_x(conca32)
    S = simple_module(conca32)
    table = betti(M, 3)
    for i in range(4):
        assert ext_dim(M, S, i) == table.values[i]


def test_ext_vanishing_over_self_injective(qext):
    S = simple_module(qext)
    reg = left_regular_module(qext)
    assert ext_dim(S, reg, 1) == 0
    M1 = cyclic_submodule(qext, [0, 1, -1, 0])
    exts = ext_dims(M1, M1, 10)
    assert all(exts[i] == 0 for i in range(2, 11))
    assert exts[1] >= 1


def test_ext_nonvanishing_without_self_injectivity(L2):
    assert ext_dim(simple_module(L2), left_regular_module(L2), 1) > 0


# -- stable homs and the dimension-shifting identities ----------------------

def test_stable_hom_from_projective_is_zero(lam0):
    reg = left_regular_module(lam0)
    assert stable_hom_dim(reg, m_alpha(lam0, 0)) == 0


def test_stable_hom_on_quantum_exterior(qext):
    # Hom(M_q, M_a) is one-dimensional but factors through a projective
    # whenever a is not 1.
    Mq = cyclic_submodule(qext, [0, 1, -2, 0])
    for aval in (0, 4, 8):
        Ma = cyclic_submodule(qext, [0, 1, -aval, 0])
        assert stable_hom_dim(Mq, Ma) == 0


def product_stable_hom_dim(M, N):
    """Stable Hom by products with the cover's column blocks, kept as the reference.

    Each basis map f of Hom(M, A) is composed with block k of the cover
    A^t -> N by the product block_k · f.
    """
    hb = hom_basis(M, N)
    if not hb:
        return 0
    pres = projective_cover(N)
    n = M.algebra.dim
    homs = hom_basis(M, left_regular_module(M.algebra))
    vecs = []
    for k in range(pres.cover_rank):
        block = Matrix(M.field, [row[k * n:(k + 1) * n] for row in pres.cover_map.matrix.data])
        vecs += [tuple(x for row in (block * f.matrix).data for x in row) for f in homs]
    return len(hb) - Subspace.from_vectors(M.field, N.dim * M.dim, vecs).dim


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_stable_hom_matches_the_product_formula_with_no_product(field, monkeypatch):
    lam = preset("lambda_c", field=field, c=1)
    conca = preset("ex15_1", field=field, e=3, a=2)
    mods = {lam: [m_alpha(lam, alpha) for alpha in (0, 1, 2)] + [simple_module(lam)],
            conca: [random_module(conca, 1 + s % 2, s % 3, seed=s) for s in range(3)]}
    for alg in mods:
        mods[alg] += [syzygy(M) for M in mods[alg][:2]] + [mod_j_squared(mods[alg][0])]
    # Projective targets, whose syzygy is zero, and A ⊕ S.
    extra = {alg: [free_module(alg, 2), direct_sum(left_regular_module(alg), simple_module(alg))]
             for alg in mods}
    original = Matrix.__mul__
    nonzero = square_zero = 0
    for alg, group in mods.items():
        for M in group:
            for N in group + extra[alg]:
                products = []
                with monkeypatch.context() as patch:
                    patch.setattr(Matrix, "__mul__",
                                  lambda a, b: products.append(a) or original(a, b))
                    value = stable_hom_dim(M, N)
                assert value == product_stable_hom_dim(M, N), (M, N)
                if N is extra[alg][0]:
                    assert value == 0 and syzygy(N).dim == 0, M
                if N.loewy_length() <= 2:
                    square_zero += 1
                    assert products == [], (M, N)
                nonzero += value > 0
    assert nonzero >= 10 and square_zero >= 30
    assert any(N.loewy_length() == 3 for group in mods.values() for N in group)


def test_stable_hom_reads_the_cover_rank_and_forms_no_cover_matrix(monkeypatch):
    # N has Loewy length 3: the stable Hom reads t = dim top N and ΩN off
    # N's one cover, so no cover matrix and no product is formed.
    alg = preset("ex15_1", e=3, a=2)
    M, N = random_module(alg, 1, 1, seed=1), random_module(alg, 1, 0, seed=0)
    assert N.loewy_length() == 3 and N.top_dim() * alg.dim == 6
    built = []
    monkeypatch.setattr(Matrix, "__mul__", lambda *args: built.append("product"))
    original = Matrix.from_sparse_columns
    monkeypatch.setattr(Matrix, "from_sparse_columns", staticmethod(
        lambda field, rows, cols: built.append((rows, len(cols))) or original(field, rows, cols)))
    covers = []
    monkeypatch.setattr(homology, "projective_cover", lambda X, cap=homology.DEFAULT_CAP,
                        _original=homology.projective_cover: covers.append(X) or _original(X, cap))
    assert stable_hom_dim(M, N) == 0
    assert covers == [N]
    assert (N.dim, 6) not in built and "product" not in built
    # The cap bounds t·dim A, as the cover would: 6 passes a cap of 6, not 5.
    assert stable_hom_dim(M, N, cap=6) == 0
    with pytest.raises(ResourceCapExceeded, match="dimension 6 exceeds cap 5"):
        stable_hom_dim(M, N, cap=5)


def test_ext_shift_identity(lam0):
    # For Z with Ext^1(Z, A) = 0: Ext^1(Z, N) = stable Hom(Omega Z, N).
    reg = left_regular_module(lam0)
    for Z in (m_alpha(lam0, 0), m_alpha(lam0, 2)):
        assert ext_dim(Z, reg, 1) == 0
        for N in (m_alpha(lam0, 1), simple_module(lam0)):
            assert ext_dim(Z, N, 1) == stable_hom_dim(syzygy(Z), N)


def test_ext_syzygy_shift_for_semi_gp(lam0):
    # For semi-GP M: Ext^i(M, N) = Ext^i(Omega M, Omega N), i >= 1.
    M = m_alpha(lam0, 2)
    assert is_semi_gp(M, 5).holds
    for N in (m_alpha(lam0, 1), m_alpha(lam0, 0)):
        OM, ON = syzygy(M), syzygy(N)
        for i in range(1, 4):
            assert ext_dim(M, N, i) == ext_dim(OM, ON, i)


# -- bounded predicates -------------------------------------------------------

def test_gp_family(lam0):
    assert is_gp(m_alpha(lam0, 0), 10).holds
    semi = is_semi_gp(m_alpha(lam0, 2), 10)
    assert semi.holds and semi.bound == 10
    assert is_inf_torsionfree(m_alpha(lam0, 1), 10).holds


def test_simple_is_not_semi_gp(L2):
    verdict = is_semi_gp(simple_module(L2), 1)
    assert not verdict.holds and verdict.failed_at == 1


def test_inf_torsionfree_fails_for_m_q(lam0):
    # M(q) is semi-GP but not torsionless, hence not GP.
    assert not is_gp(m_alpha(lam0, 2), 4).holds


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=str)
def test_gp_reads_one_resolution_for_both_scans(field, monkeypatch):
    # is_gp is the semi-GP scan of M, then, if it holds, that of the
    # transpose, each on a resolution of its own.  The second scan starts
    # at Ω^1 Tr M, read off M's presentation: it covers Ω^0 and, when
    # t_1 > 0, Ω^1, and not Tr M, so beyond the two scans' covers it makes
    # exactly one.  Its verdicts are those of the two scans spelled out.
    covers = []
    monkeypatch.setattr(homology, "projective_cover", lambda M, cap=homology.DEFAULT_CAP,
                        _original=homology.projective_cover: covers.append(M) or _original(M, cap))
    verdicts = set()
    for c in range(3):
        alg = preset("lambda_c", field=field, c=c)
        for alpha in (0, 1, 2, -1, 3, "1/2" if field == QQ else 5):
            M = m_alpha(alg, alpha)
            want, tr = two_resolution_is_gp(M, 4), transpose(M)
            covers.clear()
            semi = is_semi_gp(M, 4)
            if semi:
                is_semi_gp(tr, 4)
            scans = len(covers)
            covers.clear()
            got = is_gp(M, 4)
            assert got == want, (c, alpha)
            assert len(covers) == scans + bool(semi), (c, alpha)
            verdicts.add((bool(semi), got.holds))
    # Over F_7, q = 2 has finite order and M(q) fails the semi-GP scan too.
    assert verdicts == {(True, True), (False, False)} | ({(True, False)} if field == QQ else set())


def test_boundedness_is_recorded(lam0):
    v = is_semi_gp(m_alpha(lam0, 0), 3)
    assert isinstance(v, BoundedVerdict) and v.bound == 3


# -- resolution internals -----------------------------------------------------

def test_boundary_elements_lie_in_radical(conca32):
    D = boundary_elements(syzygy(cyclic_x(conca32)))
    for row in D:
        for elt in row:
            assert not elt[0]


def test_dual_data_actions_are_consistent(conca32):
    data = dual_data(cyclic_x(conca32))
    validate_module(data.module)


# -- the resolution engine builds only what is read ---------------------------

@pytest.fixture
def calls(monkeypatch):
    """Arguments of each call the homology module makes to its two builders, covers and
    modules from action columns, and each module held by its columns, A^t or a syzygy,
    that builds its action matrices."""
    seen = {"projective_cover": [], "module_from_columns": [], "actions": []}
    for name in ("projective_cover", "module_from_columns"):
        def counted(*args, _original=getattr(homology, name), _log=seen[name], **kwargs):
            _log.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(homology, name, counted)
    build = AModule.actions.func
    actions = cached_property(lambda M: seen["actions"].append((M,)) or build(M))
    actions.__set_name__(AModule, "actions")
    monkeypatch.setattr(AModule, "actions", actions)
    return seen


def _take(calls) -> tuple[int, int, int]:
    """(covers, modules from columns, built action matrices) since the last take."""
    counts = tuple(len(log) for log in calls.values())
    for log in calls.values():
        log.clear()
    return counts


def test_betti_covers_exactly_n_syzygies(calls, conca32, qext):
    # t_n is read off the shadow of Omega^n: n covers, and no syzygy's
    # action matrices are built.
    for M in (simple_module(conca32), cyclic_x(conca32), simple_module(qext)):
        for n in range(6):
            betti(M, n)
            assert _take(calls) == (n, 0, 0)


def test_ext_never_builds_the_syzygy_past_its_last_cover(calls, conca32, lam0):
    # Ext^i reads Hom(Omega^i, N), whose relations are the shadow of
    # Omega^{i+1}: the covers of Omega^0..Omega^i, never the cover of
    # Omega^{i+1}; no syzygy module is built.  Omega^1 of cyclic_x repeats
    # itself, so its scan covers Omega^0 and Omega^1 alone.
    S = simple_module(conca32)
    cases = [(S, left_regular_module(conca32), 5), (cyclic_x(conca32), S, 2),
             (m_alpha(lam0, 2), m_alpha(lam0, 1), 5)]
    for M, N, stop in cases:
        syzygy_dims = [syzygy_power(M, k).dim for k in range(1, 6)]
        _take(calls)
        for i in range(4):
            ext_dims(M, N, i)
            covered = [X.dim for X, in calls["projective_cover"][1:]]
            assert covered == syzygy_dims[:min(i, stop - 1)]
            assert _take(calls) == (min(i + 1, stop), 0, 0)


def test_predicates_and_transpose_stop_at_what_they_read(calls, lam0, L2):
    # The semi-GP scan reads Ext^0..Ext^bound, or stops at the first
    # non-zero Ext^i; the transpose reads d_1; stable Hom reads N's one
    # cover, for the rank t and the syzygy ΩN.
    assert is_semi_gp(m_alpha(lam0, 2), 4).holds
    assert _take(calls) == (5, 0, 0)
    assert is_semi_gp(simple_module(L2), 5).failed_at == 1
    assert _take(calls) == (2, 0, 0)
    transpose(m_alpha(lam0, 1))
    assert _take(calls) == (2, 0, 0)
    stable_hom_dim(m_alpha(lam0, 0), m_alpha(lam0, 1))
    assert _take(calls) == (1, 0, 0)


@pytest.mark.parametrize("bound", [0, -1])
def test_bounded_predicates_refuse_a_bound_below_one_before_any_cover(calls, lam0, bound):
    M = m_alpha(lam0, 2)
    for predicate in (is_semi_gp, is_gp, is_inf_torsionfree):
        with pytest.raises(BadParams, match="bound must be at least 1") as refused:
            predicate(M, bound)
        assert isinstance(refused.value, ShortlocError), predicate
        assert _take(calls) == (0, 0, 0), predicate


def test_resolution_reuses_its_steps(calls, conca32, monkeypatch):
    built = []
    original = Matrix.from_sparse_columns
    monkeypatch.setattr(Matrix, "from_sparse_columns", staticmethod(
        lambda field, rows, columns: built.append(rows) or original(field, rows, columns)))
    S = simple_module(conca32)
    steps = list(islice(resolution(S), 3))
    first = [S] + [step.kernel for step in steps]
    # Each step covers the kernel of the step before.
    assert all(step.module is X for step, X in zip(steps, first))
    assert [M.top_dim() for M in first] == list(betti(S, 3).values)
    # Three covers for the walk, three more for ``betti``'s own; no module.
    assert _take(calls) == (6, 0, 0)
    # A syzygy's actions are built once, on first read: e matrices of its dimension.
    assert built == []
    assert first[3].actions is first[3].actions
    assert built == [first[3].dim] * conca32.e
    assert calls["actions"] == [(first[3],)]


# -- the dual engine solves Hom(M, A) once per module ------------------------

@pytest.fixture
def hom_into_a(monkeypatch):
    """Sources of each Hom(-, A) solved, over A or over the opposite algebra."""
    seen = []

    def counted(M, N, _original=modules.hom_space):
        if N.free_rank == 1:
            seen.append(M)
        return _original(M, N)
    for mod in (modules, homology):
        monkeypatch.setattr(mod, "hom_space", counted)
    return seen


def test_mho_path_solves_one_dual_per_module(hom_into_a, conca32):
    record = mho_path(cyclic_x(conca32), 4)
    assert record.terminated_reason is None
    assert [M.dim for M in hom_into_a] == [s.dim for s in record.steps[:-1]]


@pytest.fixture
def hom_targets(monkeypatch):
    """Targets of each hom_space solve."""
    seen = []

    def counted(M, N, _original=modules.hom_space):
        seen.append(N)
        return _original(M, N)
    for mod in (modules, homology):
        monkeypatch.setattr(mod, "hom_space", counted)
    return seen


def test_stable_hom_solves_no_hom_into_a_free_module_of_rank_two(hom_targets, lam0):
    # The maps through the cover A^2 -> N are counted by dim Hom(M, A) and
    # dim Hom(M, ΩN), two ranks: no Hom basis is solved for any target.
    M = m_alpha(lam0, 0)
    N = direct_sum(M, m_alpha(lam0, 1))
    assert projective_cover(N).cover_rank == 2
    hom_targets.clear()
    assert stable_hom_dim(M, N) == stable_hom_dim(M, M) + stable_hom_dim(M, m_alpha(lam0, 1))
    assert hom_targets == []


def test_stable_homs_from_one_module_solve_hom_into_a_once(hom_into_a, lam0):
    # dim Hom(M, A) is a rank, so five targets solve no Hom(M, A) basis.
    M = m_alpha(lam0, 0)
    targets = [M, m_alpha(lam0, 1), m_alpha(lam0, 2), simple_module(lam0),
               direct_sum(M, m_alpha(lam0, 1))]
    assert all(hom_dim(M, N) for N in targets)
    values = [stable_hom_dim(M, N) for N in targets]
    assert hom_into_a == []
    assert values == [stable_hom_dim(m_alpha(lam0, 0), N) for N in targets]


def test_forward_walk_solves_one_dual_per_step(hom_into_a, qext):
    # Hom(M, A) once for each module the forward walk steps through, the
    # first, J, serving the torsionless check too; reflexivity takes
    # dim Hom(M*, A^op) by rank, with no basis solved.
    J = radical_module(qext)
    cls = classify_complex(J, 1, 3)
    assert cls.forward_verified and cls.period is None
    assert len(hom_into_a) == 3 and hom_into_a[0] is J


# -- vectors are mapped by matrix products ------------------------------------

def test_engines_map_vectors_by_products_only(monkeypatch, conca32, lam0):
    # Covers, induced actions, boundaries, closures and the Kronecker shadow
    # map whole bases with one product each, never vector by vector.
    applied = []
    original = Matrix.apply

    def counted(self, vec):
        applied.append(self)
        return original(self, vec)
    monkeypatch.setattr(Matrix, "apply", counted)
    S = simple_module(conca32)
    assert betti(S, 4).values == (1, 3, 7, 15, 31)
    ext_dims(S, left_regular_module(conca32), 2)
    transpose(m_alpha(lam0, 1))
    tilde(cyclic_x(conca32))
    mod_j_squared(random_module(conca32, 2, 1, seed=0))
    assert applied == []


def test_betti_builds_the_regular_action_once(monkeypatch):
    # Every cover of the ladder reads the algebra's one regular action.
    calls = []
    original = ShortAlgebra.left_mult_matrix

    def counted(self, u):
        calls.append(tuple(u))
        return original(self, u)
    monkeypatch.setattr(ShortAlgebra, "left_mult_matrix", counted)
    alg = preset("ex15_1", e=3, a=2)
    assert betti(simple_module(alg), 5).values == (1, 3, 7, 15, 31, 63)
    assert len(calls) <= alg.e


def test_syzygy_covers_form_no_square_products_of_their_size(monkeypatch):
    # The J^2 action is applied to the top lifts, never formed as a product
    # of two d x d actions of a syzygy of dimension d.
    shapes = []
    original = Matrix.__mul__

    def counted(self, other):
        shapes.append((self.rows, self.cols, other.rows, other.cols))
        return original(self, other)
    monkeypatch.setattr(Matrix, "__mul__", counted)
    alg = preset("ex15_1", e=3, a=2)
    left_regular_module(alg).actions[0] * left_regular_module(alg).actions[1]
    assert shapes == [(alg.dim,) * 4]  # the patched product records
    shapes.clear()
    ladder = omegas(simple_module(alg), 5)
    assert [M.top_dim() for M in ladder] == [1, 3, 7, 15, 31, 63]
    dims = {M.dim for M in ladder[1:]}
    assert shapes == [] and dims == {5, 13, 29, 61, 125}
    assert [s for s in shapes if len(set(s)) == 1 and s[0] in dims] == []
