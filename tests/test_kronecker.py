import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shortloc.algebra import ShortAlgebra
from shortloc.errors import AlgebraMismatch, BadParams, NotSelfInjective
from shortloc.homology import ext_dim
from shortloc.kronecker import (KroneckerRep, hom_decomposition_check,
                                kronecker_hom_dim, multiplication_form, push_down,
                                rep_as_module, rep_dual, sigma_reflection, tilde,
                                verify_sigma_omega)
from shortloc.linalg import QQ, Field, Fp, Matrix
from shortloc.modules import (cyclic_submodule, dim_vector, end_dim, is_isomorphic,
                              left_regular_module, mod_j_squared, pivot_columns, radical_module,
                              random_module, simple_module, simple_multiplicity)
from shortloc.numerics import q_form
from shortloc.presets import preset

from references import reference_kronecker_hom_dim, scalars, typed_images, typed_phi_kernel


def rep_S0(e):
    return KroneckerRep(e=e, dim0=1, dim1=0,
                        maps=tuple(Matrix.zeros(QQ, 0, 1) for _ in range(e)))


def rep_S1(e):
    return KroneckerRep(e=e, dim0=0, dim1=1,
                        maps=tuple(Matrix.zeros(QQ, 1, 0) for _ in range(e)))


# -- tilde ------------------------------------------------------------------

def test_tilde_of_simple(L2):
    rep = tilde(simple_module(L2))
    assert rep.dim_vector == (1, 0)
    assert all(phi.is_zero() for phi in rep.maps)


def test_tilde_of_regular_L2(L2):
    rep = tilde(left_regular_module(L2))
    assert rep.dim_vector == (1, 2)
    # The two maps are the coordinate inclusions of the radical.
    cols = sorted(tuple(phi.col(0)) for phi in rep.maps)
    assert cols == [(QQ.of(0), QQ.of(1)), (QQ.of(1), QQ.of(0))]


def test_tilde_of_radical_qexterior(qext):
    assert tilde(radical_module(qext)).dim_vector == (2, 1)


def test_tilde_dim_matches_dim_vector(conca32):
    for seed in range(10):
        M = mod_j_squared(random_module(conca32, 1 + seed % 2, seed % 3, seed=seed))
        if M.dim == 0:
            continue
        assert tilde(M).dim_vector == tuple(dim_vector(M))


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=str)
def test_tilde_reads_the_coordinates_at_the_pivots(field):
    # The maps' columns are the top images' entries at the radical's pivots,
    # value and type, as the stability-checked route (pivot_columns) gives them.
    checked = 0
    for name, kw in [("L", {"e": 3}), ("ex15_1", {"e": 3, "a": 2}), ("lambda_c", {"c": 1})]:
        alg = preset(name, field=field, **kw)
        for seed in range(8):
            M = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 4, seed=seed))
            want = [Matrix.from_sparse_columns(field, M.radical().dim, cols)
                    for cols in pivot_columns(M.radical(), M.top_images(), alg.e)]
            assert [list(map(scalars, X.data)) for X in tilde(M).maps] == \
                [list(map(scalars, X.data)) for X in want]
            checked += M.radical().dim > 0
    assert checked >= 20


# -- push-down ----------------------------------------------------------------

def test_push_down_simple(L2):
    M = push_down(rep_S0(2), L2)
    assert M.dim == 1 and is_isomorphic(M, simple_module(L2))


def test_push_down_requires_radical_square_zero(qext):
    with pytest.raises(AlgebraMismatch):
        push_down(rep_S0(2), qext)
    with pytest.raises(AlgebraMismatch):
        push_down(rep_S0(3), preset("L", e=2))


def test_push_down_preserves_dim_vector(L3):
    from shortloc.linalg import random_matrix
    rep = KroneckerRep(e=3, dim0=2, dim1=3,
                       maps=tuple(random_matrix(QQ, 3, 2, seed=s) for s in range(3)))
    M = push_down(rep, L3)
    assert tuple(dim_vector(M)) == (2, 3)


def test_round_trip_random_modules(L2, L3):
    # push_down(tilde(M)) recovers M for Loewy-length <= 2 modules.
    count = 0
    for alg in (L2, L3):
        for seed in range(50):
            M = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 4, seed=seed))
            if M.dim == 0:
                continue
            count += 1
            assert is_isomorphic(push_down(tilde(M), alg), M, seed=seed)
    assert count >= 100


# -- hom decomposition ----------------------------------------------------------

def test_hom_dims_of_simples():
    assert kronecker_hom_dim(rep_S0(2), rep_S0(2)) == 1
    assert kronecker_hom_dim(rep_S0(2), rep_S1(2)) == 0


def test_hom_decomposition_simple_cases(L2):
    S = simple_module(L2)
    assert hom_decomposition_check(S, S)
    reg = left_regular_module(L2)
    assert end_dim(reg) == 3
    assert kronecker_hom_dim(tilde(reg), tilde(reg)) == 1
    assert hom_decomposition_check(reg, reg)


def test_hom_decomposition_sweep(L2, L3):
    checked = 0
    for alg in (L2, L3):
        for seed in range(16):
            M = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 3, seed=seed))
            N = mod_j_squared(random_module(alg, 1 + (seed + 1) % 2, (seed + 1) % 3,
                                            seed=seed + 1000))
            if M.dim == 0 or N.dim == 0:
                continue
            assert hom_decomposition_check(M, N)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=str)
def test_hom_decomposition_without_arrows(field):
    # Over k (e = 0) a representation has no maps to read a field from:
    # dim Hom(S, S) = 1 on both sides, and the Kronecker Hom is n0 + n1.
    k = ShortAlgebra(field, 0, 0, {})
    S = simple_module(k)
    assert tilde(S).maps == () and kronecker_hom_dim(tilde(S), tilde(S)) == 1
    assert hom_decomposition_check(S, S)
    two = KroneckerRep(e=0, dim0=2, dim1=3, maps=())
    assert kronecker_hom_dim(two, two) == 2 * 2 + 3 * 3
    assert kronecker_hom_dim(two, rep_dual(two)) == 2 * 3 + 3 * 2


def random_rep(rng, field, e, dim0, dim1):
    pool = [field.of(x) for x in (-2, -1, 0, 0, 0, 1, 2)]
    return KroneckerRep(e=e, dim0=dim0, dim1=dim1, maps=tuple(
        Matrix(field, [[rng.choice(pool) for _ in range(dim0)] for _ in range(dim1)], cols=dim0)
        for _ in range(e)))


def test_kronecker_hom_dim_reads_maps_with_no_rows():
    # (k^2, 0) has maps with no rows but two columns each: g0 must still be
    # killed by phiB on the arrow where phiB is 1, so there is no Hom.
    two = KroneckerRep(e=2, dim0=2, dim1=0, maps=(Matrix.zeros(QQ, 0, 2),) * 2)
    target = KroneckerRep(e=2, dim0=1, dim1=1, maps=(Matrix.identity(QQ, 1),
                                                      Matrix.zeros(QQ, 1, 1)))
    assert kronecker_hom_dim(two, target) == reference_kronecker_hom_dim(two, target) == 0
    assert kronecker_hom_dim(target, two) == reference_kronecker_hom_dim(target, two) == 2
    assert kronecker_hom_dim(two, two) == 4


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=str)
def test_kronecker_hom_dim_matches_the_equations_it_replaced(field):
    rng, no_rows = random.Random(23), 0
    for _ in range(300):
        e = rng.randint(1, 3)
        A = random_rep(rng, field, e, rng.randint(0, 3), rng.randint(0, 3))
        B = random_rep(rng, field, e, rng.randint(0, 3), rng.randint(0, 3))
        assert kronecker_hom_dim(A, B) == reference_kronecker_hom_dim(A, B), (A, B)
        no_rows += A.dim1 == 0 < A.dim0
    assert no_rows >= 20


# -- reflection -------------------------------------------------------------------

def test_multiplication_form_of_qexterior(qext):
    beta = multiplication_form(qext)
    # x*x = 0, x*y = -q yx, y*x = yx, y*y = 0 with q = 2.
    assert beta == Matrix.from_rows(QQ, [[0, -2], [1, 0]])


def test_sigma_kills_simple_projective(qext):
    out = sigma_reflection(qext, rep_S1(2))
    assert out.dim_vector == (0, 0)


def test_sigma_dimension_action(qext):
    rep = tilde(radical_module(qext))
    out = sigma_reflection(qext, rep)
    assert rep.dim_vector == (2, 1) and out.dim_vector == (3, 2)


def test_sigma_requires_self_injective():
    with pytest.raises(NotSelfInjective):
        sigma_reflection(preset("ex9_3"), rep_S0(2))


def test_sigma_omega_compatibility(qext):
    J = radical_module(qext)
    assert verify_sigma_omega(qext, J)
    Mxy = cyclic_submodule(qext, [0, 1, -1, 0])
    Mx2y = cyclic_submodule(qext, [0, 1, -2, 0])
    assert verify_sigma_omega(qext, Mxy)
    assert verify_sigma_omega(qext, Mx2y)
    # A/J^2 has an injective big Phi: the reflection has an empty kernel
    # space and lands on the simple J^2 = Omega(A/J^2).
    top = mod_j_squared(left_regular_module(qext))
    assert sigma_reflection(qext, tilde(top)).dim_vector == (0, 1)
    assert verify_sigma_omega(qext, top)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([QQ, Field.prime(32003)]), st.sampled_from(["2", "3", "-1/2"]),
       st.integers(1, 4), st.integers(0, 4), st.integers(0, 10**6))
def test_sigma_omega_on_random_modules(field, q, gens, rels, seed):
    # The reflection of the Kronecker shadow against the syzygy from the
    # projective cover, on seeded Loewy-length <= 2 modules over qexterior
    # without a simple summand.
    alg = preset("qexterior", field=field, q=q)
    M = mod_j_squared(random_module(alg, gens, rels, seed=seed))
    assume(simple_multiplicity(M) == 0)
    assert verify_sigma_omega(alg, M), (field, q, gens, rels, seed)


def typed_sigma_columns(alg, rep):
    """The reflection's maps by the typed route, as columns: the typed kernel of Phi, the typed
    images of its V-rows through the structure constants, read at the J^2-coordinates.

    A typed sum may hold an integral ``Fraction``; each value is taken as the
    field's own scalar (``Field.of``), an ``int`` when it is integral.
    """
    n, e, field = alg.dim, alg.e, alg.field
    columns = [[{r: x for r, x in enumerate(phi.col(u)) if x} for phi in rep.maps]
               for u in range(rep.dim0)]
    space = typed_phi_kernel(alg, columns)
    images = typed_images(alg, space)
    lifts = [p for p in space.pivots if p % n <= e]
    return [[scalars([field.of(images[p][j].get(u * n + n - 1, 0)) for u in range(rep.dim0)])
             for p in lifts] for j in range(e)]


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_sigma_maps_match_the_typed_route(field):
    compared = fractional = 0
    for q in ("2", "3", "-1/2"):
        alg = preset("qexterior", field=field, q=q)
        reps = [tilde(radical_module(alg)), tilde(mod_j_squared(left_regular_module(alg)))]
        reps += [tilde(mod_j_squared(random_module(alg, 1 + seed % 3, seed % 4, seed=seed)))
                 for seed in range(8)]
        rep = rep_S0(2) if field == QQ else None
        for _ in range(3 if rep else 0):
            rep = sigma_reflection(alg, rep)
            reps.append(rep)
        for rep in reps:
            if rep.dim0 == 0:
                continue
            out = sigma_reflection(alg, rep)
            got = [[scalars(phi.col(k)) for k in range(phi.cols)] for phi in out.maps]
            assert got == typed_sigma_columns(alg, rep), (field, q, rep.dim_vector)
            compared += out.dim0 > 0
            fractional += any(t not in (int, Fp) for phi in got for col in phi for t, _ in col)
    assert compared >= 20
    assert fractional > 0 if field == QQ else fractional == 0


def test_sigma_omega_excludes_simple_summands(qext):
    with pytest.raises(BadParams):
        verify_sigma_omega(qext, simple_module(qext))


def test_sigma_orbit_reaches_preinjectives(qext):
    # Applying the reflection repeatedly to S(0) walks the preinjective
    # dimension vectors (b_i, b_{i-1}).
    rep = rep_S0(2)
    dims = []
    for _ in range(4):
        rep = sigma_reflection(qext, rep)
        dims.append(rep.dim_vector)
    assert dims == [(2, 1), (3, 2), (4, 3), (5, 4)]


# -- extension behaviour along the shadow -------------------------------------------

def test_regular_shadow_forces_self_extensions(L2, L3):
    # Bipartite module with non-positive form value: Ext^1(M, M) != 0.
    hits = 0
    for alg in (L2, L3):
        for seed in range(12):
            M = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 3, seed=seed))
            if M.dim == 0 or M.top_dim() == 0 or M.radical().dim == 0:
                continue
            if q_form(alg.e, tuple(dim_vector(M))) <= 0:
                assert ext_dim(M, M, 1) >= 1
                hits += 1
    assert hits >= 4


def test_rigid_modules_from_reflection_orbit(qext, L2):
    # The preinjective and preprojective push-downs have no self-extensions.
    rep = rep_S0(2)
    for i in range(1, 4):
        rep = sigma_reflection(qext, rep)
        Q = push_down(rep, L2)
        assert ext_dim(Q, Q, 1) == 0, f"preinjective {i}"
        P = push_down(rep_dual(rep), L2)
        assert ext_dim(P, P, 1) == 0, f"preprojective {i}"
        assert q_form(2, rep.dim_vector) == 1


def test_rep_as_module_valid_over_self_injective(qext):
    from shortloc.modules import validate_module
    rep = sigma_reflection(qext, tilde(radical_module(qext)))
    M = rep_as_module(rep, qext)
    validate_module(M)
