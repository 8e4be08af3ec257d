"""Dual-route checks: recompute key invariants by independent methods.

The resolution-based Ext is checked against a direct count of extension
classes (cocycles modulo coboundaries on the action matrices) and against
the cokernel of restriction to a syzygy, and the main constructions are
exercised over a prime field as well as over Q.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortloc.homology import (a_dual, betti, ext_dim, ext_dims, is_reflexive, is_torsionless,
                               left_regular_module, mho_step, projective_cover, resolution,
                               stable_hom_dim, syzygy, syzygy_power, transpose)
from shortloc.kronecker import tilde
from shortloc.linalg import QQ, Field, Fp, Matrix, Rational, Subspace, kernel_basis
from shortloc.modules import (AModule, cyclic_submodule, dim_vector, hom_basis, hom_dim,
                              is_isomorphic, m_alpha, mod_j_squared, module_from_subspace,
                              quotient, random_module, simple_module)
from shortloc.presets import preset, preset_names

from references import (action_rows_over_scale, boundary_elements, kernel_embedding, omegas,
                        plain_apply, plain_basis_images, scaled_sum_action, top_lift)

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=["Q", "F32003"])


def ext1_by_extension_classes(M, N):
    """Independent Ext^1(M, N): extension classes counted directly.

    An extension 0 -> N -> E -> M -> 0 amounts to blocks C_1..C_e making
    the matrices [[X^N_i, C_i], [0, X^M_i]] a module; the product
    relations and vanishing triple products of E are linear constraints on
    the C_i.  Two extensions are equivalent iff the blocks differ by
    X^N_i F - F X^M_i for a single F, so Ext^1 is the cocycle dimension
    minus the coboundary dimension.  No projective resolution is used.
    """
    alg = M.algebra
    e, dn, dm = alg.e, N.dim, M.dim
    if dn == 0 or dm == 0:
        return 0
    field = alg.field
    zero = field.zero()
    nunk = e * dn * dm

    def idx(i, r, c):
        return i * dn * dm + r * dm + c

    rows = []
    # Product relations of the algebra on the off-diagonal block.
    for lam in alg.product_kernel():
        pairs = [(divmod(p, e), coef) for p, coef in enumerate(lam) if coef]
        for r in range(dn):
            for c in range(dm):
                row = [zero] * nunk
                for (i, j), coef in pairs:
                    for k in range(dn):
                        a = N.actions[i].data[r][k]
                        if a:
                            row[idx(j, k, c)] = row[idx(j, k, c)] + coef * a
                    for k in range(dm):
                        b = M.actions[j].data[k][c]
                        if b:
                            row[idx(i, r, k)] = row[idx(i, r, k)] + coef * b
                if any(row):
                    rows.append(row)
    # Triple products vanish: X^N_i X^N_j C_k + X^N_i C_j X^M_k
    # + C_i X^M_j X^M_k = 0.
    nn = {(i, j): N.actions[i] * N.actions[j] for i in range(e) for j in range(e)}
    mm = {(j, k): M.actions[j] * M.actions[k] for j in range(e) for k in range(e)}
    for i in range(e):
        for j in range(e):
            for k in range(e):
                for r in range(dn):
                    for c in range(dm):
                        row = [zero] * nunk
                        for s in range(dn):
                            a = nn[(i, j)].data[r][s]
                            if a:
                                row[idx(k, s, c)] = row[idx(k, s, c)] + a
                        for s in range(dn):
                            a = N.actions[i].data[r][s]
                            if a:
                                for t in range(dm):
                                    b = M.actions[k].data[t][c]
                                    if b:
                                        row[idx(j, s, t)] = row[idx(j, s, t)] + a * b
                        for t in range(dm):
                            b = mm[(j, k)].data[t][c]
                            if b:
                                row[idx(i, r, t)] = row[idx(i, r, t)] + b
                        if any(row):
                            rows.append(row)
    if rows:
        cocycles = len(kernel_basis(Matrix(field, rows, cols=nunk)))
    else:
        cocycles = nunk
    # Coboundaries: the image of F -> (X^N_i F - F X^M_i)_i, whose kernel
    # is exactly Hom(M, N).
    coboundaries = dn * dm - hom_dim(M, N)
    return cocycles - coboundaries


def ext_by_restriction(M, N, i):
    """Ext^i(M, N), i >= 1, as the cokernel of Hom(P, N) -> Hom(Omega^i M, N).

    P -> Omega^{i-1} M is a projective cover with kernel Omega^i M, so
    Ext^i(M, N) = Ext^1(Omega^{i-1} M, N) is dim Hom(Omega^i M, N) minus the
    rank of restriction along Omega^i M -> P.  No Hom-complex is formed.
    """
    pres = projective_cover(syzygy_power(M, i - 1))
    emb = kernel_embedding(pres).matrix
    restricted = [f.matrix * emb for f in hom_basis(pres.cover_map.source, N)]
    flat = [tuple(x for row in r.data for x in row) for r in restricted]
    image = Subspace.from_vectors(M.field, N.dim * emb.cols, flat)
    return hom_dim(pres.kernel, N) - image.dim


@FIELDS
def test_ext_hom_complex_matches_restriction_route(field):
    cases = [("lambda_c", {"c": 0}), ("qexterior", {}), ("ex15_1", {"e": 3, "a": 2})]
    for name, kw in cases:
        alg = preset(name, field=field, **kw)
        coords = [0] * alg.dim
        coords[1] = 1
        S, Ax = simple_module(alg), cyclic_submodule(alg, coords)
        for M in (S, Ax):
            for N in (S, Ax, left_regular_module(alg)):
                exts = ext_dims(M, N, 3)
                for i in range(1, 4):
                    assert exts[i] == ext_by_restriction(M, N, i), (alg.name, i)


def _samples(alg, count=4):
    out = [simple_module(alg)]
    for seed in range(count):
        M = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 3, seed=seed))
        if M.dim:
            out.append(M)
    return out


def test_ext1_matches_extension_class_count(lam0, conca32, qext):
    algebras = [lam0, conca32, qext, preset("ex9_3")]
    pairs_checked = 0
    for alg in algebras:
        mods = _samples(alg)
        if alg.tags.get("preset") == "lambda_c":
            mods += [m_alpha(alg, 0), m_alpha(alg, 1)]
        for M in mods:
            for N in mods:
                if M.dim * N.dim > 36:
                    continue
                assert ext_dim(M, N, 1) == ext1_by_extension_classes(M, N), \
                    (alg.name, M.dim, N.dim)
                pairs_checked += 1
    assert pairs_checked >= 40


def test_ext1_oracle_on_loewy_three_modules(lam0):
    # The oracle also covers modules of Loewy length 3.
    reg = left_regular_module(lam0)
    Q, _ = quotient(reg, reg.socle())  # soc A lies in J
    S = simple_module(lam0)
    assert ext_dim(Q, S, 1) == ext1_by_extension_classes(Q, S)
    assert ext_dim(S, Q, 1) == ext1_by_extension_classes(S, Q)


def test_mho_of_simple_is_regular_mod_socle(qext):
    # Over a self-injective algebra: mho(S) = A / soc A.
    S = simple_module(qext)
    reg = left_regular_module(qext)
    target, _ = quotient(reg, reg.socle())
    assert is_isomorphic(mho_step(S).cokernel, target)


_RANDOM_CASES = [("L", {"e": 2}), ("qexterior", {}), ("lambda_c", {"c": 0}),
                 ("ex15_1", {"e": 3, "a": 2})]


def _random_pairs(field, seeds=8):
    """Seeded random modules and their J^2-quotients over four presets."""
    for name, kw in _RANDOM_CASES:
        alg = preset(name, field=field, **kw)
        for seed in range(seeds):
            M = random_module(alg, 1 + seed % 2, 1 + seed % 3, seed=seed)
            yield alg, seed, M, mod_j_squared(M)


@FIELDS
def test_dual_predicates_match_the_cosyzygy_route(field):
    # The left approximation M -> A^z is injective iff M is torsionless,
    # and a torsionless M is reflexive iff its cosyzygy is torsionless:
    # the evaluation map M -> M** against the mho route.
    reflexive_verdicts = []
    for alg, seed, *mods in _random_pairs(field):
        for N in mods:
            step = mho_step(N)
            assert is_torsionless(N) == step.injective, (alg.name, seed)
            if step.injective:
                reflexive = is_reflexive(N)
                assert reflexive == is_torsionless(step.cokernel), (alg.name, seed)
                reflexive_verdicts.append(reflexive)
    assert reflexive_verdicts.count(True) >= 20 and reflexive_verdicts.count(False) >= 5


def stable_hom_by_cover_homs(M, N):
    """dim of the stable Hom with Hom(M, P) solved directly for the cover P -> N.

    Every homomorphism into the free module P is composed with the cover;
    the Hom(M, A) basis is not used.
    """
    hb = hom_basis(M, N)
    if not hb:
        return 0
    pres = projective_cover(N)
    comps = [pres.cover_map.matrix * h.matrix for h in hom_basis(M, pres.cover_map.source)]
    flat = [tuple(x for row in c.data for x in row) for c in comps]
    return len(hb) - Subspace.from_vectors(M.field, N.dim * M.dim, flat).dim


@FIELDS
def test_stable_hom_matches_homs_into_the_cover(field):
    factoring = 0
    for alg, seed, M, M2 in _random_pairs(field, seeds=4):
        for X in (M, M2):
            for Y in (M2, simple_module(alg)):
                stable = stable_hom_dim(X, Y)
                assert stable == stable_hom_by_cover_homs(X, Y), (alg.name, seed)
                factoring += stable < hom_dim(X, Y)
    assert factoring >= 10


@FIELDS
def test_transpose_dimension_from_the_dual_sequence(field):
    # 0 -> M* -> P_0* -> P_1* -> Tr M -> 0 is exact.
    for alg, seed, *mods in _random_pairs(field, seeds=5):
        for M in mods:
            expected = (syzygy(M).top_dim() - M.top_dim()) * alg.dim + a_dual(M).dim
            assert transpose(M).dim == expected, (alg.name, seed)


@FIELDS
def test_boundaries_compose_to_zero(field):
    # d_j(d_{j+1}(unit_l)) has m-th component sum_k D_{j+1}[l][k] D_j[k][m];
    # ``cancelled`` counts the sums whose terms are not all zero.
    checks = cancelled = 0
    for alg, seed, *mods in _random_pairs(field, seeds=3):
        for M in mods:
            ladder = omegas(M, 3)
            for j in (1, 2):
                lower, upper = boundary_elements(ladder[j]), boundary_elements(ladder[j + 1])
                for row in upper:
                    for m in range(ladder[j - 1].top_dim()):
                        terms = [alg.mul(g, lower[k][m]) for k, g in enumerate(row)]
                        assert not any(sum(c, alg.field.zero()) for c in zip(*terms)), \
                            (alg.name, seed, j)
                        checks += 1
                        cancelled += any(map(any, terms))
    assert checks >= 100 and cancelled >= 40


def assert_induced_actions(M, sub, emb):
    # X·emb = emb·X_sub, both sides column by column with plain sums.
    for X, Y in zip(M.actions, sub.actions):
        for j in range(sub.dim):
            assert plain_apply(X, emb.matrix.col(j)) == plain_apply(emb.matrix, Y.col(j))


@FIELDS
def test_products_match_plain_sums(field):
    # Every engine that maps a basis by one matrix product, against X·v
    # summed entry by entry.
    checked = {"kernel": 0, "radical": 0, "cover": 0, "tilde": 0, "boundary": 0,
               "projection": 0, "quotient": 0}
    for alg, seed, *mods in _random_pairs(field, seeds=4):
        n = alg.dim
        for M in mods:
            pres = projective_cover(M)
            assert_induced_actions(pres.cover_map.source, pres.kernel, kernel_embedding(pres))
            assert_induced_actions(M, *module_from_subspace(M, M.radical()))
            checked["kernel"] += pres.kernel.dim > 0
            checked["radical"] += M.radical().dim > 0
            cover = pres.cover_map.matrix
            for k, m in enumerate(top_lift(M)):
                for u, img in enumerate(plain_basis_images(M, m)):
                    assert cover.col(k * n + u) == img, (alg.name, seed, k, u)
            checked["cover"] += pres.cover_rank
            if M.loewy_length() <= 2:
                rad = M.radical()
                maps = tilde(M).maps
                for X, phi in zip(M.actions, maps):
                    for c, m in enumerate(top_lift(M)):
                        assert phi.col(c) == rad.coords(plain_apply(X, m)), (alg.name, seed)
                checked["tilde"] += 1
            for step in islice(resolution(M), 2):
                rows = boundary_elements(step.kernel)
                assert len(rows) == step.kernel.top_dim()
                emb = kernel_embedding(step).matrix
                for row, m in zip(rows, top_lift(step.kernel)):
                    col = plain_apply(emb, m)
                    t_prev = step.cover_rank
                    assert row == [col[k * n:(k + 1) * n] for k in range(t_prev)]
                    checked["boundary"] += 1
            for space in (M.radical(), M.socle()):
                Q, proj = quotient(M, space)
                free = [c for c in range(M.dim) if c not in space.pivots]
                for c in range(M.dim):
                    unit = [field.zero()] * M.dim
                    unit[c] = field.one()
                    reduced = space.reduce(unit)
                    assert proj.matrix.col(c) == tuple(reduced[f] for f in free)
                checked["projection"] += M.dim
                # The induced action on the free coordinate c is X·e_c reduced.
                for X, Y in zip(M.actions, Q.actions):
                    for k, c in enumerate(free):
                        reduced = space.reduce(X.col(c))
                        assert Y.col(k) == tuple(reduced[f] for f in free), (alg.name, seed)
                checked["quotient"] += Q.dim
    assert min(checked.values()) >= 20, checked


_PRESET_PARAMS = {"L": {"e": 3}, "ex14_1": {"e": 3, "a": 5}, "ex15_1": {"e": 3, "a": 2}}


@FIELDS
def test_regular_actions_match_the_multiplication_table(field):
    # The scaled-sum action (w_m acts as sum s_ij v_i v_j over the sections)
    # and the sparse action rows of a copy of A not known to be free (its
    # w-rows from the sections too, its int rows read over its scale)
    # against mul, on both sides: the right action is the opposite's
    # regular action.
    for name in preset_names():
        alg = preset(name, field=field, **_PRESET_PARAMS.get(name, {}))
        basis = [alg.basis_vector(u) for u in range(alg.dim)]
        by_mul = {alg: [alg.left_mult_matrix(b) for b in basis],
                  alg.opposite(): [Matrix.from_columns(field, [alg.mul(x, b) for x in basis],
                                                       alg.dim) for b in basis]}
        for side, expected in by_mul.items():
            regular = left_regular_module(side)
            copy = AModule(side, side.dim, left_regular_module(side).actions, check=False)
            for b, mat, rows in zip(basis, expected, action_rows_over_scale(copy)):
                assert scaled_sum_action(regular, b) == mat, (name, b)
                assert rows == tuple(tuple((c, x) for c, x in enumerate(row) if x)
                                     for row in mat.data), (name, b)


# -- scalar types -----------------------------------------------------------

def _entries(M, N):
    """Every scalar of M, N, their covers, syzygies and duals, and Hom(M, N)."""
    pres = projective_cover(M)
    mats = [h.matrix for h in hom_basis(M, N)] + [pres.cover_map.matrix]
    for X in (M, N, pres.cover_map.source, syzygy(M), a_dual(M)):
        mats.extend(X.actions)
    return [x for X in mats for row in X.data for x in row]


@FIELDS
def test_scalars_are_exact_and_typed(field):
    # Over Q an entry is an int or a rational, never a float; over F_p an Fp.
    allowed = (int, type(Rational(1, 2))) if field.is_rationals else (Fp,)
    kinds = set()
    for alg, seed, M, M2 in _random_pairs(field, seeds=4):
        entries = _entries(M, M2)
        assert all(type(x) in allowed for x in entries), (alg.name, seed)
        kinds.update(type(x) for x in entries)
    assert int in kinds if field.is_rationals else kinds == {Fp}


# -- prime field coverage ---------------------------------------------------

def test_prime_field_homology():
    F5 = Field.prime(5)
    L2 = preset("L", e=2, field=F5)
    S = simple_module(L2)
    assert betti(S, 4).values == (1, 2, 4, 8, 16)
    assert ext_dim(S, S, 1) == 2


def test_prime_field_self_injective():
    F7 = Field.prime(7)
    qe = preset("qexterior", field=F7, q=3)
    assert qe.is_self_injective()
    S = simple_module(qe)
    assert ext_dim(S, left_regular_module(qe), 1) == 0
    assert is_torsionless(S) and is_reflexive(S)
    M = cyclic_submodule(qe, [0, 1, -1, 0])
    assert is_isomorphic(syzygy(M), cyclic_submodule(qe, [0, 1, -3, 0]))


def test_prime_field_duals():
    F5 = Field.prime(5)
    alg = preset("ex15_1", e=3, a=2, field=F5)
    coords = [0] * alg.dim
    coords[1] = 1
    Ax = cyclic_submodule(alg, coords)
    assert tuple(dim_vector(a_dual(Ax))) == (1, 2)
    assert is_reflexive(Ax)


def test_ext_criterion_across_all_presets():
    # Self-injectivity agrees with Ext^1(S, A) = 0 for the whole catalog.
    cases = [("L", {"e": 2}), ("L", {"e": 3}), ("qexterior", {}),
             ("lambda_c", {"c": 0}), ("lambda_c", {"c": 1}), ("ex3_4", {}),
             ("ex5_3", {}), ("ex5_4a", {}), ("ex5_4b", {}), ("ex5_5", {}),
             ("ex8_3", {}), ("ex9_3", {}), ("ex9_4", {}),
             ("ex14_1", {"e": 2, "a": 1}), ("ex14_1", {"e": 3, "a": 9}),
             ("ex15_1", {"e": 3, "a": 2}), ("ex15_1", {"e": 4, "a": 3})]
    for name, kw in cases:
        alg = preset(name, **kw)
        ext1 = ext_dim(simple_module(alg), left_regular_module(alg), 1)
        assert (ext1 == 0) == alg.is_self_injective(), alg.name


_PRESETS_BY_FIELD = {field: [preset(name, field=field, **kw) for name, kw in _RANDOM_CASES]
                     for field in (QQ, Field.prime(32003))}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, len(_RANDOM_CASES) - 1), st.integers(1, 2), st.integers(0, 3),
       st.integers(0, 10**6))
def test_invariants_over_q_match_f32003(which, gens, rels, seed):
    # A seeded module over one of the integer-constant presets of
    # _random_pairs has the same integer data over Q and over F_32003; its
    # Betti numbers and Ext into the simple agree unless a rank drops mod p.
    found = []
    for field, algs in _PRESETS_BY_FIELD.items():
        M = random_module(algs[which], gens, rels, seed=seed)
        found.append((betti(M, 3).values, ext_dims(M, simple_module(algs[which]), 2)))
    assert found[0] == found[1], (_RANDOM_CASES[which], gens, rels, seed)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(st.sampled_from([QQ, Field.prime(32003)]), st.integers(0, len(_RANDOM_CASES) - 1),
       st.integers(1, 2), st.integers(0, 3), st.booleans(), st.integers(0, 10**6))
def test_ext_hom_complex_matches_restriction_on_random_modules(field, which, gens, rels,
                                                                 shallow, seed):
    # Ext^1 and Ext^2 by the Hom-complex against the cokernel of restriction,
    # which reads Homs out of a cover's free module, into S, A and a second
    # seeded module.
    alg = _PRESETS_BY_FIELD[field][which]
    M = random_module(alg, gens, rels, seed=seed)
    if shallow:
        M = mod_j_squared(M)
    other = mod_j_squared(random_module(alg, 1, rels % 2, seed=seed + 1))
    for N in (simple_module(alg), left_regular_module(alg), other):
        exts = ext_dims(M, N, 2)
        assert exts[1:] == [ext_by_restriction(M, N, i) for i in (1, 2)], \
            (alg.name, field, gens, rels, shallow, seed)
