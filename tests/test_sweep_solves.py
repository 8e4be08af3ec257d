"""A sweep job solves only what its answer reads.

The isomorphism search of two modules that J^2 kills, with tops of one
dimension, solves the g0 system
of Hom(M, N), t·dim top N unknowns over the cover kernel that the sweep
job has already found, and takes dim Hom(N, M) by rank only when no
kernel row is invertible; it never calls ``hom_space``, which stays the
independent reference for its witnesses; ``hom_dim`` is a rank; a
syzygy's radical is read off its shadow and its socle off its Φ's integer
rows, and every other socle off sparse action columns; ``quotient``
reduces action columns instead of multiplying dense matrices.  The
routes these replaced are kept here as references: the former search
order, the built syzygy module, the dense socle formula,
``len(hom_basis)`` and the dense quotient formula.  Over Q, F_7 and
F_32003 the answers must agree exactly, and a counting guard keeps a
sweep-shaped job from solving what it does not read.
"""

import random

import pytest

from shortloc import homology, modules
from shortloc.errors import AlgebraMismatch, BadParams
from shortloc.homology import Syzygy, syzygy, transpose
from shortloc.kronecker import hom_decomposition_check
from shortloc.linalg import (DEFAULT_POOL, QQ, Field, IntRows, Matrix, Subspace, kernel_basis,
                             kernel_subspace, rank, solve_matrix)
from shortloc.modules import (AModule, IsoSearch, ModuleMap, end_dim, find_isomorphism,
                              free_module, hom_basis, hom_dim, is_bipartite, is_solid,
                              left_regular_module, m_alpha, mod_j_squared, radical_module,
                              random_module, semisimple_module, simple_module, zero_module)
from shortloc.numerics import main_lemma_witness
from shortloc.presets import preset

from references import (combination, complement, from_scalars, stack_rows, typed_columns,
                        typed_invertible)

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)],
                                 ids=["Q", "F7", "F32003"])

SWEEP_PRESETS = [("L", {"e": 2}), ("L", {"e": 3}), ("qexterior", {}), ("lambda_c", {}),
                 ("ex15_1", {"e": 3, "a": 2}), ("ex9_3", {})]


# -- the references ------------------------------------------------------------

def reference_find_isomorphism(M, N, seed=0):
    """The search as it was: both Hom bases solved, their sizes compared first.

    Tops of different dimensions are refused first, as the search refuses them.
    """
    if M.dim != N.dim:
        return IsoSearch(False, True, note="dimension mismatch")
    if M.dim == 0:
        return IsoSearch(True, True, witness=ModuleMap(M, N, Matrix.zeros(M.field, 0, 0)))
    if M.top_dim() != N.top_dim():
        return IsoSearch(False, True, note="top dimension mismatch")
    fwd = hom_basis(M, N)
    bwd = hom_basis(N, M)
    if len(fwd) != len(bwd):
        return IsoSearch(False, True, note="hom dimension mismatch")
    if not fwd:
        return IsoSearch(False, True, note="no non-zero homomorphisms")
    for h in fwd:
        if rank(h.matrix) == M.dim:
            return IsoSearch(True, True, witness=h)
    mats = [h.matrix for h in fwd]
    rng = random.Random(seed)
    elems = [M.field.of(x) for x in DEFAULT_POOL]

    def coefficients():
        for _ in range(64):
            yield [rng.choice(elems) for _ in mats]
        if M.field.is_rationals:
            for point in range(1, 2 * len(mats) + 9):
                x = M.field.of(point)
                yield [x ** k for k in range(len(mats))]
    for coefs in coefficients():
        acc = combination(coefs, mats)
        if rank(acc) == M.dim:
            return IsoSearch(True, True, witness=ModuleMap(M, N, acc))
    return IsoSearch(False, False, note="no isomorphism found (probabilistic)")


def dense_quotient_actions(M, sub):
    """proj·X·incl over the dense action matrices, the formula ``quotient`` replaced."""
    free = sub.free_columns()
    proj_rows = []
    for f in free:
        row = [M.field.zero()] * M.dim
        row[f] = M.field.one()
        for p, basis_row in zip(sub.pivots, sub.basis):
            row[p] = -basis_row[f]
        proj_rows.append(row)
    proj = Matrix(M.field, proj_rows, cols=M.dim)
    incl = Matrix.from_columns(M.field, complement(sub), M.dim)
    return tuple(proj * (X * incl) for X in M.actions)


# -- seeded sweep-style modules ------------------------------------------------

def sweep_modules(field, per_stratum=2, seed=0):
    """M/J^2 M of seeded random modules over the sweep's presets."""
    rng = random.Random(seed)
    out = []
    for name, kw in SWEEP_PRESETS:
        alg = preset(name, field=field, **kw)
        for gens in (1, 2):
            for rels in range(4):
                for _ in range(per_stratum):
                    out.append(mod_j_squared(random_module(alg, gens, rels,
                                                           rng.randrange(2**31))))
    return out


def rebased(M, rng):
    """M in the basis g = P·L·U, L and U unit triangular with a few ±1 entries."""
    d, field = M.dim, M.field
    order = list(range(d))
    rng.shuffle(order)

    def unit_triangular(lower):
        return [[1 if i == j else
                 (rng.choice((-1, 1)) if (j < i if lower else j > i) and rng.random() < 0.3
                  else 0) for j in range(d)] for i in range(d)]
    perm = Matrix.from_rows(field, [[int(order[i] == j) for j in range(d)] for i in range(d)])
    G = perm * Matrix.from_rows(field, unit_triangular(True)) * \
        Matrix.from_rows(field, unit_triangular(False))
    G_inv = solve_matrix(G, Matrix.identity(field, d))
    return AModule(M.algebra, d, [G * X * G_inv for X in M.actions], check=False)


def fresh(M):
    return AModule(M.algebra, M.dim, M.actions, check=False)


def sweep_pairs(field):
    """(kind, M, N) for rebased copies and for equal-dimension pairs over one algebra."""
    rng = random.Random(11)
    mods = sweep_modules(field)
    pairs = [("rebased", M, rebased(M, rng)) for M in mods]
    by_key = {}
    for M in mods:
        by_key.setdefault((M.algebra.name, M.dim), []).append(M)
    for group in by_key.values():
        pairs += [("equal-dim", M, N) for M, N in zip(group, group[1:])]
    return pairs


@pytest.fixture
def hom_space_calls(monkeypatch):
    """Each Hom(M, N) basis solved, as (M, N)."""
    seen = []

    def counted(M, N, _original=modules.hom_space):
        seen.append((M, N))
        return _original(M, N)
    for mod in (modules, homology):
        monkeypatch.setattr(mod, "hom_space", counted)
    return seen


@pytest.fixture
def equation_calls(monkeypatch):
    """The target N of each Hom system that ``relation_equations`` builds."""
    seen = []

    def counted(N, relations, t, _original=modules.relation_equations):
        seen.append(N)
        return _original(N, relations, t)
    monkeypatch.setattr(modules, "relation_equations", counted)
    return seen


def top_basis(M, N):
    """The g0 rows of Hom(M, N) for J^2 M = 0, the kernel of its top system, as typed dicts."""
    homs = kernel_subspace(modules._top_equations(M, N)[0])
    rows = homs.sparse_rows()
    return [dict(zip(*rows[p])) for p in homs.pivots]


def same_up_to_scale(field, top, row):
    """The int top {q: int} is c times the typed row {q: scalar}, for one c that is not zero."""
    if top.keys() != row.keys() or not row:
        return False
    q0 = next(iter(row))
    return all(field.of(top[q]) * row[q0] == field.of(top[q0]) * x for q, x in row.items())


@pytest.fixture
def top_systems(monkeypatch):
    """The (target's Kronecker data, unknowns) of each system ``_kronecker_equations`` builds."""
    seen = []

    def counted(field, form, stride, t, target, _original=modules._kronecker_equations):
        equations = _original(field, form, stride, t, target)
        seen.append((target, equations.cols))
        return equations
    monkeypatch.setattr(modules, "_kronecker_equations", counted)
    return seen


def assert_a_witness_in_hom(iso, M, N):
    """The witness is invertible and lies in Hom(M, N) as ``hom_space`` solves it."""
    homs = modules.hom_space(M, N)
    assert iso.witness.is_isomorphism()
    assert homs.flat.contains(tuple(x for row in iso.witness.matrix.data for x in row))


# -- the isomorphism search ----------------------------------------------------

@FIELDS
def test_isomorphism_search_matches_the_reference_order(field):
    outcomes = {}
    for kind, M, N in sweep_pairs(field):
        seed = M.dim * 7 + N.dim
        got = find_isomorphism(fresh(M), fresh(N), seed=seed)
        want = reference_find_isomorphism(fresh(M), fresh(N), seed=seed)
        assert (got.found, got.certified, got.note) == (want.found, want.certified, want.note)
        if want.witness is None:
            assert got.witness is None
        else:
            # The witness is no longer the reference's basis map, so it is
            # checked against the Hom space that hom_space solves.
            assert_a_witness_in_hom(got, M, N)
        key = (kind, got.found, got.note)
        outcomes[key] = outcomes.get(key, 0) + 1
    # Every rebased copy is found; the equal-dimension pairs give found,
    # certified top-dimension mismatches and non-isomorphic equal-Hom pairs.
    assert all(found for (kind, found, _) in outcomes if kind == "rebased")
    equal = {key: n for key, n in outcomes.items() if key[0] == "equal-dim"}
    assert equal.get(("equal-dim", True, ""), 0) >= 1
    assert equal.get(("equal-dim", False, "top dimension mismatch"), 0) >= 1
    assert equal.get(("equal-dim", False, "no isomorphism found (probabilistic)"), 0) >= 1


def test_an_invertible_first_basis_element_costs_one_hom_solve(hom_space_calls, equation_calls,
                                                               top_systems):
    rng = random.Random(3)
    checked = 0
    for M in sweep_modules(QQ, per_stratum=1, seed=5):
        N, t = rebased(M, rng), M.top_dim()
        first = top_basis(M, N)[0]
        if not typed_invertible(N, t, first):
            continue
        hom_space_calls.clear(), equation_calls.clear(), top_systems.clear()
        iso = find_isomorphism(fresh(M), N)
        # One Hom system, the g0 system of Hom(M, N) in t·dim top N unknowns:
        # no presentation system, no hom_space and no Hom(N, M).
        assert iso.found and hom_space_calls == [] and equation_calls == []
        assert top_systems == [(N._kronecker, t * N.top_dim())]
        # The witness sends each top lift m_k to sum_s g0[s, k]·m'_s, the
        # first row's g0 on N's top lifts m'_s, with no part in JN.
        lifts = N.radical().free_columns()
        for k, c in enumerate(M.lift_columns()):
            want = [0] * N.dim
            for s, r in enumerate(lifts):
                want[r] = first.get(s * t + k, 0)
            assert iso.witness.matrix.col(c) == tuple(want)
        assert_a_witness_in_hom(iso, M, N)
        checked += 1
    assert checked >= 5


# -- Hom dimensions by rank ----------------------------------------------------

@FIELDS
def test_hom_dim_is_the_size_of_a_hom_basis(field, hom_space_calls):
    pairs = [(M, N) for _, M, N in sweep_pairs(field)[::3]]
    alg = preset("ex15_1", field=field, e=3, a=2)
    Z, S = zero_module(alg), simple_module(alg)
    for t in (1, 2):
        F = free_module(alg, t)
        pairs += [(Z, F), (F, Z), (S, F), (F, S), (F, F), (left_regular_module(alg), F)]
    pairs += [(Z, Z), (Z, S), (S, Z), (S, S), (semisimple_module(alg, 2), S)]
    for M, N in pairs:
        hom_space_calls.clear()
        dim = hom_dim(M, N)
        assert hom_space_calls == []
        assert dim == len(hom_basis(M, N))
    assert end_dim(S) == 1 and end_dim(Z) == 0


def test_end_dim_and_solidity_solve_no_hom_basis(hom_space_calls, lam0):
    J = radical_module(lam0)
    for M in (J, m_alpha(lam0, 0), mod_j_squared(random_module(lam0, 2, 1, 4))):
        hom_space_calls.clear()
        solid = is_solid(M)
        assert hom_space_calls == []
        assert end_dim(M) == len(hom_basis(M, M))
        assert solid == (end_dim(M) == 1 + M.top_dim() * M.radical().dim)


def test_hom_dim_refuses_modules_over_different_algebras(lam0, L2):
    for fn in (hom_dim, modules.hom_space):
        with pytest.raises(AlgebraMismatch):
            fn(simple_module(lam0), simple_module(L2))


# -- syzygy radicals and socles from the shadow --------------------------------

def syzygy_inputs(field):
    conca = preset("ex15_1", field=field, e=3, a=2)
    qext = preset("qexterior", field=field)
    lam = preset("lambda_c", field=field)
    ex9_3 = preset("ex9_3", field=field)
    # Over ex9_3 a first syzygy's socle has a kernel basis that is not its
    # reduced basis, so the re-reduction is exercised.
    loewy3 = [random_module(conca, 2, 1, 5), random_module(lam, 1, 1, 2), left_regular_module(qext),
              random_module(ex9_3, 2, 3, 1)]
    loewy2 = [mod_j_squared(M) for M in loewy3] + [mod_j_squared(random_module(qext, 2, 2, 9))]
    semisimple = [simple_module(conca), semisimple_module(lam, 2), simple_module(qext)]
    return loewy3 + loewy2 + semisimple


def dense_socle(M):
    """The kernel of the stacked dense actions, reduced: the formula the socle replaced."""
    if M.algebra.e == 0 or M.dim == 0:
        return Subspace.from_vectors(M.field, M.dim, Matrix.identity(M.field, M.dim).data)
    return Subspace.from_vectors(M.field, M.dim, kernel_basis(stack_rows(M.actions)))


def subspace_signature(space):
    return space.pivots, space.basis, [type(x) for row in space.basis for x in row]


@FIELDS
def test_syzygy_radical_and_socle_match_the_built_module(field):
    checked = 0
    for M in syzygy_inputs(field):
        assert subspace_signature(M.socle()) == subspace_signature(dense_socle(M))
        omega = syzygy(M)
        for syz in (omega, syzygy(omega)):
            assert isinstance(syz, Syzygy)
            rad, soc = syz.radical(), syz.socle()
            assert "actions" not in vars(syz)
            built = AModule(syz.algebra, syz.dim, syz.actions, check=False)
            assert subspace_signature(rad) == subspace_signature(built.radical())
            assert subspace_signature(soc) == subspace_signature(dense_socle(built))
            checked += syz.dim > 0
    assert checked >= 15


def unit_span(field, ambient, coordinates):
    """The span of the unit vectors at ``coordinates``, as a kernel: the one form a shadow takes.

    It is the kernel of the unit rows at every other coordinate.
    """
    missed = [{c: field.one()} for c in range(ambient) if c not in coordinates]
    return kernel_subspace(from_scalars(field, missed, ambient))


def test_an_unstable_shadow_is_refused(conca32):
    alg, n = conca32, conca32.dim
    field = alg.field
    # v_1 alone: v_j v_1 reaches J^2, which the span misses.
    for read in (Syzygy.radical, Syzygy.socle, typed_columns, Syzygy.socle_dim,
                 is_bipartite):
        with pytest.raises(BadParams, match="not stable"):
            read(Syzygy(alg, unit_span(field, n, [1])))
    # With the J^2-rows of two more copies the V-row lifts only part of the
    # top, so the cover takes its top-lift branch, which checks the images too.
    coordinates = [1] + [k * n + i for k in (1, 2) for i in range(1 + alg.e, n)]
    for read in (lambda syz: syz.cover, Syzygy.top_dim, typed_columns, Syzygy.socle_dim,
                 is_bipartite):
        with pytest.raises(BadParams, match="not stable"):
            read(Syzygy(alg, unit_span(field, 3 * n, coordinates)))
    # The whole of A is stable, but it is no shadow: it reaches the unit.
    with pytest.raises(BadParams, match="radical"):
        Syzygy(alg, unit_span(field, n, range(n))).radical()


# -- quotients by reduced columns ----------------------------------------------

@FIELDS
def test_quotient_actions_match_the_dense_formula(field, monkeypatch):
    seen = []
    stage = ["random_module"]

    def recorded(M, sub, _original=modules.quotient):
        Q, proj = _original(M, sub)
        seen.append((stage[0], M, sub, Q))
        return Q, proj
    for mod in (modules, homology):
        monkeypatch.setattr(mod, "quotient", recorded)
    inputs = []
    for name, kw in SWEEP_PRESETS:
        alg = preset(name, field=field, **kw)
        inputs += [random_module(alg, gens, rels, seed)
                   for gens, rels, seed in [(1, 1, 3), (2, 1, 4), (2, 3, 5)]]
    lam = preset("lambda_c", field=field)
    inputs += [m_alpha(lam, alpha) for alpha in (0, 1, 2)]
    for stage[0], build in (("mod_j_squared", mod_j_squared), ("transpose", transpose)):
        for M in inputs:
            build(M)
    kinds = {}
    for kind, M, sub, Q in seen:
        sub = sub if isinstance(sub, Subspace) else Subspace.from_vectors(field, M.dim, sub)
        dense = dense_quotient_actions(M, sub)
        assert Q.actions == dense
        assert [[list(map(str, r)) for r in X.data] for X in Q.actions] == \
            [[list(map(str, r)) for r in X.data] for X in dense]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["random_module"] >= 18 and kinds["mod_j_squared"] >= 18
    assert kinds["transpose"] >= 15


# -- the guard: one sweep-shaped job, counted ----------------------------------

def test_a_sweep_shaped_job_solves_only_what_it_reads(monkeypatch, hom_space_calls,
                                                     equation_calls, top_systems):
    built, syzygies, typed_rows, fallbacks, covers = [], [], [], [], []

    def counted(M, space, _original=modules.module_from_subspace):
        built.append(space.dim)
        return _original(M, space)
    monkeypatch.setattr(modules, "module_from_subspace", counted)
    # Every syzygy made, and each subspace whose typed rows are read.
    monkeypatch.setattr(Syzygy, "__init__", lambda syz, alg, space, _original=Syzygy.__init__:
                        syzygies.append(syz) or _original(syz, alg, space))
    monkeypatch.setattr(Subspace, "sparse_rows", lambda space, _original=Subspace.sparse_rows:
                        typed_rows.append(space) or _original(space))
    # Each Hom(N, M) dimension the search falls back on, and each cover kernel found.
    monkeypatch.setattr(modules, "hom_dim", lambda A, B, _original=modules.hom_dim:
                        fallbacks.append((A, B)) or _original(A, B))
    monkeypatch.setattr(homology, "top_kernel", lambda *args, _original=homology.top_kernel:
                        covers.append(args) or _original(*args))
    rng = random.Random(7)
    on_basis = 0
    for M in sweep_modules(QQ, per_stratum=1, seed=9):
        partner = mod_j_squared(random_module(M.algebra, 1 + rng.randrange(2), rng.randrange(4),
                                              rng.randrange(2**31)))
        N = rebased(M, rng)
        hom_space_calls.clear(), syzygies.clear(), typed_rows.clear()
        wit = main_lemma_witness(M)
        o1 = wit.omega_module
        o2 = syzygy(o1)
        is_bipartite(o1), is_bipartite(o2)
        assert hom_decomposition_check(M, partner)
        equation_calls.clear(), top_systems.clear(), fallbacks.clear(), covers.clear()
        iso = find_isomorphism(M, N, seed=3)
        assert iso.found and built == []
        # The syzygies' socles and tops are read off Φ: no syzygy builds its
        # action matrices or reads its shadow's typed rows.
        assert len(syzygies) >= 2 and not any("actions" in syz.__dict__ for syz in syzygies)
        assert not any(space is syz.space for space in typed_rows for syz in syzygies)
        # No Hom basis and no presentation system is solved.  Hom(M, N) is
        # one g0 system over the cover kernel that main_lemma_witness found,
        # in t·t unknowns; Hom(N, M) is a second one, and N's cover kernel
        # the one cover found, only on the fallback.
        assert hom_space_calls == [] and equation_calls == []
        assert fallbacks in ([], [(N, M)])
        t = M.top_dim()
        assert top_systems == [(N._kronecker, t * t)] + [(M._kronecker, t * t)] * len(fallbacks)
        assert len(covers) == len(fallbacks)
        on_basis += not fallbacks
        assert_a_witness_in_hom(iso, M, N)
    assert on_basis >= 20


def test_a_socle_is_ranked_once_and_a_zero_top_never(monkeypatch, hom_space_calls):
    ranked, tested = [], []
    rank_of, invertible = modules.rank, modules._invertible
    for mod in (modules, homology):
        monkeypatch.setattr(mod, "rank", lambda m: ranked.append(m) or rank_of(m))

    def counted(N, t, top):
        # (square, non-zero, what the call ranked) for each top tested.
        before = len(ranked)
        out = invertible(N, t, top)
        tested.append((N.top_dim() == t, any(top.values()),
                       [(type(m), m.cols) for m in ranked[before:]]))
        return out
    monkeypatch.setattr(modules, "_invertible", counted)
    for M in sweep_modules(QQ, per_stratum=1, seed=9):
        omega = syzygy(M)
        ranked.clear()
        w, bipartite = modules.simple_multiplicity(omega), is_bipartite(omega)
        # The socle is one integer rank of Φ's entries, one column per mapped
        # shadow row, and nothing else is ranked.
        assert [(type(m), m.cols) for m in ranked] == [(IntRows, len(omega._phi[1]))]
        radical_dim = omega.dim - omega.top_dim()
        assert w == dense_socle(omega).dim - radical_dim
        assert bipartite == (omega.dim > 0 and w == 0)
    nonzero_tops = 0
    for _, M, N in sweep_pairs(QQ):
        ranked.clear(), tested.clear()
        find_isomorphism(fresh(M), fresh(N), seed=3)
        # J^2 kills M and N: the g0 rows are the tops, so no map of hom_space
        # is ranked.  A top is tried only when it is square, and a non-zero
        # one is ranked once, as t integer columns; a zero one never.
        t = M.top_dim()
        for square, nonzero, seen in tested:
            assert square and seen == ([(IntRows, t)] if nonzero else [])
            nonzero_tops += nonzero
    assert hom_space_calls == [] and nonzero_tops >= 100
