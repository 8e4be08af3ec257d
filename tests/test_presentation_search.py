"""The isomorphism search, cross-checked against the Hom basis route.

``find_isomorphism`` refuses tops of different dimensions before it
builds any Hom system.  For J^2 M = J^2 N = 0 it solves the g0 system,
t·dim top N unknowns whose kernel rows are the tops of Hom(M, N); any
other pair it reads off the flat rows of ``hom_space``, dim M·dim N
unknowns over M's top-lift relations, each ranked as the map's matrix.
Both Hom bases solved and the search order they served
(``reference_find_isomorphism``) stay the reference, and M's
presentation, ``presentation_equations``, t·dim N unknowns over M's cover
kernel, must give the same Hom dimension.  Over Q, F_7 and F_32003 the
search must give the reference's verdict, and every witness must be an
isomorphism of modules, which one mutated entry breaks.  The search on
dense tops over M's presentation (``references.dense_top_find_isomorphism``),
the route a pair that J^2 does not kill took before, must give the same
verdicts; a J^2-zero witness must be, type by type, the matrix that
route's witness solve (``references.presentation_witness``) gives for the
same top.  A counting guard keeps the search from building a matrix
before its witness is read, from solving a second Hom(M, N) system, and
from building any when the tops differ.
"""

import random

import pytest

from shortloc import modules
from shortloc.linalg import QQ, Field, Matrix, kernel_subspace
from shortloc.modules import (ModuleMap, direct_sum, find_isomorphism, free_module, hom_dim,
                              hom_space, left_regular_module, mod_j_squared,
                              presentation_equations, random_module, simple_module)
from shortloc.presets import preset, preset_names

from references import dense_top_find_isomorphism, omegas, presentation_witness
from test_sweep_solves import (SWEEP_PRESETS, fresh, rebased, reference_find_isomorphism,
                               same_up_to_scale, sweep_pairs, top_basis)

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

_PRESET_PARAMS = {"L": {"e": 2}, "ex14_1": {"e": 2, "a": 1}, "ex15_1": {"e": 3, "a": 2}}

#: Equal-dimension pairs up to this dimension are also decided by the
#: reference, which solves two Hom bases of dim^2 unknowns each; the larger
#: ones are the self-pairs of Ω^3 S and Ω^4 S (dimensions 35 to 91).
REFERENCE_DIM = 30

#: The dense-top search is compared on modules up to this dimension, which
#: takes in Ω^4 S over ex5_4a (91) and leaves out larger syzygies.
DENSE_TOP_DIM = 100


def is_module_isomorphism(F: ModuleMap) -> bool:
    """F is invertible (``is_isomorphism`` reads the rank alone) and A-linear."""
    return F.is_isomorphism() and F.is_intertwiner()


def verdict(iso):
    return iso.found, iso.certified, iso.note


@FIELDS
def test_the_presentation_kernel_has_the_hom_dimension(field):
    smaller = 0
    for _, M, N in sweep_pairs(field):
        homs = kernel_subspace(presentation_equations(M, N))
        assert homs.ambient == M.top_dim() * N.dim
        assert homs.dim == hom_space(M, N).dim == hom_dim(M, N), (M, N)
        smaller += M.top_dim() < M.dim
    assert smaller >= 100


def syzygy_ladders(field):
    """Ω^0 S .. Ω^4 S over every preset."""
    for name in preset_names():
        alg = preset(name, field=field, **_PRESET_PARAMS.get(name, {}))
        yield name, omegas(simple_module(alg), 4)


@FIELDS
def test_the_search_on_syzygies_matches_the_reference(field):
    compared = checked = 0
    for name, ladder in syzygy_ladders(field):
        for i, M in enumerate(ladder):
            for j, N in enumerate(ladder):
                got = find_isomorphism(M, N, seed=5 * i + j)
                if got.witness is not None:
                    assert is_module_isomorphism(got.witness), (name, i, j)
                    checked += 1
                if M.dim != N.dim or M.dim <= REFERENCE_DIM:
                    want = reference_find_isomorphism(M, N, seed=5 * i + j)
                    assert verdict(got) == verdict(want), (name, i, j)
                    compared += 1
                else:
                    assert i == j and verdict(got) == (True, True, ""), (name, i, j)
    assert compared >= 300 and checked >= 65


@FIELDS
def test_the_search_on_loewy_length_3_modules_matches_the_reference(field):
    # J^2 M is not zero, so some free columns of the cover kernel are w_m's,
    # and the witness is a flat row of hom_space or a combination of them.
    rng = random.Random(13)
    squares = 0
    for name, kw in SWEEP_PRESETS:
        alg = preset(name, field=field, **kw)
        mods = [left_regular_module(alg), free_module(alg, 2)]
        mods += [random_module(alg, gens, rels, seed) for gens, rels, seed in
                 [(1, 0, 2), (1, 1, 3), (2, 1, 4), (2, 2, 5), (2, 0, 6)]]
        for M in mods:
            for N in (rebased(M, rng), mods[2]):
                got = find_isomorphism(fresh(M), fresh(N), seed=7)
                assert verdict(got) == verdict(reference_find_isomorphism(M, N, seed=7))
                if got.witness is not None:
                    assert is_module_isomorphism(got.witness)
                    n, e = alg.dim, alg.e
                    squares += any(q % n > e for q in M.cover_kernel.free_columns())
    assert squares >= 20


@FIELDS
def test_a_mutated_witness_is_refused(field):
    mutated = {True: 0, False: 0}
    pairs = [(fresh(M), fresh(N), 3) for _, M, N in sweep_pairs(field)]
    for M, N, seed in pairs + loewy_length_3_pairs(field):
        iso = find_isomorphism(M, N, seed=seed)
        if iso.witness is None:
            continue
        F = iso.witness
        assert is_module_isomorphism(F)
        # Row r outside soc N: some generator moves e_r, so no A-map differs
        # from F in the one entry (r, 0).
        r = next((r for r in range(N.dim) for X in N.actions if any(X.col(r))), None)
        if r is None:
            continue
        data = [list(row) for row in F.matrix.data]
        data[r][0] += field.one()
        assert not is_module_isomorphism(ModuleMap(M, N, Matrix(field, data, cols=M.dim)))
        mutated[square_zero(M, N)] += 1
    assert mutated[True] >= 60 and mutated[False] >= 12


# -- sparse tops against the dense-top search ----------------------------------

def typed_matrix(F):
    return [[(type(x), x) for x in row] for row in F.matrix.data]


def search_pairs(field):
    """(M, N, seed) for each sweep pair and each equal-dimension (Ω^i S, Ω^j S), i, j <= 4."""
    pairs = [(fresh(M), fresh(N), M.dim * 7 + N.dim) for _, M, N in sweep_pairs(field)]
    for _, ladder in syzygy_ladders(field):
        pairs += [(M, N, 5 * i + j) for i, M in enumerate(ladder) for j, N in enumerate(ladder)
                  if M.dim == N.dim <= DENSE_TOP_DIM]
    return pairs


def loewy_length_3_pairs(field):
    """(M, N, seed) with J^2 M not zero: A, A^2 and seeded modules against rebased copies and
    against a J^2-zero module of the same dimension, where there is one."""
    rng = random.Random(17)
    pairs = []
    for name, kw in SWEEP_PRESETS:
        alg = preset(name, field=field, **kw)
        mods = [left_regular_module(alg), free_module(alg, 2)]
        mods += [random_module(alg, gens, rels, seed) for gens, rels, seed in
                 [(1, 0, 2), (1, 1, 3), (2, 1, 4), (2, 2, 5)]]
        for M in mods:
            pairs.append((fresh(M), fresh(rebased(M, rng)), M.dim))
            squares = [N for N in mods if N.dim == M.dim and N.loewy_length() < 3]
            pairs += [(fresh(M), fresh(squares[0]), 3)] if squares else []
            pairs += [(fresh(squares[0]), fresh(M), 5)] if squares else []
    return pairs


def unequal_hom_pairs(field):
    """(M, N, seed), both orders: A/(J^2, a relation) ⊕ S and a quotient of A^2 by J^2 and
    three relations, over the presets where they share dimension 3 and top 2 and
    dim Hom(M, N) = 3 is not dim Hom(N, M) = 4."""
    pairs = []
    for name, kw in SWEEP_PRESETS:
        alg = preset(name, field=field, **kw)
        M = direct_sum(mod_j_squared(random_module(alg, 1, 1, 0)), simple_module(alg))
        N = mod_j_squared(random_module(alg, 2, 3, 0))
        pairs += [(M, N, 1), (N, M, 2)] if M.dim == N.dim else []
    return pairs


def square_zero(M, N):
    return M.loewy_length() < 3 and N.loewy_length() < 3


@FIELDS
def test_sparse_tops_match_the_dense_top_search(field, monkeypatch):
    lifted = []
    monkeypatch.setattr(modules, "_witness", lambda M, N, g0, lifts, scale,
                        _original=modules._witness: lifted.append((g0, lifts, scale))
                        or _original(M, N, g0, lifts, scale))
    verdicts, kinds = set(), {True: 0, False: 0}
    pairs = search_pairs(field) + loewy_length_3_pairs(field) + unequal_hom_pairs(field)
    for M, N, seed in pairs:
        lifted.clear()
        got = find_isomorphism(M, N, seed=seed)
        want = dense_top_find_isomorphism(M, N, seed=seed)
        assert verdict(got) == verdict(want)
        assert (got.witness is None) == (want.witness is None)
        verdicts.add(verdict(got))
        if got.witness is None or M.dim == 0:
            continue
        assert is_module_isomorphism(got.witness)
        if square_zero(M, N):
            # The witness lifts g0 with no part in JN, m_k -> Σ_s g0[s, k]·m'_s:
            # each top lift of M goes into the span of N's top lifts, and the
            # matrix is the one the presentation route solves from those images.
            [(g0, lifts, scale)] = lifted
            assert all(r in lifts for c in M.lift_columns()
                       for r, x in enumerate(got.witness.matrix.col(c)) if x)
            t = M.top_dim()
            images = {lifts[q // t] * t + q % t: x for q, x in g0.items()}
            assert typed_matrix(got.witness) == \
                typed_matrix(presentation_witness(M, N, images, scale))
        else:
            assert lifted == []
        kinds[square_zero(M, N)] += 1
    assert verdicts >= {(True, True, ""), (False, True, "hom dimension mismatch"),
                        (False, True, "top dimension mismatch"),
                        (False, False, "no isomorphism found (probabilistic)")}
    assert kinds[True] >= 150 and kinds[False] >= 12


def test_a_search_builds_no_matrix_and_reads_each_top_once(monkeypatch, matrix_builds):
    events, tested = [], []
    for name in ("hom_dim", "_top_equations", "hom_space", "presentation_equations"):
        monkeypatch.setattr(modules, name, lambda *args, _name=name,
                            _original=getattr(modules, name): events.append(_name)
                            or _original(*args))
    invertible = modules._invertible
    monkeypatch.setattr(modules, "_invertible", lambda N, t, top: events.append("_invertible")
                        or tested.append(top) or invertible(N, t, top))
    searched, combined, unequal = {True: 0, False: 0}, 0, 0
    for M, N, seed in search_pairs(QQ) + loewy_length_3_pairs(QQ):
        if M.dim == 0:
            continue  # the zero map is the witness, built as the search returns
        if N.top_dim() != M.top_dim():
            events.clear(), tested.clear(), matrix_builds.clear()
            iso = find_isomorphism(M, N, seed=seed)
            # An isomorphism maps top onto top: no Hom system is built.
            assert verdict(iso) == (False, True, "top dimension mismatch")
            assert events == [] and not matrix_builds
            unequal += 1
            continue
        zero = square_zero(M, N)
        system = "_top_equations" if zero else "hom_space"
        basis = top_basis(M, N) if zero else flat_basis(M, N)
        events.clear(), tested.clear(), matrix_builds.clear()
        iso = find_isomorphism(M, N, seed=seed)
        # One Hom(M, N) system; dim Hom(N, M) is taken last, and only when
        # nothing invertible was found.  M's presentation is never solved.
        assert events[0] == system and "presentation_equations" not in events
        fallback = events.index("hom_dim") if "hom_dim" in events else len(events)
        assert system not in events[1:fallback]
        assert (fallback < len(events)) == (not iso.found)
        assert "hom_dim" not in events[fallback + 1:]
        # The kernel's rows, tops g0 or the maps' flat rows, are tested in
        # turn, as they stand, until one is invertible; then combinations.
        assert set(events[1:fallback]) <= {"_invertible"}
        assert all(same_up_to_scale(QQ, top, row) for top, row in zip(tested, basis))
        assert iso.found or len(tested) > len(basis) or not basis
        # No matrix is built before the witness's is read, and then one.
        assert not matrix_builds
        if iso.witness is not None:
            assert iso.witness.matrix.rows == M.dim and matrix_builds == {"build": 1}
            combined += len(tested) > len(basis)
        searched[zero] += 1
    assert searched[True] >= 200 and searched[False] >= 12 and unequal >= 20 and combined >= 40


def flat_basis(M, N):
    """The flat rows of Hom(M, N) as ``hom_space`` solves them, as typed dicts."""
    flat = hom_space(M, N).flat
    rows = flat.sparse_rows()
    return [dict(zip(*rows[p])) for p in flat.pivots]
