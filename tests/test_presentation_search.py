"""The isomorphism search on M's presentation, cross-checked against the Hom basis route.

``find_isomorphism`` solves Hom(M, N) as the kernel of
``presentation_equations``, t·dim N unknowns over M's cover kernel, and
never calls ``hom_space``.  ``hom_space``, dim M·dim N unknowns over M's
top-lift relations, and the search order it served
(``reference_find_isomorphism``) stay the references.  Over Q, F_7 and
F_32003 the two Hom routes must give one dimension, the search the
reference's verdict, and every witness must be an isomorphism of modules,
which one mutated entry breaks.  The search on dense tops
(``references.dense_top_find_isomorphism``) must give the same verdicts
and the same witness matrices, type by type, and a counting guard keeps
the search from building a matrix or reading a top twice.
"""

import random

import pytest

from shortloc import modules
from shortloc.homology import MinimalResolution
from shortloc.linalg import QQ, Field, Matrix, kernel_subspace
from shortloc.modules import (ModuleMap, find_isomorphism, free_module, hom_dim, hom_space,
                              left_regular_module, presentation_equations, random_module,
                              simple_module)
from shortloc.presets import preset, preset_names

from references import dense_top_find_isomorphism
from test_sweep_solves import (SWEEP_PRESETS, fresh, presentation_basis, rebased,
                               reference_find_isomorphism, sweep_pairs)

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
        res = MinimalResolution(simple_module(alg))
        yield name, [res.syzygy_module(i) for i in range(5)]


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
    # J^2 M is not zero, so some free columns of the cover kernel are w_m's
    # and the witness reads the w_m·n_k.
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
    mutated = 0
    for _, M, N in sweep_pairs(field):
        iso = find_isomorphism(fresh(M), fresh(N), seed=3)
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
        mutated += 1
    assert mutated >= 60


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


@FIELDS
def test_sparse_tops_match_the_dense_top_search(field):
    verdicts = set()
    for M, N, seed in search_pairs(field):
        got = find_isomorphism(M, N, seed=seed)
        want = dense_top_find_isomorphism(M, N, seed=seed)
        assert verdict(got) == verdict(want)
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert typed_matrix(got.witness) == typed_matrix(want.witness)
        verdicts.add(verdict(got))
    assert verdicts >= {(True, True, ""), (False, True, "hom dimension mismatch"),
                        (False, False, "no isomorphism found (probabilistic)")}


def test_a_search_builds_no_matrix_and_reads_each_top_once(monkeypatch, matrix_builds):
    events = []
    for name in ("_top", "_invertible", "hom_dim"):
        monkeypatch.setattr(modules, name, lambda *args, _name=name,
                            _original=getattr(modules, name): events.append(_name)
                            or _original(*args))
    searched = combined = 0
    for M, N, seed in search_pairs(QQ):
        if M.dim == 0:
            continue  # the zero map is the witness, built as the search returns
        basis = presentation_basis(M, N)
        events.clear(), matrix_builds.clear()
        iso = find_isomorphism(M, N, seed=seed)
        # Each scanned basis element's top is read once and tested; a
        # combination's top is the combination of those tops, read again nowhere.
        tops = events.count("_top")
        scan, rest = events[:2 * tops], events[2 * tops:]
        assert scan == ["_top", "_invertible"] * tops
        assert set(rest) <= {"hom_dim", "_invertible"}
        assert tops == len(basis) or (iso.found and not rest)
        # dim Hom(N, M) is taken last, and only when nothing invertible was found.
        assert rest.count("hom_dim") == (not iso.found)
        assert "hom_dim" not in rest[:-1]
        # No matrix is built before the witness's is read, and then one.
        assert not matrix_builds
        if iso.witness is not None:
            assert iso.witness.matrix.rows == M.dim and matrix_builds == {"build": 1}
            combined += bool(rest)
        searched += 1
    assert searched >= 200 and combined >= 40
