"""Integer tops, the isomorphism search and the stable Hom, against their typed twins.

The integer top of a Hom basis element on M's presentation
(``references.integer_top``) is an integer residue along N's radical
rows, over L, the lcm of the radical's leads; ``find_isomorphism`` ranks
integer rows (``modules._invertible``) and combines them
(``modules._combine``); ``stable_hom_dim`` composes Hom(M, A)'s integer
rows with the cover's integer columns.  The typed routes stay in
``references.py`` (``typed_top``, ``typed_invertible``,
``typed_combine``, ``typed_stable_hom_dim``).  Over Q, F_7 and F_32003
each integer top, of a basis element and of a seeded combination, must
be the typed top times L·s, s the scale of its images, and have its
rank, and a square one be ranked invertible as the typed one is; each
stable Hom dimension must be the typed route's.  A counting guard keeps
every typed value out of these routes: no ``typed_values``,
``Subspace.sparse_rows`` or ``Subspace.residue`` call runs in a search
before its witness's matrix is read, on the g0 system of a J^2-zero pair
or on the flat rows of ``hom_space``, nor in ``hom_dim`` on either
route, nor in a stable Hom.
"""

import random
from math import lcm

import pytest

from shortloc import homology, kronecker, linalg, modules
from shortloc.homology import stable_hom_dim, syzygy_power
from shortloc.linalg import DEFAULT_POOL, QQ, Field, IntRows, Subspace, kernel_subspace, rank
from shortloc.modules import find_isomorphism, hom_dim, presentation_equations, simple_module
from shortloc.presets import preset

from references import (from_scalars, integer_top, typed_combine, typed_invertible,
                        typed_stable_hom_dim, typed_top)
from test_cross_validation import _random_pairs
from test_presentation_search import loewy_length_3_pairs, search_pairs, syzygy_ladders
from test_square_zero_hom import hom_pairs
from test_sweep_solves import fresh, sweep_pairs

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

#: Seeded combinations compared per pair, the first of the search's stream.
COMBINATIONS = 8


def top_rows(top, t):
    """A top {f·t + k: x} as its rows f, {k: x}."""
    rows = {}
    for q, x in top.items():
        f, k = divmod(q, t)
        rows.setdefault(f, {})[k] = x
    return list(rows.values())


def same_rank(field, got, want, t):
    """The integer top ``got`` and the typed top ``want`` have one rank."""
    return rank(IntRows(field, top_rows(got, t), t)) == \
        rank(from_scalars(field, top_rows(want, t), t))


def times(field, top, factor):
    """The non-zeros of a typed top, each times ``factor``."""
    return {q: x * field.of(factor) for q, x in top.items() if x}


def top_pairs(field):
    """(M, N) for each sweep pair and each (Ω^i S, Ω^j S), i, j <= 4, over every preset."""
    pairs = [(fresh(M), fresh(N)) for _, M, N in sweep_pairs(field)]
    for _, ladder in syzygy_ladders(field):
        pairs += [(M, N) for M in ladder for N in ladder]
    return pairs


@FIELDS
def test_integer_tops_are_the_typed_tops_times_l_s(field):
    p, elements, combinations, invertible = field.characteristic, 0, 0, 0
    for M, N in top_pairs(field):
        if M.dim == 0:
            continue
        homs, t = kernel_subspace(presentation_equations(M, N)), M.top_dim()
        ints, typed = homs.int_rows(), homs.sparse_rows()
        L = lcm(*[lead for _, _, lead in N.radical().int_rows().values()])
        scale = lcm(*[s for _, _, s in ints.values()])
        tops, typed_tops = [], []
        # The search ranks a top only when it is square.
        square = N.top_dim() == t
        for q in homs.pivots:
            idx, vals, s = ints[q]
            got = integer_top(N, t, dict(zip(idx, vals)))
            want = typed_top(N, t, dict(zip(*typed[q])))
            assert {q: x for q, x in got.items() if x} == times(field, want, L * s)
            assert same_rank(field, got, want, t)
            if square:
                assert modules._invertible(N, t, got) == typed_invertible(N, t, want)
                invertible += modules._invertible(N, t, got)
            tops.append({q: x * (scale // s) for q, x in got.items()})
            typed_tops.append(want)
            elements += 1
        # The search's stream: pool ints, typed scalars for the twin.
        rng = random.Random(M.dim + 7 * N.dim)
        for _ in range(COMBINATIONS if tops else 0):
            coefs = [rng.choice(DEFAULT_POOL) for _ in tops]
            got = modules._combine(coefs, tops, p)
            want = typed_combine([field.of(c) for c in coefs], typed_tops)
            assert {q: x for q, x in got.items() if x} == times(field, want, L * scale)
            assert same_rank(field, got, want, t)
            if square:
                assert modules._invertible(N, t, got) == typed_invertible(N, t, want)
            combinations += 1
    assert elements >= 20000 and combinations >= 3000 and invertible >= 150


@FIELDS
def test_stable_hom_matches_the_typed_route(field):
    pairs = [(X, Y) for alg, _, M, M2 in _random_pairs(field, seeds=4)
             for X in (M, M2) for Y in (M2, simple_module(alg))]
    assert len(pairs) == 64
    omega2 = syzygy_power(simple_module(preset("lambda_c", field=field, c=0)), 2)
    pairs.append((omega2, omega2))
    values = [stable_hom_dim(X, Y) for X, Y in pairs]
    assert values == [typed_stable_hom_dim(X, Y) for X, Y in pairs]
    assert values[-1] == 22 and sum(v > 0 for v in values) >= 10


@pytest.fixture
def typed_reads(monkeypatch):
    """Each call of ``typed_values``, ``Subspace.sparse_rows`` and ``Subspace.residue``."""
    seen = []

    def counted(name, original):
        return lambda *args: seen.append(name) or original(*args)
    typed_values = counted("typed_values", linalg.typed_values)
    for mod in (linalg, modules, homology, kronecker):
        monkeypatch.setattr(mod, "typed_values", typed_values)
    for name in ("sparse_rows", "residue"):
        monkeypatch.setattr(Subspace, name, counted(name, getattr(Subspace, name)))
    return seen


GUARD_FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=str)


@GUARD_FIELDS
def test_a_search_reads_no_typed_value_until_its_witness_is_read(field, typed_reads):
    found = {True: 0, False: 0}
    for M, N, seed in search_pairs(field) + loewy_length_3_pairs(field):
        M.algebra.sections()  # solved once per algebra, by the typed solve_matrix
        typed_reads.clear()
        iso = find_isomorphism(M, N, seed=seed)
        assert typed_reads == [], (M, N)
        if iso.witness is not None and M.dim:
            # Only the witness's matrix is typed: from its graph's rows when
            # J^2 kills M and N, else by one typing of the flat row or
            # combination that hit.
            square = M.loewy_length() < 3 and N.loewy_length() < 3
            assert iso.witness.matrix.rows == M.dim
            if square:
                assert typed_reads[0] == "sparse_rows"
            else:
                assert typed_reads == ["typed_values"]
            found[square] += 1
    # Searches on the g0 system and on the flat rows of hom_space.
    assert found[True] >= 150 and found[False] >= 12


@GUARD_FIELDS
def test_hom_dim_reads_no_typed_value(field, typed_reads):
    routes = {True: 0, False: 0}
    for M, N in hom_pairs(field):
        M.algebra.sections()
        typed_reads.clear()
        hom_dim(M, N)
        assert typed_reads == [], (M, N)
        routes[M.loewy_length() < 3] += 1
    assert routes[True] >= 500 and routes[False] >= 50


@GUARD_FIELDS
def test_a_stable_hom_reads_no_typed_value(field, typed_reads):
    stable = 0
    for alg, _, M, M2 in _random_pairs(field, seeds=2):
        alg.sections()  # solved once per algebra, by the typed solve_matrix
        for X, Y in ((M, M2), (M2, M), (M2, simple_module(alg))):
            typed_reads.clear()
            stable += stable_hom_dim(X, Y) > 0
            assert typed_reads == [], (X, Y)
    assert stable >= 10

