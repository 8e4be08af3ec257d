"""The one reduction routine, ``Subspace.residue``, against the walks it replaced.

``contains``, ``coords`` and ``reduce`` read the residue, and so do a
quotient's action columns.  Each is compared in value and scalar type
with its walk in ``references.py``, over Q, F_7 and F_32003, on spans and
kernels; the residue is typed once from ints, so its values have the
canonical type (``references.canonical``).  The integer tops of a Hom
basis on M's presentation (``references.integer_top``) are the same
reduction along the radical's integer rows (``Subspace.int_residue``):
each is compared in value with the walk's typed top, times the scale it is
read over.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from shortloc.errors import BadParams, DimensionMismatch
from shortloc.linalg import Field, Matrix, Subspace, kernel_subspace
from shortloc.modules import (AModule, generated_submodule, presentation_equations, quotient,
                              random_module)
from shortloc.presets import preset

from references import (canonical, integer_top, scalars, walk_quotient_columns, walk_reduce,
                        walk_rest, walk_tops)
from test_linalg import ELIM_FIELDS, elimination_inputs, reference_rref_rows


def typed_entries(d, types=scalars):
    """A dict's entries in index order, each value with its type (``types`` of the values)."""
    keys = sorted(d)
    return list(zip(keys, types(d[j] for j in keys)))


def subspaces(field):
    """The span and the kernel of each elimination input."""
    for m in elimination_inputs(field):
        yield Subspace.from_vectors(field, m.cols, m.data)
        yield kernel_subspace(m)


def vectors(field, space, rng):
    """Members of ``space``, seeded combinations of its basis, and seeded vectors of k^n."""
    pool = [field.of(x) for x in (-2, -1, 0, 0, 1, 3)]
    if field.is_rationals:
        pool += [field.of("1/3"), field.of("-5/2")]
    for _ in range(3):
        coefs = [rng.choice(pool) for _ in range(space.dim)]
        yield tuple(sum((c * row[j] for c, row in zip(coefs, space.basis)), field.zero())
                    for j in range(space.ambient))
        yield tuple(rng.choice(pool) for _ in range(space.ambient))


@ELIM_FIELDS
def test_the_residue_and_its_readers_match_the_walks(field):
    rng = random.Random(23)
    members = outsiders = 0
    for space in subspaces(field):
        free = set(space.free_columns())
        for v in vectors(field, space, rng):
            for entries in (dict(enumerate(v)), {j: x for j, x in enumerate(v) if x}):
                rest = walk_rest(space, entries)
                want = {j: x for j, x in rest.items() if j in free}
                # The residue is typed once from ints: the walk's values, each
                # of the canonical type.
                assert typed_entries(space.residue(entries.items())) == \
                    typed_entries(want, canonical)
                assert space.contains(entries) == (not any(rest.values()))
            # At the free columns the reduced vector is the residue, of the
            # canonical type; at a pivot a zero of the entry's own type.
            assert scalars(space.reduce(v)) == tuple(
                canonical([x])[0] if j in free else (type(x), x)
                for j, x in enumerate(walk_reduce(space, v)))
            if space.contains(v):
                assert scalars(space.coords(v)) == scalars(tuple(v[p] for p in space.pivots))
                members += 1
            else:
                with pytest.raises(DimensionMismatch):
                    space.coords(v)
                outsiders += 1
    assert members >= 150 and outsiders >= 50


@ELIM_FIELDS
def test_span_int_rows_over_their_scale_are_the_reduced_rows(field):
    p = field.characteristic
    for m in elimination_inputs(field):
        rows, pivots = reference_rref_rows(field, m.data, m.cols)
        span = Subspace.from_vectors(field, m.cols, m.data)
        got = {q: [(j, x * pow(scale, -1, p) % p if p else Fraction(x, scale))
                   for j, x in zip(idx, vals)]
               for q, (idx, vals, scale) in span.int_rows().items()}
        typed = {q: [(j, x.v if p else x) for j, x in zip(idx, vals)]
                 for q, (idx, vals) in span.sparse_rows().items()}
        want = {c: sorted((j, x.v if p else x) for j, x in enumerate(row) if x)
                for c, row in zip(pivots, rows)}
        assert list(got) == pivots and got == typed
        assert {q: sorted(row) for q, row in got.items()} == want


def halved(M):
    """M in the basis 2^i·e_i: entry x at (i, j) becomes x·2^(i - j), a fraction over Q."""
    field = M.field
    return AModule(M.algebra, M.dim, [
        Matrix(field, [[x * field.of(Fraction(2 ** i, 2 ** j)) if x else x
                        for j, x in enumerate(row)] for i, row in enumerate(X.data)])
        for X in M.actions], check=False)


@ELIM_FIELDS
def test_quotients_and_tops_match_the_walks(field):
    quotients = maps = 0
    for name, kw in [("lambda_c", {"c": 1}), ("ex15_1", {"e": 3, "a": 2}), ("qexterior", {}),
                     ("ex5_3", {})]:
        alg = preset(name, field=field, **kw)
        for seed in range(4):
            M = random_module(alg, 1 + seed % 2, seed % 3, seed=seed)
            M = halved(M) if seed % 2 else M
            rng = random.Random(seed)
            _, emb = generated_submodule(M, [[field.of(rng.choice((-1, 0, 1, 2, 5)))
                                              for _ in range(M.dim)]])
            radical = M.radical()
            for sub in (radical, M.socle(),
                        Subspace.from_vectors(field, M.dim, emb.matrix.transpose().data)):
                Q, _ = quotient(M, sub)
                want = [Matrix.from_sparse_columns(field, Q.dim, [col.items() for col in act])
                        for act in walk_quotient_columns(M, sub)]
                assert [list(map(scalars, X.data)) for X in Q.actions] == \
                    [list(map(scalars, X.data)) for X in want]
                quotients += 1
                for N in (M, Q):
                    homs, t = kernel_subspace(presentation_equations(M, N)), M.top_dim()
                    rows = [homs.int_rows()[p] for p in homs.pivots]
                    L = lcm(*[lead for _, _, lead in N.radical().int_rows().values()])
                    got = [{q: x for q, x in integer_top(N, t, dict(zip(idx, vals))).items() if x}
                           for idx, vals, _ in rows]
                    # The walk's dense tops, read as {f·t + k: entry (f, k)}: the
                    # integer top is the typed one times L·s, s the row's scale.
                    ref = [{f * t + k: x * field.of(L * s) for f, row in enumerate(X.data)
                            for k, x in enumerate(row) if x}
                           for X, (_, _, s) in zip(walk_tops(N, t, homs), rows)]
                    assert got == ref
                    maps += len(got)
    assert quotients == 48 and maps >= 100


@pytest.mark.parametrize("p", [7, 32003])
def test_the_public_reductions_read_plain_ints_over_fp(p):
    # The residue coerces each entry through Field.of: a vector of plain ints
    # reduces, is tested and is read in coordinates as its residues are.
    field, rng, checked = Field.prime(p), random.Random(p), 0
    for space in subspaces(field):
        for _ in range(3):
            ints = [rng.choice((0, 1, 2, p - 1)) for _ in range(space.ambient)]
            typed = [field.of(x) for x in ints]
            assert space.reduce(ints) == space.reduce(typed)
            assert space.contains(ints) == space.contains(typed)
            assert space.contains(dict(enumerate(ints))) == space.contains(typed)
        if space.dim:
            member = [x.v for x in space.basis[0]]
            assert space.coords(member) == space.coords(list(space.basis[0]))
            checked += 1
    assert checked >= 20
    with pytest.raises(BadParams, match="float"):
        Subspace.from_vectors(field, 2, [[field.of(1), field.of(0)]]).contains([0.5, 1])
