"""The one cover route against the dense whole-cover elimination.

Every cover kernel is the kernel of the cover restricted to JA^t, read off
the images of the radical basis at the top lifts (``int_images``, then
``phi_kernel``), whatever the module's Loewy length.  The reference kept
here is the route Loewy-length-3 inputs took before: the whole cover
matrix, built from the dense basis images of the top lifts, eliminated at
once.  Over Q, F_7 and F_32003 the kernels must agree in basis, pivots,
sparse rows and scalar types, and the cover map in every column, each
entry of the type ``Rational`` gives its value.  The
radical, read off the sparse action columns, must equal the span of the
dense action columns.  ``phi_kernel`` is checked against the construction
it replaced: ker Φ over the formed images only, re-keyed into A^t, with
the unit vectors of the unformed w-images added; Φ's integer rows are
read back as scalar images, each value over its lift's scale, for the
reference.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

from shortloc import homology
from shortloc.homology import betti, projective_cover, syzygy_power
from shortloc.linalg import QQ, Field, Matrix, Subspace, kernel_subspace
from shortloc.modules import (free_module, mod_j_squared, random_module, semisimple_module,
                              simple_module)
from shortloc.presets import preset

from references import canonical, from_scalars, plain_cover_columns, scalars, typed

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

ALGEBRAS = [("ex15_1", {"e": 3, "a": 2}), ("lambda_c", {"c": 1}), ("ex3_4", {}), ("ex8_3", {}),
            ("ex5_3", {}), ("qexterior", {}), ("L", {"e": 3})]


def _inputs(field):
    """Seeded random modules (many of Loewy length 3), their J^2-quotients,
    semisimple and free modules, and the first syzygies of a few."""
    for name, kw in ALGEBRAS:
        alg = preset(name, field=field, **kw)
        yield simple_module(alg)
        yield semisimple_module(alg, 2)
        yield free_module(alg, 2)
        for seed in range(12):
            M = random_module(alg, 1 + seed % 3, seed % 4, seed=seed)
            yield M
            yield mod_j_squared(M)
            if seed < 2:
                yield syzygy_power(M, 1 + seed)


@FIELDS
def test_the_cover_route_matches_the_dense_whole_cover(field):
    loewy, syzygies = [], 0
    for M in _inputs(field):
        dense_radical = Subspace.from_vectors(field, M.dim,
                                              (c for X in M.actions for c in zip(*X.data)))
        assert typed(M.radical()) == typed(dense_radical), M
        pres = projective_cover(M)
        columns = plain_cover_columns(M)
        reference = kernel_subspace(Matrix.from_columns(field, columns, M.dim))
        assert typed(pres._kernel_space) == typed(reference), (M, M.loewy_length())
        # Equal values; the engine's entries have the canonical type (an int when integral).
        assert list(map(scalars, zip(*pres.cover_map.matrix.data))) == \
            list(map(canonical, columns)), M
        loewy.append(M.loewy_length())
        syzygies += M._square_zero
    assert loewy.count(3) >= 40 and loewy.count(2) >= 100 and loewy.count(1) >= 30
    assert syzygies >= 14 and len(loewy) >= 200


def reference_phi_kernel(alg, images):
    """ker Φ with a column per formed image only, re-keyed into A^t, then the unit
    vectors at the w-images not formed, merged in pivot order: (ambient, pivots, rows)."""
    n, one = alg.dim, alg.field.one()
    at = [k * n + 1 + u for k, imgs in enumerate(images) for u in range(len(imgs))]
    phi_rows = defaultdict(dict)
    for c, img in enumerate([img for imgs in images for img in imgs]):
        for q, y in img.items():
            phi_rows[q][c] = y
    phi = kernel_subspace(from_scalars(alg.field, list(phi_rows.values()), len(at)))
    unread = [q for k, imgs in enumerate(images) for q in range(k * n + 1 + len(imgs), (k + 1) * n)]
    pivots = sorted([at[c] for c in phi.pivots] + unread)
    vrows = {at[c]: (tuple(at[i] for i in idx), vals)
             for c, (idx, vals) in phi.sparse_rows().items()}
    rows = {q: vrows[q] if q in vrows else ((q,), (one,)) for q in pivots}
    return n * len(images), tuple(pivots), rows


def typed_rows(rows):
    """Sparse rows {pivot: (indices, values)}, with the type of every scalar."""
    return [(p, idx, scalars(vals)) for p, (idx, vals) in rows.items()]


def typed_basis(field, ambient, rows):
    """The dense basis of sparse rows, in pivot order, with the type of every scalar."""
    basis = []
    for idx, vals in rows.values():
        row = [field.zero()] * ambient
        for j, x in zip(idx, vals):
            row[j] = x
        basis.append(scalars(row))
    return basis


def scalar_images(alg, rows, scales):
    """Each lift's images as dicts {index: scalar}, read off Φ's integer rows over its scale.

    A lift whose w-columns are all empty is given its e generator images
    only, as a cover that forms no w-image does.
    """
    n, field, p = alg.dim, alg.field, alg.field.characteristic
    columns = defaultdict(dict)
    for q, row in rows.items():
        for c, y in row.items():
            if y % p if p else y:
                columns[c][q] = field.of(Fraction(y, scales[c // (n - 1)]))
    images = [[columns.get(k * (n - 1) + u, {}) for u in range(n - 1)]
              for k in range(len(scales))]
    return [imgs if any(imgs[alg.e:]) else imgs[:alg.e] for imgs in images]


@FIELDS
def test_phi_kernel_matches_the_rekeyed_kernel_with_unit_w_rows(field, monkeypatch):
    calls = []
    original = homology.phi_kernel
    monkeypatch.setattr(homology, "phi_kernel",
                        lambda alg, rows, scales: calls.append(
                            (alg, rows, scales, original(alg, rows, scales))) or calls[-1][3])
    for M in _inputs(field):
        projective_cover(M)
    # Ladders of six rungs; the dense basis is compared up to ambient dimension 400.
    ladders = [betti(simple_module(preset(name, field=field, **kw)), 5).values
               for name, kw in ALGEBRAS]
    unformed = formed = scaled = 0
    for alg, rows, scales, got in calls:
        images = scalar_images(alg, rows, scales)
        scaled += any(scale != 1 for scale in scales)
        ambient, pivots, rows = reference_phi_kernel(alg, images)
        assert (got.ambient, got.pivots) == (ambient, pivots)
        assert typed_rows(got.sparse_rows()) == typed_rows(rows)
        if got.ambient <= 400:
            assert list(map(scalars, got.basis)) == typed_basis(alg.field, ambient, rows)
        unformed += any(len(imgs) < alg.dim - 1 for imgs in images)
        formed += any(len(imgs) == alg.dim - 1 > alg.e for imgs in images)
    assert max(t for values in ladders for t in values) >= 100
    assert unformed >= 100 and formed >= 40
    # Over Q some lifts carry a scale other than 1, folded back into the kernel;
    # over F_p every scale is 1.
    assert scaled >= 3 if field == QQ else scaled == 0
