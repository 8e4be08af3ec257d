"""A kernel's pivot form read against references that do not read it as the engine does.

A kernel keeps its elimination's pivot form (piv, free, at, σ), and
``linalg.pivot_relations`` is its one reader: ``_kernel_rows`` puts each
relation over its least scale, and ``modules._kronecker_equations`` builds
the g0 system of a J^2-zero module from the relations.  The ladder of
M(1) over lambda_1 carries column scales and leads other than 1 from its
second rung on, so both readers are checked there, over Q, F_7 and
F_32003: the kernel rows against a dense Gauss-Jordan kernel of the
matrix the pivot form stands for, and ``hom_dim`` against the g0 system
built from the cover kernel's typed rows (``reference_top_hom_dim``).
"""

from fractions import Fraction
from math import gcd

import pytest

from shortloc import linalg
from shortloc.homology import resolution
from shortloc.linalg import QQ, Field
from shortloc.modules import hom_dim, left_regular_module, m_alpha, random_module, simple_module
from shortloc.presets import preset

from references import reference_top_hom_dim

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)


def rungs(field, last):
    """Ω^2 .. Ω^last of M(1) over lambda_1, as the resolution's syzygies."""
    out = []
    for k, step in enumerate(resolution(m_alpha(preset("lambda_c", field, c=1), 1))):
        if k >= 1:
            out.append(step.kernel)
        if k == last - 1:
            return out


def dense_kernel(rows, ncols, p):
    """Free column -> its kernel vector of the dense rows, by Gauss-Jordan on Fractions
    (on residues mod p over F_p), 1 at its free column and 0 at the others."""
    inv = (lambda x: pow(x, -1, p)) if p else (lambda x: 1 / Fraction(x))
    red = (lambda x: x % p) if p else (lambda x: x)
    rows, pivots = [list(row) for row in rows], []
    for c in range(ncols):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if r is None:
            continue
        rows[len(pivots)], rows[r] = rows[r], rows[len(pivots)]
        row = rows[len(pivots)]
        s = inv(row[c])
        row[:] = [red(x * s) if x else 0 for x in row]
        for other in rows:
            if other is not row and other[c]:
                t = other[c]
                other[:] = [red(x - t * y) if y else x for x, y in zip(other, row)]
        pivots.append(c)
    out = {}
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = red(-rows[r][f])
        out[f] = vec
    return out


@FIELDS
def test_kernel_rows_are_the_dense_kernel_of_the_pivot_form(field):
    # Column c of the elimination is σ_c times the column meant, so the
    # matrix meant has piv[r][c]/σ_c; its rows are mixed (row r plus row
    # r + 1) so that the dense elimination does work of its own.
    p, led, scaled = field.characteristic, 0, 0
    for syz in rungs(field, 6):
        piv, free, at, sigma = form = syz.space.pivot_form()
        ncols = len(free) + len(piv)
        meant = [[Fraction(x, sigma[c]) if sigma and x else x
                  for c, x in ((c, row.get(c, 0)) for c in range(ncols))] for row in piv.values()]
        mixed = [[x + y for x, y in zip(a, b)] for a, b in zip(meant, meant[1:])] + meant[-1:]
        dense = dense_kernel(mixed, ncols, p)
        got = linalg._kernel_rows(field, *form)
        assert got == syz.space.int_rows() and list(got) == [at[f] for f in free]
        for f in free:
            idx, vals, scale = got[at[f]]
            assert idx[0] == at[f] and list(idx[1:]) == sorted(idx[1:])
            want = {at[c]: x for c, x in enumerate(dense[f]) if x}
            if p:
                assert scale == 1 and dict(zip(idx, vals)) == want
            else:
                assert scale > 0 and gcd(*vals) == 1  # the least scale
                assert {i: Fraction(v, scale) for i, v in zip(idx, vals)} == want
        led += any(row[c] != 1 for c, row in piv.items())
        scaled += sigma is not None
    assert (led, scaled) == ((0, 0) if p else (5, 4))


@FIELDS
def test_hom_dim_is_the_g0_system_of_the_typed_cover_kernel(field):
    alg = preset("lambda_c", field, c=1)
    targets = [left_regular_module(alg), simple_module(alg), random_module(alg, 1, 1, 4),
               random_module(alg, 2, 1, 5)]
    scaled = 0
    for syz in rungs(field, 5):
        piv, _, _, sigma = syz.cover_kernel.pivot_form()
        scaled += sigma is not None and any(row[c] != 1 for c, row in piv.items())
        for N in targets:
            assert hom_dim(syz, N) == reference_top_hom_dim(syz, N), (syz.dim, N.dim)
    assert scaled == (0 if field.characteristic else 4)
