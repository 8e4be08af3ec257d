"""The shadow resolution engine against the whole-cover route it replaced.

From step 1 on, a resolution step is one kernel of the big Φ of a syzygy,
read off its shadow.  The reference below is the route every step took
before: it eliminates the whole cover matrix, built by mapping the top
lifts through the dense basis images, and builds each kernel module with
``module_from_subspace``.  It lives here only, as the reference.
"""

from fractions import Fraction
from itertools import islice

import pytest

from shortloc import homology
from shortloc.errors import ResourceCapExceeded
from shortloc.homology import Syzygy, betti, resolution
from shortloc.linalg import QQ, Field, Matrix, Subspace, kernel_subspace
from shortloc.modules import (free_module, m_alpha, mod_j_squared, module_from_subspace,
                              random_module, simple_module)
from shortloc.presets import preset

from references import (boundary_elements, generator_images, omegas, plain_cover_columns,
                        scalars, top_lift, typed, typed_columns, typed_phi_kernel,
                        typed_pivot_columns)

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

DEPTH = 4


class WholeCoverResolution:
    """Covers by the whole cover matrix, kernels as explicit modules."""

    def __init__(self, M):
        self.modules = [M]
        self.kernels = []
        self.embeddings = []

    def extend_to(self, depth):
        while len(self.kernels) <= depth:
            M = self.modules[-1]
            columns = plain_cover_columns(M)
            ker = kernel_subspace(Matrix.from_columns(M.field, columns, M.dim))
            sub, emb = module_from_subspace(free_module(M.algebra, M.top_dim()), ker)
            self.kernels.append(ker)
            self.embeddings.append(emb)
            self.modules.append(sub)

    def rank(self, i):
        self.extend_to(i - 1)
        return self.modules[i].top_dim()

    def boundary_elements(self, j):
        self.extend_to(j)
        n = self.modules[0].algebra.dim
        emb = self.embeddings[j - 1].matrix
        lifts = Matrix.from_columns(emb.field, top_lift(self.modules[j]), emb.cols)
        return [[col[k * n:(k + 1) * n] for k in range(self.rank(j - 1))]
                for col in (emb * lifts).transpose().data]


def _typed_actions(M):
    return [list(map(scalars, X.data)) for X in M.actions]


def _inputs(field):
    """S and M(alpha), seeded random (mostly Loewy length 3) and J^2-quotient modules."""
    lam = preset("lambda_c", field=field, c=1)
    mods = [simple_module(lam)] + [m_alpha(lam, alpha) for alpha in (0, 1, 2)]
    for name, kw in [("qexterior", {}), ("ex15_1", {"e": 3, "a": 2}), ("ex5_3", {}),
                     ("ex9_3", {}), ("L", {"e": 2})]:
        alg = preset(name, field=field, **kw)
        mods.append(simple_module(alg))
        for seed in range(3):
            M = random_module(alg, 1 + seed % 2, seed % 3, seed=seed)
            mods += [M, mod_j_squared(M)]
    return mods


@FIELDS
def test_shadow_steps_match_the_whole_cover_route(field):
    loewy, outer_lifts, mixed_rows = [], 0, 0
    for M in _inputs(field):
        steps, ref = list(islice(resolution(M), DEPTH)), WholeCoverResolution(M)
        ladder = [M] + [step.kernel for step in steps]
        assert [X.top_dim() for X in ladder] == [ref.rank(i) for i in range(DEPTH + 1)], M
        for j in range(1, DEPTH + 1):
            rows, expected = boundary_elements(ladder[j]), ref.boundary_elements(j)
            assert [list(map(scalars, r)) for r in rows] == \
                [list(map(scalars, r)) for r in expected], (M, j)
        for i in range(DEPTH):
            assert typed(steps[i]._kernel_space) == typed(ref.kernels[i]), (M, i)
            syz = ladder[i + 1]
            assert typed(syz.space) == typed(ref.kernels[i])
            assert _typed_actions(syz) == _typed_actions(ref.modules[i + 1]), (M, i)
            assert top_lift(syz) == top_lift(ref.modules[i + 1])
            n, e = M.algebra.dim, M.algebra.e
            outer_lifts += sum(p % n > e for p in syz.cover[0])
            sparse = syz.space.sparse_rows()
            mixed_rows += sum(any(1 <= c % n <= e for c in sparse[p][0])
                              for p in syz.space.pivots if p % n > e)
        loewy.append(M.loewy_length())
    # Steps with top lifts at J^2-coordinates, and first syzygies of
    # Loewy-length-3 inputs whose J^2-rows reach V-coordinates, are covered.
    assert loewy.count(3) >= 5 and loewy.count(2) >= 10 and outer_lifts >= 20
    assert mixed_rows >= 1


# -- the engine's work, counted ------------------------------------------------

def test_betti_ladder_makes_one_cover_per_step_and_no_module_or_product(monkeypatch):
    counts = {"projective_cover": 0, "module_from_columns": 0, "mul": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted
    for name in ("projective_cover", "module_from_columns"):
        monkeypatch.setattr(homology, name, counting(name, getattr(homology, name)))
    monkeypatch.setattr(Matrix, "__mul__", counting("mul", Matrix.__mul__))
    alg = preset("ex15_1", e=3, a=2)
    Matrix.identity(QQ, 1) * Matrix.identity(QQ, 1)
    assert counts["mul"] == 1  # the patched product records
    counts["mul"] = 0
    assert betti(simple_module(alg), 6).values == (1, 3, 7, 15, 31, 63, 127)
    assert counts == {"projective_cover": 6, "module_from_columns": 0, "mul": 0}


def test_betti_past_the_cap_raises_in_process():
    # L(3): t_i = 3^i, and the cover of the syzygy with t_3 = 27 has
    # dimension 27 · 4 = 108 > 100.
    with pytest.raises(ResourceCapExceeded, match="108 exceeds cap 100"):
        betti(simple_module(preset("L", e=3)), 12, cap=100)


# -- the cover's fallback, against the route through the radical ----------------

def radical_route_cover(alg, space):
    """Syzygy.cover with its fallback read off the radical, kept as the reference.

    When the V-rows do not lift the whole top, the lifts are the rows at
    the free columns of the radical's reduced basis, which eliminates
    every image ψ_j(x) of every basis row.
    """
    syz = Syzygy(alg, space)
    n, e = alg.dim, alg.e
    rows = space.sparse_rows()
    images = dict(zip(space.pivots, generator_images(alg, [rows[p] for p in space.pivots])))
    lifts = [p for p in space.pivots if p % n <= e]
    kernel = typed_phi_kernel(alg, [images[p] for p in lifts])
    if (e + alg.a) * len(lifts) - kernel.dim < space.dim - len(lifts):
        lifts = [space.pivots[r] for r in syz.radical().free_columns()]
        kernel = typed_phi_kernel(alg, [images[p] for p in lifts])
    return tuple(lifts), kernel


def _takes_the_fallback(syz):
    n, e = syz.algebra.dim, syz.algebra.e
    return any(p % n > e for p in syz.cover[0])


@FIELDS
def test_the_cover_fallback_matches_the_radical_route(field):
    fallbacks = 0
    for M in _inputs(field):
        for i, syz in enumerate(omegas(M, DEPTH)[1:], 1):
            lifts, kernel = radical_route_cover(M.algebra, syz.space)
            assert syz.cover[0] == lifts, (M, i)
            assert typed(syz.cover[1]) == typed(kernel), (M, i)
            fallbacks += _takes_the_fallback(syz)
    assert fallbacks >= 20


@FIELDS
def test_an_ex5_3_ladder_takes_the_fallback_without_the_radical(field):
    S = simple_module(preset("ex5_3", field=field))
    ladder = [step.module for step in islice(resolution(S), 7)][1:]  # Ω^1 .. Ω^6, each covered
    assert [X for X in ladder if _takes_the_fallback(X)]
    assert all(X._radical is None for X in ladder)


# -- the shadow images, against mapping every row ------------------------------

def all_rows_route(alg, space):
    """The images, action columns and cover of a syzygy, mapping every shadow row.

    This maps the rows with no V-coordinate too, whose images are empty,
    and reads the fallback's lifts off the radical of the action columns;
    it is kept here as the reference.
    """
    n, e = alg.dim, alg.e
    rows = space.sparse_rows()
    images = dict(zip(space.pivots, generator_images(alg, [rows[p] for p in space.pivots])))
    columns = typed_pivot_columns(space, list(images.values()), e)
    lifts = [p for p in space.pivots if p % n <= e]
    kernel = typed_phi_kernel(alg, [images[p] for p in lifts])
    if (e + alg.a) * len(lifts) - kernel.dim < space.dim - len(lifts):
        radical = Subspace.from_vectors(alg.field, space.dim,
                                        (dict(col) for cols in columns for col in cols))
        lifts = [space.pivots[r] for r in radical.free_columns()]
        kernel = typed_phi_kernel(alg, [images[p] for p in lifts])
    return images, columns, (tuple(lifts), kernel)


def _typed_columns(columns):
    """Each column's entries by row, with each scalar's type; their order carries no meaning."""
    return [[[(r, type(y), y) for r, y in sorted(col)] for col in cols] for cols in columns]


def _scalar_images(field, imgs, scale):
    """Integer images over ``scale`` as dicts {index: scalar}."""
    return [{q: field.of(Fraction(y, scale)) for q, y in img.items()} for img in imgs]


@FIELDS
def test_the_shadow_images_skip_only_rows_that_map_to_zero(field):
    skipped = 0
    for M in _inputs(field):
        for i, syz in enumerate(omegas(M, DEPTH)[1:], 1):
            images, columns, (lifts, kernel) = all_rows_route(M.algebra, syz.space)
            mapped = syz._shadow_images
            assert all(_scalar_images(field, *syz.images([p])[0]) == images[p]
                       for p in mapped), (M, i)
            assert all(type(y) is int for imgs, _ in syz.images(mapped)
                       for img in imgs for y in img.values())
            assert not any(any(images[p]) for p in images if p not in mapped), (M, i)
            skipped += len(images) - len(mapped)
            assert _typed_columns(typed_columns(syz)) == _typed_columns(columns), (M, i)
            assert syz.cover[0] == lifts, (M, i)
            assert typed(syz.cover[1]) == typed(kernel), (M, i)
    assert skipped >= 500
