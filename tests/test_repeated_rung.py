"""A rung that repeats its predecessor ends the walk's covers.

When the cover of Ω^j returns its own shadow, the same pivot form in the
same A^t, every later step is that step (``homology._repeats``):
``resolution`` yields it again with no new cover, and Ext reads its Hom
dimension again.  ``betti`` walks its own rungs and covers each of them.
The oracle is the walk that covers every rung
(``references.covering_resolution``) with Ext, the bounded predicates and
the ladder read along it.  M(0) over
``lambda_c`` and ``cyclic_x`` over ``ex15_1(3,2)`` and ``ex9_3`` repeat from
Ω^1; M(2) over ``lambda_c`` is the near miss, whose consecutive shadows share
their ambient, free columns and ``at`` but not their pivot rows, and must
still be covered rung by rung.
"""

from itertools import islice

import pytest

from shortloc import homology
from shortloc.homology import (betti, ext_dims, is_gp, is_inf_torsionfree, is_semi_gp,
                               resolution)
from shortloc.linalg import QQ, Field
from shortloc.modules import cyclic_submodule, left_regular_module, m_alpha
from shortloc.presets import preset

from references import (covering_ext_dims, covering_is_gp, covering_is_inf_torsionfree,
                        covering_is_semi_gp, covering_resolution, unsplit_ladder)

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

BOUND = 12


def cyclic_x(alg):
    coords = [0] * alg.dim
    coords[1] = 1
    return cyclic_submodule(alg, coords)


def fixed_orbits(field):
    """(name, module) for the modules whose Ω^1 is its own syzygy in literal coordinates."""
    return [("M(0) lambda_c(c=0)", m_alpha(preset("lambda_c", field=field, c=0), 0)),
            ("M(0) lambda_c(c=1)", m_alpha(preset("lambda_c", field=field, c=1), 0)),
            ("cyclic_x ex15_1(3,2)", cyclic_x(preset("ex15_1", field=field, e=3, a=2))),
            ("cyclic_x ex9_3", cyclic_x(preset("ex9_3", field=field)))]


@pytest.fixture
def counts(monkeypatch):
    """The covers formed and the Hom systems Ext ranks, through the homology module."""
    seen = {"cover": 0, "hom": 0}

    def cover(M, cap=homology.DEFAULT_CAP, _original=homology.projective_cover):
        seen["cover"] += 1
        return _original(M, cap=cap)

    def hom(M, N, _original=homology.hom_dim):
        seen["hom"] += 1
        return _original(M, N)
    monkeypatch.setattr(homology, "projective_cover", cover)
    monkeypatch.setattr(homology, "hom_dim", hom)
    return seen


def _take(counts):
    out = (counts["cover"], counts["hom"])
    counts.update(cover=0, hom=0)
    return out


@FIELDS
def test_the_fixed_orbits_repeat_from_the_first_syzygy(field):
    # The walk that covers every rung sees Ω^2 = Ω^1 in literal coordinates,
    # and Ω^1 ≠ Ω^0 = M, which is no syzygy.
    for name, M in fixed_orbits(field):
        steps = list(islice(covering_resolution(M), 3))
        first, second = steps[1]._kernel_space, steps[2]._kernel_space
        assert homology._repeats(steps[1].module, first), name
        assert (first.ambient, first.pivot_form()) == (second.ambient, second.pivot_form()), name
        assert not homology._repeats(M, steps[0]._kernel_space), name


@FIELDS
def test_ext_predicates_and_ladders_match_the_covering_walk(field):
    for name, M in fixed_orbits(field):
        A = left_regular_module(M.algebra)
        assert ext_dims(M, A, BOUND) == covering_ext_dims(M, A, BOUND), name
        assert is_semi_gp(M, BOUND) == covering_is_semi_gp(M, BOUND), name
        assert is_inf_torsionfree(M, BOUND) == covering_is_inf_torsionfree(M, BOUND), name
        assert is_gp(M, BOUND) == covering_is_gp(M, BOUND), name
        assert betti(M, BOUND).values == tuple(islice(unsplit_ladder(M), BOUND + 1)), name


@FIELDS
def test_a_fixed_orbit_is_covered_twice(field, counts):
    # Ω^0 and Ω^1 are covered and their two Hom systems ranked; every later
    # step is step 1 read again.  betti covers each of rungs 0..BOUND-1.
    # The transpose of M(0) and of cyclic_x over ex15_1(3,2) repeats from
    # its Ω^1 too: two covers for d_1, then the scan starts at Ω^1 Tr M,
    # read off d_1, with one cover and one Hom system; Tr M itself is
    # neither covered nor ranked.  cyclic_x over ex9_3 has Ext^1(M, A) = 2.
    for name, M in fixed_orbits(field):
        A = left_regular_module(M.algebra)
        ext_dims(M, A, BOUND)
        assert _take(counts) == (2, 2), name
        assert bool(is_semi_gp(M, BOUND)) == (name != "cyclic_x ex9_3")
        assert _take(counts) == (2, 2), name
        betti(M, BOUND)
        assert _take(counts) == (BOUND, 0), name
        if name != "cyclic_x ex9_3":
            is_inf_torsionfree(M, BOUND)
            assert _take(counts) == (3, 1), name
            is_gp(M, BOUND)
            assert _take(counts) == (5, 3), name
    # A resolution read deep forms no cover past the repeat, and yields one step object.
    M = fixed_orbits(field)[0][1]
    steps = list(islice(resolution(M), 20))
    assert _take(counts)[0] == 2 and all(step is steps[1] for step in steps[1:])


@FIELDS
@pytest.mark.parametrize("c", [0, 1])
def test_the_near_miss_is_covered_rung_by_rung(field, c, counts):
    # M(2)'s consecutive shadows share their ambient, free columns and at,
    # and differ in their pivot rows: no rung repeats, so each gets a cover
    # and a ranked Hom system, and the values are the covering walk's.
    M = m_alpha(preset("lambda_c", field=field, c=c), 2)
    A = left_regular_module(M.algebra)
    shadows = [step._kernel_space for step in islice(covering_resolution(M), 3)]
    for one, two in zip(shadows, shadows[1:]):
        (piv, free, at, scales), (piv2, free2, at2, scales2) = one.pivot_form(), two.pivot_form()
        assert (one.ambient, free, list(at)) == (two.ambient, free2, list(at2))
        assert piv != piv2
    n = 6
    ladder, exts = tuple(islice(unsplit_ladder(M), n + 1)), covering_ext_dims(M, A, n)
    _take(counts)
    assert betti(M, n).values == ladder
    assert _take(counts) == (n, 0)
    assert ext_dims(M, A, n) == exts
    assert _take(counts) == (n + 1, n + 1)
