"""Betti ladders walked one rung at a time, with S's copies split off, against the unsplit engine.

``betti`` walks X_0 = M, X_{i+1} = Ω(X_i').  For M simple each rung X_i,
i >= 1, sheds the copies of S at its top lifts with an empty block of Φ,
and t_i adds w_j·t_{i-j} for each earlier rung j that shed w_j copies.
The oracle is the unsplit ladder: the tops of the syzygies along one
walk that covers every rung (``references.unsplit_ladder``).  Values and
cap outcomes must agree rung by rung, over Q, F_7 and F_32003.  Ext and
the semi-GP scan walk ``resolution`` and, as ``betti`` does, hold one
rung.  A shadow
that holds J^2 A^t is stable with no image mapped (``Syzygy._holds_j2``):
every shadow so certified must pass the full image check, and a shadow
whose W-row is no unit vector is checked in full.
"""

import weakref
from itertools import islice

import pytest

from shortloc import homology
from shortloc.errors import BadParams, ResourceCapExceeded
from shortloc.homology import Syzygy, betti, ext_dims, is_semi_gp, resolution, syzygy
from shortloc.linalg import QQ, Field, IntRows, Subspace, kernel_subspace
from shortloc.modules import (free_module, left_regular_module, m_alpha, random_module,
                              semisimple_module, simple_module, zero_module)
from shortloc.presets import preset, preset_names

from references import generator_images, unsplit_ladder

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

#: The parameters of the presets that need some.
PRESET_PARAMS = {"L": {"e": 3}, "ex14_1": {"e": 2, "a": 1}, "ex15_1": {"e": 3, "a": 2}}


def _algebras(field):
    for name in preset_names():
        yield name, preset(name, field=field, **PRESET_PARAMS.get(name, {}))


def _unsplit(M, n, cap):
    """t_0..t_n by the unsplit engine and None, or the ladder up to the cap and its error."""
    values = []
    try:
        values.extend(islice(unsplit_ladder(M, cap), n + 1))
    except ResourceCapExceeded as exc:
        return values, exc
    return values, None


def _assert_same_outcome(M, n, cap):
    """betti(M, n) gives the unsplit values, or raises where and as the engine raises."""
    want, error = _unsplit(M, n, cap)
    if error is None:
        assert betti(M, n, cap=cap).values == tuple(want), (M, n, cap)
        return
    with pytest.raises(ResourceCapExceeded) as got:
        betti(M, n, cap=cap)
    assert (str(got.value), got.value.dim, got.value.cap) == \
        (str(error), error.dim, error.cap), (M, n, cap)


@FIELDS
def test_every_preset_s_ladder_matches_the_unsplit_engine(field):
    # As deep as 11 rungs, or as far as the engine gets under the cap; one
    # rung more raises as the engine does.
    cap, deep = 60_000, 0
    for name, alg in _algebras(field):
        S = simple_module(alg)
        want, error = _unsplit(S, 11, cap)
        n = len(want) - 1
        assert betti(S, n, cap=cap).values == tuple(want), name
        if error is not None:
            _assert_same_outcome(S, n + 1, cap)
        deep += want[-1] >= 2000
    assert deep >= 6


@FIELDS
def test_s_a_j_and_seeded_modules_match_the_unsplit_engine(field):
    for name, alg in _algebras(field):
        S = simple_module(alg)
        modules = [S, left_regular_module(alg), syzygy(S), semisimple_module(alg, 2)]
        modules += [random_module(alg, 1 + seed % 2, seed % 3, seed) for seed in range(3)]
        for M in modules:
            _assert_same_outcome(M, 5, homology.DEFAULT_CAP)


def test_the_walk_raises_iff_the_engine_raises_with_the_same_message():
    raised = passed = 0
    for name, alg in _algebras(QQ):
        for M in (simple_module(alg), random_module(alg, 2, 1, 5), random_module(alg, 1, 0, 7)):
            for n in (3, 6, 8):
                for cap in (50, 100, 200, 500, 1000, 2000, 5000):
                    error = _unsplit(M, n, cap)[1]
                    _assert_same_outcome(M, n, cap)
                    raised += error is not None
                    passed += error is None
    assert raised >= 120 and passed >= 600


def test_short_walks_the_zero_module_and_projectives(calls):
    for name, alg in _algebras(QQ):
        S, A = simple_module(alg), left_regular_module(alg)
        calls.clear()
        assert betti(S, 0).values == (1,) and calls == []
        assert betti(S, 1).values == (1, alg.e) and len(calls) == 1
        calls.clear()
        assert betti(zero_module(alg), 4).values == (0,) * 5
        assert betti(A, 4).values == (1, 0, 0, 0, 0)
        assert betti(free_module(alg, 2), 3).values == (2, 0, 0, 0)
        assert len(calls) == 4 + 4 + 3
        for M in (zero_module(alg), A, S):
            for n in (0, 1):
                _assert_same_outcome(M, n, homology.DEFAULT_CAP)
        with pytest.raises(BadParams, match="n must be at least 0"):
            betti(S, -1)


@pytest.fixture
def calls(monkeypatch):
    """The modules each projective_cover call of the homology module covers."""
    seen = []
    monkeypatch.setattr(homology, "projective_cover",
                        lambda M, cap=homology.DEFAULT_CAP, _original=homology.projective_cover:
                        seen.append(M) or _original(M, cap))
    return seen


# -- what is split off ---------------------------------------------------------

@FIELDS
def test_the_copies_split_off_are_exactly_the_lifts_that_j_kills(field, monkeypatch):
    # A copy is split off iff v_1..v_e kill its top lift, each image read
    # densely off the lift's typed row; its copy of S shows in the ladder.
    rungs = []

    def recording(X, _original=homology._split):
        copies, kernel = _original(X)
        rungs.append((X, copies))
        return copies, kernel
    monkeypatch.setattr(homology, "_split", recording)
    shed = {}
    for name, alg in _algebras(field):
        betti(simple_module(alg), 7)
        for X, copies in rungs:
            rows = X.space.sparse_rows()
            images = generator_images(alg, [rows[p] for p in X.cover[0]])
            killed = [k for k, imgs in enumerate(images)
                      if not any(x for img in imgs for x in img.values())]
            assert copies == killed, (name, X.dim)
            shed[name] = shed.get(name, 0) + len(copies)
        rungs.clear()
    # Copies of S are shed off the rungs over these five algebras and no others
    # among those named.
    assert all(shed[name] for name in ("ex5_3", "ex9_4", "ex9_3", "ex8_3", "L")), shed
    assert not any(shed[name] for name in ("ex15_1", "ex5_5", "qexterior", "lambda_c")), shed


def test_a_dropped_copy_whose_columns_are_not_all_free_is_refused():
    # Copy 0 of Ω^2 S over ex15_1(3,2) has a non-empty block of Φ; planted
    # as a block that no kernel pivot row reaches, as a scan that missed
    # the rows holding it would see it, it is split off and refused.
    alg = preset("ex15_1", e=3, a=2)
    X = syzygy(syzygy(simple_module(alg)))
    lifts, kernel = X.cover
    (piv, free, at, scales), m = kernel.pivot_form(), alg.dim - 1
    assert any(c < m for row in piv.values() for c in row)
    planted = {c: {f: y for f, y in row.items() if f >= m} for c, row in piv.items() if c >= m}
    X.__dict__["cover"] = (lifts, Subspace.from_pivot_rows(alg.field, kernel.ambient, planted,
                                                           free, at, scales))
    with pytest.raises(homology.InvariantViolation, match="not all free"):
        homology._split(X)


# -- the work of a walk, counted ----------------------------------------------

@pytest.mark.parametrize("name, kw, n", [("ex9_4", {}, 9), ("L", {"e": 3}, 7),
                                         ("ex5_3", {}, 10), ("ex15_1", {"e": 3, "a": 2}, 7)])
def test_a_walk_covers_each_rung_once_and_keeps_no_presentation(name, kw, n, monkeypatch):
    # One cover per rung 0..n-1, each after the previous presentation is
    # gone; one elimination of Φ per rung and for the top of rung n, and one
    # more per rung whose lifts reach the J^2-rows, after one of the radical:
    # a split rung eliminates nothing more.
    counts = {"cover": 0, "phi": 0, "radical": 0, "split": 0}
    presentations = []  # weak references: a presentation kept would stay alive

    def cover(M, cap=homology.DEFAULT_CAP, _original=homology.projective_cover):
        assert not any(ref() for ref in presentations)
        counts["cover"] += 1
        pres = _original(M, cap=cap)
        presentations.append(weakref.ref(pres))
        return pres

    def kernel(m, _original=homology.kernel_subspace, **embedding):
        counts["phi" if "at" in embedding else "radical"] += 1
        return _original(m, **embedding)

    def split(X, _original=homology._split):
        copies, kernel = _original(X)
        counts["split"] += len(copies) > 0
        return copies, kernel
    monkeypatch.setattr(homology, "projective_cover", cover)
    monkeypatch.setattr(homology, "kernel_subspace", kernel)
    monkeypatch.setattr(homology, "_split", split)
    S = simple_module(preset(name, **kw))
    values = betti(S, n).values
    assert counts["cover"] == n and not any(ref() for ref in presentations)
    assert counts["phi"] == n + 1 + counts["radical"]
    assert (counts["split"] > 0) == (name != "ex15_1")
    monkeypatch.undo()
    assert values == tuple(islice(unsplit_ladder(S), n + 1))


@pytest.mark.parametrize("name, kw", [("lambda_c", {"c": 1}), ("ex9_4", {})])
def test_ext_and_the_semi_gp_scan_hold_one_step(name, kw, monkeypatch):
    # Step i's presentation is gone once step i + 2 is formed, and every
    # step once the call returns; M(0) over lambda_c is semi-GP and
    # Ω^1 M(0) repeats itself, so its scan reads step 1 again up to the
    # bound with no third cover.
    presentations = []  # weak references: a presentation kept would stay alive

    def cover(M, cap=homology.DEFAULT_CAP, _original=homology.projective_cover):
        pres = _original(M, cap=cap)
        presentations.append(weakref.ref(pres))
        assert not any(ref() for ref in presentations[:-2]), len(presentations)
        return pres
    monkeypatch.setattr(homology, "projective_cover", cover)
    alg = preset(name, **kw)
    S, A = simple_module(alg), left_regular_module(alg)
    scans = [lambda: ext_dims(S, A, 8, cap=10**6), lambda: is_semi_gp(S, 8)]
    if name == "lambda_c":
        scans.append(lambda: is_semi_gp(m_alpha(alg, 0), 8))
    steps = []
    for scan in scans:
        presentations.clear()
        scan()
        steps.append(len(presentations))
        assert not any(ref() for ref in presentations)
    assert steps == [9, 2, 2][:len(scans)]


# -- the stability certificate -------------------------------------------------

def _shadows(M, depth, limit=4000):
    """Ω^1 M .. Ω^depth M along one walk, stopping before the first larger than ``limit``."""
    for _, step in zip(range(depth), resolution(M, cap=10**6)):
        if step.kernel.dim > limit:
            return
        yield step.kernel


@FIELDS
def test_every_shadow_the_certificate_passes_is_stable(field):
    # A shadow holding J^2 A^t skips mapping its images; each such shadow
    # must pass the full check, every image inside the shadow.
    certified = refused = 0
    for name, alg in _algebras(field):
        for M in (simple_module(alg), random_module(alg, 2, 1, 1), random_module(alg, 1, 0, 2)):
            for i, X in enumerate(_shadows(M, 6), 1):
                if X._holds_j2():
                    images = [img for imgs, _ in X._shadow_images.values() for img in imgs]
                    assert all(map(X.space.contains_ints, images)), (name, i)
                    certified += 1
                else:
                    refused += 1
    assert certified >= 200 and refused >= 20


@FIELDS
def test_a_shadow_whose_w_row_is_no_unit_vector_is_checked_in_full(field):
    # The shadow spanned by v_1 + w_1 in A has its one W-coordinate as a
    # pivot, but its row reaches v_1: it does not hold J^2 A, and
    # v_2·(v_1 + w_1) = v_2 v_1 = w_1 lies outside it.
    alg = preset("ex9_3", field=field)
    kernel = kernel_subspace(IntRows(field, [{0: 1, 2: -1}, {1: 1}], 3), at=[1, 2, 3],
                             ambient=alg.dim)
    X = Syzygy(alg, kernel)
    assert kernel.pivots == (3,) and not X._holds_j2()
    with pytest.raises(BadParams, match="not stable"):
        X.socle_dim()
