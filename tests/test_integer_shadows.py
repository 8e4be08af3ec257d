"""Integer shadows against the typed shadow route.

A resolution rung reads only the elimination's integer rows: a kernel
keeps its integer pivot rows, from which a syzygy's Φ is read straight
through the algebra's integer structure table, each row's leads and scale
folded into its columns' scale, and Φ goes to the elimination as
``IntRows``.  The kernel's rows, when read, are ints over one scale per
row (``Subspace.int_rows``), and its typed rows are built from them.  The
typed route it replaced (``references.typed_ladder``) builds typed images
from typed rows and hands Φ over as typed sparse rows.  Per rung, over Q,
F_7 and F_32003, the two must agree in pivots, sparse rows and basis, with
the type of every scalar, in the top lifts and in their typed rows
(``references.boundary_rows``).  A
syzygy's socle is read off the integer Φ; it must agree with the socle of
the module built from its shadow, by rank and densely.  Over Q a ladder's
pivot form, its pivot rows and column scales, must stay within a few bits
of its rows over their least scales.
"""

from fractions import Fraction
from itertools import islice
from math import lcm

import pytest

from shortloc import homology, linalg
from shortloc.homology import betti, resolution, syzygy
from shortloc.linalg import QQ, Field
from shortloc.modules import (free_module, is_bipartite, m_alpha, module_from_subspace,
                              random_module, simple_module, simple_multiplicity)
from shortloc.presets import preset, preset_names

from references import boundary_rows, omegas, scalars, typed, typed_columns, typed_ladder
from test_sweep_solves import dense_socle, sweep_modules

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

#: (gens, rels, seed) of the four seeded modules over ex15_1(3,2) that the
#: resolve benchmark draws for seed 1, each resolved to depth 3.
RESOLVE_RANDOMS = [(2, 2, 886945), (2, 1, 926540), (2, 1, 427643), (2, 3, 1013649)]


def _ladders(field):
    """(module, depth): the resolve benchmark's ladders of M(2), of S over ex5_3 and ex8_3
    and of its seed-1 modules, and more seeded modules over ex15_1(3,2), many of Loewy
    length 3, over ``field``."""
    lam, c32 = preset("lambda_c", field=field, c=1), preset("ex15_1", field=field, e=3, a=2)
    # Over F_7, alpha = 2 makes M(2) non-periodic (t_i = 2·3^(i-3) from i = 3).
    yield m_alpha(lam, 2), 6 if field.characteristic == 7 else 10
    yield simple_module(preset("ex5_3", field=field)), 6
    yield simple_module(preset("ex8_3", field=field)), 7
    for gens, rels, seed in RESOLVE_RANDOMS:
        yield random_module(c32, gens, rels, seed), 3
    for seed in range(8):
        yield random_module(c32, 1 + seed % 2, seed % 3, seed=seed), 3


def _as_fraction(field, x):
    return Fraction(x.v if field.characteristic else x)


@FIELDS
def test_integer_shadows_match_the_typed_route(field):
    loewy3 = top_lift_branch = unscaled_rows = scaled_rows = 0
    for M, depth in _ladders(field):
        steps, rungs = list(islice(resolution(M), depth)), typed_ladder(M, depth)
        for i, step in enumerate(steps):
            got, (lifts, want) = step._kernel_space, rungs[i]
            assert (got.ambient, got.pivots) == (want.ambient, want.pivots), (M, i)
            ints = got.int_rows()
            assert typed(got) == typed(want), (M, i)
            for p, (idx, vals, scale) in ints.items():
                assert idx == want.sparse_rows()[p][0] and scale > 0
                assert [Fraction(x, scale) for x in vals] == \
                    [_as_fraction(field, x) for x in want.sparse_rows()[p][1]], (M, i, p)
                scaled_rows += scale != 1
                unscaled_rows += scale == 1
            if i:
                syz = step.module
                assert syz.cover[0] == lifts, (M, i)
                rows = rungs[i - 1][1].sparse_rows()
                assert [(idx, scalars(vals)) for idx, vals in boundary_rows(syz)] == \
                    [(rows[p][0], scalars(rows[p][1])) for p in lifts], (M, i)
                top_lift_branch += any(p % M.algebra.dim > M.algebra.e for p in lifts)
        assert [step.kernel.top_dim() for step in steps] == \
            [len(rungs[i][0]) for i in range(1, depth + 1)]
        loewy3 += M.loewy_length() == 3
    # Loewy-length-3 inputs, rungs whose lifts reach the J^2-rows, and over
    # Q rows with a scale other than 1 (non-unit leads or scaled columns).
    assert loewy3 >= 6 and top_lift_branch >= 10 and unscaled_rows >= 500
    assert scaled_rows >= 30 if field == QQ else scaled_rows == 0


def test_m2_over_lambda_c1_eliminates_non_unit_leads(monkeypatch):
    """Over Q, M(2) over lambda_c(c=1) has pivot rows whose lead is not 1.

    The leads are those of the pivot rows each rung's shadow is read off
    (``form[0]`` of :func:`~shortloc.homology.shadow_rows`).
    """
    leads = []

    def recording(alg, form, _original=homology.shadow_rows):
        leads.extend(row[c] for c, row in form[0].items())
        return _original(alg, form)
    monkeypatch.setattr(homology, "shadow_rows", recording)
    betti(m_alpha(preset("lambda_c", c=1), 2), 10)
    assert any(lead != 1 for lead in leads)


def _widths(shadow):
    """(held, canonical): the widest int, in bits, of the shadow's pivot form (its pivot
    rows and column scales) and of its rows over their least scales (``int_rows``)."""
    piv, _, _, sigma = shadow.pivot_form()
    held = [x for row in piv.values() for x in row.values()] + list(sigma or [])
    canonical = [x for _, vals, scale in shadow.int_rows().values() for x in (*vals, scale)]
    return max(abs(x).bit_length() for x in held), max(abs(x).bit_length() for x in canonical)


@pytest.mark.parametrize("c, alpha, steps, widest", [
    (0, 2, 14, lambda bits: bits + 2), (1, 2, 14, lambda bits: bits + 2),
    (1, 1, 10, lambda bits: 2 * bits + 8)], ids=["M2-c0", "M2-c1", "M1-c1"])
def test_a_ladder_over_q_holds_its_pivot_form_near_its_canonical_rows(c, alpha, steps, widest):
    # A pivot row led by no ±1 is divided by its content, and Φ's lift scales
    # by their gcd.  Without either, M(2)'s pivot form doubled in bit length
    # at every rung (8,193 bits at rung 14) while its canonical rows grew by
    # one bit a rung.
    M = m_alpha(preset("lambda_c", c=c), alpha)
    for i, step in zip(range(1, steps + 1), resolution(M, cap=200_000)):
        held, canonical = _widths(step.kernel.space)
        assert held <= widest(canonical), (i, held, canonical)
    assert i == steps and canonical >= 15


# -- the work of a ladder, counted -------------------------------------------------

@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=str)
@pytest.mark.parametrize("name, kw, n", [("ex15_1", {"e": 3, "a": 2}, 8), ("ex5_3", {}, 6),
                                         ("ex9_4", {}, 9), ("L", {"e": 3}, 7)])
def test_after_rung_0_a_ladder_builds_no_typed_row_and_converts_no_phi_row(
        field, name, kw, n, monkeypatch):
    # "typed" counts conversions of ints to scalars, of rows and of images alike.
    counts = {"typed": 0, "sparse": 0, "cover": 0, "phi": 0, "radical": 0}
    starts = []

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted

    def cover(M, cap=homology.DEFAULT_CAP, _original=homology.projective_cover):
        starts.append(dict(counts))
        counts["cover"] += 1
        return _original(M, cap=cap)

    def kernel(m, _original=homology.kernel_subspace, **embedding):
        counts["phi" if "at" in embedding else "radical"] += 1
        return _original(m, **embedding)
    monkeypatch.setattr(linalg, "typed_values", counting("typed", linalg.typed_values))
    monkeypatch.setattr(homology, "typed_values", linalg.typed_values)
    monkeypatch.setattr(linalg, "_sparse", counting("sparse", linalg._sparse))
    monkeypatch.setattr(homology, "projective_cover", cover)
    monkeypatch.setattr(homology, "kernel_subspace", kernel)
    values = betti(simple_module(preset(name, field=field, **kw)), n).values
    assert len(values) == n + 1 and values[-1] > values[1]
    # One cover per rung; one Φ per rung and for the top of rung n, and one
    # more, after an elimination of the radical, per rung whose lifts reach
    # the J^2-rows (over ex5_3).  A rung that sheds copies of S (over ex5_3,
    # ex9_4 and L) eliminates nothing more.
    assert counts["cover"] == n
    assert counts["phi"] == n + 1 + counts["radical"]
    assert (counts["radical"] > 0) == (name == "ex5_3")
    # From rung 1 on, no typed row or image is built and no Φ row goes through _sparse.
    assert {k: counts[k] for k in ("typed", "sparse")} == \
        {k: starts[1][k] for k in ("typed", "sparse")}
    # The counters record: a kernel read as typed rows converts its input and its row.
    one = field.one()
    homology.kernel_subspace(linalg.Matrix(field, [[one, one]])).sparse_rows()
    assert counts["typed"] == starts[1]["typed"] + 1
    assert counts["sparse"] == starts[1]["sparse"] + 1


@FIELDS
def test_a_kernel_reads_its_rows_as_ints_over_their_least_scale(field):
    # Pivot rows with leads other than 1, and over Q column scales, give
    # kernel rows with denominators.
    rows = [{0: 2, 1: 1, 3: 3}, {1: 3, 2: 4, 3: -5}]
    for scales in (None, [1, 2, 3, 5]) if field == QQ else (None,):
        kernel = linalg.kernel_subspace(linalg.IntRows(field, rows, 4, scales))
        assert kernel.dim == 2
        for p, (idx, vals, scale) in kernel.int_rows().items():
            typed_idx, typed_vals = kernel.sparse_rows()[p]
            assert idx == typed_idx and all(type(x) is int for x in vals)
            assert [Fraction(x, scale) for x in vals] == \
                [_as_fraction(field, x) for x in typed_vals]
            # The least scale: the lcm of the row's denominators over Q, 1 over F_p.
            assert scale == (lcm(*[Fraction(x).denominator for x in typed_vals])
                             if field == QQ else 1)
        assert field != QQ or any(scale > 1 for _, _, scale in kernel.int_rows().values())


# -- the typed rows a boundary builds ----------------------------------------------

@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=str)
def test_boundary_rows_convert_only_the_lift_rows(field, monkeypatch):
    converted = []

    def counting(values, scale, p, _original=linalg.typed_values):
        converted.append(values)
        return _original(values, scale, p)
    monkeypatch.setattr(linalg, "typed_values", counting)
    monkeypatch.setattr(homology, "typed_values", counting)
    returned = shadow_rows = 0
    for M, depth in [(simple_module(preset("ex5_3", field=field)), 5),
                     (m_alpha(preset("lambda_c", field=field, c=1), 2), 6)]:
        steps = list(islice(resolution(M), depth + 1))
        converted.clear()
        for j, step in enumerate(steps[:-1], 1):
            rows = boundary_rows(step.kernel)
            assert len(converted) == len(rows), (M, j)
            returned += len(rows)
            shadow_rows += step._kernel_space.dim
            converted.clear()
    # The shadows hold more rows than their top lifts, which alone are converted.
    assert shadow_rows > returned > 0


@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=str)
def test_ext_and_the_transpose_read_integer_boundaries(field, monkeypatch):
    # The Ext route builds no typed value and hands the elimination only
    # IntRows: Hom(M, N) and the Kronecker equations of each syzygy.  Only
    # the transpose reads the Hom-complex, d_1^* into A, from the lifts'
    # integer rows.  The transpose's quotient types the rows of its span,
    # as a quotient does for every subspace; only conversions outside that
    # span count.  An algebra's sections are typed solutions, solved once
    # per algebra, and an input module's Loewy length maps its radical's
    # typed rows, once per module: both are read before counting starts.
    lam, c32 = preset("lambda_c", field=field, c=1), preset("ex15_1", field=field, e=3, a=2)
    e53 = preset("ex5_3", field=field)
    cases = [(m_alpha(lam, 2), simple_module(lam)),
             (simple_module(e53), random_module(e53, 1, 1, 4))]
    cases += [(random_module(c32, 1 + seed % 2, seed % 3, seed=seed), simple_module(c32))
              for seed in range(4)]
    for M, N in cases:
        M.algebra.sections(), M.loewy_length(), N.loewy_length()
    counts, read, eliminated, in_span = {"typed": 0, "span_typed": 0}, [], [], []

    def counting(key, original):
        def counted(*args, **kwargs):
            counts["span_typed" if in_span else key] += 1
            return original(*args, **kwargs)
        return counted

    def quotient(F, span, _original=homology.quotient):
        in_span.append(span)
        span.sparse_rows()
        in_span.clear()
        return _original(F, span)

    def hom_complex(syz, N, _original=homology._hom_complex_matrix):
        read.append(syz)
        return _original(syz, N)

    def integer_rows(m, _original=linalg._integer_rows):
        eliminated.append(type(m))
        return _original(m)
    monkeypatch.setattr(linalg, "typed_values", counting("typed", linalg.typed_values))
    monkeypatch.setattr(homology, "typed_values", linalg.typed_values)
    monkeypatch.setattr(homology, "_hom_complex_matrix", hom_complex)
    monkeypatch.setattr(homology, "quotient", quotient)
    monkeypatch.setattr(linalg, "_integer_rows", integer_rows)
    scaled = transposed = 0
    for M, N in cases:
        A = homology.left_regular_module(M.algebra)
        homology.ext_dims(M, N, 3), homology.ext_dims(M, A, 3), homology.is_semi_gp(M, 3)
        assert read == [], M
        transposed += homology.transpose(M).dim > 0
        omega1 = syzygy(M)
        assert len(read) == (omega1.top_dim() > 0) and all(x.dim == omega1.dim for x in read), M
        read.clear()
        scaled += any(syz.space.int_rows()[q][2] != 1 for syz in omegas(M, 3)[1:]
                      for q in syz.cover[0])
    assert counts["typed"] == 0 and counts["span_typed"] > 0 and transposed >= 4
    assert len(eliminated) >= 100 and set(eliminated) == {linalg.IntRows}
    assert scaled > 0 if field == QQ else scaled == 0


# -- socles off Φ's integer rows -----------------------------------------------------

#: The parameters of the presets that need some.
PRESET_PARAMS = {"L": {"e": 3}, "ex14_1": {"e": 2, "a": 1}, "ex15_1": {"e": 3, "a": 2}}


def _socle_inputs(field):
    """S and a seeded module over every preset, M(2) over lambda_c(c=1), the sweep modules.

    Over ex3_4, ex5_3 and ex9_4 a second seeded module adds a shadow with
    scales other than 1, the first two on the top-lift branch too.
    """
    for name in preset_names():
        alg = preset(name, field=field, **PRESET_PARAMS.get(name, {}))
        yield simple_module(alg)
        yield random_module(alg, 2, 1, 3)
        if name in ("ex3_4", "ex5_3", "ex9_4"):
            yield random_module(alg, 2, 1, 4)
    yield m_alpha(preset("lambda_c", field=field, c=1), 2)
    yield from sweep_modules(field, per_stratum=1, seed=9)


@FIELDS
def test_a_syzygy_socle_read_off_phi_matches_the_typed_route(field):
    seen, scaled, top_lift_branch, both = set(), 0, 0, 0
    for M in _socle_inputs(field):
        n, e = M.algebra.dim, M.algebra.e
        for i, syz in enumerate(omegas(M, 3)[1:], 1):
            got = (syz.socle_dim(), simple_multiplicity(syz), is_bipartite(syz))
            # No action matrix was built for them.
            assert "actions" not in syz.__dict__
            P = free_module(M.algebra, syz.space.ambient // n)
            built = module_from_subspace(P, syz.space)[0]
            socle, radical = built.socle_dim(), built.dim - built.top_dim()
            assert socle == dense_socle(built).dim
            assert got == (socle, socle - radical, built.dim > 0 and socle == radical), (M, i)
            # The built actions' sums may hold Fraction(-1, 1) where the shadow
            # has -1, so values are compared here; the types of the columns are
            # checked against the typed images in test_shadow_resolution.py.
            assert [[sorted(col) for col in cols] for cols in typed_columns(syz)] == \
                [X.sparse_columns() for X in built.actions], (M, i)
            seen.add((got[1] > 0, got[2]))
            odd = any(scale != 1 for scale in syz._phi[2])
            branch = any(p % n > e for p in syz.cover[0])
            scaled += odd
            top_lift_branch += branch
            both += odd and branch
    # Shadows with and without a simple summand, bipartite or not, some
    # through the top-lift branch and, over Q, some with scales other than 1
    # (non-unit leads or column scales), on that branch too.
    assert {(True, False), (False, True), (False, False)} <= seen
    assert top_lift_branch >= 30
    assert (scaled >= 30 and both >= 5) if field == QQ else scaled == 0
