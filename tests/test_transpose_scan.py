"""The ∞-torsionfree scan from M's presentation, and the predicates over self-injective algebras.

``is_inf_torsionfree`` forms no transpose: Ω^1 Tr M is the image U of
d_1^* (``homology._dual_presentation``), held in the pivot form that the
cover of Tr M gives its kernel (``homology._transpose_syzygy``), and
Ext^1(Tr M, A) = dim Hom(Ω^1 Tr M, A) - dim Ω^1 M, as Hom(Tr M, A) ≅ ker d_1
= Ω^2 M.  The oracles are the transpose's own cover kernel and Hom
dimension, the covering walk (``references.covering_is_*``) and the
Hom-complex transpose (``references.hom_complex_transpose``).  The
Auslander–Bridger identities tie the dual side to the transpose: M is
torsionless iff Ext^1(Tr M, A) = 0, and reflexive iff Ext^1 and Ext^2
vanish.  Over a self-injective algebra A is injective, so the three
predicates hold at every bound with no cover formed.
"""

import pytest

from shortloc import homology
from shortloc.errors import BadParams
from shortloc.homology import (BoundedVerdict, ext_dims, is_gp, is_inf_torsionfree,
                               is_reflexive, is_semi_gp, is_torsionless, syzygy, syzygy_power,
                               transpose)
from shortloc.linalg import QQ, Field
from shortloc.modules import (cyclic_submodule, hom_dim, left_regular_module, m_alpha,
                              mod_j_squared, radical_module, random_module, simple_module)
from shortloc.presets import preset, preset_names

from references import (covering_is_gp, covering_is_inf_torsionfree, covering_is_semi_gp,
                        hom_complex_transpose, typed_radical)
from test_cli import run_cli

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)

#: The parameters of the presets that need some.
PRESET_PARAMS = {"L": {"e": 3}, "ex14_1": {"e": 2, "a": 1}, "ex15_1": {"e": 3, "a": 2}}


def inputs(field):
    """(label, module): S, J, A, Ω^1 S, Ω^2 S, a seeded module and one mod J^2 over
    every preset, and M(0), M(1), M(2) over lambda_c (c = 0, 1)."""
    out = []
    for k, name in enumerate(preset_names()):
        alg = preset(name, field=field, **PRESET_PARAMS.get(name, {}))
        S = simple_module(alg)
        out += [(f"{name} S", S), (f"{name} J", radical_module(alg)),
                (f"{name} A", left_regular_module(alg)), (f"{name} Ω^1 S", syzygy(S)),
                (f"{name} Ω^2 S", syzygy_power(S, 2)),
                (f"{name} random", random_module(alg, 2, 1, seed=11 + k)),
                (f"{name} mod J^2", mod_j_squared(random_module(alg, 1, 1, seed=5 + k)))]
    for c in (0, 1):
        lam = preset("lambda_c", field=field, c=c)
        out += [(f"lambda_c(c={c}) M({a})", m_alpha(lam, a)) for a in (0, 1, 2)]
    return out


@pytest.fixture
def covers(monkeypatch):
    """The modules whose cover the homology module forms."""
    seen = []
    monkeypatch.setattr(homology, "projective_cover", lambda M, cap=homology.DEFAULT_CAP,
                        _original=homology.projective_cover: seen.append(M) or _original(M, cap))
    return seen


@FIELDS
def test_torsionless_and_reflexive_match_the_transpose(field):
    # Auslander–Bridger: the dual side's verdicts against Ext^1, Ext^2(Tr M, A).
    torsionless = reflexive = 0
    for label, M in inputs(field):
        op = M.algebra.opposite()
        ext = ext_dims(transpose(M), left_regular_module(op), 2)
        assert is_torsionless(M) == (ext[1] == 0), label
        assert is_reflexive(M) == (ext[1] == ext[2] == 0), label
        torsionless += ext[1] == 0
        reflexive += ext[1] == ext[2] == 0
    assert torsionless > reflexive > 0 and torsionless < len(inputs(field))


@FIELDS
def test_the_scan_starts_where_the_transpose_is_covered(field):
    # Ω^1 Tr M has the transpose's cover kernel's pivot form, and Hom(Tr M, A)
    # has dimension t_1·dim A - dim Ω^1 M; the transpose's radical, kept as
    # unit rows, is the one the elimination finds.
    read = 0
    for label, M in inputs(field):
        tr, dual = transpose(M), homology._dual_presentation(M, homology.DEFAULT_CAP)
        if dual is None:
            assert tr.dim == 0, label
            continue
        F1, omega_dim, image = dual
        t1, n, kernel = F1.free_rank, M.algebra.dim, tr.cover_kernel
        assert (t1, omega_dim) == (syzygy(syzygy(M)).space.ambient // n, syzygy(M).dim), label
        shadow = homology._transpose_syzygy(F1, image).space
        assert (shadow.ambient, shadow.pivots) == (kernel.ambient, kernel.pivots), label
        assert shadow.pivot_form() == kernel.pivot_form(), label
        assert shadow.dim == image.dim and all(map(shadow.contains, image.basis)), label
        assert hom_dim(tr, left_regular_module(M.algebra.opposite())) == t1 * n - omega_dim, label
        assert tr.top_dim() == t1 and tr.radical() == typed_radical(tr), label
        read += 1
    assert read >= 60


@FIELDS
def test_the_scan_matches_the_covering_walk(field):
    seen = set()
    for label, M in inputs(field):
        if M.algebra.is_self_injective():
            continue
        tr = hom_complex_transpose(M)
        for bound in (1, 4, 10):
            got = is_inf_torsionfree(M, bound)
            assert got == covering_is_inf_torsionfree(M, bound), (label, bound)
            assert got == covering_is_semi_gp(tr, bound), (label, bound)
            assert is_gp(M, bound) == covering_is_gp(M, bound), (label, bound)
        seen.add((got.failed_at, is_gp(M, 10).holds))
    # Scans that fail at Ext^1, at Ext^2 and later, and hold to 10 on GP modules.
    assert {(1, False), (2, False), (None, True)} <= seen and len(seen) >= 4


@FIELDS
@pytest.mark.parametrize("q", [2, 3])
def test_self_injective_predicates_hold_with_no_cover(field, q, covers):
    alg = preset("qexterior", field=field, q=q)
    A, S = left_regular_module(alg), simple_module(alg)
    assert alg.is_self_injective() and alg.opposite().is_self_injective()
    modules = [("S", S), ("J", radical_module(alg)), ("A", A), ("Ω^2 S", syzygy_power(S, 2)),
               ("cyclic", cyclic_submodule(alg, [0, 1, -1, 0])),
               ("random", random_module(alg, 2, 1, seed=q))]
    for label, M in modules:
        covers.clear()
        for bound in range(1, 13):
            for predicate in (is_semi_gp, is_inf_torsionfree, is_gp):
                assert predicate(M, bound) == BoundedVerdict(True, bound), (label, bound)
        assert covers == [], label
        # The covering walk agrees to bound 12, hence at every lower bound.
        assert covering_is_semi_gp(M, 12) == covering_is_inf_torsionfree(M, 12) == \
            covering_is_gp(M, 12) == BoundedVerdict(True, 12), label
        assert ext_dims(M, A, 6)[1:] == [0] * 6, label


@FIELDS
def test_a_non_self_injective_algebra_is_still_scanned(field, covers):
    # ex8_3 is not self-injective: J fails at Ext^1(J, A), read off the
    # covers of J and Ω^1 J, and its transpose's scan fails at Ext^2, read
    # off d_1 (two covers) and the covers of Ω^1 Tr J and Ω^2 Tr J.
    alg = preset("ex8_3", field=field)
    J = radical_module(alg)
    assert not alg.is_self_injective()
    assert is_semi_gp(J, 10) == BoundedVerdict(False, 10, 1) and len(covers) == 2
    covers.clear()
    assert is_inf_torsionfree(J, 10) == BoundedVerdict(False, 10, 2) and len(covers) == 4
    assert covers[0] is J and covers[2].algebra is alg.opposite()


def test_the_scan_refuses_a_bound_below_one_before_any_cover(covers):
    alg = preset("ex8_3")
    for predicate in (is_semi_gp, is_inf_torsionfree, is_gp):
        for M in (radical_module(alg), radical_module(preset("qexterior"))):
            with pytest.raises(BadParams):
                predicate(M, 0)
    assert covers == []


def test_the_cli_answers_a_self_injective_scan_under_a_small_cap():
    # Cap 4 admits the preset's own size check (2^2 for both algebras) and no
    # cover of J (2·dim A = 8 over qexterior, 6 over L(2)); the scan forms none.
    res = run_cli("check", "semigp", "radical", "--algebra", "qexterior", "--bound", "3",
                  "--cap", "4")
    assert res.returncode == 0 and res.stdout.strip() == "true"
    res = run_cli("check", "semigp", "radical", "--algebra", "L:e=2", "--bound", "3",
                  "--cap", "4")
    assert res.returncode == 3 and res.stderr == ("error: intermediate module of dimension 6 "
                                                  "exceeds cap 4\n")
