"""Ext read off the Homs out of syzygies, against the Hom-complex it replaced.

``ext_dims`` takes Ext^0 = dim Hom(M, N) and, for i >= 1,
Ext^i = h_i + h_{i-1} - t_{i-1}·dim N, with h_i = dim Hom(Ω^i M, N) read off
the Kronecker relations of Ω^i against the arrows of ann_N(J^2).  The
reference (``hom_complex_ext_dims``) ranks the Hom-complex maps d_i^*.  The
two must agree on every preset over Q, F_7 and F_32003, on simple, free,
radical, random, J^2-quotient and zero modules as sources and as targets,
Loewy-3 targets included.  ``kronecker_hom_dim`` reads the same relation
equations and is checked against the (g0, g1) system it replaced, on
representations whose arrows are onto and on ones whose arrows are not.
"""

import pytest

from shortloc.errors import ResourceCapExceeded
from shortloc.homology import ext_dims
from shortloc.kronecker import KroneckerRep, kronecker_hom_dim, rep_dual, sigma_reflection, tilde
from shortloc.linalg import QQ, Field, Matrix, rank
from shortloc.modules import (free_module, left_regular_module, m_alpha, mod_j_squared,
                              radical_module, random_module, simple_module, zero_module)
from shortloc.presets import preset, preset_names

from references import hom_complex_ext_dims, reference_kronecker_hom_dim
from test_cross_validation import _random_pairs

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)],
                                 ids=["Q", "F7", "F32003"])

#: The parameters of the presets that need some.
PRESET_PARAMS = {"L": {"e": 3}, "ex14_1": {"e": 2, "a": 1}, "ex15_1": {"e": 3, "a": 2}}

#: Ext^0..Ext^DEPTH is compared, on resolutions whose free modules stay within CAP.
DEPTH, CAP = 4, 2000


def modules_over(alg, k):
    """S, A, J, A^2, a seeded module, a J^2-quotient, the zero module and M(α) on lambda_c."""
    out = [simple_module(alg), left_regular_module(alg), radical_module(alg), free_module(alg, 2),
           random_module(alg, 2, 1, seed=11 + k), mod_j_squared(random_module(alg, 1, 1, seed=k)),
           zero_module(alg)]
    if alg.tags.get("preset") == "lambda_c":
        out += [m_alpha(alg, 1), m_alpha(alg, 2)]
    return out


@FIELDS
def test_ext_matches_the_hom_complex_on_every_preset(field):
    compared, loewy3, higher = 0, 0, 0
    for k, name in enumerate(preset_names()):
        alg = preset(name, field=field, **PRESET_PARAMS.get(name, {}))
        mods = modules_over(alg, k)
        for M in mods:
            for N in mods:
                try:
                    want = hom_complex_ext_dims(M, N, DEPTH, cap=CAP)
                except ResourceCapExceeded:
                    continue
                assert ext_dims(M, N, DEPTH, cap=CAP) == want, (name, M, N)
                compared += 1
                loewy3 += N.loewy_length() == 3 and any(want[1:])
                higher += any(want[2:])
    assert compared >= 600 and loewy3 >= 90 and higher >= 200


# -- Kronecker Homs from the relations ker Φ_A -------------------------------------

def hand_made(field):
    """Representations whose arrows miss part of A_1, or have no rows or no columns."""
    one, two = field.of(1), field.of(2)
    zero = field.zero()
    return [
        KroneckerRep(e=2, dim0=1, dim1=2, maps=(Matrix(field, [[one], [zero]], cols=1),
                                                Matrix(field, [[two], [zero]], cols=1))),
        KroneckerRep(e=2, dim0=2, dim1=3, maps=(Matrix(field, [[one, zero], [zero, one],
                                                               [zero, zero]], cols=2),
                                                Matrix(field, [[zero, one], [zero, zero],
                                                               [zero, zero]], cols=2))),
        KroneckerRep(e=2, dim0=2, dim1=0, maps=(Matrix.zeros(field, 0, 2),) * 2),
        KroneckerRep(e=2, dim0=0, dim1=2, maps=(Matrix.zeros(field, 2, 0),) * 2),
        KroneckerRep(e=2, dim0=1, dim1=1, maps=(Matrix.identity(field, 1),
                                                Matrix.zeros(field, 1, 1))),
    ]


def representations(field):
    """Tildes from ``_random_pairs`` and their duals, reflections and the hand-made ones."""
    reps = {2: hand_made(field), 3: []}
    for alg, _, M, M2 in _random_pairs(field, seeds=4):
        if alg.e in reps:
            for X in (M, M2):
                if X.dim and X.loewy_length() <= 2:
                    reps[alg.e] += [tilde(X), rep_dual(tilde(X))]
    qext = preset("qexterior", field=field)
    for seed in range(4):
        X = mod_j_squared(random_module(qext, 1 + seed % 2, 1, seed=seed))
        reps[2].append(sigma_reflection(qext, tilde(X)))
    return reps


@FIELDS
def test_kronecker_hom_dim_matches_the_g0_g1_system(field):
    not_onto = compared = 0
    for e, reps in representations(field).items():
        for A in reps:
            phi = Matrix(field, [[x for m in A.maps for x in m.data[r]] for r in range(A.dim1)],
                         cols=e * A.dim0)
            not_onto += rank(phi) < A.dim1
            for B in reps:
                assert kronecker_hom_dim(A, B) == reference_kronecker_hom_dim(A, B), (A, B)
                compared += 1
    assert compared >= 500 and not_onto >= 10
