import random
import tracemalloc
from math import comb

import pytest

from shortloc import numerics
from shortloc.errors import (HypothesisNotMet, InvariantViolation, LoewyTooLong,
                             ResourceCapExceeded, WrongHilbertType)
from shortloc.homology import betti, syzygy
from shortloc.modules import (dim_vector, is_bipartite, left_regular_module, m_alpha,
                              mod_j_squared, radical_module, random_module,
                              simple_module)
from shortloc.numerics import (BSequence, b_closed_form, b_sequence, check_closed_form,
                               classify_dimvec, defect, is_aligned, main_lemma_witness,
                               omega_transform, q_form, recursion_check)
from shortloc.presets import preset


# -- transform ------------------------------------------------------------

def test_omega_transform_values():
    assert omega_transform(3, 2, (1, 2)) == (1, 2)
    assert omega_transform(4, 0, (1, 0)) == (4, 0)
    assert omega_transform(2, 1, (2, 1)) == (3, 2)
    assert omega_transform(2, 1, (0, 3)) == (-3, 0)  # raw integers, no clamping


def test_fixed_point_of_transform():
    # (t, a*t) is fixed whenever a = e - 1.
    for e in (2, 3, 5):
        a = e - 1
        for t in (1, 2, 7):
            assert omega_transform(e, a, (t, a * t)) == (t, a * t)


# -- witnesses -------------------------------------------------------------

def test_witness_values(lam0, L3):
    assert main_lemma_witness(m_alpha(lam0, 0)).w == 0
    wit = main_lemma_witness(m_alpha(lam0, 1))
    assert wit.w == 1 and tuple(wit.omega_dim) == (2, 1)
    S = simple_module(L3)
    wit = main_lemma_witness(S)
    assert wit.w == 0 and tuple(wit.omega_dim) == (3, 0)


def test_witness_rejects_loewy_three(lam0):
    with pytest.raises(LoewyTooLong):
        main_lemma_witness(left_regular_module(lam0))


def test_alignment(lam0):
    assert is_aligned(m_alpha(lam0, 0))
    assert not is_aligned(m_alpha(lam0, 1))


def test_bipartite_syzygy_forces_alignment(conca32):
    # Whenever the syzygy is bipartite the module is aligned.
    for seed in range(25):
        M = mod_j_squared(random_module(conca32, 1 + seed % 2, seed % 3, seed=seed))
        if M.dim == 0:
            continue
        if is_bipartite(syzygy(M)):
            assert is_aligned(M)


def test_witness_sweep_small(qext, lam0, conca32):
    for alg in (qext, lam0, conca32):
        for seed in range(20):
            M = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 4, seed=seed))
            if M.dim:
                main_lemma_witness(M)  # raises InvariantViolation on any failure


# -- recursion --------------------------------------------------------------

def test_recursion_on_periodic_module(lam0):
    res = recursion_check(m_alpha(lam0, 0))
    assert res.hypothesis_met and res.holds
    assert res.betti == (1, 1, 1)


def test_recursion_on_ex8_3():
    res = recursion_check(simple_module(preset("ex8_3")))
    assert res.hypothesis_met and res.holds
    assert res.betti == (1, 2, 2)


def test_recursion_trivial_over_radical_square_zero(L3):
    res = recursion_check(simple_module(L3))
    assert res.hypothesis_met and res.holds
    assert res.betti == (1, 3, 9)


def test_recursion_hypothesis_reported(lam0):
    # The syzygy of M(1) has a simple summand, so the hypothesis fails.
    res = recursion_check(m_alpha(lam0, 1))
    assert not res.hypothesis_met and res.holds is None


# -- defect -------------------------------------------------------------------

def test_defect_values(lam0, conca32):
    assert defect(simple_module(lam0)) == lam0.a
    assert defect(m_alpha(lam0, 0)) == 0
    Ax_coords = [0] * conca32.dim
    Ax_coords[1] = 1
    from shortloc.modules import cyclic_submodule
    assert defect(cyclic_submodule(conca32, Ax_coords)) == 0


def test_defect_requires_hilbert_type(L2):
    with pytest.raises(WrongHilbertType):
        defect(simple_module(preset("ex8_3")))
    with pytest.raises(WrongHilbertType):
        defect(simple_module(L2))


def test_defect_scaling_along_bipartite_sequences(conca32, lam0):
    # When the syzygy X of Z is bipartite: dim X = dim Z + delta(Z)(1,1)
    # and delta(X) = a*delta(Z).
    for alg in (conca32, lam0):
        a = alg.a
        hits = 0
        for seed in range(30):
            Z = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 3, seed=seed))
            if Z.dim == 0:
                continue
            X = syzygy(Z)
            if not is_bipartite(X):
                continue
            hits += 1
            dz, dx = dim_vector(Z), dim_vector(X)
            dd = defect(Z)
            assert (dx.t, dx.s) == (dz.t + dd, dz.s + dd)
            assert defect(X) == a * dd
            # The five equivalent formulations of "defect zero".
            conds = [defect(X) == 0, dd == 0, dx == dz, dx.t == dz.t, dx.s == dz.s]
            assert all(conds) or not any(conds)
        assert hits > 3


# -- growth sequences ----------------------------------------------------------

def test_b_sequence_even_index_fibonacci():
    assert b_sequence(3, 1, 6).values == (0, 1, 3, 8, 21, 55, 144, 377)


def test_b_sequence_powers(L3):
    assert b_sequence(3, 0, 5).values == (0, 1, 3, 9, 27, 81, 243)


def test_b_sequence_refuses_a_size_past_its_bound_before_forming_a_value():
    # 10^8 + 1 values of (2, 1) are refused on their size alone: the check
    # allocates next to nothing, and no value is formed.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded) as info:
            b_sequence(2, 1, 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = numerics.MAX_SEQUENCE_BITS
    assert info.value.dim > bound and info.value.cap == bound and peak < 2 ** 16
    assert str(info.value) == f"b-sequence of bit size {info.value.dim} exceeds cap {bound}"
    # The longest tested request is admitted.
    assert numerics._sequence_bits(3, 1, 10400) <= bound


def test_the_size_bound_covers_every_value():
    # The bound holds every value's bits plus one 64-bit word per value, on
    # real, repeated and complex roots, a < 0 included.
    rng = random.Random(5)
    for _ in range(400):
        e, a, n = rng.randint(-9, 9), rng.randint(-25, 25), rng.randint(0, 200)
        held = sum(64 + abs(b).bit_length() for b in b_sequence(e, a, n).values[1:])
        assert held <= numerics._sequence_bits(e, a, n), (e, a, n)


def test_b_closed_form_values():
    assert b_closed_form(5, 4, 2) == 21
    assert b_closed_form(3, 1, 6) == 377
    assert b_closed_form(8, 15, 12) == b_sequence(8, 15, 12).b(12)


def test_b_closed_form_refuses_large_a():
    with pytest.raises(HypothesisNotMet):
        b_closed_form(2, 1, 3)
    with pytest.raises(HypothesisNotMet):
        b_closed_form(4, 4, 2)


def test_b_closed_form_sweep():
    for e in range(1, 9):
        for a in range(0, (e * e) // 4 + 1):
            if 4 * a >= e * e:
                continue
            for n in (0, 1, 5, 17, 40):
                b_closed_form(e, a, n)


def binomial_closed_form(e, a, n):
    """(1/2^n) sum_j C(n+1, 2j+1) (e^2-4a)^j e^(n-2j), summed term by term."""
    total = sum(comb(n + 1, 2 * j + 1) * (e * e - 4 * a) ** j * e ** (n - 2 * j)
                for j in range(n // 2 + 1))
    assert total % 2 ** n == 0
    return total // 2 ** n


@pytest.mark.parametrize("e,a", [(3, 1), (3, 2), (4, 3), (5, 1)])
def test_closed_form_equals_the_recursion(e, a):
    seq = b_sequence(e, a, 300)
    assert [binomial_closed_form(e, a, n) for n in range(301)] == list(seq.values[1:])
    check_closed_form(seq)
    assert b_closed_form(e, a, 300) == seq.b(300)


def test_check_closed_form_catches_a_wrong_value():
    values = list(b_sequence(3, 1, 50).values)
    values[31] += 1
    with pytest.raises(InvariantViolation, match="n=30"):
        check_closed_form(BSequence(3, 1, tuple(values)))
    with pytest.raises(HypothesisNotMet):
        check_closed_form(b_sequence(2, 1, 5))


# -- quadratic form --------------------------------------------------------------

def test_q_form_values():
    assert q_form(2, (1, 1)) == 0
    assert q_form(3, (1, 3)) == 1
    assert classify_dimvec(2, (1, 1)) == ("imaginary_root", "balanced")
    assert classify_dimvec(3, (1, 3)) == ("real_root", "preprojective_side")
    assert classify_dimvec(3, (3, 1)) == ("real_root", "preinjective_side")


def test_q_form_along_b_sequence():
    seq = b_sequence(3, 1, 10)
    for n in range(0, 10):
        assert q_form(3, (seq.b(n - 1), seq.b(n))) == 1


# -- Betti growth -----------------------------------------------------------------

def test_betti_strictly_increasing_when_a_below_e(L2, qext):
    cases = [(qext, 8), (preset("ex9_3"), 8), (preset("ex15_1", e=2, a=1), 8),
             (L2, 8), (preset("ex15_1", e=3, a=2), 6)]
    for alg, depth in cases:
        values = betti(simple_module(alg), depth, cap=20000).values
        assert all(values[i] < values[i + 1] for i in range(depth)), alg.name


def test_betti_eventually_exceeds_any_bound():
    for alg in (preset("qexterior"), preset("ex9_3"), preset("ex15_1", e=2, a=1)):
        values = betti(simple_module(alg), 12, cap=20000).values
        assert values[12] > values[4]


def test_betti_identity_over_quantum_exterior(qext):
    ts = betti(radical_module(qext), 6).values
    assert ts == (2, 3, 4, 5, 6, 7, 8)
    assert all(ts[i - 1] + ts[i + 1] == 2 * ts[i] for i in range(1, 6))
