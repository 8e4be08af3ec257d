import pytest

from shortloc import homology
from shortloc.errors import BadParams, LoewyTooLong
from shortloc.explorer import (classify_complex, cv_sequence_check, mho_path,
                               omega_path, periodicity_detect)
from shortloc.modules import (cyclic_submodule, left_regular_module, m_alpha,
                              mod_j_squared, random_module, simple_module)
from shortloc.presets import preset


def cyclic_x(alg):
    coords = [0] * alg.dim
    coords[1] = 1
    return cyclic_submodule(alg, coords)


# -- walks -------------------------------------------------------------------

def test_omega_path_of_periodic_module(lam0):
    rec = omega_path(m_alpha(lam0, 0), 5)
    assert rec.ranks == (1,) * 6
    assert all(s.dim_vector == (1, 2) and s.bipartite for s in rec.steps)
    assert rec.terminated_reason is None


def test_omega_path_over_ex8_3():
    rec = omega_path(simple_module(preset("ex8_3")), 2)
    assert rec.ranks == (1, 2, 2)


def test_omega_path_doubling(L2):
    rec = omega_path(simple_module(L2), 3)
    assert rec.ranks == (1, 2, 4, 8)


def test_omega_path_stops_at_projective(lam0):
    rec = omega_path(left_regular_module(lam0), 3)
    assert rec.terminated_reason == "projective_reached"
    assert len(rec.steps) <= 2


def test_omega_path_resource_cap(L3):
    rec = omega_path(simple_module(L3), 12, cap=200)
    assert rec.terminated_reason == "resource_cap"


def test_mho_path_on_conca(conca32):
    rec = mho_path(cyclic_x(conca32), 2)
    assert rec.terminated_reason is None
    assert [s.dim_vector for s in rec.steps] == [(1, 2)] * 3


def test_mho_path_flags_non_torsionless(lam0):
    rec = mho_path(m_alpha(lam0, 2), 1)
    assert rec.terminated_reason == "not_torsionless"
    assert len(rec.steps) == 1


def test_mho_path_from_simple_terminates(L2):
    # No length-2 path ends at the simple module over a non-self-injective
    # algebra, so the walk must stop within two steps.
    rec = mho_path(simple_module(L2), 2)
    assert rec.terminated_reason is not None


# -- periodicity -----------------------------------------------------------------

def test_periodicity_values(lam0, L2):
    assert periodicity_detect(m_alpha(lam0, 0), 4) == 1
    assert periodicity_detect(cyclic_x(preset("ex9_3")), 2) == 1
    assert periodicity_detect(simple_module(L2), 4) is None


def test_periodicity_of_conca_pair(conca32):
    # A(x + y_a) has syzygy period 2.
    coords = [0] * conca32.dim
    coords[1] = 1
    coords[1 + conca32.a] = 1
    M = cyclic_submodule(conca32, coords)
    assert periodicity_detect(M, 4) == 2


# -- classification ----------------------------------------------------------------

def test_classify_type_i(lam0):
    cls = classify_complex(m_alpha(lam0, 0), 4, 4)
    assert cls.kind == "TypeI" and set(cls.ranks) == {1}
    assert cls.period == 1 and cls.forward_verified


def test_classify_type_i_ex9_3():
    cls = classify_complex(cyclic_x(preset("ex9_3")), 3, 3)
    assert cls.kind == "TypeI" and cls.ranks == (1,) * 7


def test_classify_type_ii(lam0):
    cls = classify_complex(m_alpha(lam0, 1), 4, 2)
    assert cls.kind == "TypeII"
    assert cls.v_index == cls.module_index == 2
    tail = cls.ranks[cls.v_index:]
    assert all(tail[i + 1] > tail[i] for i in range(len(tail) - 1))


def test_classify_backward_only_type_ii(lam0):
    cls = classify_complex(m_alpha(lam0, 1), 4, 0)
    assert cls.kind == "TypeII" and cls.v_index == 0


def test_classify_not_extendable_over_truncated_tensor():
    alg = preset("ex14_1", e=3, a=2)
    cls = classify_complex(cyclic_x(alg), 3, 2)
    assert cls.kind == "NotAcyclicExtendable"
    assert cls.obstruction
    # Backward ranks blow up e-fold every two steps.
    assert cls.ranks[-1] > cls.ranks[cls.module_index]


@pytest.mark.parametrize("e, a", [(2, 1), (3, 2)])
def test_classify_solves_hom_into_a_once_for_its_module(monkeypatch, e, a):
    # Hom(N, A) serves the torsionless check and the first forward step.
    sources = []
    monkeypatch.setattr(homology, "hom_space", lambda M, A, _original=homology.hom_space:
                        sources.append(M) or _original(M, A))
    N = cyclic_x(preset("ex14_1", e=e, a=a))
    cls = classify_complex(N, 3, 2)
    assert cls.period is None and cls.kind == "NotAcyclicExtendable"
    assert sum(M is N for M in sources) == 1


def test_classify_self_injective_regime(qext):
    cls = classify_complex(cyclic_submodule(qext, [0, 1, -1, 0]), 3, 3)
    assert cls.kind == "SelfInjectiveRegime"


def test_classify_preconditions(lam0):
    with pytest.raises(BadParams):
        classify_complex(m_alpha(lam0, 2), 2, 2)  # not torsionless
    with pytest.raises(LoewyTooLong):
        classify_complex(left_regular_module(lam0), 2, 2)


def test_type_ii_prefix_is_bipartite(lam0):
    # Over an algebra with J^2 equal to the socle, every image up to the
    # jump index of a Type II window is bipartite.
    M = m_alpha(lam0, 1)
    fwd = mho_path(M, 3)
    assert all(s.bipartite for s in fwd.steps)
    back = omega_path(M, 3)
    assert not back.steps[1].bipartite  # the jump happens at the first syzygy


def test_defect_trichotomy_along_paths(lam0, conca32):
    # delta = 0 propagates with constant rank or jumps to positive defect
    # and a non-bipartite syzygy; delta > 0 forces strict growth.
    for alg in (lam0, conca32):
        for seed in range(15):
            M = mod_j_squared(random_module(alg, 1 + seed % 2, seed % 3, seed=seed))
            if M.dim == 0:
                continue
            rec = omega_path(M, 3)
            for cur, nxt in zip(rec.steps, rec.steps[1:]):
                if cur.defect is None or nxt.defect is None:
                    continue
                if cur.defect == 0:
                    assert (nxt.rank == cur.rank and nxt.defect == 0) or \
                           (nxt.rank > cur.rank and nxt.defect > 0 and not nxt.bipartite)
                elif cur.defect > 0:
                    assert nxt.rank > cur.rank and nxt.defect > 0


# -- the positive-sequence recursion -------------------------------------------------

def test_cv_sequence_constants():
    assert cv_sequence_check([7, 7, 7, 7], 3, 2)
    assert not cv_sequence_check([7, 7, 7], 3, 1)
    assert cv_sequence_check([7], 3, 1)  # nothing to check


def test_cv_sequence_on_reversed_growth():
    assert cv_sequence_check([21, 8, 3, 1], 3, 1)
    assert not cv_sequence_check([21, 8, 3, 2], 3, 1)


def test_constant_positive_sequences_need_critical_hilbert_type():
    for e in range(2, 6):
        for a in range(0, e * e):
            holds = cv_sequence_check([3, 3, 3, 3, 3], e, a)
            assert holds == (a == e - 1)
