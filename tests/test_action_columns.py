"""No module is built or read by multiplying its action matrices.

Submodules, closures, quotients, J^2 M, the Loewy length, the dual module
and the Kronecker shadow map vectors along a module's sparse action
columns, and every module, of any Loewy length, takes its cover kernel
from the big Φ read off those columns.  The guards below count
``Matrix.__mul__`` calls, the shadow-image passes of a syzygy and the
cover route each input takes.
"""

import pytest

from shortloc import homology, modules
from shortloc.homology import (a_dual, betti, ext_dims, is_reflexive, mho_step, projective_cover,
                               syzygy, transpose)
from shortloc.kronecker import KroneckerRep, rep_as_module, tilde
from shortloc.linalg import QQ, Field, Matrix, random_matrix
from shortloc.modules import (AModule, cyclic_submodule, is_bipartite,
                              left_regular_module, m_alpha, mod_j_squared, random_module,
                              simple_module)
from shortloc.numerics import main_lemma_witness
from shortloc.presets import preset

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=["Q", "F32003"])

PRESETS = pytest.mark.parametrize("name, kw", [("ex15_1", {"e": 3, "a": 2}),
                                               ("lambda_c", {"c": 0})],
                                  ids=["ex15_1", "lambda_c"])


@pytest.fixture
def products(monkeypatch):
    """The shapes of the ``Matrix.__mul__`` calls made while the test runs."""
    shapes = []
    original = Matrix.__mul__

    def counted(self, other):
        shapes.append((self.rows, self.cols, other.cols))
        return original(self, other)
    monkeypatch.setattr(Matrix, "__mul__", counted)
    return shapes


@pytest.fixture
def free_modules(monkeypatch):
    """The free modules A^t made while the test runs, wherever they are made."""
    made = []
    original = modules.free_module

    def counted(alg, t):
        made.append(original(alg, t))
        return made[-1]
    for mod in (modules, homology):
        monkeypatch.setattr(mod, "free_module", counted)
    return made


def fresh(M):
    return AModule(M.algebra, M.dim, M.actions, check=False)


def sweep_shaped_job(M):
    """What a sweep job asks first: the main lemma, the next syzygy, bipartiteness."""
    omega = main_lemma_witness(M).omega_module
    syzygy(omega)
    return is_bipartite(omega)


@FIELDS
@PRESETS
def test_modules_are_built_and_read_without_products(field, name, kw, products, free_modules):
    alg = preset(name, field=field, **kw)
    M = random_module(alg, 2, 2, 5)
    Q = mod_j_squared(M)
    copy = fresh(M)
    assert copy.loewy_length() <= 2 and Q.loewy_length() <= 2
    cyclic = cyclic_submodule(alg, [0, 1, 0, 0, 0, 0])
    rep = tilde(copy)
    sweep_shaped_job(fresh(Q))
    assert products == [] and free_modules
    # No free module has built its action matrices.
    assert not any("actions" in vars(F) for F in free_modules)
    assert rep.dim_vector == (copy.top_dim(), copy.radical().dim) and cyclic.dim > 1


@FIELDS
@PRESETS
def test_the_engines_build_no_matrix_of_a_free_module(field, name, kw, free_modules):
    # A^t is held by its columns; the ladder, Ext into A, the transpose, the
    # dual, the bidual and the cosyzygy read them, and never its matrices.
    alg = preset(name, field=field, **kw)
    op = alg.opposite()
    S, M = simple_module(alg), mod_j_squared(random_module(alg, 2, 1, 3))
    betti(S, 3)
    ext_dims(S, left_regular_module(alg), 2)
    transpose(M)
    a_dual(M)
    is_reflexive(M)
    mho_step(M)
    mho_step(left_regular_module(alg))
    kinds = {(F.algebra is alg, F.algebra is op, min(F.free_rank, 2)) for F in free_modules}
    assert {(True, False, 1), (False, True, 1), (True, False, 2)} <= kinds, kinds
    assert not any("actions" in vars(F) for F in free_modules)


@FIELDS
def test_the_dual_module_makes_no_product(field, products):
    lam = preset("lambda_c", field=field, c=0)
    M = m_alpha(lam, 1)
    assert len(products) == 0  # the module axioms are read along the action columns
    dual = a_dual(M)
    assert len(products) == 0 and dual.dim > 0


@FIELDS
@PRESETS
def test_a_syzygy_maps_its_shadow_once(field, name, kw, monkeypatch):
    alg = preset(name, field=field, **kw)
    passes = []
    original = homology.shadow_rows
    monkeypatch.setattr(homology, "shadow_rows",
                        lambda alg, form: passes.append(len(form[1])) or original(alg, form))
    sweep_shaped_job(mod_j_squared(random_module(alg, 2, 2, 5)))
    assert len(passes) == 1


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_each_input_takes_its_cover_route(field, products, monkeypatch):
    # routes[i] holds the cover routes that projective_cover call i reached:
    # every input, of any Loewy length, takes its kernel from phi_kernel.
    routes = []
    original = homology.phi_kernel
    monkeypatch.setattr(homology, "phi_kernel",
                        lambda *args: routes[-1].add("phi_kernel") or original(*args))
    loewy2, loewy3 = [], []
    lam = preset("lambda_c", field=field, c=1)
    loewy2 += [m_alpha(lam, alpha) for alpha in (0, 1, 2)]
    for name, kw in [("qexterior", {}), ("lambda_c", {"c": 0}), ("ex15_1", {"e": 3, "a": 2}),
                     ("L", {"e": 2})]:
        alg = preset(name, field=field, **kw)
        randoms = [random_module(alg, 1 + seed % 2, seed % 3, seed=seed) for seed in range(4)]
        for M in randoms + [left_regular_module(alg)]:
            (loewy3 if M.loewy_length() == 3 else loewy2).append(fresh(M))
        loewy2 += [mod_j_squared(M) for M in randoms]
        for seed in range(4):
            maps = tuple(random_matrix(field, 2 + seed % 2, 1 + seed % 2, seed=seed + k)
                         for k in range(alg.e))
            loewy2.append(rep_as_module(KroneckerRep(alg.e, maps[0].cols, maps[0].rows, maps),
                                        alg))
    # Only the module axioms of the M(alpha), checked as they are built, multiply.
    made = len(products)
    for M in loewy2 + loewy3:
        routes.append(set())
        projective_cover(M)
        assert len(M.int_action_rows()) == M.algebra.dim and M.free_rank is None
    # The approximation's factoring certificate closes its maps along the right action.
    certified = [mho_step(M).rank for M in loewy3]
    assert len(products) == made and sum(certified) > 0
    assert all(M.loewy_length() <= 2 for M in loewy2) and len(loewy2) >= 40
    assert all(M.loewy_length() == 3 for M in loewy3) and len(loewy3) >= 10
    assert routes == [{"phi_kernel"}] * len(loewy2 + loewy3)
