"""Hom dimensions and isomorphisms of J^2-zero modules read off their tops.

When J^2 M = 0, a map M -> N lands in N' = ann_N(J^2) and is fixed by its
top g0: top M -> top N', which meets M's Kronecker relations, and a free
part in Hom_k(top M, JN').  ``hom_dim`` reads such an M off that g0
system; the presentation route it read for every M stays the reference
(``references.presentation_hom_dim``).  Over Q, F_7 and F_32003 the two
must agree on the sweep pairs, on every (Ω^i S, Ω^j S), i, j <= 4, over
every preset, and with S, J, A, M(α) and the zero module as targets,
Loewy-3 ones included.  A search whose two tops differ tries nothing: it
builds no Hom system, tests no row, takes no Hom dimension, and certifies
that there is no isomorphism, as the dense-top search does.
"""

import pytest

from shortloc import modules
from shortloc.linalg import QQ, Field
from shortloc.modules import (find_isomorphism, hom_dim, left_regular_module, m_alpha, quotient,
                              radical_module, semisimple_module, simple_module, zero_module)
from shortloc.presets import preset

from references import dense_top_find_isomorphism, presentation_hom_dim
from test_presentation_search import syzygy_ladders
from test_sweep_solves import fresh, sweep_modules, sweep_pairs

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)


def targets(alg):
    """S, J, A and the zero module, with M(0) and M(2) over lambda_c."""
    out = [simple_module(alg), radical_module(alg), left_regular_module(alg), zero_module(alg)]
    if alg.tags.get("preset") == "lambda_c":
        out += [m_alpha(alg, 0), m_alpha(alg, 2)]
    return out


def hom_pairs(field):
    """(M, N): the sweep pairs, every (Ω^i S, Ω^j S) with i, j <= 4, and each of those
    modules and a sweep module per algebra against :func:`targets`."""
    pairs = [(fresh(M), fresh(N)) for _, M, N in sweep_pairs(field)]
    for _, ladder in syzygy_ladders(field):
        alg = ladder[0].algebra
        pairs += [(M, N) for M in ladder for N in ladder]
        pairs += [(M, N) for M in ladder + targets(alg) for N in targets(alg)]
    for M in sweep_modules(field, per_stratum=1, seed=4)[::4]:
        pairs += [(M, N) for N in targets(M.algebra)]
    return pairs


@FIELDS
def test_hom_dim_matches_the_presentation_route(field):
    kinds = set()
    for M, N in hom_pairs(field):
        assert hom_dim(M, N) == presentation_hom_dim(M, N), (M, N)
        kinds.add((M.loewy_length(), N.loewy_length()))
    # J^2-zero sources into targets of every Loewy length, the zero module
    # on either side, and Loewy-3 sources on the presentation route.
    assert {(0, 0), (0, 3), (1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 3)} <= kinds


def two_top_pairs(field):
    """(M, N, seed): sweep modules over one algebra, of one dimension and two top dimensions."""
    mods = sweep_modules(field, per_stratum=3, seed=2)
    return [(fresh(M), fresh(N), 7 * i + j) for i, M in enumerate(mods) for j, N in enumerate(mods)
            if M.algebra is N.algebra and M.dim == N.dim and M.top_dim() != N.top_dim()]


def test_a_search_with_two_tops_tries_nothing(monkeypatch):
    events = []
    for name in ("_invertible", "_top_equations", "presentation_equations", "hom_space",
                 "hom_dim"):
        monkeypatch.setattr(modules, name, lambda *args, _name=name,
                            _original=getattr(modules, name): events.append(_name)
                            or _original(*args))
    searched = 0
    for M, N, seed in two_top_pairs(QQ):
        events.clear()
        got = find_isomorphism(M, N, seed=seed)
        assert events == []
        want = dense_top_find_isomorphism(M, N, seed=seed)
        assert (got.found, got.certified, got.note) == (want.found, want.certified, want.note)
        assert (got.found, got.certified, got.note) == (False, True, "top dimension mismatch")
        assert got.witness is None
        searched += 1
    assert searched >= 40


@FIELDS
def test_two_tops_with_one_hom_dimension_are_certified(field):
    # A/(J^2, w) over L(2), of dimension 2 and top 1, and S^2 have Hom
    # spaces of dimension 2 both ways, so the Hom dimensions settle nothing;
    # the tops do.
    alg = preset("L", field=field, e=2)
    M, N = quotient(left_regular_module(alg), [[0, 0, 1]])[0], semisimple_module(alg, 2)
    assert (M.dim, M.top_dim(), N.top_dim()) == (2, 1, 2)
    assert hom_dim(M, N) == hom_dim(N, M) == 2
    for X, Y in ((M, N), (N, M)):
        got = find_isomorphism(X, Y)
        assert (got.found, got.certified, got.note) == (False, True, "top dimension mismatch")
