"""The sparse Hom systems against the dense builders they replaced.

The Hom-complex of a minimal resolution and the intertwining equations of
``hom_space`` go to the elimination as sparse rows built from sparse
actions.  The dense builders they replaced are kept here as references
only: over Q, F_7 and F_32003 the ranks of the d_j^*, the Ext dimensions,
the transposes and the Hom spaces must agree exactly.  A guard counts that
Ext over A forms no dense action, and that the regular module A^1, with
its integer rows, is built once per algebra.
"""

from functools import lru_cache

import pytest

from shortloc import homology, modules
from shortloc.homology import (MinimalResolution, _hom_complex_matrix, ext_dims, is_semi_gp,
                               transpose)
from shortloc.linalg import QQ, Field, Matrix, Subspace, kernel_subspace, rank
from shortloc.modules import (AModule, free_module, hom_space, left_regular_module, m_alpha,
                              mod_j_squared, quotient, radical_module, random_module,
                              simple_module, zero_module)
from shortloc.presets import preset

from references import action_rows_over_scale, scaled_sum_action

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)],
                                 ids=["Q", "F7", "F32003"])

ALGEBRAS = [("qexterior", {}), ("ex15_1", {"e": 3, "a": 2}), ("ex5_3", {}), ("L", {"e": 2})]


# -- the dense references ----------------------------------------------------

@lru_cache(maxsize=8)
def dense_basis_actions(N):
    """The action matrices of the basis of A on N, as scaled sums."""
    return [scaled_sum_action(N, N.algebra.basis_vector(b)) for b in range(N.algebra.dim)]


def dense_hom_complex(res, N, j):
    """Hom(P_{j-1}, N) -> Hom(P_j, N) as a dense matrix of element actions."""
    D = res.boundary_elements(j)
    t_prev = res.steps[j - 1].cover_rank
    actions = dense_basis_actions(N)
    rows = []
    for row in D:
        blocks = [Matrix.combination(g, actions).data for g in row]
        rows.extend([x for b in blocks for x in b[r]] for r in range(N.dim))
    return Matrix(N.field, rows, cols=t_prev * N.dim)


def dense_ext_dims(M, N, imax):
    res = MinimalResolution(M)
    ranks = [0] + [rank(dense_hom_complex(res, N, i + 1)) for i in range(imax + 1)]
    return [res.rank(i) * N.dim - ranks[i + 1] - ranks[i] for i in range(imax + 1)]


def dense_transpose(M):
    op = M.algebra.opposite()
    res = MinimalResolution(M)
    t1 = res.rank(1)
    if t1 == 0:
        return zero_module(op)
    big = dense_hom_complex(res, left_regular_module(M.algebra), 1)
    F1 = free_module(op, t1)
    return quotient(F1, Subspace.from_vectors(M.field, F1.dim, big.transpose().data))[0]


def dense_hom_space(M, N):
    """(map matrices, flat subspace) from the intertwining equations laid out densely."""
    dm, dn = M.dim, N.dim
    zero = M.field.zero()
    rows = []
    for Xs, Xt in zip(M.actions, N.actions):
        for r in range(dn):
            for c in range(dm):
                row = [zero] * (dn * dm)
                for k, coef in enumerate(Xt.data[r]):
                    if coef:
                        row[k * dm + c] = row[k * dm + c] + coef
                for k in range(dm):
                    coef = Xs.data[k][c]
                    if coef:
                        row[r * dm + k] = row[r * dm + k] - coef
                if any(row):
                    rows.append(row)
    space = kernel_subspace(Matrix(M.field, rows, cols=dn * dm))
    maps = [Matrix(M.field, [vec[k * dm:(k + 1) * dm] for k in range(dn)], cols=dm)
            for vec in space.basis]
    return maps, space


# -- the inputs ---------------------------------------------------------------

def sources(field):
    """(label, module) pairs: S, the M(α) and J over lambda_c, seeded modules elsewhere."""
    lam = preset("lambda_c", field=field)
    out = [("lambda_c S", simple_module(lam)), ("lambda_c J", radical_module(lam))]
    out += [(f"lambda_c M({a})", m_alpha(lam, a)) for a in (0, 1, 2)]
    for k, (name, params) in enumerate(ALGEBRAS):
        alg = preset(name, field=field, **params)
        out += [(f"{name} S", simple_module(alg)), (f"{name} J", radical_module(alg)),
                (f"{name} random", random_module(alg, 2, 1, seed=31 + k)),
                (f"{name} mod J^2", mod_j_squared(random_module(alg, 1, 1, seed=7 + k)))]
    return out


def targets(alg, seed):
    """A (the free-rank action reader), S and a seeded module (the basis-matrix reader)."""
    return [left_regular_module(alg), simple_module(alg), random_module(alg, 1, 1, seed=seed)]


def sparse_dicts(space):
    return {p: dict(zip(*rows)) for p, rows in space.sparse_rows().items()}


# -- the comparisons ----------------------------------------------------------

@FIELDS
def test_hom_complex_ranks_and_ext_match_the_dense_reference(field):
    compared = 0
    for seed, (label, M) in enumerate(sources(field)):
        res = MinimalResolution(M)
        for N in targets(M.algebra, seed):
            for j in range(1, 5):
                sparse, dense = _hom_complex_matrix(res, N, j), dense_hom_complex(res, N, j)
                assert (sparse.rows, sparse.cols) == (dense.rows, dense.cols), (label, j)
                assert rank(sparse) == rank(dense), (label, j)
                compared += any(sparse.data)
            assert ext_dims(M, N, 3) == dense_ext_dims(M, N, 3), label
    assert compared >= 150


@FIELDS
def test_transpose_matches_the_dense_reference(field):
    for label, M in sources(field):
        tr, ref = transpose(M), dense_transpose(M)
        assert (tr.dim, tr.top_dim()) == (ref.dim, ref.top_dim()), label
        assert tr.actions == ref.actions, label


@FIELDS
def test_hom_space_matches_the_dense_reference(field):
    nonzero = 0
    for seed, (label, M) in enumerate(sources(field)):
        for N in targets(M.algebra, seed):
            for src, tgt in ((M, N), (N, M)):
                hs = hom_space(src, tgt)
                maps, flat = dense_hom_space(src, tgt)
                assert [f.matrix for f in hs.maps] == maps, label
                assert hs.flat.basis == flat.basis and hs.flat.pivots == flat.pivots, label
                assert sparse_dicts(hs.flat) == sparse_dicts(flat), label
                nonzero += hs.dim > 0
    assert nonzero >= 100


@FIELDS
def test_action_rows_are_the_rows_of_the_element_actions(field):
    # The int action rows over the module's scale are the rows of the
    # typed element actions.
    for seed, (name, params) in enumerate(ALGEBRAS):
        alg = preset(name, field=field, **params)
        reader_of_basis_matrices = AModule(alg, alg.dim, left_regular_module(alg).actions,
                                           check=False)
        for M in targets(alg, seed) + [free_module(alg, 2), reader_of_basis_matrices]:
            rows = action_rows_over_scale(M)
            assert len(rows) == alg.dim
            for b, b_rows in enumerate(rows):
                dense = [[field.zero()] * M.dim for _ in range(M.dim)]
                for r, row in enumerate(b_rows):
                    for c, x in row:
                        assert x, (name, b, r, c)
                        dense[r][c] = x
                assert Matrix(field, dense, cols=M.dim) == \
                    scaled_sum_action(M, alg.basis_vector(b)), (name, b)


# -- guards on the work -------------------------------------------------------

def counted(monkeypatch, cls, name, counts):
    raw = cls.__dict__[name]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(cls, name, staticmethod(wrapper) if isinstance(raw, staticmethod)
                        else wrapper)


@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("name,params", [("lambda_c", {}), ("ex15_1", {"e": 3, "a": 2})])
def test_ext_over_a_forms_no_dense_action(monkeypatch, field, name, params):
    alg = preset(name, field=field, **params)
    counts = {"from_sparse_columns": 0, "combination": 0, "__mul__": 0}
    counted(monkeypatch, Matrix, "from_sparse_columns", counts)
    counted(monkeypatch, Matrix, "combination", counts)
    counted(monkeypatch, Matrix, "__mul__", counts)
    exts = ext_dims(simple_module(alg), left_regular_module(alg), 4)
    monkeypatch.undo()
    assert counts == {"from_sparse_columns": 0, "combination": 0, "__mul__": 0}
    assert exts == dense_ext_dims(simple_module(alg), left_regular_module(alg), 4)


def test_the_regular_sparse_action_is_built_once_per_algebra(monkeypatch):
    # A^1 is one module per algebra: two scans build it, and its integer
    # rows, once between them.
    alg = preset("ex15_1", e=3, a=2)
    builds, rows, original = [], [], modules.free_module
    original_rows = AModule.int_action_rows

    def counting(A, t):
        builds.append((A, t))
        return original(A, t)

    def counting_rows(M):
        if M._int_action_rows is None and M.free_rank == 1:
            rows.append(M)
        return original_rows(M)
    for mod in (modules, homology):
        monkeypatch.setattr(mod, "free_module", counting)
    monkeypatch.setattr(AModule, "int_action_rows", counting_rows)
    is_semi_gp(radical_module(alg), bound=3)
    is_semi_gp(simple_module(alg), bound=3)
    monkeypatch.undo()
    assert [b for b in builds if b[1] == 1] == [(alg, 1)]
    assert rows == [left_regular_module(alg)]

