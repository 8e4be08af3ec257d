import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortloc.errors import BadParams, DimensionMismatch
from shortloc.linalg import (QQ, Field, Fp, Matrix, Rational, Subspace, kernel_basis,
                             kernel_subspace, random_matrix, rank, rref, solve)

F5 = Field.prime(5)


def mat(field, rows):
    return Matrix.from_rows(field, rows)


# -- frozen examples ----------------------------------------------------

def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, rk, piv = rref(m)
    assert red == m and rk == 2 and piv == (0, 1)


def test_rref_zero():
    m = Matrix.zeros(QQ, 3, 3)
    red, rk, piv = rref(m)
    assert red == m and rk == 0 and piv == ()


def test_rref_rank_one():
    red, rk, piv = rref(mat(QQ, [[1, 2], [2, 4]]))
    assert red == mat(QQ, [[1, 2], [0, 0]])
    assert rk == 1 and piv == (0,)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_zero_full():
    basis = kernel_basis(Matrix.zeros(QQ, 2, 2))
    assert len(basis) == 2
    assert basis[0] == (QQ.one(), QQ.zero())


def test_kernel_line():
    (v,) = kernel_basis(mat(QQ, [[1, 2]]))
    # (-2, 1) up to scaling; the free column carries the unit entry
    assert v[1] == 1 and v[0] == Fraction(-2)


def test_solve_identity():
    b = (QQ.of(3), QQ.of(5))
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_inconsistent():
    assert solve(Matrix.zeros(QQ, 2, 2), (QQ.one(), QQ.zero())) is None


def test_solve_scalar_division():
    assert solve(mat(QQ, [[2]]), (QQ.one(),)) == (Fraction(1, 2),)


def test_solve_rhs_length_checked():
    with pytest.raises(DimensionMismatch):
        solve(Matrix.identity(QQ, 2), (QQ.one(),))


# -- subspace operations -------------------------------------------------

def test_subspace_sum_of_axes():
    e1 = Subspace.from_vectors(QQ, 2, [(QQ.one(), QQ.zero())])
    e2 = Subspace.from_vectors(QQ, 2, [(QQ.zero(), QQ.one())])
    assert e1.plus(e2).dim == 2


def test_subspace_self_intersection():
    sp = Subspace.from_vectors(QQ, 3, [(QQ.of(1), QQ.of(2), QQ.of(0)),
                                       (QQ.of(0), QQ.of(1), QQ.of(1))])
    assert sp.intersect(sp).dim == sp.dim == 2


def test_subspace_complement_extends():
    e1 = Subspace.from_vectors(QQ, 2, [(QQ.one(), QQ.zero())])
    comp = e1.complement()
    assert len(comp) == 1 and not e1.contains(comp[0])


def test_subspace_reduce_and_coords():
    sp = Subspace.from_vectors(QQ, 3, [(QQ.of(1), QQ.of(0), QQ.of(2))])
    v = (QQ.of(3), QQ.of(0), QQ.of(6))
    assert sp.contains(v)
    assert sp.coords(v) == (QQ.of(3),)
    w = (QQ.of(3), QQ.of(1), QQ.of(6))
    assert not sp.contains(w)
    with pytest.raises(DimensionMismatch):
        sp.coords(w)


def test_subspace_ambient_mismatch():
    a = Subspace.from_vectors(QQ, 2, [(QQ.one(), QQ.zero())])
    b = Subspace.from_vectors(QQ, 3, [(QQ.one(), QQ.zero(), QQ.zero())])
    with pytest.raises(DimensionMismatch):
        a.plus(b)


# -- random matrices -----------------------------------------------------

def test_random_matrix_deterministic():
    assert random_matrix(QQ, 4, 3, seed=7) == random_matrix(QQ, 4, 3, seed=7)
    assert random_matrix(QQ, 4, 3, seed=7) != random_matrix(QQ, 4, 3, seed=8)


def test_random_matrix_empty_and_constant_pool():
    assert random_matrix(QQ, 0, 0, seed=1).rows == 0
    assert random_matrix(QQ, 3, 3, seed=1, pool=(0,)).is_zero()


# -- field behaviour -----------------------------------------------------

def test_rational_formatting():
    assert str(QQ.of("3/2")) == "3/2"
    assert str(QQ.of(-1)) == "-1"
    assert QQ.of("4/2") == QQ.of(2)


def test_prime_field_elements():
    x = F5.of(7)
    assert x == Fp(2, 5)
    assert str(F5.of(-1)) == "4"
    assert F5.of(Fraction(1, 2)) == Fp(3, 5)  # 2 * 3 = 6 = 1 mod 5


def test_integral_rationals_are_ints():
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    for x in ("4/2", " -6/3 ", "1e3", 5, Fraction(4, 2)):
        assert type(QQ.of(x)) is int
    assert QQ.of("1e3") == 1000 and QQ.of(" -6/3 ") == -2
    assert type(Rational(6, 3)) is int and type(Rational(Fraction(3, 2), Fraction(3, 4))) is int
    half = QQ.of("1/2")
    assert half == Rational(1, 2) == Fraction(1, 2) and type(half) is not int
    red, _, _ = rref(mat(QQ, [[2, 4, 6], [3, 9, 12]]))
    assert red == mat(QQ, [[1, 0, 1], [0, 1, 1]])
    assert all(type(x) is int for row in red.data for x in row)


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=["Q", "F7"])
def test_floats_are_refused(field):
    for x in (0.5, 2.0, float("nan")):
        with pytest.raises(BadParams):
            field.of(x)


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("literal", ["nan", "inf", "", "abc", "1/2/3"])
def test_non_numeric_literals_are_refused(field, literal):
    with pytest.raises(BadParams, match=re.escape(repr(literal))):
        field.of(f" {literal} ")


def test_prime_field_requires_prime():
    with pytest.raises(BadParams):
        Field.prime(6)


# -- hypothesis properties ----------------------------------------------

entries = st.integers(min_value=-3, max_value=3)


def matrices(field):
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.integers(min_value=1, max_value=5).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    ).map(lambda rows: Matrix.from_rows(field, rows))


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_rank_nullity(m):
    assert m.cols == rank(m) + len(kernel_basis(m))


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_rref_idempotent(m):
    red, _, _ = rref(m)
    red2, _, _ = rref(red)
    assert red2 == red


@settings(max_examples=60, deadline=None)
@given(matrices(F5))
def test_rank_nullity_prime_field(m):
    assert m.cols == rank(m) + len(kernel_basis(m))


@settings(max_examples=60, deadline=None)
@given(matrices(QQ), st.lists(entries, min_size=1, max_size=5))
def test_solve_is_exact(m, bvals):
    b = tuple(QQ.of(x) for x in bvals[:m.rows])
    if len(b) != m.rows:
        b = b + tuple(QQ.zero() for _ in range(m.rows - len(b)))
    x = solve(m, b)
    if x is not None:
        assert m.apply(x) == b


@settings(max_examples=40, deadline=None)
@given(matrices(QQ))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert not any(m.apply(v))


@settings(max_examples=40, deadline=None)
@given(matrices(QQ))
def test_kernel_subspace_matches_kernel_basis(m):
    sp = kernel_subspace(m)
    vecs = kernel_basis(m)
    assert sp.dim == len(vecs)
    for v in vecs:
        assert sp.contains(v)


@settings(max_examples=40, deadline=None)
@given(matrices(QQ), matrices(QQ))
def test_subspace_dimension_formula(ma, mb):
    ambient = max(ma.cols, mb.cols)
    pad_a = [tuple(row) + (QQ.zero(),) * (ambient - ma.cols) for row in ma.data]
    pad_b = [tuple(row) + (QQ.zero(),) * (ambient - mb.cols) for row in mb.data]
    A = Subspace.from_vectors(QQ, ambient, pad_a)
    B = Subspace.from_vectors(QQ, ambient, pad_b)
    meet = A.intersect(B)
    join = A.plus(B)
    assert meet.dim + join.dim == A.dim + B.dim
    assert A.contains_space(meet) and B.contains_space(meet)
    assert join.contains_space(A) and join.contains_space(B)
    assert len(A.complement()) + A.dim == ambient


# -- sparse rows against a dense reference -------------------------------

def dense_reduce(space, v):
    """v reduced by dense row operations over the whole basis, in pivot order."""
    out = list(v)
    for row, p in zip(space.basis, space.pivots):
        c = out[p]
        if c:
            out = [a - c * b for a, b in zip(out, row)]
    return tuple(out)


def _seeded_subspaces(field):
    """Row-reduced and kernel subspaces of seeded random matrices."""
    for seed in range(12):
        rows, cols = 2 + seed % 5, 4 + seed % 7
        m = random_matrix(field, rows, cols, seed=seed, pool=(-2, -1, 0, 0, 0, 1, 3))
        yield Subspace.from_vectors(field, cols, m.data)
        yield kernel_subspace(m)


@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=["Q", "F32003"])
def test_sparse_subspace_matches_dense_reference(field):
    rng = random.Random(7)
    pool = [field.of(x) for x in (-2, -1, 0, 1, 2, "1/3")]
    members = outsiders = 0
    for space in _seeded_subspaces(field):
        n = space.ambient
        for _ in range(6):
            coefs = [rng.choice(pool) for _ in range(space.dim)]
            member = tuple(sum((c * row[j] for c, row in zip(coefs, space.basis)), field.zero())
                           for j in range(n))
            other = tuple(rng.choice(pool) for _ in range(n))
            for v in (member, other):
                ref = dense_reduce(space, v)
                assert space.reduce(v) == ref
                assert space.contains(v) == (not any(ref))
                assert space.contains({j: x for j, x in enumerate(v) if x}) == (not any(ref))
                if not any(ref):
                    assert space.coords(v) == tuple(v[p] for p in space.pivots)
                else:
                    with pytest.raises(DimensionMismatch):
                        space.coords(v)
            assert space.contains(member) and space.coords(member) == tuple(coefs)
            members += 1
            outsiders += not space.contains(other)
    assert members >= 100 and outsiders >= 40


@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=["Q", "F32003"])
def test_kernel_subspace_fills_the_sparse_rows_it_would_compute(field):
    for seed in range(10):
        m = random_matrix(field, 3 + seed % 3, 5 + seed % 4, seed=seed)
        sp = kernel_subspace(m)
        fresh = Subspace(field, sp.ambient, sp.basis, sp.pivots)
        as_dicts = [{p: dict(zip(*rows)) for p, rows in s.sparse_rows().items()}
                    for s in (sp, fresh)]
        assert as_dicts[0] == as_dicts[1]
