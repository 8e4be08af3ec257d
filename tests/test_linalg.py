import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortloc import homology, linalg
from shortloc.errors import BadParams, DimensionMismatch
from shortloc.linalg import (QQ, Field, Fp, IntRows, Matrix, Rational, Subspace,
                             kernel_basis, kernel_subspace, random_matrix, rank, rref, solve,
                             solve_matrix)
from shortloc.modules import random_module, simple_module
from shortloc.presets import preset

from references import (complement, dense_sparse_rows, from_scalars, is_zero, reference_sparse,
                        typed as typed_space, typed_columns)

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

def test_subspace_complement_extends():
    e1 = Subspace.from_vectors(QQ, 2, [(QQ.one(), QQ.zero())])
    comp = complement(e1)
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
        a.contains(b.basis[0])
    with pytest.raises(DimensionMismatch):
        a.coords(b.basis[0])


# -- random matrices -----------------------------------------------------

def test_random_matrix_deterministic():
    assert random_matrix(QQ, 4, 3, seed=7) == random_matrix(QQ, 4, 3, seed=7)
    assert random_matrix(QQ, 4, 3, seed=7) != random_matrix(QQ, 4, 3, seed=8)


def test_random_matrix_empty_and_constant_pool():
    assert random_matrix(QQ, 0, 0, seed=1).rows == 0
    assert is_zero(random_matrix(QQ, 3, 3, seed=1, pool=(0,)))


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


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)
def test_an_int_is_coerced_at_once_and_anything_else_through_the_gate(field):
    p = field.characteristic
    for x in (0, 1, -1, 7, -15, 32003, 2**70):
        got = field.of(x)
        assert (type(got), got) == ((Fp, Fp(x, p)) if p else (int, x))
    # A bool is read as the int it equals, never kept as a bool.
    for b in (False, True):
        got = field.of(b)
        assert (type(got), got) == ((Fp, Fp(int(b), p)) if p else (int, int(b)))
    refused = [0.0, 3.0, "1/0", "x", Fp(1, 5)]
    if p:
        refused += [Fraction(1, p), object()]
    for x in refused:
        with pytest.raises(BadParams):
            field.of(x)


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
        dense = dense_sparse_rows(sp.basis, sp.pivots)
        assert sparse_dicts(sp.sparse_rows()) == sparse_dicts(dense)


# -- the sparse elimination against a dense Gauss-Jordan reference --------

def reference_rref_rows(field, rows, ncols):
    """Dense column-by-column Gauss-Jordan: (rows, pivot columns).

    The elimination the package used before its sparse routine, kept here
    as the reference: the reduced row echelon form is unique, so both must
    give the same rows and pivots.
    """
    rows = [list(r) for r in rows]
    one = field.one()
    div = Rational if field.characteristic == 0 else Fp.__truediv__
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != one:
            rows[r] = [div(x, lead) if x else x for x in rows[r]]
        rr = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def reference_kernel(m):
    """(basis, free columns) of the right null space, read off the reference rref."""
    rows, pivots = reference_rref_rows(m.field, m.data, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [m.field.zero()] * m.cols
        v[fc] = m.field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis, free


def reference_solve_matrix(m, b):
    rows, pivots = reference_rref_rows(
        m.field, [list(r) + list(br) for r, br in zip(m.data, b.data)], m.cols + b.cols)
    if pivots and pivots[-1] >= m.cols:
        return None
    out = [[m.field.zero()] * b.cols for _ in range(m.cols)]
    for r, pc in enumerate(pivots):
        out[pc] = rows[r][m.cols:]
    return Matrix(m.field, out, cols=b.cols)


def assert_exact_scalars(field, rows):
    """Over Q an integral value is an int and any other a Fraction; over F_p all are Fp."""
    for row in rows:
        for x in row:
            if field.is_rationals:
                assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), x
            else:
                assert type(x) is Fp and x.p == field.characteristic


def hilbert(field, n):
    return Matrix(field, [[field.of(Fraction(1, i + j + 1)) for j in range(n)] for i in range(n)])


def elimination_inputs(field):
    """Seeded matrices with every shape the elimination must handle."""
    out = [Matrix(field, [], cols=4), Matrix(field, [[], [], []], cols=0),
           Matrix.zeros(field, 3, 5), Matrix.identity(field, 4)]
    if field.characteristic not in range(2, 16):
        out.append(hilbert(field, 8))  # its denominators run up to 15
    pools = [(-2, -1, 0, 1, 2), (0, 0, 0, 2, 3, -6), (0, 1, "1/3", "-5/2", "7/4"),
             (0, 0, 0, 1, -1)]
    for seed in range(24):
        pool = pools[seed % len(pools)]
        rows, cols = 1 + seed % 6, 1 + (seed * 5) % 9
        m = random_matrix(field, rows, cols, seed=seed, pool=pool)
        data = [list(r) for r in m.data]
        rng = random.Random(seed)
        data.append([field.zero()] * cols)  # a zero row
        data.append(list(rng.choice(data)))  # a duplicate row
        data.insert(0, [field.of(3) * x for x in data[-1]])  # a multiple of it
        rng.shuffle(data)
        out.append(Matrix(field, data, cols=cols))
    if field.is_rationals:
        # Fractions with denominator 1 beside ints, as sums of Fractions produce.
        out.append(Matrix(field, [[Fraction(2, 1), 3, Fraction(1, 2)],
                                  [Fraction(4, 2), Fraction(6, 1), 1],
                                  [Fraction(3, 3), 0, Fraction(-4, 1)]]))
    return out


ELIM_FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)],
                                      ids=["Q", "F7", "F32003"])


def sparse_dicts(rows):
    """Sparse rows, pivot -> (indices, values), as pivot -> {index: value}."""
    return {p: dict(zip(*row)) for p, row in rows.items()}


@ELIM_FIELDS
def test_rref_matches_the_dense_reference(field):
    for m in elimination_inputs(field):
        rows, pivots = reference_rref_rows(field, m.data, m.cols)
        red, rk, piv = rref(m)
        assert red == Matrix(field, rows, cols=m.cols)
        assert piv == tuple(pivots) and rk == len(pivots) == rank(m)
        assert_exact_scalars(field, red.data)


@ELIM_FIELDS
def test_kernel_subspace_matches_the_dense_reference(field):
    for m in elimination_inputs(field):
        basis, free = reference_kernel(m)
        sp = kernel_subspace(m)
        assert sp.basis == tuple(basis) and sp.pivots == tuple(free)
        assert_exact_scalars(field, sp.basis)
        assert sparse_dicts(sp.sparse_rows()) == sparse_dicts(dense_sparse_rows(basis, free))
        assert kernel_basis(m) == basis


@ELIM_FIELDS
def test_from_vectors_matches_the_dense_reference(field):
    for m in elimination_inputs(field):
        rows, pivots = reference_rref_rows(field, m.data, m.cols)
        sp = Subspace.from_vectors(field, m.cols, m.data)
        assert sp.basis == tuple(tuple(r) for r in rows[:len(pivots)])
        assert sp.pivots == tuple(pivots)
        assert_exact_scalars(field, sp.basis)
        assert sparse_dicts(sp.sparse_rows()) == sparse_dicts(dense_sparse_rows(sp.basis,
                                                                              sp.pivots))


@ELIM_FIELDS
def test_solve_and_solve_matrix_match_the_dense_reference(field):
    solved = refused = 0
    for k, m in enumerate(elimination_inputs(field)):
        if m.rows == 0 or m.cols == 0:
            continue
        x = random_matrix(field, m.cols, 2, seed=k, pool=(-1, 0, 2, "1/2"))
        consistent = m * x
        other = random_matrix(field, m.rows, 2, seed=k + 100, pool=(-3, 0, 1, 5))
        for b in (consistent, other):
            ref = reference_solve_matrix(m, b)
            got = solve_matrix(m, b)
            assert got == ref
            if got is not None:
                assert m * got == b
                assert_exact_scalars(field, got.data)
            col = b.col(0)
            ref1 = reference_solve_matrix(m, Matrix.from_columns(field, [col], m.rows))
            assert solve(m, col) == (None if ref1 is None else ref1.col(0))
            solved += got is not None
            refused += got is None
    assert solved >= 25 and refused >= 5
    empty = Matrix(field, [[], []], cols=0)
    assert solve(empty, (field.zero(), field.zero())) == ()
    assert solve(empty, (field.zero(), field.one())) is None
    assert solve(Matrix(field, [], cols=3), ()) == (field.zero(),) * 3


def as_dict_rows(m, seed):
    """m's rows as dicts {column: scalar} holding explicit zeros as well as the non-zeros.

    Over Q every other integral entry becomes a ``Fraction`` with
    denominator 1 and every other zero a ``Fraction(0)``, so rows mix ints
    and Fractions; a zero row is added as an empty dict.
    """
    rng = random.Random(seed)
    rows = []
    for r, row in enumerate(m.data):
        d = {}
        for c, x in enumerate(row):
            if x or rng.random() < 0.5:
                if m.field.is_rationals and (r + c) % 2 and Fraction(x).denominator == 1:
                    x = Fraction(int(x) * 3, 3)
                d[c] = x
        rows.append(dict(rng.sample(sorted(d.items()), len(d))))
    return rows + [{}]


@ELIM_FIELDS
def test_sparse_rows_match_the_dense_reference(field):
    zeros = mixed = 0
    for seed, m in enumerate(elimination_inputs(field)):
        rows = as_dict_rows(m, seed)
        zeros += sum(not x for row in rows for x in row.values())
        mixed += len({type(x) for row in rows for x in row.values()}) > 1
        ref_rows, pivots = reference_rref_rows(field, m.data, m.cols)
        basis, free = reference_kernel(m)
        assert rank(from_scalars(field, rows, m.cols)) == len(pivots)
        sp = kernel_subspace(from_scalars(field, rows, m.cols))
        assert sp.basis == tuple(basis) and sp.pivots == tuple(free)
        assert_exact_scalars(field, sp.basis)
        span = Subspace.from_vectors(field, m.cols, rows)
        assert span.basis == tuple(tuple(r) for r in ref_rows[:len(pivots)])
        assert span.pivots == tuple(pivots)
        assert_exact_scalars(field, span.basis)
    assert zeros >= 20 and (mixed >= 5 or not field.is_rationals)
    with pytest.raises(DimensionMismatch):
        Subspace.from_vectors(field, 3, [{3: field.one()}])


@ELIM_FIELDS
def test_the_one_loop_row_converter_matches_the_two_branch_one(field):
    # _sparse reads (column, scalar) pairs: enumerate(row) of a dense row,
    # .items() of a dict.  Values, value types and column order are those
    # of the converter with a dense and a dict branch.
    p, kinds = field.characteristic, set()

    def converted(row):
        return [(j, type(x), x) for j, x in row.items()]
    for seed, m in enumerate(elimination_inputs(field)):
        for row in m.data:
            want = converted(reference_sparse(row, p))
            assert converted(linalg._sparse(enumerate(row), p)) == want
            assert converted(linalg._sparse(dict(enumerate(row)).items(), p)) == want
            kinds.add(("dense zero", not any(row)))
        for row in as_dict_rows(m, seed):
            assert converted(linalg._sparse(row.items(), p)) == \
                converted(reference_sparse(row, p))
            kinds.add(("explicit zero", any(not x for x in row.values())))
            kinds.add(("changed", converted(reference_sparse(row, p)) != converted(row)))
    assert kinds >= {("dense zero", True), ("dense zero", False), ("explicit zero", True),
                     ("changed", True)}


def test_integral_rref_builds_no_fraction(monkeypatch):
    m = mat(QQ, [[2, 3], [4, 5]])
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)))
    red, rk, piv = rref(m)
    assert kernel_subspace(mat(QQ, [[2, 4, 6], [3, 9, 12]])).dim == 1
    monkeypatch.undo()
    assert red == Matrix.identity(QQ, 2) and rk == 2 and piv == (0, 1)
    assert made == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([QQ, Field.prime(7), Field.prime(32003)]),
       st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**16),
       st.sampled_from([(-1, 0, 1), (0, 0, 2, -3, "1/2"), (0, 0, 0, 1, "5/3", -4)]))
def test_kernel_vectors_annihilate_and_dimension_is_corank(field, rows, cols, seed, pool):
    m = random_matrix(field, rows, cols, seed=seed, pool=pool)
    sp = kernel_subspace(m)
    for v in sp.basis:
        assert not any(m.apply(v))
    assert sp.dim == cols - rank(m)


# -- kernel rows built on first read, against the eager construction -----------

def eager_kernel(m):
    """The kernel built eagerly: every reduced row, then every vector, at once.

    It is the construction ``kernel_subspace`` used before it deferred the
    rows, kept here as the reference: (basis, pivots, sparse rows), the
    rows as pivot -> (indices, values) in the order they were built.
    """
    red, rk, pivots = rref(m)
    one, pivset = m.field.one(), set(pivots)
    vecs = {fc: {fc: one} for fc in range(m.cols) if fc not in pivset}
    for pc, row in zip(pivots, red.data[:rk]):
        for j, x in enumerate(row):
            if x and j != pc:
                vecs[j][pc] = -x
    basis = []
    for vec in vecs.values():
        v = [m.field.zero()] * m.cols
        for j, x in vec.items():
            v[j] = x
        basis.append(tuple(v))
    return tuple(basis), tuple(vecs), {fc: (tuple(v), tuple(v.values())) for fc, v in vecs.items()}


def typed(basis, pivots, rows):
    """Basis, pivots and sparse rows with the type of every scalar beside it."""
    def scalars(row):
        return tuple((type(x), x) for x in row)
    return ([scalars(v) for v in basis], tuple(pivots),
            [(p, idx, scalars(vals)) for p, (idx, vals) in rows.items()])


@pytest.fixture
def kernel_rows_built(monkeypatch):
    """The ambient dimension of each kernel whose rows are built, in integer form."""
    built = []

    def counted(field, piv, free, at, scales, _original=linalg._kernel_rows):
        built.append(len(piv) + len(free))
        return _original(field, piv, free, at, scales)
    monkeypatch.setattr(linalg, "_kernel_rows", counted)
    return built


@ELIM_FIELDS
def test_lazy_kernel_rows_equal_the_eager_construction(field, kernel_rows_built):
    zero, one = field.zero(), field.one()
    special = [Matrix(field, [[zero, one, zero, field.of(2)], [zero, field.of(3), zero, one]]),
               Matrix.zeros(field, 2, 3), Matrix.identity(field, 3)]
    inputs = [(m, m) for m in elimination_inputs(field) + special]
    inputs += [(m, from_scalars(field, as_dict_rows(m, seed), m.cols))
               for seed, m in enumerate(elimination_inputs(field) + special)]
    for reads in ("sparse_rows", "basis"):
        for m, given_as in inputs:
            expected = eager_kernel(m)
            kernel_rows_built.clear()
            sp = kernel_subspace(given_as)
            assert sp.pivots == expected[1] and sp.dim == len(expected[1])
            assert kernel_rows_built == []
            sp.basis if reads == "basis" else sp.sparse_rows()
            assert kernel_rows_built == [m.cols]
            assert typed(sp.basis, sp.pivots, sp.sparse_rows()) == typed(*expected)
            assert kernel_rows_built == [m.cols]
    # Some non-zero input has a zero column.
    assert any(not any(m.col(c)) and not is_zero(m) for m, _ in inputs for c in range(m.cols))
    assert {kernel_subspace(m).dim for m in special} == {2, 3, 0}


@ELIM_FIELDS
def test_a_kernel_placed_by_at_is_the_kernel_rekeyed(field, kernel_rows_built):
    """kernel_subspace(m, at=, ambient=) against the eager kernel with its columns read through at."""
    zero, one = field.zero(), field.one()
    special = [Matrix(field, [[zero, one, zero, zero, field.of(2)], [zero] * 5,
                              [zero, field.of(3), zero, one, zero]]), Matrix.zeros(field, 2, 3)]
    inputs = [(m, m) for m in elimination_inputs(field) + special]
    inputs += [(m, from_scalars(field, as_dict_rows(m, seed), m.cols))
               for seed, m in enumerate(elimination_inputs(field) + special)]
    rng = random.Random(19)
    for m, given_as in inputs:
        ambient = m.cols + rng.randrange(5)
        at = sorted(rng.sample(range(ambient), m.cols))
        _, free, rows = eager_kernel(m)
        want = {at[f]: (tuple(at[j] for j in idx), vals) for f, (idx, vals) in rows.items()}
        dense = []
        for idx, vals in want.values():
            v = [zero] * ambient
            for j, x in zip(idx, vals):
                v[j] = x
            dense.append(tuple(v))
        kernel_rows_built.clear()
        sp = kernel_subspace(given_as, at=at, ambient=ambient)
        assert sp.ambient == ambient and sp.pivots == tuple(at[f] for f in free)
        assert kernel_rows_built == []
        assert typed(sp.basis, sp.pivots, sp.sparse_rows()) == typed(dense, sp.pivots, want)
        assert kernel_rows_built == [m.cols]
    # Some inputs have a zero column, some an empty row.
    assert any(not any(m.col(c)) and not is_zero(m) for m, _ in inputs for c in range(m.cols))
    assert any(type(rows) is IntRows and {} in rows.data for _, rows in inputs)


def test_a_betti_ladder_builds_no_kernel_rows_for_its_last_rung(kernel_rows_built, monkeypatch):
    eliminated = []

    def counted(m, _original=homology.kernel_subspace, **embedding):
        eliminated.append(m.cols)
        return _original(m, **embedding)
    monkeypatch.setattr(homology, "kernel_subspace", counted)
    alg = preset("ex15_1", e=3, a=2)
    values = homology.betti(simple_module(alg), 6).values
    assert values == (1, 3, 7, 15, 31, 63, 127)
    # Φ of rung i has a column per radical coordinate of A^t_i, (dim A - 1)·t_i,
    # the a·t_i W-columns empty; rungs 0-5 are covers, rung 6 only a top.
    assert eliminated == [(alg.dim - 1) * t for t in values]
    # Each rung's Φ and minimality check read the pivot rows of the kernel
    # before it, so no rung, the last included, builds its kernel rows.
    assert kernel_rows_built == []


# -- integer rows: a span from IntRows, pivot rows only on a kernel -----------------

@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_a_span_of_int_rows_is_the_span_of_their_scalars(field):
    rows = [{0: 2, 2: -3}, {1: 4, 2: 0}, {0: 4, 2: -6}]
    vectors = [{j: field.of(x) for j, x in row.items()} for row in rows]
    got = Subspace.from_vectors(field, 3, linalg.IntRows(field, rows, 3))
    want = Subspace.from_vectors(field, 3, vectors)
    assert (got.pivots, got.basis, got.sparse_rows()) == \
        (want.pivots, want.basis, want.sparse_rows())


def test_a_span_of_int_rows_checks_their_columns():
    for cols in (2, 4):
        for rows in (IntRows(QQ, [{0: 1}], cols), from_scalars(QQ, [{0: 1}], cols)):
            with pytest.raises(DimensionMismatch):
                Subspace.from_vectors(QQ, 3, rows)


def test_a_span_refuses_int_rows_with_column_scales():
    # Column 0 at scale 2 would mean the vector (1/2, 1), which the span would
    # read as (1, 1); without scales the same rows span (1, 1).
    with pytest.raises(BadParams, match="without column scales"):
        Subspace.from_vectors(QQ, 2, linalg.IntRows(QQ, [{0: 1, 1: 1}], 2, [2, 1]))
    assert Subspace.from_vectors(QQ, 2, linalg.IntRows(QQ, [{0: 1, 1: 1}], 2)).basis == ((1, 1),)


def test_a_vector_outside_the_ambient_space_is_refused():
    for vector in ({-1: 1, 0: 2}, {3: 1}, [1, 0], [1, 0, 0, 0]):
        with pytest.raises(DimensionMismatch):
            Subspace.from_vectors(QQ, 3, [vector])
    span = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    for read in (span.contains, span.coords, span.reduce):
        for vector in ([1, 0, 0, 0], [1, 0], {3: 1}, {-1: 1}):
            with pytest.raises(DimensionMismatch, match="wrong ambient dimension"):
                read(vector)
    assert span.contains({0: 2}) and span.coords([2, 0, 0]) == (2,)
    assert span.reduce([2, 1, 0]) == (0, 1, 0)


def test_reduce_and_coords_refuse_a_dict():
    # A dict passes the index check, but reduce and coords read a dense
    # vector: reduce({1: 2}) was read as the vector (2,), and coords({})
    # looked up the missing key 0.
    span = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    for read, vector in [(span.reduce, {1: 2}), (span.reduce, {0: 5, 2: 7}),
                         (span.reduce, {}), (span.coords, {}), (span.coords, {0: 2})]:
        with pytest.raises(DimensionMismatch, match="got a dict"):
            read(vector)
    assert span.reduce([5, 0, 7]) == (0, 0, 7) and span.contains({0: 5})


@ELIM_FIELDS
def test_a_span_of_sparse_rows_is_the_span_of_their_dicts(field):
    # Rows {column: scalar} converted where they are built
    # (from_scalars) are read as the elimination reads them, with one
    # width check: pivots and rows, scalar types included, are those of
    # the dicts handed over one at a time, as for the radicals of these
    # modules.  A dense row is handed over whole, its zeros included.
    cases = [(m.cols, [dict(enumerate(row)) for row in m.data])
             for m in elimination_inputs(field)]
    for name, kw in [("lambda_c", {"c": 1}), ("ex15_1", {"e": 3, "a": 2}), ("qexterior", {})]:
        alg = preset(name, field=field, **kw)
        for seed in range(3):
            M = random_module(alg, 1 + seed % 2, seed % 3, seed=seed)
            columns = [dict(col) for cols in typed_columns(M) for col in cols]
            cases.append((M.dim, columns))
            span = Subspace.from_vectors(field, M.dim, columns)
            assert typed_space(M.radical()) == typed_space(span)
    for cols, rows in cases:
        got = Subspace.from_vectors(field, cols, from_scalars(field, rows, cols))
        assert typed_space(got) == typed_space(Subspace.from_vectors(field, cols, rows))


def test_only_a_kernel_has_integer_pivot_rows():
    span = Subspace.from_vectors(QQ, 3, [[1, Fraction(1, 2), 0]])
    full, zero = Subspace.from_vectors(QQ, 2, [[1, 0], [0, 1]]), Subspace.from_vectors(QQ, 2, [])
    # Every subspace has integer rows: a span's are its pivot rows over
    # their leads, here (2, 1) over 2.
    assert span.int_rows() == {0: ((0, 1), (2, 1), 2)}
    assert full.int_rows() == {0: ((0,), (1,), 1), 1: ((1,), (1,), 1)}
    assert zero.int_rows() == {}
    for space in (span, full, zero):
        for read in (Subspace.pivot_form, Subspace.support):
            with pytest.raises(BadParams, match="no kernel: only a kernel has a pivot form"):
                read(space)
    kernel = kernel_subspace(mat(QQ, [[2, 1, 0]]))
    # Row 1 is (-1/2, 1, 0): 1 at its pivot, then -1/2 at 0, over scale 2.
    assert kernel.int_rows() == {1: ((1, 0), (2, -1), 2), 2: ((2,), (1,), 1)}
