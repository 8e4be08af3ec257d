"""Exact linear algebra over the rationals and prime fields.

Scalars over Q are exact rationals made by :func:`Rational`: an integral
value is a plain ``int``, any other a ``gmpy2.mpq`` when gmpy2 is present
and a ``fractions.Fraction`` otherwise.  Nearly every structure constant
and matrix entry is 0, ±1 or a small integer, so the kernels mostly run
on C-level int arithmetic.  Both kinds print the same (``"3/2"``,
``"-1"``), compare and hash equal at equal values, and a sum or product
that happens to be integral may stay a ``Fraction``.  Scalars over F_p are
residues wrapped in :class:`Fp`.  All arithmetic is exact: there is no
floating point anywhere in this package.

:func:`_echelon` is the one elimination routine behind :func:`rref`,
:func:`rank`, :func:`kernel_subspace`, :func:`solve`, :func:`solve_matrix`
and :meth:`Subspace.from_vectors`.  It reduces the rows one at a time as
sparse ``{column: int}`` dicts: over Q fraction-free, with integer rows
scaled by the lcm of their denominators, over F_p on plain residues.  It
reads a dense :class:`Matrix` through :func:`_sparse`, or an
:class:`IntRows`, never laid out densely: built in integers (Φ, the
Hom-complex, the relation equations, the Kronecker Homs, an isomorphism's
witness graph, and a module's radical and stacked actions from its action
columns, converted once per module,
:meth:`~shortloc.modules.AModule.int_columns`), its column scales folded
back only into the kernel rows, or converted row by row from typed sparse
rows (:meth:`IntRows.from_scalars`: a search's tops).
The reduced row echelon form is unique, so its rows and pivots do not
depend on how they are found.  Its only division is by each pivot row's
lead when the rows are read (:func:`typed_values`, :func:`_kernel_rows`),
with :func:`Rational` over Q; over F_p a pivot row is scaled by its lead's
inverse.

No engine path multiplies or combines dense matrices: vectors are mapped
along sparse action columns (:func:`~shortloc.modules.vector_images`).
:meth:`Matrix.__mul__` (and :meth:`Matrix.apply`, the product with a
one-column matrix) and :meth:`Matrix.combination` stay for callers of the
API and for the dense references that the tests check the engine against.
A :class:`Subspace` also keeps the non-zeros of its rows, and one routine
reduces a vector along them (:meth:`Subspace.residue`), walking only
non-zero entries.  Every subspace is an elimination's output, integer
first: a span keeps the elimination's pivot rows, which over their leads
are its integer rows (:meth:`Subspace.int_rows`), and a kernel keeps the
pivot rows of its matrix (:meth:`Subspace.pivot_form`) and writes its
integer rows from them in one pass.  Typed rows are built from the
integer rows on first read, so a caller that needs only a rank, a
dimension or free columns pays for the elimination alone.  Scalars and
ints cross over at one pair of converters, :func:`integer_values` (with
:func:`integer_pairs` for sparse columns) and :func:`typed_values`.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from ._record import record
from .errors import BadParams, DimensionMismatch

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is an optional accelerator
    _mpq = None

_Q = _mpq if _mpq is not None else Fraction

#: A decimal literal's exponent is refused above this size, as many digits
#: as ``int()`` reads from a string: ``Fraction`` would expand it in full.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)$")


def Rational(x, d=1):
    """The exact rational x/d: an ``int`` when it is integral, else a rational.

    ``x`` is an int, a rational or a string ("3/2", "4/2", "1e3"), ``d`` an
    int or a rational.  A non-integral value is a ``gmpy2.mpq`` when gmpy2
    is present and a ``fractions.Fraction`` otherwise.  A zero ``d`` raises
    ``ZeroDivisionError``; a string that is no rational raises ``ValueError``.
    """
    if type(x) is int and type(d) is int and d:
        q, r = divmod(x, d)
        if not r:
            return q
    q = _Q(x) if d == 1 else _Q(x, d)
    return int(q.numerator) if q.denominator == 1 else q


class Fp:
    """A residue mod a prime p, stored in the range [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other: "Fp") -> "Fp":
        return Fp(self.v + other.v, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        return Fp(self.v - other.v, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        return Fp(self.v * other.v, self.p)

    def __truediv__(self, other: "Fp") -> "Fp":
        return Fp(self.v * pow(other.v, -1, self.p), self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.v, self.p)

    def __bool__(self) -> bool:
        return self.v != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.v))

    def __repr__(self) -> str:
        return f"Fp({self.v}, {self.p})"

    def __str__(self) -> str:
        return str(self.v)


_INTS = {int}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@record
class Field:
    """Ground field descriptor: the rationals (characteristic 0) or F_p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not (p < 2**31 and _is_prime(p)):
            raise BadParams(f"characteristic must be 0 or a prime < 2^31, got {p}")

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @property
    def kind(self) -> str:
        return "Q" if self.characteristic == 0 else "Fp"

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def zero(self):
        """The additive identity: the int 0 over Q, ``Fp(0, p)`` over F_p."""
        return 0 if self.characteristic == 0 else Fp(0, self.characteristic)

    def one(self):
        """The multiplicative identity: the int 1 over Q, ``Fp(1, p)`` over F_p."""
        return 1 if self.characteristic == 0 else Fp(1, self.characteristic)

    def of(self, x):
        """Coerce an int, string ("p/q" or decimal), rational or Fp element.

        This is the one gate for scalars.  Over Q it returns :func:`Rational`
        of x, so an integral value is an ``int``; over F_p an :class:`Fp`.
        It refuses with :class:`BadParams` a float, a string that is no
        rational literal ("nan", "inf", ""), a decimal exponent beyond
        ±4300, a zero denominator, and over F_p a denominator divisible by p.
        """
        p = self.characteristic
        if type(x) is int:
            return Fp(x, p) if p else x
        if isinstance(x, float):
            raise BadParams(f"cannot coerce the float {x!r} into {self}: scalars are exact")
        if isinstance(x, str):
            literal = x.strip()
            try:
                exp = _EXPONENT.search(literal)
                if exp and abs(int(exp.group(1))) > _MAX_EXPONENT:
                    raise BadParams(f"the exponent of {literal!r} exceeds {_MAX_EXPONENT}")
                x = (Rational if p == 0 else Fraction)(literal)
            except ZeroDivisionError:
                raise BadParams(f"zero denominator in {literal!r}") from None
            except ValueError:
                raise BadParams(f"{literal!r} is not a rational number") from None
        if p == 0:
            if isinstance(x, Fp):
                raise BadParams("cannot coerce a prime-field residue into Q")
            return Rational(x)
        if isinstance(x, Fp):
            if x.p != p:
                raise BadParams(f"residue mod {x.p} used in F_{p}")
            return x
        if isinstance(x, int):
            return Fp(x, p)
        if isinstance(x, Fraction) or (_mpq is not None and isinstance(x, type(_mpq(0)))):
            num, den = int(x.numerator), int(x.denominator)
            if den % p == 0:
                raise BadParams(f"denominator {den} is divisible by the characteristic {p}")
            return Fp(num, p) / Fp(den, p)
        raise BadParams(f"cannot coerce {x!r} into F_{p}")

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


QQ = Field.rationals()

#: Default entry pool for seeded random matrices and search coefficients.
DEFAULT_POOL = (-2, -1, 0, 1, 2)


class Matrix:
    """An immutable dense matrix with exact entries.

    Stored row-major as a tuple of row tuples.  Multiplication walks only
    the non-zero entries of each row, so products with the very sparse
    structural matrices of this package stay cheap; a matrix-vector product
    is a product with a one-column matrix.  No engine path multiplies.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence], cols: Optional[int] = None):
        self.field = field
        self.data = tuple(tuple(row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else (cols or 0)
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable], cols: Optional[int] = None) -> "Matrix":
        return Matrix(field, [[field.of(x) for x in row] for row in rows], cols=cols)

    @staticmethod
    def from_columns(field: Field, columns: Sequence[Sequence], rows: int) -> "Matrix":
        """The ``rows`` x len(columns) matrix whose j-th column is columns[j]."""
        if any(len(c) != rows for c in columns):
            raise DimensionMismatch("column length mismatch")
        return Matrix(field, list(zip(*columns)) if columns else [[] for _ in range(rows)],
                      cols=len(columns))

    @staticmethod
    def from_sparse_columns(field: Field, rows: int, columns: Sequence[Iterable]) -> "Matrix":
        """The ``rows`` x len(columns) matrix with the (row, value) pairs columns[j] in column j."""
        out = [[field.zero()] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col:
                out[i][j] = x
        return Matrix(field, out, cols=len(columns))

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.field, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def sparse_columns(self) -> list[list[tuple]]:
        """The non-zero (row, value) pairs of each column, an Fp tested by its residue.

        A matrix with no rows has ``cols`` empty columns.
        """
        if not self.data:
            return [[] for _ in range(self.cols)]
        p = self.field.characteristic
        return [[(i, x) for i, x in enumerate(col) if (x.v if p else x)] for col in zip(*self.data)]

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.data, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.data, other.data)], cols=self.cols)

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, [[c * x for x in row] for row in self.data], cols=self.cols)

    @staticmethod
    def combination(coefs: Sequence, mats: Sequence["Matrix"]) -> "Matrix":
        """sum_k coefs[k]·mats[k] over one or more matrices of one shape."""
        first = mats[0]
        if any((X.rows, X.cols) != (first.rows, first.cols) for X in mats):
            raise DimensionMismatch("combination shape mismatch")
        zero = first.field.zero()
        out = [[zero] * first.cols for _ in range(first.rows)]
        for c, X in zip(coefs, mats):
            if c:
                out = [[s + c * x if x else s for s, x in zip(acc, row)]
                       for acc, row in zip(out, X.data)]
        return Matrix(first.field, out, cols=first.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = self.field.zero()
        out = []
        bdata = other.data
        for row in self.data:
            acc = [zero] * other.cols
            for k, a in enumerate(row):
                if a:
                    brow = bdata[k]
                    acc = [s + a * b if b else s for s, b in zip(acc, brow)]
            out.append(acc)
        return Matrix(self.field, out, cols=other.cols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector: the product with a one-column matrix."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return (self * Matrix.from_columns(self.field, [vec], self.cols)).col(0)


class IntRows:
    """A matrix in the elimination's own form: rows {column: int}, column scales.

    Over F_p each value stands for its residue; over Q column c is
    ``scales[c]`` (a positive int, 1 for every column when ``scales`` is
    None, as it always is over F_p) times the column of the matrix meant.
    A value may be 0.  Scaling a column moves no pivot and no free column,
    so :func:`rank` reads the rows as they stand and :func:`kernel_subspace`
    folds the scales back only when its kernel rows are built.  The
    elimination reads the rows with their zeros dropped, reduced mod p.
    """

    __slots__ = ("field", "data", "cols", "scales")

    def __init__(self, field: Field, data: Sequence[dict], cols: int,
                 scales: Optional[Sequence[int]] = None):
        self.field, self.data, self.cols, self.scales = field, data, cols, scales

    @property
    def rows(self) -> int:
        return len(self.data)

    @staticmethod
    def from_scalars(field: Field, rows: Iterable[dict], cols: int) -> "IntRows":
        """Rows {column: scalar} as ints, each over its own scale (:func:`_sparse`)."""
        p = field.characteristic
        return IntRows(field, [_sparse(row.items(), p) for row in rows], cols)


def integer_values(values: Sequence, p: int) -> tuple[list, int]:
    """Scalars as ints over one scale d, each scalar its int over d.

    Over F_p the ints are the residues and d is 1; over Q d is the lcm of
    the denominators, and when every scalar is an ``int`` d is 1 and the
    ints are ``values`` itself.
    """
    if p:
        return [x.v for x in values], 1
    if _INTS.issuperset(map(type, values)):
        return values, 1
    d = lcm(*[int(x.denominator) for x in values])
    return [int(x.numerator) * (d // int(x.denominator)) for x in values], d


def integer_pairs(groups: Sequence[Sequence[Sequence[tuple]]], p: int) -> tuple[Sequence, int]:
    """Groups of lists of (index, scalar) pairs as (index, int) pairs over one scale d.

    All the scalars are converted together (:func:`integer_values`); when
    they are all ``int`` already, ``groups`` itself is returned, over 1.
    """
    flat = [x for group in groups for pairs in group for _, x in pairs]
    values, scale = integer_values(flat, p)
    if values is flat:
        return groups, 1
    ints = iter(values)
    return [[list(zip([i for i, _ in pairs], ints)) for pairs in group] for group in groups], scale


def typed_values(values: Sequence[int], scale: int, p: int) -> tuple:
    """Ints over ``scale`` as scalars, the inverse of :func:`integer_values`.

    Over F_p each residue becomes an :class:`Fp`; over Q the ints are
    kept at scale 1, and otherwise each is :func:`Rational` of the int and
    the scale, an ``int`` when integral.
    """
    if p:
        return tuple([Fp(x, p) for x in values])
    if scale == 1:
        return tuple(values)
    return tuple([Rational(x, scale) for x in values])


def _sparse(entries: Iterable[tuple], p: int) -> dict:
    """The non-zeros of a row as {column: int}: residues over F_p, integers over Q.

    The row comes as (column, scalar) pairs, which may hold explicit zeros:
    ``enumerate(row)`` of a dense row, ``.items()`` of a dict.  Over Q a row
    holding any non-int (a ``Fraction`` with denominator 1 included) is
    multiplied by the lcm of its denominators.
    """
    if p:
        return {j: v for j, x in entries if (v := x.v)}
    nz = {j: x for j, x in entries if x}
    if _INTS.issuperset(map(type, nz.values())):
        return nz
    return dict(zip(nz, integer_values(list(nz.values()), 0)[0]))


def _clear(row: dict, prow: dict, c: int) -> dict:
    """row less the multiple of the pivot row prow (pivot c) that clears column c.

    Over Q row is first scaled by lead/gcd(lead, row[c]), so every entry
    stays an integer; over F_p the lead is 1 and entries are left unreduced.
    """
    t, lead = row[c], prow[c]
    if lead != 1:
        g = gcd(t, lead) if lead > 0 else -gcd(t, lead)
        s, t = lead // g, t // g
        if s != 1:
            row = {j: s * x for j, x in row.items()}
    for j, b in prow.items():
        row[j] = row.get(j, 0) - t * b
    return row


def _tidy(row: dict, p: int) -> dict:
    """row without its zeros: reduced mod p over F_p, divided by its content over Q."""
    if p:
        return {j: y for j, x in row.items() if (y := x % p)}
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items() if x} if g else {}


def _integer_rows(m: Matrix | IntRows) -> list[dict]:
    """The rows of ``m`` as :func:`_echelon` reads them, {column: int}, each read once.

    A :class:`Matrix` row goes through :func:`_sparse`; the rows of an
    :class:`IntRows` are copied without their zeros, reduced mod p over F_p.
    """
    p = m.field.characteristic
    if type(m) is not IntRows:
        return [_sparse(enumerate(row), p) for row in m.data]
    if p:
        return [{j: r for j, x in row.items() if (r := x % p)} for row in m.data]
    return [dict(row) if 0 not in row.values() else {j: x for j, x in row.items() if x}
            for row in m.data]


def _echelon(field: Field, rows: Iterable[dict], ncols: int) -> dict[int, dict]:
    """The one elimination routine: {pivot column: reduced pivot row} of the rows' span.

    The rows come as sparse ints, as :func:`_integer_rows` or
    :func:`_sparse` give them for a :class:`Matrix` or an :class:`IntRows`,
    which the elimination may change in place, and are taken sparsest
    first.  Each is reduced against the pivot rows found so far
    and, if anything is left, becomes a pivot row at its leading column;
    the older pivot rows are then cleared at that column.  So the pivot
    rows stay reduced, a row is cleared at each pivot column once, and
    the result is the reduced row echelon form up to the scale of each row.
    Over Q no rational is built: the rows hold integers, a row that was
    cleared is divided by its content, and every lead is positive.  Over
    F_p a pivot row is scaled to lead 1 with ``pow(lead, -1, p)``.
    """
    p = field.characteristic
    piv: dict[int, dict] = {}
    used: set[int] = set()  # a new pivot column outside it is in no older pivot row
    for row in sorted(filter(None, rows), key=len):
        if len(piv) == ncols:
            break
        hits = row.keys() & piv.keys()
        if hits:
            for c in hits:
                row = _clear(row, piv[c], c)
            row = _tidy(row, p)
            if not row:
                continue
        c = min(row)
        if p and row[c] != 1:
            inv = pow(row[c], -1, p)
            row = {j: x * inv % p for j, x in row.items()}
        elif row[c] < 0:
            row = {j: -x for j, x in row.items()}
        if c in used:
            for q, qrow in piv.items():
                if c in qrow:
                    piv[q] = _tidy(_clear(qrow, row, c), p)
        piv[c] = row
        used.update(row)
    return piv


def _check_vector(v: Sequence | dict, ambient: int):
    """Raise DimensionMismatch unless v, a sequence or a dict {index: value}, lies in k^ambient."""
    if (v and (min(v) < 0 or max(v) >= ambient)) if isinstance(v, dict) else len(v) != ambient:
        raise DimensionMismatch("vector has wrong ambient dimension")


def _check_dense(v: Sequence, ambient: int):
    """Raise DimensionMismatch unless v is a sequence, not a dict, of length ``ambient``."""
    _check_vector(v, ambient)
    if isinstance(v, dict):
        raise DimensionMismatch("expected a dense vector, got a dict")


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form: returns (reduced, rank, pivot columns)."""
    space = Subspace._span(m.field, m.cols, _echelon(m.field, _integer_rows(m), m.cols))
    zeros = [[m.field.zero()] * m.cols] * (m.rows - space.dim)
    return Matrix(m.field, [*space.basis, *zeros], cols=m.cols), space.dim, space.pivots


def rank(m: Matrix | IntRows) -> int:
    """The rank of ``m``: the number of pivots, with no reduced rows built."""
    return len(_echelon(m.field, _integer_rows(m), m.cols))


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right null space of ``m``: the basis of :func:`kernel_subspace`."""
    return list(kernel_subspace(m).basis)


def kernel_subspace(m: Matrix | IntRows, *, at: Optional[Sequence[int]] = None,
                    ambient: Optional[int] = None) -> "Subspace":
    """The right null space as a :class:`Subspace` without re-reduction.

    ``m`` is eliminated at once (:func:`_echelon`): its free columns are
    the subspace's pivots and fix its dimension.  Each basis vector
    carries the entry 1 at "its" free column and 0 at every other free
    column, so the vectors already form a valid pseudo-reduced basis with
    the free columns as pivots, and the coordinates of a kernel vector are
    its entries at the free columns.  With ``at``, increasing, column c of
    ``m`` is coordinate ``at[c]`` of k^ambient, so the pivots are the
    ``at[f]``.  The subspace keeps the elimination's integer pivot rows
    (:meth:`Subspace.from_pivot_rows`), which :meth:`Subspace.pivot_form`
    gives as they stand; the kernel rows are
    built in integer form (:meth:`Subspace.int_rows`, :func:`_kernel_rows`)
    on the first read of them, of :meth:`Subspace.sparse_rows` or of
    :attr:`Subspace.basis`, and the typed rows from them only when read, so
    a caller that reads only the dimension or the pivots pays for the
    elimination alone.  The column scales of an :class:`IntRows` are folded
    back into the kernel rows.
    """
    field = m.field
    piv = _echelon(field, _integer_rows(m), m.cols)
    free = [c for c in range(m.cols) if c not in piv]
    if at is None:
        at, ambient = range(m.cols), m.cols
    scales = m.scales if type(m) is IntRows else None
    return Subspace.from_pivot_rows(field, ambient, piv, free, at, scales)


def _kernel_rows(field: Field, piv: dict[int, dict], free: list[int], at: Sequence[int],
                 scales: Optional[Sequence[int]]) -> dict:
    """The kernel vector of each free column f in integer form, (indices, values, scale).

    The vector is values/scale, column c at ``at[c]``.  It is written in
    one pass over ``piv``'s integer rows: 1 at f, then -x·σ_c/(lead·σ_f)
    at each pivot column c whose row holds x at f, c increasing, where σ
    are the column scales (all 1 without ``scales``).  Over F_p the leads
    and scales are 1, the values the residues -x and the scale 1.  Over Q
    a row whose leads and scales are all 1 holds the ints -x at scale 1;
    any other is written over the least scale that makes it integral.
    """
    p = field.characteristic
    idx = {f: [at[f]] for f in free}
    vals = {f: [1] for f in free}
    odd = set()  # over Q, free columns met by a lead or a column scale other than 1
    for c, row in sorted(piv.items()):
        q, lead = at[c], row[c]
        if p:
            for j, x in row.items():
                if j != c:
                    idx[j].append(q)
                    vals[j].append(p - x)
            continue
        sc = scales[c] if scales else 1
        if lead == 1 and sc == 1:
            for j, x in row.items():
                if j != c:
                    idx[j].append(q)
                    vals[j].append(-x)
        else:
            for j, x in row.items():
                if j != c:
                    idx[j].append(q)
                    vals[j].append((-x * sc, lead))
                    odd.add(j)
    if scales:
        odd.update(f for f in free if scales[f] != 1)
    if not odd:
        return {at[f]: (tuple(idx[f]), tuple(vals[f]), 1) for f in free}
    out = {}
    for f in free:
        values, scale = vals[f], 1
        if f in odd:
            values, scale = _over_one_scale(values, scales[f] if scales else 1)
        out[at[f]] = (tuple(idx[f]), tuple(values), scale)
    return out


def _over_one_scale(values: list, sf: int) -> tuple[list, int]:
    """A kernel row of :func:`_kernel_rows`, its entries ints e or pairs (num, den), over one scale.

    The entry at f is 1 and stands for 1; an int e for e/σ_f and a pair
    for num/(den·σ_f).  Scaled by σ_f·lcm(den), then by the gcd of the
    result, the row is integral over the least scale.
    """
    dens = [v[1] for v in values if type(v) is tuple]
    m = lcm(*dens) if dens else 1
    ints = [sf * m] + [v[0] * (m // v[1]) if type(v) is tuple else v * m for v in values[1:]]
    g = gcd(*ints)
    return [v // g for v in ints], sf * m // g


def solve(m: Matrix, b: Sequence) -> Optional[tuple]:
    """Some exact solution x of m·x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length mismatch")
    x = solve_matrix(m, Matrix.from_columns(m.field, [b], m.rows))
    return None if x is None else x.col(0)


def solve_matrix(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some X with m·X = b (column by column), or None if inconsistent."""
    if b.rows != m.rows:
        raise DimensionMismatch("shape mismatch in solve_matrix")
    p, n = m.field.characteristic, m.cols + b.cols
    aug = (_sparse(enumerate(row + brow), p) for row, brow in zip(m.data, b.data))
    space = Subspace._span(m.field, n, _echelon(m.field, aug, n))
    if space.pivots and space.pivots[-1] >= m.cols:
        return None
    out = [[m.field.zero()] * b.cols for _ in range(m.cols)]
    for pc, row in zip(space.pivots, space.basis):
        out[pc] = row[m.cols:]
    return Matrix(m.field, out, cols=b.cols)


class Subspace:
    """A subspace of k^n held as a row-reduced basis, as an elimination gives it.

    The rows have unit pivots and vanish at every other row's pivot (the
    rref of the spanning vectors, or the pseudo-reduced basis of
    :func:`kernel_subspace`), so v reduces to v - sum_p v[p]·row_p and
    the coordinates of a member are its entries at the pivots.  It comes
    out of :func:`_echelon` only: a span (:meth:`from_vectors`,
    :meth:`_span`) keeps the pivot rows, a kernel (:func:`kernel_subspace`,
    :meth:`from_pivot_rows`) its pivot form.  Either holds integer rows
    (:meth:`int_rows`) and types them on first read, as the non-zero
    (index, value) pairs of each row keyed by its pivot
    (:meth:`sparse_rows`).  :meth:`residue`, the one reduction behind
    :meth:`reduce`, :meth:`contains` and :meth:`coords`, and
    :meth:`contains_ints` walk only non-zeros, so checking a vector with
    few non-zeros costs what its support and the rows at its pivots cost,
    not the ambient dimension.
    """

    __slots__ = ("field", "ambient", "_basis", "pivots", "_sparse", "_ints", "_pivot_rows")

    def __init__(self, field: Field, ambient: int, pivots: Sequence[int],
                 ints: Optional[dict] = None, pivot_rows: Optional[tuple] = None):
        self.field = field
        self.ambient = ambient
        self.pivots = tuple(pivots)
        self._basis: Optional[tuple] = None
        self._sparse: Optional[dict] = None
        self._ints = ints
        self._pivot_rows = pivot_rows

    @staticmethod
    def _span(field: Field, ambient: int, piv: dict[int, dict]) -> "Subspace":
        """The span whose elimination (:func:`_echelon`) gave the pivot rows ``piv``.

        Its integer rows are those pivot rows over their leads, in pivot order.
        """
        pivots = sorted(piv)
        ints = {c: (tuple(piv[c]), tuple(piv[c].values()), piv[c][c]) for c in pivots}
        return Subspace(field, ambient, pivots, ints=ints)

    @staticmethod
    def from_pivot_rows(field: Field, ambient: int, piv: dict[int, dict], free: list[int],
                        at: Sequence[int], scales: Optional[Sequence[int]]) -> "Subspace":
        """The kernel of a matrix from its elimination: pivot rows ``piv``, free columns ``free``.

        Column c of the matrix is coordinate ``at[c]`` of k^ambient and
        ``scales[c]`` times the column meant (:class:`IntRows`), so the
        pivots are the ``at[f]``; the rows are built on first read
        (:func:`_kernel_rows`).
        """
        return Subspace(field, ambient, [at[f] for f in free], pivot_rows=(piv, free, at, scales))

    @property
    def basis(self) -> tuple[tuple, ...]:
        if self._basis is None:
            zero = self.field.zero()
            rows = self.sparse_rows()
            basis = []
            for p in self.pivots:
                row = [zero] * self.ambient
                for j, x in zip(*rows[p]):
                    row[j] = x
                basis.append(tuple(row))
            self._basis = tuple(basis)
        return self._basis

    def int_rows(self) -> dict[int, tuple[tuple, tuple, int]]:
        """Pivot -> (indices, values, scale) of each row: ints whose row is values/scale.

        Over F_p the values are residues and the scale is 1.  A span's rows
        are its pivot rows over their leads.  A kernel's are written from
        its pivot rows (:meth:`pivot_form`) on first read, over Q over the
        least positive int that makes the row integral.  The indices are
        those of :meth:`sparse_rows`, in the same order.
        """
        if self._ints is None:
            self._ints = _kernel_rows(self.field, *self._pivot_rows)
        return self._ints

    def contains_ints(self, v: dict) -> bool:
        """True iff v, a dict {index: int} over any scale, lies in this subspace.

        It is checked on the integer rows (:meth:`int_rows`), with no typed
        row built.  A row that is a unit vector takes v's entry at its pivot
        away; with m the lcm of the scales of the other rows at v's pivots,
        m·v less v[q]·(m / scale)·values_q for each such pivot q must then
        be zero (mod p over F_p).
        """
        rows, p = self.int_rows(), self.field.characteristic
        hits, rest = [], {}
        for q, x in v.items():
            row = rows.get(q)
            if row is None:
                rest[q] = x
            elif len(row[0]) > 1:
                hits.append((x, row))
                rest[q] = x
        if hits:
            m = lcm(*[scale for _, (_, _, scale) in hits])
            rest = {j: m * x for j, x in rest.items()}
            for x, (idx, vals, scale) in hits:
                x *= m // scale
                for j, y in zip(idx, vals):
                    rest[j] = rest.get(j, 0) - x * y
        return not any(y % p for y in rest.values()) if p else not any(rest.values())

    def pivot_form(self) -> tuple:
        """(piv, free, at, scales): a kernel's pivot rows, as :func:`_kernel_rows` reads them.

        Basis row r is 1 at ``at[free[r]]`` and -x·σ_c/(lead·σ_f) at
        ``at[c]`` for each entry x at f = ``free[r]`` of the pivot row
        ``piv[c]``, whose lead is ``piv[c][c]``, with σ the column
        ``scales`` (all 1 when None).  Only a kernel
        (:func:`kernel_subspace`) has them; any other subspace raises
        BadParams.
        """
        if self._pivot_rows is None:
            raise BadParams(f"{self!r} is no kernel: only a kernel has a pivot form")
        return self._pivot_rows

    def support(self) -> list[int]:
        """The coordinates at which some basis row is non-zero, in no fixed order.

        They are read off the pivot rows (:meth:`pivot_form`): the pivots,
        and each pivot column whose row holds an entry at a free column.
        """
        piv, _, at, _ = self.pivot_form()
        return [*self.pivots, *(at[c] for c, row in piv.items() if len(row) > 1)]

    def sparse_rows(self) -> dict[int, tuple[tuple, tuple]]:
        """Pivot -> (indices, values) of the non-zero entries of that pivot's row.

        They are the integer rows (:meth:`int_rows`) typed once
        (:func:`typed_values`).
        """
        if self._sparse is None:
            p = self.field.characteristic
            self._sparse = {q: (idx, typed_values(vals, scale, p))
                            for q, (idx, vals, scale) in self.int_rows().items()}
        return self._sparse

    @staticmethod
    def from_vectors(field: Field, ambient: int,
                     vectors: Iterable[Sequence | dict] | IntRows) -> "Subspace":
        """The span of the vectors: eliminated at once, its typed rows built on first read.

        A vector is a sequence of length ``ambient`` or a dict {index:
        value} of its entries, with every index in [0, ambient); any other
        raises DimensionMismatch.  The vectors are read once, in order, so
        a generator of them is never held whole: only the non-zeros of each
        are kept.  An :class:`IntRows` with ``ambient`` columns is read as
        the elimination reads it (:func:`_integer_rows`), with one check of
        its width and none per row; one with column scales is refused
        (BadParams).  The dimension and the pivots cost the elimination
        alone (:meth:`_span`).
        """
        p = field.characteristic

        def checked(v: Sequence | dict) -> dict:
            _check_vector(v, ambient)
            return _sparse(v.items() if isinstance(v, dict) else enumerate(v), p)

        if type(vectors) is IntRows:
            if vectors.cols != ambient:
                raise DimensionMismatch("vectors have wrong ambient dimension")
            if vectors.scales:
                raise BadParams("a span reads IntRows without column scales")
            rows = _integer_rows(vectors)
        else:
            rows = map(checked, vectors)
        return Subspace._span(field, ambient, _echelon(field, rows, ambient))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def residue(self, v: Iterable[tuple]) -> dict:
        """v modulo this subspace, read at the free columns: {column: value}.

        ``v`` is given as (index, value) entries, read in order.  An entry
        at a free column adds its value there; a non-zero entry x at a pivot
        p takes x times row p away, and row p is 1 at p and 0 at the other
        pivots, so only its entries at free columns are read.  A free column
        that no entry reaches is absent.
        """
        rows, out = self.sparse_rows(), {}
        for i, x in v:
            row = rows.get(i)
            if row is None:
                out[i] = out[i] + x if i in out else x
            elif x:
                for j, y in zip(*row):
                    if j != i:
                        out[j] = out[j] - x * y if j in out else -(x * y)
        return out

    def reduce(self, v: Sequence) -> tuple:
        """Canonical representative of v modulo this subspace: v - sum_p v[p]·row_p.

        It is the :meth:`residue` laid out densely; an entry at a pivot
        cancels against its own row, leaving a zero of its own type.  A
        dict raises DimensionMismatch, as does a vector of the wrong length.
        """
        _check_dense(v, self.ambient)
        res = self.residue(enumerate(v))
        return tuple(res[j] if j in res else x - x for j, x in enumerate(v))

    def contains(self, v: Sequence | dict) -> bool:
        """True iff v lies in this subspace: its :meth:`residue` is zero.

        ``v`` is a vector or a dict {index: value} holding its non-zero
        entries; a dict is checked in time proportional to its support and
        the rows at its pivots.  A vector of the wrong length, or a dict
        index outside [0, ambient), raises DimensionMismatch.
        """
        _check_vector(v, self.ambient)
        return not any(self.residue(v.items() if isinstance(v, dict) else enumerate(v)).values())

    def coords(self, v: Sequence) -> tuple:
        """Coordinates of a member vector, a sequence, in this basis."""
        _check_dense(v, self.ambient)
        if not self.contains(v):
            raise DimensionMismatch("vector is not in the subspace")
        return tuple(v[p] for p in self.pivots)

    def free_columns(self) -> list[int]:
        """The coordinates that are no pivot, in increasing order."""
        pivset = set(self.pivots)
        return [c for c in range(self.ambient) if c not in pivset]

    def complement(self) -> list[tuple]:
        """The unit vectors at the free columns: they extend this basis to k^ambient."""
        zero, one = self.field.zero(), self.field.one()
        out = []
        for c in self.free_columns():
            v = [zero] * self.ambient
            v[c] = one
            out.append(tuple(v))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field, self.ambient, self.basis) == (other.field, other.ambient, other.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of k^{self.ambient})"


def random_matrix(field: Field, rows: int, cols: int, seed: int,
                  pool: Sequence = DEFAULT_POOL) -> Matrix:
    """Seeded random matrix with entries drawn uniformly from ``pool``.

    The generator is Python's Mersenne Twister (``random.Random``) seeded
    explicitly, so results are reproducible across runs and platforms.
    """
    rng = random.Random(seed)
    elems = [field.of(x) for x in pool]
    if not elems:
        raise BadParams("entry pool must be non-empty")
    return Matrix(field, [[rng.choice(elems) for _ in range(cols)] for _ in range(rows)])
