"""Finite-length left modules over a short local algebra.

A module of dimension d is given by the e action matrices of the radical
generators v_1..v_e; w_m acts as the combination of products of generator
actions that the algebra's sections give, so a tuple of matrices is a
valid module iff it satisfies the linear relations among the products
v_i v_j and kills all triple products.

:meth:`AModule.int_columns` is the one form in which the engine reads and
builds a module's actions: each generator's action as sparse columns of
ints over one scale.  Every module the engine builds is held by them
(:func:`module_from_columns`): A^t (:func:`free_module`), submodules and
closures, whose actions :func:`pivot_columns` reads off the images of a
subspace's integer rows, quotients and J^2 M (:func:`quotient`, by
integer residues), direct sums, the dual module, the Kronecker shadow and
a syzygy, which reads them off its Φ.  Scalars are made in one place,
:func:`~shortloc.linalg.typed_values`, only when a caller reads
:attr:`AModule.actions`, which types the ints straight into the matrices
and drops them.  A module built from matrices converts its values once.
The radical, the socle, the Loewy length, the integer action rows, the
cover kernel, the Hom relations and the module axioms read only the ints,
and vectors are mapped along the columns (:func:`vector_images`), so no
action matrix is multiplied.  w_m acts as sum s_ij v_i v_j, so w_m·x sums
the images v_i·(v_j·x) with the sections' ints: the module axioms
are read off them (:func:`validate_module`), and so are the integer images
of a module with J^2 M not zero (:meth:`AModule.int_images`), at which
every cover kernel (:attr:`AModule.cover_kernel`) and Hom relation is read.

Every Hom system on a presentation is built one way,
:func:`relation_equations`: a map A^t -> N is its images n_1..n_t,
column s·t + k is entry s of n_k (the row-major flattening of a dim N x t
matrix), and each relation ρ in A^t gives the dim N equations
ρ·(n_1..n_t) = 0.  A Hom system is sized by the top of its source, since
the top lifts m_1..m_t generate M.  A Hom out of a module that J^2 kills,
as a syzygy, and the Kronecker Hom are read off Kronecker relations
instead (:func:`_kronecker_equations`), the first into N' = ann_N(J^2)
(:func:`_kronecker_data`): such a map is its top g0: top M -> top N' and
a free part in Hom_k(top M, JN') (:func:`_top_equations`).
:func:`hom_space` reads M as a quotient of A^{dim M}, whose copy c maps
to e_c, by the relations b·m_k = sum_c (b m_k)[c] e_c for the radical
basis elements b, (dim A - 1)·t·dim N equations, and keeps only their
kernel, the maps' flat rows (:class:`HomSpace`).  :func:`hom_dim` is a
nullity with no kernel basis and no typed kernel row: of the g0 system
when J^2 M = 0, else of M's presentation, over its cover kernel's integer
rows.  The dual side reads :func:`hom_space`'s flat rows, and so does
:func:`find_isomorphism` of a pair that J^2 does not kill; a map is laid
out from a flat row by one helper (:func:`_flat_map`), which
:func:`hom_basis` shares.  The search ranks integer rows over one scale:
the g0 rows when J^2 kills both modules, as an A-map between modules of
one dimension is invertible iff its top is (Nakayama), else the flat rows
as dim N x dim M matrices.  Tops of different dimensions end it before any
Hom system is built.  It takes dim Hom(N, M) only when nothing is
invertible, and builds one witness matrix only when the witness is read.
Socle dimensions, and with them the bipartite test and the multiplicity
of S, are ranks.
"""

from __future__ import annotations

import random
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from ._record import cached_property, record
from .algebra import ShortAlgebra
from .errors import (AlgebraMismatch, BadParams, DimensionMismatch, InvariantViolation,
                     LoewyTooLong, ZeroModule)
from .linalg import (DEFAULT_POOL, Field, IntRows, Matrix, Subspace, integer_pairs,
                     integer_values, kernel_subspace, pivot_relations, rank, typed_values)


class DimVec(tuple):
    """Dimension vector (t, s) = (dim top M, dim JM) of a Loewy-length <= 2 module."""

    def __new__(cls, t: int, s: int):
        return super().__new__(cls, (t, s))

    @property
    def t(self) -> int:
        return self[0]

    @property
    def s(self) -> int:
        return self[1]

    def __repr__(self) -> str:
        return f"({self[0]},{self[1]})"


class AModule:
    """A finite-length left module over a :class:`ShortAlgebra`.

    A module is held in one form.  One built from matrices keeps them; one
    the engine builds (:func:`module_from_columns`, A^t, a syzygy) is held
    by its integer columns (:meth:`int_columns`) and builds its matrices
    from them only when :attr:`actions` is read, from then on held by them.
    The radical, the socle, the Loewy length, the integer action rows and
    the module axioms read only the ints.
    ``free_rank`` is t when the module is A^t in the coordinates of
    :func:`free_module`; no engine route reads it, but copies of a module
    carry it (``_fresh`` in ``bench/workload.py``).
    """

    free_rank: Optional[int] = None
    _radical: Optional[Subspace] = None
    _socle: Optional[Subspace] = None
    _socle_dim: Optional[int] = None
    _int_action_rows: Optional[tuple] = None
    _int_columns: Optional[tuple] = None
    _loewy: Optional[int] = None
    #: Hom(M, A)'s flat rows, M* and the torsionless verdict (:func:`~shortloc.homology.dual_data`).
    _dual_flat: Optional[Subspace] = None
    _dual_module: Optional["AModule"] = None
    _torsionless: Optional[bool] = None
    #: ann_M(J^2) as ints (:func:`_kronecker_data`), read by every Ext into M.
    _kronecker: Optional[tuple] = None
    #: Set when J^2 M = 0 is known, as for a syzygy: then no image decides it.
    _square_zero = False

    def __init__(self, algebra: ShortAlgebra, dim: int, actions: Sequence[Matrix],
                 check: bool = True):
        if len(actions) != algebra.e:
            raise BadParams(f"expected {algebra.e} action matrices, got {len(actions)}")
        for X in actions:
            if X.rows != dim or X.cols != dim:
                raise DimensionMismatch("action matrix has wrong shape")
        self.algebra = algebra
        self.dim = dim
        self.actions = tuple(actions)
        if check:
            validate_module(self)

    @cached_property
    def actions(self) -> tuple[Matrix, ...]:
        """The generator action matrices of a module held by its columns, built on first read.

        The integer columns are typed into them (:func:`_typed`) and dropped;
        later reads of them come off the matrices.
        """
        columns, scale = self.int_columns()
        self._int_columns = None
        return tuple(Matrix.from_sparse_columns(self.field, self.dim, [
            _typed(col, scale, self.field.characteristic) for col in cols]) for cols in columns)

    def __repr__(self) -> str:
        return f"AModule(dim {self.dim} over {self.algebra.name or self.algebra!r})"

    @property
    def field(self):
        return self.algebra.field

    def is_zero(self) -> bool:
        return self.dim == 0

    def int_action_rows(self) -> tuple:
        """Per basis element b of A, each row of b's action as its non-zeros (column, int).

        The ints are over one scale, the value on the identity rows (b = 0),
        the least that makes every value integral: 1 over F_p, whose ints
        are residues.  They are the images of all unit vectors
        (:meth:`int_images`) transposed, so no product is formed.  A^1 is
        shared per algebra (:func:`left_regular_module`), so its rows are
        built once.
        """
        if self._int_action_rows is None:
            d = self.dim
            images, scale = self.int_images(range(d))
            act: list = [[[] for _ in range(d)] for _ in range(self.algebra.dim)]
            for c, imgs in enumerate(images):
                act[0][c].append((c, scale))
                for b, image in enumerate(imgs, 1):
                    for r, y in image:
                        act[b][r].append((c, y))
            self._int_action_rows = tuple(tuple(map(tuple, b)) for b in act)
        return self._int_action_rows

    def int_images(self, at: Sequence[int]) -> tuple[list[list[list]], int]:
        """(images, d): v_1·e_c .. v_e·e_c, w_1·e_c .. w_a·e_c for c in ``at``, ints over d.

        Each image is its (row, int) pairs, and d is the least scale over
        which all these images are integral (1 over F_p).  The v-images are
        the columns of :meth:`int_columns`.  Only when J^2 M is not zero are
        the w-images formed: the sections' ints (over σ) times the
        v_i·(v_j·x) read along the columns (over s^2, s the columns' scale),
        into whose scale the v-images are folded; otherwise they are empty.
        """
        columns, scale = self.int_columns()
        images = [[cols[c] for cols in columns] for c in at]
        if self._square_zero or self.loewy_length() < 3:
            images = [vs + [[]] * self.algebra.a for vs in images]
        else:
            alg, p = self.algebra, self.field.characteristic
            sections, sigma = alg.int_sections()
            images = [[[(r, y * scale * sigma) for r, y in v] for v in vs] +
                      [list(w.items()) for w in _squares(alg.e, sections, vector_images(
                          columns, [(d.keys(), d.values()) for d in map(dict, vs)]), p)]
                      for vs in images]
            scale *= scale * sigma
        g = gcd(scale, *(y for imgs in images for img in imgs for _, y in img)) if scale > 1 else 1
        if g > 1:
            images = [[[(r, y // g) for r, y in img] for img in imgs] for imgs in images]
        return images, scale // g

    def int_columns(self) -> tuple[list, int]:
        """(columns, d): the action columns with every value an int over the one scale d.

        An engine-built module is held by them; one built from matrices
        converts its matrices' non-zeros together, once
        (:func:`~shortloc.linalg.integer_pairs`): residues over d = 1 on
        F_p; on Q the values themselves over 1 when each is an ``int``,
        else ints over the lcm of the denominators.  A syzygy reads them
        off its Φ images instead (:meth:`~shortloc.homology.Syzygy.int_columns`).
        """
        if self._int_columns is None:
            self._int_columns = integer_pairs([X.sparse_columns() for X in self.actions],
                                              self.field.characteristic)
        return self._int_columns

    # -- structural subspaces -------------------------------------------

    def radical(self) -> Subspace:
        """JM, the span of the columns of the generator actions, read off :meth:`int_columns`.

        The columns go to the elimination as the rows of one
        :class:`~shortloc.linalg.IntRows`, each over the least scale of its
        own (the scale d over the gcd of d and its ints), as a typed row
        converts, so no typed value is read, on A^t nor on a syzygy.
        """
        if self._radical is None:
            columns, scale = self.int_columns()
            rows = [dict(col) for cols in columns for col in cols]
            if scale != 1:
                rows = [{r: y // g for r, y in row.items()} if (g := gcd(scale, *row.values())) > 1
                        else row for row in rows]
            self._radical = Subspace.from_vectors(self.field, self.dim,
                                                  IntRows(self.field, rows, self.dim))
        return self._radical

    def socle(self) -> Subspace:
        """{m in M : Jm = 0}, the largest semisimple submodule.

        It is the kernel of the stacked actions, whose rows are read off
        :meth:`int_columns`, then reduced as integer rows.
        """
        if self._socle is None:
            kernel = kernel_subspace(self._stacked_actions()).int_rows().values()
            rows = IntRows(self.field, [dict(zip(idx, vals)) for idx, vals, _ in kernel], self.dim)
            self._socle = Subspace.from_vectors(self.field, self.dim, rows)
        return self._socle

    def socle_dim(self) -> int:
        """dim soc M: dim M less the rank of the stacked actions, with no kernel built.

        It is kept, as the radical and the Loewy length are, so the rank is
        taken once per module however many predicates read it.
        """
        if self._socle_dim is None:
            self._socle_dim = self.dim - rank(self._stacked_actions())
        return self._socle_dim

    def _stacked_actions(self) -> IntRows:
        """The generator actions stacked, as integer rows read off :meth:`int_columns`."""
        d = self.dim
        rows: list[dict] = [{} for _ in range(self.algebra.e * d)]
        for j, cols in enumerate(self.int_columns()[0]):
            for c, col in enumerate(cols):
                for r, x in col:
                    rows[j * d + r][c] = x
        return IntRows(self.field, rows, d)

    def top_dim(self) -> int:
        return self.dim - self.radical().dim

    def loewy_length(self) -> int:
        """Least n with J^n M = 0 (0 for the zero module, at most 3).

        J^2 M = 0 iff the generators kill the basis rows of JM: the
        radical's integer rows (:meth:`~shortloc.linalg.Subspace.int_rows`)
        are mapped along :meth:`int_columns` (:func:`vector_images`), so no
        typed row is built.
        """
        if self._loewy is None:
            if self.dim == 0:
                self._loewy = 0
            elif self.top_dim() == self.dim:
                self._loewy = 1
            elif self._square_zero:
                self._loewy = 2
            else:
                p, rows = self.field.characteristic, self.radical().int_rows().values()
                images = vector_images(self.int_columns()[0],
                                       [(idx, vals) for idx, vals, _ in rows])
                hit = (y % p if p else y for row in images for img in row for y in img.values())
                self._loewy = 3 if any(hit) else 2
        return self._loewy

    def lift_columns(self) -> list[int]:
        """The indices c_k of the top lifts m_k, unit vectors: the free columns of JM."""
        return self.radical().free_columns()

    @cached_property
    def cover_kernel(self) -> Subspace:
        """The kernel of the cover A^t -> M in A^t, found once.

        Φ's columns are the integer images at the top lifts
        (:meth:`int_images` at :meth:`lift_columns`), eliminated by
        :func:`~shortloc.homology.top_kernel`; the cover, the syzygy and
        :func:`hom_dim` from M read the one kernel.
        """
        from . import homology
        return homology.top_kernel(self.algebra, self.int_images(self.lift_columns())[0])


def validate_module(M: AModule) -> None:
    """Check the module axioms along the integer columns; raises BadParams when they fail.

    At each basis vector x, v_j·x is column x of v_j's action (ints over
    s), v_i·(v_j·x) its image (:func:`vector_images`, one pass per x) and
    w_m·x = sum s_ij v_i·(v_j·x) is formed from those images as
    :meth:`AModule.int_images` forms it, so no action matrix is multiplied,
    no image is mapped twice and no scalar is made.  Every v_i·(v_j·x),
    scaled once by T·σ (the scales of the structure constants and the
    sections), less the T·c_ijm·w_m·x, must be zero (mod p on F_p); only
    then is every v_k·(w_m·x) checked to be zero.

    That is the whole check.  With C the e^2 x a structure matrix (rank a)
    and S the sections (C^T S = I), P(x) = (v_i v_j x) meets every relation
    λ in ker C^T iff P(x) lies in col C, iff P(x) = C S^T P(x), and
    S^T P(x) = (w_m x).  Then X_a X_b X_c = sum_m c_bcm X_a W_m, and each
    X_a W_m is a sum of triple products, so these vanish iff every X_a W_m
    does.  Without sections (products not spanning J^2),
    :meth:`ShortAlgebra.sections` raises SurjectivityViolation.
    """
    if not M.dim:
        return
    alg, p, columns, squares = M.algebra, M.field.characteristic, M.int_columns()[0], []
    (sections, sigma), (table, T) = alg.int_sections(), alg.structure_table()
    for x in range(M.dim):
        # twice[j-1][i-1] is v_i·(v_j·x), mapped once for the squares and the relations.
        vs = [dict(cols[x]) for cols in columns]
        twice = vector_images(columns, [(v.keys(), v.values()) for v in vs])
        ws = _squares(alg.e, sections, twice, p)
        squares.append(ws)
        twice = [[{q: y * T * sigma for q, y in pair.items()} for pair in row] for row in twice]
        # table[i] lists (j - 1, e + m, T·c_jim): v_j·(v_i·x) takes T·c_jim·w_m·x away.
        for i, entries in enumerate(table[1:alg.e + 1]):
            for j, m, c in entries:
                pair = twice[i][j]
                for q, y in ws[m - alg.e - 1].items():
                    pair[q] = pair[q] - c * y if q in pair else -c * y
        if any(y % p if p else y for row in twice for pair in row for y in pair.values()):
            raise BadParams("action matrices violate a product relation")
    cubes = vector_images(columns, [(w.keys(), w.values()) for ws in squares for w in ws])
    if any(y % p if p else y for row in cubes for image in row for y in image.values()):
        raise BadParams("triple product of generator actions is non-zero")


@record
class ModuleMap:
    """An A-linear map, stored as a (target dim) x (source dim) matrix."""

    source: AModule
    target: AModule
    matrix: Matrix

    def __post_init__(self):
        if self.source.algebra != self.target.algebra:
            raise AlgebraMismatch("map between modules over different algebras")
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise DimensionMismatch("module map matrix has wrong shape")

    def is_intertwiner(self) -> bool:
        for Xs, Xt in zip(self.source.actions, self.target.actions):
            if Xt * self.matrix != self.matrix * Xs:
                return False
        return True

    def apply(self, vec: Sequence) -> tuple:
        return self.matrix.apply(vec)

    def image(self) -> Subspace:
        return Subspace.from_vectors(self.target.field, self.target.dim,
                                     self.matrix.transpose().data)

    def rank(self) -> int:
        return rank(self.matrix)

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()


class _LazyMap(ModuleMap):
    """A module map whose matrix is built, and its shape checked, on first read."""

    def __init__(self, source: AModule, target: AModule, build: Callable[[], Matrix]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_build", build)

    @cached_property
    def matrix(self) -> Matrix:
        mat = self._build()
        if mat.rows != self.target.dim or mat.cols != self.source.dim:
            raise DimensionMismatch("module map matrix has wrong shape")
        return mat


# -- constructors ------------------------------------------------------


def simple_module(alg: ShortAlgebra) -> AModule:
    """The unique simple module S = A/J."""
    z = Matrix.zeros(alg.field, 1, 1)
    return AModule(alg, 1, [z] * alg.e, check=False)


def semisimple_module(alg: ShortAlgebra, n: int) -> AModule:
    z = Matrix.zeros(alg.field, n, n)
    return AModule(alg, n, [z] * alg.e, check=False)


def zero_module(alg: ShortAlgebra) -> AModule:
    z = Matrix.zeros(alg.field, 0, 0)
    return AModule(alg, 0, [z] * alg.e, check=False)


def left_regular_module(alg: ShortAlgebra) -> AModule:
    """A as a left module over itself, in the basis (1, v_1.., w_1..): A^1.

    It is built once per algebra object and shared, so every system solved
    into A reads one set of its radical, socle and integer rows.
    """
    if alg._regular_module is None:
        alg._regular_module = free_module(alg, 1)
    return alg._regular_module


def free_module(alg: ShortAlgebra, t: int) -> AModule:
    """A^t held by its columns: copy k's are the regular columns shifted by k·dim A.

    Coordinate k·dim A + u is the basis element b_u of copy k.  The regular
    columns are read once per algebra (:meth:`ShortAlgebra.regular_columns`),
    and no step of a resolution reads the matrices.  The Loewy length is
    read off the structure constants (J^2 = 0 iff there are none), so no
    radical row is typed to find it.  The zero module for t = 0.
    """
    if t < 0:
        raise BadParams("free rank must be natural")
    if t == 0:
        return zero_module(alg)
    n, (columns, scale) = alg.dim, alg.regular_columns()
    F = module_from_columns(alg, n * t, [[[(k * n + i, x) for i, x in col]
                                          for k in range(t) for col in cols]
                                         for cols in columns], scale)
    F.free_rank, F._loewy = t, 3 if alg.structure else 2 if alg.e else 1
    return F


def vector_images(columns: list, rows: Iterable[tuple]) -> list[list[dict]]:
    """v_1·x .. v_e·x as {index: value} for each x, given as (indices, values).

    ``columns`` are a module's action columns, as ints
    (:meth:`AModule.int_columns`) or typed, so an image costs what x's
    support and the columns there cost; no product is formed.
    """
    out = []
    for idx, vals in rows:
        images: list[dict] = [{} for _ in columns]
        for j, x in zip(idx, vals):
            for image, cols in zip(images, columns):
                for i, a in cols[j]:
                    image[i] = image[i] + x * a if i in image else x * a
        out.append(images)
    return out


def _squares(e: int, sections: Sequence[Sequence[int]], twice: Sequence[Sequence[dict]],
             p: int) -> list[dict]:
    """w_1·x .. w_a·x from twice[j-1][i-1] = v_i·(v_j·x): sum s_ij v_i·(v_j·x), in ints.

    The s_ij are the sections' ints (:meth:`ShortAlgebra.int_sections`); the non-zeros mod p.
    """
    ws = []
    for section in sections:
        w: dict = {}
        for ij, s in enumerate(section):
            if s:
                for q, y in twice[ij % e][ij // e].items():
                    w[q] = w[q] + s * y if q in w else s * y
        ws.append({q: y for q, x in w.items() if (y := x % p if p else x)})
    return ws


def _typed(col: Sequence[tuple], scale: int, p: int) -> list[tuple]:
    """A column's (row, int) pairs over ``scale`` as (row, scalar) pairs (:func:`typed_values`)."""
    return list(zip([r for r, _ in col], typed_values([y for _, y in col], scale, p)))


def _row_images(columns: list, scale: int, space: Subspace) -> list[tuple[list[dict], int]]:
    """(images, scale·s) of each integer row of ``space`` (over s) along integer ``columns``."""
    rows = space.int_rows()
    rows = [rows[q] for q in space.pivots]
    images = vector_images(columns, [(idx, vals) for idx, vals, _ in rows])
    return [(imgs, scale * s) for imgs, (_, _, s) in zip(images, rows)]


def pivot_columns(space: Subspace, images: Sequence[tuple[Sequence[dict], int]], e: int,
                  p: int) -> tuple[list[list[list]], int]:
    """(columns, scale): the integer actions induced on a subspace, from its rows' integer images.

    ``images[r]`` is (v_1·x .. v_e·x, s) for the basis row x at
    ``space.pivots[r]``, dicts {index: int} over s.  Each image must lie in
    the subspace (:meth:`~shortloc.linalg.Subspace.contains_ints`;
    BadParams otherwise); the basis is row reduced, so its coordinates are
    its entries at the pivots, in increasing row order, over the lcm of the
    s on Q and as residues over 1 on F_p.
    """
    at = {q: r for r, q in enumerate(space.pivots)}
    scale = 1 if p else lcm(*[s for _, s in images])
    columns: list[list] = [[] for _ in range(e)]
    for row_images, s in images:
        m = scale // s
        for cols, image in zip(columns, row_images):
            if not space.contains_ints(image):
                raise BadParams("subspace is not stable under the module action")
            cols.append(sorted((at[q], y) for q, x in image.items()
                               if q in at and (y := x % p if p else x * m)))
    return columns, scale


def module_from_columns(alg: ShortAlgebra, dim: int, columns: Sequence[Sequence],
                        scale: int) -> AModule:
    """The module whose generator v_{j+1} acts by the integer columns ``columns[j]`` over ``scale``.

    Each column is its non-zero (row, int) pairs, x standing for
    x/``scale`` (a residue on F_p, over 1).  The module is held by them;
    its matrices are made only when read.
    """
    M = AModule.__new__(AModule)
    M.algebra, M.dim, M._int_columns = alg, dim, (list(columns), scale)
    return M


def module_from_subspace(M: AModule, space: Subspace) -> tuple[AModule, ModuleMap]:
    """An action-stable subspace as a module, with its embedding into M.

    The basis's integer rows are mapped along M's integer columns, and
    the induced actions read off the images at the pivots
    (:func:`pivot_columns`).  The embedding's matrix is built on first read.
    """
    p = M.field.characteristic
    columns, scale = pivot_columns(space, _row_images(*M.int_columns(), space), M.algebra.e, p)
    sub = module_from_columns(M.algebra, space.dim, columns, scale)
    return sub, _LazyMap(sub, M, lambda: Matrix.from_columns(M.field, space.basis, M.dim))


def _scalars(field: Field, vectors: Iterable[Sequence | dict]) -> list:
    """The vectors, each entry coerced by :meth:`~shortloc.linalg.Field.of`; a dict stays a dict.

    So ints, strings and rationals are read over F_p too, and a float
    raises BadParams.
    """
    return [{j: field.of(x) for j, x in v.items()} if isinstance(v, dict)
            else tuple(map(field.of, v)) for v in vectors]


def submodule(M: AModule, vectors: Sequence[Sequence]) -> tuple[AModule, ModuleMap]:
    """The submodule spanned by the given vectors (must be action-stable)."""
    return module_from_subspace(M, Subspace.from_vectors(M.field, M.dim,
                                                         _scalars(M.field, vectors)))


def generated_submodule(M: AModule, vectors: Sequence[Sequence]) -> tuple[AModule, ModuleMap]:
    """The submodule the vectors generate: their span closed under A (:func:`generated_span`)."""
    vecs = _scalars(M.field, vectors)
    if any(len(v) != M.dim for v in vecs):
        raise DimensionMismatch("vector has wrong ambient dimension")
    ints = [(range(M.dim), integer_values(list(v), M.field.characteristic)[0]) for v in vecs]
    return module_from_subspace(M, generated_span(M.field, M.dim, M.int_columns()[0], ints))


def generated_span(field: Field, ambient: int, columns: list, vectors: Sequence) -> Subspace:
    """The span of the x, the v_i·x and the v_i·(v_j·x) along integer ``columns``.

    Each x is given as (indices, ints).  The span is closed under A: the
    v_i v_j span J^2, and J^3 = 0 ends it.
    """
    once = [v for row in vector_images(columns, vectors) for v in row if v]
    twice = [v for row in vector_images(columns, [(v.keys(), v.values()) for v in once])
             for v in row if v]
    rows = IntRows(field, [dict(zip(*x)) for x in vectors] + once + twice, ambient)
    return Subspace.from_vectors(field, ambient, rows)


def quotient(M: AModule, sub: Subspace | Sequence[Sequence]) -> tuple[AModule, ModuleMap]:
    """The quotient of M by an action-stable subspace, with its projection.

    Quotient coordinates are the non-pivot coordinates of the canonical
    representative (reduction modulo the subspace), and stability is
    checked by :func:`pivot_columns`.  The free unit vectors e_f lift the
    quotient basis, so column f of an action is the integer column X e_f
    reduced at the free columns, in ints over L, the lcm of the scales of
    sub's integer rows (:meth:`~shortloc.linalg.Subspace.int_residue`), in
    increasing row order.  The projection's typed matrix is built on first
    read.
    """
    if not isinstance(sub, Subspace):
        sub = Subspace.from_vectors(M.field, M.dim, _scalars(M.field, sub))
    columns, scale = M.int_columns()
    p = M.field.characteristic
    # Raises BadParams unless sub is stable.
    pivot_columns(sub, _row_images(columns, scale, sub), M.algebra.e, p)
    free = sub.free_columns()
    at = {f: b for b, f in enumerate(free)}
    L = lcm(*[s for _, _, s in sub.int_rows().values()])

    def projection() -> Matrix:
        # Column c is e_c's residue at the free columns.
        one = M.field.one()
        return Matrix.from_sparse_columns(M.field, len(free), [
            [(at[j], x) for j, x in sub.residue([(c, one)]).items() if x] for c in range(M.dim)])
    acts = [[[(at[j], y) for j, x in sorted(sub.int_residue(cols[f], L).items())
              if (y := x % p if p else x)] for f in free] for cols in columns]
    Q = module_from_columns(M.algebra, len(free), acts, scale * L)
    return Q, _LazyMap(M, Q, projection)


def direct_sum(M: AModule, N: AModule) -> AModule:
    """M ⊕ N, held by the integer columns of both over the lcm of their scales."""
    if M.algebra != N.algebra:
        raise AlgebraMismatch("direct sum over different algebras")
    d, (cm, sm), (cn, sn) = M.dim, M.int_columns(), N.int_columns()
    scale = lcm(sm, sn)
    fm, fn = scale // sm, scale // sn
    return module_from_columns(M.algebra, d + N.dim, [
        [[(i, x * fm) for i, x in col] for col in colsm] +
        [[(d + i, x * fn) for i, x in col] for col in colsn]
        for colsm, colsn in zip(cm, cn)], scale)


def radical_module(alg: ShortAlgebra) -> AModule:
    """J as a left module (the radical of the regular module)."""
    reg = left_regular_module(alg)
    sub, _ = module_from_subspace(reg, reg.radical())
    return sub


def cyclic_submodule(alg: ShortAlgebra, coords: Sequence) -> AModule:
    """A*x inside the regular module, for a radical element x.

    ``coords`` has length 1 + e + a in the fixed basis and must have zero
    unit coordinate; then A*x = k x + J x since J^3 = 0.
    """
    x = tuple(alg.field.of(c) for c in coords)
    if len(x) != alg.dim:
        raise BadParams(f"element coordinates must have length {alg.dim}")
    if x[0]:
        raise BadParams("cyclic submodule expects a radical element (zero unit coordinate)")
    reg = left_regular_module(alg)
    sub, _ = generated_submodule(reg, [x])
    return sub


def m_alpha(alg: ShortAlgebra, alpha) -> AModule:
    """The module M(alpha) over a lambda_c preset algebra.

    Basis (g, g', g'', g_1..g_c) with x g = alpha g', y g = g', z g = g''
    and u_i g = g_i; the radical generators kill everything else.
    """
    if alg.tags.get("preset") != "lambda_c":
        raise BadParams("m_alpha is defined for lambda_c preset algebras")
    c = int(alg.tags["c"])
    al = alg.field.of(alpha)
    d = 3 + c
    zero = alg.field.zero()
    one = alg.field.one()

    def action(images: dict[int, object]) -> Matrix:
        cols = [[zero] * d for _ in range(d)]
        for row, val in images.items():
            cols[0][row] = val
        return Matrix.from_columns(alg.field, cols, d)

    acts = [action({1: al}), action({1: one}), action({2: one})]
    for i in range(1, c + 1):
        acts.append(action({2 + i: one}))
    return AModule(alg, d, acts)


def random_module(alg: ShortAlgebra, n_gens: int, n_rels: int, seed: int) -> AModule:
    """Quotient of A^{n_gens} by n_rels random radical elements.

    Deterministic for a fixed seed (Mersenne Twister); the result is a
    valid module by construction.
    """
    if n_gens < 1:
        raise BadParams("need at least one generator")
    if n_rels < 0:
        raise BadParams(f"relation count must be at least 0, got {n_rels}")
    rng, n = random.Random(seed), alg.dim
    F = free_module(alg, n_gens)
    rels = [{k * n + u: x for k in range(n_gens) for u in range(1, n)
             if (x := rng.choice(DEFAULT_POOL))} for _ in range(n_rels)]
    Q, _ = quotient(F, generated_span(alg.field, F.dim, F.int_columns()[0],
                                      [(r.keys(), r.values()) for r in rels]))
    return Q


def mod_j_squared(M: AModule) -> AModule:
    """M / J^2 M, the largest Loewy-length <= 2 quotient: J^2 M spans the radical's images."""
    rows = [(idx, vals) for idx, vals, _ in M.radical().int_rows().values()]
    images = [img for row in vector_images(M.int_columns()[0], rows) for img in row]
    Q, _ = quotient(M, Subspace.from_vectors(M.field, M.dim, IntRows(M.field, images, M.dim)))
    return Q


# -- structure of Loewy length <= 2 modules ----------------------------


def dim_vector(M: AModule) -> DimVec:
    """(t, s) = (dim top M, dim JM); only for Loewy length <= 2."""
    if M.loewy_length() > 2:
        raise LoewyTooLong("dimension vector requires Loewy length <= 2")
    t = M.top_dim()
    return DimVec(t, M.dim - t)


def is_bipartite(M: AModule) -> bool:
    """True iff M is non-zero with soc M = JM.

    JM lies in soc M iff J^2 M = 0, so M is bipartite iff its Loewy length
    is at most 2 and the two have one dimension, read by rank
    (:meth:`AModule.socle_dim`, :meth:`AModule.top_dim`).
    """
    return 0 < M.dim and M.loewy_length() <= 2 and M.socle_dim() == M.dim - M.top_dim()


def simple_multiplicity(M: AModule) -> int:
    """Multiplicity of S as a direct summand, for Loewy length <= 2.

    Such a module is the direct sum of a bipartite module and S^w with
    w = dim soc M - dim JM, each read by rank.
    """
    if M.loewy_length() > 2:
        raise LoewyTooLong("simple multiplicity requires Loewy length <= 2")
    w = M.socle_dim() - (M.dim - M.top_dim())
    if w < 0:
        raise InvariantViolation("socle smaller than radical at Loewy length <= 2")
    return w


# -- hom spaces --------------------------------------------------------


@record
class HomSpace:
    """Hom_A(M, N) as its flat rows: the kernel of :func:`hom_space`'s system.

    ``flat`` spans the row-major flattenings of the basis maps; its
    pseudo-reduced form makes expressing a given homomorphism in the basis
    a coordinate lookup.  The maps themselves are built by :func:`hom_basis`.
    """

    source: AModule
    target: AModule
    flat: Subspace

    @property
    def dim(self) -> int:
        return self.flat.dim


def hom_space(M: AModule, N: AModule) -> HomSpace:
    """Hom_A(M, N) as the flat rows of its reduced basis, solved at the top lifts of M.

    A linear F: M -> N is the map A^{dim M} -> N that sends unit_c to
    F(e_c), so column s·dim M + c of :func:`relation_equations` is F[s,c]
    and the unknowns are F's row-major flattening.  The top lifts m_k, unit
    vectors at the indices c_k (:meth:`AModule.lift_columns`), generate M,
    and the b·m_k span JM, so F is A-linear iff it kills the relation

        b·unit_{c_k} - sum_c (b m_k)[c]·unit_c

    for every radical basis element b and every k, read off the image
    b m_k as ints (:meth:`AModule.int_images`), each relation over the
    least scale of its own.  A relation with image zero
    whose b kills N is skipped, and no empty row is handed over, so at
    most (dim A - 1)·t·dim N rows, as :class:`~shortloc.linalg.IntRows`,
    meet the dim M·dim N unknowns.  Their kernel is Hom(M, N), its reduced
    basis the one the whole intertwining system gives, and no map is built.
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    dm, dn, n = M.dim, N.dim, M.algebra.dim
    kills = [not any(rows) for rows in N.int_action_rows()]
    lifts, relations = M.lift_columns(), []
    images, scale = M.int_images(lifts)
    for c_k, imgs in zip(lifts, images):
        for b, image in enumerate(imgs, 1):
            if not image and kills[b]:
                continue
            g = gcd(scale, *(y for _, y in image))
            relations.append(((c_k * n + b, *(c * n for c, _ in image)),
                              (scale // g, *(-y // g for _, y in image))))
    equations = relation_equations(N, relations, dm)
    rows = IntRows(N.field, list(filter(None, equations.data)), dn * dm)
    return HomSpace(M, N, kernel_subspace(rows))


def hom_basis(M: AModule, N: AModule) -> list[ModuleMap]:
    """A basis of Hom_A(M, N): a map per row of :func:`hom_space`'s ``flat``, built on first read."""
    flat = hom_space(M, N).flat
    return [_flat_map(M, N, lambda q=q: flat.sparse_rows()[q]) for q in flat.pivots]


def _flat_map(M: AModule, N: AModule, row: Callable[[], tuple]) -> ModuleMap:
    """The map whose row-major flattening is ``row()``, typed (indices, values), built when read."""
    dm, dn = M.dim, N.dim

    def build() -> Matrix:
        entries = [M.field.zero()] * (dn * dm)
        for j, x in zip(*row()):
            entries[j] = x
        return Matrix(M.field, [entries[k * dm:(k + 1) * dm] for k in range(dn)], cols=dm)
    return _LazyMap(M, N, build)


def relation_equations(N: AModule, relations: Iterable[tuple], t: int) -> IntRows:
    """The equations ρ·(n_1..n_t) = 0 on N^t = Hom(A^t, N), dim N per relation ρ.

    Column s·t + k is entry s of n_k, the image of copy k: the row-major
    flattening of the map A^t -> N as a dim N x t matrix.  Each relation ρ
    in A^t is given as its non-zero ints (indices, values), over any scale
    per relation.  Row l·dim N + r is row r of the l-th relation's action:
    each entry x of ρ at k·dim A + b adds x times row r of b's action on
    N, read as ints over one scale (:meth:`AModule.int_action_rows`), at
    copy k.  The equations come as :class:`~shortloc.linalg.IntRows`: each
    is a multiple of the one meant, so they have its rank, and relations
    over one scale give one multiple of the whole matrix.
    """
    n, d = N.algebra.dim, N.dim
    act = N.int_action_rows()
    out = []
    for idx, vals in relations:
        rows: list[dict] = [{} for _ in range(d)]
        for q, x in zip(idx, vals):
            k, b = divmod(q, n)
            for row, b_row in zip(rows, act[b]):
                for c, y in b_row:
                    col = c * t + k
                    row[col] = row[col] + x * y if col in row else x * y
        out += rows
    return IntRows(N.field, out, t * d)


def _kronecker_equations(field: Field, form: tuple, stride: int, t: int,
                         target: tuple) -> IntRows:
    """The equations on g0: top A -> top B of the relations ker Φ, read off its pivot form.

    Column k·``stride`` + j of Φ is φ_{j+1}(a_k), for the t tops a_k of A;
    with j >= e (= number of arrows) it is a cover's empty J^2-column and
    is left out.  The relation λ of each other free column is read off the
    pivot form (:func:`~shortloc.linalg.pivot_relations`), with no kernel
    row built.  ``target`` is B's (b0, b1, arrows, scale)
    (:func:`_kronecker_data`).  g0 must meet Σ λ_{k,j}·φ_j(g0(a_k)) = 0 for
    every relation λ: b1 rows per λ, column s·t + k entry s of g0(a_k).
    """
    b0, _, arrows, _ = target
    relations = pivot_relations(form, lambda f: f % stride < len(arrows))
    rows: dict = {}
    for f, relation in relations.items():
        for q, x in relation.items():
            k, j = divmod(q, stride)
            for s, image in enumerate(arrows[j]):
                for r, y in image:
                    row, c = rows.setdefault((f, r), {}), s * t + k
                    row[c] = row[c] + x * y if c in row else x * y
    return IntRows(field, list(rows.values()), t * b0)


def _kronecker_data(N: AModule) -> tuple[int, int, list, int]:
    """N' = ann_N(J^2) as a Kronecker representation (b0, b1, arrows, scale) in ints, kept on N.

    N' is N when J^2 N = 0.  Else N' = JN + K, K the combinations
    Σ c_k·m_k of N's top lifts with Σ c_k·w·m_k = 0 for every w in J^2:
    x = Σ c_k·m_k + y with y in JN, and w·y lies in J^3 N = 0.  So N' is
    spanned by the radical's integer rows and K's, the kernel of the
    lifts' w-images (:meth:`AModule.int_images` at the lifts alone), and
    no image of another basis vector is formed.  b0 and b1 are dim top N'
    and dim JN'; arrows[j][k] is v_{j+1}·m_k for the k-th top lift of N',
    as (r, int) pairs over ``scale`` at its entries r at the radical's
    pivots, which are its coordinates in JN'.  The top lifts are the
    radical's free columns, so a syzygy's cover is not found.
    """
    if N._kronecker is None:
        sub, e = N, N.algebra.e
        if not N._square_zero and N.loewy_length() > 2:
            tops, w = N.lift_columns(), {}
            for k, imgs in enumerate(N.int_images(tops)[0]):
                for m, img in enumerate(imgs[e:]):
                    for r, y in img:
                        w.setdefault((m, r), {})[k] = y
            K = kernel_subspace(IntRows(N.field, list(w.values()), len(tops))).int_rows()
            rows = [dict(zip(idx, vals)) for idx, vals, _ in N.radical().int_rows().values()]
            rows += [{tops[k]: y for k, y in zip(idx, vals)} for idx, vals, _ in K.values()]
            span = Subspace.from_vectors(N.field, N.dim, IntRows(N.field, rows, N.dim))
            sub = module_from_subspace(N, span)[0]
        rad, (columns, scale) = sub.radical(), sub.int_columns()
        lifts, at = rad.free_columns(), {q: r for r, q in enumerate(rad.pivots)}
        N._kronecker = (len(lifts), rad.dim, [[[(at[q], x) for q, x in cols[c] if q in at]
                                              for c in lifts] for cols in columns], scale)
    return N._kronecker


def _top_equations(M: AModule, N: AModule) -> tuple[IntRows, int]:
    """(equations, t·b1): the g0 system of Hom(M, N) for J^2 M = 0, and its free part's size.

    A map lands in N' = ann_N(J^2), where v_j kills JN', so it is a free part in
    Hom_k(top M, JN'), b1 = dim JN', and its top g0: top M -> top N', which meets M's
    Kronecker relations, the V-rows of its cover kernel (column s·t + k entry s of g0(m_k)).
    """
    kron, t = _kronecker_data(N), M.top_dim()
    equations = _kronecker_equations(N.field, M.cover_kernel.pivot_form(), M.algebra.dim - 1,
                                     t, kron)
    return equations, t * kron[1]


def hom_dim(M: AModule, N: AModule) -> int:
    """dim Hom_A(M, N), a nullity, with no kernel basis, typed row or map formed.

    When J^2 M = 0 it is t·dim JN' plus the nullity of :func:`_top_equations`,
    else the nullity of :func:`presentation_equations`.
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    equations, free = (_top_equations(M, N) if M.loewy_length() < 3
                       else (presentation_equations(M, N), 0))
    return free + equations.cols - rank(equations)


def presentation_equations(M: AModule, N: AModule) -> IntRows:
    """Hom(M, N) as equations in t·dim N unknowns, over M's presentation.

    A map M -> N is a map A^t -> N, its images n_1..n_t at the top lifts,
    that kills the cover kernel (:attr:`AModule.cover_kernel`), so these
    are :func:`relation_equations` of that kernel's integer rows
    (:meth:`~shortloc.linalg.Subspace.int_rows`): column s·t + k is entry
    s of n_k, and their kernel is Hom(M, N).  Only their rank is read: by
    :func:`hom_dim` of an M with J^2 M not zero, and by
    :func:`~shortloc.kronecker.hom_decomposition_check`.
    """
    kernel = ((idx, vals) for idx, vals, _ in M.cover_kernel.int_rows().values())
    return relation_equations(N, kernel, M.top_dim())


def end_dim(M: AModule) -> int:
    return hom_dim(M, M)


def is_solid(M: AModule) -> bool:
    """Solidity test: dim End M = 1 + |top M| * |rad M|.

    A solid module is one whose endomorphisms all act as scalars on the
    socle; solid modules are indecomposable.
    """
    if M.dim == 0:
        raise ZeroModule("solidity is undefined for the zero module")
    if M.loewy_length() > 2:
        raise LoewyTooLong("solidity requires Loewy length <= 2")
    return end_dim(M) == 1 + M.top_dim() * M.radical().dim


# -- isomorphism search ------------------------------------------------


@record
class IsoSearch:
    """Outcome of an isomorphism search.

    A negative answer is certified only when a dimension obstruction
    exists: of the modules, of their tops or of the two Hom spaces, or
    Hom(M, N) = 0; otherwise it means "no isomorphism found (probabilistic)".
    """

    found: bool
    certified: bool
    witness: Optional[ModuleMap] = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.found


#: Seeded random combinations tried before the evaluation at integer points.
_ISO_TRIES = 64


def _invertible(N: AModule, t: int, top: dict) -> bool:
    """True iff ``top``, a t x t matrix of ints held as {f·t + k: entry (f, k)}, has rank t.

    It is a top g0 or a map's flat row (:func:`find_isomorphism`).  A zero
    one is not eliminated; any other is ranked as integer rows.
    """
    if not any(top.values()):
        return False
    rows: list[dict] = [{} for _ in range(t)]
    for q, x in top.items():
        f, k = divmod(q, t)
        rows[f][k] = x
    return rank(IntRows(N.field, rows, t)) == t


def _witness(M: AModule, N: AModule, g0: dict, lifts: Sequence[int], scale: int) -> ModuleMap:
    """The A-map F: M -> N with top ``g0``, for J^2 M = 0, its matrix solved for on first read.

    ``g0`` is {s·t + k: int over ``scale``}, and F sends the top lift m_k to
    n_k = Σ_s g0[s, k]·m'_s, m'_s the unit vector at ``lifts[s]``, with no
    part in JN.  The unit vectors at the free columns (k, b) of M's cover
    kernel complement it in A^t, so the b·m_k there are a basis of M, and
    F(b·m_k) = b·n_k fixes F; as J^2 M = 0 the kernel holds every
    w_m-column, so each such b is 1 or a v_j.  F's graph is spanned by any
    pairs (x, F(x)) whose x span M; it is one elimination whose pivot row c
    is (e_c, F(e_c)).  The pairs are read in integers: the n_k as they come,
    and the v_j·m_k and v_j·n_k along the integer columns of M and N
    (:meth:`AModule.int_columns`), each pair over the least common multiple
    of its two scales.
    """
    t, n = M.top_dim(), M.algebra.dim

    def build() -> Matrix:
        dm, dn = M.dim, N.dim
        (cols_m, s_m), (cols_n, s_n) = M.int_columns(), N.int_columns()
        copies: list[dict] = [{} for _ in range(t)]
        for q, x in g0.items():
            s, k = divmod(q, t)
            copies[k][lifts[s]] = x
        ms = [[{c: 1}] + [dict(cols[c]) for cols in cols_m] for c in M.lift_columns()]
        ns = [[x, *v] for x, v in zip(copies, vector_images(cols_n, [(x.keys(), x.values())
                                                                       for x in copies]))]
        rows = []
        for k, b in (divmod(q, n) for q in M.cover_kernel.free_columns()):
            sx, sy = (1, scale) if b == 0 else (s_m, scale * s_n)
            m = lcm(sx, sy)
            rows.append({**{c: v * (m // sx) for c, v in ms[k][b].items()},
                         **{dm + r: v * (m // sy) for r, v in ns[k][b].items()}})
        graph = Subspace.from_vectors(M.field, dm + dn, IntRows(M.field, rows, dm + dn))
        rows = graph.sparse_rows()
        return Matrix.from_sparse_columns(N.field, dn, [
            [(j - dm, x) for j, x in zip(*rows[c]) if j >= dm] for c in range(dm)])
    return _LazyMap(M, N, build)


def find_isomorphism(M: AModule, N: AModule, seed: int = 0) -> IsoSearch:
    """Search the integer rows of Hom(M, N) for an invertible A-map M -> N.

    An isomorphism maps top M onto top N, so tops of different dimensions
    certify that there is none before any Hom system is built.  When J^2
    kills M and N, the rows are those of the g0 system's kernel
    (:func:`_top_equations`), t·dim top N unknowns: they are the tops, and
    an A-map between modules of one dimension is invertible iff its top is
    (Nakayama).  Any other pair reads the flat rows of :func:`hom_space`,
    each a dim N x dim M matrix.  Each row is ranked
    (:func:`_invertible`) as the kernel's integer row, put over one scale.
    When none is invertible, seeded random combinations with small int
    coefficients (reduced mod p over F_p) are tried, and over Q also a
    generic combination evaluated at the integer points 1, 2, ...,
    2·rows + 8; any hit certifies the isomorphism.  Only when they fail too
    is dim Hom(N, M) taken (:func:`hom_dim`): an isomorphism makes the two
    Hom dimensions equal, so a mismatch certifies that there is none.  The
    witness is the row or combination that hit, its one matrix built on
    first read: a top lifted to m_k -> Σ_s g0[s, k]·m'_s, m'_s N's top lifts
    (:func:`_witness`), or a flat row typed and laid out
    (:func:`_flat_map`).
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("isomorphism between modules over different algebras")
    if M.dim != N.dim:
        return IsoSearch(False, True, note="dimension mismatch")
    if M.dim == 0:
        return IsoSearch(True, True, witness=ModuleMap(M, N, Matrix.zeros(M.field, 0, 0)))
    # N's top lifts are read off its radical, so a syzygy N finds no cover here.
    t, lifts, p = M.top_dim(), N.radical().free_columns(), M.field.characteristic
    if len(lifts) != t:
        return IsoSearch(False, True, note="top dimension mismatch")
    square = M.loewy_length() < 3 and N.loewy_length() < 3
    if square:
        equations, free = _top_equations(M, N)
        homs, size = kernel_subspace(equations), t
    else:
        homs, free, size = hom_space(M, N).flat, 0, M.dim
    rows, dim = homs.int_rows(), homs.dim + free
    scale = lcm(*[s for _, _, s in rows.values()])
    basis = [dict(zip(idx, vals if s == scale else [x * (scale // s) for x in vals]))
             for idx, vals, s in rows.values()]

    def found(row: dict) -> IsoSearch:
        return IsoSearch(True, True, witness=_witness(M, N, row, lifts, scale) if square else
                         _flat_map(M, N, lambda: (row, typed_values(row.values(), scale, p))))
    for row in basis:
        if _invertible(N, size, row):
            return found(row)
    rng = random.Random(seed)

    def coefficients():
        for _ in range(_ISO_TRIES):
            yield [rng.choice(DEFAULT_POOL) for _ in basis]
        if not p:
            for point in range(1, 2 * len(basis) + 9):
                yield [point ** k for k in range(len(basis))]
    for coefs in coefficients() if basis else ():
        if _invertible(N, size, row := _combine(coefs, basis, p)):
            return found(row)
    # Nothing invertible was found: an isomorphism would make the Hom dimensions equal.
    if dim != hom_dim(N, M):
        return IsoSearch(False, True, note="hom dimension mismatch")
    if not dim:
        return IsoSearch(False, True, note="no non-zero homomorphisms")
    return IsoSearch(False, False, note="no isomorphism found (probabilistic)")


def _combine(coefs: Sequence[int], vectors: Sequence[dict], p: int) -> dict:
    """sum_i coefs[i]·vectors[i] over int vectors held as {index: int}, reduced mod p over F_p."""
    out: dict = {}
    for c, vector in zip(coefs, vectors):
        if c:
            for q, x in vector.items():
                out[q] = out[q] + c * x if q in out else c * x
    return {q: x % p for q, x in out.items()} if p else out


def is_isomorphic(M: AModule, N: AModule, seed: int = 0) -> bool:
    return find_isomorphism(M, N, seed=seed).found
