"""Finite-length left modules over a short local algebra.

A module of dimension d is given by the e action matrices of the radical
generators v_1..v_e; w_m acts as the combination of products of generator
actions that the algebra's sections give, so a tuple of matrices is a
valid module iff it satisfies the linear relations among the products
v_i v_j and kills all triple products.

:meth:`AModule.action_columns` is the one way a module's actions are
read and built: each generator's action as sparse columns.  A module is
held in one typed form: one built from matrices keeps them, and every
module the engine builds is held by its columns, built by
:func:`module_from_columns` (A^t by :func:`free_module`, a syzygy by
those read off its Φ's integer rows,
:meth:`~shortloc.homology.Syzygy.action_columns`); such a module builds
its matrices only when they are read (:attr:`AModule.actions`), and is
held by them from then on.  Its action values are converted to ints once,
over one scale (:meth:`AModule.int_columns`; a syzygy reads them straight
off its Φ images), and the radical, the socle, the Loewy length and the
integer action rows read only those ints.  :func:`vector_images` maps
vectors along the columns, :func:`pivot_columns` turns the images of a
subspace's basis rows into the columns of the induced actions, checked
for stability, and :func:`module_from_columns` builds the module.
Submodules and closures, quotients, J^2 M, the dual module and the
Kronecker shadow go this way, and the Hom equations read the columns, so
none of them multiplies action matrices; a syzygy's socle dimension is
read off its Φ's integer rows instead
(:meth:`~shortloc.homology.Syzygy.socle_dim`).  w_m acts as sum s_ij
v_i v_j, so w_m·x sums the images v_i·(v_j·x) read along the columns
(:func:`square_images`); the module axioms are read off those images
(:func:`validate_module`).  :meth:`AModule.int_images` maps the radical
basis at unit vectors in integers, so the images every cover kernel
(:attr:`AModule.cover_kernel`, found once per module) and every Hom
relation are read off at the top lifts hold no scalar, and
:meth:`AModule.int_action_rows` holds each basis element's action as
sparse rows of ints over one scale, for the Hom systems;
:meth:`AModule.top_images`, their typed twins, serve the cover's typed
columns.

Every Hom system is built one way, :func:`relation_equations`: a map
A^t -> N is its images n_1..n_t, column s·t + k is entry s of n_k (the
row-major flattening of a dim N x t matrix), and each relation ρ in A^t
gives the dim N equations ρ·(n_1..n_t) = 0.  A Hom system is sized by
the top of its source, since the top lifts m_1..m_t generate M.
:func:`hom_space` reads M as a quotient of A^{dim M}, whose copy c maps
to e_c, by the relations b·m_k = sum_c (b m_k)[c] e_c for the radical
basis elements b, (dim A - 1)·t·dim N equations, and keeps only their
kernel, the maps' flat rows (:class:`HomSpace`).  :func:`hom_dim` reads
M's presentation: t·dim N less the rank of the equations of the cover
kernel's integer rows, with no kernel basis and no typed kernel row.  A
caller that reads dimensions or tops searches on the presentation
kernel; the dual side reads :func:`hom_space`'s flat rows, and
:func:`hom_basis` alone builds maps from them.  So
:func:`find_isomorphism` solves Hom(M, N) as the kernel of those t·dim N
unknowns and reads each basis element's top once, sparse, off its images
n_k mod JN, since an A-map between modules of one dimension is
invertible iff it is onto the top (Nakayama); a combination's top is
that combination of the tops.  It takes dim Hom(N, M) only when neither a
basis element nor a seeded combination is invertible, and solves for one
witness matrix only when the witness is read.  Socle dimensions, and with
them the bipartite test and the multiplicity of S, are ranks.
"""

from __future__ import annotations

import random
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from ._record import record
from .algebra import ShortAlgebra
from .errors import (AlgebraMismatch, BadParams, DimensionMismatch, InvariantViolation,
                     LoewyTooLong, ZeroModule)
from .linalg import (DEFAULT_POOL, Field, IntRows, Matrix, Subspace, integer_pairs,
                     integer_values, kernel_subspace, rank)


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

    A module is held in one typed form.  One built from matrices keeps
    them; one the engine builds (:func:`module_from_columns`, A^t, a
    syzygy) is held by its sparse action columns (:meth:`action_columns`)
    and builds its matrices only when :attr:`actions` is read, from then
    on held by them.  Either way its action values are converted to ints
    once, over one scale (:meth:`int_columns`), and the radical, the socle,
    the Loewy length and the integer action rows read only those ints.
    ``free_rank`` is t when the module is A^t in the coordinates of
    :func:`free_module`; no engine route reads it, but copies of a module
    carry it (``_fresh`` in ``bench/workload.py``).
    """

    free_rank: Optional[int] = None
    _radical: Optional[Subspace] = None
    _socle: Optional[Subspace] = None
    _socle_dim: Optional[int] = None
    _int_action_rows: Optional[tuple] = None
    _action_columns: Optional[list] = None
    _int_columns: Optional[tuple] = None
    _loewy: Optional[int] = None
    #: Hom(M, A)'s flat rows, M* and the torsionless verdict (:func:`~shortloc.homology.dual_data`).
    _dual_flat: Optional[Subspace] = None
    _dual_module: Optional["AModule"] = None
    _torsionless: Optional[bool] = None
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

        The module is held by them from then on: its columns are dropped,
        and a later :meth:`action_columns` reads them off the matrices.
        """
        actions = tuple(Matrix.from_sparse_columns(self.field, self.dim, cols)
                        for cols in self.action_columns())
        self._action_columns = None
        return actions

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
        the w-images formed, as :func:`square_images` of the typed columns,
        converted together and folded into the scale of the v-images;
        otherwise they are empty, and no square is formed.
        """
        columns, scale = self.int_columns()
        images = [[cols[c] for cols in columns] for c in at]
        if self._square_zero or self.loewy_length() < 3:
            images = [vs + [[]] * self.algebra.a for vs in images]
        else:
            typed = self.action_columns()
            squares = square_images(self.algebra, typed,
                                    [[dict(cols[c]) for cols in typed] for c in at])
            values, w_scale = integer_values(
                [y for ws in squares for w in ws for y in w.values()], self.field.characteristic)
            total, ints = lcm(scale, w_scale), iter(values)
            fold, lift = total // scale, total // w_scale
            images = [[[(r, y * fold) for r, y in v] for v in vs] +
                      [[(r, next(ints) * lift) for r in w] for w in ws]
                      for vs, ws in zip(images, squares)]
            scale = total
        g = gcd(scale, *(y for imgs in images for img in imgs for _, y in img)) if scale > 1 else 1
        if g > 1:
            images = [[[(r, y // g) for r, y in img] for img in imgs] for imgs in images]
        return images, scale // g

    def action_columns(self) -> list[list[list[tuple]]]:
        """Per generator, the non-zero (row, value) pairs of each column of its action.

        A module held by its columns has them from the start; any other
        module scans its matrices once and keeps the columns.  Every module
        built or read without products goes through this view.
        """
        if self._action_columns is None:
            self._action_columns = [X.sparse_columns() for X in self.actions]
        return self._action_columns

    def int_columns(self) -> tuple[list, int]:
        """(columns, d): :meth:`action_columns` with every value an int over the one scale d.

        The values are converted together, once per module
        (:func:`~shortloc.linalg.integer_pairs`): residues over d = 1 on
        F_p; on Q the values themselves over 1 when each is an ``int``,
        else ints over the lcm of the denominators.  A syzygy reads them
        off its Φ images instead (:meth:`~shortloc.homology.Syzygy.int_columns`).
        """
        if self._int_columns is None:
            self._int_columns = integer_pairs(self.action_columns(), self.field.characteristic)
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

    def top_lift(self) -> list[tuple]:
        """Deterministic vectors lifting a basis of top M = M/JM."""
        return self.radical().complement()

    def lift_columns(self) -> list[int]:
        """The indices c_k of the top lifts m_k, unit vectors: the free columns of JM."""
        return self.radical().free_columns()

    def top_images(self) -> list[list[dict]]:
        """The images of the radical basis at each top lift m_k, as {index: value}: typed.

        m_k is the unit vector at c_k (:meth:`lift_columns`), so v_j m_k is
        column c_k of v_j's action, read off :meth:`action_columns`.
        w_1 m_k .. w_a m_k follow (:func:`square_images`); when J^2 M is
        zero they are empty and no square is formed.  The cover's typed
        columns read them; the cover kernel and the Hom systems read their
        ints (:meth:`int_images`).
        """
        columns = self.action_columns()
        images = [[dict(cols[c]) for cols in columns] for c in self.lift_columns()]
        if self.loewy_length() < 3:
            return [vs + [{} for _ in range(self.algebra.a)] for vs in images]
        return [vs + ws for vs, ws in zip(images, square_images(self.algebra, columns, images))]

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
    """Check the module axioms along the action columns; raises BadParams when they fail.

    At each basis vector x, v_j·x is column x of v_j's action, v_i·(v_j·x)
    its image (:func:`vector_images`, one pass per x) and w_m·x = sum
    s_ij v_i·(v_j·x) is formed from those images as :func:`square_images`
    forms it, so no action matrix is multiplied and no image is mapped
    twice.  Every
    v_i·(v_j·x) must be sum_m c_ijm w_m·x; only then is every v_k·(w_m·x)
    checked to be zero.

    That is the whole check.  With C the e^2 x a structure matrix (rank a)
    and S the sections (C^T S = I), P(x) = (v_i v_j x) meets every relation
    λ in ker C^T iff P(x) lies in col C, iff P(x) = C S^T P(x), and
    S^T P(x) = (w_m x).  Then X_a X_b X_c = sum_m c_bcm X_a W_m, and each
    X_a W_m is a sum of triple products, so these vanish iff every X_a W_m
    does.  Without sections (products not spanning J^2),
    :meth:`ShortAlgebra.sections` raises SurjectivityViolation.
    """
    alg, columns, squares = M.algebra, M.action_columns(), []
    for x in range(M.dim):
        # twice[j-1][i-1] is v_i·(v_j·x), mapped once for the squares and the relations.
        vs = [dict(cols[x]) for cols in columns]
        twice = vector_images(columns, [(v.keys(), v.values()) for v in vs])
        ws = _squares(alg, twice)
        squares.append(ws)
        for (i, j, m), c in alg.structure.items():
            pair = twice[j - 1][i - 1]
            for q, y in ws[m - 1].items():
                pair[q] = pair[q] - c * y if q in pair else -c * y
        if any(any(pair.values()) for row in twice for pair in row):
            raise BadParams("action matrices violate a product relation")
    cubes = vector_images(columns, [(w.keys(), w.values()) for ws in squares for w in ws])
    if any(any(image.values()) for row in cubes for image in row):
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
    n = alg.dim
    F = module_from_columns(alg, n * t, [[[(k * n + i, x) for i, x in col]
                                          for k in range(t) for col in cols]
                                         for cols in alg.regular_columns()])
    F.free_rank, F._loewy = t, 3 if alg.structure else 2 if alg.e else 1
    return F


def vector_images(columns: list, rows: Iterable[tuple]) -> list[list[dict]]:
    """v_1·x .. v_e·x as {index: value} for each x, given as (indices, values).

    ``columns`` is a module's :meth:`AModule.action_columns`, so an image
    costs what x's support and the columns there cost; no product is formed.
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


def square_images(alg: ShortAlgebra, columns: list, images: Sequence[Sequence[dict]]
                  ) -> list[list[dict]]:
    """w_1·x .. w_a·x for each x, given its images v_1·x .. v_e·x as dicts.

    w_m = sum s_ij v_i v_j for the algebra's sections s, so w_m·x sums the
    images v_i·(v_j·x), read along the action columns ``columns``
    (:func:`vector_images`); no product is formed.
    """
    return [_squares(alg, vector_images(columns, [(v.keys(), v.values()) for v in vs]))
            for vs in images]


def _squares(alg: ShortAlgebra, twice: Sequence[Sequence[dict]]) -> list[dict]:
    """w_1·x .. w_a·x from the images twice[j-1][i-1] = v_i·(v_j·x): sum s_ij v_i·(v_j·x)."""
    e, ws = alg.e, []
    for section in alg.sections():
        w: dict = {}
        for ij, s in enumerate(section):
            if s:
                for q, y in twice[ij % e][ij // e].items():
                    w[q] = w[q] + s * y if q in w else s * y
        ws.append({q: y for q, y in w.items() if y})
    return ws


def pivot_columns(space: Subspace, images: Sequence[Sequence[dict]], e: int) -> list[list[list]]:
    """The columns of the actions induced on a subspace, from the images of its basis rows.

    ``images[r][j]`` is v_{j+1} applied to basis row r (as
    :func:`vector_images` or :meth:`~shortloc.homology.Syzygy.images`
    give it).  Each image is checked to lie in the subspace, its residue
    (:meth:`~shortloc.linalg.Subspace.residue`) zero (BadParams
    otherwise); the basis is row reduced, so its coordinates are its
    non-zero entries at the pivots, with no system solved.
    """
    at = {p: r for r, p in enumerate(space.pivots)}
    columns: list[list] = [[] for _ in range(e)]
    for row_images in images:
        for cols, image in zip(columns, row_images):
            if any(space.residue(image.items()).values()):
                raise BadParams("subspace is not stable under the module action")
            cols.append([(at[q], y) for q, y in image.items() if y and q in at])
    return columns


def module_from_columns(alg: ShortAlgebra, dim: int, columns: Sequence[Sequence]) -> AModule:
    """The module whose generator v_{j+1} acts by the sparse columns ``columns[j]``, held by them.

    Its matrices are built only when :attr:`AModule.actions` is read.
    """
    M = AModule.__new__(AModule)
    M.algebra, M.dim, M._action_columns = alg, dim, list(columns)
    return M


def module_from_subspace(M: AModule, space: Subspace) -> tuple[AModule, ModuleMap]:
    """An action-stable subspace as a module, with its embedding into M.

    Each basis row is mapped through each generator along the non-zeros of
    both (:func:`vector_images`), and the induced actions are read off the
    images at the pivots (:func:`pivot_columns`).  The embedding's matrix is
    built on first read.
    """
    images = vector_images(M.action_columns(), space.sparse_rows().values())
    sub = module_from_columns(M.algebra, space.dim, pivot_columns(space, images, M.algebra.e))
    return sub, _LazyMap(sub, M, lambda: Matrix.from_columns(M.field, space.basis, M.dim))


def submodule(M: AModule, vectors: Sequence[Sequence]) -> tuple[AModule, ModuleMap]:
    """The submodule spanned by the given vectors (must be action-stable)."""
    return module_from_subspace(M, Subspace.from_vectors(M.field, M.dim, vectors))


def generated_submodule(M: AModule, vectors: Sequence[Sequence]) -> tuple[AModule, ModuleMap]:
    """The submodule the vectors generate: their span closed under A (:func:`generated_span`)."""
    vecs = [tuple(v) for v in vectors]
    if any(len(v) != M.dim for v in vecs):
        raise DimensionMismatch("vector has wrong ambient dimension")
    span = generated_span(M.field, M.dim, M.action_columns(), [(range(M.dim), v) for v in vecs])
    return module_from_subspace(M, span)


def generated_span(field: Field, ambient: int, columns: list, vectors: Sequence) -> Subspace:
    """The span of the x, the v_i·x and the v_i·(v_j·x) along ``columns``, x as (indices, values).

    It is closed under A: the v_i v_j span J^2, and J^3 = 0 ends it.
    """
    once = [v for row in vector_images(columns, vectors) for v in row]
    twice = [v for row in vector_images(columns, [(v.keys(), v.values()) for v in once])
             for v in row]
    return Subspace.from_vectors(field, ambient, [dict(zip(*x)) for x in vectors] + once + twice)


def quotient(M: AModule, sub: Subspace | Sequence[Sequence]) -> tuple[AModule, ModuleMap]:
    """The quotient of M by an action-stable subspace, with its projection.

    Quotient coordinates are the non-pivot coordinates of the canonical
    representative (reduction modulo the subspace).  The free unit vectors
    e_f lift the quotient basis, so column f of an action is the residue
    of the column X e_f at the free columns
    (:meth:`~shortloc.linalg.Subspace.residue`), and no action matrix of M
    is multiplied (on A^t the columns come off the regular action).  The
    projection's matrix is built on first read.
    """
    if not isinstance(sub, Subspace):
        sub = Subspace.from_vectors(M.field, M.dim, sub)
    columns = M.action_columns()
    # Raises BadParams unless sub is stable.
    pivot_columns(sub, vector_images(columns, sub.sparse_rows().values()), M.algebra.e)
    free = sub.free_columns()
    at = {f: b for b, f in enumerate(free)}

    def projection() -> Matrix:
        # Column c is e_c's residue at the free columns.
        one = M.field.one()
        return Matrix.from_sparse_columns(M.field, len(free), [
            [(at[j], x) for j, x in sub.residue([(c, one)]).items() if x] for c in range(M.dim)])
    acts = [[[(at[j], x) for j, x in sub.residue(cols[f]).items() if x] for f in free]
            for cols in columns]
    Q = module_from_columns(M.algebra, len(free), acts)
    return Q, _LazyMap(M, Q, projection)


def direct_sum(M: AModule, N: AModule) -> AModule:
    if M.algebra != N.algebra:
        raise AlgebraMismatch("direct sum over different algebras")
    d = M.dim
    return module_from_columns(M.algebra, d + N.dim, [
        cm + [[(d + i, x) for i, x in col] for col in cn]
        for cm, cn in zip(M.action_columns(), N.action_columns())])


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
    rng = random.Random(seed)
    elems = [alg.field.of(x) for x in DEFAULT_POOL]
    F = free_module(alg, n_gens)
    zero = alg.field.zero()
    rels = []
    for _ in range(n_rels):
        vec = []
        for _ in range(n_gens):
            vec.append(zero)
            vec.extend(rng.choice(elems) for _ in range(alg.dim - 1))
        rels.append(tuple(vec))
    images = vector_images(F.action_columns(), [(range(F.dim), r) for r in rels])
    space = Subspace.from_vectors(alg.field, F.dim, rels + [img for row in images for img in row])
    Q, _ = quotient(F, space)
    return Q


def mod_j_squared(M: AModule) -> AModule:
    """M / J^2 M, the largest Loewy-length <= 2 quotient of M."""
    images = vector_images(M.action_columns(), M.radical().sparse_rows().values())
    space = Subspace.from_vectors(M.field, M.dim, (img for row in images for img in row))
    Q, _ = quotient(M, space)
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
    dm, dn, flat = M.dim, N.dim, hom_space(M, N).flat

    def matrix(q: int) -> Matrix:
        entries = [M.field.zero()] * (dn * dm)
        for j, x in zip(*flat.sparse_rows()[q]):
            entries[j] = x
        return Matrix(M.field, [entries[k * dm:(k + 1) * dm] for k in range(dn)], cols=dm)
    return [_LazyMap(M, N, lambda q=q: matrix(q)) for q in flat.pivots]


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


def hom_dim(M: AModule, N: AModule) -> int:
    """dim Hom_A(M, N): t·dim N less the rank of :func:`presentation_equations`.

    No kernel basis, no typed kernel row and no map is formed.
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    equations = presentation_equations(M, N)
    return equations.cols - rank(equations)


def presentation_equations(M: AModule, N: AModule) -> IntRows:
    """Hom(M, N) as equations in t·dim N unknowns, over M's presentation.

    A map M -> N is a map A^t -> N, its images n_1..n_t at the top lifts,
    that kills the cover kernel (:attr:`AModule.cover_kernel`), so these
    are :func:`relation_equations` of that kernel's integer rows
    (:meth:`~shortloc.linalg.Subspace.int_rows`): column s·t + k is entry
    s of n_k, and their kernel is Hom(M, N).
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
    exists; otherwise it means "no isomorphism found (probabilistic)".
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
    """True iff ``top`` (:func:`_top`) is square, N's top having t rows, and of rank t.

    A zero top is not eliminated; any other is ranked as sparse rows.
    """
    if N.top_dim() != t or not any(top.values()):
        return False
    rows: list[dict] = [{} for _ in range(t)]
    for q, x in top.items():
        f, k = divmod(q, t)
        rows[f][k] = x
    return rank(IntRows.from_scalars(N.field, rows, t)) == t


def _top(N: AModule, t: int, images: dict) -> dict:
    """The A-map given by images n_1..n_t in N, on tops: {f·t + k: entry f of n_k mod JN}.

    ``images`` holds the non-zero entries of (n_1..n_t) in the unknowns of
    :func:`presentation_equations`, {s·t + k: entry s of n_k}.  Column k is
    n_k's residue (:meth:`~shortloc.linalg.Subspace.residue`) modulo JN,
    row f its entry at N's f-th free column; the map sends the top lift
    m_k to n_k, so this is its matrix on tops, and an A-map between modules
    of one dimension is invertible iff this matrix is (Nakayama: F is onto
    iff F(M) + JN = N).
    """
    radical = N.radical()
    at = {f: i for i, f in enumerate(radical.free_columns())}
    top = {}
    for k, n_k in enumerate(_copies(images, t)):
        if n_k:
            for j, x in radical.residue(n_k.items()).items():
                top[at[j] * t + k] = x
    return top


def _copies(images: dict, t: int) -> list[dict]:
    """n_1..n_t as {s: entry s of n_k}, from their entries {s·t + k: entry s of n_k}."""
    copies: list[dict] = [{} for _ in range(t)]
    for q, x in images.items():
        s, k = divmod(q, t)
        copies[k][s] = x
    return copies


def _witness(M: AModule, N: AModule, images: dict) -> ModuleMap:
    """The A-map F: M -> N with F(m_k) = n_k, its matrix solved for on first read.

    ``images`` are (n_1..n_t) as :func:`_top` reads them, a solution of
    :func:`presentation_equations`.  The unit vectors at the free columns
    (k, b) of M's cover kernel complement it in A^t, so the b·m_k there are
    a basis of M, and F(b·m_k) = b·n_k fixes F.  Its graph is spanned by
    any pairs (x, F(x)) whose x span M; it is one elimination whose pivot
    row c is (e_c, F(e_c)).  The pairs are read in integers: the n_k are
    converted once, and the b·m_k and b·n_k are mapped along the integer
    columns of M and N (:meth:`AModule.int_columns`), each pair over the
    least common multiple of its two scales.  A free column with b = w_m
    occurs only when J^2 M is not zero; only then are the pairs at the
    v_i·(v_j·m_k) formed, which span the w_m·m_k, so no section is read.
    """
    t, n, e = M.top_dim(), M.algebra.dim, M.algebra.e

    def build() -> Matrix:
        dm, dn = M.dim, N.dim
        (cols_m, s_m), (cols_n, s_n) = M.int_columns(), N.int_columns()
        typed = _copies(images, t)
        values, s = integer_values([x for n_k in typed for x in n_k.values()],
                                   M.field.characteristic)
        ints = iter(values)
        copies = [dict(zip(n_k, ints)) for n_k in typed]
        ms = [[{c: 1}] + [dict(cols[c]) for cols in cols_m] for c in M.lift_columns()]
        ns = [[x, *v] for x, v in zip(copies, vector_images(cols_n, [(x.keys(), x.values())
                                                                       for x in copies]))]
        free = [divmod(q, n) for q in M.cover_kernel.free_columns()]
        pairs = [(ms[k][b], ns[k][b], *((1, s) if b == 0 else (s_m, s * s_n)))
                 for k, b in free if b <= e]
        deep = sorted({k for k, b in free if b > e})
        if deep:
            twice_m = vector_images(cols_m, [(v.keys(), v.values())
                                             for k in deep for v in ms[k][1:]])
            twice_n = vector_images(cols_n, [(v.keys(), v.values())
                                             for k in deep for v in ns[k][1:]])
            pairs += [(x, y, s_m * s_m, s * s_n * s_n)
                      for xs, ys in zip(twice_m, twice_n) for x, y in zip(xs, ys)]
        rows = []
        for x, y, sx, sy in pairs:
            scale = lcm(sx, sy)
            rows.append({**{c: v * (scale // sx) for c, v in x.items()},
                         **{dm + r: v * (scale // sy) for r, v in y.items()}})
        graph = Subspace.from_vectors(M.field, dm + dn, IntRows(M.field, rows, dm + dn))
        rows = graph.sparse_rows()
        return Matrix.from_sparse_columns(N.field, dn, [
            [(j - dm, x) for j, x in zip(*rows[c]) if j >= dm] for c in range(dm)])
    return _LazyMap(M, N, build)


def find_isomorphism(M: AModule, N: AModule, seed: int = 0) -> IsoSearch:
    """Search for an invertible A-map M -> N on M's presentation.

    A search reads tops, not basis maps, so it solves Hom(M, N) as the
    kernel of :func:`presentation_equations`, t·dim N unknowns, and never
    calls :func:`hom_space`.  Each basis element (n_1..n_t) is tried on
    its top (:func:`_top`), read once.  When none is invertible, seeded
    random combinations with small coefficients are tried, and over Q
    also a generic combination evaluated at the integer points 1, 2, ...,
    2 dim Hom + 8, each on the same combination of the tops; any hit
    certifies the isomorphism.  Only when they fail too is dim Hom(N, M)
    taken, by rank (:func:`hom_dim`): an isomorphism makes the two Hom
    dimensions equal, so a mismatch certifies that there is none.  The
    witness is the map of the combined images (:func:`_witness`), the one
    matrix built, by one solve on first read.
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("isomorphism between modules over different algebras")
    if M.dim != N.dim:
        return IsoSearch(False, True, note="dimension mismatch")
    if M.dim == 0:
        return IsoSearch(True, True, witness=ModuleMap(M, N, Matrix.zeros(M.field, 0, 0)))
    homs, t = kernel_subspace(presentation_equations(M, N)), M.top_dim()
    rows = homs.sparse_rows()
    basis = [dict(zip(*rows[p])) for p in homs.pivots]
    # The top is linear in the images, so a combination's top is the same
    # combination of the basis elements' tops, each read once here.
    tops = []
    for images in basis:
        tops.append(_top(N, t, images))
        if _invertible(N, t, tops[-1]):
            return IsoSearch(True, True, witness=_witness(M, N, images))
    rng = random.Random(seed)
    elems = [M.field.of(x) for x in DEFAULT_POOL]

    def coefficients():
        for _ in range(_ISO_TRIES):
            yield [rng.choice(elems) for _ in basis]
        if M.field.is_rationals:
            for point in range(1, 2 * len(basis) + 9):
                x = M.field.of(point)
                yield [x ** k for k in range(len(basis))]
    for coefs in coefficients() if basis else ():
        if _invertible(N, t, _combine(coefs, tops)):
            return IsoSearch(True, True, witness=_witness(M, N, _combine(coefs, basis)))
    # Nothing invertible was found: an isomorphism would make the Hom dimensions equal.
    if homs.dim != hom_dim(N, M):
        return IsoSearch(False, True, note="hom dimension mismatch")
    if not basis:
        return IsoSearch(False, True, note="no non-zero homomorphisms")
    return IsoSearch(False, False, note="no isomorphism found (probabilistic)")


def _combine(coefs: Sequence, vectors: Sequence[dict]) -> dict:
    """sum_i coefs[i]·vectors[i] over vectors held as {index: value}."""
    out: dict = {}
    for c, vector in zip(coefs, vectors):
        if c:
            for q, x in vector.items():
                out[q] = out[q] + c * x if q in out else c * x
    return out


def is_isomorphic(M: AModule, N: AModule, seed: int = 0) -> bool:
    return find_isomorphism(M, N, seed=seed).found
