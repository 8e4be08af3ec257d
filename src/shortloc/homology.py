"""Projective covers, syzygies, approximations, duals, transpose and Ext.

Everything here works with minimal constructions: projective covers lift a
basis of the top, so kernels are first syzygies.  :class:`MinimalResolution`
is the single engine that walks syzygies: Betti numbers are the tops of its
syzygies, syzygy powers and orbit walks read its modules, and Ext groups and
the transpose (the cokernel of d_1^* into A) come from the Hom-complex of its
boundaries, handed to the elimination as integer rows built from the top
lifts' integer shadow rows, over one scale, and the target's action rows as
ints (:func:`_hom_complex_matrix`), so no boundary row becomes a scalar.
:class:`DualData` is the single engine of the
dual side: Hom(M, A), solved once per module, serves the dual module, the
torsionless and reflexive verdicts, the evaluation map and the minimal left
approximation with its cokernel (the cosyzygy), each built on first read
from the sparse rows of the maps' flattenings, with no map matrix; the
stable Hom reads those rows too, composing them with each block of the
target's cover as (block ⊗ 1), with no product.

A minimal cover A^t -> N has its kernel in JA^t: ker(Φ: JA^t -> JN), Φ
sending copy k's radical basis to its images at the top lift m_k
(:func:`phi_kernel`); when J^2 N = 0 its W-columns are empty, so W⊗k^t
lies in the kernel.  Φ goes to the elimination in the elimination's own
integer form (:class:`~shortloc.linalg.IntRows`), each lift's scale riding
on its columns, and the kernel keeps the elimination's integer pivot rows
as its primary form: its integer rows, then its typed rows, are built from
them only when read.  A syzygy is a :class:`Syzygy`, held by its shadow:
that kernel, the reduced basis of the cover's kernel in A^t.  Minimality
puts it in JA^t, so J^2 kills it, and v_j acts on a basis row x through the
structure constants, ψ_j(x)_{(m,k)} = Σ_i c_{jim} x_{(i,k)}, read off the
algebra's integer table (:meth:`ShortAlgebra.structure_table`).  At the
top lifts these images are the columns of its Φ (:meth:`Syzygy.cover`),
and each entry of the shadow's integer pivot rows at a V-coordinate goes
through the table straight into Φ's rows (:func:`shadow_rows`), each
row's lead and scale folded into its columns' scale, with no kernel row
and no image built.  So from step 1 on a resolution step is one
elimination of the big Φ with no typed scalar: its rank settles the
syzygy's top, its free columns are the kernel's pivots, and its pivot
rows feed the next step.  When the V-rows do not lift the whole top, the
images, read off the same Φ, are checked against the shadow on its
integer rows, and only those at Φ's pivot columns and those of the
J^2-rows are eliminated again.  The images are Φ transposed, one pass over
its entries (:meth:`Syzygy.images`).  Checked against the shadow on its
integer rows and read at its pivots, they give the integer columns of
its actions (:meth:`Syzygy.int_columns`), which its radical and its Hom
systems read with no scalar built; only its typed columns and action
matrices, built from them on first read, hold scalars.
Its socle is read off Φ itself: Φ's entries regrouped by J^2-coordinate
and generator, one column per mapped row, have the rank of the stacked
actions, so dim soc is dim Ω less that integer rank
(:meth:`Syzygy.socle_dim`), and no action column is built for the main
lemma or the bipartite test.  Any
other module, of any Loewy length, reads Φ off its integer action
columns at the free columns of its radical (:meth:`AModule.int_images`,
:func:`top_kernel`), so no value is converted again and no whole cover
matrix is eliminated.  Every module keeps its cover kernel
(:attr:`AModule.cover_kernel`, for a syzygy :meth:`Syzygy.cover`'s), so
its cover, its syzygy and the Hom dimensions from it
(:func:`~shortloc.modules.hom_dim`) share one :func:`phi_kernel` call; a
syzygy's top lifts, which its Hom systems read, come off the same cover,
with no radical eliminated.  A syzygy's action matrices, a cover's matrix
(from the same sparse columns, :func:`_cover_columns`) and a kernel's
embedding are built only when a caller reads them.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import count, islice
from math import lcm
from typing import Iterator, Optional, Sequence

from ._record import record
from .algebra import ShortAlgebra
from .errors import AlgebraMismatch, BadParams, InvariantViolation, ResourceCapExceeded
from .linalg import IntRows, Matrix, Subspace, kernel_subspace, rank, typed_values
from .modules import (AModule, HomSpace, ModuleMap, _LazyMap, free_module, generated_span, hom_dim,
                      hom_space, left_regular_module, module_from_columns, pivot_columns, quotient,
                      relation_equations, vector_images, zero_module)

#: Dimension cap for intermediate modules; Betti numbers grow exponentially
#: in general, so resolutions abort cleanly instead of thrashing.
DEFAULT_CAP = 5000

#: Default depth for the bounded "for all i >= 1" predicates.
DEFAULT_BOUND = 10


def shadow_rows(alg: ShortAlgebra, form: tuple) -> tuple[dict, list[int], list[int]]:
    """Φ over every row of a syzygy's shadow, read off its pivot rows: (rows, order, scales).

    ``form`` is the shadow's (piv, free, at, σ) (:meth:`Subspace.pivot_form`):
    the shadow row x_f at ``at[f]`` is 1 there and -y·σ_c/(lead·σ_f) at
    ``at[c]`` for each entry y at f of the pivot row ``piv[c]``.  v_j acts
    on x_f through the structure constants at its V-coordinates
    (:meth:`ShortAlgebra.structure_table`), so each entry of a pivot row at
    a V-coordinate goes through the table straight into Φ's rows,
    {J^2-coordinate: {column: int}}, with no kernel row and no image built.
    Column k·(dim A - 1) + j is ψ_{j+1}(x) for x the row at ``order[k]``,
    times ``scales[k]`` = L·σ_f, L the lcm of the leads of the pivot rows
    that reach x, and times the table's scale, which is common to all of Φ
    and left out.  ``order`` lists the rows at V-coordinates, in increasing
    order, then the other rows that reach a V-coordinate, as met.
    """
    (table, _), n, e = alg.structure_table(), alg.dim, alg.e
    piv, free, at, sigma = form
    first = {}
    for f in free:
        if at[f] % n <= e:
            first[f] = len(first) * (n - 1)
    mult = {}  # L for each row that a pivot row with a lead other than 1 reaches
    for c, row in piv.items():
        if row[c] != 1:
            for f in row:
                mult[f] = lcm(mult.get(f, 1), row[c])
    odd = sigma is not None or mult
    rows: dict = defaultdict(dict)
    for c, pivot_row in piv.items():
        q = at[c]
        i = q % n
        if table[i]:
            lead, s = pivot_row[c], sigma[c] if sigma else 1
            for f, y in pivot_row.items():
                if f == c:
                    continue
                k = first.get(f)
                if k is None:
                    k = first[f] = len(first) * (n - 1)
                x = -y * s * (mult.get(f, 1) // lead) if odd else -y
                for j, w, const in table[i]:
                    row, cc = rows[q - i + w], k + j
                    row[cc] = row.get(cc, 0) + const * x
    scales = [mult.get(f, 1) * (sigma[f] if sigma else 1) for f in first]
    for (f, k), x in zip(first.items(), scales):
        q = at[f]
        i = q % n
        for j, w, const in table[i]:
            row, cc = rows[q - i + w], k + j
            row[cc] = row.get(cc, 0) + const * x
    return rows, [at[f] for f in first], scales


def lift_rows(rows: dict, order: Sequence[int], lifts: Sequence[int], n: int) -> dict:
    """Φ's rows over the rows at ``lifts`` alone, block k for ``lifts[k]``, from Φ over ``order``.

    A lift missing from ``order`` reaches no V-coordinate: its block is empty.
    """
    block = {p: k for k, p in enumerate(order)}
    moved = {block[p]: k * (n - 1) for k, p in enumerate(lifts) if p in block}
    out: dict = defaultdict(dict)
    for q, row in rows.items():
        for c, y in row.items():
            k, j = divmod(c, n - 1)
            if k in moved:
                out[q][moved[k] + j] = y
    return out


def top_kernel(alg: ShortAlgebra, images: Sequence[Sequence[Sequence[tuple]]]) -> Subspace:
    """ker Φ from the images at the top lifts as (index, int) pairs over one scale.

    ``images[k]`` is v_1 m_k .. v_e m_k, then w_1 m_k .. w_a m_k, for the
    k-th top lift m_k, in any coordinates of JN (:meth:`AModule.int_images`).
    Column k·(dim A - 1) + u of Φ is ``images[k][u]``.  One scale for all
    of them scales Φ as a whole and leaves its kernel as it is.
    """
    n, rows = alg.dim, defaultdict(dict)
    for k, imgs in enumerate(images):
        for c, img in enumerate(imgs, k * (n - 1)):
            for q, y in img:
                rows[q][c] = y
    return phi_kernel(alg, rows, [1] * len(images))


def phi_kernel(alg: ShortAlgebra, rows: dict, scales: Sequence[int]) -> Subspace:
    """The kernel of the cover A^t -> N: ker Φ, the cover restricted to JA^t.

    Φ is given by its integer rows, {row: {column: int}}, and the scale of
    each of the t top lifts (:func:`shadow_rows`, :func:`top_kernel`):
    column k·(dim A - 1) + u, the image of radical coordinate
    k·dim A + 1 + u of A^t, is ``scales[k]`` times the column meant.  The
    scales ride on Φ's columns (:class:`~shortloc.linalg.IntRows`) and are
    folded back only when the kernel's rows are built.  A zero image, as
    every w-image is when J^2 N = 0, is an empty column, free with its unit
    vector as kernel vector.
    This is the whole cover's kernel: a reduced basis depends only on the
    subspace and the column order, and the columns of the m_k are
    independent of the rest.  Φ is eliminated at once; the rows are
    embedded in A^t as they are built (:func:`kernel_subspace` with
    ``at``), on first read.
    """
    n, t = alg.dim, len(scales)
    at = [k * n + u for k in range(t) for u in range(1, n)]
    column_scales = None
    if any(scale != 1 for scale in scales):
        column_scales = [scale for scale in scales for _ in range(1, n)]
    return kernel_subspace(IntRows(alg.field, list(rows.values()), len(at), column_scales),
                           at=at, ambient=n * t)


class Syzygy(AModule):
    """The kernel of a projective cover A^t -> M, held by its shadow.

    ``space`` is the shadow: the kernel's reduced basis as sparse rows in the
    coordinates of A^t, which fix the module's basis.  J^2 kills the kernel
    (minimality), so the images ψ_j(x) of its basis rows give its top and
    its own cover, one kernel of the big Φ (:meth:`cover`), its socle
    (:meth:`socle_dim`, a rank of Φ's entries), and the columns of its
    actions (:meth:`action_columns`), which its radical and Hom systems
    read.  The cover keeps the top lifts with Φ's kernel, eliminated once:
    the top is read off it with no kernel row built, and the rows are built,
    in A^t, when first read.  A ladder reads only the shadow's integer pivot
    rows, mapped once into Φ over all its rows (:func:`shadow_rows`), which
    the cover, the socle and the action columns share; the images are Φ
    transposed (:meth:`images`), and the action matrices are built from the
    action columns when a caller reads them.
    """

    _square_zero = True
    _stable = False

    def __init__(self, algebra: ShortAlgebra, space: Subspace):
        # No action matrices are passed, so AModule's shape checks are skipped.
        self.algebra = algebra
        self.dim = space.dim
        self.space = space

    @cached_property
    def _phi(self) -> tuple[dict, list[int], list[int]]:
        """Φ over every shadow row (:func:`shadow_rows`), mapped once for the cover, socle and actions."""
        return shadow_rows(self.algebra, self.space.pivot_form())

    @cached_property
    def _shadow_images(self) -> dict[int, tuple[list[dict], int]]:
        """Pivot p -> the integer images of the shadow row at p and their scale: Φ transposed.

        Only rows with a V-coordinate have images: J^2 kills J^2 A^t, so the
        images of the other rows, such as the unit vectors of W⊗k^t, are
        empty and have no entry.  Φ's entry at row q and column
        k·(dim A - 1) + j is ψ_{j+1} at q of the row at ``order[k]``, over
        its scale times the table's.
        """
        rows, order, scales = self._phi
        e, m = self.algebra.e, self.algebra.dim - 1
        images = [[{} for _ in range(e)] for _ in order]
        for q, row in rows.items():
            for c, y in row.items():
                k, j = divmod(c, m)
                images[k][j][q] = y
        T = self.algebra.structure_table()[1]
        return {p: (imgs, scale * T) for p, imgs, scale in zip(order, images, scales)}

    def images(self, pivots: Sequence[int]) -> list[tuple[list[dict], int]]:
        """ψ_1(x) .. ψ_e(x) and their scale for the shadow rows x at ``pivots``.

        Each image is a dict {index: int}, which stands for its ints over
        the scale (:attr:`_shadow_images`); a row with no V-coordinate has
        empty images over scale 1.
        """
        images, empty = self._shadow_images, ([{} for _ in range(self.algebra.e)], 1)
        return [images.get(p, empty) for p in pivots]

    def int_columns(self) -> tuple[list, int]:
        """The columns of the actions as ints over one scale, read straight off the integer images.

        v_j sends the basis row x to ψ_j(x), which is checked against the
        shadow on its integer rows (:meth:`_check_stable`); the shadow is
        row reduced, so x's column is the image's non-zero entries at the
        pivots.  Over Q each row's images are put over the lcm of the rows'
        scales; over F_p they are residues over 1.  No value is typed.
        """
        if self._int_columns is None:
            self._check_stable()
            p, at = self.field.characteristic, {q: r for r, q in enumerate(self.space.pivots)}
            images = self.images(self.space.pivots)
            scale = 1 if p else lcm(*[s for _, s in images])
            columns: list[list] = [[] for _ in range(self.algebra.e)]
            for imgs, s in images:
                m = scale // s
                for cols, img in zip(columns, imgs):
                    cols.append([(at[q], y % p if p else y * m) for q, y in img.items()
                                 if q in at and (y % p if p else y)])
            self._int_columns = (columns, scale)
        return self._int_columns

    def action_columns(self) -> list[list[list[tuple]]]:
        """The columns of the actions, :meth:`int_columns` typed; no action matrix is built.

        So the Hom systems of a syzygy read the same columns as its built
        actions would give.
        """
        if self._action_columns is None:
            columns, scale = self.int_columns()
            p = self.field.characteristic
            self._action_columns = [[list(zip([r for r, _ in col],
                                              typed_values([y for _, y in col], scale, p)))
                                     for col in cols] for cols in columns]
        return self._action_columns

    def socle_dim(self) -> int:
        """dim soc Ω, read off Φ's integer rows (:attr:`_phi`); no action column is built.

        soc Ω is the kernel of x -> (v_1 x, .., v_e x).  Φ's entry at row q
        and column k·(dim A - 1) + j is ψ_{j+1} at q of the row at
        ``order[k]``, times a scale per k, which moves no rank; the other
        rows have zero images.  So Φ's entries, regrouped into rows keyed
        (q, j) with one column per row in ``order``, have the rank of the
        stacked actions, as Ω embeds in A^t, and the socle has dim Ω less
        that rank.  The shadow is checked first (:meth:`_check_stable`).
        """
        if self._socle_dim is None:
            self._check_stable()
            rows, order, _ = self._phi
            m = self.algebra.dim - 1
            stacked: dict = defaultdict(dict)
            for q, row in rows.items():
                for c, y in row.items():
                    k, j = divmod(c, m)
                    stacked[q, j][k] = y
            self._socle_dim = self.dim - rank(IntRows(self.field, list(stacked.values()),
                                                      len(order)))
        return self._socle_dim

    def top_dim(self) -> int:
        # A radical already read gives the top at once; else Φ is eliminated
        # and no row of its kernel is built.
        return super().top_dim() if self._radical is not None else len(self.cover[0])

    def lift_columns(self) -> list[int]:
        """The basis rows of the top lifts (:meth:`cover`), so no radical is eliminated."""
        row = {p: r for r, p in enumerate(self.space.pivots)}
        return [row[p] for p in self.cover[0]]

    @property
    def cover_kernel(self) -> Subspace:
        """The kernel of the cover, read off the shadow (:meth:`cover`)."""
        return self.cover[1]

    @cached_property
    def cover(self) -> tuple[tuple[int, ...], Subspace]:
        """The top lifts, as pivots of ``space``, and the kernel of the projective cover.

        JΩ is spanned by the images ψ_j(x) of the basis rows x and lies on
        the J^2-coordinates of A^t, so every row at a V-coordinate lifts an
        element of the top, and Φ over those rows has the rank of their
        images' span.  When that rank is the number of rows at
        J^2-coordinates, those rows span JΩ and the V-rows are all the top
        lifts.  Otherwise JΩ is spanned by the images at Φ's pivot columns
        and those of the J^2-rows, whose coordinates are their entries at
        the J^2-rows' pivots once each image is checked against the shadow
        (:meth:`_check_stable`); the free columns of their elimination,
        integer images as they stand, are the J^2-rows that lift the top,
        and Φ is taken again over all the lifts.  The kernel is
        :func:`phi_kernel`'s: its rows are built when first read, so the top
        alone costs one elimination of Φ.
        """
        alg, space = self.algebra, self.space
        e, n = alg.e, alg.dim
        rows, order, scales = self._phi
        lifts = [p for p in space.pivots if p % n <= e]
        t = len(lifts)
        # Rows beyond the V-rows rarely reach a V-coordinate; their columns are dropped.
        kernel = phi_kernel(alg, rows if len(order) == t else lift_rows(rows, order, lifts, n),
                            scales[:t])
        outer = [p for p in space.pivots if p % n > e]
        # kernel.dim is (e·t - rank Φ) + a·t for the t V-rows.
        if (e + alg.a) * t - kernel.dim < len(outer):
            self._check_stable()
            free, at = set(kernel.pivots), {p: c for c, p in enumerate(outer)}
            span = [img for k, (imgs, _) in enumerate(self.images(lifts))
                    for j, img in enumerate(imgs) if k * n + 1 + j not in free]
            span += [img for imgs, _ in self.images(outer) for img in imgs]
            radical = IntRows(alg.field, [{at[q]: y for q, y in img.items() if q in at}
                                          for img in span], len(outer))
            lifts = sorted(lifts + [outer[c] for c in kernel_subspace(radical).pivots])
            scale = dict(zip(order, scales))
            kernel = phi_kernel(alg, lift_rows(rows, order, lifts, n),
                                [scale.get(p, 1) for p in lifts])
        return tuple(lifts), kernel

    def _check_stable(self) -> None:
        """Check the shadow once, on its pivot and integer rows; no typed row is built.

        The shadow must lie in the radical of its free module and hold the
        image of each of its rows (BadParams otherwise), each image checked
        on the integer rows (:meth:`~shortloc.linalg.Subspace.contains_ints`).
        """
        if self._stable:
            return
        space, n = self.space, self.algebra.dim
        if not all(map(n.__rmod__, space.support())):
            raise BadParams("shadow escapes the radical of its free module")
        images = (img for imgs, _ in self._shadow_images.values() for img in imgs)
        if not all(map(space.contains_ints, images)):
            raise BadParams("subspace is not stable under the module action")
        self._stable = True


@record
class Presentation:
    """A projective cover P -> M together with its kernel (first syzygy).

    The kernel is held as a subspace of P, the shadow of the
    :class:`Syzygy` ``kernel``.  The cover's matrix and the kernel's
    embedding are built on first read; no resolution step reads them.
    """

    module: AModule
    cover_rank: int
    _kernel_space: Subspace

    @cached_property
    def kernel(self) -> Syzygy:
        return Syzygy(self.module.algebra, self._kernel_space)

    @cached_property
    def cover_map(self) -> ModuleMap:
        M = self.module
        P = free_module(M.algebra, self.cover_rank)
        return _LazyMap(P, M, lambda: Matrix.from_sparse_columns(M.field, M.dim, _cover_columns(M)))

    @cached_property
    def kernel_embedding(self) -> ModuleMap:
        P = self.cover_map.source
        basis = self._kernel_space.basis
        return ModuleMap(self.kernel, P, Matrix.from_columns(P.field, basis, P.dim))


@record
class BettiTable:
    """Betti numbers t_0..t_N of a module: t_i = dim top of the i-th syzygy."""

    module: AModule
    values: tuple[int, ...]


@record
class BoundedVerdict:
    """Result of a bounded vanishing check.

    ``holds`` means the property was verified for 1 <= i <= bound; a
    failure records the first index where it breaks.  No unbounded
    certification is claimed.
    """

    holds: bool
    bound: int
    failed_at: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


def _cover_rank(M: AModule, cap: int) -> int:
    """t = dim top M, the rank of M's cover, after checking t·dim A against ``cap``."""
    t = M.top_dim()
    if t * M.algebra.dim > cap:
        raise ResourceCapExceeded(t * M.algebra.dim, cap)
    return t


def _cover_columns(M: AModule) -> list:
    """The columns of the cover A^t -> M as (row, value) pairs, copy by copy.

    Copy k sends 1 to the top lift m_k, the unit vector at the k-th free
    column of JM, and the radical basis to its images at m_k
    (:meth:`AModule.top_images`).
    """
    one = M.field.one()
    return [col for c, imgs in zip(M.lift_columns(), M.top_images())
            for col in [[(c, one)], *(img.items() for img in imgs)]]


def projective_cover(M: AModule, cap: int = DEFAULT_CAP) -> Presentation:
    """The projective cover A^t -> M with t = dim top M, and its kernel.

    The kernel is ker Φ, the cover restricted to JA^t (:func:`phi_kernel`),
    which the module keeps (:attr:`AModule.cover_kernel`).  A
    :class:`Syzygy` reads it off its shadow (:meth:`Syzygy.cover`); any
    other module maps its radical basis at the top lifts along its action
    columns (:meth:`AModule.top_images`).  Minimality is checked on the
    kernel's integer pivot rows (:meth:`~shortloc.linalg.Subspace.support`):
    no kernel vector reaches a coordinate of an m_k, so the kernel lies in
    JP.
    """
    n, t = M.algebra.dim, _cover_rank(M, cap)
    ker = M.cover_kernel
    if t * n - ker.dim != M.dim:
        raise InvariantViolation("projective cover is not surjective")
    # Every coordinate a kernel row reaches is a radical one of A^t: none is 0 mod dim A.
    if not all(map(n.__rmod__, ker.support())):
        raise InvariantViolation("cover kernel escapes the radical (not minimal)")
    return Presentation(M, t, ker)


def syzygy(M: AModule, cap: int = DEFAULT_CAP) -> AModule:
    """The first syzygy: kernel of a projective cover of M."""
    return projective_cover(M, cap=cap).kernel


def syzygy_power(M: AModule, n: int, cap: int = DEFAULT_CAP) -> AModule:
    return MinimalResolution(M, cap=cap).syzygy_module(n)


def betti(M: AModule, n: int, cap: int = DEFAULT_CAP) -> BettiTable:
    """Betti numbers t_0..t_n of M along the minimal resolution."""
    if n < 0:
        raise BadParams(f"n must be at least 0, got {n}")
    res = MinimalResolution(M, cap=cap)
    return BettiTable(module=M, values=tuple(res.rank(i) for i in range(n + 1)))


class MinimalResolution:
    """Lazily extended minimal projective resolution of a module.

    Step i is the projective cover of the i-th syzygy.  A syzygy's top is
    read off its shadow (:meth:`Syzygy.cover`): t_n costs one elimination
    of the n-th syzygy's Φ, with no :func:`projective_cover` of it and no
    row of its kernel built, and no step builds a syzygy's action matrices.
    """

    def __init__(self, M: AModule, cap: int = DEFAULT_CAP):
        self.module = M
        self.cap = cap
        self.steps: list[Presentation] = []

    def extend_to(self, depth: int) -> None:
        """Ensure presentations of the syzygies up to index ``depth``."""
        while len(self.steps) <= depth:
            cur = self.syzygy_module(len(self.steps))
            self.steps.append(projective_cover(cur, cap=self.cap))

    def rank(self, i: int) -> int:
        """t_i, the top dimension of the i-th syzygy (no presentation of it needed)."""
        return self.syzygy_module(i).top_dim()

    def syzygy_module(self, i: int) -> AModule:
        if i == 0:
            return self.module
        self.extend_to(i - 1)
        return self.steps[i - 1].kernel

    def boundary_int_rows(self, j: int) -> list[tuple[tuple, tuple, int]]:
        """The map P_j -> P_{j-1} as integer rows: row l is d(unit_l), (indices, values, scale).

        The cover P_j -> Omega^j sends unit_l to the l-th top lift, a row of
        the shadow of Omega^j in P_{j-1}, read off the shadow's integer rows
        (:meth:`~shortloc.linalg.Subspace.int_rows`) with no scalar built.
        Their entries lie in the radical (minimality).
        """
        if j < 1:
            raise ValueError("boundaries start at index 1")
        self.extend_to(j)
        syz = self.steps[j - 1].kernel
        rows = syz.space.int_rows()
        return [rows[q] for q in syz.cover[0]]

    def boundary_rows(self, j: int) -> list[tuple[tuple, tuple]]:
        """The map P_j -> P_{j-1} as sparse rows: row l is d(unit_l), as (indices, values).

        Only the top lifts' integer rows (:meth:`boundary_int_rows`) are converted.
        """
        p = self.module.field.characteristic
        return [(idx, typed_values(vals, scale, p))
                for idx, vals, scale in self.boundary_int_rows(j)]

    def boundary_elements(self, j: int) -> list[list[tuple]]:
        """The map P_j -> P_{j-1} as a matrix of algebra elements.

        Entry [l][k] is the element g with d(unit_l) having k-th component
        g (:meth:`boundary_rows`, laid out densely).
        """
        rows = self.boundary_rows(j)
        n, t_prev = self.module.algebra.dim, self.steps[j - 1].cover_rank
        zero = self.module.field.zero()
        out = []
        for idx, vals in rows:
            elements = [[zero] * n for _ in range(t_prev)]
            for c, x in zip(idx, vals):
                elements[c // n][c % n] = x
            out.append([tuple(g) for g in elements])
        return out


def _hom_complex_matrix(res: MinimalResolution, N: AModule, j: int) -> IntRows:
    """Hom(P_{j-1}, N) -> Hom(P_j, N) under Hom(A^t, N) = N^t, as integer rows.

    Row l·dim N + r is row r of the action of d_j(unit_l), the l-th top
    lift of the j-th syzygy, on N^{t_{j-1}} (:func:`relation_equations`),
    and column s·t_{j-1} + k is entry s of the image of copy k.
    The lifts' integer rows (:meth:`MinimalResolution.boundary_int_rows`)
    are put over the lcm of their scales, so the whole matrix is one
    multiple of the one meant: it has the same rank and column span.
    """
    lifts = res.boundary_int_rows(j)
    scale = lcm(*[s for _, _, s in lifts])
    relations = [(idx, vals if s == scale else [x * (scale // s) for x in vals])
                 for idx, vals, s in lifts]
    return relation_equations(N, relations, res.steps[j - 1].cover_rank)


def _ext_sequence(res: MinimalResolution, N: AModule) -> Iterator[int]:
    """dim Ext^0(M, N), dim Ext^1(M, N), ... from the Hom-complex of ``res``.

    Ext^i = t_i dim N - rank d_{i+1}* - rank d_i*, so Ext^i reads the
    resolution up to the cover of the (i+1)-st syzygy and no further.
    """
    prev = 0
    for i in count():
        cur = rank(_hom_complex_matrix(res, N, i + 1))
        val = res.rank(i) * N.dim - cur - prev
        if val < 0:
            raise InvariantViolation("negative Ext dimension; resolution is inconsistent")
        yield val
        prev = cur


def ext_dims(M: AModule, N: AModule, imax: int, cap: int = DEFAULT_CAP) -> list[int]:
    """Dimensions of Ext^0..Ext^imax(M, N) from the minimal resolution."""
    if imax < 0:
        raise BadParams(f"Ext index must be at least 0, got {imax}")
    if M.algebra != N.algebra:
        raise AlgebraMismatch("Ext requires modules over the same algebra")
    if M.dim == 0 or N.dim == 0:
        return [0] * (imax + 1)
    return list(islice(_ext_sequence(MinimalResolution(M, cap=cap), N), imax + 1))


def ext_dim(M: AModule, N: AModule, i: int, cap: int = DEFAULT_CAP) -> int:
    """dim Ext^i(M, N); Ext^0 is Hom(M, N)."""
    return ext_dims(M, N, i, cap=cap)[i]


# -- the dual side: Hom(M, A) and everything read from it ---------------


@record
class ApproximationData:
    """A minimal left approximation u: M -> A^z and its cokernel."""

    approximation: ModuleMap
    rank: int
    cokernel: AModule
    injective: bool


@record
class DualData:
    """Hom(M, A) with its right A-action: the one engine of the dual side.

    ``homs`` is Hom(M, A), solved once per module (:func:`dual_data`); the dual
    module's coordinates refer to its basis.  Every route reads the maps
    as the sparse rows of ``homs.flat``, their row-major flattenings, so
    no map matrix is built.  The dual module, the torsionless and
    reflexive verdicts, the evaluation map and the minimal left
    approximation with its cokernel are built on first read; M* and the
    torsionless verdict are kept on M, so each is built once per module.
    """

    homs: HomSpace

    @cached_property
    def _right(self) -> list:
        """Right multiplication by v_1..v_e as columns on a map's row-major flattening.

        It is the regular action R of v_i in A^op, which acts on the
        flattening of a dim A x dim M matrix as R ⊗ 1: column s·dim M + c
        holds (r·dim M + c, x) for each (r, x) in R's column s.
        """
        d = self.homs.source.dim
        return [[[(r * d + c, x) for r, x in col] for col in cols for c in range(d)]
                for cols in self.homs.source.algebra.opposite().regular_columns()]

    @property
    def module(self) -> AModule:
        """M* = Hom(M, A) as a left module over the opposite algebra, kept on M.

        The images of the basis rows of ``homs.flat`` along :attr:`_right`
        (:func:`vector_images`) give the columns at its pivots.
        """
        M = self.homs.source
        if M._dual_module is None:
            op, flat = M.algebra.opposite(), self.homs.flat
            images = vector_images(self._right, flat.sparse_rows().values())
            M._dual_module = module_from_columns(op, flat.dim, pivot_columns(flat, images, op.e))
        return M._dual_module

    @property
    def torsionless(self) -> bool:
        """The maps into A separate points of M: their int rows (``homs.flat``) have rank dim M.

        The verdict is kept on M.
        """
        M = self.homs.source
        if M._torsionless is None:
            d, rows = M.dim, defaultdict(dict)
            for q, (idx, vals, _) in self.homs.flat.int_rows().items():
                for j, x in zip(idx, vals):
                    s, c = divmod(j, d)
                    rows[q, s][c] = x
            M._torsionless = rank(IntRows(M.field, list(rows.values()), d)) == d
        return M._torsionless

    @cached_property
    def evaluation(self) -> ModuleMap:
        """The evaluation map M -> M**, ev(m)(f) = f(m).

        ev(e_c) is the map M* -> A^op sending the j-th basis map f_j to
        f_j(e_c), so entry s·h + j of its flattening (h = dim M*) is entry
        s·dim M + c of the j-th row of ``homs.flat``.  It must lie in the
        bidual's ``flat``; its coordinates are its entries at the pivots.
        """
        M, flat = self.homs.source, self.homs.flat
        d, h, zero = M.dim, flat.dim, M.field.zero()
        bidual = dual_data(self.module)
        evs: list[dict] = [{} for _ in range(d)]
        for j, (idx, vals) in enumerate(flat.sparse_rows().values()):
            for i, x in zip(idx, vals):
                s, c = divmod(i, d)
                evs[c][s * h + j] = x
        space = bidual.homs.flat
        if not all(space.contains(ev) for ev in evs):
            raise InvariantViolation("the evaluation of M leaves Hom(M*, A)")
        cols = [[ev.get(p, zero) for p in space.pivots] for ev in evs]
        return ModuleMap(M, bidual.module, Matrix.from_columns(M.field, cols, bidual.module.dim))

    @property
    def reflexive(self) -> bool:
        """The evaluation map M -> M** is bijective, decided by dimension.

        ev is injective iff M is torsionless, so it is bijective iff M is
        torsionless and dim M** = dim Hom(M*, A^op) (:func:`hom_dim`) is
        dim M; no bidual basis and no evaluation matrix is built.
        """
        M, op = self.homs.source, self.homs.source.algebra.opposite()
        return self.torsionless and hom_dim(self.module, left_regular_module(op)) == M.dim

    @cached_property
    def approximation(self) -> ApproximationData:
        """The minimal left approximation u: M -> A^z and its cokernel.

        The rank z is the dimension of the top of M*, whose top lifts are
        unit vectors, so u stacks the basis maps g_k at its lift columns:
        entry s·dim M + c of g_k's flat row is entry (k·dim A + s, c) of u.
        A factoring certificate checks that every map M -> A factors
        through u: the closure of the g_k along :attr:`_right`
        (:func:`~shortloc.modules.generated_span`) spans the g_k·b for b in
        A, and must hold every row of ``homs.flat``.
        """
        M, flat = self.homs.source, self.homs.flat
        n, d, rows = M.algebra.dim, M.dim, flat.sparse_rows()
        gs = [rows[flat.pivots[q]] for q in self.module.lift_columns()]
        columns: list[list] = [[] for _ in range(d)]
        for k, (idx, vals) in enumerate(gs):
            for i, x in zip(idx, vals):
                s, c = divmod(i, d)
                columns[c].append((k * n + s, x))
        P = free_module(M.algebra, len(gs))
        u = ModuleMap(M, P, Matrix.from_sparse_columns(M.field, P.dim, columns))
        closure = generated_span(M.field, n * d, self._right, gs)
        if not all(closure.contains(dict(zip(*row))) for row in rows.values()):
            raise InvariantViolation("left approximation fails its factoring certificate")
        img = Subspace.from_vectors(M.field, P.dim, map(dict, columns))
        return ApproximationData(approximation=u, rank=len(gs), cokernel=quotient(P, img)[0],
                                 injective=img.dim == d)


def dual_data(M: AModule) -> DualData:
    """Hom(M, A), solved once per module; everything on the dual side reads it.

    M keeps the solved flat rows (``AModule._dual_flat``), M* and the
    torsionless verdict, none of which refers back to M, but not a DualData,
    which does; each call wraps the rows in a new DualData.
    """
    A = left_regular_module(M.algebra)
    if M._dual_flat is None:
        M._dual_flat = hom_space(M, A).flat
    return DualData(HomSpace(M, A, M._dual_flat))


def a_dual(M: AModule) -> AModule:
    """M* = Hom(M, A) with its right A-action, as a module over A^op."""
    return dual_data(M).module


def eval_map(M: AModule) -> ModuleMap:
    """The evaluation map M -> M**, ev(m)(f) = f(m)."""
    return dual_data(M).evaluation


def is_torsionless(M: AModule) -> bool:
    """True iff the evaluation map M -> M** is injective.

    Equivalently, the homomorphisms into A jointly separate points.
    """
    return dual_data(M).torsionless


def is_reflexive(M: AModule) -> bool:
    """True iff the evaluation map M -> M** is bijective."""
    return dual_data(M).reflexive


def minimal_left_approximation(M: AModule) -> tuple[ModuleMap, int]:
    """Left approximation of M into a minimal number of copies of A."""
    step = dual_data(M).approximation
    return step.approximation, step.rank


def mho_step(M: AModule) -> ApproximationData:
    """One cosyzygy step: cokernel of the minimal left approximation.

    When M is torsionless the cokernel is the cosyzygy in the exact
    sequence 0 -> M -> A^z -> mho M -> 0; otherwise ``injective`` is false.
    """
    return dual_data(M).approximation


def transpose(M: AModule, cap: int = DEFAULT_CAP) -> AModule:
    """The transpose: cokernel of the dualized minimal presentation.

    From the minimal presentation A^{t_1} -> A^{t_0} -> M -> 0, dualizing
    gives d_1^*: Hom(A^{t_0}, A) -> Hom(A^{t_1}, A) of the Hom-complex; the
    transpose is its cokernel, realized as a module over the opposite algebra.
    """
    return _transpose(MinimalResolution(M, cap=cap))


def _transpose(res: MinimalResolution) -> AModule:
    """The transpose of the resolved module, read off the resolution's first two steps."""
    alg = res.module.algebra
    op = alg.opposite()
    t1 = res.module.dim and res.rank(1)
    if t1 == 0:
        return zero_module(op)
    # The image of d_1^* is spanned by the columns of its integer rows, one
    # multiple of the map's.
    columns: dict = defaultdict(dict)
    for r, row in enumerate(_hom_complex_matrix(res, left_regular_module(alg), 1).data):
        for c, x in row.items():
            columns[c][r] = x
    F1 = free_module(op, t1)
    image = IntRows(alg.field, list(columns.values()), F1.dim)
    tr, _ = quotient(F1, Subspace.from_vectors(alg.field, F1.dim, image))
    return tr


# -- stable homs and Gorenstein-style predicates ------------------------


def stable_hom_dim(M: AModule, N: AModule, cap: int = DEFAULT_CAP) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective.

    A map factors through some projective iff it factors through the
    projective cover A^t -> N, so the factoring subspace is the image of
    composition with that cover; a map into A^t is t maps into A, so the
    basis of Hom(M, A) composed with each column block of the cover spans it.
    dim Hom(M, N) is a rank (:func:`hom_dim`), so Hom(M, A) is the one Hom
    basis solved.  Composing with a block B acts on a map's row-major
    flattening as B ⊗ 1, so the images of the rows of ``homs.flat`` are
    read along the block's columns (:func:`vector_images`), as
    :class:`DualData` reads the right action.
    Block k sends 1 to the top lift m_k and the radical basis to its images
    at m_k, the cover's sparse columns (:func:`_cover_columns`), so no
    cover matrix and no cover kernel is formed; the cap on t·dim A is the
    one :func:`projective_cover` checks (:func:`_cover_rank`).
    """
    dim = hom_dim(M, N)
    if not dim:
        return 0
    n, d, t, cover = M.algebra.dim, M.dim, _cover_rank(N, cap), _cover_columns(N)
    blocks = [[[(s * d + c, x) for s, x in cover[k * n + r]] for r in range(n) for c in range(d)]
              for k in range(t)]
    images = vector_images(blocks, dual_data(M).homs.flat.sparse_rows().values())
    factoring = Subspace.from_vectors(M.field, N.dim * d, (img for row in images for img in row))
    return dim - factoring.dim


def is_semi_gp(M: AModule, bound: int = DEFAULT_BOUND, cap: int = DEFAULT_CAP) -> BoundedVerdict:
    """Bounded check that Ext^i(M, A) = 0 for 1 <= i <= bound.

    The scan stops at the first non-vanishing group, so modules that fail
    early never build the deep (often exponentially large) resolution.
    """
    return _semi_gp_scan(MinimalResolution(M, cap=cap), bound)


def _semi_gp_scan(res: MinimalResolution, bound: int) -> BoundedVerdict:
    """Ext^i(M, A) = 0 for 1 <= i <= bound along ``res``, stopping at the first that is not."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if res.module.dim == 0:
        return BoundedVerdict(True, bound)
    exts = _ext_sequence(res, left_regular_module(res.module.algebra))
    for i, val in enumerate(islice(exts, bound + 1)):
        if i and val:
            return BoundedVerdict(False, bound, failed_at=i)
    return BoundedVerdict(True, bound)


def is_inf_torsionfree(M: AModule, bound: int = DEFAULT_BOUND,
                       cap: int = DEFAULT_CAP) -> BoundedVerdict:
    """Bounded check that the transpose is semi-Gorenstein-projective.

    The transpose lives over the opposite algebra; the Ext-vanishing is
    checked there.
    """
    tr = transpose(M, cap=cap)
    return is_semi_gp(tr, bound=bound, cap=cap)


def is_gp(M: AModule, bound: int = DEFAULT_BOUND, cap: int = DEFAULT_CAP) -> BoundedVerdict:
    """Bounded Gorenstein-projectivity: semi-GP and infinity-torsionfree.

    One resolution of M serves the semi-GP scan and then the transpose.
    """
    res = MinimalResolution(M, cap=cap)
    semi = _semi_gp_scan(res, bound)
    return is_semi_gp(_transpose(res), bound=bound, cap=cap) if semi else semi
