"""Projective covers, syzygies, approximations, duals, transpose and Ext.

Everything here works with minimal constructions: projective covers lift a
basis of the top, so kernels are first syzygies.  :func:`resolution` is
the single engine that walks syzygies, one step at a time and keeping none
it has passed, yielding a step whose kernel repeats its module again
with no new cover (:func:`_repeats`): syzygy powers and orbit walks read
its modules, and Ext groups are read off the Homs out of its syzygies,
which land in ann_N(J^2) as J^2 kills a syzygy (:func:`_ext_sequence`).  Betti
numbers are read along a walk that keeps one rung and splits S off S's rungs
(:func:`betti`).  No Hom-complex is built: the image of the transpose's
d_1^* is the right submodule generated by the components of Ω^1's top
lifts, read off its integer shadow rows over one scale and spanned as
every generated submodule is (:func:`~shortloc.modules.generated_span`),
and the stable Hom is three Hom dimensions, read off the target's cover
(:func:`stable_hom_dim`).  The ∞-torsionfree scan starts at Ω^1 Tr M,
that image (:func:`_transpose_syzygy`), and forms no transpose; over a
self-injective algebra it and the semi-GP scan hold with no cover.
:class:`DualData` is the single engine of the dual side: Hom(M, A), solved
once per module, serves the dual module, the torsionless and reflexive
verdicts, the evaluation map and the minimal left approximation with its
cokernel (the cosyzygy), each built on first read from the sparse rows of
the maps' flattenings, with no map matrix.

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
shadow is checked stable, and only the images at Φ's pivot columns and
those of the J^2-rows are eliminated again.  The check maps no image
when the shadow holds J^2 A^t, read off its pivot form: every image lies
in J·JA^t = J^2 A^t.  Any other shadow has its images, read off the same
Φ, checked against it on its integer rows.  The images are Φ transposed,
one pass over its entries (:meth:`Syzygy.images`), and give the integer
columns of its actions (:meth:`Syzygy.int_columns`), by which it is held
as every engine-built module is.
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
with no radical eliminated.  A syzygy's action matrices and a cover's
matrix (from the integer images, :func:`_cover_columns`) are built only
when a caller reads them.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, islice, repeat
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from ._record import cached_property, record
from .algebra import ShortAlgebra
from .errors import AlgebraMismatch, BadParams, InvariantViolation, ResourceCapExceeded
from .linalg import IntRows, Matrix, Subspace, kernel_subspace, lead_multiples, rank, typed_values
from .modules import (AModule, HomSpace, ModuleMap, _LazyMap, _row_images, _typed, free_module,
                      generated_span, hom_dim, hom_space, left_regular_module,
                      module_from_columns, pivot_columns, quotient, zero_module)

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
    times ``scales[k]`` = L·σ_f (:func:`~shortloc.linalg.lead_multiples`),
    as :func:`~shortloc.linalg.pivot_relations` scales x but inside the one
    loop, and times the table's scale, common to all of Φ and left out.
    ``order`` lists the rows at V-coordinates, in increasing order, then
    the other rows that reach a V-coordinate, as met.
    """
    (table, _), n, e = alg.structure_table(), alg.dim, alg.e
    piv, free, at, sigma = form
    first = {}
    for f in free:
        if at[f] % n <= e:
            first[f] = len(first) * (n - 1)
    mult = lead_multiples(piv)
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
    scales, divided by their gcd, which moves no kernel, ride on Φ's
    columns (:class:`~shortloc.linalg.IntRows`) and are folded back only
    when the kernel's rows are built; so a ladder's column scales do not
    compound from rung to rung.  A zero image, as
    every w-image is when J^2 N = 0, is an empty column, free with its unit
    vector as kernel vector.
    This is the whole cover's kernel: a reduced basis depends only on the
    subspace and the column order, and the columns of the m_k are
    independent of the rest.  Φ is eliminated at once; the rows are
    embedded in A^t as they are built (:func:`kernel_subspace` with
    ``at``), on first read.
    """
    n, t, g = alg.dim, len(scales), gcd(*scales)
    at = [k * n + u for k in range(t) for u in range(1, n)]
    column_scales = None
    if any(scale != g for scale in scales):
        column_scales = [scale // g for scale in scales for _ in range(1, n)]
    return kernel_subspace(IntRows(alg.field, list(rows.values()), len(at), column_scales),
                           at=at, ambient=n * t)


class Syzygy(AModule):
    """The kernel of a projective cover A^t -> M, held by its shadow.

    ``space`` is the shadow: the kernel's reduced basis as sparse rows in the
    coordinates of A^t, which fix the module's basis.  J^2 kills the kernel
    (minimality), so the images ψ_j(x) of its basis rows give its top and
    its own cover, one kernel of the big Φ (:meth:`cover`), its socle
    (:meth:`socle_dim`, a rank of Φ's entries), and the integer columns of
    its actions (:meth:`int_columns`), which its radical and Hom systems
    read.  The cover keeps the top lifts with Φ's kernel, eliminated once:
    the top is read off it with no kernel row built, and the rows are built,
    in A^t, when first read.  A ladder reads only the shadow's integer pivot
    rows, mapped once into Φ over all its rows (:func:`shadow_rows`), which
    the cover, the socle and the integer columns share; the images are Φ
    transposed (:meth:`images`), and the action matrices are made from the
    integer columns only when a caller reads them.
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

        v_j sends the basis row x to ψ_j(x) (:meth:`images`); the shadow
        must lie in the radical of its free module, and :func:`pivot_columns`
        checks each image against the shadow and reads x's column off it.
        """
        if self._int_columns is None:
            self._check_support()
            space, p = self.space, self.field.characteristic
            self._int_columns = pivot_columns(space, self.images(space.pivots), self.algebra.e, p)
            self._stable = True
        return self._int_columns

    def socle_dim(self) -> int:
        """dim soc Ω, read off Φ's integer rows (:attr:`_phi`); no action column is built.

        soc Ω is the kernel of x -> (v_1 x, .., v_e x).  Φ's entry at row q
        and column k·(dim A - 1) + j is ψ_{j+1} at q of the row at
        ``order[k]``, times a scale per k, which moves no rank; the other
        rows have zero images.  So Φ's entries, regrouped into rows keyed
        (q, j) with one column per row in ``order``, have the rank of the
        stacked actions, as Ω embeds in A^t, and the socle has dim Ω less
        that rank.  The shadow is checked first (:meth:`_check_stable`),
        which maps no image when the shadow holds J^2 A^t.
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
        the J^2-rows' pivots once the shadow is checked stable
        (:meth:`_check_stable`, by its pivot form alone when it holds
        J^2 A^t); the free columns of their elimination,
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

    def _check_support(self) -> None:
        """BadParams unless the shadow lies in the radical of its free module."""
        if not all(map(self.algebra.dim.__rmod__, self.space.support())):
            raise BadParams("shadow escapes the radical of its free module")

    def _check_stable(self) -> None:
        """Check the shadow once, on its pivot and integer rows; no typed row is built.

        The shadow must lie in the radical of its free module and hold the
        image of each of its rows (BadParams otherwise).  No image is mapped
        when the shadow holds J^2 A^t (:meth:`_holds_j2`): it lies in JA^t,
        so every image lies in J·JA^t = J^2 A^t.  Any other shadow has each
        image checked on the integer rows
        (:meth:`~shortloc.linalg.Subspace.contains_ints`).
        """
        if self._stable:
            return
        self._check_support()
        if not self._holds_j2():
            images = (img for imgs, _ in self._shadow_images.values() for img in imgs)
            if not all(map(self.space.contains_ints, images)):
                raise BadParams("subspace is not stable under the module action")
        self._stable = True

    def _holds_j2(self) -> bool:
        """The shadow holds J^2 A^t, read off its pivot form: each W-coordinate of A^t
        is a kernel pivot whose column lies in no pivot row of Φ, so its row is the unit
        vector there."""
        (piv, free, at, _), alg = self.space.pivot_form(), self.algebra
        units = {f for f in free if at[f] % alg.dim > alg.e}
        return len(units) == alg.a * (self.space.ambient // alg.dim) and \
            all(map(units.isdisjoint, piv.values()))


@record
class Presentation:
    """A projective cover P -> M together with its kernel (first syzygy).

    The kernel is held as a subspace of P, the shadow of the
    :class:`Syzygy` ``kernel``.  The cover's matrix is built on first
    read; no resolution step reads it.
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


def _cover_columns(M: AModule) -> list:
    """The columns of the cover A^t -> M as typed (row, value) pairs, copy by copy.

    Copy k sends 1 to the top lift m_k, the unit vector at c_k
    (:meth:`AModule.lift_columns`), and the radical basis to its images at
    m_k, the integer images (:meth:`AModule.int_images`), typed as the
    action matrices are (:func:`~shortloc.linalg.typed_values`).  Only
    :attr:`Presentation.cover_map` reads them, when its matrix is read.
    """
    one, p, lifts = M.field.one(), M.field.characteristic, M.lift_columns()
    images, scale = M.int_images(lifts)
    return [col for c, imgs in zip(lifts, images) for col in [[(c, one)], *(
        zip([r for r, _ in img], typed_values([y for _, y in img], scale, p)) for img in imgs)]]


def projective_cover(M: AModule, cap: int = DEFAULT_CAP) -> Presentation:
    """The projective cover A^t -> M with t = dim top M, t·dim A at most ``cap``, and its kernel.

    The kernel is ker Φ, the cover restricted to JA^t (:func:`phi_kernel`),
    which the module keeps (:attr:`AModule.cover_kernel`).  A
    :class:`Syzygy` reads it off its shadow (:meth:`Syzygy.cover`); any
    other module maps its radical basis at the top lifts along its integer
    action columns (:meth:`AModule.int_images`).  Minimality is checked on the
    kernel's integer pivot rows (:meth:`~shortloc.linalg.Subspace.support`):
    no kernel vector reaches a coordinate of an m_k, so the kernel lies in
    JP.
    """
    n, t = M.algebra.dim, M.top_dim()
    if t * n > cap:
        raise ResourceCapExceeded(t * n, cap)
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
    """Ω^n M, the kernel of step n - 1 of M's resolution; Ω^0 M is M."""
    if n < 0:
        raise BadParams(f"n must be at least 0, got {n}")
    return next(islice(resolution(M, cap=cap), n - 1, None)).kernel if n else M


def _repeats(X: AModule, kernel: Subspace) -> bool:
    """X is a syzygy whose cover kernel is its own shadow: Ω X = X, so every later step is X's.

    Both must lie in one A^t with one pivot form (piv, free, at, scales):
    then they are one submodule of one A^t, and each later step is a
    function of it.  So a fixed point whose pivot form moves is missed, and
    none is invented.  This is the one test of a repeated rung.
    """
    return isinstance(X, Syzygy) and kernel.ambient == X.space.ambient and \
        kernel.pivot_form() == X.space.pivot_form()


def resolution(M: AModule, cap: int = DEFAULT_CAP) -> Iterator[Presentation]:
    """The minimal resolution of M, one step at a time: step i is the cover of Ω^i M.

    Ω^{i+1} M is step i's kernel.  A step is formed only when it is read,
    and the walk holds no step before the last one it formed.  A step
    whose kernel repeats its module (:func:`_repeats`) is yielded again,
    the same object, from then on, with no new cover.
    """
    while True:
        step = projective_cover(M, cap=cap)
        yield step
        if _repeats(M, step._kernel_space):
            yield from repeat(step)
        M = step.kernel


def betti(M: AModule, n: int, cap: int = DEFAULT_CAP) -> BettiTable:
    """Betti numbers t_0..t_n of M, along a walk X_0 = M, X_{i+1} = Ω(X_i') that keeps one rung.

    Rungs 0..n-1 get one :func:`projective_cover` each, after the full
    t_i·dim A is checked against ``cap``.  For M simple and i >= 1,
    X_i = X_i' ⊕ S^{w_i} (:func:`_split`), so t_i = top X_i + Σ_j w_j·t_{i-j}.
    Any other M walks unsplit: its S summands would need S's own covers.
    Not :func:`resolution`: this walk sheds S's copies, caps the full t_i and covers no rung n.
    """
    if n < 0:
        raise BadParams(f"n must be at least 0, got {n}")
    alg, X, values, split = M.algebra, M, [], []
    for i in range(n + 1):
        values.append(X.top_dim() + sum(w * values[i - j] for j, w in split))
        if i == n:
            break
        if values[i] * alg.dim > cap:
            raise ResourceCapExceeded(values[i] * alg.dim, cap)
        kernel = projective_cover(X, cap=cap)._kernel_space
        copies, kernel = _split(X) if i and M.dim == 1 else ([], kernel)
        split += [(i, len(copies))] if copies else []
        X = Syzygy(alg, kernel)
    return BettiTable(module=M, values=tuple(values))


def _split(X: Syzygy) -> tuple[list[int], Subspace]:
    """The copies k of X's cover split off as S, and Ω(X') for X' what is left.

    They are the top lifts m_k with an empty block of Φ, so J m_k = 0 and
    k·m_k is a summand (Nakayama): the blocks that no pivot row of the
    cover kernel reaches, so all their columns are free.  Ω(X') is the
    kernel, re-indexed.
    """
    alg, (lifts, kernel) = X.algebra, X.cover
    (piv, free, at, scales), n, m = kernel.pivot_form(), alg.dim, alg.dim - 1
    kept = sorted({c // m for row in piv.values() for c in row})
    if len(kept) == len(lifts):
        return [], kernel
    copies, moved = sorted(set(range(len(lifts))).difference(kept)), [None] * len(at)
    for i, k in enumerate(kept):
        moved[k * m:(k + 1) * m] = range(i * n + 1, (i + 1) * n)
    free = [f for f in free if moved[f] is not None]
    if kernel.dim - len(free) != len(copies) * m:
        raise InvariantViolation("a simple copy's columns are not all free")
    return copies, Subspace.from_pivot_rows(alg.field, n * len(kept), piv, free, moved, scales)


def _ext_sequence(steps: Iterable[Presentation], N: AModule) -> Iterator[int]:
    """dim Ext^0(M, N), dim Ext^1(M, N), ... from h_i = dim Hom(Ω^i M, N), along M's ``steps``.

    Hom(-, N) is left exact on P_i -> P_{i-1} -> Ω^{i-1} -> 0, and
    Ext^i(M, N) = Ext^1(Ω^{i-1}, N), so Ext^0 = h_0 (:func:`hom_dim`) and
    Ext^i = h_i + h_{i-1} - t_{i-1}·dim N for i >= 1: only (h_{i-1}, t_{i-1})
    is kept from the step before.  Then J^2 kills
    Ω = Ω^i M, so every map Ω -> N lands in N' = ann_N(J^2), and J^2 N' = 0:
    the map's parts in JN' at the top lifts m_k are free, and its parts
    g0(m_k) in top N' must meet Σ λ_{k,j}·v_j·g0(m_k) = 0 for every relation
    λ among the v_j·m_k, the V-rows of Ω's cover kernel, read off its pivot
    form.  So h_i is t_i·dim N' less a rank (:func:`hom_dim`, by
    :func:`~shortloc.modules._top_equations`), and Ext^i reads the covers of
    Ω^0..Ω^i and no further.  A step read again, as :func:`resolution`
    yields a repeated rung, keeps its Hom dimension: h_i is h_{i-1} and
    no system is ranked.
    """
    h = t = 0
    last = None
    for step in steps:
        prev, h = h, h if step is last else hom_dim(step.module, N)
        if h + prev < t * N.dim:
            raise InvariantViolation("negative Ext dimension; resolution is inconsistent")
        yield h + prev - t * N.dim
        t, last = step.cover_rank, step


def ext_dims(M: AModule, N: AModule, imax: int, cap: int = DEFAULT_CAP) -> list[int]:
    """Dimensions of Ext^0..Ext^imax(M, N) from the minimal resolution."""
    if imax < 0:
        raise BadParams(f"Ext index must be at least 0, got {imax}")
    if M.algebra != N.algebra:
        raise AlgebraMismatch("Ext requires modules over the same algebra")
    if M.dim == 0 or N.dim == 0:
        return [0] * (imax + 1)
    return list(islice(_ext_sequence(resolution(M, cap=cap), N), imax + 1))


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
    def _right(self) -> tuple[list, int]:
        """(columns, scale): right multiplication by v_1..v_e on a map's row-major flattening.

        It is the regular action R of v_i in A^op, as integer columns over
        one scale, which acts on the flattening of a dim A x dim M matrix as
        R ⊗ 1: column s·dim M + c holds (r·dim M + c, x) for each (r, x) in
        R's column s.
        """
        d = self.homs.source.dim
        columns, scale = self.homs.source.algebra.opposite().regular_columns()
        return [[[(r * d + c, x) for r, x in col] for col in cols for c in range(d)]
                for cols in columns], scale

    @property
    def module(self) -> AModule:
        """M* = Hom(M, A) as a left module over the opposite algebra, kept on M.

        The images of the integer rows of ``homs.flat`` along :attr:`_right`
        give its integer columns at the pivots (:func:`pivot_columns`).
        """
        M = self.homs.source
        if M._dual_module is None:
            op, flat = M.algebra.opposite(), self.homs.flat
            columns, scale = pivot_columns(flat, _row_images(*self._right, flat), op.e,
                                           M.field.characteristic)
            M._dual_module = module_from_columns(op, flat.dim, columns, scale)
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
        Its columns u(e_c) are read off the lift rows' integer rows
        (``homs.flat.int_rows()``), put over the lcm of their scales, and
        span u's image as one :class:`~shortloc.linalg.IntRows`; u's matrix
        is typed from them on first read.  A factoring certificate checks
        that every map M -> A factors through u: the closure of the g_k's
        integer rows along :attr:`_right`
        (:func:`~shortloc.modules.generated_span`) spans the g_k·b for b in
        A, and must hold every integer row of ``homs.flat``.
        """
        M, flat = self.homs.source, self.homs.flat
        n, d, ints = M.algebra.dim, M.dim, flat.int_rows()
        lifts = [flat.pivots[q] for q in self.module.lift_columns()]
        scale = lcm(*[ints[q][2] for q in lifts])
        columns: list[dict] = [{} for _ in range(d)]
        for k, q in enumerate(lifts):
            idx, vals, sq = ints[q]
            for i, x in zip(idx, vals):
                s, c = divmod(i, d)
                columns[c][k * n + s] = x * (scale // sq)
        P, p = free_module(M.algebra, len(lifts)), M.field.characteristic
        u = _LazyMap(M, P, lambda: Matrix.from_sparse_columns(
            M.field, P.dim, [_typed(col.items(), scale, p) for col in columns]))
        closure = generated_span(M.field, n * d, self._right[0], [ints[q][:2] for q in lifts])
        if not all(closure.contains_ints(dict(zip(idx, vals))) for idx, vals, _ in ints.values()):
            raise InvariantViolation("left approximation fails its factoring certificate")
        img = Subspace.from_vectors(M.field, P.dim, IntRows(M.field, columns, P.dim))
        return ApproximationData(approximation=u, rank=len(lifts), cokernel=quotient(P, img)[0],
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


def _dual_presentation(M: AModule, cap: int) -> Optional[tuple[AModule, int, Subspace]]:
    """(F_1, dim Ω^1 M, U) for M's minimal presentation A^{t_1} -> A^{t_0} -> M; None if t_1 = 0.

    U, the image of d_1^* in F_1 = (A^op)^{t_1}, is the right submodule the
    k-th components of Ω^1's top lifts (integer shadow rows over their lcm
    scale) generate, spanned along F_1's integer columns as A^op acts on the
    left (:func:`~shortloc.modules.generated_span`).  Ω^1's cover checks
    t_1·dim A against the cap.  Minimality puts U in JF_1.
    """
    alg, steps = M.algebra, resolution(M, cap=cap)
    t1 = M.dim and (syz := next(steps).kernel).top_dim()
    if t1 == 0:
        return None
    next(steps)
    n, rows = alg.dim, syz.space.int_rows()
    lifts = [rows[q] for q in syz.cover[0]]
    scale = lcm(*[s for _, _, s in lifts])
    x: dict = defaultdict(dict)
    for l, (idx, vals, s) in enumerate(lifts):
        for i, y in zip(idx, vals):
            k, b = divmod(i, n)
            x[k][l * n + b] = y * (scale // s)
    F1 = free_module(alg.opposite(), t1)
    image = generated_span(alg.field, F1.dim, F1.int_columns()[0],
                           [(v.keys(), v.values()) for v in x.values()])
    if not all(i % n for idx, _, _ in image.int_rows().values() for i in idx):
        raise InvariantViolation("the image of d_1^* escapes the radical (not minimal)")
    return F1, syz.dim, image


def _transpose_syzygy(F1: AModule, image: Subspace) -> Syzygy:
    """Ω^1 Tr M, the kernel U = ``image`` of the cover F_1 -> Tr M, in :func:`phi_kernel`'s pivot form.

    Φ's columns are F_1's radical coordinates, where U lies, and its rows
    are U's annihilator, read off U's reduced rows u_p: e_j - Σ_p u_p[j]·e_p
    for each coordinate j that is no pivot of U, over the lcm of the rows'
    scales.  So ker Φ = U, eliminated as every kernel is
    (:func:`~shortloc.linalg.kernel_subspace`), and the pivot form is the
    one the cover of Tr M gives, as a reduced form is unique.
    """
    n, ints = F1.algebra.dim, image.int_rows()
    at, scale = [q for q in range(F1.dim) if q % n], lcm(*[s for _, _, s in ints.values()])
    rows = {j: {j - j // n - 1: scale} for j in at if j not in ints}  # column of j: j - j//n - 1
    for q, (idx, vals, s) in ints.items():
        for j, y in zip(idx, vals):
            if j != q:
                rows[j][q - q // n - 1] = -y * (scale // s)
    phi = IntRows(F1.field, list(rows.values()), len(at))
    return Syzygy(F1.algebra, kernel_subspace(phi, at=at, ambient=F1.dim))


def transpose(M: AModule, cap: int = DEFAULT_CAP) -> AModule:
    """The transpose: cokernel of the dualized minimal presentation.

    From the minimal presentation A^{t_1} -> A^{t_0} -> M -> 0, dualizing
    gives d_1^*: Hom(A^{t_0}, A) -> Hom(A^{t_1}, A), whose cokernel is the
    transpose, a module over the opposite algebra: the :func:`quotient` of
    F_1 = (A^op)^{t_1} by the image U (:func:`_dual_presentation`).  U lies
    in JF_1, so the classes of F_1's radical coordinates span the radical,
    kept as their unit rows: the top, t_1, is read with no elimination.
    """
    dual = _dual_presentation(M, cap)
    if dual is None:
        return zero_module(M.algebra.opposite())
    F1, _, image = dual
    n, tr = M.algebra.dim, quotient(F1, image)[0]
    radical = [b for b, q in enumerate(image.free_columns()) if q % n]
    tr._radical = Subspace._span(tr.field, tr.dim, {b: {b: 1} for b in radical})
    return tr


# -- stable homs and Gorenstein-style predicates ------------------------


def stable_hom_dim(M: AModule, N: AModule, cap: int = DEFAULT_CAP) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective.

    A map factors through some projective iff it factors through the
    projective cover A^t -> N, t = dim top N.  Hom(M, -) is left exact on
    0 -> ΩN -> A^t -> N -> 0, so the maps through the cover, the image of
    Hom(M, A^t), have dimension t·dim Hom(M, A) - dim Hom(M, ΩN), and the
    stable Hom is three Hom dimensions (:func:`hom_dim`), with no Hom basis
    solved and no map composed.  The cap on t·dim A is the one
    :func:`syzygy` checks.
    """
    dim = hom_dim(M, N)
    if not dim:
        return 0
    omega = syzygy(N, cap)
    return dim - N.top_dim() * hom_dim(M, left_regular_module(M.algebra)) + hom_dim(M, omega)


def is_semi_gp(M: AModule, bound: int = DEFAULT_BOUND, cap: int = DEFAULT_CAP) -> BoundedVerdict:
    """Bounded check that Ext^i(M, A) = 0 for 1 <= i <= bound.

    The scan stops at the first non-vanishing group, so modules that fail
    early never build the deep (often exponentially large) resolution.  A
    self-injective A is injective: the verdict holds at once, with no cover.
    """
    if bound < 1:
        raise BadParams(f"bound must be at least 1, got {bound}")
    if M.dim == 0 or M.algebra.is_self_injective():
        return BoundedVerdict(True, bound)
    exts = _ext_sequence(resolution(M, cap=cap), left_regular_module(M.algebra))
    failed = next((i for i, val in enumerate(islice(exts, 1, bound + 1), 1) if val), None)
    return BoundedVerdict(failed is None, bound, failed)


def is_inf_torsionfree(M: AModule, bound: int = DEFAULT_BOUND,
                       cap: int = DEFAULT_CAP) -> BoundedVerdict:
    """Bounded check that the transpose is semi-Gorenstein-projective, with no transpose formed.

    The scan starts at Ω^1 Tr M (:func:`_transpose_syzygy`), as
    Ext^{i+1}(Tr M, A) = Ext^i(Ω^1 Tr M, A).  Hom(Tr M, A) ≅ ker d_1 = Ω^2 M
    has dimension t_1·dim A - dim Ω^1 M, and top Tr M = t_1, so
    Ext^1(Tr M, A) = dim Hom(Ω^1 Tr M, A) - dim Ω^1 M.  A self-injective A,
    as its opposite, makes the verdict hold at once, with no cover.
    """
    if bound < 1:
        raise BadParams(f"bound must be at least 1, got {bound}")
    dual = None if M.algebra.is_self_injective() else _dual_presentation(M, cap)
    if dual is None:  # Tr M = 0, or A is injective
        return BoundedVerdict(True, bound)
    F1, omega_dim, image = dual
    exts = _ext_sequence(resolution(_transpose_syzygy(F1, image), cap=cap),
                         left_regular_module(F1.algebra))
    ext1 = next(exts) - omega_dim
    if ext1 < 0:
        raise InvariantViolation("negative Ext dimension; resolution is inconsistent")
    failed = next((i for i, val in enumerate(islice(chain([ext1], exts), bound), 1) if val), None)
    return BoundedVerdict(failed is None, bound, failed)


def is_gp(M: AModule, bound: int = DEFAULT_BOUND, cap: int = DEFAULT_CAP) -> BoundedVerdict:
    """Bounded Gorenstein-projectivity: semi-GP, then infinity-torsionfree."""
    semi = is_semi_gp(M, bound=bound, cap=cap)
    return is_inf_torsionfree(M, bound=bound, cap=cap) if semi else semi
