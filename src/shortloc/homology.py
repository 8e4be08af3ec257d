"""Projective covers, syzygies, approximations, duals, transpose and Ext.

Everything here works with minimal constructions: projective covers lift a
basis of the top, so kernels are first syzygies.  :class:`MinimalResolution`
is the single engine that walks syzygies: Betti numbers are the tops of its
syzygies, syzygy powers and orbit walks read its modules, and Ext groups and
the transpose (the cokernel of d_1^* into A) come from the Hom-complex of its
boundaries.  It builds only what is read: a cover's kernel module is made
when it is first needed, so Ext^i stops at the cover of the (i+1)-st syzygy.
:class:`DualData` is the single engine of the dual side: it solves Hom(M, A)
once and serves the dual module, the torsionless and reflexive verdicts, the
evaluation map and the minimal left approximation with its cokernel (the
cosyzygy), each built on first read; the stable Hom reads its maps too.
The right action on Hom(M, A) is A^op's regular one.

A cover's kernel lies in JP, which the minimality check proves, so J^2
kills it: the kernel module records that, and its own cover forms no
product.  Its top lifts are unit vectors, so their images under v_i are
columns of its actions, and their images under w_m are zero
(:func:`projective_cover`); its Loewy length needs no product either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Iterator, Optional

from .errors import BadParams, InvariantViolation, ResourceCapExceeded
from .linalg import Matrix, Subspace, kernel_basis, kernel_subspace, rank
from .modules import (AModule, HomSpace, ModuleMap, free_module, hom_basis, hom_space,
                      left_regular_module, module_from_subspace, quotient, zero_module)

#: Dimension cap for intermediate modules; Betti numbers grow exponentially
#: in general, so resolutions abort cleanly instead of thrashing.
DEFAULT_CAP = 5000

#: Default depth for the bounded "for all i >= 1" predicates.
DEFAULT_BOUND = 10


@dataclass(frozen=True)
class Presentation:
    """A projective cover P -> M together with its kernel (first syzygy).

    The kernel is held as a subspace of P; its module and embedding are
    built on first read, so a caller that needs only the cover pays for
    no induced actions.  The module records that J^2 kills it, so its
    :meth:`AModule.loewy_length` forms no product.
    """

    module: AModule
    cover_rank: int
    cover_map: ModuleMap
    _kernel_space: Subspace

    @cached_property
    def _kernel(self) -> tuple[AModule, ModuleMap]:
        sub, emb = module_from_subspace(self.cover_map.source, self._kernel_space)
        # Minimality puts the kernel in JP, so J^2 kills it: J^3 P = 0.
        sub._square_zero = True
        return sub, emb

    @property
    def kernel(self) -> AModule:
        return self._kernel[0]

    @property
    def kernel_embedding(self) -> ModuleMap:
        return self._kernel[1]


@dataclass(frozen=True)
class BettiTable:
    """Betti numbers t_0..t_N of a module: t_i = dim top of the i-th syzygy."""

    module: AModule
    values: tuple[int, ...]


@dataclass(frozen=True)
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


def projective_cover(M: AModule, cap: int = DEFAULT_CAP) -> Presentation:
    """The projective cover A^t -> M with t = dim top M, and its kernel.

    The k-th top lift m_k is the unit vector at the k-th free column c_k of
    JM, and copy k of A sends (1, v_1.., w_1..) to (m_k, v_1 m_k.., w_1 m_k..).
    A module known to have J^2 M = 0, as every syzygy and every semisimple
    module is, forms no product: v_i m_k is column c_k of the action X_i,
    read, not multiplied, and every w_m m_k is zero.  Any other module maps its lifts by 1, v_i and w_m
    (:meth:`AModule.basis_images`).  Minimality is checked on the kernel's
    sparse rows: no kernel vector reaches a coordinate of an m_k, so the
    kernel lies in JP.
    """
    alg = M.algebra
    n, t = alg.dim, M.top_dim()
    if t * n > cap:
        raise ResourceCapExceeded(t * n, cap)
    P = free_module(alg, t)
    lifts = M.top_lift()
    if M._square_zero or M.radical().dim == 0:
        free = M.radical().free_columns()
        blocks = [lifts] + [[tuple(row[c] for row in X.data) for c in free] for X in M.actions]
        blocks += [[(M.field.zero(),) * M.dim] * t] * alg.a
    else:
        lifted = M.basis_images(Matrix.from_columns(M.field, lifts, M.dim))
        blocks = [img.transpose().data for img in lifted]
    cover = Matrix.from_columns(M.field, [b[k] for k in range(t) for b in blocks], M.dim)
    ker = kernel_subspace(cover)
    if P.dim - ker.dim != M.dim:
        raise InvariantViolation("projective cover is not surjective")
    if any(j % n == 0 for idx, _ in ker.sparse_rows().values() for j in idx):
        raise InvariantViolation("cover kernel escapes the radical (not minimal)")
    return Presentation(M, t, ModuleMap(P, M, cover), ker)


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

    Step i is the projective cover of the i-th syzygy; the kernel module
    of a step is built only when a caller or the next step reads it.
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
        """t_i, the top dimension of the i-th syzygy (no cover of it needed)."""
        return self.syzygy_module(i).top_dim()

    def syzygy_module(self, i: int) -> AModule:
        if i == 0:
            return self.module
        self.extend_to(i - 1)
        return self.steps[i - 1].kernel

    def boundary_elements(self, j: int) -> list[list[tuple]]:
        """The map P_j -> P_{j-1} as a matrix of algebra elements.

        Entry [l][k] is the element g with d(unit_l) having k-th component
        g; all entries lie in the radical (minimality).
        """
        if j < 1:
            raise ValueError("boundaries start at index 1")
        self.extend_to(j)
        n = self.module.algebra.dim
        emb = self.steps[j - 1].kernel_embedding.matrix
        t_prev = self.steps[j - 1].cover_rank
        # The cover P_j -> Omega^j sends unit_l to the l-th top lift.
        lifts = Matrix.from_columns(emb.field, self.steps[j].module.top_lift(), emb.cols)
        return [[col[k * n:(k + 1) * n] for k in range(t_prev)]
                for col in (emb * lifts).transpose().data]


def _hom_complex_matrix(res: MinimalResolution, N: AModule, j: int) -> Matrix:
    """Matrix of Hom(P_{j-1}, N) -> Hom(P_j, N) under Hom(A^t, N) = N^t."""
    D = res.boundary_elements(j)
    t_prev = res.steps[j - 1].cover_rank
    rows = []
    for row in D:
        blocks = [N.element_action(g).data for g in row]
        rows.extend([x for b in blocks for x in b[r]] for r in range(N.dim))
    return Matrix(N.field, rows, cols=t_prev * N.dim)


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
        raise InvariantViolation("Ext requires modules over the same algebra")
    if M.dim == 0 or N.dim == 0:
        return [0] * (imax + 1)
    return list(islice(_ext_sequence(MinimalResolution(M, cap=cap), N), imax + 1))


def ext_dim(M: AModule, N: AModule, i: int, cap: int = DEFAULT_CAP) -> int:
    """dim Ext^i(M, N); Ext^0 is Hom(M, N)."""
    return ext_dims(M, N, i, cap=cap)[i]


# -- the dual side: Hom(M, A) and everything read from it ---------------


@dataclass(frozen=True)
class ApproximationData:
    """A minimal left approximation u: M -> A^z and its cokernel."""

    approximation: ModuleMap
    rank: int
    cokernel: AModule
    injective: bool


@dataclass(frozen=True)
class DualData:
    """Hom(M, A) with its right A-action: the one engine of the dual side.

    ``homs`` is Hom(M, A), solved once by :func:`dual_data`; the dual
    module's coordinates refer to its basis.  The dual module, the
    torsionless and reflexive verdicts, the evaluation map and the minimal
    left approximation with its cokernel are built on first read.
    """

    homs: HomSpace

    @cached_property
    def module(self) -> AModule:
        """M* = Hom(M, A) as a left module over the opposite algebra."""
        op = self.homs.source.algebra.opposite()
        z = self.homs.dim
        if z == 0:
            return zero_module(op)
        # Right multiplication by v_i is the regular action of v_i in A^op.
        acts = [Matrix.from_columns(op.field, [self.homs.coords(R * f.matrix)
                                               for f in self.homs.maps], z)
                for R in op.regular_actions()]
        return AModule(op, z, acts, check=False)

    @cached_property
    def torsionless(self) -> bool:
        """The homomorphisms into A jointly separate points of M."""
        if not self.homs.maps:
            return self.homs.source.dim == 0
        return not kernel_basis(Matrix.vstack([f.matrix for f in self.homs.maps]))

    @cached_property
    def evaluation(self) -> ModuleMap:
        """The evaluation map M -> M**, ev(m)(f) = f(m)."""
        M = self.homs.source
        bidual = dual_data(self.module)
        cols = []
        for c in range(M.dim):
            # ev(basis_c) in Hom(M*, A^op-regular): the matrix whose column
            # j is f_j(basis_c).
            mat_cols = [f.matrix.col(c) for f in self.homs.maps]
            cols.append(bidual.homs.flat.coords(tuple(x for row in zip(*mat_cols) for x in row)))
        target = AModule(M.algebra, bidual.module.dim, bidual.module.actions, check=False)
        return ModuleMap(M, target, Matrix.from_columns(M.field, cols, target.dim))

    @property
    def reflexive(self) -> bool:
        """The evaluation map M -> M** is bijective."""
        ev = self.evaluation
        return ev.source.dim == ev.target.dim and ev.is_injective()

    @cached_property
    def approximation(self) -> ApproximationData:
        """The minimal left approximation u: M -> A^z and its cokernel.

        The rank z is the dimension of the top of M*; u stacks lifts of a
        basis of that top.  A factoring certificate checks that every
        homomorphism M -> A factors through u.
        """
        M = self.homs.source
        alg = M.algebra
        z = self.module.top_dim()
        P = free_module(alg, z)
        homs = [f.matrix for f in self.homs.maps]
        gs = [Matrix.combination(lam, homs) for lam in self.module.top_lift()]
        u = ModuleMap(M, P, Matrix.vstack(gs) if gs else Matrix(M.field, [], cols=M.dim))
        # Certificate: each f in the hom basis solves f = sum_k r(b) g_k, and
        # the right multiplications r(b) are the regular action of A^op.
        right = left_regular_module(alg.opposite())
        factor_cols = [self.homs.flatten(Rg) for g in gs for Rg in right.basis_images(g)]
        factor_space = Subspace.from_vectors(M.field, alg.dim * M.dim, factor_cols)
        if not factor_space.contains_space(self.homs.flat):
            raise InvariantViolation("left approximation fails its factoring certificate")
        img = u.image()
        return ApproximationData(approximation=u, rank=z, cokernel=quotient(P, img)[0],
                                 injective=img.dim == M.dim)


def dual_data(M: AModule) -> DualData:
    """Solve Hom(M, A) once; everything on the dual side reads the result."""
    return DualData(hom_space(M, left_regular_module(M.algebra)))


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
    alg = M.algebra
    op = alg.opposite()
    if M.dim == 0:
        return zero_module(op)
    res = MinimalResolution(M, cap=cap)
    t1 = res.rank(1)
    if t1 == 0:
        return zero_module(op)
    big = _hom_complex_matrix(res, left_regular_module(alg), 1)
    F1 = free_module(op, t1)
    image = Subspace.from_vectors(M.field, F1.dim, big.transpose().data)
    tr, _ = quotient(F1, image)
    return tr


# -- stable homs and Gorenstein-style predicates ------------------------


def stable_hom_dim(M: AModule, N: AModule, cap: int = DEFAULT_CAP) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective.

    A map factors through some projective iff it factors through the
    projective cover A^t -> N, so the factoring subspace is the image of
    composition with that cover; a map into A^t is t maps into A, so the
    basis of Hom(M, A) composed with each column block of the cover spans it.
    """
    hb = hom_basis(M, N)
    if not hb:
        return 0
    pres = projective_cover(N, cap=cap)
    n = M.algebra.dim
    homs = dual_data(M).homs
    vecs = []
    for k in range(pres.cover_rank):
        block = Matrix(M.field, [row[k * n:(k + 1) * n] for row in pres.cover_map.matrix.data])
        vecs += [homs.flatten(block * f.matrix) for f in homs.maps]
    factoring = Subspace.from_vectors(M.field, N.dim * M.dim, vecs)
    return len(hb) - factoring.dim


def is_semi_gp(M: AModule, bound: int = DEFAULT_BOUND, cap: int = DEFAULT_CAP) -> BoundedVerdict:
    """Bounded check that Ext^i(M, A) = 0 for 1 <= i <= bound.

    The scan stops at the first non-vanishing group, so modules that fail
    early never build the deep (often exponentially large) resolution.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if M.dim == 0:
        return BoundedVerdict(True, bound)
    exts = _ext_sequence(MinimalResolution(M, cap=cap), left_regular_module(M.algebra))
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
    """Bounded Gorenstein-projectivity: semi-GP and infinity-torsionfree."""
    semi = is_semi_gp(M, bound=bound, cap=cap)
    if not semi:
        return semi
    return is_inf_torsionfree(M, bound=bound, cap=cap)
