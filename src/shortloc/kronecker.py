"""Bridge between Loewy-length <= 2 modules and Kronecker representations.

A representation of the e-Kronecker quiver is a pair of spaces with e
parallel maps.  A Loewy-length <= 2 module M yields one on (top M, JM)
with the induced generator actions; conversely a representation pushes
down to a module with block actions [[0, 0], [phi, 0]].  Over a
self-injective algebra of Hilbert type (e, 1) the syzygy corresponds to a
reflection functor built from the multiplication form on J/J^2.
"""

from __future__ import annotations

from ._record import record
from .algebra import ShortAlgebra
from .errors import (AlgebraMismatch, BadParams, InvariantViolation, LoewyTooLong,
                     NotSelfInjective, WrongHilbertType)
from .homology import DEFAULT_CAP, Syzygy, syzygy, top_kernel
from .linalg import Field, IntRows, Matrix, integer_pairs, kernel_subspace, rank, typed_values
from .modules import (AModule, _kronecker_data, _kronecker_equations, _typed, find_isomorphism,
                      module_from_columns, presentation_equations, simple_multiplicity)


@record
class KroneckerRep:
    """A representation (V_0, V_1; phi_1..phi_e) of the e-Kronecker quiver."""

    e: int
    dim0: int
    dim1: int
    maps: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.maps) != self.e:
            raise BadParams(f"expected {self.e} maps, got {len(self.maps)}")
        for phi in self.maps:
            if phi.rows != self.dim1 or phi.cols != self.dim0:
                raise BadParams("Kronecker map has wrong shape")

    @property
    def dim_vector(self) -> tuple[int, int]:
        return (self.dim0, self.dim1)


def tilde(M: AModule) -> KroneckerRep:
    """The Kronecker representation (top M, JM; induced actions).

    phi_j sends the k-th top lift m_k to the coordinates of v_j m_k in JM,
    read as ints off M's Kronecker data (:func:`~shortloc.modules._kronecker_data`,
    M itself at Loewy length <= 2) and typed there.
    """
    if M.loewy_length() > 2:
        raise LoewyTooLong("the Kronecker shadow needs Loewy length <= 2")
    dim0, dim1, arrows, scale = _kronecker_data(M)
    p = M.field.characteristic
    maps = tuple(Matrix.from_sparse_columns(M.field, dim1, [_typed(col, scale, p) for col in cols])
                 for cols in arrows)
    return KroneckerRep(e=M.algebra.e, dim0=dim0, dim1=dim1, maps=maps)


def rep_as_module(rep: KroneckerRep, alg: ShortAlgebra) -> AModule:
    """The Loewy-length <= 2 module with block actions [[0,0],[phi,0]].

    Valid over any short algebra with matching e, since all products of
    the block matrices vanish.  The maps' columns are converted to ints
    together (:func:`~shortloc.linalg.integer_pairs`), and the module is
    held by them.
    """
    if rep.e != alg.e:
        raise AlgebraMismatch("representation and algebra have different e")
    d0 = rep.dim0
    columns = [[[(d0 + r, x) for r, x in col] for col in phi.sparse_columns()] + [[]] * rep.dim1
               for phi in rep.maps]
    columns, scale = integer_pairs(columns, alg.field.characteristic)
    return module_from_columns(alg, d0 + rep.dim1, columns, scale)


def push_down(rep: KroneckerRep, alg: ShortAlgebra) -> AModule:
    """Push a Kronecker representation down to a radical-square-zero algebra."""
    if alg.a != 0:
        raise AlgebraMismatch("push-down targets an algebra with J^2 = 0")
    return rep_as_module(rep, alg)


def rep_dual(rep: KroneckerRep) -> KroneckerRep:
    """The vertex-swapping duality (transposed maps).

    It exchanges the preprojective and preinjective families.
    """
    return KroneckerRep(e=rep.e, dim0=rep.dim1, dim1=rep.dim0,
                        maps=tuple(phi.transpose() for phi in rep.maps))


def kronecker_hom_dim(repA: KroneckerRep, repB: KroneckerRep) -> int:
    """dim Hom of Kronecker representations, on their maps converted to ints once.

    The maps of both go through :func:`~shortloc.linalg.integer_pairs`
    together, and the integer core (:func:`_int_hom_dim`) does the rest.
    """
    if repA.e != repB.e:
        raise AlgebraMismatch("representations of different Kronecker quivers")
    e, (a0, a1), (b0, b1) = repA.e, repA.dim_vector, repB.dim_vector
    if not repA.maps:
        return b0 * a0 + b1 * a1  # no arrow, so no field to read and no equation
    field = repA.maps[0].field
    maps, scale = integer_pairs([phi.sparse_columns() for phi in repA.maps + repB.maps],
                                field.characteristic)
    return _int_hom_dim(field, (a0, a1, maps[:e], scale), (b0, b1, maps[e:], scale))


def _int_hom_dim(field: Field, source: tuple, target: tuple) -> int:
    """dim Hom of Kronecker representations in ints: b1·(a1 - rank Φ_A) + b0·a0 less a rank.

    Each representation is (dim0, dim1, arrows, scale), arrows[j][k] the
    column of arrow j at basis vector k of V_0 as (row, int) pairs over the
    scale, as :func:`~shortloc.modules._kronecker_data` gives a module's.
    A homomorphism is a pair (g0: A_0 -> B_0, g1: A_1 -> B_1) with
    phiB_i g0 = g1 phiA_i for every arrow, so g1 is fixed by g0 on the image
    of Φ_A: v_i⊗a -> phiA_i(a) (column k·e + j) and free off it, and g0 must
    meet the equations of ker Φ_A against B's arrows
    (:func:`_kronecker_equations`).  Neither scale moves a rank.
    """
    (a0, a1, columns, _), (b0, b1, _, _) = source, target
    e = len(columns)
    rows: list[dict] = [{} for _ in range(a1)]
    for j, cols in enumerate(columns):
        for k, col in enumerate(cols):
            for r, x in col:
                rows[r][k * e + j] = x
    kernel = kernel_subspace(IntRows(field, rows, e * a0))
    equations = _kronecker_equations(field, kernel.pivot_form(), e, a0, target)
    return b1 * (a1 - e * a0 + kernel.dim) + b0 * a0 - rank(equations)


def hom_decomposition_check(M: AModule, N: AModule) -> bool:
    """Check dim Hom(M, N) = dim Hom(tilde M, tilde N) + t(M) * |JN|.

    This is the hom decomposition along the push-down: module maps split
    into graded Kronecker maps and arbitrary top-to-radical maps.  The
    right side is the integer core (:func:`_int_hom_dim`) on the modules'
    Kronecker data (:func:`~shortloc.modules._kronecker_data`), with no
    typed representation built, plus dim top M · dim JN read off the same
    data.
    """
    if M.loewy_length() > 2 or N.loewy_length() > 2:
        raise LoewyTooLong("hom decomposition needs Loewy length <= 2")
    # The left side is ranked on M's presentation, not by hom_dim, which reads the g0 system.
    equations = presentation_equations(M, N)
    lhs = equations.cols - rank(equations)
    source, target = _kronecker_data(M), _kronecker_data(N)
    return lhs == _int_hom_dim(M.field, source, target) + source[0] * target[1]


def multiplication_form(alg: ShortAlgebra) -> Matrix:
    """The bilinear form beta(v_i, v_j) = coefficient of v_i v_j in J^2 = k.

    Defined for Hilbert type (e, 1); self-injectivity makes it
    non-degenerate.
    """
    if alg.a != 1:
        raise WrongHilbertType("the multiplication form needs a = 1")
    zero = alg.field.zero()
    rows = [[alg.structure.get((i, j, 1), zero) for j in range(1, alg.e + 1)]
            for i in range(1, alg.e + 1)]
    return Matrix(alg.field, rows, cols=alg.e)


def sigma_reflection(alg: ShortAlgebra, rep: KroneckerRep) -> KroneckerRep:
    """The reflection (V_0, V_1; phi) -> (Ker Phi, V_0; beta-induced maps).

    It is one syzygy step of the push-down for a = 1: Phi sends v_i ⊗ u to
    phi_i(u), and the new maps are the generator actions on the V-rows of
    the cover's kernel, which land in J^2 A^{dim V_0} = V_0 through the
    multiplication form.  The kernel is a syzygy's shadow, so it goes the
    way of a resolution rung: Phi's columns, the maps', are converted to
    integers once (:func:`~shortloc.linalg.integer_pairs`) and eliminated
    (:func:`top_kernel`), the actions are read off the integer images
    (:meth:`Syzygy.images`), and only the w-entries read become scalars.  On
    dimension vectors (without simple projective summands) this acts as
    (x, y) -> (e x - y, x).
    """
    if rep.e != alg.e:
        raise AlgebraMismatch("representation and algebra have different e")
    if alg.a != 1:
        raise WrongHilbertType("the reflection needs Hilbert type (e, 1)")
    if not alg.is_self_injective():
        raise NotSelfInjective("the reflection needs a self-injective algebra")
    if rank(multiplication_form(alg)) != alg.e:
        raise InvariantViolation("multiplication form is degenerate")
    e, d0, n = rep.e, rep.dim0, alg.dim
    field = alg.field
    maps, _ = integer_pairs([phi.sparse_columns() for phi in rep.maps], field.characteristic)
    syz = Syzygy(alg, top_kernel(alg, [[cols[u] for cols in maps] for u in range(d0)]))
    images, p = syz.images([q for q in syz.space.pivots if q % n <= e]), field.characteristic
    maps = tuple(Matrix.from_columns(field, [typed_values([imgs[j].get(u * n + n - 1, 0)
                                                           for u in range(d0)], scale, p)
                                             for imgs, scale in images], d0) for j in range(e))
    return KroneckerRep(e=e, dim0=len(images), dim1=d0, maps=maps)


def verify_sigma_omega(alg: ShortAlgebra, M: AModule, seed: int = 0,
                       cap: int = DEFAULT_CAP) -> bool:
    """Check that the reflection matches the syzygy on a module.

    Pushes sigma(tilde M) back down and compares with Omega M up to
    isomorphism.  Modules with a simple direct summand are excluded: the
    simple module lifts ambiguously to the Kronecker side, where the
    reflection kills the simple projective.
    """
    if M.loewy_length() > 2:
        raise LoewyTooLong("the comparison needs Loewy length <= 2")
    if simple_multiplicity(M) > 0:
        raise BadParams("excluded case: module has a simple direct summand")
    reflected = rep_as_module(sigma_reflection(alg, tilde(M)), alg)
    om = syzygy(M, cap=cap)
    return find_isomorphism(reflected, om, seed=seed).found
