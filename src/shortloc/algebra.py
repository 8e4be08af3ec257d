"""Short local algebras presented by structure constants.

A short local algebra A over a field k has radical J with J^3 = 0 and
A/J = k.  We fix the basis (1, v_1..v_e, w_1..w_a) where the v_i span a
complement of J^2 in J and the w_m span J^2.  The whole multiplication is
then encoded by the structure constants c_{ijm} with

    v_i * v_j = sum_m c_{ijm} w_m,

since products involving J^2 vanish.  The Hilbert type of A is the pair
(e, a) = (dim J/J^2, dim J^2).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ._record import record
from .errors import BadParams, SurjectivityViolation
from .linalg import Field, Matrix, Subspace, integer_values, kernel_basis, rank, solve_matrix


class ShortAlgebra:
    """A short local algebra given by its structure constants.

    ``structure`` maps 1-based index triples (i, j, m) to non-zero scalars;
    absent triples are zero.  Instances are immutable after construction
    and safe to share between threads.
    """

    def __init__(self, field: Field, e: int, a: int,
                 structure: Mapping[tuple[int, int, int], object],
                 name: str = "", tags: Optional[dict] = None):
        if e < 0 or a < 0:
            raise BadParams("e and a must be natural numbers")
        self.field = field
        self.e = e
        self.a = a
        self.name = name
        self.tags = dict(tags or {})
        struct = {}
        for (i, j, m), c in structure.items():
            if not (1 <= i <= e and 1 <= j <= e and 1 <= m <= a):
                raise BadParams(f"structure index {(i, j, m)} out of range")
            c = field.of(c)
            if c:
                struct[(i, j, m)] = c
        self.structure = struct
        self._report = None
        self._product_kernel = None
        self._sections = None
        self._int_sections = None
        self._regular_module = None
        self._structure_table = None
        self._regular_columns = None
        self._opposite = None

    @property
    def dim(self) -> int:
        return 1 + self.e + self.a

    @property
    def hilbert_type(self) -> tuple[int, int]:
        return (self.e, self.a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShortAlgebra):
            return NotImplemented
        return (self.field, self.e, self.a, self.structure) == \
               (other.field, other.e, other.a, other.structure)

    def __hash__(self) -> int:
        return hash((self.field, self.e, self.a, tuple(sorted(self.structure.items()))))

    def __repr__(self) -> str:
        label = self.name or "ShortAlgebra"
        return f"{label}(e={self.e}, a={self.a} over {self.field})"

    # -- multiplication ------------------------------------------------

    def structure_matrix(self) -> Matrix:
        """The e^2 x a matrix whose row (i,j) lists c_{ij1..ija}."""
        zero, gens, ws = self.field.zero(), range(1, self.e + 1), range(1, self.a + 1)
        return Matrix(self.field, [[self.structure.get((i, j, m), zero) for m in ws]
                                   for i in gens for j in gens])

    def product_kernel(self) -> list[tuple]:
        """Basis of the linear relations among the products v_i v_j.

        These are the vectors lam with sum_{ij} lam_{ij} v_i v_j = 0; any
        module action matrices satisfy the same combinations.  No module
        check reads this dense basis: :func:`~shortloc.modules.validate_module`
        checks v_i v_j x = sum_m c_ijm w_m x along the sections instead.
        """
        if self._product_kernel is None:
            self._product_kernel = kernel_basis(self.structure_matrix().transpose())
        return self._product_kernel

    def sections(self) -> list[tuple]:
        """For each m, s with w_m = sum_{ij} s_{ij} v_i v_j: column m of one solve C^T X = I."""
        if self._sections is None:
            x = solve_matrix(self.structure_matrix().transpose(),
                             Matrix.identity(self.field, self.a))
            if x is None:
                raise SurjectivityViolation("products do not span the degree-two part")
            self._sections = [x.col(m) for m in range(self.a)]
        return self._sections

    def int_sections(self) -> tuple[list, int]:
        """(sections, σ): :meth:`sections` as ints over one scale σ (``integer_values``), once."""
        if self._int_sections is None:
            e2, flat = self.e ** 2, [s for section in self.sections() for s in section]
            ints, sigma = integer_values(flat, self.field.characteristic)
            self._int_sections = ([ints[m * e2:(m + 1) * e2] for m in range(self.a)], sigma)
        return self._int_sections

    def unit(self) -> tuple:
        z, o = self.field.zero(), self.field.one()
        return tuple([o] + [z] * (self.e + self.a))

    def basis_vector(self, k: int) -> tuple:
        z, o = self.field.zero(), self.field.one()
        v = [z] * self.dim
        v[k] = o
        return tuple(v)

    def generator(self, i: int) -> tuple:
        """The element v_i as a coordinate vector (1-based i)."""
        if not 1 <= i <= self.e:
            raise BadParams(f"generator index {i} out of range")
        return self.basis_vector(i)

    def mul(self, u: Sequence, v: Sequence) -> tuple:
        """Product of two elements in the fixed basis (1, v_1.., w_1..)."""
        zero = self.field.zero()
        e, a = self.e, self.a
        out = [zero] * self.dim
        u0, v0 = u[0], v[0]
        out[0] = u0 * v0
        for i in range(1, 1 + e):
            t = u0 * v[i] + u[i] * v0
            if t:
                out[i] = t
        for m in range(1 + e, self.dim):
            t = u0 * v[m] + u[m] * v0
            if t:
                out[m] = t
        for i in range(1, 1 + e):
            if u[i]:
                for j in range(1, 1 + e):
                    if v[j]:
                        ij = u[i] * v[j]
                        for m in range(1, a + 1):
                            c = self.structure.get((i, j, m))
                            if c:
                                out[e + m] = out[e + m] + ij * c
        return tuple(out)

    def left_mult_matrix(self, u: Sequence) -> Matrix:
        """Matrix of x -> u*x in the fixed basis."""
        cols = [self.mul(u, self.basis_vector(k)) for k in range(self.dim)]
        return Matrix.from_columns(self.field, cols, self.dim)

    def regular_columns(self) -> tuple[tuple, int]:
        """(columns, T): per generator, each column of its regular action as (row, int) pairs.

        Read off the integer structure constants (:meth:`structure_table`),
        over their scale T, and built once: v_j sends 1 to v_j and v_i to
        sum_m c_{jim} w_m, and kills J^2.  A^t shifts them copy by copy
        (:func:`~shortloc.modules.free_module`), and every module view of
        A, its integer rows among them, is read off them.
        """
        if self._regular_columns is None:
            table, scale = self.structure_table()
            self._regular_columns = (tuple(
                [[(j + 1, scale)]] + [sorted((w, x) for k, w, x in row if k == j)
                                      for row in table[1:]] for j in range(self.e)), scale)
        return self._regular_columns

    def structure_table(self) -> tuple[tuple, int]:
        """The structure constants in integer form, per coordinate of A, and their scale T.

        Entry i lists (j - 1, e + m, T·c_{jim}) for the non-zero c_{jim}, so
        v_j v_i = sum_m c_{jim} w_m is read off the V-coordinate i; the
        other coordinates list nothing.  T·c and T are the constants'
        :func:`~shortloc.linalg.integer_values`: residues over 1 on F_p,
        ints over the lcm of the denominators on Q.  Built once.
        """
        if self._structure_table is None:
            ints, scale = integer_values(list(self.structure.values()), self.field.characteristic)
            table = [[] for _ in range(self.dim)]
            for (j, i, m), x in zip(self.structure, ints):
                table[i].append((j - 1, self.e + m, x))
            self._structure_table = (tuple(map(tuple, table)), scale)
        return self._structure_table

    def is_commutative(self) -> bool:
        return all(self.structure.get((j, i, m)) == c for (i, j, m), c in self.structure.items())

    # -- derived algebras ----------------------------------------------

    def opposite(self) -> "ShortAlgebra":
        """The opposite algebra: c'_{ijm} = c_{jim}.

        Right A-modules are exactly left modules over the opposite.  It is
        built once and points back: A^op^op is A itself, tags and caches too.
        """
        if self._opposite is None:
            struct = {(j, i, m): c for (i, j, m), c in self.structure.items()}
            name = self.name[:-3] if self.name.endswith("^op") \
                else self.name and self.name + "^op"
            tags = {k: v for k, v in self.tags.items() if k == "generators"}
            self._opposite = ShortAlgebra(self.field, self.e, self.a, struct, name=name,
                                          tags=tags)
            self._opposite._opposite = self
        return self._opposite

    # -- validation ----------------------------------------------------

    def validate(self) -> "AlgebraReport":
        """Check the structural invariants and summarize the algebra.

        The socle dimensions are ranks, read off A^1 over A and over the
        opposite algebra (:func:`~shortloc.modules.left_regular_module`).
        """
        if self._report is not None:
            return self._report
        rk = rank(self.structure_matrix())
        if rk < self.a:
            raise SurjectivityViolation(
                f"degree-two products span only {rk} of {self.a} dimensions")
        from .modules import left_regular_module
        left = left_regular_module(self).socle_dim()
        right = left_regular_module(self.opposite()).socle_dim()
        report = AlgebraReport(
            name=self.name,
            hilbert_type=(self.e, self.a),
            dimension=self.dim,
            commutative=self.is_commutative(),
            left_socle_dim=left,
            right_socle_dim=right,
            self_injective=(left == 1),
            j2_equals_left_socle=(self.a == left),
            j2_equals_right_socle=(self.a == right),
        )
        if self.a > left or self.a > right:
            raise SurjectivityViolation("J^2 is not contained in the socle")
        self._report = report
        return report

    def is_self_injective(self) -> bool:
        return self.validate().self_injective


@record
class AlgebraReport:
    """Validation summary for a short local algebra."""

    name: str
    hilbert_type: tuple[int, int]
    dimension: int
    commutative: bool
    left_socle_dim: int
    right_socle_dim: int
    self_injective: bool
    j2_equals_left_socle: bool
    j2_equals_right_socle: bool


def algebra_from_relations(field: Field, generators: Sequence[str],
                           relations: Sequence[Mapping[tuple[int, int], object]],
                           *, commutative: bool = False, name: str = "",
                           tags: Optional[dict] = None) -> ShortAlgebra:
    """Build a short local algebra from degree-two relations.

    Each relation is a linear combination of products v_i v_j (1-based
    index pairs mapping to coefficients) declared to vanish.  The algebra
    is k + V + (V (x) V)/R where R is the span of the relations; degree-3
    relations are implied by J^3 = 0 and must not be passed here.  The
    products not eliminated by row reduction become the w-basis of J^2.
    """
    e, one = len(generators), field.one()

    def pidx(i: int, j: int) -> int:
        if not (1 <= i <= e and 1 <= j <= e):
            raise BadParams(f"relation index {(i, j)} out of range")
        return (i - 1) * e + (j - 1)

    rel_rows = [{pidx(i, j): field.of(c) for (i, j), c in rel.items()} for rel in relations]
    if commutative:
        rel_rows += [{pidx(i, j): one, pidx(j, i): -one}
                     for i in range(1, e + 1) for j in range(i + 1, e + 1)]
    span = Subspace.from_vectors(field, e * e, rel_rows)
    free = span.free_columns()
    a = len(free)
    free_pos = {c: m for m, c in enumerate(free)}

    # Product k = pidx(i, j) is its residue at the free columns, read in column order.
    structure = {}
    for k in range(e * e):
        red = span.residue([(k, one)])
        structure.update({(k // e + 1, k % e + 1, free_pos[c] + 1): red[c] for c in sorted(red)})

    all_tags = dict(tags or {})
    all_tags.setdefault("generators", tuple(generators))
    all_tags["j2_products"] = tuple(
        f"{generators[c // e]}*{generators[c % e]}" for c in free)
    return ShortAlgebra(field, e, a, structure, name=name, tags=all_tags)
