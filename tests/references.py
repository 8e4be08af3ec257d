"""References that the sparse engine routes are checked against.

The dense ones read a module's dense action matrices: an element's action
is a scaled sum of the generator actions and their pairwise products, and
the images of a vector under the basis of A are sums of products entry by
entry.  Zero terms are skipped, as in ``Matrix.__mul__``, so a value's
scalar type follows its non-zero products and typed comparisons with the
engine hold.

The typed shadow route is the resolution rung the engine ran before its
rungs read integer rows: the images of a syzygy's typed shadow rows are
typed sums through the structure constants (``generator_images``), and Φ
is assembled from them as typed sparse rows that the elimination converts
back to integers (``typed_phi_kernel``).

The reduction walks are the loops that ``Subspace.residue`` replaced:
membership and dense reduction along a subspace's typed sparse rows
(``walk_rest``, ``walk_reduce``), a quotient's action columns
(``walk_quotient_columns``) and the tops of a Hom basis on M's presentation
(``walk_tops``).

The sparse rows read off a dense basis (``dense_sparse_rows``) are what a
subspace held by a dense basis gave before every subspace came out of an
elimination.

The row converter with a branch per row kind (``reference_sparse``) and
the torsionless test on the stacked map matrices (``vstack_torsionless``)
are what the one-loop ``_sparse`` and the rank of a dual's integer rows
replaced.

The dense routes the package dropped for want of a reader are kept here:
a matrix's scaling, combinations and zero test (``scale``,
``combination``, ``is_zero``), the unit vectors at a subspace's free
columns (``complement``, with ``top_lift``), the boundaries as typed rows
and as algebra elements (``boundary_rows``, ``boundary_elements``), and
a cover kernel's embedding matrix (``kernel_embedding``).

The algebra's dense routes are what reading the structure constants
replaced: the socle as the kernel of the stacked regular matrices built
by ``mul`` (``vstack_socle``), one solve per section (``per_m_sections``),
the products reduced as dense vectors (``dense_reduce_structure``), and a
quotient's projection walked along the dense basis rows
(``walk_projection``).

A's regular rows read off ``left_mult_matrix`` (``regular_rows``), and
A^t's integer rows as copies of them shifted by k·dim A and converted
over one scale (``regular_int_rows``), are what A^t read before its
integer rows came off its action columns as every module's do.

The module axioms on dense matrices (``dense_validate``) are the check
that reading them along the integer action columns replaced: the e^2 products of
the generator actions, combined along the algebra's product kernel, then
every triple product.

The dual side's dense routes are what reading Hom(M, A)'s flat rows
replaced: the minimal left approximation stacked from the basis map
matrices (``hom_basis``) at M*'s lift columns, certified by a triple loop over A^op's
regular rows (``dense_approximation``), and the evaluation map read off
the columns of every basis map matrix (``dense_evaluation``).

The isomorphism search with dense tops (``dense_top_find_isomorphism``)
is the top route that ``find_isomorphism`` took before it ranked the flat
rows of ``hom_space`` for a pair that J^2 does not kill: Hom(M, N) solved
on M's presentation for every pair, each top laid out as a dense
dim top N x t matrix, a zero one skipped, and each combination's top read
off the combined images of the basis elements whose top is not zero.
Its witness (``presentation_witness``) solves the map from its images
n_1..n_t at the top lifts (``image_copies``), forming the pairs at the
v_i·(v_j·m_k) when J^2 M is not zero.  The integer top that route read
(``integer_top``) is n_k mod JN along the radical's integer rows.

dim Hom(M, N) as t·dim N less the rank of M's presentation equations
(``presentation_hom_dim``) is what ``hom_dim`` read for every M before it
read the g0 system of an M with J^2 M = 0.

A module's typed routes are what reading its integer columns replaced:
its typed action columns, the third form a module kept beside its
matrices and its integer columns (``typed_columns``), the radical as the
typed action columns converted row by row
(``typed_radical``), the socle as the kernel of the typed stacked actions
(``typed_socle``), the Loewy test on the typed radical rows
(``typed_loewy_length``), and the integer action rows of the typed
columns and w-images, converted together (``typed_int_action_rows``).

The search's typed twins are what reading the kernel's integer rows
replaced: each basis element's top as typed residues along the radical's
typed rows (``typed_top``), ranked after converting each row on its own
(``typed_invertible``, through ``from_scalars``), and typed combinations
(``typed_combine``); so are the typed images of the radical basis at the
top lifts (``top_images``) and the stable Hom that composed Hom(M, A)'s
typed rows with the cover's typed columns (``typed_stable_hom_dim``).
``from_scalars`` is the row converter the engine no longer has: typed
rows {column: scalar}, each as ints over its own scale.

The elimination that scans every older pivot row at a back-clear
(``unindexed_echelon``) is what the back-clear index of ``_echelon``
replaced.

Ext from the Hom-complex (``hom_complex_ext_dims``) is what reading
Hom(Ω^i M, N) off each syzygy's Kronecker relations replaced:
Ext^i = t_i·dim N - rank d_{i+1}^* - rank d_i^*, which covers one syzygy
more than Ext^i reads.

The Kronecker Hom equations with each column of a map rebuilt per
equation (``reference_kronecker_hom_dim``) are what reading each map once
replaced.  ann_N(J^2) as the kernel of the stacked w-actions, read off the
integer action rows of every basis vector (``reference_kronecker_data``),
is what spanning JN and the kernel of the top lifts' w-images replaced;
``reference_top_hom_dim`` reads the g0 system of a J^2-zero M against it.

Gorenstein projectivity as the semi-GP scans of M and of its transpose,
each on a resolution of its own (``two_resolution_is_gp``), is ``is_gp``
spelled out from the public scans.

The unsplit ladder (``unsplit_ladder``), the tops of the syzygies along
a resolution, is what ``betti`` read before it split the copies of S off
the rungs of S's ladder.

The walk that covers every rung (``covering_resolution``) is what
``resolution`` was before it yielded a rung that repeats its predecessor
again with no new cover; the unsplit ladder walks it, and so do Ext and
the bounded predicates read along it (``covering_ext_dims``,
``covering_is_semi_gp``, ``covering_is_inf_torsionfree``,
``covering_is_gp``), which rank every rung's Hom system.
"""

import random

from collections import defaultdict
from itertools import compress, count, islice
from math import gcd, lcm

from shortloc.errors import BadParams, InvariantViolation
from shortloc.homology import (DEFAULT_CAP, ApproximationData, BoundedVerdict, _cover_rank,
                               _ext_sequence, _hom_complex_matrix, dual_data, is_semi_gp,
                               projective_cover, resolution, transpose)
from shortloc import linalg, modules
from shortloc.linalg import (DEFAULT_POOL, Fp, IntRows, Matrix, Rational, Subspace, _clear, _sparse,
                             _tidy, integer_values, kernel_basis, kernel_subspace, rank, solve)
from shortloc.modules import (AModule, IsoSearch, ModuleMap, free_module, hom_basis, hom_dim,
                              presentation_equations, quotient, vector_images)


def from_scalars(field, rows, cols):
    """Typed rows {column: scalar} as :class:`IntRows`, each row over its own scale."""
    return IntRows(field, [_sparse(row.items(), field.characteristic) for row in rows], cols)


def plain_apply(X, v):
    """X·v by plain sums over the rows of X, at the non-zeros of v; no matrix product is formed."""
    zero, support = X.field.zero(), [(j, b) for j, b in enumerate(v) if b]
    return tuple(sum((row[j] * b for j, b in support if row[j]), zero) for row in X.data)


def plain_basis_images(M, v):
    """(1, v_1, .., v_e, w_1, .., w_a)·v, with w_m·v from the product sections."""
    alg = M.algebra
    gens = [plain_apply(X, v) for X in M.actions]
    out = [tuple(v)] + gens
    for section in alg.sections():
        acc = [alg.field.zero()] * M.dim
        for idx, coef in enumerate(section):
            if coef:
                i, j = divmod(idx, alg.e)
                acc = [s + coef * x if x else s
                       for s, x in zip(acc, plain_apply(M.actions[i], gens[j]))]
        out.append(tuple(acc))
    return out


def plain_cover_columns(M):
    """The columns of the cover A^t -> M: the basis images at each top lift, copy by copy."""
    return [img for m in top_lift(M) for img in plain_basis_images(M, m)]


def scaled_sum_action(M, u):
    """The action of u by scale-and-add over d x d matrices, W_m = sum s_ij X_i X_j."""
    alg, X = M.algebra, M.actions
    acc = scale(Matrix.identity(M.field, M.dim), u[0])
    for c, Y in zip(u[1:], X):
        acc = acc + scale(Y, c)
    for c, section in zip(u[1 + alg.e:], alg.sections()):
        for idx, s in enumerate(section):
            i, j = divmod(idx, alg.e)
            acc = acc + scale(X[i] * X[j], c * s)
    return acc


# -- the dense routes the package no longer has --------------------------------

def scale(X, c):
    """c·X, entry by entry."""
    return Matrix(X.field, [[c * x for x in row] for row in X.data], cols=X.cols)


def combination(coefs, mats):
    """sum_k coefs[k]·mats[k] over one or more matrices of one shape."""
    first = mats[0]
    assert all((X.rows, X.cols) == (first.rows, first.cols) for X in mats)
    out = [[first.field.zero()] * first.cols for _ in range(first.rows)]
    for c, X in zip(coefs, mats):
        if c:
            out = [[s + c * x if x else s for s, x in zip(acc, row)]
                   for acc, row in zip(out, X.data)]
    return Matrix(first.field, out, cols=first.cols)


def is_zero(X):
    """True iff every entry of the matrix X is zero."""
    return all(not x for row in X.data for x in row)


def complement(space):
    """The unit vectors at the free columns of ``space``: they extend its basis to k^ambient."""
    zero, one = space.field.zero(), space.field.one()
    return [tuple(one if c == f else zero for c in range(space.ambient))
            for f in space.free_columns()]


def top_lift(M):
    """Unit vectors lifting a basis of top M = M/JM: the complement of the radical."""
    return complement(M.radical())


def boundary_rows(syz):
    """The map P_j -> P_{j-1}, for Ω^j = ``syz``, as typed sparse rows: row l is d(unit_l).

    d(unit_l) is the l-th top lift of Ω^j, a row of its shadow in P_{j-1}, as
    (indices, values).  Only the top lifts' integer rows are converted.
    """
    p, rows = syz.field.characteristic, syz.space.int_rows()
    return [(rows[q][0], linalg.typed_values(rows[q][1], rows[q][2], p)) for q in syz.cover[0]]


def boundary_elements(syz):
    """The map P_j -> P_{j-1}, for Ω^j = ``syz``, as a matrix of algebra elements.

    Entry [l][k] is the element g with d(unit_l) having k-th component g,
    read off ``boundary_rows``.
    """
    rows = boundary_rows(syz)
    n = syz.algebra.dim
    t_prev = syz.space.ambient // n
    zero, out = syz.field.zero(), []
    for idx, vals in rows:
        elements = [[zero] * n for _ in range(t_prev)]
        for c, x in zip(idx, vals):
            elements[c // n][c % n] = x
        out.append([tuple(g) for g in elements])
    return out


def kernel_embedding(pres):
    """A presentation's kernel embedded in its cover's source: the kernel basis as columns."""
    P = pres.cover_map.source
    return ModuleMap(pres.kernel, P, Matrix.from_columns(P.field, pres._kernel_space.basis, P.dim))


def action_rows_over_scale(M):
    """``M.int_action_rows()`` as scalars: each int over the module's scale.

    The scale is the value on the identity rows (b = 0), each of which is
    checked to hold it alone, at its own column; over F_p it is 1 and an
    int stands for its residue.
    """
    act, p = M.int_action_rows(), M.field.characteristic
    scale = act[0][0][0][1] if M.dim else 1
    assert all(row == ((r, scale),) for r, row in enumerate(act[0]))
    assert not p or scale == 1
    return tuple(tuple(tuple((c, Fp(x % p, p) if p else Rational(x, scale)) for c, x in row)
                       for row in b) for b in act)


def scalars(row):
    """A row's entries, each with its type."""
    return tuple((type(x), x) for x in row)


def canonical(row):
    """A row's entries, each with the type :func:`Rational` gives its value: an ``int`` when
    integral over Q; an ``Fp`` stays as it is."""
    return scalars(x if isinstance(x, Fp) else Rational(x) for x in row)


def typed(space):
    """A subspace's basis, pivots and sparse rows, with the type of every scalar."""
    return ([scalars(v) for v in space.basis], space.pivots,
            [(p, idx, scalars(vals)) for p, (idx, vals) in space.sparse_rows().items()])


# -- the typed shadow route ----------------------------------------------------

def generator_images(alg, rows):
    """v_1·x .. v_e·x for each x in JA^t, given as its typed non-zeros (indices, values).

    v_j (v_i e_k) = sum_m c_{jim} w_m e_k and J^2 x is zero, so the image is
    read off the V-coordinates of x through the typed structure constants;
    each image is a dict {J^2-coordinate of A^t: scalar}.
    """
    e, n = alg.e, alg.dim
    products = [[] for _ in range(n)]
    for (j, i, m), c in alg.structure.items():
        products[i].append((j - 1, e + m, c))
    out = []
    for idx, vals in rows:
        images = [{} for _ in range(e)]
        for col, x in zip(idx, vals):
            i = col % n
            for j, w, c in products[i]:
                img, q = images[j], col - i + w
                img[q] = img[q] + c * x if q in img else c * x
        out.append(images)
    return out


def typed_phi_kernel(alg, images):
    """ker Φ from the typed images at the top lifts, as typed sparse rows, placed in A^t."""
    n = alg.dim
    phi_rows = defaultdict(dict)
    for k, imgs in enumerate(images):
        for c, img in enumerate(imgs, k * (n - 1)):
            for q, y in img.items():
                phi_rows[q][c] = y
    at = [k * n + u for k in range(len(images)) for u in range(1, n)]
    return kernel_subspace(from_scalars(alg.field, list(phi_rows.values()), len(at)),
                           at=at, ambient=n * len(images))


def typed_images(alg, space):
    """Pivot -> the typed images of every shadow row of ``space`` with a V-coordinate."""
    n, e, rows = alg.dim, alg.e, space.sparse_rows()
    mapped = [p for p in space.pivots
              if p % n <= e or any(0 < q % n <= e for q in rows[p][0])]
    return dict(zip(mapped, generator_images(alg, [rows[p] for p in mapped])))


def typed_cover(alg, space):
    """The top lifts and the cover kernel of the syzygy with shadow ``space``, typed.

    When the V-rows do not lift the whole top, the typed action columns
    (checked against the shadow by ``typed_pivot_columns``) are eliminated at
    Φ's pivot columns and at the J^2-rows, over the J^2-row coordinates.
    """
    n, e = alg.dim, alg.e
    images, empty = typed_images(alg, space), [{} for _ in range(e)]
    lifts = [p for p in space.pivots if p % n <= e]
    kernel = typed_phi_kernel(alg, [images.get(p, empty) for p in lifts])
    outer = [r for r, p in enumerate(space.pivots) if p % n > e]
    if (e + alg.a) * len(lifts) - kernel.dim < len(outer):
        columns = typed_pivot_columns(space, [images.get(p, empty) for p in space.pivots], e)
        free, at = set(kernel.pivots), {r: c for c, r in enumerate(outer)}
        row = {p: r for r, p in enumerate(space.pivots)}
        span = [cols[row[p]] for k, p in enumerate(lifts)
                for j, cols in enumerate(columns) if k * n + 1 + j not in free]
        span += [cols[r] for r in outer for cols in columns]
        radical = from_scalars(alg.field, [{at[s]: y for s, y in col} for col in span],
                               len(outer))
        lifts = sorted(lifts + [space.pivots[outer[c]]
                                for c in kernel_subspace(radical).pivots])
        kernel = typed_phi_kernel(alg, [images.get(p, empty) for p in lifts])
    return tuple(lifts), kernel


def typed_ladder(M, depth):
    """(top lifts, cover kernel) of Ω^0 M .. Ω^depth M by the typed route.

    Rung 0 reads Φ off M's typed top images, and its lifts are None; each
    later rung is the typed cover of the kernel before it.
    """
    rungs = [(None, typed_phi_kernel(M.algebra, top_images(M)))]
    while len(rungs) <= depth:
        rungs.append(typed_cover(M.algebra, rungs[-1][1]))
    return rungs


# -- the reduction walks -----------------------------------------------------

def walk_rest(space, v):
    """v, a dict {index: value}, less v[p]·row p at each non-zero entry at a pivot p."""
    rows, rest = space.sparse_rows(), dict(v)
    for p, c in v.items():
        if c and p in rows:
            for j, b in zip(*rows[p]):
                rest[j] = rest[j] - c * b if j in rest else -(c * b)
    return rest


def walk_reduce(space, v):
    """The dense vector v less v[p]·row p at each non-zero entry at a pivot p."""
    rows, out = space.sparse_rows(), list(v)
    for p, c in enumerate(v):
        if c and p in rows:
            for j, b in zip(*rows[p]):
                out[j] = out[j] - c * b
    return tuple(out)


def walk_quotient_columns(M, sub):
    """Per generator, column f of M/sub's action as {quotient index: value}.

    X e_f is reduced along sub's rows and read at the free columns: each
    entry x at a pivot subtracts x times its row.  Zero residues are
    dropped, as a matrix's sparse columns drop zeros.
    """
    rows, free = sub.sparse_rows(), sub.free_columns()
    at, zero = {f: b for b, f in enumerate(free)}, M.field.zero()
    acts = []
    for cols in typed_columns(M):
        act = []
        for f in free:
            col = {}
            for i, x in cols[f]:
                if i in at:
                    col[at[i]] = col.get(at[i], zero) + x
                else:
                    for j, y in zip(*rows[i]):
                        if j in at:
                            col[at[j]] = col.get(at[j], zero) - x * y
            act.append({b: x for b, x in col.items() if x})
        acts.append(act)
    return acts


def walk_tops(N, t, space):
    """Each basis vector (n_1..n_t) of ``space`` on tops: n_k reduced mod JN at N's free columns.

    Column s·t + k of ``space`` is entry s of n_k, as in ``relation_equations``.
    """
    radical = N.radical()
    rows, at = radical.sparse_rows(), {f: i for i, f in enumerate(radical.free_columns())}
    zero, flat, out = N.field.zero(), space.sparse_rows(), []
    for p in space.pivots:
        top = [[zero] * t for _ in at]
        for q, x in zip(*flat[p]):
            r, k = divmod(q, t)
            if r in at:
                top[at[r]][k] = top[at[r]][k] + x
            else:
                for j, y in zip(*rows[r]):
                    if j in at:
                        top[at[j]][k] = top[at[j]][k] - x * y
        out.append(Matrix(N.field, top, cols=t))
    return out


# -- the replaced row converter and torsionless test -----------------------------

def reference_sparse(row, p):
    """The non-zeros of a dense row or a dict {column: scalar} as {column: int}, a branch per kind.

    A dict is read item by item, an empty one returned as it is; a dense
    row's residues (over F_p) or values are compressed to their non-zeros.
    Over Q a row holding any non-int is multiplied by the lcm of its
    denominators.
    """
    if type(row) is dict:
        if not row:
            return row
        if p:
            return {j: v for j, x in row.items() if (v := x.v)}
        nz = {j: x for j, x in row.items() if x}
        if all(type(x) is int for x in nz.values()):
            return nz
        return dict(zip(nz, integer_values(list(nz.values()), 0)[0]))
    vals = [x.v for x in row] if p else row
    if not any(vals):
        return {}
    nz = list(compress(vals, vals))
    if not p and not all(type(x) is int for x in nz):
        nz, _ = integer_values(nz, 0)
    return dict(zip(compress(count(), vals), nz))


def vstack_torsionless(homs):
    """M is torsionless iff the stacked matrices of a basis of Hom(M, A) have no kernel."""
    maps = hom_basis(homs.source, homs.target)
    if not maps:
        return homs.source.dim == 0
    return not kernel_basis(stack_rows([f.matrix for f in maps]))


def dense_sparse_rows(basis, pivots):
    """Pivot -> (indices, values) of the non-zero entries of each dense basis row."""
    return {q: tuple(zip(*[(j, x) for j, x in enumerate(row) if x]))
            for q, row in zip(pivots, basis)}


def stack_rows(mats):
    """The matrices of one width stacked, the rows of the first on top."""
    return Matrix(mats[0].field, [row for X in mats for row in X.data], cols=mats[0].cols)


# -- the algebra's dense routes ------------------------------------------------

def vstack_socle(alg):
    """{z in A : J z = 0}: the kernel of the stacked left multiplications by v_1..v_e."""
    if alg.e == 0:
        return Subspace.from_vectors(alg.field, alg.dim, Matrix.identity(alg.field, alg.dim).data)
    stacked = stack_rows([alg.left_mult_matrix(alg.generator(i)) for i in range(1, alg.e + 1)])
    return Subspace.from_vectors(alg.field, alg.dim, kernel_basis(stacked))


def regular_rows(alg):
    """Per basis element b of A, the non-zeros (column, value) of each row of x -> b·x."""
    return [[[(c, x) for c, x in enumerate(row) if x]
             for row in alg.left_mult_matrix(alg.basis_vector(b)).data] for b in range(alg.dim)]


def regular_int_rows(alg, t):
    """A^t's ``int_action_rows``: copy k's rows are A's regular rows shifted by k·dim A.

    The values are converted together, as the engine converts them: left
    as they are over Q when every one is an ``int``, else
    ``integer_values`` over one scale.
    """
    n, p = alg.dim, alg.field.characteristic
    act = [[[(k * n + c, x) for c, x in row] for k in range(t) for row in rows]
           for rows in regular_rows(alg)]
    values = [y for b in act for row in b for _, y in row]
    if p or any(type(y) is not int for y in values):
        ints = iter(integer_values(values, p)[0])
        act = [[[(c, next(ints)) for c, _ in row] for row in b] for b in act]
    return tuple(tuple(map(tuple, b)) for b in act)


def per_m_sections(alg):
    """For each m, the solution s of sum_ij s_ij v_i v_j = w_m, one solve per m (None if none)."""
    ct, zero, one = alg.structure_matrix().transpose(), alg.field.zero(), alg.field.one()
    return [solve(ct, [one if k == m else zero for k in range(alg.a)]) for m in range(alg.a)]


def dense_reduce_structure(field, generators, relations, commutative=False):
    """The structure dict of ``algebra_from_relations``: each v_i v_j reduced as a dense vector."""
    e, zero, one = len(generators), field.zero(), field.one()
    rows = []
    for rel in relations:
        row = [zero] * (e * e)
        for (i, j), c in rel.items():
            row[(i - 1) * e + j - 1] = row[(i - 1) * e + j - 1] + field.of(c)
        rows.append(row)
    if commutative:
        for i in range(e):
            for j in range(i + 1, e):
                row = [zero] * (e * e)
                row[i * e + j], row[j * e + i] = one, -one
                rows.append(row)
    span = Subspace.from_vectors(field, e * e, rows)
    free_pos = {c: m for m, c in enumerate(span.free_columns())}
    structure = {}
    for k in range(e * e):
        vec = [zero] * (e * e)
        vec[k] = one
        for c, val in enumerate(span.reduce(vec)):
            if val:
                structure[(k // e + 1, k % e + 1, free_pos[c] + 1)] = val
    return structure


def walk_projection(M, sub):
    """The matrix of M -> M/sub: row f is e_f with -row_p[f] at each pivot p of sub."""
    rows = []
    for f in sub.free_columns():
        row = [M.field.zero()] * M.dim
        row[f] = M.field.one()
        for p, basis_row in zip(sub.pivots, sub.basis):
            row[p] = -basis_row[f]
        rows.append(row)
    return Matrix(M.field, rows, cols=M.dim)


def dense_validate(M):
    """The module axioms on dense matrices: the products, the product kernel, the triple loop."""
    products = [X * Y for X in M.actions for Y in M.actions]
    for lam in M.algebra.product_kernel():
        if not is_zero(combination(lam, products)):
            raise BadParams("action matrices violate a product relation")
    for P in products:
        if is_zero(P):
            continue
        for X in M.actions:
            if not is_zero(P * X):
                raise BadParams("triple product of generator actions is non-zero")


# -- the dual side's dense routes ------------------------------------------------

def dense_approximation(data):
    """u: M -> A^z stacked from the basis map matrices at M*'s lift columns, with its cokernel.

    Each f in the Hom(M, A) basis must solve f = sum_k r(b)·g_k: the
    right multiplications r(b) are A^op's regular rows, which combine the
    rows of each g_k, and their span must contain ``homs.flat``.
    """
    M = data.homs.source
    alg = M.algebra
    z = data.module.top_dim()
    P = free_module(alg, z)
    maps = hom_basis(M, data.homs.target)
    gs = [maps[c].matrix for c in data.module.lift_columns()]
    u = ModuleMap(M, P, stack_rows(gs) if gs else Matrix(M.field, [], cols=M.dim))
    zero, right = M.field.zero(), regular_rows(alg.opposite())
    factor_cols = [[sum((x * g.data[l][c] for l, x in row), zero)
                    for row in rows for c in range(M.dim)] for g in gs for rows in right]
    factor_space = Subspace.from_vectors(M.field, alg.dim * M.dim, factor_cols)
    if not all(factor_space.contains(row) for row in data.homs.flat.basis):
        raise InvariantViolation("left approximation fails its factoring certificate")
    img = u.image()
    return ApproximationData(approximation=u, rank=z, cokernel=quotient(P, img)[0],
                             injective=img.dim == M.dim)


def dense_evaluation(data):
    """M -> M**: column c holds the bidual coordinates of the n x h matrix (f_j(e_c))_j."""
    M = data.homs.source
    bidual, maps = dual_data(data.module), hom_basis(M, data.homs.target)
    cols = []
    for c in range(M.dim):
        mat_cols = [f.matrix.col(c) for f in maps]
        cols.append(bidual.homs.flat.coords(tuple(x for row in zip(*mat_cols) for x in row)))
    target = AModule(M.algebra, bidual.module.dim, bidual.module.actions, check=False)
    return ModuleMap(M, target, Matrix.from_columns(M.field, cols, target.dim))


# -- the search on dense tops ------------------------------------------------------

def image_copies(images, t):
    """n_1..n_t as {s: entry s of n_k}, from their entries {s·t + k: entry s of n_k}."""
    copies = [{} for _ in range(t)]
    for q, x in images.items():
        s, k = divmod(q, t)
        copies[k][s] = x
    return copies


def integer_top(N, t, images):
    """The A-map given by int images n_1..n_t in N, on tops: {f·t + k: entry f of n_k mod JN}.

    ``images`` are ints over a scale s, {s·t + k: entry s of n_k}.  Column k
    is L·n_k modulo JN (``Subspace.int_residue``), L the lcm of the leads of
    the radical's pivot rows, so the top is ints over L·s (residues over
    F_p); row f is its entry at N's f-th free column.
    """
    radical, p = N.radical(), N.field.characteristic
    L = lcm(*[lead for _, _, lead in radical.int_rows().values()])
    at = {f: i for i, f in enumerate(radical.free_columns())}
    top = {}
    for k, n_k in enumerate(image_copies(images, t)):
        for j, x in radical.int_residue(n_k.items(), L).items():
            top[at[j] * t + k] = x % p if p else x
    return top


def presentation_witness(M, N, images, scale):
    """The A-map F: M -> N with F(m_k) = n_k, for int images (n_1..n_t) over ``scale``.

    The b·m_k at the free columns (k, b) of M's cover kernel are a basis of
    M, and F(b·m_k) = b·n_k; F is read off one elimination of its graph,
    whose pivot row c is (e_c, F(e_c)).  A free column with b = w_m occurs
    only when J^2 M is not zero; then the pairs at the v_i·(v_j·m_k), which
    span the w_m·m_k, are formed too.
    """
    t, n, e = M.top_dim(), M.algebra.dim, M.algebra.e

    def build():
        dm, dn = M.dim, N.dim
        (cols_m, s_m), (cols_n, s_n) = M.int_columns(), N.int_columns()
        copies = image_copies(images, t)
        ms = [[{c: 1}] + [dict(cols[c]) for cols in cols_m] for c in M.lift_columns()]
        ns = [[x, *v] for x, v in zip(copies, vector_images(cols_n, [(x.keys(), x.values())
                                                                       for x in copies]))]
        free = [divmod(q, n) for q in M.cover_kernel.free_columns()]
        pairs = [(ms[k][b], ns[k][b], *((1, scale) if b == 0 else (s_m, scale * s_n)))
                 for k, b in free if b <= e]
        deep = sorted({k for k, b in free if b > e})
        if deep:
            twice_m = vector_images(cols_m, [(v.keys(), v.values())
                                             for k in deep for v in ms[k][1:]])
            twice_n = vector_images(cols_n, [(v.keys(), v.values())
                                             for k in deep for v in ns[k][1:]])
            pairs += [(x, y, s_m * s_m, scale * s_n * s_n)
                      for xs, ys in zip(twice_m, twice_n) for x, y in zip(xs, ys)]
        rows = []
        for x, y, sx, sy in pairs:
            m = lcm(sx, sy)
            rows.append({**{c: v * (m // sx) for c, v in x.items()},
                         **{dm + r: v * (m // sy) for r, v in y.items()}})
        graph = Subspace.from_vectors(M.field, dm + dn, IntRows(M.field, rows, dm + dn))
        rows = graph.sparse_rows()
        return Matrix.from_sparse_columns(N.field, dn, [
            [(j - dm, x) for j, x in zip(*rows[c]) if j >= dm] for c in range(dm)])
    return modules._LazyMap(M, N, build)


def dense_top(N, t, images):
    """The top of the map with images n_1..n_t as a dense matrix: n_k mod JN at N's free columns."""
    radical = N.radical()
    at = {f: i for i, f in enumerate(radical.free_columns())}
    zero = N.field.zero()
    top = [[zero] * t for _ in at]
    for k, n_k in enumerate(image_copies(images, t)):
        if n_k:
            for j, x in radical.residue(n_k.items()).items():
                top[at[j]][k] = x
    return Matrix(N.field, top, cols=t)


def dense_invertible(mat):
    """True iff ``mat`` is square of full rank; a zero matrix, unless 0 x 0, is not eliminated."""
    return mat.rows == mat.cols and (not mat.rows or any(map(any, mat.data))
                                     and rank(mat) == mat.rows)


def dense_top_find_isomorphism(M, N, seed=0):
    """``find_isomorphism`` on dense tops, each combination's read off its live combined images."""
    if M.dim != N.dim:
        return IsoSearch(False, True, note="dimension mismatch")
    if M.dim == 0:
        return IsoSearch(True, True, witness=ModuleMap(M, N, Matrix.zeros(M.field, 0, 0)))
    if M.top_dim() != N.top_dim():
        return IsoSearch(False, True, note="top dimension mismatch")
    homs, t = kernel_subspace(presentation_equations(M, N)), M.top_dim()
    rows = homs.sparse_rows()
    basis = [dict(zip(*rows[p])) for p in homs.pivots]
    live = []
    for i, images in enumerate(basis):
        top = dense_top(N, t, images)
        if dense_invertible(top):
            return IsoSearch(True, True, witness=typed_witness(M, N, images))
        if any(map(any, top.data)):
            live.append(i)
    if homs.dim != presentation_hom_dim(N, M):
        return IsoSearch(False, True, note="hom dimension mismatch")
    if not basis:
        return IsoSearch(False, True, note="no non-zero homomorphisms")
    rng = random.Random(seed)
    elems = [M.field.of(x) for x in DEFAULT_POOL]

    def coefficients():
        for _ in range(64):
            yield [rng.choice(elems) for _ in basis]
        if M.field.is_rationals:
            for point in range(1, 2 * len(basis) + 9):
                x = M.field.of(point)
                yield [x ** k for k in range(len(basis))]
    for coefs in coefficients():
        combined = typed_combine([coefs[i] for i in live], [basis[i] for i in live])
        if dense_invertible(dense_top(N, t, combined)):
            return IsoSearch(True, True, witness=typed_witness(M, N, typed_combine(coefs, basis)))
    return IsoSearch(False, False, note="no isomorphism found (probabilistic)")


def presentation_hom_dim(M, N):
    """dim Hom(M, N): t·dim N less the rank of ``presentation_equations``, for any M."""
    equations = presentation_equations(M, N)
    return equations.cols - rank(equations)


def typed_witness(M, N, images):
    """``presentation_witness`` of typed images, converted to ints over one scale first."""
    values, scale = integer_values(list(images.values()), M.field.characteristic)
    return presentation_witness(M, N, dict(zip(images, values)), scale)


# -- the search's and the stable Hom's typed twins ----------------------------------

def typed_top(N, t, images):
    """The top of the map with typed images n_1..n_t: {f·t + k: entry f of n_k mod JN}, typed.

    Column k is n_k's residue modulo JN (``Subspace.residue``), row f its
    entry at N's f-th free column.
    """
    radical = N.radical()
    at = {f: i for i, f in enumerate(radical.free_columns())}
    top = {}
    for k, n_k in enumerate(image_copies(images, t)):
        if n_k:
            for j, x in radical.residue(n_k.items()).items():
                top[at[j] * t + k] = x
    return top


def typed_invertible(N, t, top):
    """True iff the typed ``top`` is square, N's top having t rows, and of rank t.

    A zero top is not eliminated; any other is ranked as its typed rows,
    each converted on its own (``from_scalars``).
    """
    if N.top_dim() != t or not any(top.values()):
        return False
    rows = [{} for _ in range(t)]
    for q, x in top.items():
        f, k = divmod(q, t)
        rows[f][k] = x
    return rank(from_scalars(N.field, rows, t)) == t


def typed_combine(coefs, vectors):
    """sum_i coefs[i]·vectors[i] over typed vectors held as {index: value}."""
    out = {}
    for c, vector in zip(coefs, vectors):
        if c:
            for q, x in vector.items():
                out[q] = out[q] + c * x if q in out else c * x
    return out


def top_images(M):
    """The images of the radical basis at each top lift m_k, as typed {index: value}.

    m_k is the unit vector at c_k (``lift_columns``), so v_j m_k is column
    c_k of v_j's action; w_1 m_k .. w_a m_k follow (``square_images``),
    empty when J^2 M is zero.
    """
    columns = typed_columns(M)
    images = [[dict(cols[c]) for cols in columns] for c in M.lift_columns()]
    if M.loewy_length() < 3:
        return [vs + [{} for _ in range(M.algebra.a)] for vs in images]
    return [vs + ws for vs, ws in zip(images, square_images(M.algebra, columns, images))]


def typed_stable_hom_dim(M, N, cap=DEFAULT_CAP):
    """The stable Hom with Hom(M, A)'s typed rows composed with the cover's typed columns."""
    dim = hom_dim(M, N)
    if not dim:
        return 0
    n, d, t, one = M.algebra.dim, M.dim, _cover_rank(N, cap), N.field.one()
    cover = [col for c, imgs in zip(N.lift_columns(), top_images(N))
             for col in [[(c, one)], *(img.items() for img in imgs)]]
    blocks = [[[(s * d + c, x) for s, x in cover[k * n + r]] for r in range(n) for c in range(d)]
              for k in range(t)]
    images = vector_images(blocks, dual_data(M).homs.flat.sparse_rows().values())
    factoring = Subspace.from_vectors(M.field, N.dim * d, (img for row in images for img in row))
    return dim - factoring.dim


# -- a module's typed routes ---------------------------------------------------------

def typed_columns(M):
    """Per generator, the non-zero (row, value) pairs of each column of its action.

    A module with matrices scans them; one held by its integer columns
    types them (``modules._typed``), as ``AModule.actions`` does.
    """
    if "actions" in M.__dict__:
        return [X.sparse_columns() for X in M.actions]
    columns, scale = M.int_columns()
    return [[modules._typed(col, scale, M.field.characteristic) for col in cols]
            for cols in columns]


def typed_radical(M):
    """JM: the span of the typed action columns, each converted as a row (``from_scalars``)."""
    rows = [dict(col) for cols in typed_columns(M) for col in cols]
    return Subspace.from_vectors(M.field, M.dim, from_scalars(M.field, rows, M.dim))


def typed_stacked_actions(M):
    """The generator actions stacked, typed sparse rows converted one by one."""
    d = M.dim
    rows = [{} for _ in range(M.algebra.e * d)]
    for j, cols in enumerate(typed_columns(M)):
        for c, col in enumerate(cols):
            for r, x in col:
                rows[j * d + r][c] = x
    return from_scalars(M.field, rows, d)


def typed_socle(M):
    """soc M: the kernel of :func:`typed_stacked_actions`, its integer rows spanned again."""
    kernel = kernel_subspace(typed_stacked_actions(M)).int_rows().values()
    rows = IntRows(M.field, [dict(zip(idx, vals)) for idx, vals, _ in kernel], M.dim)
    return Subspace.from_vectors(M.field, M.dim, rows)


def typed_loewy_length(M):
    """The Loewy length: J^2 M = 0 tested on the typed radical rows mapped along typed columns."""
    if M.dim == 0:
        return 0
    radical = typed_radical(M)
    if radical.dim == 0:
        return 1
    images = vector_images(typed_columns(M), radical.sparse_rows().values())
    return 3 if any(any(img.values()) for row in images for img in row) else 2


def typed_int_action_rows(M):
    """``int_action_rows`` of the typed columns and w-images, all values converted together.

    The identity rows hold the field's one; over Q every value is left as
    it is when each is an ``int``, else all go through ``integer_values``
    over one scale.
    """
    d, one, columns = M.dim, M.field.one(), typed_columns(M)
    images = [[dict(cols[c]) for cols in columns] for c in range(d)]
    act = [[[] for _ in range(d)] for _ in range(M.algebra.dim)]
    if typed_loewy_length(M) < 3:
        squares = [()] * d
    else:
        squares = square_images(M.algebra, columns, images)
    for c, (vs, ws) in enumerate(zip(images, squares)):
        for b, image in enumerate([{c: one}, *vs, *ws]):
            for r, x in image.items():
                act[b][r].append((c, x))
    p = M.field.characteristic
    values = [y for b in act for row in b for _, y in row]
    if p or any(type(y) is not int for y in values):
        ints = iter(integer_values(values, p)[0])
        act = [[[(c, next(ints)) for c, _ in row] for row in b] for b in act]
    return tuple(tuple(map(tuple, b)) for b in act)


# -- the typed module builders -------------------------------------------------------

def typed_pivot_columns(space, images, e):
    """The typed columns of the actions induced on a subspace, from the typed images of its rows.

    ``images[r][j]`` is v_{j+1} applied to basis row r, a dict {index:
    scalar}.  Each image must have a zero typed residue
    (``Subspace.residue``; BadParams otherwise), and its coordinates are its
    non-zero entries at the pivots, in the image's own order.
    """
    at = {p: r for r, p in enumerate(space.pivots)}
    columns = [[] for _ in range(e)]
    for row_images in images:
        for cols, image in zip(columns, row_images):
            if any(space.residue(image.items()).values()):
                raise BadParams("subspace is not stable under the module action")
            cols.append([(at[q], y) for q, y in image.items() if y and q in at])
    return columns


def square_images(alg, columns, images):
    """w_1·x .. w_a·x for each x, from its typed images v_1·x .. v_e·x as dicts.

    w_m = sum s_ij v_i v_j for the typed sections s, so w_m·x sums the
    images v_i·(v_j·x) read along the typed ``columns``, in typed sums.
    """
    out = []
    for vs in images:
        twice, ws = vector_images(columns, [(v.keys(), v.values()) for v in vs]), []
        for section in alg.sections():
            w = {}
            for ij, s in enumerate(section):
                if s:
                    for q, y in twice[ij % alg.e][ij // alg.e].items():
                        w[q] = w[q] + s * y if q in w else s * y
            ws.append({q: y for q, y in w.items() if y})
        out.append(ws)
    return out


# -- the elimination without its back-clear index ------------------------------------

def unindexed_echelon(field, rows, ncols, counts=None):
    """``linalg._echelon`` scanning every older pivot row at each back-clear.

    ``counts``, a list, gains one entry per older row cleared at a new pivot.
    """
    p = field.characteristic
    piv = {}
    used = set()
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
        elif row[c] != 1:
            g = 1 if hits or row[c] == -1 else gcd(*row.values())
            g = -g if row[c] < 0 else g
            if g != 1:
                row = {j: x // g for j, x in row.items()}
        if c in used:
            for q, qrow in piv.items():
                if c in qrow:
                    piv[q] = _tidy(_clear(qrow, row, c), p)
                    if counts is not None:
                        counts.append(q)
        piv[c] = row
        used.update(row)
    return piv


# -- the replaced Kronecker equations and GP route ------------------------------------

def reference_kronecker_hom_dim(repA, repB):
    """dim Hom of Kronecker representations, each column of phiA rebuilt per equation."""
    n0 = repB.dim0 * repA.dim0
    n1 = repB.dim1 * repA.dim1
    if n0 + n1 == 0 or not repA.maps:
        return n0 + n1
    rows = []
    for phiA, phiB in zip(repA.maps, repB.maps):
        for r in range(repB.dim1):
            for c in range(repA.dim0):
                row = {k * repA.dim0 + c: x for k, x in enumerate(phiB.data[r]) if x}
                row.update((n0 + r * repA.dim1 + k, -x) for k, x in enumerate(phiA.col(c)) if x)
                rows.append(row)
    return n0 + n1 - rank(from_scalars(repA.maps[0].field, rows, n0 + n1))


def reference_kronecker_data(N):
    """N' = ann_N(J^2) as (b0, b1, arrows, scale): N itself when J^2 N = 0, else the kernel
    of N's stacked w-action rows; not kept on N."""
    sub, e = N, N.algebra.e
    if N.loewy_length() > 2:
        rows = [dict(row) for b in N.int_action_rows()[e + 1:] for row in b]
        sub = modules.module_from_subspace(N, kernel_subspace(IntRows(N.field, rows, N.dim)))[0]
    rad, (columns, scale) = sub.radical(), sub.int_columns()
    lifts, at = rad.free_columns(), {q: r for r, q in enumerate(rad.pivots)}
    return (len(lifts), rad.dim, [[[(at[q], x) for q, x in cols[c] if q in at] for c in lifts]
                                  for cols in columns], scale)


def reference_top_hom_dim(M, N):
    """dim Hom(M, N) for J^2 M = 0: t·dim JN' plus the nullity of M's g0 system against
    ``reference_kronecker_data(N)``."""
    kron, t = reference_kronecker_data(N), M.top_dim()
    equations = modules._kronecker_equations(N.field, M.cover_kernel.pivot_form(),
                                             M.algebra.dim - 1, t, kron)
    return t * kron[1] + equations.cols - rank(equations)


def hom_complex_ext_dims(M, N, imax, cap=DEFAULT_CAP):
    """dim Ext^0..Ext^imax(M, N) from the ranks of the Hom-complex maps d_1^*..d_{imax+1}^*."""
    if M.dim == 0 or N.dim == 0:
        return [0] * (imax + 1)
    # Step i's kernel is Ω^{i+1}, the source of d_{i+1}; its cover is checked too.
    steps, out, prev = list(islice(resolution(M, cap=cap), imax + 2)), [], 0
    for step in steps[:-1]:
        cur = rank(_hom_complex_matrix(step.kernel, N))
        out.append(step.cover_rank * N.dim - cur - prev)
        prev = cur
    return out


def covering_resolution(M, cap=DEFAULT_CAP):
    """M's resolution with one new cover per step, however its rungs repeat."""
    while True:
        step = projective_cover(M, cap=cap)
        yield step
        M = step.kernel


def unsplit_ladder(M, cap=DEFAULT_CAP):
    """t_0, t_1, .. of M: the top of M, then the top of each step's kernel along
    ``covering_resolution``, which splits nothing off; it raises ResourceCapExceeded where
    the cover of a rung does."""
    yield M.top_dim()
    for step in covering_resolution(M, cap=cap):
        yield step.kernel.top_dim()


def covering_ext_dims(M, N, imax):
    """dim Ext^0..Ext^imax(M, N) along ``covering_resolution``: a Hom system ranked per step."""
    if M.dim == 0 or N.dim == 0:
        return [0] * (imax + 1)
    return list(islice(_ext_sequence(covering_resolution(M), N), imax + 1))


def covering_is_semi_gp(M, bound):
    """The bounded semi-GP scan: Ext^1..Ext^bound(M, A) along ``covering_resolution``."""
    exts = covering_ext_dims(M, modules.left_regular_module(M.algebra), bound)[1:]
    failed = next((i for i, x in enumerate(exts, 1) if x), None)
    return BoundedVerdict(failed is None, bound, failed)


def covering_is_inf_torsionfree(M, bound):
    return covering_is_semi_gp(transpose(M), bound)


def covering_is_gp(M, bound):
    semi = covering_is_semi_gp(M, bound)
    return covering_is_inf_torsionfree(M, bound) if semi else semi


def omegas(M, k, cap=DEFAULT_CAP):
    """Ω^0 M .. Ω^k M: M, then the kernels of the first k steps of one ``resolution``."""
    return [M] + [step.kernel for step in islice(resolution(M, cap=cap), k)]


def two_resolution_is_gp(M, bound):
    """Bounded GP: the semi-GP scan of M, then of its transpose, each on a resolution of its own."""
    semi = is_semi_gp(M, bound=bound)
    if not semi:
        return semi
    return is_semi_gp(transpose(M), bound=bound)
