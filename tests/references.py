"""Dense references that the sparse engine routes are checked against.

They read a module's dense action matrices: an element's action is a
scaled sum of the generator actions and their pairwise products, and the
images of a vector under the basis of A are sums of products entry by
entry.  Zero terms are skipped, as in ``Matrix.__mul__``, so a value's
scalar type follows its non-zero products and typed comparisons with the
engine hold.
"""

from shortloc.linalg import Matrix


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
    return [img for m in M.top_lift() for img in plain_basis_images(M, m)]


def scaled_sum_action(M, u):
    """The action of u by scale-and-add over d x d matrices, W_m = sum s_ij X_i X_j."""
    alg, X = M.algebra, M.actions
    acc = Matrix.identity(M.field, M.dim).scale(u[0])
    for c, Y in zip(u[1:], X):
        acc = acc + Y.scale(c)
    for c, section in zip(u[1 + alg.e:], alg.sections()):
        for idx, s in enumerate(section):
            i, j = divmod(idx, alg.e)
            acc = acc + (X[i] * X[j]).scale(c * s)
    return acc


def scalars(row):
    """A row's entries, each with its type."""
    return tuple((type(x), x) for x in row)


def typed(space):
    """A subspace's basis, pivots and sparse rows, with the type of every scalar."""
    return ([scalars(v) for v in space.basis], space.pivots,
            [(p, idx, scalars(vals)) for p, (idx, vals) in space.sparse_rows().items()])
