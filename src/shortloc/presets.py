"""Catalog of named example algebras.

Each preset reduces its defining generators and relations to structure
constants once, at construction time, via
:func:`shortloc.algebra.algebra_from_relations`.  The names are part of
the CLI surface and stay stable.
"""

from __future__ import annotations

from typing import Optional

from .algebra import ShortAlgebra, algebra_from_relations
from .errors import BadParams, InvariantViolation, ResourceCapExceeded
from .linalg import QQ, Field


def _check_hilbert(alg: ShortAlgebra, expected: tuple[int, int]):
    if alg.hilbert_type != expected:
        raise InvariantViolation(
            f"preset {alg.name!r} produced Hilbert type {alg.hilbert_type}, "
            f"expected {expected}")
    return alg


def _q_tags(field: Field, q) -> dict:
    tags = {"q": str(q)}
    if not field.is_rationals:
        # Over F_p every unit has finite order, so the "infinite
        # multiplicative order" hypothesis cannot hold; bounded checks may
        # then disagree with the generic behaviour.
        tags["note"] = "q has finite order over a prime field"
    return tags


def radical_square_zero(e: int, field: Field = QQ) -> ShortAlgebra:
    """L(e): the local algebra with J^2 = 0 and dim J = e."""
    if e < 1:
        raise BadParams("L(e) needs e >= 1")
    gens = [f"x{i}" for i in range(1, e + 1)]
    rels = [{(i, j): 1} for i in range(1, e + 1) for j in range(1, e + 1)]
    alg = algebra_from_relations(field, gens, rels, name=f"L({e})",
                                 tags={"preset": "L", "e": e})
    return _check_hilbert(alg, (e, 0))


def quantum_exterior(q=2, field: Field = QQ) -> ShortAlgebra:
    """Quantum exterior algebra in two variables: x^2, y^2, xy + q yx.

    It is self-injective of Hilbert type (2, 1).  The default q = 2 has
    infinite multiplicative order in Q*.
    """
    qv = field.of(q)
    if not qv:
        raise BadParams("q must be non-zero")
    rels = [{(1, 1): 1}, {(2, 2): 1}, {(1, 2): 1, (2, 1): qv}]
    alg = algebra_from_relations(field, ["x", "y"], rels, name=f"qexterior(q={q})",
                                 tags={"preset": "qexterior", **_q_tags(field, q)})
    return _check_hilbert(alg, (2, 1))


def lambda_family(c: int = 0, q=2, field: Field = QQ) -> ShortAlgebra:
    """The (3+c, 2+c) family on generators x, y, z, u_1..u_c.

    Relations: x^2, y^2, z^2, yz, xy + q yx, xz - zx, zy - zx, together
    with x u_i - u_i x and the vanishing of all other products involving
    the u_i.  J^2 has basis yx, zx, u_1 x, ..., u_c x and equals both
    socles, and q must have infinite multiplicative order for the family's
    distinguishing module behaviour.
    """
    if c < 0:
        raise BadParams("lambda_c needs c >= 0")
    qv = field.of(q)
    if not qv:
        raise BadParams("q must be non-zero")
    gens = ["x", "y", "z"] + [f"u{i}" for i in range(1, c + 1)]
    x, y, z = 1, 2, 3
    rels = [{(x, x): 1}, {(y, y): 1}, {(z, z): 1}, {(y, z): 1},
            {(x, y): 1, (y, x): qv}, {(x, z): 1, (z, x): -1}, {(z, y): 1, (z, x): -1}]
    for i in range(1, c + 1):
        ui = 3 + i
        rels.append({(x, ui): 1, (ui, x): -1})
        rels.append({(y, ui): 1})
        rels.append({(ui, y): 1})
        rels.append({(z, ui): 1})
        rels.append({(ui, z): 1})
        for j in range(1, c + 1):
            rels.append({(ui, 3 + j): 1})
    alg = algebra_from_relations(field, gens, rels, name=f"lambda_c(c={c},q={q})",
                                 tags={"preset": "lambda_c", "c": c, **_q_tags(field, q)})
    return _check_hilbert(alg, (3 + c, 2 + c))


def _ex3_4(field: Field) -> ShortAlgebra:
    # k[x,y] truncated at degree 3; J^2 is all of the degree-two part.
    alg = algebra_from_relations(field, ["x", "y"], [], commutative=True,
                                 name="ex3_4", tags={"preset": "ex3_4"})
    return _check_hilbert(alg, (2, 3))


def _ex5_3(field: Field) -> ShortAlgebra:
    rels = [{(2, 1): 1}, {(2, 2): 1}]
    alg = algebra_from_relations(field, ["x", "y"], rels, name="ex5_3",
                                 tags={"preset": "ex5_3"})
    return _check_hilbert(alg, (2, 2))


def _ex5_4a(field: Field) -> ShortAlgebra:
    x, y, z = 1, 2, 3
    rels = [{(z, z): 1}, {(x, y): 1}, {(y, x): 1}, {(y, z): 1}, {(z, y): 1},
            {(z, x): 1, (x, z): -1}, {(y, y): 1, (x, z): -1}]
    alg = algebra_from_relations(field, ["x", "y", "z"], rels, name="ex5_4a",
                                 tags={"preset": "ex5_4a"})
    return _check_hilbert(alg, (3, 2))


def _ex5_4b(field: Field) -> ShortAlgebra:
    # Commutative, with x^2 + y^2 = 0.  Realized over Q, where x^2 + y^2
    # is likewise irreducible, so End(J) is a quadratic field extension
    # and J is indecomposable but not solid.
    rels = [{(1, 2): 1, (2, 1): -1}, {(1, 1): 1, (2, 2): 1}]
    alg = algebra_from_relations(field, ["x", "y"], rels, commutative=True,
                                 name="ex5_4b", tags={"preset": "ex5_4b"})
    return _check_hilbert(alg, (2, 2))


def _ex5_5(field: Field) -> ShortAlgebra:
    x, y, z = 1, 2, 3
    rels = [{(x, x): 1}, {(y, y): 1}, {(z, z): 1}, {(y, x): 1}, {(y, z): 1},
            {(z, x): 1, (x, y): -1}, {(z, y): 1, (x, z): -1}]
    alg = algebra_from_relations(field, ["x", "y", "z"], rels, name="ex5_5",
                                 tags={"preset": "ex5_5"})
    return _check_hilbert(alg, (3, 2))


def _ex8_3(field: Field) -> ShortAlgebra:
    rels = [{(2, 1): 1}, {(1, 1): 1, (2, 2): -1}]
    alg = algebra_from_relations(field, ["x", "y"], rels, name="ex8_3",
                                 tags={"preset": "ex8_3"})
    return _check_hilbert(alg, (2, 2))


def _ex9_3(field: Field) -> ShortAlgebra:
    rels = [{(1, 1): 1}, {(1, 2): 1}, {(2, 2): 1}]
    alg = algebra_from_relations(field, ["x", "y"], rels, name="ex9_3",
                                 tags={"preset": "ex9_3"})
    return _check_hilbert(alg, (2, 1))


def _ex9_4(field: Field, q=2) -> ShortAlgebra:
    qv = field.of(q)
    if not qv:
        raise BadParams("q must be non-zero")
    x, y, z = 1, 2, 3
    rels = [{(x, x): 1}, {(y, y): 1}, {(z, z): 1}, {(x, y): 1, (y, x): qv},
            {(x, z): 1}, {(y, z): 1}, {(z, y): 1, (z, x): -1}]
    alg = algebra_from_relations(field, ["x", "y", "z"], rels,
                                 name=f"ex9_4(q={q})",
                                 tags={"preset": "ex9_4", **_q_tags(field, q)})
    return _check_hilbert(alg, (3, 2))


def truncated_tensor(e: int, a: int, field: Field = QQ) -> ShortAlgebra:
    """A quotient of the truncated tensor algebra k + E + E(x)E.

    For any 0 <= a <= e^2 (with e >= 2) a subspace U of E(x)E with
    dim U = e^2 - a is cut out so that the radical of the quotient is
    decomposable; hence no non-projective module is reflexive.
    """
    if e < 2:
        raise BadParams("truncated tensor preset needs e >= 2")
    if not 0 <= a <= e * e:
        raise BadParams("need 0 <= a <= e^2")
    gens = [f"x{i}" for i in range(1, e + 1)]
    if a == 0:
        killed = [(i, j) for i in range(1, e + 1) for j in range(1, e + 1)]
    elif a < e:
        killed = [(i, 1) for i in range(a + 1, e + 1)]
        killed += [(i, j) for j in range(2, e + 1) for i in range(1, e + 1)]
    else:
        second = [(i, j) for j in range(2, e + 1) for i in range(1, e + 1)]
        killed = second[:e * e - a]
    rels = [{pair: 1} for pair in killed]
    alg = algebra_from_relations(field, gens, rels, name=f"ex14_1(e={e},a={a})",
                                 tags={"preset": "ex14_1", "e": e, "a": a})
    return _check_hilbert(alg, (e, a))


def conca_family(e: int, a: int, field: Field = QQ) -> ShortAlgebra:
    """Commutative algebras of Hilbert type (e, a) with 1 <= a <= e-1.

    Generators x, y_1..y_a, z_1..z_c with c = e - a - 1; relations
    x^2, x z_j, y_i y_i', y_i z_j, z_j^2 - x y_a, z_j z_j' (j != j').
    The element x is a Conca generator (x^2 = 0 and J^2 = Jx), and the
    cyclic module Ax is reflexive with dimension vector (1, a).
    """
    if not 1 <= a <= e - 1:
        raise BadParams("need 1 <= a <= e-1")
    c = e - a - 1
    gens = ["x"] + [f"y{i}" for i in range(1, a + 1)] + [f"z{j}" for j in range(1, c + 1)]
    x = 1
    ys = list(range(2, 2 + a))
    zs = list(range(2 + a, 2 + a + c))
    rels = [{(x, x): 1}]
    for zj in zs:
        rels.append({(x, zj): 1})
    for yi in ys:
        for yk in ys:
            rels.append({(yi, yk): 1})
        for zj in zs:
            rels.append({(yi, zj): 1})
    for zj in zs:
        rels.append({(zj, zj): 1, (x, ys[-1]): -1})
        for zk in zs:
            if zk != zj:
                rels.append({(zj, zk): 1})
    alg = algebra_from_relations(field, gens, rels, commutative=True,
                                 name=f"ex15_1(e={e},a={a})",
                                 tags={"preset": "ex15_1", "e": e, "a": a})
    return _check_hilbert(alg, (e, a))


_PRESETS = {
    "L": (radical_square_zero, ("e",)),
    "qexterior": (quantum_exterior, ("q",)),
    "lambda_c": (lambda_family, ("c", "q")),
    "ex3_4": (_ex3_4, ()),
    "ex5_3": (_ex5_3, ()),
    "ex5_4a": (_ex5_4a, ()),
    "ex5_4b": (_ex5_4b, ()),
    "ex5_5": (_ex5_5, ()),
    "ex8_3": (_ex8_3, ()),
    "ex9_3": (_ex9_3, ()),
    "ex9_4": (_ex9_4, ("q",)),
    "ex14_1": (truncated_tensor, ("e", "a")),
    "ex15_1": (conca_family, ("e", "a")),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str, field: Field = QQ, *, e: Optional[int] = None,
           a: Optional[int] = None, c: Optional[int] = None, q=None,
           cap: Optional[int] = None) -> ShortAlgebra:
    """Construct a preset algebra by name.

    Accepted parameters per preset: ``L`` takes e; ``qexterior`` and
    ``ex9_4`` take q (default 2); ``lambda_c`` takes c (default 0) and q;
    ``ex14_1`` and ``ex15_1`` take e and a.  Unknown or missing parameters
    raise :class:`BadParams`.  The relations are reduced in the g^2 products
    of the g generators, with time and memory growing about as g^4, so with
    a ``cap`` g^2 is checked against it before anything is built.
    """
    if name not in _PRESETS:
        raise BadParams(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    fn, allowed = _PRESETS[name]
    given = {"e": e, "a": a, "c": c, "q": q}
    kwargs = {}
    for key, val in given.items():
        if val is None:
            continue
        if key not in allowed:
            raise BadParams(f"preset {name!r} does not take parameter {key!r}")
        kwargs[key] = val
    if name == "L" and e is None:
        raise BadParams("preset 'L' needs e")
    if name in ("ex14_1", "ex15_1") and (e is None or a is None):
        raise BadParams(f"preset {name!r} needs both e and a")
    # A preset has e generators when it takes e, and at most 3 + c otherwise.
    gens = max(e if e is not None else 3 + (c or 0), 0)
    if cap is not None and gens * gens > cap:
        raise ResourceCapExceeded(gens * gens, cap)
    return fn(field=field, **kwargs)
