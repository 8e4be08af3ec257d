"""JSON formats for algebras, modules and reports.

Scalars serialize as strings ("3/2", "-1"), never floats, so files stay
exact end-to-end.  Emission is deterministic: keys sorted, structure
triples sorted, indent fixed.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .algebra import ShortAlgebra
from .errors import BadParams, ResourceCapExceeded, SurjectivityViolation
from .linalg import Field, Matrix
from .modules import AModule


def _require(d, what: str, *keys: str) -> None:
    """Raise BadParams unless ``d`` is a JSON object holding every key."""
    missing = [k for k in keys if not isinstance(d, dict) or k not in d]
    if missing:
        raise BadParams(f"{what} lacks {', '.join(map(repr, missing))}")


def _typed(value, types: tuple, what: str):
    """``value``, or BadParams unless it has one of the ``types`` (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, types):
        kinds = " or ".join(t.__name__ for t in types)
        raise BadParams(f"{what} must be {kinds}, got {type(value).__name__}")
    return value


def _matrix(field: Field, rows, cols: int, what: str) -> Matrix:
    """A matrix from a list of rows of string or integer scalars (never floats)."""
    rows = [_typed(row, (list,), what) for row in _typed(rows, (list,), what)]
    return Matrix(field, [[field.of(_typed(x, (str, int), what)) for x in row] for row in rows],
                  cols=cols)


def field_to_dict(field: Field) -> dict:
    if field.is_rationals:
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.characteristic}


def field_from_dict(d: dict) -> Field:
    kind = _typed(d, (dict,), "field").get("kind")
    if kind == "Q":
        return Field.rationals()
    if kind == "Fp":
        _require(d, "prime field", "p")
        return Field.prime(_typed(d["p"], (int,), "field 'p'"))
    raise BadParams(f"unknown field kind {kind!r}")


def matrix_to_lists(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.data]


def algebra_to_dict(alg: ShortAlgebra) -> dict:
    out = {
        "field": field_to_dict(alg.field),
        "e": alg.e,
        "a": alg.a,
        "structure": [[i, j, m, str(c)] for (i, j, m), c in sorted(alg.structure.items())],
        "name": alg.name,
    }
    if alg.tags:
        out["tags"] = _jsonable_tags(alg.tags)
    return out


def _jsonable_tags(tags: dict) -> dict:
    out = {}
    for k, v in tags.items():
        if isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = v
    return out


def algebra_from_dict(d: dict, cap: Optional[int] = None) -> ShortAlgebra:
    """The algebra of ``d``, validated.

    Before its e^2 x a structure matrix is built, e^2 is checked against
    ``cap`` (if given), as a preset's g^2 is, and a > e^2 is refused: the
    e^2 products cannot span J^2.
    """
    _require(d, "algebra", "field", "e", "a")
    field = field_from_dict(d["field"])
    structure = {}
    for entry in _typed(d.get("structure", []), (list,), "algebra 'structure'"):
        i, j, m, c = _typed(entry, (list,), "structure entry")
        structure[tuple(_typed(x, (int,), "structure index") for x in (i, j, m))] = \
            field.of(_typed(c, (str, int), "structure constant"))
    tags = _typed(d.get("tags") or {}, (dict,), "algebra 'tags'")
    if "generators" in tags and isinstance(tags["generators"], list):
        tags = dict(tags, generators=tuple(tags["generators"]))
    alg = ShortAlgebra(field, _typed(d["e"], (int,), "algebra 'e'"),
                       _typed(d["a"], (int,), "algebra 'a'"), structure,
                       name=_typed(d.get("name", ""), (str,), "algebra 'name'"), tags=tags)
    squares = alg.e * alg.e
    if cap is not None and squares > cap:
        raise ResourceCapExceeded(squares, cap)
    if alg.a > squares:
        raise SurjectivityViolation(
            f"degree-two products span at most {squares} of {alg.a} dimensions")
    alg.validate()
    return alg


def module_to_dict(M: AModule, algebra: Optional[object] = None) -> dict:
    """Serialize a module; ``algebra`` may be a file-reference string."""
    alg_part = algebra if isinstance(algebra, str) else algebra_to_dict(M.algebra)
    return {
        "algebra": alg_part,
        "dim": M.dim,
        "actions": [matrix_to_lists(X) for X in M.actions],
    }


def module_from_dict(d: dict, base_dir: str = ".", cap: Optional[int] = None) -> AModule:
    """The module of ``d``; its algebra is read with ``cap`` (:func:`algebra_from_dict`)."""
    _require(d, "module", "algebra", "dim", "actions")
    alg_part = d["algebra"]
    if isinstance(alg_part, str):
        path = alg_part if os.path.isabs(alg_part) else os.path.join(base_dir, alg_part)
        alg = load_algebra(path, cap)
    else:
        alg = algebra_from_dict(alg_part, cap)
    dim = _typed(d["dim"], (int,), "module 'dim'")
    actions = [_matrix(alg.field, X, dim, "module action")
               for X in _typed(d["actions"], (list,), "module 'actions'")]
    return AModule(alg, dim, actions)


def report(op: str, inputs: dict, *, bound: Optional[int] = None,
           values=None, flags: Optional[list[str]] = None, **extra) -> dict:
    """The result envelope used for machine output."""
    out = {"op": op, "inputs": inputs, "bound": bound, "values": values,
           "flags": flags or []}
    out.update(extra)
    return out


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, fixed indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParams(f"cannot write {path}: {exc.strerror}") from None


def save_json(path: str, obj) -> None:
    save_text(path, dumps(obj))


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadParams(f"cannot read {path}: {exc.strerror}") from None
    except RecursionError:
        raise BadParams(f"cannot read {path}: JSON nested too deeply") from None


def load_algebra(path: str, cap: Optional[int] = None) -> ShortAlgebra:
    return algebra_from_dict(load_json(path), cap)


def load_module(path: str, cap: Optional[int] = None) -> AModule:
    return module_from_dict(load_json(path), base_dir=os.path.dirname(path) or ".", cap=cap)
