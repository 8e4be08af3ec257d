"""Lint: every public function and method of the package has a reader.

A function defined at the top level of a module under ``src/shortloc``, or
a method of a top-level class there, whose name does not start with an
underscore, must be read somewhere outside the tests: as a name or an
attribute in the package (the CLI included), in ``demos/`` or in
``bench/``, or named in ``README.md`` or in a string of ``bench/`` (the
tracer names ``"linalg:Subspace.reduce"``, and ``"numerics:*"`` names
every top-level function of ``numerics``).  Otherwise it is on
``KEEP`` with its reason, and no reason may be that a test reference reads
it: such a route belongs in ``tests/references.py``.  Readers are matched
by name, so a name read for
one route counts for every route of that name; dunder methods are read
by operators and are not scanned.  Being imported by ``__init__`` reads
nothing: an export is no reader.
"""

import ast
import os
import re

import shortloc

SRC = os.path.dirname(shortloc.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORD = re.compile(r"[A-Za-z_]\w*")

#: Routes that nothing outside the tests reads, each with the reason it stays.
KEEP = {
    "ModuleMap.is_intertwiner": "independent checker that every map test reads",
    "ModuleMap.is_isomorphism": "independent checker of the isomorphism search's witnesses",
    "AModule.is_zero": "public API: the zero-module test",
    "hom_basis": "public API: the one route that reads Hom(M, N)'s basis maps",
    "minimal_left_approximation": "public API: the paper's approximation as (u, z)",
    "submodule": "public API: the span of action-stable vectors as a module",
    "random_matrix": "public API: seeded random matrices for tests and sweeps",
}


def public_routes(tree) -> list[str]:
    """``name`` for each public top-level function, ``Class.name`` for each public method."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{sub.name}" for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def read_names(tree, strings: bool = False) -> set[str]:
    """Every name and attribute the code reads; with ``strings``, the words of its strings too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(WORD.findall(node.value))
            if node.value.endswith(":*"):
                names.add(node.value)
    return names


def _python(directory: str):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield name, ast.parse(fh.read())


def unread_routes() -> tuple[list[str], list[str]]:
    """(routes with no reader and not on KEEP, every public route), as ``module:route``."""
    routes, readers = [], set()
    for name, tree in _python(SRC):
        routes += [(name[:-3], route) for route in public_routes(tree)]
        readers |= read_names(tree)
    for directory in ("demos", "bench"):
        for _, tree in _python(os.path.join(ROOT, directory)):
            readers |= read_names(tree, strings=directory == "bench")
    with open(os.path.join(ROOT, "README.md")) as fh:
        readers.update(WORD.findall(fh.read()))
    unread = [f"{module}:{route}" for module, route in routes
              if route.rpartition(".")[2] not in readers and route not in KEEP
              and ("." in route or f"{module}:*" not in readers)]
    return unread, [f"{module}:{route}" for module, route in routes]


def test_every_public_route_has_a_reader_or_a_reason():
    unread, routes = unread_routes()
    assert unread == []
    assert len(routes) >= 200


def test_every_kept_route_exists():
    _, routes = unread_routes()
    defined = {route.partition(":")[2] for route in routes}
    assert sorted(set(KEEP) - defined) == []


def test_no_route_is_kept_only_as_a_reference():
    # A route that only the tests' references read belongs in tests/references.py.
    assert [route for route, why in KEEP.items() if why.startswith("reference")] == []


def test_the_lint_sees_functions_methods_and_their_readers():
    source = ("def used(): pass\n"
              "def _private(): pass\n"
              "class C:\n"
              "    def method(self): return used()\n"
              "    def __add__(self, other): pass\n"
              "x = C().method\n"
              "y = 'layer:C.other'\n")
    tree = ast.parse(source)
    assert public_routes(tree) == ["used", "C.method"]
    assert {"used", "method", "C"} <= read_names(tree)
    assert "other" not in read_names(tree) and "other" in read_names(tree, strings=True)
    assert "numerics:*" in read_names(ast.parse("z = 'numerics:*'\n"), strings=True)
