"""Lint: a subspace is only an elimination's output, and a Hom space only its flat rows.

``Subspace`` has two origins, both of ``_echelon``: ``Subspace._span``, a
span's pivot rows, and ``Subspace.from_pivot_rows``, a kernel's pivot
form.  Nothing else in the package calls ``Subspace(...)``, so no subspace
is held by a dense basis.  ``HomSpace`` is the record (source, target,
flat); its maps are built only by ``hom_basis``.
"""

import ast
import os

import shortloc

SRC = os.path.dirname(shortloc.__file__)

#: The only functions that may call ``Subspace(...)``.
ORIGINS = {"Subspace._span", "Subspace.from_pivot_rows"}

SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def subspace_calls(source: str) -> list[str]:
    """Each call of ``Subspace(...)`` in ``source`` outside :data:`ORIGINS`, as "scope (line n)"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and scope not in ORIGINS:
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Subspace":
                    found.append(f"{scope or '<module>'} (line {child.lineno})")
            visit(child, scope)
    visit(ast.parse(source), "")
    return found


def test_only_the_two_origins_construct_a_subspace():
    problems, scanned = [], 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                problems += [f"{name}: {call}" for call in subspace_calls(fh.read())]
            scanned += 1
    assert not problems
    assert scanned >= 12


def test_the_origins_exist_and_call_the_constructor():
    with open(os.path.join(SRC, "linalg.py")) as fh:
        source = fh.read()
    tree = ast.parse(source)
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "Subspace")
    callers = {f"Subspace.{node.name}" for node in cls.body if isinstance(node, ast.FunctionDef)
               and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "Subspace"
                       for c in ast.walk(node))}
    assert callers == ORIGINS


def test_the_lint_sees_every_kind_of_call():
    source = ("from . import linalg\n"
              "class Subspace:\n"
              "    def _span(f):\n"
              "        return Subspace(f)\n"
              "    @staticmethod\n"
              "    def full(f):\n"
              "        return Subspace(f, [1])\n"
              "def g(f):\n"
              "    return linalg.Subspace(f)\n"
              "zero = Subspace(None)\n")
    assert subspace_calls(source) == ["Subspace.full (line 7)", "g (line 9)",
                                      "<module> (line 10)"]
    assert not subspace_calls("x = Subspace.from_vectors(f, 2, [])\nSubspace._span(f, 2, {})\n")


def test_a_hom_space_is_its_flat_rows():
    with open(os.path.join(SRC, "modules.py")) as fh:
        tree = ast.parse(fh.read())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "HomSpace")
    fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["source", "target", "flat"]
