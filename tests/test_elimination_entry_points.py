"""Lint: every elimination goes through a public entry point of ``linalg``.

``_echelon`` and the builders of its integer rows are the elimination's
internals: ``_sparse`` and ``_integer_rows``, which
turn a matrix's rows into the ints it reads, and ``_kernel_rows``, which
writes a kernel's rows from its integer pivot rows.  Outside ``linalg.py``
the package reaches them only through ``rref``, ``rank``, ``kernel_basis``,
``kernel_subspace``, ``solve``, ``solve_matrix`` and
``Subspace.from_vectors``, the names a tracer wraps to count elimination
work, so no elimination goes uncounted and integer rows reach it only
through those entry points.
"""

import ast
import os

import shortloc

SRC = os.path.dirname(shortloc.__file__)

INTERNALS = {"_echelon", "_sparse", "_integer_rows", "_kernel_rows"}


def references(source: str) -> list[str]:
    """Each reference to an elimination internal in ``source``, as "name (line n)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import of {alias.name}")
                      for alias in node.names if alias.name in INTERNALS]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in INTERNALS:
                found.append((node.lineno, name))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_only_linalg_reaches_the_elimination_internals():
    problems, scanned = [], 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "linalg.py":
            with open(os.path.join(SRC, name)) as fh:
                problems += [f"{name}: {ref}" for ref in references(fh.read())]
            scanned += 1
    assert not problems
    assert scanned >= 10


def test_linalg_defines_the_internals_it_guards():
    with open(os.path.join(SRC, "linalg.py")) as fh:
        tree = ast.parse(fh.read())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert INTERNALS <= defined


def test_the_lint_sees_every_kind_of_reference():
    source = ("from .linalg import _echelon\n"
              "from . import linalg\n"
              "def f(m):\n"
              "    return linalg._kernel_rows(m.field, linalg.piv)\n"
              "g = _echelon\n")
    assert references(source) == ["import of _echelon (line 1)", "_kernel_rows (line 4)",
                                  "_echelon (line 5)"]
    assert not references("from .linalg import rank, kernel_subspace\nx = rank\n")
